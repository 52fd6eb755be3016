// Exact order statistics over per-request samples, plus process probes
// (peak RSS, CPU time). Percentiles are never read from the engine's
// log-bucketed histograms, whose buckets are 12.5% wide.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the ceil(q * n)-th smallest value, q in (0, 1].
/// Returns 0 for an empty sample.
double percentile(std::vector<double> values, double q);

/// The middle value (mean of the two middle values for an even count).
double median(std::vector<double> values);

/// Peak resident set size of this process, in MiB.
double peak_rss_mib();

/// CPU seconds this process has used, summed over its threads.
double process_cpu_seconds();

}  // namespace perfbench
