// The traced run's layer replay: a workload's requests driven directly
// through Transformer::prefill, Transformer::step_batch and their eviction
// policies, with the benchmark's own spans around each public call and the
// library's timing sinks (AttentionTimings, PolicyTimings) read around it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "model/transformer.h"
#include "workloads.h"

namespace perfbench {

/// In-memory span log. Spans of one request share `id`; `parent` is the
/// index of the enclosing span (-1 for a root). Each closed span is also
/// handed to obs::trace_complete, so obs::write_chrome_trace exports it
/// next to the library's own spans when tracing is enabled; write_json
/// keeps the ids and parents, which the Chrome format cannot carry.
class SpanLog {
 public:
  struct Span {
    const char* name = nullptr;  ///< string literal
    std::uint64_t id = 0;
    int parent = -1;
    std::uint64_t start = 0;  ///< trace ticks
    std::uint64_t end = 0;
  };

  int open(const char* name, std::uint64_t id, int parent);
  void close(int span);
  double seconds(int span) const;
  /// The span's duration minus the durations of its direct children.
  double self_seconds(int span) const;
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// {"spans": [{"name", "id", "parent", "start_us", "dur_us"}, ...]};
  /// returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Stage wall times summed over the replayed calls, in seconds.
struct StageSeconds {
  double call = 0.0;     ///< the public call's span
  double project = 0.0;  ///< AttentionTimings::project_seconds
  double attend = 0.0;   ///< AttentionTimings::attend_seconds
  double score = 0.0;    ///< PolicyTimings::score_seconds (all sequences)
  double evict = 0.0;    ///< PolicyTimings::evict_seconds (all sequences)
  /// Self time: the call minus the four timed stages (embed, MLP, lm_head).
  double other() const { return call - project - attend - score - evict; }
};

struct ReplayResult {
  std::size_t prefill_calls = 0;
  std::size_t prefill_tokens = 0;
  StageSeconds prefill;
  std::size_t batch = 0;  ///< sequences per replayed step_batch call
  std::size_t steps = 0;  ///< step_batch calls
  StageSeconds step;
  /// Heap allocations inside one mid-replay step_batch call, counted in
  /// two independent replays (they must agree).
  std::uint64_t allocs_per_step = 0;
  std::uint64_t allocs_per_step_repeat = 0;
};

/// Replays up to `max_prefills` requests through prefill, then the first
/// `batch` of them through step_batch for their generation length.
ReplayResult replay(kf::model::Transformer& model, const Workload& w,
                    std::size_t batch, std::size_t max_prefills,
                    SpanLog& spans);

/// Mean wall time of one empty ThreadPool::global().parallel_for, in µs.
double fork_join_us();

/// kf::matmul throughput at the prefill Q/K/V projection shape
/// [rows, d_model] x [d_model, d_model], with FLOPs = 2 * rows * d * d.
double matmul_gflops(std::size_t rows, std::size_t d_model);

}  // namespace perfbench
