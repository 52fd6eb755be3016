// Serving benchmark binary.
//
//   kf_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                [--git-sha SHA] [--trace-dir DIR]
//
// --trace 0 sets up the engine several times (setup_s is the median), then
// serves the workload's schedule through serve::Engine::run in repeated
// passes for S seconds and prints the end-to-end metrics. --trace 1 is the
// separate traced run: one untraced and one traced Engine::run pass for the
// serve/mem counters and the tracing overhead, then a replay of the
// requests through Transformer::prefill / step_batch for the per-layer
// stage times. Either way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Human-readable lines before it give every metric with its unit, sample
// count and definition. Percentiles are exact order statistics over
// per-request values.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/parse.h"
#include "core/rng.h"
#include "core/threadpool.h"
#include "core/timing.h"
#include "cpu/cpu_isa.h"
#include "eval/rouge.h"
#include "kvcache/policy_factory.h"
#include "model/generator.h"
#include "obs/trace.h"
#include "replay.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace kserve = kf::serve;

/// Engine builds per run; setup_s is their median.
constexpr int kSetupBuilds = 7;
/// Requests re-generated solo for token_match.
constexpr std::size_t kMatchRequests = 4;
/// Requests the traced run replays through prefill.
constexpr std::size_t kReplayPrefills = 4;
/// Traced/untraced engine pass pairs behind obs.trace_overhead.
constexpr std::size_t kOverheadPairs = 3;
/// Percentiles above the median are printed only with this many samples.
constexpr std::size_t kTailSamples = 100;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string trace_dir;
};

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "kf_perfbench: " << message << '\n';
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) fail(arg + " expects a value");
    const char* value = argv[++i];
    if (arg == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      const auto v = kf::parse_count(value);
      if (!v.has_value()) fail("--seed must be a non-negative integer");
      a.seed = *v;
      have_seed = true;
    } else if (arg == "--seconds") {
      const auto v = kf::parse_count(value, 3600);
      if (!v.has_value() || *v == 0) fail("--seconds must be 1..3600");
      a.seconds = static_cast<double>(*v);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (std::string(value) != "0" && std::string(value) != "1") {
        fail("--trace must be 0 or 1");
      }
      a.trace = std::string(value) == "1";
      have_trace = true;
    } else if (arg == "--git-sha") {
      a.git_sha = value;
    } else if (arg == "--trace-dir") {
      a.trace_dir = value;
    } else {
      fail("unknown argument " + arg);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    fail("usage: kf_perfbench --workload NAME --seed N --seconds S "
         "--trace 0|1 [--git-sha SHA] [--trace-dir DIR]");
  }
  return a;
}

/// One model + engine, built and warmed up.
struct Built {
  std::unique_ptr<kf::model::Transformer> model;
  std::unique_ptr<kserve::Engine> engine;  // references *model
  double seconds = 0.0;
};

Built build(const kserve::EngineConfig& ec) {
  Built b;
  const double t0 = kf::now_seconds();
  b.model = std::make_unique<kf::model::Transformer>(bench_model_config());
  b.engine = std::make_unique<kserve::Engine>(*b.model, ec);
  const kserve::Request warm = warmup_request(b.model->config());
  b.engine->run({&warm, 1});
  b.engine->clear_prefix_cache();
  b.seconds = kf::now_seconds() - t0;
  return b;
}

/// Builds kSetupBuilds times (the first pays lazy initialisation: thread
/// pool, kernel dispatch); keeps the last build, reports the median.
Built setup(const kserve::EngineConfig& ec, int builds, double& setup_s) {
  std::vector<double> times;
  Built b;
  for (int i = 0; i < builds; ++i) {
    b.engine.reset();  // the engine references the model: release it first
    b.model.reset();
    b = build(ec);
    times.push_back(b.seconds);
  }
  setup_s = median(times);
  return b;
}

struct Pass {
  std::vector<kserve::Response> responses;
  double wall = 0.0;
  kserve::EngineStats stats;
};

Pass serve_once(kserve::Engine& engine, const Workload& w) {
  engine.clear_prefix_cache();
  Pass p;
  const double t0 = kf::now_seconds();
  p.responses = engine.run(w.requests);
  p.wall = kf::now_seconds() - t0;
  p.stats = engine.stats();
  return p;
}

bool finished_ok(const kserve::Response& r) {
  return r.finish == kserve::FinishReason::kLength ||
         r.finish == kserve::FinishReason::kEos;
}

/// Per-request time per output token after the first, from the timeline.
double tpot_seconds(const kserve::Response& r) {
  using Kind = kf::obs::TimelineEventKind;
  const auto first = r.timeline.first(Kind::kFirstToken);
  const auto done = r.timeline.first(Kind::kFinished);
  if (!first || !done || r.tokens.size() < 2) return -1.0;
  return (*done - *first) / static_cast<double>(r.tokens.size() - 1);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count / definition / what it should move
};

class Report {
 public:
  void problem(const std::string& what) {
    std::cout << "CHECK FAILED: " << what << '\n';
    correct_ = false;
  }
  void metric(Metric m, bool in_result = true) {
    std::cout << "  " << std::left << std::setw(26) << m.name << std::right
              << std::setw(14) << std::setprecision(6) << m.value << ' '
              << std::left << std::setw(10) << m.unit << std::right << m.note
              << '\n';
    if (in_result) result_.push_back(std::move(m));
  }
  /// The result line: the last line of stdout.
  void finish(std::size_t attempted, std::size_t failed) const {
    std::ostringstream out;
    out << std::setprecision(17) << "{\"correct\": "
        << (correct_ ? "true" : "false") << ", \"attempted\": " << attempted
        << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < result_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << '"' << result_[i].name
          << "\": {\"value\": " << result_[i].value << ", \"unit\": \""
          << result_[i].unit << "\"}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
  }

 private:
  bool correct_ = true;
  std::vector<Metric> result_;
};

std::string count_note(std::size_t n, const std::string& what) {
  return "(n=" + std::to_string(n) + ") " + what;
}

/// Checks shared by both modes: every request finished with its full
/// generation length. Returns the failed-request count.
std::size_t check_finishes(const Workload& w, const Pass& p, Report& rep) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < p.responses.size(); ++i) {
    const kserve::Response& r = p.responses[i];
    if (!finished_ok(r)) {
      ++failed;
      rep.problem("request " + std::to_string(r.id) + " finished " +
                  kserve::to_string(r.finish) + " " + r.error);
    } else if (r.tokens.size() != w.requests[i].gen.max_new_tokens) {
      rep.problem("request " + std::to_string(r.id) + " generated " +
                  std::to_string(r.tokens.size()) + " tokens, expected " +
                  std::to_string(w.requests[i].gen.max_new_tokens));
    }
  }
  return failed;
}

/// Share of a seeded subset of served streams identical to a solo
/// model::generate() of the same request (outside any timed region).
double token_match(kf::model::Transformer& model, const Workload& w,
                   const Pass& p, std::uint64_t seed) {
  std::vector<std::size_t> idx(w.requests.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  kf::Rng rng(seed ^ 0x70CE4A7C4ULL);
  for (std::size_t i = idx.size(); i > 1; --i) {
    std::swap(idx[i - 1], idx[rng.uniform_u64(i)]);
  }
  idx.resize(std::min(kMatchRequests, idx.size()));
  std::size_t same = 0;
  for (const std::size_t i : idx) {
    const kserve::Request& req = w.requests[i];
    const auto policy = kf::kv::make_policy(w.engine.policy);
    const kf::model::GenerationResult solo =
        kf::model::generate(model, req.prompt, *policy, req.gen);
    if (solo.tokens == p.responses[i].tokens) ++same;
  }
  return static_cast<double>(same) / static_cast<double>(idx.size());
}

double mean_rouge_l(const Workload& w, const Pass& p, std::size_t& n) {
  double sum = 0.0;
  n = 0;
  for (std::size_t i = 0; i < w.references.size(); ++i) {
    if (w.references[i].empty()) continue;
    sum += kf::eval::rouge_l(p.responses[i].tokens, w.references[i]).f1;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

/// The seed may change token content only: another seed's schedule must
/// have the same prompt lengths, generation lengths and arrival steps, so
/// every seed asks for the same token counts per request.
void check_seed_shape(const Workload& w, std::uint64_t seed, Report& rep) {
  const Workload other = make_workload(w.name, seed + 1);
  bool same = other.requests.size() == w.requests.size();
  for (std::size_t i = 0; same && i < w.requests.size(); ++i) {
    const kserve::Request& a = w.requests[i];
    const kserve::Request& b = other.requests[i];
    same = a.prompt.size() == b.prompt.size() &&
           a.gen.max_new_tokens == b.gen.max_new_tokens &&
           a.arrival_step == b.arrival_step;
  }
  if (!same) rep.problem("schedule shape depends on the seed");
}

int run_end_to_end(const Args& args, const Workload& w) {
  Report rep;
  check_seed_shape(w, args.seed, rep);
  double setup_s = 0.0;
  Built b = setup(w.engine, kSetupBuilds, setup_s);

  // One unmeasured pass first: the workload's own first-touch costs (KV
  // buffers, pool slabs) land here, and its streams are the reference the
  // measured passes and token_match are checked against.
  const Pass warm = serve_once(*b.engine, w);
  std::size_t attempted = warm.responses.size();
  std::size_t failed = check_finishes(w, warm, rep);

  // Measure: whole passes of the schedule until the time is used.
  std::vector<Pass> passes;
  const double t_start = kf::now_seconds();
  do {
    passes.push_back(serve_once(*b.engine, w));
  } while (kf::now_seconds() - t_start < args.seconds);

  double wall = 0.0;
  std::vector<double> ttft, tpot, tok_per_s;
  for (std::size_t k = 0; k < passes.size(); ++k) {
    const Pass& p = passes[k];
    attempted += p.responses.size();
    failed += check_finishes(w, p, rep);
    wall += p.wall;
    std::size_t pass_tokens = 0;
    std::vector<double> pass_ttft, pass_tpot;
    for (std::size_t i = 0; i < p.responses.size(); ++i) {
      const kserve::Response& r = p.responses[i];
      pass_tokens += r.tokens.size();
      if (r.tokens != warm.responses[i].tokens) {
        rep.problem("request " + std::to_string(r.id) +
                    " produced a different stream on another pass");
      }
      if (!finished_ok(r)) continue;
      pass_ttft.push_back(1e3 * r.ttft_seconds);
      const double t = tpot_seconds(r);
      if (t >= 0.0) pass_tpot.push_back(1e3 * t);
    }
    tok_per_s.push_back(static_cast<double>(pass_tokens) / p.wall);
    std::cout << "pass " << k << ": " << p.wall << " s, ttft_p50 "
              << percentile(pass_ttft, 0.5) << " ms, tpot_p50 "
              << percentile(pass_tpot, 0.5) << " ms, " << tok_per_s.back()
              << " tokens/s\n";
    ttft.insert(ttft.end(), pass_ttft.begin(), pass_ttft.end());
    tpot.insert(tpot.end(), pass_tpot.begin(), pass_tpot.end());
  }

  const double match = token_match(*b.model, w, warm, args.seed);
  if (match < 1.0) rep.problem("token_match below 1");
  if (failed > 0) rep.problem("fail_ratio above 0");
  std::size_t n_rouge = 0;
  const double rouge = mean_rouge_l(w, warm, n_rouge);

  std::cout << "end-to-end metrics (" << passes.size() << " pass(es) of "
            << w.requests.size() << " requests, " << wall
            << " s in Engine::run):\n";
  rep.metric({"setup_s", setup_s, "s",
              count_note(kSetupBuilds, "median model+engine build with one "
                                       "warm-up request")});
  rep.metric({"ttft_p50_ms", percentile(ttft, 0.5), "ms",
              count_note(ttft.size(), "exact median of Response::ttft")});
  if (ttft.size() >= kTailSamples) {
    rep.metric({"ttft_p90_ms", percentile(ttft, 0.9), "ms",
                count_note(ttft.size(), "exact p90")},
               false);
  }
  rep.metric({"tpot_p50_ms", percentile(tpot, 0.5), "ms",
              count_note(tpot.size(), "(finished - first token) / "
                                      "(tokens - 1), exact median")});
  if (tpot.size() >= kTailSamples) {
    rep.metric({"tpot_p90_ms", percentile(tpot, 0.9), "ms",
                count_note(tpot.size(), "exact p90")},
               false);
  }
  rep.metric({"gen_tok_per_s", median(tok_per_s), "tokens/s",
              count_note(passes.size(), "median over passes of generated "
                                        "tokens / Engine::run wall")});
  rep.metric({"fail_ratio",
              static_cast<double>(failed) / static_cast<double>(attempted),
              "ratio", count_note(attempted, "requests not kLength/kEos")},
             false);
  rep.metric({"token_match", match, "ratio",
              count_note(std::min(kMatchRequests, w.requests.size()),
                         "streams equal to a solo generate()")});
  rep.metric({"rouge_l", rouge, "f1",
              count_note(n_rouge, "mean ROUGE-L F1 vs the sample reference")},
             false);
  rep.metric({"rss_peak_mib", peak_rss_mib(), "MiB", "peak RSS of the run"});
  rep.finish(attempted, failed);
  return 0;
}

/// Per-layer metric definitions: unit, and which end-to-end metric on which
/// workload each one should move.
struct LayerDef {
  const char* name;
  const char* unit;
  const char* moves;
};

const LayerDef kLayerDefs[] = {
    {"serve.queue_wait_p50_ms", "ms",
     "-> ttft_p50_ms on shared_pressure (~0 on chat_decode)"},
    {"serve.prefill_share", "ratio", "-> ttft_p50_ms on longdoc_prefill"},
    {"serve.batch_mean", "tokens/step", "-> gen_tok_per_s on chat_decode"},
    {"serve.steps", "count", "-> gen_tok_per_s on chat_decode"},
    {"serve.preemptions", "count",
     "-> ttft_p90_ms, gen_tok_per_s on shared_pressure (~0 elsewhere)"},
    {"serve.replayed_tokens", "count",
     "-> ttft_p90_ms, gen_tok_per_s on shared_pressure (~0 elsewhere)"},
    {"serve.prefill_work_ratio", "ratio",
     "-> ttft_p90_ms, gen_tok_per_s on shared_pressure (~1 elsewhere)"},
    {"mem.prefix_hit_rate", "ratio",
     "-> ttft_p50_ms on shared_pressure (0 elsewhere)"},
    {"mem.prefix_tokens_reused", "count",
     "-> ttft_p50_ms on shared_pressure (0 elsewhere)"},
    {"mem.pool_peak_blocks", "count", "-> rss_peak_mib on shared_pressure"},
    {"mem.frag_max", "ratio", "-> rss_peak_mib on shared_pressure"},
    {"mem.cow_copies", "count", "-> rss_peak_mib on shared_pressure"},
    {"model.prefill_ms_per_tok", "ms", "-> ttft_p50_ms on longdoc_prefill"},
    {"model.prefill.project_ms", "ms", "-> ttft_p50_ms on longdoc_prefill"},
    {"model.prefill.attend_ms", "ms", "-> ttft_p50_ms on longdoc_prefill"},
    {"model.prefill.other_ms", "ms",
     "-> ttft_p50_ms on longdoc_prefill (self time: embed, MLP, lm_head)"},
    {"model.step_ms", "ms", "-> tpot_p50_ms on chat_decode"},
    {"model.step.project_ms", "ms", "-> tpot_p50_ms on chat_decode"},
    {"model.step.attend_ms", "ms", "-> tpot_p50_ms on chat_decode"},
    {"model.step.other_ms", "ms",
     "-> tpot_p50_ms on chat_decode (self time: embed, MLP, lm_head)"},
    {"kvcache.prefill.score_ms", "ms", "-> ttft_p50_ms on longdoc_prefill"},
    {"kvcache.prefill.evict_ms", "ms", "-> ttft_p50_ms on longdoc_prefill"},
    {"kvcache.step.score_ms", "ms", "-> tpot_p50_ms on chat_decode"},
    {"kvcache.step.evict_ms", "ms", "-> tpot_p50_ms on chat_decode"},
    {"kvcache.evicted_tokens", "count", "count of cache rows dropped"},
    {"core.fork_join_us", "us", "-> tpot_p50_ms on chat_decode"},
    {"core.allocs_per_step", "count", "-> tpot_p50_ms on chat_decode"},
    {"cpu.matmul_gflops", "GFLOP/s",
     "-> ttft_p50_ms on longdoc_prefill (FLOPs = 2*m*k*n from the shape)"},
    {"run.cpu_util", "ratio",
     "process CPU s / Engine::run wall: idle or spinning workers"},
    {"obs.trace_overhead", "ratio",
     "median traced / median untraced Engine::run wall (3 passes each)"},
};

const LayerDef& layer_def(const std::string& name) {
  for (const LayerDef& d : kLayerDefs) {
    if (name == d.name) return d;
  }
  throw std::logic_error("undefined per-layer metric " + name);
}

/// Per span name: count, total and self time (minus direct children).
void print_span_summary(const SpanLog& spans) {
  std::vector<std::string> names;
  for (const SpanLog::Span& s : spans.spans()) {
    if (std::find(names.begin(), names.end(), s.name) == names.end()) {
      names.emplace_back(s.name);
    }
  }
  for (const std::string& name : names) {
    std::size_t n = 0;
    double total = 0.0, self = 0.0;
    for (std::size_t i = 0; i < spans.spans().size(); ++i) {
      if (name != spans.spans()[i].name) continue;
      ++n;
      total += spans.seconds(static_cast<int>(i));
      self += spans.self_seconds(static_cast<int>(i));
    }
    std::cout << "  span " << std::left << std::setw(12) << name << std::right
              << " n=" << std::setw(4) << n << "  total " << std::setw(10)
              << 1e3 * total << " ms  self " << std::setw(10) << 1e3 * self
              << " ms\n";
  }
}

void role_check(const std::string& what, bool ok) {
  std::cout << "  role: " << what << (ok ? "  [ok]" : "  [NOT MET]") << '\n';
}

int run_traced(const Args& args, const Workload& w) {
  Report rep;
  check_seed_shape(w, args.seed, rep);
  double setup_s = 0.0;
  Built b = setup(w.engine, 1, setup_s);

  // An unmeasured warm-up pass, as in the end-to-end run.
  const Pass warm = serve_once(*b.engine, w);
  std::size_t failed = check_finishes(w, warm, rep);
  const double cpu0 = process_cpu_seconds();
  const Pass plain = serve_once(*b.engine, w);
  const double cpu_util = (process_cpu_seconds() - cpu0) / plain.wall;
  failed += check_finishes(w, plain, rep);

  // Layer replay with the benchmark's spans recorded into the trace buffer.
  const kserve::EngineStats& st = plain.stats;
  const double batch_mean = st.steps > 0
                                ? static_cast<double>(st.decoded_tokens) /
                                      static_cast<double>(st.steps)
                                : 0.0;
  SpanLog spans;
  kf::obs::trace_reset();
  kf::obs::set_trace_enabled(true);
  const ReplayResult r =
      replay(*b.model, w, static_cast<std::size_t>(std::lround(batch_mean)),
             kReplayPrefills, spans);
  kf::obs::set_trace_enabled(false);
  if (!args.trace_dir.empty()) {
    const std::string chrome = args.trace_dir + "/trace_" + w.name + ".json";
    const std::string own = args.trace_dir + "/spans_" + w.name + ".json";
    if (!kf::obs::write_chrome_trace(chrome) || !spans.write_json(own)) {
      std::cout << "warning: could not write the traces to " << args.trace_dir
                << '\n';
    }
  }
  kf::obs::trace_reset();
  if (r.allocs_per_step != r.allocs_per_step_repeat) {
    rep.problem("core.allocs_per_step differs between two replays (" +
                std::to_string(r.allocs_per_step) + " vs " +
                std::to_string(r.allocs_per_step_repeat) + ")");
  }

  // Traced against untraced engine passes, alternated so host drift hits
  // both sides alike; every pass's scheduling counts must repeat exactly.
  std::vector<double> plain_walls = {plain.wall}, traced_walls;
  std::size_t attempted = warm.responses.size() + plain.responses.size();
  for (std::size_t i = 0; i < kOverheadPairs; ++i) {
    for (const bool on : {true, false}) {
      if (!on && i + 1 == kOverheadPairs) break;  // `plain` was the first
      kf::obs::set_trace_enabled(on);
      const Pass p = serve_once(*b.engine, w);
      kf::obs::set_trace_enabled(false);
      kf::obs::trace_reset();
      (on ? traced_walls : plain_walls).push_back(p.wall);
      attempted += p.responses.size();
      failed += check_finishes(w, p, rep);
      const kserve::EngineStats& ps = p.stats;
      if (ps.steps != st.steps || ps.preemptions != st.preemptions ||
          ps.resume_replayed_tokens != st.resume_replayed_tokens ||
          ps.evicted_tokens != st.evicted_tokens) {
        rep.problem("scheduling counts differ between two engine passes");
      }
    }
  }

  std::vector<double> queue_wait;
  std::size_t prompt_tokens = 0;
  for (const kserve::Response& resp : plain.responses) {
    queue_wait.push_back(1e3 * resp.queue_wait_seconds);
    prompt_tokens += resp.prompt_len;
  }

  const auto ms = [](double s, std::size_t n) {
    return n > 0 ? 1e3 * s / static_cast<double>(n) : 0.0;
  };
  const std::vector<std::pair<std::string, double>> values = {
      {"serve.queue_wait_p50_ms", percentile(queue_wait, 0.5)},
      {"serve.prefill_share", st.prefill_seconds / plain.wall},
      {"serve.batch_mean", batch_mean},
      {"serve.steps", static_cast<double>(st.steps)},
      {"serve.preemptions", static_cast<double>(st.preemptions)},
      {"serve.replayed_tokens", static_cast<double>(st.resume_replayed_tokens)},
      {"serve.prefill_work_ratio", static_cast<double>(st.prefilled_tokens) /
                                       static_cast<double>(prompt_tokens)},
      {"mem.prefix_hit_rate", st.prefix_hit_rate()},
      {"mem.prefix_tokens_reused", static_cast<double>(st.prefix_tokens_reused)},
      {"mem.pool_peak_blocks", static_cast<double>(st.pool_peak_used_blocks)},
      {"mem.frag_max", st.max_fragmentation},
      {"mem.cow_copies", static_cast<double>(st.prefix_cow_copies)},
      {"model.prefill_ms_per_tok", ms(r.prefill.call, r.prefill_tokens)},
      {"model.prefill.project_ms", ms(r.prefill.project, r.prefill_calls)},
      {"model.prefill.attend_ms", ms(r.prefill.attend, r.prefill_calls)},
      {"model.prefill.other_ms", ms(r.prefill.other(), r.prefill_calls)},
      {"model.step_ms", ms(r.step.call, r.steps)},
      {"model.step.project_ms", ms(r.step.project, r.steps)},
      {"model.step.attend_ms", ms(r.step.attend, r.steps)},
      {"model.step.other_ms", ms(r.step.other(), r.steps)},
      {"kvcache.prefill.score_ms", ms(r.prefill.score, r.prefill_calls)},
      {"kvcache.prefill.evict_ms", ms(r.prefill.evict, r.prefill_calls)},
      {"kvcache.step.score_ms", ms(r.step.score, r.steps)},
      {"kvcache.step.evict_ms", ms(r.step.evict, r.steps)},
      {"kvcache.evicted_tokens", static_cast<double>(st.evicted_tokens)},
      {"core.fork_join_us", fork_join_us()},
      {"core.allocs_per_step", static_cast<double>(r.allocs_per_step)},
      {"cpu.matmul_gflops",
       matmul_gflops(r.prefill_tokens / std::max<std::size_t>(1, r.prefill_calls),
                     b.model->config().d_model)},
      {"run.cpu_util", cpu_util},
      {"obs.trace_overhead", median(traced_walls) / median(plain_walls)},
  };

  std::cout << "replay spans (" << r.prefill_calls << " prefill call(s), "
            << r.steps << " step_batch call(s) at batch " << r.batch << "):\n";
  print_span_summary(spans);
  std::cout << "per-layer metrics:\n";
  for (const auto& [name, value] : values) {
    const LayerDef& d = layer_def(name);
    rep.metric({name, value, d.unit, d.moves});
  }

  std::cout << "workload role checks:\n";
  const bool pressured = w.name == "shared_pressure";
  if (w.name == "longdoc_prefill") {
    role_check("serve.prefill_share >= 0.8",
               st.prefill_seconds / plain.wall >= 0.8);
  }
  if (w.name == "chat_decode") {
    role_check("serve.prefill_share <= 0.3",
               st.prefill_seconds / plain.wall <= 0.3);
  }
  role_check(std::string("serve.preemptions ") + (pressured ? "> 0" : "== 0"),
             (st.preemptions > 0) == pressured);
  role_check(
      std::string("mem.prefix_hit_rate ") + (pressured ? "> 0" : "== 0"),
      (st.prefix_hit_rate() > 0.0) == pressured);

  rep.finish(attempted, failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // Refuse a forced non-native ISA: numbers from it would not be
  // comparable with the native dispatch the benchmark records.
  if (std::getenv("KF_CPU_ISA") != nullptr &&
      kf::cpu::active_isa() != kf::cpu::detected_isa()) {
    fail(std::string("KF_CPU_ISA forces a non-native ISA (") +
         kf::cpu::describe() + "); unset it");
  }
  Workload w;
  try {
    w = make_workload(args.workload, args.seed);
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
  std::cout << "env: {\"workload\": \"" << w.name << "\", \"seed\": "
            << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"threads\": " << kf::ThreadPool::global().size()
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"isa\": \"" << kf::cpu::describe() << "\", \"git\": \""
            << args.git_sha << "\"}\n";
  return args.trace ? run_traced(args, w) : run_end_to_end(args, w);
}
