#include "replay.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "alloc_count.h"
#include "core/tensor.h"
#include "core/threadpool.h"
#include "core/timing.h"
#include "kvcache/policy_factory.h"
#include "model/generator.h"
#include "obs/trace.h"

namespace perfbench {

namespace kmodel = kf::model;

int SpanLog::open(const char* name, std::uint64_t id, int parent) {
  spans_.push_back({name, id, parent, kf::trace_ticks(), 0});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int span) {
  Span& s = spans_.at(static_cast<std::size_t>(span));
  s.end = kf::trace_ticks();
  kf::obs::trace_complete(s.name, "perfbench", s.start, s.end);
}

double SpanLog::seconds(int span) const {
  const Span& s = spans_.at(static_cast<std::size_t>(span));
  return kf::trace_ticks_to_seconds(s.end - s.start);
}

double SpanLog::self_seconds(int span) const {
  double self = seconds(span);
  for (std::size_t i = static_cast<std::size_t>(span) + 1; i < spans_.size();
       ++i) {
    if (spans_[i].parent == span) self -= seconds(static_cast<int>(i));
  }
  return self;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start;
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\": \"" << s.name
        << "\", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"start_us\": " << 1e6 * kf::trace_ticks_to_seconds(s.start - t0)
        << ", \"dur_us\": " << 1e6 * kf::trace_ticks_to_seconds(s.end - s.start)
        << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {

/// One replayed sequence: its own KV state, policy and timing sink.
struct ReplaySeq {
  const kf::serve::Request* req = nullptr;
  kf::kv::SequenceKvState state;
  std::unique_ptr<kf::kv::EvictionPolicy> policy;
  kf::kv::PolicyTimings timings;
  std::vector<Token> tokens;
};

Token pick(const ReplaySeq& s, std::span<const float> logits) {
  return kmodel::select_greedy(logits, s.tokens, s.req->gen.repetition_penalty,
                               s.req->gen.banned_tokens);
}

/// Prefills requests [0, n) one at a time, each under a "request" root span
/// with "prefill" and "sample" (first-token selection) children.
std::vector<std::unique_ptr<ReplaySeq>> prefill_all(
    kmodel::Transformer& model, const Workload& w, std::size_t n,
    SpanLog& spans, double& call_seconds) {
  std::vector<std::unique_ptr<ReplaySeq>> seqs;
  for (std::size_t i = 0; i < n; ++i) {
    const kf::serve::Request& req = w.requests[i];
    auto s = std::make_unique<ReplaySeq>(ReplaySeq{
        &req, model.make_kv_state(req.prompt.size()),
        kf::kv::make_policy(w.engine.policy), {}, {}});
    s->policy->set_budget(kf::kv::make_budget(
        req.prompt.size(), req.gen.cache_ratio, req.gen.recent_ratio));
    kf::kv::SequenceInfo info;
    info.prompt_len = req.prompt.size();
    info.total_steps = req.gen.max_new_tokens;
    info.n_layers = model.config().n_layers;
    info.n_heads = model.config().n_heads;
    s->policy->begin_sequence(info);
    s->policy->set_timing_sink(&s->timings);

    const int root = spans.open("request", req.id, -1);
    const int call = spans.open("prefill", req.id, root);
    const kf::Tensor logits = model.prefill(s->state, req.prompt, *s->policy,
                                            req.gen.max_new_tokens);
    spans.close(call);
    call_seconds += spans.seconds(call);
    const int sample = spans.open("sample", req.id, root);
    s->tokens.push_back(pick(*s, logits.row(logits.dim(0) - 1)));
    spans.close(sample);
    spans.close(root);
    seqs.push_back(std::move(s));
  }
  return seqs;
}

/// Decodes `seqs` together through step_batch for their generation length
/// under one "decode" root span; returns the allocations counted inside
/// the middle step_batch call.
std::uint64_t decode_all(kmodel::Transformer& model,
                         std::vector<std::unique_ptr<ReplaySeq>>& seqs,
                         SpanLog& spans, ReplayResult& r) {
  std::size_t steps = seqs.front()->req->gen.max_new_tokens;
  for (const auto& s : seqs) {
    steps = std::min(steps, s->req->gen.max_new_tokens);
  }
  steps = steps > 0 ? steps - 1 : 0;  // the first token came from prefill
  const std::uint64_t id = seqs.front()->req->id;
  std::vector<kmodel::DecodeSlot> slots(seqs.size());
  std::uint64_t allocs_mid = 0;
  const int root = spans.open("decode", id, -1);
  for (std::size_t t = 1; t <= steps; ++t) {
    for (std::size_t b = 0; b < seqs.size(); ++b) {
      ReplaySeq& s = *seqs[b];
      slots[b] = {s.tokens.back(), s.req->prompt.size() + t - 1, t,
                  s.req->gen.max_new_tokens, &s.state, s.policy.get()};
    }
    const int call = spans.open("step_batch", id, root);
    const std::uint64_t a0 = allocation_count();
    const kf::Tensor logits = model.step_batch(slots);
    const std::uint64_t a1 = allocation_count();
    spans.close(call);
    if (t == (steps + 1) / 2) allocs_mid = a1 - a0;
    r.step.call += spans.seconds(call);
    const int sample = spans.open("sample", id, root);
    for (std::size_t b = 0; b < seqs.size(); ++b) {
      seqs[b]->tokens.push_back(pick(*seqs[b], logits.row(b)));
    }
    spans.close(sample);
  }
  spans.close(root);
  r.steps = steps;
  return allocs_mid;
}

}  // namespace

ReplayResult replay(kmodel::Transformer& model, const Workload& w,
                    std::size_t batch, std::size_t max_prefills,
                    SpanLog& spans) {
  if (w.requests.empty()) throw std::invalid_argument("empty workload");
  ReplayResult r;
  r.batch = std::clamp<std::size_t>(batch, 1, w.requests.size());
  const std::size_t n_prefill =
      std::min(w.requests.size(), std::max(max_prefills, r.batch));

  kmodel::AttentionTimings attn;
  model.set_attention_timings(&attn);

  auto seqs = prefill_all(model, w, n_prefill, spans, r.prefill.call);
  r.prefill_calls = n_prefill;
  for (const auto& s : seqs) {
    r.prefill_tokens += s->req->prompt.size();
    r.prefill.score += s->timings.score_seconds;
    r.prefill.evict += s->timings.evict_seconds;
    s->timings = {};
  }
  r.prefill.project = attn.project_seconds;
  r.prefill.attend = attn.attend_seconds;
  attn = {};

  seqs.resize(r.batch);
  r.allocs_per_step = decode_all(model, seqs, spans, r);
  for (const auto& s : seqs) {
    r.step.score += s->timings.score_seconds;
    r.step.evict += s->timings.evict_seconds;
  }
  r.step.project = attn.project_seconds;
  r.step.attend = attn.attend_seconds;
  model.set_attention_timings(nullptr);

  // The same decode replay from fresh prefills: its mid-step allocation
  // count must repeat exactly (a deterministic work counter).
  SpanLog scratch_spans;
  double scratch_seconds = 0.0;
  ReplayResult scratch;
  auto again = prefill_all(model, w, r.batch, scratch_spans, scratch_seconds);
  r.allocs_per_step_repeat = decode_all(model, again, scratch_spans, scratch);
  return r;
}

double fork_join_us() {
  kf::ThreadPool& pool = kf::ThreadPool::global();
  const std::size_t n = std::max<std::size_t>(2, 2 * pool.size());
  const auto empty = [](std::size_t, std::size_t) {};
  pool.parallel_for(n, empty);
  constexpr int kReps = 4000;
  const double t0 = kf::now_seconds();
  for (int i = 0; i < kReps; ++i) pool.parallel_for(n, empty);
  return (kf::now_seconds() - t0) / kReps * 1e6;
}

double matmul_gflops(std::size_t rows, std::size_t d_model) {
  std::vector<float> a(rows * d_model);
  std::vector<float> b(d_model * d_model);
  std::vector<float> c(rows * d_model);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = 0.001F * (i % 97);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 0.001F * (i % 89);
  kf::matmul(a, b, c, rows, d_model, d_model);  // warm caches
  std::size_t reps = 0;
  const double t0 = kf::now_seconds();
  double elapsed = 0.0;
  while (reps < 3 || elapsed < 0.1) {
    kf::matmul(a, b, c, rows, d_model, d_model);
    ++reps;
    elapsed = kf::now_seconds() - t0;
  }
  const double flops = 2.0 * static_cast<double>(rows) *
                       static_cast<double>(d_model) *
                       static_cast<double>(d_model) * static_cast<double>(reps);
  return flops / elapsed / 1e9;
}

}  // namespace perfbench
