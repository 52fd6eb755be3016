#include "workloads.h"

#include <stdexcept>

#include "data/fewshot.h"
#include "data/synthetic.h"
#include "data/vocab.h"
#include "kvcache/policy_factory.h"

namespace perfbench {

namespace kserve = kf::serve;

namespace {

// chat_decode: short dialogue prompts, long generations, batch kept just
// under its cap by the arrival spacing (no queueing, no preemption).
constexpr std::size_t kChatRequests = 32;
constexpr std::size_t kChatGen = 224;
constexpr std::size_t kChatBatch = 8;
constexpr std::size_t kChatSpacing = kChatGen / kChatBatch + 1;

// longdoc_prefill: long reports, short generations, staggered arrivals so
// each prompt is prefilled alone.
constexpr std::size_t kDocRequests = 6;
constexpr std::size_t kDocLen = 1024;
constexpr std::size_t kDocGen = 32;
constexpr std::size_t kDocBatch = 4;
constexpr std::size_t kDocSpacing = kDocGen / kDocBatch + 1;

// shared_pressure: two thirds share one few-shot preamble, one third are
// unshared documents; paged KV with the prefix cache on and a token
// budget tight enough that the default PreemptionConfig preempts.
constexpr std::size_t kSharedRequests = 48;
constexpr std::size_t kPreambleLen = 256;
constexpr std::size_t kQuestionLen = 32;
constexpr std::size_t kUnsharedLen = 190;
constexpr std::size_t kSharedGen = 40;
constexpr std::size_t kSharedBatch = 8;
constexpr std::size_t kSharedSpacing = 4;
constexpr std::size_t kSharedTokenBudget = 2400;

kf::model::GenerationConfig gen_config(std::size_t max_new_tokens) {
  kf::model::GenerationConfig g;
  g.max_new_tokens = max_new_tokens;
  g.cache_ratio = 0.5;
  // No eos: every request generates exactly max_new_tokens, so token
  // counts per request are the same for every seed.
  g.eos_token = -1;
  g.banned_tokens = {kf::data::kBos, kf::data::kEos, kf::data::kSep,
                     kf::data::kPad};
  return g;
}

kserve::EngineConfig engine_config(std::size_t max_batch) {
  kserve::EngineConfig ec;
  ec.policy.kind = kf::kv::PolicyKind::kKeyformer;
  ec.scheduler.max_batch_size = max_batch;
  return ec;
}

void add(Workload& w, std::vector<Token> prompt, std::vector<Token> reference,
         std::size_t gen, std::size_t arrival) {
  kserve::Request r;
  r.id = w.requests.size();
  r.prompt = std::move(prompt);
  r.gen = gen_config(gen);
  r.arrival_step = arrival;
  w.requests.push_back(std::move(r));
  w.references.push_back(std::move(reference));
}

Workload chat_decode(std::uint64_t seed, std::size_t vocab) {
  Workload w;
  w.name = "chat_decode";
  w.engine = engine_config(kChatBatch);
  kf::data::DialogueConfig dc;
  dc.n_turns = 4;
  dc.turn_len = 15;  // 1 + 4 * (1 + 15) + 1 = 66 prompt tokens
  dc.vocab_size = vocab;
  dc.seed = seed;
  for (std::size_t i = 0; i < kChatRequests; ++i) {
    kf::data::Sample s = kf::data::make_dialogue_sample(dc, i);
    add(w, std::move(s.prompt), std::move(s.reference), kChatGen,
        i * kChatSpacing);
  }
  return w;
}

Workload longdoc_prefill(std::uint64_t seed, std::size_t vocab) {
  Workload w;
  w.name = "longdoc_prefill";
  w.engine = engine_config(kDocBatch);
  kf::data::LongReportConfig lc;
  lc.doc_len = kDocLen;
  lc.vocab_size = vocab;
  lc.seed = seed;
  for (std::size_t i = 0; i < kDocRequests; ++i) {
    kf::data::Sample s = kf::data::make_long_report_sample(lc, i);
    add(w, std::move(s.prompt), std::move(s.reference), kDocGen,
        i * kDocSpacing);
  }
  return w;
}

Workload shared_pressure(std::uint64_t seed, std::size_t vocab) {
  Workload w;
  w.name = "shared_pressure";
  w.engine = engine_config(kSharedBatch);
  w.engine.scheduler.max_concurrent_tokens = kSharedTokenBudget;
  w.engine.paged.enabled = true;
  w.engine.prefix.enabled = true;

  // The preamble: shots of one few-shot MCQ prompt, cut to a whole number
  // of pool blocks so the shareable prefix is exactly the preamble.
  kf::data::McqConfig mc;
  mc.vocab_size = vocab;
  mc.seed = seed;
  mc.n_shots = kPreambleLen / (mc.passage_len / 3 + 3) + 1;
  std::vector<Token> preamble = kf::data::make_mcq_sample(mc, 0).prompt;
  preamble.resize(kPreambleLen);

  kf::data::McqConfig qc;
  qc.vocab_size = vocab;
  qc.seed = seed + 1;
  qc.passage_len = kQuestionLen;
  kf::data::SummarizationConfig sc;
  sc.doc_len = kUnsharedLen;
  sc.vocab_size = vocab;
  sc.seed = seed;
  for (std::size_t i = 0; i < kSharedRequests; ++i) {
    const std::size_t arrival = i * kSharedSpacing;
    if (i % 3 == 2) {
      kf::data::Sample s = kf::data::make_summarization_sample(sc, i);
      add(w, std::move(s.prompt), std::move(s.reference), kSharedGen,
          arrival);
      continue;
    }
    std::vector<Token> prompt = preamble;
    std::vector<Token> question = kf::data::make_mcq_sample(qc, i).prompt;
    question.resize(kQuestionLen);
    prompt.insert(prompt.end(), question.begin(), question.end());
    add(w, std::move(prompt), {}, kSharedGen, arrival);
    w.requests.back().shared_prefix_hint = kPreambleLen;
  }
  return w;
}

}  // namespace

kf::model::ModelConfig bench_model_config() {
  kf::model::ModelConfig cfg = kf::model::ModelConfig::gptj_like();
  cfg.max_seq_len = 4096;
  return cfg;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  const std::size_t vocab = bench_model_config().vocab_size;
  if (name == "chat_decode") return chat_decode(seed, vocab);
  if (name == "longdoc_prefill") return longdoc_prefill(seed, vocab);
  if (name == "shared_pressure") return shared_pressure(seed, vocab);
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

kserve::Request warmup_request(const kf::model::ModelConfig& cfg) {
  kserve::Request r;
  r.id = 0;
  r.prompt = kf::data::make_padded_prompt(48, cfg.vocab_size, /*seed=*/1);
  r.gen = gen_config(8);
  return r;
}

}  // namespace perfbench
