#include "serve/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/rng.h"
#include "kvcache/policy_factory.h"
#include "model/generator.h"

namespace kf::serve {
namespace {

using model::GenerationConfig;
using model::ModelConfig;
using model::PositionalKind;
using model::Token;
using model::Transformer;

ModelConfig tiny_config(PositionalKind pos = PositionalKind::kRoPE) {
  ModelConfig cfg;
  cfg.vocab_size = 64;
  cfg.d_model = 16;
  cfg.n_layers = 2;
  cfg.n_heads = 2;
  cfg.d_ff = 32;
  cfg.max_seq_len = 512;
  cfg.positional = pos;
  return cfg;
}

std::vector<Token> make_prompt(std::size_t n, std::uint64_t seed = 0) {
  std::vector<Token> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<Token>((i * 11 + 3 + seed * 7) % 64);
  }
  return p;
}

class EngineParity
    : public ::testing::TestWithParam<
          std::tuple<PositionalKind, kv::PolicyKind>> {};

TEST_P(EngineParity, BatchOfOneMatchesGenerateTokenExactly) {
  // The paged engine must reproduce model::generate — the direct loop on
  // the model's contiguous default state — token for token, for every
  // policy x positional family, across block sizes that do and don't
  // divide the cache lengths; and return every block after.
  const auto [pos, kind] = GetParam();
  Transformer model(tiny_config(pos));

  GenerationConfig g;
  g.max_new_tokens = 12;
  g.cache_ratio = kind == kv::PolicyKind::kFull ? 1.0 : 0.5;
  const auto prompt = make_prompt(32);

  auto ref_policy = kv::make_policy(kind);
  const std::vector<Token> expected =
      model::generate(model, prompt, *ref_policy, g).tokens;

  Request req;
  req.prompt = prompt;
  req.gen = g;
  for (const std::size_t block_tokens : {3, 16}) {
    EngineConfig ec;
    ec.policy.kind = kind;
    ec.paged.block_tokens = block_tokens;
    Engine engine(model, ec);
    const auto responses = engine.run({&req, 1});
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].tokens, expected)
        << "block_tokens " << block_tokens;
    EXPECT_EQ(responses[0].prompt_len, prompt.size());
    EXPECT_EQ(responses[0].finish, FinishReason::kLength);
    EXPECT_GT(responses[0].prefill_seconds, 0.0);
    EXPECT_EQ(engine.pool().stats().used_blocks, 0u)
        << "blocks leaked at block_tokens " << block_tokens;
    EXPECT_GT(engine.stats().pool_peak_used_blocks, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesTimesFamilies, EngineParity,
    ::testing::Combine(::testing::Values(PositionalKind::kRoPE,
                                         PositionalKind::kALiBi,
                                         PositionalKind::kLearned),
                       ::testing::Values(kv::PolicyKind::kFull,
                                         kv::PolicyKind::kWindow,
                                         kv::PolicyKind::kRandom,
                                         kv::PolicyKind::kStreamingLLM,
                                         kv::PolicyKind::kH2O,
                                         kv::PolicyKind::kKeyformer)),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_" +
             kv::to_string(std::get<1>(info.param));
    });

TEST(Engine, GenerateMatchesEngineRun) {
  // generate() and a direct engine run with the same policy configuration
  // carry the same tokens and the same per-layer final cache sizes.
  Transformer model(tiny_config());
  GenerationConfig g;
  g.max_new_tokens = 10;
  g.cache_ratio = 0.5;
  const auto prompt = make_prompt(24);

  auto policy = kv::make_policy(kv::PolicyKind::kKeyformer);
  const auto direct = model::generate(model, prompt, *policy, g);

  EngineConfig ec;
  ec.policy.kind = kv::PolicyKind::kKeyformer;
  Engine engine(model, ec);
  Request req;
  req.prompt = prompt;
  req.gen = g;
  const auto responses = engine.run({&req, 1});
  EXPECT_EQ(responses[0].tokens, direct.tokens);
  EXPECT_EQ(responses[0].final_cache_sizes, direct.final_cache_sizes);
  EXPECT_EQ(responses[0].peak_cache_tokens, direct.peak_cache_tokens);
}

TEST(Engine, DefaultConfigPagesOnOneUnboundedPool) {
  Transformer model(tiny_config());
  Engine engine(model, EngineConfig{});
  EXPECT_EQ(engine.pool().stats().capacity_blocks, 0u);  // unbounded
  Request req;
  req.prompt = make_prompt(20);
  req.gen.max_new_tokens = 4;
  const auto responses = engine.run({&req, 1});
  EXPECT_EQ(responses[0].tokens.size(), 4u);
  EXPECT_GT(engine.stats().pool_peak_used_blocks, 0u);
  EXPECT_EQ(engine.pool().stats().used_blocks, 0u);
  EXPECT_EQ(engine.pool().stats().reserved_blocks, 0u);
}

TEST(Engine, RejectsDisabledPagedMemory) {
  // Paging is the only storage; the flag survives only so configurations
  // that set it keep compiling, and switching it off is refused.
  Transformer model(tiny_config());
  EngineConfig ec;
  ec.paged.enabled = false;
  EXPECT_THROW(Engine(model, ec), std::invalid_argument);
}

TEST(Engine, MixedBatchSequencesDoNotPerturbEachOther) {
  // Randomized continuous-batching run: mixed prompt lengths, staggered
  // arrivals, mixed generation lengths — every request's token stream must
  // be identical to its solo batch-of-one run, and per-sequence budget
  // invariants must hold throughout.
  Transformer model(tiny_config());
  Rng rng(123);

  std::vector<Request> requests;
  for (std::size_t i = 0; i < 7; ++i) {
    Request req;
    req.id = i;
    req.prompt = make_prompt(12 + rng.uniform_u64(30), /*seed=*/i);
    req.gen.max_new_tokens = 4 + rng.uniform_u64(10);
    req.gen.cache_ratio = 0.5;
    req.arrival_step = rng.uniform_u64(6);
    requests.push_back(std::move(req));
  }

  EngineConfig ec;
  ec.policy.kind = kv::PolicyKind::kKeyformer;
  ec.scheduler.max_batch_size = 4;
  ec.scheduler.max_concurrent_tokens = 120;

  Engine engine(model, ec);
  const auto mixed = engine.run(requests);
  ASSERT_EQ(mixed.size(), requests.size());
  EXPECT_LE(engine.stats().max_batch, 4u);
  // The 120-token budget is 2 layers x ceil(120/16) = 16 pool blocks.
  EXPECT_EQ(engine.stats().pool_capacity_blocks, 16u);
  EXPECT_LE(engine.stats().max_blocks_in_use, 16u);
  EXPECT_GT(engine.stats().decoded_tokens, 0u);

  for (std::size_t i = 0; i < requests.size(); ++i) {
    // Budget invariants per sequence.
    const auto& r = mixed[i];
    const kv::CacheBudget budget = kv::make_budget(
        requests[i].prompt.size(), requests[i].gen.cache_ratio);
    EXPECT_EQ(r.budget.max_tokens, budget.max_tokens) << "req " << i;
    for (const std::size_t size : r.final_cache_sizes) {
      EXPECT_LE(size, std::max(budget.max_tokens, requests[i].prompt.size()))
          << "req " << i;
    }
    EXPECT_LE(r.peak_cache_tokens,
              std::max(requests[i].prompt.size(), budget.max_tokens + 1))
        << "req " << i;
    EXPECT_EQ(r.tokens.size(), requests[i].gen.max_new_tokens)
        << "req " << i;

    // Solo run of the same request: identical tokens.
    Engine solo(model, ec);
    Request alone = requests[i];
    alone.arrival_step = 0;
    const auto solo_resp = solo.run({&alone, 1});
    EXPECT_EQ(r.tokens, solo_resp[0].tokens) << "req " << i;
  }
}

TEST(Engine, MixedBatchDeterministicAcrossRuns) {
  Transformer model(tiny_config(PositionalKind::kALiBi));
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 5; ++i) {
    Request req;
    req.prompt = make_prompt(16 + 4 * i, i);
    req.gen.max_new_tokens = 6 + i;
    req.gen.cache_ratio = 0.6;
    req.arrival_step = i / 2;
    requests.push_back(std::move(req));
  }
  EngineConfig ec;
  ec.scheduler.max_batch_size = 3;
  Engine engine(model, ec);
  const auto a = engine.run(requests);
  const auto b = engine.run(requests);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tokens, b[i].tokens) << "req " << i;
  }
}

TEST(Engine, EosRetiresSequenceMidBatchWithoutPerturbingOthers) {
  Transformer model(tiny_config());
  // Probe run to learn the first generated token of request 0, then make
  // that token its eos so it retires after one token while others run on.
  Request probe;
  probe.prompt = make_prompt(20, 0);
  probe.gen.max_new_tokens = 8;
  Engine engine(model, EngineConfig{});
  const auto probe_resp = engine.run({&probe, 1});
  ASSERT_FALSE(probe_resp[0].tokens.empty());

  std::vector<Request> requests(3);
  for (std::size_t i = 0; i < 3; ++i) {
    requests[i].id = i;
    requests[i].prompt = make_prompt(20, i);
    requests[i].gen.max_new_tokens = 8;
  }
  requests[0].gen.eos_token = probe_resp[0].tokens[0];

  const auto mixed = engine.run(requests);
  EXPECT_EQ(mixed[0].tokens.size(), 1u);
  EXPECT_EQ(mixed[0].finish, FinishReason::kEos);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(mixed[i].tokens.size(), 8u);
    Engine solo(model, EngineConfig{});
    const auto solo_resp = solo.run({&requests[i], 1});
    EXPECT_EQ(mixed[i].tokens, solo_resp[0].tokens) << "req " << i;
  }
}

TEST(Engine, LateArrivalJoinsMidStream) {
  Transformer model(tiny_config());
  std::vector<Request> requests(2);
  requests[0].prompt = make_prompt(16, 0);
  requests[0].gen.max_new_tokens = 10;
  requests[1].prompt = make_prompt(16, 1);
  requests[1].gen.max_new_tokens = 4;
  requests[1].arrival_step = 5;  // joins while request 0 is decoding

  Engine engine(model, EngineConfig{});
  const auto responses = engine.run(requests);
  EXPECT_EQ(responses[0].tokens.size(), 10u);
  EXPECT_EQ(responses[1].tokens.size(), 4u);
  EXPECT_GE(responses[1].first_decode_step, 5u);
  // The latecomer's tokens match its solo run regardless of the join.
  Engine solo(model, EngineConfig{});
  Request alone = requests[1];
  alone.arrival_step = 0;
  const auto solo_resp = solo.run({&alone, 1});
  EXPECT_EQ(responses[1].tokens, solo_resp[0].tokens);
}

TEST(Engine, ZeroMaxNewTokensFinishesWithoutDecoding) {
  Transformer model(tiny_config());
  Request req;
  req.prompt = make_prompt(8);
  req.gen.max_new_tokens = 0;
  Engine engine(model, EngineConfig{});
  const auto responses = engine.run({&req, 1});
  EXPECT_TRUE(responses[0].tokens.empty());
  EXPECT_EQ(responses[0].finish, FinishReason::kLength);
  EXPECT_EQ(engine.stats().steps, 0u);
}

TEST(Engine, RejectsEmptyPromptAndBatchKeepsDecoding) {
  // An empty prompt is contained as a kRejected response — never an
  // exception — and the valid request next to it decodes normally.
  Transformer model(tiny_config());
  Engine engine(model, EngineConfig{});
  std::vector<Request> requests(2);
  // requests[0]: empty prompt.
  requests[1].prompt = make_prompt(8);
  requests[1].gen.max_new_tokens = 4;
  const auto responses = engine.run(requests);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].finish, FinishReason::kRejected);
  EXPECT_FALSE(responses[0].error.empty());
  EXPECT_TRUE(responses[0].tokens.empty());
  EXPECT_NE(responses[1].finish, FinishReason::kRejected);
  EXPECT_EQ(responses[1].tokens.size(), 4u);
  EXPECT_EQ(engine.stats().rejections, 1u);
}

TEST(Engine, RejectsSharedPolicyAcrossRequests) {
  // Two live requests on one policy would clobber each other's score
  // state; the engine rejects the duplicates up front (first claimant
  // wins) instead of failing deep inside step_batch after wasted prefill
  // work.
  Transformer model(tiny_config());
  Engine engine(model, EngineConfig{});
  std::vector<Request> requests(2);
  requests[0].prompt = make_prompt(8, 0);
  requests[0].gen.max_new_tokens = 2;
  requests[1].prompt = make_prompt(8, 1);
  requests[1].gen.max_new_tokens = 2;

  auto shared_policy = kv::make_policy(kv::PolicyKind::kKeyformer);
  requests[0].policy = shared_policy.get();
  requests[1].policy = shared_policy.get();
  const auto responses = engine.run(requests);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses[0].finish, FinishReason::kRejected);  // first wins
  EXPECT_EQ(responses[0].tokens.size(), 2u);
  EXPECT_EQ(responses[1].finish, FinishReason::kRejected);
  EXPECT_FALSE(responses[1].error.empty());
}

TEST(Engine, PagedMixedBatchMatchesGenerateAndLeaksNothing) {
  // Randomized admit/retire churn under a real block cap: staggered
  // arrivals, mixed lengths, sequences joining as others retire. Every
  // token stream must match model::generate of the same request, and
  // after the run every block must be back on the free lists with no
  // reservations left — the no-leak half of the acceptance criteria.
  Transformer model(tiny_config());
  Rng rng(321);
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 9; ++i) {
    Request req;
    req.id = i;
    req.prompt = make_prompt(12 + rng.uniform_u64(30), /*seed=*/i);
    req.gen.max_new_tokens = 4 + rng.uniform_u64(10);
    req.gen.cache_ratio = 0.5;
    req.arrival_step = rng.uniform_u64(8);
    requests.push_back(std::move(req));
  }

  EngineConfig ec;
  ec.policy.kind = kv::PolicyKind::kKeyformer;
  ec.scheduler.max_batch_size = 4;
  ec.scheduler.max_concurrent_tokens = 120;
  ec.paged.block_tokens = 8;
  Engine paged(model, ec);
  const auto got = paged.run(requests);

  ASSERT_EQ(got.size(), requests.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Block-granular admission can only delay a join, never change a
    // sequence's own tokens.
    auto policy = kv::make_policy(kv::PolicyKind::kKeyformer);
    const auto expected = model::generate(model, requests[i].prompt,
                                          *policy, requests[i].gen);
    EXPECT_EQ(got[i].tokens, expected.tokens) << "req " << i;
  }
  const mem::PoolStats ps = paged.pool().stats();
  EXPECT_EQ(ps.used_blocks, 0u) << "leaked blocks";
  EXPECT_EQ(ps.reserved_blocks, 0u) << "leaked reservations";
  EXPECT_GT(paged.stats().max_blocks_in_use, 0u);
  EXPECT_GT(paged.stats().pool_capacity_blocks, 0u);
  EXPECT_LE(paged.stats().pool_peak_used_blocks,
            paged.stats().pool_capacity_blocks);
  EXPECT_GE(paged.stats().max_fragmentation, 0.0);
  EXPECT_LT(paged.stats().max_fragmentation, 1.0);
}

TEST(Engine, BlockAlignedBudgetDecodesWithoutPoolAllocations) {
  // A 32-token prompt at cache_ratio 0.5 keeps k = 16 tokens per layer: two
  // full 8-token blocks. Each decode step appends token k+1 (opening a
  // block) and evicts back to k (draining it), so the drained block must
  // be kept as the cache's spare rather than round-tripping through the
  // pool: the decode steps add no pool.allocs at all.
  Transformer model(tiny_config());
  const auto allocs_for = [&](std::size_t max_new_tokens) {
    std::vector<Request> requests(1);
    requests[0].prompt = make_prompt(32);
    requests[0].gen.max_new_tokens = max_new_tokens;
    requests[0].gen.cache_ratio = 0.5;
    EngineConfig ec;
    ec.policy.kind = kv::PolicyKind::kKeyformer;
    ec.paged.block_tokens = 8;
    Engine engine(model, ec);
    const auto got = engine.run(requests);
    EXPECT_EQ(got[0].tokens.size(), max_new_tokens);
    EXPECT_EQ(engine.pool().stats().used_blocks, 0u) << "leaked blocks";
    return engine.metrics().counter("pool.allocs").value();
  };
  const std::uint64_t prefill_only = allocs_for(1);  // no decode step
  EXPECT_GT(prefill_only, 0u);
  EXPECT_EQ(allocs_for(9), prefill_only);  // 8 decode steps
}

TEST(Engine, PagedModeDerivesPoolCapacityFromTokenBudget) {
  Transformer model(tiny_config());  // 2 layers
  EngineConfig ec;
  ec.scheduler.max_concurrent_tokens = 100;
  ec.paged.block_tokens = 8;
  Engine engine(model, ec);
  // 2 layers * ceil(100/8)=13 -> 26 blocks.
  EXPECT_EQ(engine.pool().config().capacity_blocks, 26u);
  EXPECT_EQ(engine.pool().stats().capacity_blocks, 26u);
}

TEST(Engine, GenerateStillWorksWhilePagedEngineExists) {
  // generate() runs on the model's own contiguous default state; a paged
  // engine on the same model must not disturb it.
  Transformer model(tiny_config());
  Engine paged(model, EngineConfig{});
  GenerationConfig g;
  g.max_new_tokens = 6;
  g.cache_ratio = 0.5;
  auto policy = kv::make_policy(kv::PolicyKind::kKeyformer);
  const auto prompt = make_prompt(16);
  const auto result = model::generate(model, prompt, *policy, g);
  EXPECT_EQ(result.tokens.size(), 6u);
}

TEST(Engine, AggregateStatsAreConsistent) {
  Transformer model(tiny_config());
  std::vector<Request> requests(3);
  std::size_t expected_decoded = 0;
  std::size_t expected_prefill = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    requests[i].prompt = make_prompt(10 + i, i);
    requests[i].gen.max_new_tokens = 5;
    expected_decoded += 5 - 1;  // first token comes from prefill
    expected_prefill += requests[i].prompt.size();
  }
  Engine engine(model, EngineConfig{});
  const auto responses = engine.run(requests);
  EXPECT_EQ(engine.stats().decoded_tokens, expected_decoded);
  EXPECT_EQ(engine.stats().prefilled_tokens, expected_prefill);
  EXPECT_EQ(engine.stats().max_batch, 3u);
  EXPECT_GT(engine.stats().decode_tokens_per_s(), 0.0);
  for (const auto& r : responses) {
    EXPECT_GT(r.decode_tokens_per_s(), 0.0);
    EXPECT_GT(r.prefill_seconds, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Robustness: preemption/resume, deadlines, oversized containment.

TEST(EngineRobustness, PreemptResumeIsTokenExactAcrossPolicies) {
  // Admission pressure parks a decoding victim and later resumes it by
  // recompute; its token stream must be identical to an unpressured solo
  // run — for more than one eviction policy, since resume replays the
  // policy's trims step by step.
  for (const auto kind : {kv::PolicyKind::kKeyformer, kv::PolicyKind::kH2O}) {
    Transformer model(tiny_config());
    std::vector<Request> requests(2);
    requests[0].prompt = make_prompt(32, 0);
    requests[0].gen.max_new_tokens = 16;
    requests[0].gen.cache_ratio = 0.5;
    requests[1].prompt = make_prompt(32, 1);
    requests[1].gen.max_new_tokens = 6;
    requests[1].gen.cache_ratio = 0.5;
    requests[1].arrival_step = 4;  // starved behind request 0

    EngineConfig ec;
    ec.policy.kind = kind;
    ec.paged.block_tokens = 8;
    // Room for one 32-token prompt (8 blocks) but not two.
    ec.paged.capacity_blocks = 10;
    ec.preempt.queue_pressure_steps = 2;
    ec.preempt.min_victim_age_steps = 2;
    Engine engine(model, ec);
    const auto mixed = engine.run(requests);
    ASSERT_EQ(mixed.size(), 2u);
    EXPECT_GE(engine.stats().preemptions, 1u);
    EXPECT_GT(engine.stats().resume_replayed_tokens, 0u);
    EXPECT_GE(mixed[0].preemptions, 1u);
    EXPECT_EQ(mixed[0].tokens.size(), 16u);
    EXPECT_EQ(mixed[1].tokens.size(), 6u);

    // Solo, unpressured runs: identical streams.
    for (std::size_t i = 0; i < 2; ++i) {
      EngineConfig solo_cfg = ec;
      solo_cfg.paged.capacity_blocks = 0;  // derive: effectively unbounded
      Engine solo(model, solo_cfg);
      Request alone = requests[i];
      alone.arrival_step = 0;
      const auto solo_resp = solo.run({&alone, 1});
      EXPECT_EQ(solo_resp[0].preemptions, 0u);
      EXPECT_EQ(mixed[i].tokens, solo_resp[0].tokens)
          << "req " << i << " policy " << static_cast<int>(kind);
    }
  }
}

TEST(EngineRobustness, DeadlineStepsTimesOutActiveSequence) {
  Transformer model(tiny_config());
  std::vector<Request> requests(2);
  requests[0].prompt = make_prompt(16, 0);
  requests[0].gen.max_new_tokens = 20;
  requests[0].deadline_steps = 5;  // far below 20 decode steps
  requests[1].prompt = make_prompt(16, 1);
  requests[1].gen.max_new_tokens = 8;
  Engine engine(model, EngineConfig{});
  const auto responses = engine.run(requests);
  EXPECT_EQ(responses[0].finish, FinishReason::kTimeout);
  EXPECT_FALSE(responses[0].error.empty());
  EXPECT_LT(responses[0].tokens.size(), 20u);
  // The neighbor is untouched by the shed.
  EXPECT_EQ(responses[1].tokens.size(), 8u);
  EXPECT_NE(responses[1].finish, FinishReason::kTimeout);
  EXPECT_EQ(engine.stats().timeouts, 1u);
}

TEST(EngineRobustness, MaxQueueStepsTimesOutStarvedWaiter) {
  Transformer model(tiny_config());
  std::vector<Request> requests(2);
  requests[0].prompt = make_prompt(24, 0);
  requests[0].gen.max_new_tokens = 20;
  requests[0].gen.cache_ratio = 0.5;
  requests[1].prompt = make_prompt(24, 1);
  requests[1].gen.max_new_tokens = 4;
  requests[1].gen.cache_ratio = 0.5;
  requests[1].max_queue_steps = 6;  // gives up long before 0 finishes
  EngineConfig ec;
  ec.preempt.enabled = false;  // starve honestly; no preemption rescue
  ec.scheduler.max_batch_size = 1;
  Engine engine(model, ec);
  const auto responses = engine.run(requests);
  EXPECT_EQ(responses[0].tokens.size(), 20u);
  EXPECT_EQ(responses[1].finish, FinishReason::kTimeout);
  EXPECT_TRUE(responses[1].tokens.empty());
  EXPECT_FALSE(responses[1].error.empty());
  EXPECT_EQ(engine.stats().timeouts, 1u);
}

TEST(EngineRobustness, OversizedForPoolRejectedRestOfBatchCompletes) {
  // A demand above the whole pool is contained as kRejected (never thrown
  // out of run()) and its batchmates still decode — token-exactly.
  Transformer model(tiny_config());
  std::vector<Request> requests(2);
  requests[0].prompt = make_prompt(128, 0);  // 16 blocks/layer: hopeless
  requests[0].gen.max_new_tokens = 4;
  requests[1].prompt = make_prompt(16, 1);
  requests[1].gen.max_new_tokens = 6;
  requests[1].gen.cache_ratio = 0.5;
  EngineConfig ec;
  ec.policy.kind = kv::PolicyKind::kKeyformer;
  ec.paged.block_tokens = 8;
  ec.paged.capacity_blocks = 8;
  Engine engine(model, ec);
  const auto responses = engine.run(requests);
  EXPECT_EQ(responses[0].finish, FinishReason::kRejected);
  EXPECT_FALSE(responses[0].error.empty());
  EXPECT_TRUE(responses[0].tokens.empty());
  EXPECT_EQ(responses[1].tokens.size(), 6u);
  EXPECT_EQ(engine.stats().rejections, 1u);
  // The survivor's stream matches its solo run.
  Engine solo(model, ec);
  const auto solo_resp = solo.run({&requests[1], 1});
  EXPECT_EQ(responses[1].tokens, solo_resp[0].tokens);
  // Nothing leaked: only free blocks remain in the pool.
  EXPECT_EQ(engine.pool().stats().used_blocks, 0u);
  EXPECT_EQ(engine.pool().stats().reserved_blocks, 0u);
}

}  // namespace
}  // namespace kf::serve
