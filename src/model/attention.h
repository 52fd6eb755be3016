// Multi-head causal self-attention over a KvCache.
//
// The kernel exposes both the scaled unnormalized logits x_i = QK^T/sqrt(d)
// and the post-softmax probabilities for every (head, query, key) — the two
// arrays every score function in the paper consumes (H2O accumulates the
// probabilities, Keyformer regularizes the logits).
//
// Positioning and the append-time rotation contract:
//   - RoPE + PositionMode::kOriginal (the default): a token's effective
//     position is its original sequence position, which never changes once
//     appended — so keys are rotated *once at append time* and stored
//     rotated. No per-step re-rotation of the whole cache.
//   - RoPE + PositionMode::kNew (Table 3 ablation): the effective position
//     is the token's current slot index, which changes on compaction — so
//     keys are stored unrotated and rotated at attention time.
//   - ALiBi / learned: keys are stored as projected.
// Causal masking always uses original order. Switching position_mode only
// takes effect for caches (re)filled after the switch — callers reset the
// cache between mode changes (all in-repo callers do).
//
// Two kernels, one per phase:
//   - attention_forward: any n_q continuing the sequence (prefill, prompt
//     chunks) — blocked QKV/output projection GEMMs, per-(query, head)
//     dots against the cache, causal masking on original order;
//   - attention_decode_batch: one new token for each of N independent
//     sequences, N >= 1 — every decode token runs it, solo or batched.
//     Per-row matvec QKV/output projections, then the fused per-head
//     attend over each sequence's own cache (per-head dots streaming the
//     cache's contiguous head-major key segments, one per head for the
//     classic arena and one per block for a paged cache, and one pass
//     doing softmax + weighted-value accumulation), parallel across
//     sequences. A row's arithmetic never depends on the batch it shares,
//     so a sequence's decode logits are bit-identical at any batch size.
// The two agree within float rounding (~1e-5, parity-tested).
#pragma once

#include <cstddef>
#include <span>

#include "core/tensor.h"
#include "kvcache/kv_cache.h"
#include "model/config.h"
#include "model/weights.h"

namespace kf::model {

/// Attention internals for one layer invocation.
struct AttentionResult {
  Tensor context;  ///< [n_q, d_model] — heads merged and projected by W_o
  Tensor logits;   ///< [n_heads, n_q, key_len]; masked entries = -inf
  Tensor probs;    ///< [n_heads, n_q, key_len]; masked entries = 0
  std::size_t n_q = 0;
  std::size_t key_len = 0;
};

/// Wall-clock accumulator for the decode-latency breakdown
/// (bench_decode_throughput). Pass nullptr to skip timing entirely.
struct AttentionTimings {
  double project_seconds = 0.0;  ///< QKV + output projections
  double attend_seconds = 0.0;   ///< KV append + dots + softmax + weighted
                                 ///< values (same split on the prompt and
                                 ///< decode kernels)
};

/// Projects `x` (n_q rows that continue the sequence) to Q/K/V, appends the
/// new K/V rows to `cache` at `q_positions` (strictly increasing original
/// positions), then attends each query against the full cache.
AttentionResult attention_forward(const ModelConfig& cfg,
                                  const LayerWeights& w, const Tensor& x,
                                  std::span<const std::size_t> q_positions,
                                  kv::KvCache& cache,
                                  AttentionTimings* timings = nullptr);

/// One sequence's slot in a batched decode step: the new token's original
/// sequence position and the sequence's own cache for this layer.
struct DecodeBatchSlot {
  std::size_t q_position = 0;
  kv::KvCache* cache = nullptr;
};

/// The decode kernel: one new token per sequence, the B rows of `x`
/// ([B, d_model], one row per slot, B >= 1). Each row is projected with its
/// own matvec, appended to and attended against its slot's *own* cache
/// (parallel across slots; callers guarantee distinct caches), then
/// projected through W_o. No step mixes rows, so each slot's result is
/// bit-identical to decoding that sequence alone.
std::vector<AttentionResult> attention_decode_batch(
    const ModelConfig& cfg, const LayerWeights& w, const Tensor& x,
    std::span<const DecodeBatchSlot> slots,
    AttentionTimings* timings = nullptr);

/// True when the storage contract keeps cached keys pre-rotated: RoPE with
/// immutable effective positions rotates each key once, at append time.
constexpr bool keys_stored_rotated(const ModelConfig& cfg) noexcept {
  return cfg.positional == PositionalKind::kRoPE &&
         cfg.position_mode == PositionMode::kOriginal;
}

}  // namespace kf::model
