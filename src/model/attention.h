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
// Three execution paths produce identical results (within float rounding):
//   - attention_forward_general: any n_q (prefill, multi-token chunks);
//   - attention_decode: the fused single-query fast path — matvec QKV and
//     output projections, per-head dots streaming the cache's contiguous
//     head-major key segments (one per head for the classic arena, one per
//     block for a paged cache), and a single fused pass doing softmax +
//     weighted-value accumulation per head;
//   - attention_decode_batch: N independent sequences decoding one token
//     each — one QKV/output projection GEMM across the batch, then the
//     fused per-head attend over each sequence's own cache in parallel.
// attention_forward dispatches between the first two (cfg.decode_fast_path);
// the batch entry point is driven by Transformer::step_batch.
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
                                 ///< values (same split on decode fast
                                 ///< path, batched, and general paths)
};

/// Projects `x` (n_q rows that continue the sequence) to Q/K/V, appends the
/// new K/V rows to `cache` at `q_positions` (strictly increasing original
/// positions), then attends each query against the full cache. Dispatches
/// to the fused decode path when n_q == 1 and cfg.decode_fast_path is set.
AttentionResult attention_forward(const ModelConfig& cfg,
                                  const LayerWeights& w, const Tensor& x,
                                  std::span<const std::size_t> q_positions,
                                  kv::KvCache& cache,
                                  AttentionTimings* timings = nullptr);

/// The general blocked path for any n_q (always available — the reference
/// the fast path is parity-tested against).
AttentionResult attention_forward_general(
    const ModelConfig& cfg, const LayerWeights& w, const Tensor& x,
    std::span<const std::size_t> q_positions, kv::KvCache& cache,
    AttentionTimings* timings = nullptr);

/// Fused single-query decode kernel. Requires x.dim(0) == 1; `q_position`
/// must exceed every cached original position.
AttentionResult attention_decode(const ModelConfig& cfg,
                                 const LayerWeights& w, const Tensor& x,
                                 std::size_t q_position, kv::KvCache& cache,
                                 AttentionTimings* timings = nullptr);

/// One sequence's slot in a batched decode step: the new token's original
/// sequence position and the sequence's own cache for this layer.
struct DecodeBatchSlot {
  std::size_t q_position = 0;
  kv::KvCache* cache = nullptr;
};

/// Fused multi-sequence decode kernel: one QKV projection GEMM and one
/// output projection GEMM across the B rows of `x` ([B, d_model], one row
/// per sequence), with each sequence's append + per-head fused attention
/// running against its *own* cache, parallelized across sequences. Row b of
/// the projections accumulates in the same order as the single-sequence
/// path, and sequences never read each other's caches, so each slot's
/// result is independent of what else shares the batch. A batch of one
/// dispatches through attention_forward, and with cfg.decode_fast_path off
/// every row falls back to the general per-row kernel, so a sequence's
/// numerics never depend on batch composition under either config.
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
