#include "model/generator.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/timing.h"

namespace kf::model {

Token select_greedy(std::span<const float> logits,
                    std::span<const Token> recent, float penalty,
                    std::span<const Token> banned) {
  std::vector<float> adjusted;
  std::span<const float> view = logits;
  if ((penalty > 0.0F && !recent.empty()) || !banned.empty()) {
    adjusted.assign(logits.begin(), logits.end());
    for (const Token t : recent) {
      if (t >= 0 && static_cast<std::size_t>(t) < adjusted.size()) {
        adjusted[static_cast<std::size_t>(t)] -= penalty;
      }
    }
    for (const Token t : banned) {
      if (t >= 0 && static_cast<std::size_t>(t) < adjusted.size()) {
        adjusted[static_cast<std::size_t>(t)] =
            -std::numeric_limits<float>::infinity();
      }
    }
    view = adjusted;
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < view.size(); ++i) {
    if (view[i] > view[best]) best = i;
  }
  return static_cast<Token>(best);
}

GenerationResult generate(Transformer& model, std::span<const Token> prompt,
                          kv::EvictionPolicy& policy,
                          const GenerationConfig& cfg) {
  if (prompt.empty()) {
    throw std::invalid_argument("generate requires a non-empty prompt");
  }
  GenerationResult result;
  result.prompt_len = prompt.size();
  result.budget =
      kv::make_budget(prompt.size(), cfg.cache_ratio, cfg.recent_ratio);
  policy.set_budget(result.budget);
  kv::SequenceInfo info;
  info.prompt_len = prompt.size();
  info.total_steps = cfg.max_new_tokens;
  info.n_layers = model.config().n_layers;
  info.n_heads = model.config().n_heads;
  policy.begin_sequence(info);

  const auto recent_window = [&]() -> std::span<const Token> {
    const std::size_t n = result.tokens.size();
    const std::size_t w =
        cfg.repetition_window == 0 ? n : std::min(n, cfg.repetition_window);
    return {result.tokens.data() + (n - w), w};
  };

  // Prompt phase: prefill plus first-token selection.
  const double t_prefill = now_seconds();
  model.reset();
  const Tensor prompt_logits =
      model.prefill(prompt, policy, cfg.max_new_tokens);
  result.peak_cache_tokens = prompt.size();
  Token next = 0;
  if (cfg.max_new_tokens > 0) {
    next = select_greedy(prompt_logits.row(prompt.size() - 1),
                         recent_window(), cfg.repetition_penalty,
                         cfg.banned_tokens);
  }
  result.prefill_seconds = now_seconds() - t_prefill;

  // Decode phase: commit, stop on eos/length (the finishing token is
  // never fed back), otherwise feed it and select the next. Each step's
  // wall covers the model call and the selection, like an engine step.
  const kv::SequenceKvState& state = model.default_kv_state();
  for (std::size_t t = 1; t <= cfg.max_new_tokens; ++t) {
    result.tokens.push_back(next);
    if (cfg.eos_token >= 0 && next == cfg.eos_token) break;
    if (result.tokens.size() >= cfg.max_new_tokens) break;
    const double t_step = now_seconds();
    const std::vector<float> logits = model.decode(
        next, prompt.size() + t - 1, t, cfg.max_new_tokens, policy);
    result.peak_cache_tokens =
        std::max(result.peak_cache_tokens, state.max_layer_tokens());
    next = select_greedy(logits, recent_window(), cfg.repetition_penalty,
                         cfg.banned_tokens);
    result.decode_seconds += now_seconds() - t_step;
  }

  for (std::size_t l = 0; l < state.n_layers(); ++l) {
    result.final_cache_sizes.push_back(state.layer_size(l));
  }
  return result;
}

}  // namespace kf::model
