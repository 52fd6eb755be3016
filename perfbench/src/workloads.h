// The benchmark's three serving workloads, each a fixed step-clock arrival
// schedule generated from a seed. The seed changes token content only:
// prompt lengths, generation lengths, arrival steps and engine settings
// are the same for every seed, so the work per run (and every scheduling
// count) repeats across seeds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/config.h"
#include "serve/engine.h"

namespace perfbench {

using kf::model::Token;

struct Workload {
  std::string name;
  kf::serve::EngineConfig engine;
  std::vector<kf::serve::Request> requests;
  /// Reference continuation per request (empty when the request has
  /// none); ROUGE-L is averaged over the requests that have one.
  std::vector<std::vector<Token>> references;
};

/// The model every workload serves (the RoPE / GPT-J stand-in).
kf::model::ModelConfig bench_model_config();

/// `name` is "chat_decode", "longdoc_prefill" or "shared_pressure";
/// throws std::invalid_argument for any other.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// One short request run once after each engine build, so lazy first-use
/// initialisation (thread pool, kernel dispatch) is paid in set-up rather
/// than in a measured request.
kf::serve::Request warmup_request(const kf::model::ModelConfig& cfg);

}  // namespace perfbench
