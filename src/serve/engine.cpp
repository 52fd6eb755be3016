#include "serve/engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "core/timing.h"
#include "cpu/cpu_isa.h"
#include "mem/paged_kv_cache.h"
#include "obs/monitor.h"
#include "obs/trace.h"

namespace kf::serve {

using obs::TimelineEventKind;

namespace {

/// The engine's pool geometry and capacity. Paging is the only storage:
/// a config asking to switch it off is refused.
mem::BlockPoolConfig pool_config(const model::ModelConfig& mc,
                                 const EngineConfig& cfg,
                                 obs::MetricsRegistry& metrics) {
  if (!cfg.paged.enabled) {
    throw std::invalid_argument(
        "paged KV is the engine's only storage; PagedMemoryConfig::enabled "
        "must stay true");
  }
  if (cfg.paged.block_tokens == 0) {
    throw std::invalid_argument("paged memory requires block_tokens > 0");
  }
  mem::BlockPoolConfig pc;
  pc.block_tokens = cfg.paged.block_tokens;
  pc.n_heads = mc.n_heads;
  pc.d_head = mc.d_head();
  pc.capacity_blocks = cfg.paged.capacity_blocks;
  pc.metrics = &metrics;
  const std::size_t budget_tokens = cfg.scheduler.max_concurrent_tokens;
  if (pc.capacity_blocks == 0 && budget_tokens > 0) {
    // Translate the token budget into physical capacity: the budget is
    // per-layer tokens across the active set, so the pool holds n_layers
    // times its block equivalent. A bounded prefix cache rides on top, so
    // caching prefixes never eats into the admission capacity the budget
    // promised. Both 0: unbounded.
    pc.capacity_blocks =
        mc.n_layers *
            ((budget_tokens + pc.block_tokens - 1) / pc.block_tokens) +
        (cfg.prefix.enabled ? cfg.prefix.max_blocks : 0);
  }
  return pc;
}

/// The paged view of a layer cache — the engine's one downcast, for the
/// block counters and the alloc-failure latch. Every state the engine
/// runs is one it built on its pool, so the cast always holds.
const mem::PagedKvCache& paged_layer(const kv::SequenceKvState& kv,
                                     std::size_t l) {
  return static_cast<const mem::PagedKvCache&>(kv.layer(l));
}

}  // namespace

Engine::Engine(model::Transformer& model, EngineConfig cfg)
    : model_(model),
      cfg_(std::move(cfg)),
      hist_ttft_(metrics_.histogram("serve.ttft_seconds")),
      hist_inter_token_(metrics_.histogram("serve.inter_token_seconds")),
      hist_queue_wait_(metrics_.histogram("serve.queue_wait_seconds")),
      hist_step_(metrics_.histogram("serve.step_seconds")),
      pool_(pool_config(model_.config(), cfg_, metrics_)) {
  cfg_.scheduler.metrics = &metrics_;
  if (cfg_.prefix.enabled) {
    // The bit-exactness contract of prefix adoption (shared-prefix decode
    // identical to unshared) relies on score accumulation decomposing at
    // the prefix boundary. Exponential damping breaks that: a chunked
    // prompt phase damps the prefix contributions once more than a
    // monolithic one. Refuse loudly rather than drift silently.
    const bool damped =
        (cfg_.policy.kind == kv::PolicyKind::kKeyformer &&
         cfg_.policy.keyformer.score.damping < 1.0) ||
        (cfg_.policy.kind == kv::PolicyKind::kH2O &&
         cfg_.policy.h2o_damping < 1.0);
    if (damped) {
      throw std::invalid_argument(
          "the prefix cache requires damping == 1.0 (prefix-boundary score "
          "snapshots do not compose with exponential damping)");
    }
    mem::PrefixIndexConfig ic;
    ic.n_layers = model_.config().n_layers;
    ic.max_blocks = cfg_.prefix.max_blocks;
    ic.min_tokens = cfg_.prefix.min_tokens;
    ic.metrics = &metrics_;
    prefix_index_ = std::make_unique<mem::PrefixIndex>(pool_, ic);
  }
}

EngineStats Engine::stats() const {
  const LockGuard lock(stats_mu_);
  return stats_;
}

kv::EvictionTelemetry Engine::eviction_report() const {
  const LockGuard lock(stats_mu_);
  return eviction_agg_;
}

void Engine::publish_stats(const EngineStats& stats) {
  EngineStats snap = stats;
  snap.ttft = hist_ttft_.snapshot();
  snap.inter_token = hist_inter_token_.snapshot();
  snap.queue_wait = hist_queue_wait_.snapshot();
  snap.step_latency = hist_step_.snapshot();
  const LockGuard lock(stats_mu_);
  stats_ = snap;
}

class Engine::Loop {
 public:
  /// Materializes one Sequence per request, contains the invalid ones as
  /// kRejected, and submits the rest in arrival order.
  Loop(Engine& engine, std::span<const Request> requests);
  ~Loop();
  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  bool done() const { return finished_ == seqs_.size(); }
  /// Jumps an idle engine's clock to the next arrival and stamps kQueued
  /// on sequences seen arrived for the first time.
  void advance_clock();
  /// Finishes expired sequences as kTimeout: waiting ones past
  /// deadline_steps or max_queue_steps, active ones past deadline_steps
  /// (keeping their tokens so far).
  void shed_timeouts();
  /// Admits and prefills every sequence that fits, drains admission
  /// rejections, and makes room (prefix trim, pressure preemption) until
  /// a round admits nothing.
  void admit_round();
  /// One batched decode step for the whole active set.
  void step();
  /// Publishes the final stats and returns the Responses in request order.
  std::vector<Response> responses();

 private:
  void reject_shared_policies();
  void admit(Sequence& seq);
  void start_sequence(Sequence& seq);
  std::size_t insertable_prefix_tokens(const Sequence& seq) const;
  void probe_waiting();
  bool make_room();
  bool pressure_preempt();
  void record_peaks();
  void record_occupancy(std::span<Sequence* const> active);
  void park(Sequence& seq);
  void park_or_reject(Sequence& seq);
  void finish(Sequence& seq, FinishReason reason, std::string error);
  void unpin(Sequence& seq);
  void drop_kv(Sequence& seq);
  bool kv_alloc_failed(const Sequence& seq) const;
  bool past_deadline(const Sequence& seq) const {
    return seq.deadline_steps > 0 &&
           step_ >= seq.arrival_step + seq.deadline_steps;
  }

  Engine& engine_;
  model::Transformer& model_;
  mem::BlockPool& pool_;
  mem::PrefixIndex* const index_;
  const bool tracing_;
  /// Attention kernel timings, installed on the model while tracing; each
  /// step's deltas become synthetic child spans of step_batch.
  model::AttentionTimings attn_timings_;
  /// The run's accumulator; published as snapshots, so readers of stats()
  /// never observe a half-updated struct.
  EngineStats stats_;
  std::deque<Sequence> seqs_;  ///< stable addresses for scheduler pointers
  BatchScheduler sched_;
  std::size_t step_ = 0;      ///< the engine clock (decode-step index)
  std::size_t finished_ = 0;  ///< sequences that went through finish()
  std::vector<model::DecodeSlot> slots_;
};

Engine::Loop::Loop(Engine& engine, std::span<const Request> requests)
    : engine_(engine),
      model_(engine.model_),
      pool_(engine.pool_),
      index_(engine.prefix_index_.get()),
      tracing_(obs::trace_enabled()),
      sched_(engine.pool_, engine.cfg_.scheduler) {
  stats_.isa = cpu::isa_name(cpu::active_isa());
  engine_.publish_stats(stats_);
  pool_.reset_peaks();
  stats_.pool_capacity_blocks = pool_.stats().capacity_blocks;
  const model::ModelConfig& mc = model_.config();
  for (const Request& req : requests) {
    Sequence& s = seqs_.emplace_back();
    s.id = req.id;
    s.prompt = req.prompt;
    s.gen = req.gen;
    s.arrival_step = req.arrival_step;
    s.deadline_steps = req.deadline_steps;
    s.max_queue_steps = req.max_queue_steps;
    s.n_layers = mc.n_layers;
    s.budget = kv::make_budget(s.prompt.empty() ? 1 : s.prompt.size(),
                               s.gen.cache_ratio, s.gen.recent_ratio);
    // Shape the eviction-decision sink once per sequence; its counters
    // accumulate across preemption-resume replays (decisions executed,
    // not unique tokens) and are folded into the engine at finish().
    s.eviction.begin_sequence(mc.n_layers, mc.n_heads,
                              s.prompt.size() + s.gen.max_new_tokens);
    if (req.policy != nullptr) {
      s.policy = req.policy;
    } else {
      s.owned_policy = kv::make_policy(engine_.cfg_.policy);
      s.policy = s.owned_policy.get();
    }
    // Prefix-cache participation: engine-built policies only — the cached
    // score snapshots are specific to the engine's policy configuration,
    // and a caller-owned instance may be anything.
    s.prefix_eligible = index_ != nullptr && req.policy == nullptr;
    s.shared_prefix_hint = req.shared_prefix_hint;
    // Containment: an invalid request becomes a kRejected Response with
    // an error string instead of an exception killing the whole batch.
    // KV state is built at admission, once the scheduler has reserved the
    // sequence's blocks.
    if (req.prompt.empty()) {
      finish(s, FinishReason::kRejected,
             "serve request requires a non-empty prompt");
    }
  }
  reject_shared_policies();

  // Submit the survivors in arrival order (stable: ties keep request
  // order).
  std::vector<Sequence*> order;
  for (Sequence& s : seqs_) {
    if (!s.finished()) order.push_back(&s);
  }
  std::ranges::stable_sort(order, {}, &Sequence::arrival_step);
  for (Sequence* s : order) sched_.submit(s);
  engine_.publish_stats(stats_);
  // Kernel-level visibility while tracing: the attention sink is updated
  // only on the batch step's calling thread (one shared sink is safe);
  // policy timings are written per sequence inside parallel_for workers,
  // so each sequence carries its own sink (installed at admission).
  if (tracing_) model_.set_attention_timings(&attn_timings_);
}

Engine::Loop::~Loop() {
  if (tracing_) model_.set_attention_timings(nullptr);
}

void Engine::Loop::reject_shared_policies() {
  // First request keeps the instance: two requests on one policy instance
  // would clobber each other's score state, and step_batch's own
  // distinctness check only fires mid-run when their lifetimes happen to
  // overlap — long after begin_sequence() wiped the other request's
  // in-flight state.
  std::unordered_set<const void*> policy_seen;
  for (Sequence& s : seqs_) {
    if (s.finished() || s.owned_policy != nullptr) continue;
    if (!policy_seen.insert(s.policy).second) {
      finish(s, FinishReason::kRejected,
             "serve requests must use distinct policy instances");
    }
  }
}

void Engine::Loop::advance_clock() {
  if (sched_.active_count() == 0) {
    const auto next = sched_.next_arrival();
    if (next.has_value() && *next > step_) step_ = *next;
  }
  // Timeline origin: TTFT and queue wait measure from the kQueued stamp.
  // The waiting queue is arrival-ordered, so stop at the first future
  // arrival.
  const double t_now = now_seconds();
  for (Sequence* seq : sched_.waiting()) {
    if (seq->arrival_step > step_) break;
    if (!seq->queued_stamped) {
      seq->queued_stamped = true;
      seq->queued_seconds = t_now;
      seq->timeline.mark(TimelineEventKind::kQueued, t_now);
    }
  }
}

void Engine::Loop::shed_timeouts() {
  const std::vector<Sequence*> waiting(sched_.waiting().begin(),
                                       sched_.waiting().end());
  for (Sequence* seq : waiting) {
    const bool wait_exceeded =
        seq->max_queue_steps > 0 && step_ >= seq->queue_enter_step &&
        step_ - seq->queue_enter_step >= seq->max_queue_steps;
    if (!past_deadline(*seq) && !wait_exceeded) continue;
    sched_.remove_waiting(seq);
    finish(*seq, FinishReason::kTimeout,
           past_deadline(*seq) ? "deadline_steps expired while queued"
                               : "queue wait exceeded max_queue_steps");
  }
  const std::vector<Sequence*> active(sched_.active().begin(),
                                      sched_.active().end());
  for (Sequence* seq : active) {
    if (past_deadline(*seq)) {
      finish(*seq, FinishReason::kTimeout, "deadline_steps expired");
    }
  }
}

void Engine::Loop::admit_round() {
  bool progressed = true;
  while (progressed) {
    KF_TRACE_SCOPE("admit");
    probe_waiting();
    const std::vector<Sequence*> admitted = sched_.admit(step_);
    for (Sequence* seq : admitted) admit(*seq);
    // Admission rejections (demand above the pool capacity, or a
    // reservation denied past the retry cap) become kRejected responses,
    // and the queue behind them keeps moving.
    for (Sequence* seq : sched_.take_rejected()) {
      finish(*seq, FinishReason::kRejected, std::move(seq->error));
    }
    progressed = !admitted.empty() || make_room();
  }
}

void Engine::Loop::admit(Sequence& seq) {
  const double t_admit = now_seconds();
  seq.timeline.mark(TimelineEventKind::kAdmitted, t_admit);
  if (seq.queued_stamped) {
    engine_.hist_queue_wait_.record(t_admit - seq.queued_seconds);
  }
  if (tracing_) seq.policy->set_timing_sink(&seq.policy_timings);
  seq.policy->set_eviction_sink(&seq.eviction);
  // Layer caches drawing blocks from the pool the scheduler just reserved
  // on.
  seq.kv =
      std::make_unique<kv::SequenceKvState>(pool_, model_.config().n_layers);
  // The admission charge covers the transient prefill peak; record it
  // before settling so max_blocks_in_use reflects true memory.
  record_peaks();
  start_sequence(seq);
  if (!seq.finished() && kv_alloc_failed(seq)) {
    // Prefill (or resume replay) outgrew its reservation into emergency
    // memory — an injected fault or a capacity race. Park it for a
    // later, fully pool-backed retry.
    park_or_reject(seq);
    return;
  }
  {
    KF_TRACE_SCOPE("settle");
    sched_.settle(&seq);
  }
  // Finished during prefill (eos first token, max_new_tokens 0): retire
  // at once, freeing its budget for the next waiting request this step.
  if (seq.finished()) finish(seq, seq.finish, {});
}

std::size_t Engine::Loop::insertable_prefix_tokens(const Sequence& seq) const {
  const std::size_t bt = pool_.block_tokens();
  // At least one prompt token must stay outside the prefix: the first
  // generated token comes from the last prompt row's logits, which must be
  // computed, not replayed.
  std::size_t want = seq.prompt.size() - 1;
  if (seq.shared_prefix_hint > 0) {
    want = std::min(want, seq.shared_prefix_hint);
  }
  const std::size_t m = (want / bt) * bt;
  return m >= index_->config().min_tokens ? m : 0;
}

// Prefill + first-token selection for a newly admitted sequence. With the
// prefix cache on: adopt a matching shared chain and prefill only the
// suffix, or chunk the prefill at the shareable boundary and insert the
// prefix chain into the index for the requests behind this one.
// Re-admission of a preempted sequence (seq.tokens non-empty) prefills the
// prompt the same way, then replays the parked tokens through
// single-sequence decode steps — exact recomputation of the evicted state.
void Engine::Loop::start_sequence(Sequence& seq) {
  // Policies reset in begin_sequence and are deterministic per sequence,
  // so a resumed prompt re-prefills exactly like the first time.
  const bool resume = !seq.tokens.empty();
  KF_TRACE_SCOPE(resume ? "resume_prefill" : "prefill");
  seq.policy->set_budget(seq.budget);
  kv::SequenceInfo info;
  info.prompt_len = seq.prompt.size();
  info.total_steps = seq.gen.max_new_tokens;
  info.n_layers = model_.config().n_layers;
  info.n_heads = model_.config().n_heads;
  seq.policy->begin_sequence(info);

  const double t0 = now_seconds();
  if (resume) seq.timeline.mark(TimelineEventKind::kResumed, t0);
  seq.timeline.mark(TimelineEventKind::kPrefillStart, t0);
  const std::span<const Token> prompt = seq.prompt;
  std::size_t computed = prompt.size();  // prompt rows actually prefilled
  Tensor prompt_logits;

  // Resolve the prefix-cache match: the entry pinned at the admission
  // probe, or one an earlier sequence of the same admission batch just
  // inserted.
  const mem::PrefixEntry* entry = nullptr;
  if (index_ != nullptr && seq.prefix_eligible) {
    entry = seq.prefix_entry != nullptr
                ? seq.prefix_entry
                : index_->lookup(prompt, prompt.size() - 1);
  }

  const bool adopted = entry != nullptr;
  if (adopted) {
    // Hit: the prefix K/V replays from the shared chain; only the suffix
    // runs. Cache-resident boundary scores are seeded by adopt();
    // policy-resident state (shared-scope Keyformer) imports here.
    index_->adopt(entry, *seq.kv);
    seq.policy->import_score_state(entry->policy_scores());
    const std::size_t m = entry->tokens();
    prompt_logits = model_.prefill_continue(
        *seq.kv, prompt.subspan(m), m, *seq.policy, seq.gen.max_new_tokens);
    computed = prompt.size() - m;
    ++stats_.prefix_hits;
    stats_.prefix_tokens_reused += m;
    stats_.prefix_blocks_shared +=
        model_.config().n_layers * entry->blocks_per_layer();
  }
  unpin(seq);

  if (!adopted) {
    const std::size_t m = index_ != nullptr && seq.prefix_eligible
                              ? insertable_prefix_tokens(seq)
                              : 0;
    if (m > 0) {
      // Miss worth caching: chunk the prefill at the shareable boundary.
      // Chunk 1 runs with the budget masked so nothing evicts mid-prompt;
      // the suffix chunk restores it and evicts once over the full prompt
      // — the same single eviction, over the same accumulated scores, a
      // monolithic prefill performs (rows and scores are bit-exact; see
      // prefill_continue).
      const kv::CacheBudget real_budget = seq.policy->budget();
      seq.policy->set_budget(kv::CacheBudget{});
      model_.prefill_continue(*seq.kv, prompt.first(m), 0, *seq.policy,
                              seq.gen.max_new_tokens);
      seq.policy->set_budget(real_budget);
      index_->insert(prompt.first(m), *seq.kv,
                     seq.policy->export_score_state(m));
      // Chunk boundary: publish so the monitoring surface moves during a
      // long prefill instead of freezing at the last decode step.
      stats_.prefilled_tokens += m;
      engine_.publish_stats(stats_);
      stats_.prefilled_tokens -= m;
      prompt_logits = model_.prefill_continue(
          *seq.kv, prompt.subspan(m), m, *seq.policy, seq.gen.max_new_tokens);
      ++stats_.prefix_misses;
    } else {
      prompt_logits = model_.prefill(*seq.kv, prompt, *seq.policy,
                                     seq.gen.max_new_tokens);
    }
  }

  seq.peak_cache_tokens = std::max(seq.peak_cache_tokens, prompt.size());
  if (!resume) seq.first_decode_step = step_;

  seq.timeline.mark(TimelineEventKind::kPrefillEnd, now_seconds());

  if (resume) {
    KF_TRACE_SCOPE("resume_replay");
    // Replay the committed tokens through the ordinary decode path:
    // tokens[0] came from the prompt logits (already committed), each
    // later tokens[i] from feeding tokens[i-1] at decode step i. The
    // logits are recomputed and discarded — only the KV/score state the
    // eviction policy built alongside them matters, and this stepwise
    // replay reproduces it exactly (a prompt-phase prefill over the same
    // tokens would evict once at the end instead of once per step).
    for (std::size_t i = 1; i < seq.tokens.size(); ++i) {
      model_.decode(*seq.kv, seq.tokens[i - 1], seq.prompt.size() + i - 1,
                    i, seq.gen.max_new_tokens, *seq.policy);
    }
    stats_.resume_replayed_tokens += seq.tokens.size() - 1;
    seq.peak_cache_tokens =
        std::max(seq.peak_cache_tokens, seq.kv->max_layer_tokens());
  } else if (seq.gen.max_new_tokens == 0) {
    // Nothing to generate: matches generate(), whose loop never runs.
    seq.status = SequenceStatus::kFinished;
    seq.finish = FinishReason::kLength;
  } else {
    const Token first = model::select_greedy(
        prompt_logits.row(prompt_logits.dim(0) - 1), seq.recent_window(),
        seq.gen.repetition_penalty, seq.gen.banned_tokens);
    seq.commit(first);
  }
  if (!seq.tokens.empty()) {
    const double t_token = now_seconds();
    if (!seq.ttft_recorded) {
      seq.ttft_recorded = true;
      seq.timeline.mark(TimelineEventKind::kFirstToken, t_token);
      engine_.hist_ttft_.record(
          t_token - (seq.queued_stamped ? seq.queued_seconds : t0));
    }
    // Inter-token gaps restart here: after a resume replay the next decode
    // step measures from the replay's end, not across the parked interval.
    seq.last_token_seconds = t_token;
  }
  const double wall = now_seconds() - t0;
  seq.prefill_seconds += wall;
  stats_.prefilled_tokens += computed;
  stats_.prefill_seconds += wall;
}

// Admission-time prefix probe: pin a matching shared chain for every
// waiting eligible sequence so (a) the scheduler charges only the unshared
// demand and (b) the chain cannot be trimmed between the reduced charge
// and the adoption it promised.
void Engine::Loop::probe_waiting() {
  if (index_ == nullptr) return;
  for (Sequence* seq : sched_.waiting()) {
    if (!seq->prefix_eligible || seq->prefix_entry != nullptr) continue;
    // A previous miss stays a miss until the entry set changes; skip the
    // longest-prefix probe until the index's revision moves.
    if (seq->prefix_probed_revision == index_->revision()) continue;
    seq->prefix_probed_revision = index_->revision();
    const mem::PrefixEntry* entry =
        index_->lookup(seq->prompt, seq->prompt.size() - 1);
    if (entry != nullptr) {
      index_->pin(entry);
      seq->prefix_entry = entry;
      seq->prefix_blocks_per_layer = entry->blocks_per_layer();
    }
  }
}

// Called when an admission round admitted nothing; true when it freed
// something worth another round.
bool Engine::Loop::make_room() {
  const auto head = sched_.next_arrival();
  if (!head.has_value() || *head > step_) return false;
  if (sched_.active_count() == 0 && index_ != nullptr) {
    // Idle engine, arrived head, no admission: the index's retained
    // chains are the only reclaimable memory. Drop one LRU-first,
    // clearing any waiting sequence's pins on it.
    const mem::PrefixEntry* victim =
        index_->lru_candidate(/*include_pinned=*/false);
    if (victim == nullptr) {
      victim = index_->lru_candidate(/*include_pinned=*/true);
      for (Sequence* seq : sched_.waiting()) {
        if (victim != nullptr && seq->prefix_entry == victim) unpin(*seq);
      }
    }
    // try_drop keeps the pin check and the drop under one index-mutex
    // acquisition: a pin landing in between (ours above are cleared, but
    // external pinners exist) makes this a clean false, never a throw.
    if (victim != nullptr && index_->try_drop(victim)) return true;
  }
  return pressure_preempt();
}

// Admission pressure: the queue head has been starved long enough — park
// the scheduler's chosen victim so the head can take its budget.
bool Engine::Loop::pressure_preempt() {
  const PreemptionConfig& pc = engine_.cfg_.preempt;
  if (!pc.enabled) return false;
  const Sequence* head = sched_.waiting().front();
  if (step_ < head->queue_enter_step + pc.queue_pressure_steps) return false;
  Sequence* victim = sched_.pick_victim(step_, pc.min_victim_age_steps,
                                        pc.max_per_sequence);
  if (victim == nullptr) return false;
  park(*victim);
  return true;
}

void Engine::Loop::record_peaks() {
  stats_.max_blocks_in_use =
      std::max(stats_.max_blocks_in_use, sched_.blocks_in_use());
}

// Per-batch occupancy, published with this step's snapshot — the live
// series a Monitor samples.
void Engine::Loop::record_occupancy(std::span<Sequence* const> active) {
  stats_.max_batch = std::max(stats_.max_batch, active.size());
  stats_.active_sequences = active.size();
  stats_.waiting_sequences = sched_.waiting().size();
  record_peaks();
  // Internal fragmentation this step: the empty slots of every active
  // cache's partial tail block and spare block, over the token slots of
  // the used blocks.
  // The prefix index's retained chains are excluded — they are deliberate
  // caching, not slack. Adopted chains are whole blocks, so sharing adds
  // no slack and nothing is counted twice.
  const std::size_t bt = pool_.block_tokens();
  const std::size_t index_blocks =
      index_ != nullptr ? index_->blocks_held() : 0;
  const std::size_t used = pool_.stats().used_blocks;
  const std::size_t used_tokens =
      (used > index_blocks ? used - index_blocks : 0) * bt;
  if (used_tokens == 0) return;
  std::size_t slack = 0;
  for (const Sequence* seq : active) {
    for (std::size_t l = 0; l < seq->kv->n_layers(); ++l) {
      const mem::PagedKvCache& cache = paged_layer(*seq->kv, l);
      slack += (cache.blocks_held() + cache.spare_blocks()) * bt -
               cache.size();
    }
  }
  const std::size_t filled = used_tokens - std::min(slack, used_tokens);
  const double frag = 1.0 - static_cast<double>(filled) /
                                static_cast<double>(used_tokens);
  stats_.cur_fragmentation = frag;
  stats_.max_fragmentation = std::max(stats_.max_fragmentation, frag);
}

void Engine::Loop::step() {
  const std::vector<Sequence*> active(sched_.active().begin(),
                                      sched_.active().end());
  if (active.empty()) return;  // everything admitted so far retired
  record_occupancy(active);

  // The step wall covers the model call AND per-sequence sampling and
  // bookkeeping, so decode_seconds is the true decode-phase latency
  // (prefill_seconds likewise includes its first-token selection).
  const double t0 = now_seconds();
  slots_.clear();
  for (const Sequence* seq : active) {
    slots_.push_back({seq->feed_token(), seq->next_position(),
                      seq->next_t(), seq->gen.max_new_tokens, seq->kv.get(),
                      seq->policy});
  }
  // Kernel-sink baselines, so the step's own project/attend/policy time
  // can be carved into synthetic child spans below.
  const auto policy_seconds = [](std::span<Sequence* const> seqs) {
    double s = 0.0;
    for (const Sequence* seq : seqs) {
      s += seq->policy_timings.score_seconds + seq->policy_timings.evict_seconds;
    }
    return s;
  };
  const std::uint64_t step_ticks0 = tracing_ ? trace_ticks() : 0;
  const model::AttentionTimings attn_before = attn_timings_;
  const double policy_before = tracing_ ? policy_seconds(active) : 0.0;
  Tensor logits;
  {
    KF_TRACE_SCOPE("step_batch");
    logits = model_.step_batch(slots_);
  }
  if (tracing_) {
    // Sequential pseudo-spans laid out from the step start: aggregate
    // sink deltas, not real thread-local intervals (policy observe runs
    // per sequence in parallel, so its span can exceed the step wall).
    std::uint64_t t = step_ticks0;
    const auto emit = [&t](const char* name, double seconds) {
      const std::uint64_t d = trace_seconds_to_ticks(seconds);
      obs::trace_complete(name, "kernel", t, t + d);
      t += d;
    };
    emit("attn.project",
         attn_timings_.project_seconds - attn_before.project_seconds);
    emit("attn.attend",
         attn_timings_.attend_seconds - attn_before.attend_seconds);
    emit("policy.observe", policy_seconds(active) - policy_before);
  }
  {
    KF_TRACE_SCOPE("sample");
    for (std::size_t b = 0; b < active.size(); ++b) {
      Sequence* seq = active[b];
      seq->peak_cache_tokens =
          std::max(seq->peak_cache_tokens, seq->kv->max_layer_tokens());
      seq->commit(model::select_greedy(logits.row(b), seq->recent_window(),
                                       seq->gen.repetition_penalty,
                                       seq->gen.banned_tokens));
      ++stats_.decoded_tokens;
    }
  }
  const double dt = now_seconds() - t0;
  stats_.decode_seconds += dt;
  ++stats_.steps;
  engine_.hist_step_.record(dt);
  // Every active sequence committed one token this step: one shared
  // timestamp bounds the per-sequence inter-token gaps.
  const double t_tokens = t0 + dt;
  for (Sequence* seq : active) {
    if (seq->last_token_seconds > 0.0) {
      const double gap = t_tokens - seq->last_token_seconds;
      engine_.hist_inter_token_.record(gap);
      seq->inter_token.add(gap);
    }
    seq->last_token_seconds = t_tokens;
  }
  // Keep stats() live mid-run: one snapshot per decode step is the
  // granularity an async front-end polls at.
  stats_.reservation_retries = sched_.reservation_retries();
  engine_.publish_stats(stats_);
  for (Sequence* seq : active) {
    seq->decode_seconds += dt;
    if (seq->finished()) {
      finish(*seq, seq->finish, {});
    } else if (kv_alloc_failed(*seq)) {
      // The step completed exactly (emergency memory holds real rows),
      // but the sequence is over its physical budget: park it and
      // recompute under a fresh reservation.
      park_or_reject(*seq);
    }
  }
  ++step_;
}

// Preemption: release everything the sequence holds but keep its committed
// tokens and re-queue it. Re-admission resumes it by recompute (see
// start_sequence).
void Engine::Loop::park(Sequence& seq) {
  KF_TRACE_SCOPE("preempt.park", "sched");
  KF_TRACE_INSTANT("preempt", "sched");
  const double t_park = now_seconds();
  seq.timeline.mark(TimelineEventKind::kPreempted, t_park);
  // Re-queue waits measure from the park, not the original arrival.
  seq.queued_seconds = t_park;
  if (tracing_) seq.policy->set_timing_sink(nullptr);
  seq.policy->set_eviction_sink(nullptr);
  drop_kv(seq);
  sched_.preempt(&seq, step_);
  ++stats_.preemptions;
}

// A sequence whose pool refused it memory mid-flight parks for a resume
// under a fresh reservation — unless it already exhausted its preemption
// cap, in which case it is contained as kRejected (keeping the tokens
// generated so far) rather than thrash forever.
void Engine::Loop::park_or_reject(Sequence& seq) {
  const std::size_t cap = engine_.cfg_.preempt.max_per_sequence;
  if (cap > 0 && seq.preemptions >= cap) {
    finish(seq, FinishReason::kRejected,
           "KV block allocation kept failing after " +
               std::to_string(seq.preemptions) + " preemptions");
  } else {
    park(seq);
  }
}

// The one way a sequence leaves the run, wherever it is: never submitted
// (containment), waiting (timeout, admission reject) or active.
void Engine::Loop::finish(Sequence& seq, FinishReason reason,
                          std::string error) {
  const bool active =
      std::ranges::find(sched_.active(), &seq) != sched_.active().end();
  seq.status = SequenceStatus::kFinished;
  seq.finish = reason;
  seq.error = std::move(error);
  seq.finish_step = step_;
  seq.timeline.mark(TimelineEventKind::kFinished, now_seconds());
  unpin(seq);
  // Fold the sequence's eviction decisions (resume replays included) into
  // the run counters, the engine-lifetime aggregate, and the per-policy
  // registry counters.
  const kv::EvictionTelemetry& ev = seq.eviction;
  stats_.eviction_decisions += ev.decisions();
  stats_.evicted_tokens += ev.tokens_evicted();
  stats_.kept_tokens += ev.tokens_kept();
  if (ev.decisions() > 0) {
    {
      const LockGuard lock(engine_.stats_mu_);
      engine_.eviction_agg_.merge(ev);
    }
    const std::string base = "evict." + seq.policy->name();
    engine_.metrics_.counter(base + ".decisions").add(ev.decisions());
    engine_.metrics_.counter(base + ".tokens_evicted").add(ev.tokens_evicted());
    engine_.metrics_.counter(base + ".tokens_kept").add(ev.tokens_kept());
  }
  if (active) {
    KF_TRACE_SCOPE("retire", "sched");
    if (tracing_) seq.policy->set_timing_sink(nullptr);
    seq.policy->set_eviction_sink(nullptr);
    seq.final_cache_sizes.clear();
    for (std::size_t l = 0; l < seq.kv->n_layers(); ++l) {
      seq.final_cache_sizes.push_back(seq.kv->layer_size(l));
    }
    drop_kv(seq);
    sched_.release(&seq);
  }
  ++finished_;
  if (reason == FinishReason::kTimeout) {
    KF_TRACE_INSTANT("timeout", "sched");
    ++stats_.timeouts;
  } else if (reason == FinishReason::kRejected) {
    KF_TRACE_INSTANT("reject", "sched");
    ++stats_.rejections;
  }
}

void Engine::Loop::unpin(Sequence& seq) {
  if (seq.prefix_entry == nullptr) return;
  index_->unpin(seq.prefix_entry);
  seq.prefix_entry = nullptr;
  seq.prefix_blocks_per_layer = 0;
}

// Folds the layer caches' counters into the run stats, then tears the
// state down so its blocks go back to the pool free list *now*, while the
// reservation the scheduler is about to release still backs them.
void Engine::Loop::drop_kv(Sequence& seq) {
  for (std::size_t l = 0; l < seq.kv->n_layers(); ++l) {
    const mem::PagedKvCache& cache = paged_layer(*seq.kv, l);
    stats_.prefix_cow_copies += cache.cow_copies();
    stats_.alloc_failures += cache.alloc_failures();
  }
  seq.kv.reset();
}

// Did any layer outgrow its reservation into emergency heap memory?
// Latched by the no-throw allocation fallback; checked at every step
// boundary (an exception escaping the parallel decode workers would
// terminate the process).
bool Engine::Loop::kv_alloc_failed(const Sequence& seq) const {
  for (std::size_t l = 0; l < seq.kv->n_layers(); ++l) {
    if (paged_layer(*seq.kv, l).alloc_failed()) return true;
  }
  return false;
}

std::vector<Response> Engine::Loop::responses() {
  stats_.pool_peak_used_blocks = pool_.stats().peak_used_blocks;
  stats_.reservation_retries = sched_.reservation_retries();
  stats_.active_sequences = 0;  // run drained: occupancy series settles to 0
  stats_.waiting_sequences = 0;
  engine_.publish_stats(stats_);

  std::vector<Response> out;
  out.reserve(seqs_.size());
  for (Sequence& seq : seqs_) {
    Response r;
    r.id = seq.id;
    r.tokens = std::move(seq.tokens);
    r.prompt_len = seq.prompt.size();
    r.budget = seq.budget;
    r.final_cache_sizes = std::move(seq.final_cache_sizes);
    r.peak_cache_tokens = seq.peak_cache_tokens;
    r.finish = seq.finish;
    r.error = std::move(seq.error);
    r.preemptions = seq.preemptions;
    r.arrival_step = seq.arrival_step;
    r.first_decode_step = seq.first_decode_step;
    r.finish_step = seq.finish_step;
    r.prefill_seconds = seq.prefill_seconds;
    r.decode_seconds = seq.decode_seconds;
    r.timeline = std::move(seq.timeline);
    r.ttft_seconds = r.timeline.ttft_seconds();
    r.queue_wait_seconds = r.timeline.queue_wait_seconds();
    r.inter_token = seq.inter_token;
    r.eviction = seq.eviction.summary();
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<Response> Engine::run(std::span<const Request> requests) {
  KF_TRACE_SCOPE("engine.run");
  Loop loop(*this, requests);
  while (!loop.done()) {
    loop.advance_clock();
    // Shed expired sequences first: their freed budget is admissible this
    // same step.
    loop.shed_timeouts();
    loop.admit_round();
    loop.step();
  }
  return loop.responses();
}

void add_engine_probes(obs::Monitor& monitor, Engine& engine) {
  Engine* e = &engine;
  monitor.add_probe("engine.steps", [e] {
    return static_cast<double>(e->stats().steps);
  });
  monitor.add_probe("engine.decoded_tokens", [e] {
    return static_cast<double>(e->stats().decoded_tokens);
  });
  monitor.add_probe("engine.prefilled_tokens", [e] {
    return static_cast<double>(e->stats().prefilled_tokens);
  });
  monitor.add_probe("engine.active_sequences", [e] {
    return static_cast<double>(e->stats().active_sequences);
  });
  monitor.add_probe("engine.waiting_sequences", [e] {
    return static_cast<double>(e->stats().waiting_sequences);
  });
  monitor.add_probe("engine.evicted_tokens", [e] {
    return static_cast<double>(e->stats().evicted_tokens);
  });
  const mem::BlockPool* pool = &engine.pool();
  monitor.add_probe("pool.used_blocks", [pool] {
    return static_cast<double>(pool->stats().used_blocks);
  });
  monitor.add_probe("pool.reserved_blocks", [pool] {
    return static_cast<double>(pool->stats().reserved_blocks);
  });
  monitor.add_probe("pool.fragmentation",
                    [e] { return e->stats().cur_fragmentation; });
  if (engine.prefix_index() != nullptr) {
    monitor.add_probe("prefix.hit_rate",
                      [e] { return e->stats().prefix_hit_rate(); });
  }
  // Per-window latency series (rate + window percentiles) for the two
  // distributions that move every step.
  monitor.add_histogram_probe("step",
                              engine.metrics().histogram("serve.step_seconds"));
  monitor.add_histogram_probe(
      "itl", engine.metrics().histogram("serve.inter_token_seconds"));
}

}  // namespace kf::serve
