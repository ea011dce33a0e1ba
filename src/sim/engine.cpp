// Out-of-line engine machinery: lane layout and the cycle loop. See
// sim/shard.hpp for the lane structure and the determinism story.

#include "sim/engine.hpp"

#include <bit>
#include <chrono>
#include <sstream>
#include <unordered_map>

#if defined(MEMPOOL_DRC)
#include "sim/drc_runtime.hpp"
#endif

namespace mempool {

namespace {
/// Cycles whose previous cycle evaluated fewer components than this step
/// their lanes inline on the calling thread: dispatching two phases to the
/// executor costs on the order of a microsecond of barrier traffic, which
/// light cycles (a mostly-idle cluster between Poisson arrivals) can never
/// amortize. The choice depends only on simulation state — never on thread
/// timing — so it cannot perturb results.
constexpr uint64_t kDispatchThreshold = 64;

uint64_t prof_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Set the low @p n bits of the bitset starting at @p words (dense mode:
/// every slot of a lane segment; the bits past n are padding and stay 0).
void set_low_bits(uint64_t* words, std::size_t n) {
  for (; n >= 64; n -= 64) *words++ = ~uint64_t{0};
  if (n != 0) *words = (uint64_t{1} << n) - 1;
}

/// Evaluate the awake components of @p lane (its flag words of @p words) at
/// @p cycle, putting the ones that report idle() to sleep — unless @p dense:
/// dense mode re-wakes every slot each cycle, so the idle() probe would be
/// pure overhead. MEMPOOL_DRC only: each evaluation is tagged with its
/// component's shard — @p slot_shards[slot] when non-null (the sequential
/// lane, whose slots are the registration order), else the lane id. Plain
/// builds ignore it.
bool scan_lane(ShardLane& lane, uint64_t* words, uint64_t cycle, bool dense,
               [[maybe_unused]] const uint32_t* slot_shards) {
  Component* const* slots = lane.slots.data();
  const std::size_t begin = lane.word_begin;
  const std::size_t end = lane.word_end;
  uint64_t evaluations = 0;
  for (std::size_t w = begin; w < end; ++w) {
    // Process set bits in ascending component order, re-reading the word
    // after every evaluation: a component may wake a LATER one in this same
    // word via a combinational push (must be seen this cycle), while a
    // backward wake (e.g. an I$ miss arming the earlier-phase refill engine)
    // stays pending for the next cycle — exactly what one in-order sweep
    // over every component observes.
    uint64_t visited = 0;  // bit b and everything below, once processed
    uint64_t m;
    while ((m = words[w] & ~visited) != 0) {
      const unsigned b = std::countr_zero(m);
      const uint64_t bit = 1ull << b;
      visited |= bit | (bit - 1);
      const std::size_t k = (w - begin) * 64 + b;
      Component* c = slots[k];
      {
#if defined(MEMPOOL_DRC)
        const drc::EvalShardScope drc_scope(static_cast<int32_t>(
            slot_shards != nullptr ? slot_shards[k] : lane.id));
#endif
        c->evaluate(cycle);
      }
      ++evaluations;
      if (!dense && c->idle()) c->sleep();
    }
  }
  lane.evaluations += evaluations;
  return evaluations != 0;
}

}  // namespace

const char* engine_mode_name(EngineMode m) {
  switch (m) {
    case EngineMode::kActive:
      return "active";
    case EngineMode::kDense:
      return "dense";
    case EngineMode::kSharded:
      return "sharded";
  }
  return "?";
}

const char* engine_mode_available() { return "active, dense, sharded"; }

const char* engine_mode_description(EngineMode m) {
  switch (m) {
    case EngineMode::kActive:
      return "sequential activity-driven scheduler (default): evaluates only "
             "woken components";
    case EngineMode::kDense:
      return "evaluate-everything oracle: slowest, the equivalence baseline";
    case EngineMode::kSharded:
      return "activity-driven with per-group shards stepped in parallel "
             "(--sim-threads)";
  }
  return "?";
}

bool engine_mode_from_name(const std::string& name, EngineMode* out) {
  if (name == "active") {
    *out = EngineMode::kActive;
  } else if (name == "dense") {
    *out = EngineMode::kDense;
  } else if (name == "sharded") {
    *out = EngineMode::kSharded;
  } else {
    return false;
  }
  return true;
}

Engine::Engine() = default;
Engine::~Engine() = default;

void Engine::set_sharded(uint32_t num_shards, ShardExecutor* exec) {
  MEMPOOL_CHECK_MSG(!finalized_, "set_sharded after the first step");
  MEMPOOL_CHECK_MSG(!dense_,
                    "dense and sharded scheduling are mutually exclusive");
  MEMPOOL_CHECK_MSG(num_shards >= 1, "need at least one shard");
  num_shards_ = num_shards;
  exec_ = exec;
}

namespace {
/// describe() sink used by finalize() to read one clocked element's BufferDecl
/// (shard-boundary status + consumer shard) for outbox sizing and validation.
struct BoundaryScan final : GraphVisitor {
  BufferDecl decl;
  bool seen = false;
  void reads(const Clocked*, std::string_view) override {}
  void writes(const PacketSink*, std::string_view) override {}
  void writes_buffer(const Clocked*, std::string_view) override {}
  void writes_terminal(const Wakeable*, std::string_view) override {}
  void wakes(const Wakeable*, std::string_view) override {}
  void self_ticking() override {}
  void wake_on_demand() override {}
  void buffer_info(const BufferDecl& d) override {
    decl = d;
    seen = true;
  }
};
}  // namespace

void Engine::finalize() {
  finalized_ = true;
  const uint32_t S = sharded() ? num_shards_ : 1;
  if (sharded()) {
    for (std::size_t i = 0; i < components_.size(); ++i) {
      MEMPOOL_CHECK_MSG(component_shard_[i] < S,
                        "component '" << components_[i]->name()
                                      << "' assigned to shard "
                                      << component_shard_[i] << " of " << S);
    }
    for (std::size_t i = 0; i < clocked_.size(); ++i) {
      MEMPOOL_CHECK_MSG(clocked_shard_[i] < S,
                        "clocked element " << i << " assigned to shard "
                                           << clocked_shard_[i] << " of "
                                           << S);
    }
  }
  // Under set_sharded each element lives in its shard's lane; the
  // sequential modes put everything in lane 0, in registration order.
  auto lane_of = [&](uint32_t shard) -> ShardLane& {
    return lanes_[sharded() ? shard : 0];
  };

  // Lane segmentation: each lane gets a cache-line aligned word range of the
  // packed wake bitset (8 words = one 64-byte line), so no two lane threads
  // ever store to the same line, plus a slot table mapping its flag bits back
  // to components in registration order — the sequential engine's
  // evaluation order restricted to the lane.
  constexpr std::size_t kWordsPerLine = 8;
  auto line_words = [](std::size_t bits) {
    const std::size_t words = (bits + 63u) / 64u;
    return (words + kWordsPerLine - 1) / kWordsPerLine * kWordsPerLine;
  };
  lanes_.clear();
  lanes_.resize(S);
  for (uint32_t shard : component_shard_) ++lane_of(shard).num_slots;
  std::size_t word = 0;
  for (uint32_t s = 0; s < S; ++s) {
    ShardLane& lane = lanes_[s];
    lane.id = s;
    lane.word_begin = static_cast<uint32_t>(word);
    word += line_words(lane.num_slots);
    lane.word_end = static_cast<uint32_t>(word);
    lane.slots.assign((lane.word_end - lane.word_begin) * 64u, nullptr);
  }
  flags_.assign(word, 0);
  std::vector<std::size_t> next(S, 0);
  for (std::size_t i = 0; i < components_.size(); ++i) {
    ShardLane& lane = lane_of(component_shard_[i]);
    const std::size_t k = next[lane.id]++;
    lane.slots[k] = components_[i];
    components_[i]->bind_activity_slot(&flags_[lane.word_begin + k / 64],
                                       static_cast<unsigned>(k % 64));
  }

  // Outbox sizing. An element stages at most once per cycle (a registered
  // buffer's second same-cycle push is a model error), so a lane's own
  // outbox never holds more than the lane's element count. Only shard-
  // boundary buffers are pushed from another lane, so the number of declared
  // boundary buffers consumed by shard d bounds how many hand-offs ANY
  // producer lane can stage toward d in one cycle, and how many boundary
  // buffers shard d can drain — the D4 boundary registry doubles as an exact
  // worst-case depth. While walking, validate that each boundary buffer was
  // registered to the shard its declaration names as consumer: the commit
  // phase latches into consumer-shard state, so a mismatch would be a data
  // race.
  std::vector<std::size_t> own_count(S, 0);
  std::vector<std::size_t> boundary_count(S, 0);
  for (std::size_t i = 0; i < clocked_.size(); ++i) {
    ++own_count[lane_of(clocked_shard_[i]).id];
    if (!sharded()) continue;
    BoundaryScan scan;
    clocked_[i]->describe(scan);
    if (!scan.seen || !scan.decl.shard_boundary) continue;
    MEMPOOL_CHECK_MSG(
        scan.decl.consumer_shard == clocked_shard_[i],
        "shard-boundary buffer declares consumer shard "
            << scan.decl.consumer_shard << " but was registered to shard "
            << clocked_shard_[i]
            << " (add_clocked must pass the consumer's shard)");
    ++boundary_count[scan.decl.consumer_shard];
  }
  for (ShardLane& lane : lanes_) {
    lane.outboxes.resize(S);
    for (uint32_t d = 0; d < S; ++d) {
      lane.outboxes[d].reserve(d == lane.id ? own_count[d]
                                            : boundary_count[d]);
    }
    lane.drained.reserve(boundary_count[lane.id]);
  }
  // Bind after reserving: a push staged before the first step is handed to
  // its home lane's own outbox here.
  for (std::size_t i = 0; i < clocked_.size(); ++i) {
    clocked_[i]->bind_commit_lane(&lane_of(clocked_shard_[i]));
  }
}

void Engine::lane_evaluate(std::size_t s) {
  ShardLane& lane = lanes_[s];
  const uint64_t t0 = profile_ ? prof_now_ns() : 0;
  // Sharded lanes route timers and cross-shard pushes through the lane; the
  // sequential lane runs with no current lane (see sim/shard.hpp).
  const ShardLaneScope scope(sharded() ? &lane : nullptr);
  // This lane's due timers wake components before the scan observes them.
  lane.timers.fire(cycle_);
  if (dense_) set_low_bits(flags_.data() + lane.word_begin, lane.num_slots);
  lane.worked =
      scan_lane(lane, flags_.data(), cycle_, dense_,
                sharded() ? nullptr : component_shard_.data());
  if (profile_) lane.prof_eval_ns = prof_now_ns() - t0;
}

void Engine::lane_commit(std::size_t d) {
  ShardLane& lane = lanes_[d];
  const uint64_t t0 = profile_ ? prof_now_ns() : 0;
  // Commit the outboxes addressed to this lane in ascending producer-lane
  // order, its own included. All commits touch only consumer-shard state
  // (storage/occupancy/wake of shard d), so the commit phase is itself
  // parallel across shards; the fixed order is for determinism only (and
  // even that is belt-and-braces: distinct buffers commute).
  uint64_t n = 0;
  if (dense_) {
    // One lane holding everything: commit every element in registration
    // order, which covers whatever was staged.
    for (Clocked* c : clocked_) c->commit();
    n = clocked_.size();
    lane.outboxes[d].clear();
  } else {
    for (ShardLane& from : lanes_) {
      std::vector<Clocked*>& box = from.outboxes[d];
      for (Clocked* c : box) c->commit();
      n += box.size();
      box.clear();
    }
  }
  const uint64_t t1 = profile_ ? prof_now_ns() : 0;
  // Refresh the producer-visible snapshots of every boundary buffer this
  // shard drained: producers judge next cycle's backpressure against the
  // post-commit state, as they would under the sequential engine.
  for (Clocked* c : lane.drained) c->shard_sync();
  lane.drained.clear();
  if (n != 0) {
    lane.commits += n;
    lane.worked = true;
  }
  if (profile_) {
    const uint64_t t2 = prof_now_ns();
    lane.prof_commit_ns = t1 - t0;
    lane.prof_drain_ns = t2 - t1;
  }
}

bool Engine::step_work() {
  if (!finalized_) finalize();
  // Watchdog probe: leader thread, between cycles, before any lane phase is
  // released — the same observation point under every mode.
  if (cycle_ >= watch_probe_at_) watchdog_probe();
  const uint64_t t0 = profile_ ? prof_now_ns() : 0;
  // Engine-level timers fire on the leader before the lanes are released:
  // their wakes may target any lane, which is only safe single-threaded.
  // External pushes between steps land directly in the consumer lane's own
  // outbox (the leader is the only thread running), so there is no separate
  // engine-global drain.
  timers_.fire(cycle_);
  const uint64_t te = profile_ ? prof_now_ns() : 0;

  const bool parallel = exec_ != nullptr && exec_->threads() > 1 &&
                        last_cycle_evals_ >= kDispatchThreshold;
  uint64_t tc = 0;
  if (parallel) {
    ++parallel_cycles_;
    exec_->run(lanes_.size(), [this](std::size_t s) { lane_evaluate(s); });
    if (profile_) tc = prof_now_ns();
    exec_->run(lanes_.size(), [this](std::size_t s) { lane_commit(s); });
  } else {
    for (std::size_t s = 0; s < lanes_.size(); ++s) lane_evaluate(s);
    for (std::size_t s = 0; s < lanes_.size(); ++s) lane_commit(s);
  }

  bool worked = false;
  uint64_t evals = 0;
  for (const ShardLane& lane : lanes_) {
    worked |= lane.worked;
    evals += lane.evaluations;
  }
  if (profile_) record_profile(t0, te, tc, parallel);
  last_cycle_evals_ = evals - prev_total_evals_;
  prev_total_evals_ = evals;
  ++cycle_;
  return worked;
}

void Engine::record_profile(uint64_t t0, uint64_t te, uint64_t tc,
                            bool parallel) {
  uint64_t eval_sum = 0, max_eval = 0, max_cc = 0, commit_sum = 0,
           drain_sum = 0;
  for (ShardLane& lane : lanes_) {
    eval_sum += lane.prof_eval_ns;
    max_eval = std::max(max_eval, lane.prof_eval_ns);
    max_cc = std::max(max_cc, lane.prof_commit_ns + lane.prof_drain_ns);
    commit_sum += lane.prof_commit_ns;
    drain_sum += lane.prof_drain_ns;
    lane.prof_eval_ns = lane.prof_commit_ns = lane.prof_drain_ns = 0;
  }
  profile_data_.evaluate_ns += te - t0;  // leader-side timer firing
  ++profile_data_.cycles;
  if (!parallel) {
    // The lanes ran one after another on this thread: nobody waited, so
    // their busy times are the whole phases.
    profile_data_.evaluate_ns += eval_sum;
    profile_data_.commit_ns += commit_sum;
    profile_data_.drain_ns += drain_sum;
    return;
  }
  // Attribute the critical-path lane's busy time to the work phases and the
  // rest of each phase's wall time to the barrier; the commit-phase critical
  // path is split commit/drain pro rata of the lane totals.
  const uint64_t tend = prof_now_ns();
  const uint64_t eval_wall = tc - te;
  const uint64_t commit_wall = tend - tc;
  const uint64_t busy = commit_sum + drain_sum;
  const uint64_t cc_commit = busy == 0 ? 0 : max_cc * commit_sum / busy;
  profile_data_.evaluate_ns += max_eval;
  profile_data_.commit_ns += cc_commit;
  profile_data_.drain_ns += max_cc - cc_commit;
  profile_data_.barrier_ns +=
      (eval_wall > max_eval ? eval_wall - max_eval : 0) +
      (commit_wall > max_cc ? commit_wall - max_cc : 0);
}

uint64_t Engine::evaluations() const {
  uint64_t n = evaluations_;
  for (const ShardLane& lane : lanes_) n += lane.evaluations;
  return n;
}

uint64_t Engine::commits() const {
  uint64_t n = commits_;
  for (const ShardLane& lane : lanes_) n += lane.commits;
  return n;
}

// --- progress watchdog -------------------------------------------------------

namespace {
/// Buffer discovery for the watchdog: walk every component's describe() to
/// find the buffers on declared data edges and name each one after its first
/// reader ("component.port", the same convention the DRC uses), falling back
/// to the buffer's own consumer name for elements that are registered with
/// the engine but never described.
struct WatchWalk final : GraphVisitor {
  struct Found {
    Clocked* buf = nullptr;
    std::string name;
    uint32_t shard = 0;
    bool named = false;
  };
  std::vector<Found> found;  ///< Discovery order (deterministic).
  std::unordered_map<const Clocked*, std::size_t> index;
  std::string comp_name;
  uint32_t comp_shard = 0;

  std::size_t slot(const Clocked* buf) {
    const auto [it, fresh] = index.emplace(buf, found.size());
    if (fresh) {
      Found f;
      // describe() is const-only inspection, but the watchdog keeps probing
      // the buffer's liveness() for the rest of the run, so store mutable.
      f.buf = const_cast<Clocked*>(buf);  // NOLINT(cppcoreguidelines-pro-type-const-cast)
      found.push_back(std::move(f));
    }
    return it->second;
  }

  void reads(const Clocked* buf, std::string_view label) override {
    Found& f = found[slot(buf)];
    if (!f.named) {
      f.name = comp_name + "." + std::string(label);
      f.shard = comp_shard;
      f.named = true;
    }
  }
  void writes(const PacketSink* sink, std::string_view /*label*/) override {
    if (const Clocked* buf = sink->drc_buffer()) slot(buf);
  }
  void writes_buffer(const Clocked* buf, std::string_view /*label*/) override {
    slot(buf);
  }
  void writes_terminal(const Wakeable*, std::string_view) override {}
  void wakes(const Wakeable*, std::string_view) override {}
  void self_ticking() override {}
  void wake_on_demand() override {}
  void buffer_info(const BufferDecl&) override {}
};
}  // namespace

void Engine::watchdog_collect() {
  WatchWalk walk;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    walk.comp_name = components_[i]->name();
    walk.comp_shard = component_shard_[i];
    components_[i]->describe(walk);
  }
  for (Clocked* c : clocked_) walk.slot(c);

  watched_.clear();
  for (WatchWalk::Found& f : walk.found) {
    const LivenessState s = f.buf->liveness();
    if (!s.is_buffer) continue;
    WatchedBuffer w;
    w.buf = f.buf;
    w.name = f.named ? std::move(f.name) : std::string(s.consumer) + ".<in>";
    w.shard = f.shard;
    w.drains = s.drains;
    w.pending = s.occupancy > 0;
    w.pending_since = cycle_;
    watched_.push_back(std::move(w));
  }
}

void Engine::watchdog_probe() {
  if (!watch_baselined_) {
    watchdog_collect();
    watch_baselined_ = true;
    watch_probe_at_ = cycle_ + stall_horizon_;
    return;
  }
  std::vector<const WatchedBuffer*> stalled;
  for (WatchedBuffer& w : watched_) {
    const LivenessState s = w.buf->liveness();
    const bool pending_now = s.occupancy > 0;
    // A no-progress run continues only while the buffer stays non-empty
    // with an unchanged drain count; any pop, or going empty, resets it.
    if (!pending_now || s.drains != w.drains || !w.pending) {
      w.pending_since = cycle_;
    }
    w.drains = s.drains;
    w.pending = pending_now;
    if (pending_now && cycle_ - w.pending_since >= stall_horizon_) {
      stalled.push_back(&w);
    }
  }
  if (!stalled.empty()) watchdog_fire(stalled);
  watch_probe_at_ = cycle_ + stall_horizon_;
}

void Engine::watchdog_fire(const std::vector<const WatchedBuffer*>& stalled) {
  // Oldest stall first; name breaks ties so the report is deterministic.
  std::vector<const WatchedBuffer*> order = stalled;
  std::sort(order.begin(), order.end(),
            [](const WatchedBuffer* a, const WatchedBuffer* b) {
              if (a->pending_since != b->pending_since) {
                return a->pending_since < b->pending_since;
              }
              return a->name < b->name;
            });

  std::size_t pending_total = 0;
  for (const WatchedBuffer& w : watched_) {
    if (w.pending) ++pending_total;
  }
  std::unordered_map<uint32_t, uint64_t> per_shard;
  for (const WatchedBuffer* w : order) ++per_shard[w->shard];

  Json report = Json::object();
  report.set("schema", "mempool.liveness.v1");
  report.set("cycle", cycle_);
  report.set("horizon", stall_horizon_);
  report.set("engine",
             num_shards_ != 0 ? "sharded" : (dense_ ? "dense" : "active"));
  report.set("num_shards", num_shards_ == 0 ? uint64_t{1} : num_shards_);
  report.set("pending_buffers", static_cast<uint64_t>(pending_total));
  Json arr = Json::array();
  for (const WatchedBuffer* w : order) {
    const LivenessState s = w->buf->liveness();
    Json e = Json::object();
    e.set("buffer", w->name);
    e.set("consumer", s.consumer);
    e.set("shard", static_cast<uint64_t>(w->shard));
    e.set("occupancy", static_cast<uint64_t>(s.occupancy));
    e.set("capacity", static_cast<uint64_t>(s.capacity));
    e.set("stalled_for", cycle_ - w->pending_since);
    e.set("head", s.head);
    arr.push_back(std::move(e));
  }
  report.set("stalled", std::move(arr));
  Json shards = Json::array();
  {
    std::vector<std::pair<uint32_t, uint64_t>> rows(per_shard.begin(),
                                                    per_shard.end());
    std::sort(rows.begin(), rows.end());
    for (const auto& [shard, n] : rows) {
      Json row = Json::object();
      row.set("shard", static_cast<uint64_t>(shard));
      row.set("stalled", n);
      shards.push_back(std::move(row));
    }
  }
  report.set("stalled_shards", std::move(shards));

  const WatchedBuffer* oldest = order.front();
  std::ostringstream msg;
  msg << "liveness watchdog: " << order.size() << " buffer"
      << (order.size() == 1 ? "" : "s") << " made no progress for "
      << stall_horizon_ << " cycles (cycle " << cycle_ << "); oldest: '"
      << oldest->name << "' (consumer '" << oldest->buf->liveness().consumer
      << "', occupancy " << oldest->buf->liveness().occupancy << ", shard "
      << oldest->shard << ")";
  throw LivenessError(msg.str(), std::move(report));
}

uint64_t Engine::next_timer_at_most(uint64_t limit) const {
  uint64_t best = timers_.next_at_most(cycle_, limit);
  for (const ShardLane& lane : lanes_) {
    best = lane.timers.next_at_most(cycle_, best);
  }
  return best;
}

}  // namespace mempool
