#include "engine/sharded_core.h"

#include <algorithm>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "engine/config.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace asf {

namespace {
std::size_t ShardCount(const RunOptions& options) {
  return std::max<std::size_t>(1, options.shards);
}
}  // namespace

// Shard worker s writes trace ring s; the host (the coordinator) writes
// ring S.
ShardedSimulationCore::ShardedSimulationCore(const RunOptions& options)
    : wall_start_(std::chrono::steady_clock::now()), options_(options),
      host_(options_,
            engine_internal::QueryHost::Binding{
                values_, coord_now_, net_scheduler_, ShardCount(options_),
                static_cast<std::uint16_t>(ShardCount(options_)),
                wall_start_}) {
  ASF_CHECK_MSG(options_.source.type != SourceSpec::Type::kCustom,
                "custom stream sources cannot be sharded");
  // The coordinator's merged value view starts from the sources' initial
  // values. Per-stream determinism makes one full (unstarted) instance an
  // exact stand-in for all shards' initial state.
  values_ = MakeStreams(options_.source)->values();

  // Shard s owns streams {s, s + S, s + 2S, ...} and arena s of the
  // host's lockstep set, which records the cells each mutation touches
  // for the epoch replay.
  const std::size_t num_shards = host_.num_arenas();
  for (std::size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(
        MakeStreams(options_.source, StreamPartition{s, num_shards}),
        host_.arena(s)));
    shards_.back()->arena.EnableCellTracking(true);
  }
}

ShardedSimulationCore::~ShardedSimulationCore() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }
}

void ShardedSimulationCore::ReplayUpdate(Shard& shard,
                                         const Shard::Update& update) {
  // The merged view advances for every update — exactly the StreamSet
  // state the serial engine's handler observes — even while no query is
  // live (the handler then returns before counting).
  values_[update.id] = update.value;
  if (!host_.BeginUpdate()) return;
  coord_now_ = update.time;
  const std::size_t live = host_.live();

  // Merge the update's speculated fired list with the strip's touched
  // columns, ascending. Columns whose cells were touched by a server
  // reaction earlier in this epoch lost their speculated entries;
  // re-evaluate them scalar against the canonical (already-overwritten,
  // hence exact) state. Untouched speculated entries are exact as
  // computed. Both inputs are sorted lists, so the replay cost is
  // O(speculated + touched) — output-sensitive like the dispatch itself,
  // with no O(live) mask walk.
  const StreamId row = update.id / shards_.size();
  const std::uint32_t* spec = shard.fired.data() + update.fired_begin;
  const std::size_t spec_n = update.fired_count;
  const std::vector<std::uint32_t>& touched = shard.arena.TouchedColumns(row);
  // Batched self-healing: re-evaluate every touched column of this strip
  // in one pass (a SIMD inside-mask per 64-column word, scalar for short
  // word runs) instead of one EvaluateColumn call per touched column per
  // reaction. touched_fired_ is the ascending fired subset; the merge
  // below only tests membership.
  shard.arena.EvaluateTouched(row, update.value, touched, &touched_fired_);
  fired_columns_.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t k = 0;
  while (i < spec_n || j < touched.size()) {
    std::uint32_t c;
    bool is_touched;
    if (j == touched.size() || (i < spec_n && spec[i] < touched[j])) {
      c = spec[i++];
      is_touched = false;
    } else {
      c = touched[j++];
      is_touched = true;
      if (i < spec_n && spec[i] == c) ++i;  // superseded speculation
    }
    if (c >= live) continue;  // stale touched entries cannot exist; safety
    if (is_touched) {
      while (k < touched_fired_.size() && touched_fired_[k] < c) ++k;
      if (k == touched_fired_.size() || touched_fired_[k] != c) continue;
    }
    fired_columns_.push_back(c);
  }
  // The crossings travel through the network model and come back via the
  // host's OnNetUpdate — inside this replay step for instant delivery,
  // drained later in merged time order otherwise (DESIGN.md §9).
  host_.RouteCrossings(update.id, update.value, update.time, fired_columns_);
}

bool ShardedSimulationCore::PinThreadToCore(std::size_t core) {
#if defined(__linux__)
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(core % hw), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)core;
  return false;
#endif
}

void ShardedSimulationCore::DrainDeliveries(SimTime limit, SimTime to) {
  // Event callbacks (periodic oracle samples, OnNetUpdate / OnNetDeploy /
  // batch flushes) run here, between replayed updates, exactly where the
  // serial scheduler would interleave them. Ticks and deliveries share
  // one queue so exact-tie order (a batch flush landing on a sample grid
  // point) follows FIFO scheduling seniority, like the serial engine.
  for (;;) {
    const SimTime next = net_scheduler_.NextEventTime();
    if (next > limit || next >= to) break;
    coord_now_ = next;
    net_scheduler_.Step();
  }
}

void ShardedSimulationCore::ReplayEpoch(SimTime to) {
  // S-way merge of the shard logs by (time, stream id). Same-time ties
  // across shards are ordered by stream id — the documented divergence
  // from the serial scheduler's FIFO seniority, unreachable under
  // continuous-time workloads.
  for (;;) {
    Shard* best = nullptr;
    for (const auto& shard : shards_) {
      if (shard->cursor >= shard->log.size()) continue;
      const Shard::Update& u = shard->log[shard->cursor];
      if (best == nullptr) {
        best = shard.get();
        continue;
      }
      const Shard::Update& b = best->log[best->cursor];
      if (u.time < b.time || (u.time == b.time && u.id < b.id)) {
        best = shard.get();
      }
    }
    if (best == nullptr) break;
    const Shard::Update& update = best->log[best->cursor];
    // Periodic oracle samples and pending network deliveries interleave
    // in time order (both before the update at exactly equal timestamps;
    // see header).
    DrainDeliveries(update.time, to);
    ReplayUpdate(*best, update);
    ++best->cursor;
  }
  DrainDeliveries(to, to);
}

void ShardedSimulationCore::WorkerLoop(std::size_t shard_index) {
  if (pinned_) PinThreadToCore(shard_index);
  Shard& shard = *shards_[shard_index];
  std::uint64_t seen_seq = 0;
  for (;;) {
    SimTime to;
    bool final_flush;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || epoch_seq_ != seen_seq; });
      if (shutdown_) return;
      seen_seq = epoch_seq_;
      to = speculate_to_;
      final_flush = final_flush_;
    }
    {
      // Each worker's speculation wall accrues to the sweep phase in its
      // own thread-local profiler state; Merged() folds them together.
      obs::ScopedPhase obs_phase(options_.obs.profiler,
                                 obs::Phase::kSweep);
      if (final_flush) {
        shard.scheduler.RunUntil(to);  // events at the horizon itself
      } else {
        shard.scheduler.RunBefore(to);
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++workers_done_;
    }
    done_cv_.notify_one();
  }
}

void ShardedSimulationCore::SpeculateEpoch(SimTime to) {
  // Fresh epoch: logs restart, speculation state is the canonical state
  // (all barrier mutations applied), touched cells reset.
  epoch_live_ = host_.live();
  for (const auto& shard : shards_) {
    shard->log.clear();
    shard->fired.clear();
    shard->cursor = 0;
    shard->arena.ClearTouched();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    speculate_to_ = to;
    final_flush_ = to >= options_.duration;
    workers_done_ = 0;
    ++epoch_seq_;
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return workers_done_ == shards_.size(); });
  }
}

void ShardedSimulationCore::Run() {
  host_.BeginRun();
  const SimTime duration = options_.duration;

  // Root profiler scope on the coordinator: epoch orchestration and
  // everything no finer phase claims accrues to kOther (worker threads
  // report their speculation wall separately under kSweep).
  obs::ScopedPhase obs_root(options_.obs.profiler, obs::Phase::kOther);

  // Gauge snapshots: the sharded engine drains due grid points at each
  // epoch barrier (hooks.h), so a sample at T reflects the merged state of
  // the barrier that covers T.
  obs::MetricsRegistry* const obs_reg = options_.obs.metrics;
  const SimTime obs_every = options_.obs.metrics_every;
  SimTime obs_next_snap = obs_every;
  const auto obs_drain_snapshots = [&](SimTime upto) {
    if (obs_reg == nullptr || obs_every <= 0) return;
    while (obs_next_snap <= upto && obs_next_snap <= duration) {
      obs_reg->SnapshotAt(obs_next_snap);
      obs_next_snap += obs_every;
    }
  };

  // Each shard speculates into its log: every local update is recorded
  // and, while queries are live, evaluated against the shard's strips
  // under the epoch-start filter state.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard* shard = shards_[s].get();
    const std::uint16_t ring = static_cast<std::uint16_t>(s);
    shard->streams->set_update_handler(
        [this, shard, ring](StreamId id, Value v, SimTime t) {
          (void)ring;
          Shard::Update update{t, id, v,
                               static_cast<std::uint32_t>(shard->fired.size()),
                               0};
          if (epoch_live_ > 0) {
            ASF_TRACE_EVENT(options_.obs.tracer, ring,
                            obs::TraceEventType::kValueUpdate, t, id, v, 0);
            // The configured dispatch policy (SIMD scan or stabbing
            // index) speculates under the epoch-start filter state.
            shard->arena.DispatchUpdate(id / shards_.size(), v,
                                        &shard->fired_scratch);
            update.fired_count =
                static_cast<std::uint32_t>(shard->fired_scratch.size());
#if ASF_OBS_TRACE_COMPILED
            if (options_.obs.tracer != nullptr &&
                options_.obs.tracer->Wants(obs::kCatCrossing)) {
              for (const std::uint32_t c : shard->fired_scratch) {
                options_.obs.tracer->Emit(
                    ring, obs::TraceEventType::kCrossing, t, c, v,
                    shard->fired_scratch.size());
              }
            }
#endif
            shard->fired.insert(shard->fired.end(),
                                shard->fired_scratch.begin(),
                                shard->fired_scratch.end());
          }
          shard->log.push_back(update);
        });
    shard->streams->Start(&shard->scheduler, duration);
  }

  // Periodic oracle sampling and model-owned timers (partition reconnect
  // exchanges) live in the coordinator's queue. Scheduled before any
  // delivery can be (no send precedes Run), so their FIFO seniority
  // against flushes and deliveries matches the serial scheduler's.
  host_.StartTimers();

  // Epoch boundaries: a regular speculation grid plus every lifecycle
  // event time (lifecycle executes only at barriers, keeping the column
  // space fixed within an epoch).
  const SimTime epoch_len = duration / kEpochsPerRun;
  const std::vector<engine_internal::LifecycleEvent> lifecycle =
      host_.LifecycleSchedule();
  std::size_t next_event = 0;

  // Spin up the worker pool, pinning first so the workers (which read
  // pinned_ at startup) inherit the decision: coordinator on core 0,
  // shard worker s on core s mod hardware_concurrency.
  if (options_.pin_threads) pinned_ = PinThreadToCore(0);
  workers_.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    workers_.emplace_back([this, s] { WorkerLoop(s); });
  }

  SimTime now = 0;
  std::uint64_t obs_epoch = 0;
  while (now < duration) {
    // Barrier at `now`: lifecycle events in the serial order — every
    // deployment first, then every retirement, each in slot order.
    coord_now_ = now;
    obs_drain_snapshots(now);
    ASF_TRACE_EVENT(options_.obs.tracer,
                    static_cast<std::uint16_t>(shards_.size()),
                    obs::TraceEventType::kEpochBarrier, now, 0, 0, obs_epoch);
    ++obs_epoch;
    for (; next_event < lifecycle.size() && lifecycle[next_event].t == now;
         ++next_event) {
      if (lifecycle[next_event].deploy) {
        host_.InstallSlot(lifecycle[next_event].slot);
      } else {
        host_.RetireSlot(lifecycle[next_event].slot);
      }
    }
    // Coordinator events at exactly the barrier time (periodic samples,
    // deliveries) run in the next epoch's replay drain — after lifecycle,
    // like the serial scheduler's FIFO order (lifecycle events hold the
    // lowest sequence numbers).

    // Next boundary: the speculation grid or the next lifecycle event,
    // whichever comes first.
    SimTime next = std::min(now + epoch_len, duration);
    if (next_event < lifecycle.size()) {
      next = std::min(next, lifecycle[next_event].t);
    }
    ASF_CHECK(next > now);

    {
      obs::ScopedPhase obs_phase(options_.obs.profiler,
                                 obs::Phase::kSpeculate);
      SpeculateEpoch(next);
    }
    const auto replay_start = std::chrono::steady_clock::now();
    {
      obs::ScopedPhase obs_phase(options_.obs.profiler,
                                 obs::Phase::kReplay);
      ReplayEpoch(next);
    }
    host_.add_replay_seconds(std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() -
                                 replay_start)
                                 .count());
    now = next;
  }
  // Horizon: replay events scheduled at exactly t = duration (the final
  // flush ran them in SpeculateEpoch's last round since to == duration),
  // drain samples and deliveries landing at the horizon itself, count the
  // messages still in flight, then close every live slot's books, exactly
  // like the serial run loop.
  const auto drain_start = std::chrono::steady_clock::now();
  obs_drain_snapshots(duration);
  {
    obs::ScopedPhase obs_phase(options_.obs.profiler,
                               obs::Phase::kReplay);
    DrainDeliveries(duration, kInf);
  }
  host_.add_replay_seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    drain_start)
          .count());
  host_.EndRun();
}

}  // namespace asf
