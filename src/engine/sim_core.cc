#include "engine/sim_core.h"

#include <algorithm>
#include <utility>

#include "engine/query_host.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "stream/random_walk.h"
#include "stream/trace_source.h"

namespace asf {

SimulationCore::SimulationCore(const Options& options)
    : wall_start_(std::chrono::steady_clock::now()), options_(options) {
  if (options_.source.type == SourceSpec::Type::kCustom) {
    streams_ = options_.source.custom;  // borrowed (see SourceSpec::Custom)
  } else {
    owned_streams_ = MakeStreams(options_.source);
    streams_ = owned_streams_.get();
  }
  ASF_CHECK(streams_ != nullptr);
  // One arena, trace ring 0: the serial engine is one thread.
  host_ = std::make_unique<engine_internal::QueryHost>(
      options_, engine_internal::QueryHost::Binding{
                    streams_->values(), scheduler_.clock(), scheduler_, 1, 0,
                    wall_start_});
  arena_ = &host_->arena(0);
}

SimulationCore::~SimulationCore() = default;

std::size_t SimulationCore::AddQuery(const QueryDeployment& deployment) {
  return host_->AddQuery(deployment);
}

std::size_t SimulationCore::DeployQuery(const QueryDeployment& deployment,
                                        SimTime at) {
  return host_->DeployQuery(deployment, at);
}

void SimulationCore::RetireQuery(std::size_t slot, SimTime at) {
  host_->RetireQuery(slot, at);
}

void SimulationCore::ScheduleLifecycleBatch() {
  const std::size_t end =
      std::min(lifecycle_cursor_ + kLifecycleBatch, lifecycle_.size());
  const bool more = end < lifecycle_.size();
  for (std::size_t k = lifecycle_cursor_; k < end; ++k) {
    const engine_internal::LifecycleEvent ev = lifecycle_[k];
    // The batch's last event refills the feed after running its own
    // action. Refilled events carry reserved seqs strictly greater than
    // this event's (the feed is sorted by (t, seq)), so they dispatch
    // exactly where an eager schedule would have placed them, even at
    // the same timestamp.
    const bool refill = more && k + 1 == end;
    scheduler_.ScheduleAtReserved(ev.t, ev.seq, [this, ev, refill] {
      if (ev.deploy) {
        host_->InstallSlot(ev.slot);
      } else {
        host_->RetireSlot(ev.slot);
      }
      if (refill) ScheduleLifecycleBatch();
    });
  }
  lifecycle_cursor_ = end;
  if (!more) {
    // Feed exhausted; the events hold copies, so the backing array can go.
    lifecycle_.clear();
    lifecycle_.shrink_to_fit();
  }
}

void SimulationCore::Run() {
  host_->BeginRun();

  // Root profiler scope: everything Run does that no finer phase claims
  // accrues to kOther, so the phase table always sums to (about) the
  // run's wall time.
  obs::ScopedPhase obs_root(options_.obs.profiler, obs::Phase::kOther);

  streams_->set_update_handler([this](StreamId id, Value v, SimTime t) {
    // Warm-up / lull: no query, no messages.
    if (!host_->BeginUpdate()) return;
    ASF_TRACE_EVENT(options_.obs.tracer, 0, obs::TraceEventType::kValueUpdate,
                    t, id, v, 0);
    // All live queries' filters for this stream sit in one contiguous,
    // compacted SoA strip; the configured dispatch policy evaluates every
    // live column — one SIMD sweep, or the stabbing index's
    // output-sensitive crossing query (DESIGN.md §10) — and advances the
    // membership references (retired queries cost nothing here).
    // Per-query isolation makes the batch evaluation exact: a fired
    // column's protocol reaction can only touch its own filters, never
    // another column's crossing decision for this update (DESIGN.md §8).
#if ASF_OBS_TRACE_COMPILED
    const bool obs_want_index =
        options_.obs.tracer != nullptr &&
        options_.obs.tracer->Wants(obs::kCatIndex);
    const std::uint64_t obs_rebuilds_before =
        obs_want_index ? arena_->dispatch_stats().index_rebuilds : 0;
#endif
    {
      obs::ScopedPhase obs_phase(options_.obs.profiler, obs::Phase::kDispatch);
      arena_->DispatchUpdate(id, v, &fired_columns_);
    }
#if ASF_OBS_TRACE_COMPILED
    if (obs_want_index) {
      const std::uint64_t rebuilds = arena_->dispatch_stats().index_rebuilds;
      if (rebuilds != obs_rebuilds_before) {
        options_.obs.tracer->Emit(0, obs::TraceEventType::kIndexRebuild, t, id,
                                  v, rebuilds);
      }
    }
    if (options_.obs.tracer != nullptr &&
        options_.obs.tracer->Wants(obs::kCatCrossing)) {
      for (const std::uint32_t c : fired_columns_) {
        options_.obs.tracer->Emit(0, obs::TraceEventType::kCrossing, t, c, v,
                                  fired_columns_.size());
      }
    }
#endif
    // The crossings travel through the network model, which delivers them
    // back via the host's OnNetUpdate — inside this event for instant
    // delivery, later otherwise (DESIGN.md §9).
    host_->RouteCrossings(id, v, t, fired_columns_);
  });

  // The lifecycle feed. Dispatch order at equal timestamps must be
  // exactly the classic all-upfront scheme's: every deploy (slot order)
  // before every retirement (slot order), both before any same-instant
  // stream/oracle/net event. Reserving the whole seq block here pins that
  // order — (time, seq) decides dispatch no matter when an event is
  // inserted — so the feeder can materialize scheduler entries in small
  // batches and the queue holds O(batch) lifecycle events instead of one
  // per cumulative deployment (long churn schedules would otherwise spend
  // more memory on pending events than on the live queries themselves).
  lifecycle_ = host_->LifecycleSchedule();
  const std::uint64_t seq_base = scheduler_.ReserveSeqs(lifecycle_.size());
  for (std::size_t k = 0; k < lifecycle_.size(); ++k) {
    lifecycle_[k].seq = seq_base + k;
  }
  lifecycle_cursor_ = 0;
  ScheduleLifecycleBatch();

  // Periodic audits and model-owned timers (partition reconnect
  // exchanges) are scheduled after the lifecycle events, so FIFO
  // seniority at equal timestamps matches the sharded engine.
  host_->StartTimers();

  streams_->Start(&scheduler_, options_.duration);
  obs::MetricsRegistry* const obs_reg = options_.obs.metrics;
  if (obs_reg != nullptr && options_.obs.metrics_every > 0) {
    // Same event sequence as the plain RunUntil below — a Step loop with
    // (time, seq) FIFO dispatch executes events in identical order — but
    // gauge snapshots interleave on the sim-time grid: a grid point at T
    // samples before any event at exactly T runs.
    const SimTime every = options_.obs.metrics_every;
    SimTime next_snap = every;
    for (;;) {
      const SimTime next_event = scheduler_.NextEventTime();
      const SimTime limit = std::min(next_event, options_.duration);
      while (next_snap <= options_.duration && next_snap <= limit) {
        obs_reg->SnapshotAt(next_snap);
        next_snap += every;
      }
      if (next_event > options_.duration) break;
      scheduler_.Step();
    }
    scheduler_.RunUntil(options_.duration);  // clock -> horizon
    while (next_snap <= options_.duration) {
      obs_reg->SnapshotAt(next_snap);
      next_snap += every;
    }
  } else {
    scheduler_.RunUntil(options_.duration);
  }
  host_->EndRun();
}

std::size_t SimulationCore::num_queries() const {
  return host_->num_queries();
}

const QueryRunStats& SimulationCore::query_stats(std::size_t i) const {
  return host_->query_stats(i);
}

SpillTelemetry SimulationCore::spill_telemetry() const {
  return host_->spill_telemetry();
}

RunTotals SimulationCore::totals() const { return host_->totals(); }

std::uint64_t SimulationCore::updates_generated() const {
  return host_->updates_generated();
}

std::uint64_t SimulationCore::physical_updates() const {
  return host_->physical_updates();
}

std::size_t SimulationCore::peak_live_queries() const {
  return host_->peak_live_queries();
}

const NetStats& SimulationCore::net_stats() const {
  return host_->net_stats();
}

DispatchStats SimulationCore::dispatch_stats() const {
  return host_->dispatch_stats();
}

double SimulationCore::wall_seconds() const { return host_->wall_seconds(); }

}  // namespace asf
