#ifndef ASF_ENGINE_QUERY_HOST_H_
#define ASF_ENGINE_QUERY_HOST_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/sim_core.h"
#include "engine/spill.h"
#include "filter/filter_arena.h"
#include "net/network_model.h"
#include "sim/scheduler.h"
#include "storage/spill_log.h"

/// \file
/// The server side of a run, shared by the serial and sharded engines: the
/// query slots and their lifecycle (wire, install, retire), the filter
/// arena set the slots' columns live in, the delivery model's arrival
/// sinks, the correctness audit, the spiller, the run-level counters and
/// gauges, and the end-of-run close of every live query's books.
///
/// In the paper one server installs each query's filter constraints at
/// the stream agents, re-deploys them, and takes them down when the query
/// ends. Both engines model that server through this one class, so serial
/// ≡ sharded byte identity (DESIGN.md §8) cannot be broken by the two
/// drifting apart. An engine supplies only what genuinely differs:
///
///  * the value view — where true current values are read (the serial
///    StreamSet's values, or the sharded coordinator's merged view);
///  * the clock — the server's current time (the serial scheduler's
///    clock, or the sharded coordinator's replay position);
///  * the event scheduler that delivery timers and periodic audits live
///    in;
///  * the arena set size S: one arena for the serial engine, S lockstep
///    arenas (stream id -> arena id % S, row id / S) for the sharded one;
///  * the trace ring the host's events are written to.
///
/// The value view and the clock are plain references, read on every
/// deploy arrival and probe with no indirect call. Each engine keeps its
/// own run loop, its update dispatch and when lifecycle events run.
/// Internal to src/engine; not part of the public API.

namespace asf {
namespace engine_internal {

/// Server-side runtime of one deployed query.
struct QuerySlot {
  QueryDeployment deployment;
  /// This slot's index in the engine's deployment order — the stable
  /// query address network messages carry (arena columns move under
  /// compaction, slot indices never do).
  std::size_t index = 0;
  SimTime deploy_at = 0;
  SimTime retire_at = kNeverRetire;
  /// View into the shared filter storage while live; detached otherwise.
  std::unique_ptr<FilterBank> filters;
  std::unique_ptr<ServerContext> ctx;
  std::unique_ptr<Rng> rng;
  std::unique_ptr<Protocol> protocol;
  QueryRunStats stats;

  bool live = false;
  /// The slot's arena column while live (moves under compaction).
  std::size_t column = FilterArena::kNoColumn;

  /// Incremental answer-size accounting: the answer only changes when
  /// this query's protocol handles a fired update, so the per-update
  /// sample stream is a run-length sequence — `answer_cur_size` repeated
  /// since sample number `answer_sampled_upto` (see FlushAnswerSamples).
  double answer_cur_size = 0.0;
  std::uint64_t answer_sampled_upto = 0;

  /// Per-stream floor of applied wire sequence numbers, maintained only
  /// when a reordering delivery model stamps them (Payload::seq != 0):
  /// a payload at or below the floor was obsoleted by an overtaker and is
  /// suppressed, so the server cache never regresses to a stale value.
  std::vector<std::uint64_t> update_seq_floor;

  /// Out-of-core state (DESIGN.md §13). After a spilling retire, the
  /// closed stats record lives in the spill log behind `spilled` and the
  /// hot members above are dropped; `stats_resident` flips back to true
  /// when query_stats() faults the record in. valid() spilled + resident
  /// means both copies exist and the in-memory one is authoritative.
  storage::RecordRef spilled;
  bool stats_resident = true;
};

/// One deploy or retirement of the lifecycle schedule.
struct LifecycleEvent {
  SimTime t = 0;
  /// Scheduler sequence number; filled by an engine that pre-reserves
  /// them (the serial feed), unused otherwise.
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  bool deploy = false;
};

class QueryHost {
 public:
  /// What an engine binds the host to. Every reference must outlive the
  /// host.
  struct Binding {
    const std::vector<Value>& values;  ///< true current value per stream
    const SimTime& clock;              ///< the server's current time
    Scheduler& events;                 ///< delivery timers, audit ticks
    std::size_t arenas = 1;            ///< S lockstep arenas
    std::uint16_t trace_ring = 0;      ///< ring of the host's events
    std::chrono::steady_clock::time_point wall_start;
  };

  QueryHost(const RunOptions& options, const Binding& binding);
  QueryHost(const QueryHost&) = delete;
  QueryHost& operator=(const QueryHost&) = delete;
  ~QueryHost();

  /// The deployment surface; same contracts as the SimulationCore methods
  /// of the same names.
  std::size_t AddQuery(const QueryDeployment& deployment);
  std::size_t DeployQuery(const QueryDeployment& deployment, SimTime at);
  void RetireQuery(std::size_t slot, SimTime at);

  /// Every deploy and every retirement before the horizon, in dispatch
  /// order: by time, deploys before retirements at one instant, each in
  /// slot order. A retirement at or beyond the horizon is the same
  /// observable run as never retiring — the query serves its whole window
  /// either way — so it is left out rather than charged a pointless
  /// uninstall broadcast at the instant the run ends.
  std::vector<LifecycleEvent> LifecycleSchedule() const;

  /// Start of Run: checks it runs once with queries deployed, and
  /// registers the gauges (DESIGN.md §14).
  void BeginRun();

  /// Schedules the periodic audit and the delivery model's own timers
  /// (partition reconnects), in that order, on the event scheduler. The
  /// engine calls it where FIFO seniority at equal timestamps must match
  /// the other engine's: after the lifecycle events.
  void StartTimers();

  /// End of Run, once the engine's loop reached the horizon: counts the
  /// messages still in flight, closes every live query's books at the
  /// horizon, clears the gauges and stops the wall clock.
  void EndRun();

  /// The deploy event: wires the slot's runtime (lazily, so resident state
  /// tracks the live population — DESIGN.md §13), takes a column in every
  /// arena, runs the protocol's Initialization phase at the clock's time,
  /// and opens the live window.
  void InstallSlot(std::size_t index);

  /// The retire event: uninstalls the slot's filters (a pass-through
  /// deploy per stream, sent as one batch), closes its books, releases its
  /// column with live-prefix compaction, and spills the closed record if
  /// enabled.
  void RetireSlot(std::size_t index);

  /// Counts one generated update; false (and nothing counted) while no
  /// query is live.
  bool BeginUpdate() {
    if (column_owner_.empty()) return false;
    ++updates_generated_;
    return true;
  }

  /// Sends an update's fired arena `columns` to their queries through the
  /// delivery model (which delivers them via OnNetUpdate — inside this
  /// call for instant delivery, later otherwise; DESIGN.md §9), then runs
  /// the per-update audit if configured.
  void RouteCrossings(StreamId id, Value v, SimTime t,
                      const std::vector<std::uint32_t>& columns);

  /// Live queries = live arena columns.
  std::size_t live() const { return column_owner_.size(); }
  std::size_t num_arenas() const { return arenas_.size(); }
  FilterArena& arena(std::size_t s) { return *arenas_[s]; }

  std::size_t num_queries() const { return slots_.size(); }
  const QueryRunStats& query_stats(std::size_t i) const;
  SpillTelemetry spill_telemetry() const;
  std::uint64_t updates_generated() const { return updates_generated_; }
  std::uint64_t physical_updates() const { return physical_updates_; }
  std::size_t peak_live_queries() const { return peak_live_; }
  const NetStats& net_stats() const { return net_->stats(); }
  /// Dispatch accounting summed over the arena set.
  DispatchStats dispatch_stats() const;
  double wall_seconds() const { return wall_seconds_; }
  /// The run-level outcome (RunTotals::pinned is the engine's to set).
  RunTotals totals() const;
  /// Adds wall time an engine spent in its replay stage.
  void add_replay_seconds(double s) { replay_seconds_ += s; }

 private:
  using Slot = QuerySlot;

  /// Builds the slot's runtime — detached filter bank, server context over
  /// fresh transport wires, protocol RNG seeded QuerySlotSeed(run seed,
  /// index), protocol instance.
  void WireSlot(Slot& slot);

  /// Points `slot`'s filter bank at its column of the arena set, tagged
  /// with the set's current generation.
  void BindView(Slot& slot);

  /// Rebinds every live slot's view after a layout change (growth or
  /// compaction).
  void RebindLiveViews();

  /// Judges one slot's current answer against the value view.
  void RunOracle(Slot& slot);
  /// Judges every live slot.
  void AuditLive();

  /// The periodic audit; reschedules itself every
  /// options_.oracle.sample_interval until the horizon.
  void OracleSampleTick();

  /// Delivery-model arrival sinks (NetworkModel::Bind / BindReconcile).
  void OnNetUpdate(StreamId id, const NetworkModel::Payload* payloads,
                   std::size_t count, SimTime at);
  void OnNetDeploy(std::size_t slot, StreamId id,
                   const FilterConstraint& constraint, SimTime at);
  /// A deploy batch delivered inline: one column write (or, for the
  /// uninstall of a retiring slot, only the index accounting).
  void OnNetDeployBatch(std::size_t slot, const DeployBatch& batch,
                        SimTime at);
  void OnNetReconcile(SimTime at);

  /// Delivers one update payload to a live slot: counts the logical
  /// kValueUpdate, runs the protocol's Maintenance reaction, samples the
  /// new answer size. The single accounting sink of every delivery path.
  void DeliverUpdate(Slot& slot, StreamId id, Value v, SimTime t);

  /// Appends the slot's pending run of unchanged answer-size samples (one
  /// per generated update, up to update number `upto`) in O(1).
  static void FlushAnswerSamples(Slot& slot, std::uint64_t upto);

  /// Appends a retired slot's closed books to the spill log and frees
  /// every in-memory copy: the stats record and the slot's runtime —
  /// protocol, server context, RNG, detached filter bank, deployment
  /// record, seq floors. Every post-retirement delivery, audit and
  /// reconcile path gates on slot.live first, so nothing touches the
  /// freed members.
  void SpillRetired(Slot& slot);

  const RunOptions& options_;
  const std::vector<Value>& values_;
  const SimTime& now_;
  Scheduler& events_;
  const std::uint16_t ring_;

  /// The arena set: stream-major shared filter storage for the live
  /// queries, S arenas evolving in lockstep (same columns, same
  /// generation). Routed views point at arena_ptrs_.
  std::vector<std::unique_ptr<FilterArena>> arenas_;
  std::vector<FilterArena*> arena_ptrs_;
  std::vector<std::unique_ptr<Slot>> slots_;
  /// Slot index of each live arena column (parallel to the arenas' dense
  /// live prefix).
  std::vector<std::size_t> column_owner_;
  /// Out-of-core endpoint for retired-query state; null when disabled.
  std::unique_ptr<QueryStateSpiller> spiller_;
  /// The delivery model every source→server update and server→source
  /// deploy routes through (DESIGN.md §9).
  std::unique_ptr<NetworkModel> net_;
  /// False for instant-equivalent configs: delivery runs inside the
  /// producing event and staleness accounting is skipped.
  bool net_delayed_ = false;
  /// Scratch: slot indices of the update being routed.
  std::vector<std::size_t> fired_slots_;
  /// The slot whose uninstall broadcast RetireSlot is sending, if any.
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  std::size_t uninstalling_ = kNoSlot;

  bool ran_ = false;
  std::size_t peak_live_ = 0;
  std::uint64_t updates_generated_ = 0;
  std::uint64_t physical_updates_ = 0;
  std::chrono::steady_clock::time_point wall_start_;
  double wall_seconds_ = 0.0;
  double replay_seconds_ = 0.0;
};

}  // namespace engine_internal
}  // namespace asf

#endif  // ASF_ENGINE_QUERY_HOST_H_
