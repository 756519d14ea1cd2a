#ifndef ASF_ENGINE_SHARDED_CORE_H_
#define ASF_ENGINE_SHARDED_CORE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/query_host.h"
#include "engine/sim_core.h"
#include "filter/filter_arena.h"
#include "stream/stream_set.h"

/// \file
/// Shard-parallel simulation engine: the stream population is dealt
/// round-robin across S worker shards (stream id lives in shard id % S),
/// each owning its own Scheduler, stream sources, and FilterArena strips
/// over its local streams. Queries span shards through per-shard sub-banks
/// (an arena-routed FilterBank over all S arenas). The query side — slots,
/// lifecycle, delivery sinks, audit, spill — is the same QueryHost the
/// serial engine runs (engine/query_host.h), bound to S lockstep arenas,
/// the coordinator's merged value view and its replay clock.
///
/// Execution alternates speculation and replay (DESIGN.md §8):
///
///  1. *Barrier*: query lifecycle events (deploy/retire — all known before
///     Run) execute at epoch boundaries, with every shard quiescent, in the
///     serial engine's order (deploys before retirements, slot order).
///  2. *Speculate* (parallel): each shard advances its own scheduler
///     through the epoch [T, T'), generating its streams' updates into a
///     log and evaluating each against its local SoA strips with the SIMD
///     crossing kernel — under the filter state as of the epoch start.
///  3. *Replay* (serial): the coordinator merges the shard logs in global
///     time order and applies protocol handling for fired columns exactly
///     like the serial engine. Server reactions (probe syncs, constraint
///     deploys) overwrite the touched cell's state wholesale, so the
///     speculation is self-healing: the arena records which cells were
///     touched mid-epoch, and only those columns are re-evaluated scalar
///     for the remainder of the epoch; untouched columns keep their
///     speculated crossing bits, which are exact.
///
/// Replay stays on the coordinator, one protocol reaction at a time in
/// merged order, like the paper's server: fanning the per-query reactions
/// out across threads measured slower at every shard and query count
/// (DESIGN.md §12).
///
/// Because per-stream sources produce identical trajectories under any
/// partition, reactions are ordered identically, and touched-cell replay
/// reproduces the serial crossing decisions, the run's observable results
/// (all per-query stats, message counts, answer-size moments, oracle
/// verdicts) are byte-identical to SimulationCore for any shard count —
/// tests/sharded_core_test.cc locks this across every protocol and a churn
/// schedule. The one documented divergence: at *exactly* equal timestamps
/// the merge orders periodic oracle samples before stream updates and
/// cross-shard ties by stream id, where the serial scheduler uses FIFO
/// seniority; continuous-time workloads cannot produce such ties.

namespace asf {

/// The sharded counterpart of SimulationCore. Same deployment surface and
/// result accessors; Run() drives the epoch pipeline instead of a single
/// scheduler loop.
class ShardedSimulationCore {
 public:
  /// Speculation epochs per run: the epoch grid step is duration / this.
  /// Lifecycle event times always become additional epoch boundaries.
  static constexpr SimTime kEpochsPerRun = 128;

  /// `options.source` must be a partitionable walk/trace (custom sources
  /// cannot be sharded); `options.shards` (>= 1) workers run it — 1
  /// exercises the full epoch machinery on a single shard.
  explicit ShardedSimulationCore(const RunOptions& options);
  ShardedSimulationCore(const ShardedSimulationCore&) = delete;
  ShardedSimulationCore& operator=(const ShardedSimulationCore&) = delete;
  ~ShardedSimulationCore();

  /// Same contracts as the SimulationCore methods of the same names.
  std::size_t AddQuery(const QueryDeployment& deployment) {
    return host_.AddQuery(deployment);
  }
  std::size_t DeployQuery(const QueryDeployment& deployment, SimTime at) {
    return host_.DeployQuery(deployment, at);
  }
  void RetireQuery(std::size_t slot, SimTime at) {
    host_.RetireQuery(slot, at);
  }
  void Run();

  std::size_t num_queries() const { return host_.num_queries(); }
  const QueryRunStats& query_stats(std::size_t i) const {
    return host_.query_stats(i);
  }
  /// Same contract as SimulationCore::totals; replay_seconds is the wall
  /// time spent in the replay stage (merge, reactions, delivery drains) —
  /// the serial fraction the Amdahl curve is gated by — and the dispatch
  /// accounting is summed over all shard arenas.
  RunTotals totals() const {
    RunTotals totals = host_.totals();
    totals.pinned = pinned_;
    return totals;
  }

 private:
  /// One stream shard: its slice of the sources, its own event loop, and
  /// the SoA filter strips of its local streams (row = stream id / S).
  struct Shard {
    std::unique_ptr<StreamSet> streams;
    Scheduler scheduler;
    FilterArena& arena;  ///< the host's arena s
    /// Epoch log: this shard's updates, in shard-local dispatch order
    /// (time-sorted; same-stream updates keep their order).
    struct Update {
      SimTime time;
      StreamId id;  ///< global stream id
      Value value;
      /// This update's speculated fired columns: `fired_count` entries
      /// starting at `fired` offset `fired_begin` (none while no query is
      /// live). Lists, not dense masks, so speculation and replay both
      /// stay output-sensitive under the index dispatch policy — a
      /// 256k-column population with two crossings logs two entries, not
      /// 4k mask words (DESIGN.md §10).
      std::uint32_t fired_begin = 0;
      std::uint32_t fired_count = 0;
    };
    std::vector<Update> log;
    /// Shared pool of the epoch's speculated fired columns (ascending
    /// within each update's slice).
    std::vector<std::uint32_t> fired;
    std::vector<std::uint32_t> fired_scratch;  ///< per-dispatch reuse
    std::size_t cursor = 0;  ///< replay position in log

    Shard(std::unique_ptr<StreamSet> s, FilterArena& a)
        : streams(std::move(s)), arena(a) {}
  };

  /// Replays one logged update through filters and protocols, exactly the
  /// serial engine's update handler under the merge ordering.
  void ReplayUpdate(Shard& shard, const Shard::Update& update);

  /// Best-effort affinity pin of the calling thread (Linux only).
  static bool PinThreadToCore(std::size_t core);

  /// Runs pending coordinator events (periodic oracle samples, network
  /// deliveries) in time order — FIFO at exact ties — up to and
  /// including `limit` but strictly before `to`.
  void DrainDeliveries(SimTime limit, SimTime to);

  /// Merges and replays every update of the epoch that just speculated,
  /// interleaving coordinator events before `to`.
  void ReplayEpoch(SimTime to);

  /// Runs shard generation from the epoch start to `to` on the worker
  /// pool (to == horizon runs events at the horizon itself, the final
  /// flush).
  void SpeculateEpoch(SimTime to);

  void WorkerLoop(std::size_t shard_index);

  const std::chrono::steady_clock::time_point wall_start_;
  RunOptions options_;
  /// The coordinator's authoritative view of every stream's current value,
  /// advanced in merge order during replay — exactly the serial engine's
  /// StreamSet values. Probes and the oracle read this.
  std::vector<Value> values_;
  /// The coordinator's event queue: delayed deliveries and the periodic
  /// oracle sample. It survives epoch barriers — the replay loop drains it
  /// in merged time order, FIFO at exact ties (DESIGN.md §9).
  Scheduler net_scheduler_;
  /// Coordinator's current replay time: what server→source sends are
  /// stamped with (barrier, replayed update, or delivery instant).
  SimTime coord_now_ = 0;
  /// The query side, on S lockstep arenas; writes trace ring S (shard
  /// worker s writes ring s).
  engine_internal::QueryHost host_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t epoch_live_ = 0;  ///< live columns during this epoch
  /// Scratch: arena columns fired by the update being replayed.
  std::vector<std::uint32_t> fired_columns_;

  // Worker pool: one persistent thread per shard, released epoch by epoch.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_seq_ = 0;
  std::size_t workers_done_ = 0;
  SimTime speculate_to_ = 0;
  bool final_flush_ = false;
  bool shutdown_ = false;
  bool pinned_ = false;

  /// Scratch: fired subset of the touched columns in the update being
  /// replayed (ascending; see FilterArena::EvaluateTouched).
  std::vector<std::uint32_t> touched_fired_;
};

}  // namespace asf

#endif  // ASF_ENGINE_SHARDED_CORE_H_
