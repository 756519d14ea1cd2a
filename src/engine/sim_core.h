#ifndef ASF_ENGINE_SIM_CORE_H_
#define ASF_ENGINE_SIM_CORE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "engine/config.h"
#include "engine/run_result.h"
#include "engine/spill_config.h"
#include "filter/filter_arena.h"
#include "filter/filter_bank.h"
#include "net/message_stats.h"
#include "net/network_model.h"
#include "protocol/protocol.h"
#include "protocol/server_context.h"
#include "sim/scheduler.h"
#include "stream/stream_set.h"

/// \file
/// The serial simulation engine behind RunMultiQuerySystem (and so behind
/// RunSystem, its one-deployment case).
///
/// SimulationCore owns everything a run needs regardless of how many
/// queries are deployed: stream construction (walk / trace / custom), the
/// scheduler drive loop and the per-update dispatch. The query side — one
/// filter bank + server context + protocol instance per query, the
/// transport closures, the lifecycle, delivery and correctness-oracle
/// hooks — is the query host (engine/query_host.h), which the sharded
/// engine runs too.
///
/// Queries are a *dynamic population*: each one is deployed at a scheduled
/// simulation time, runs under its tolerance protocol, and may retire
/// before the horizon (DeployQuery / RetireQuery). The static batch case —
/// AddQuery for every query, all installed at options.query_start, none
/// retired — is simply the degenerate schedule, and produces results
/// identical to an engine without the lifecycle machinery
/// (tests/sim_core_test.cc locks this in).
///
/// Engine features added here — oracle sampling, phase accounting,
/// warm-up, re-init bookkeeping — are therefore available to every run,
/// single- or multi-query, automatically.

namespace asf {

namespace engine_internal {
class QueryHost;        // engine/query_host.h
struct LifecycleEvent;  // engine/query_host.h
}  // namespace engine_internal

/// Seed of query slot `index`'s protocol RNG, derived from the run seed
/// (golden-ratio decorrelation). One definition shared by every engine so
/// a query's protocol randomness is identical no matter which engine —
/// serial or sharded — executes the deployment.
inline std::uint64_t QuerySlotSeed(std::uint64_t run_seed,
                                   std::size_t index) {
  return run_seed ^ (0x9e3779b97f4a7c15ULL + index);
}

/// The shared engine runtime. Usage:
///
/// \code
///   SimulationCore core(options);           // builds the streams
///   core.AddQuery(deployment);              // static: live whole run
///   core.DeployQuery(deployment, t1);       // dynamic: arrives at t1...
///   core.RetireQuery(slot, t2);             // ...and leaves at t2
///   core.Run();                             // drives the scheduler
///   core.query_stats(0);                    // per-query outcomes
/// \endcode
///
/// Inputs must already be validated (MultiQueryConfig::Validate); the
/// core checks invariants with ASF_CHECK only.
class SimulationCore {
 public:
  /// The query-independent run configuration; shards and pin_threads
  /// are the sharded engine's and ignored here.
  using Options = RunOptions;

  explicit SimulationCore(const Options& options);
  SimulationCore(const SimulationCore&) = delete;
  SimulationCore& operator=(const SimulationCore&) = delete;
  ~SimulationCore();

  /// Registers one query: its own server context, protocol RNG (derived
  /// deterministically from the run seed and the slot index) and protocol
  /// instance. Deployment and retirement run as scheduler events at the
  /// times carried by `deployment` (start < 0 resolves to
  /// options.query_start; end == kNeverRetire means no retirement), so the
  /// default deployment reproduces the classic static batch. Must be
  /// called before Run(). Returns the query's slot index.
  std::size_t AddQuery(const QueryDeployment& deployment);

  /// As AddQuery, but deploys at the explicit time `at` (must lie in
  /// [0, options.duration)), overriding deployment.start.
  std::size_t DeployQuery(const QueryDeployment& deployment, SimTime at);

  /// Schedules (or reschedules) the retirement of `slot` at time `at`,
  /// which must be later than its deploy time. At that simulated time the
  /// query's filters are uninstalled — one pass-through kFilterDeploy per
  /// stream, charged under the protocol's termination semantics — its
  /// arena column is released (the filter strip compacts), and it stops
  /// being served and judged. A time at or beyond options.duration means
  /// the query lives to the horizon (no uninstall is charged; the run is
  /// over). Must be called before Run().
  void RetireQuery(std::size_t slot, SimTime at);

  /// Drives the simulation to options.duration. Call exactly once, after
  /// every AddQuery/DeployQuery/RetireQuery.
  void Run();

  std::size_t num_queries() const;

  /// Outcome of query slot `i`; valid after Run(). With spilling enabled
  /// a retired slot's record is read back from the spill log on first
  /// access (and stays resident afterwards).
  const QueryRunStats& query_stats(std::size_t i) const;

  /// Out-of-core spill accounting; all zero when options.spill is off.
  SpillTelemetry spill_telemetry() const;

  /// The run-level outcome; valid after Run(). Call after reading the
  /// query stats, so its spill telemetry counts their faults.
  RunTotals totals() const;

  /// Single figures of totals(), for callers that read one.
  std::uint64_t updates_generated() const;
  std::uint64_t physical_updates() const;
  std::size_t peak_live_queries() const;
  const NetStats& net_stats() const;
  DispatchStats dispatch_stats() const;
  double wall_seconds() const;

 private:
  /// Materializes the next batch of lifecycle events; the batch's last
  /// event re-invokes the feeder. Byte-identical to scheduling everything
  /// upfront because the seqs were reserved upfront.
  void ScheduleLifecycleBatch();

  /// Scheduler entries the feeder keeps in flight at once. Small enough
  /// that pending lifecycle events never dominate memory under long
  /// churn schedules, large enough that refills are rare.
  static constexpr std::size_t kLifecycleBatch = 1024;

  const std::chrono::steady_clock::time_point wall_start_;
  Options options_;
  std::unique_ptr<StreamSet> owned_streams_;
  StreamSet* streams_ = nullptr;  // owned_streams_.get() or borrowed custom
  Scheduler scheduler_;
  /// The query slots, their arena and delivery model, read against the
  /// streams' values at the scheduler's clock.
  std::unique_ptr<engine_internal::QueryHost> host_;
  /// The host's one arena, which the update handler dispatches on.
  FilterArena* arena_ = nullptr;
  /// Scratch: fired columns of the current dispatch.
  std::vector<std::uint32_t> fired_columns_;
  /// The sorted lifecycle feed and its next-unscheduled cursor; drained
  /// (and freed) as batches materialize.
  std::vector<engine_internal::LifecycleEvent> lifecycle_;
  std::size_t lifecycle_cursor_ = 0;
};

}  // namespace asf

#endif  // ASF_ENGINE_SIM_CORE_H_
