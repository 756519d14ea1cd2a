#ifndef ASF_ENGINE_RUN_RESULT_H_
#define ASF_ENGINE_RUN_RESULT_H_

#include <cstdint>
#include <string>

#include "common/stats.h"
#include "common/types.h"
#include "engine/spill_config.h"
#include "filter/dispatch.h"
#include "net/message_stats.h"
#include "net/network_model.h"

/// \file
/// Everything a simulated run reports back: one QueryRunStats per deployed
/// query plus the run-level RunTotals.

namespace asf {

/// Outcome of one deployed query, accumulated inside its live window.
struct QueryRunStats {
  std::string name;
  /// Per-type, per-phase logical messages attributed to this query.
  /// `messages.MaintenanceTotal()` is the paper's headline metric.
  MessageStats messages;
  /// Updates that crossed a filter and reached the server.
  std::uint64_t updates_reported = 0;
  /// Full protocol re-initializations after query start.
  std::uint64_t reinits = 0;

  /// Streams holding the silent [−∞,∞] / [∞,∞] filters right after
  /// initialization — the sources that are completely shut down (the
  /// paper's sensor-battery saving, §5.1.1).
  std::size_t fp_filters_installed = 0;
  std::size_t fn_filters_installed = 0;

  /// Distribution of |A(t)| sampled after every generated update.
  OnlineStats answer_size;

  // --- Oracle observations (all zero when the oracle is off) ---
  std::uint64_t oracle_checks = 0;
  std::uint64_t oracle_violations = 0;
  double max_f_plus = 0.0;        ///< worst observed F+(t)
  double max_f_minus = 0.0;       ///< worst observed F−(t)
  std::size_t max_worst_rank = 0; ///< worst observed max-rank over A(t)

  // --- Delivery observations (DESIGN.md §9; all trivial under the
  // default instant model) ---
  /// Violations the oracle observed while at least one update payload for
  /// this query was still in transit — the share of errors attributable
  /// to delivery delay rather than filter slack. Always a subset of
  /// oracle_violations; zero under instant delivery.
  std::uint64_t oracle_violations_in_flight = 0;
  /// Staleness of this query's delivered updates (delivery time minus
  /// crossing time, one sample each). Empty under instant delivery.
  OnlineStats update_delay;

  /// The live window [deployed_at, retired_at]: Initialization ran at
  /// deployed_at; retired_at is the retire event's time, or the run
  /// horizon for queries that never retired.
  SimTime deployed_at = 0;
  SimTime retired_at = 0;
};

/// Run-level outcome, whatever the queries.
struct RunTotals {
  /// Value changes generated while at least one query was live.
  std::uint64_t updates_generated = 0;
  /// Update messages actually transmitted: a value change that crossed
  /// the filters of several queries at once costs one physical message
  /// (each affected query still accounts a logical update).
  std::uint64_t physical_updates = 0;
  /// Highest number of simultaneously live queries during the run.
  std::size_t peak_live_queries = 0;

  /// Network delivery accounting (wire messages, coalescing, drops;
  /// DESIGN.md §9).
  NetStats net;

  /// The dispatch policy the engine actually executed (after the
  /// ASF_DISPATCH resolution) and its path accounting (DESIGN.md §10).
  /// Purely performance telemetry: the results are byte-identical under
  /// every policy.
  DispatchPolicy dispatch_policy = DispatchPolicy::kScan;
  DispatchStats dispatch;

  /// Host wall-clock seconds consumed by the run.
  double wall_seconds = 0.0;
  /// Sharded runs: wall seconds spent in the replay stage (the serial
  /// fraction of the Amdahl curve) and whether thread pinning took
  /// effect. Serial runs: 0 / false.
  double replay_seconds = 0.0;
  bool pinned = false;

  /// Out-of-core spill accounting (DESIGN.md §13); all zero when
  /// spilling is off. Telemetry only — results are byte-identical with
  /// and without spilling.
  SpillTelemetry spill;
};

/// Outcome of a single-query run (RunSystem): the query's stats plus the
/// run totals.
struct RunResult : QueryRunStats, RunTotals {
  /// The paper's metric.
  std::uint64_t MaintenanceMessages() const {
    return messages.MaintenanceTotal();
  }

  /// One-line summary for harness logs.
  std::string ToString() const;
};

}  // namespace asf

#endif  // ASF_ENGINE_RUN_RESULT_H_
