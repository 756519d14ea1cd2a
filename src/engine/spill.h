#ifndef ASF_ENGINE_SPILL_H_
#define ASF_ENGINE_SPILL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/sim_core.h"
#include "engine/spill_config.h"
#include "storage/spill_log.h"

/// \file
/// Out-of-core retired-query state (DESIGN.md §13). When a query retires
/// its books are closed — the window record and final QueryRunStats
/// (including the answer-size and update-delay accumulators, the run's
/// per-query trace) never change again. With spilling enabled the engine
/// appends that cold record to an unlinked scratch log, drops the
/// in-memory copies, and reads the record back only when someone asks
/// (result assembly, the churn table) — each record is written once and
/// read once, so the log needs no cache. The FilterArena and every live
/// slot stay 100% hot: only closed books ever touch disk, which is the
/// whole determinism argument — a spilled run and an in-memory run
/// execute the exact same events and differ only in where finished
/// numbers are parked. Internal to src/engine.

namespace asf {
namespace engine_internal {

/// Bit-exact QueryRunStats codec (raw IEEE doubles via storage::serde).
/// Decode(Encode(s)) compares equal field-for-field, which is what keeps
/// spilled output byte-identical to in-memory output.
std::vector<std::uint8_t> EncodeQueryRecord(const QueryRunStats& stats);
QueryRunStats DecodeQueryRecord(const std::vector<std::uint8_t>& bytes);

/// One engine's spill endpoint: a SpillLog under config.dir (unlinked at
/// open, so nothing outlives the run) plus the record codec. Created only
/// when SpillConfig::enabled(); the config must already be validated —
/// construction CHECKs.
class QueryStateSpiller {
 public:
  static std::unique_ptr<QueryStateSpiller> Create(const SpillConfig& config);

  QueryStateSpiller(const QueryStateSpiller&) = delete;
  QueryStateSpiller& operator=(const QueryStateSpiller&) = delete;

  /// Serializes `stats` onto the end of the log. I/O failures CHECK — the
  /// scratch dir was validated writable before construction.
  storage::RecordRef Spill(const QueryRunStats& stats);

  /// Reads a spilled record back.
  QueryRunStats Fault(const storage::RecordRef& ref);

  /// Run-level telemetry snapshot (record counts + log size).
  SpillTelemetry Telemetry() const;

  /// Observability attachment (DESIGN.md §14): spill/fault trace events
  /// on ring `ring` stamped with `*clock`, and kSpillIo profiler scopes
  /// around the log I/O. All-null (the default) = off. The clock is
  /// read-only — tracing never schedules anything.
  void set_obs(obs::Tracer* tracer, std::uint16_t ring,
               obs::Profiler* profiler, const SimTime* clock) {
    obs_tracer_ = tracer;
    obs_ring_ = ring;
    obs_profiler_ = profiler;
    obs_clock_ = clock;
  }

 private:
  explicit QueryStateSpiller(const SpillConfig& config) : log_(config.dir) {}

  storage::SpillLog log_;
  std::uint64_t records_spilled_ = 0;
  std::uint64_t records_faulted_ = 0;
  std::uint64_t spilled_bytes_ = 0;
  std::uint64_t faulted_bytes_ = 0;

  obs::Tracer* obs_tracer_ = nullptr;
  std::uint16_t obs_ring_ = 0;
  obs::Profiler* obs_profiler_ = nullptr;
  const SimTime* obs_clock_ = nullptr;
};

}  // namespace engine_internal
}  // namespace asf

#endif  // ASF_ENGINE_SPILL_H_
