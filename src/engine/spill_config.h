#ifndef ASF_ENGINE_SPILL_CONFIG_H_
#define ASF_ENGINE_SPILL_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/status.h"

/// \file
/// Configuration and telemetry of the out-of-core query-state spill path
/// (DESIGN.md §13). Kept free of engine dependencies so RunOptions and
/// RunTotals can embed it; the machinery itself lives in engine/spill.h.

namespace asf {

/// Where retired-query state spills to disk. Disabled (the default)
/// keeps everything in RAM — byte-identical results either way; spilling
/// only changes where closed books are stored.
struct SpillConfig {
  /// Scratch directory for the spill log; empty = spilling disabled.
  std::string dir;

  bool enabled() const { return !dir.empty(); }

  Status Validate() const;
};

/// Spill-path accounting a run reports (all zero when spilling is off).
struct SpillTelemetry {
  bool enabled = false;
  std::uint64_t records_spilled = 0;  ///< retired slots written to the log
  std::uint64_t records_faulted = 0;  ///< records read back on demand
  std::uint64_t spilled_bytes = 0;    ///< serialized payload bytes written
  std::uint64_t faulted_bytes = 0;    ///< serialized payload bytes read

  /// RAM the spill path holds for cold state: the spill log's write-buffer
  /// capacity (storage::SpillLog::kBufferBytes) — a fixed ceiling,
  /// however many records spill.
  std::uint64_t pool_resident_bytes = 0;
  /// Length of the spill log. Records are packed back to back, so this
  /// equals spilled_bytes.
  std::uint64_t file_bytes = 0;
};

}  // namespace asf

#endif  // ASF_ENGINE_SPILL_CONFIG_H_
