#include "engine/spill.h"

#include <cstdio>

#include "common/check.h"
#include "net/message.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "storage/serde.h"

namespace asf {

Status SpillConfig::Validate() const {
  if (!enabled()) return Status::OK();
  // Probe that the directory exists and is writable now, so the engine
  // can treat spiller construction as infallible.
  const std::string probe = dir + "/.asf-spill-probe";
  std::FILE* f = std::fopen(probe.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument("--spill dir is not writable: " + dir);
  }
  std::fclose(f);
  std::remove(probe.c_str());
  return Status::OK();
}

namespace engine_internal {

std::vector<std::uint8_t> EncodeQueryRecord(const QueryRunStats& stats) {
  storage::ByteWriter w;
  w.Str(stats.name);
  for (int phase = 0; phase < kNumMessagePhases; ++phase) {
    for (int type = 0; type < kNumMessageTypes; ++type) {
      w.U64(stats.messages.count(static_cast<MessagePhase>(phase),
                                 static_cast<MessageType>(type)));
    }
  }
  w.U8(static_cast<std::uint8_t>(stats.messages.phase()));
  w.U64(stats.updates_reported);
  w.U64(stats.reinits);
  w.U64(stats.fp_filters_installed);
  w.U64(stats.fn_filters_installed);
  const auto WriteOnline = [&w](const OnlineStats& s) {
    const OnlineStats::Raw raw = s.ToRaw();
    w.U64(raw.count);
    w.F64(raw.mean);
    w.F64(raw.m2);
    w.F64(raw.min);
    w.F64(raw.max);
    w.F64(raw.sum);
  };
  WriteOnline(stats.answer_size);
  w.U64(stats.oracle_checks);
  w.U64(stats.oracle_violations);
  w.F64(stats.max_f_plus);
  w.F64(stats.max_f_minus);
  w.U64(stats.max_worst_rank);
  w.U64(stats.oracle_violations_in_flight);
  WriteOnline(stats.update_delay);
  w.F64(stats.deployed_at);
  w.F64(stats.retired_at);
  return w.Take();
}

QueryRunStats DecodeQueryRecord(const std::vector<std::uint8_t>& bytes) {
  storage::ByteReader r(bytes);
  QueryRunStats stats;
  stats.name = r.Str();
  for (int phase = 0; phase < kNumMessagePhases; ++phase) {
    stats.messages.set_phase(static_cast<MessagePhase>(phase));
    for (int type = 0; type < kNumMessageTypes; ++type) {
      stats.messages.Count(static_cast<MessageType>(type), r.U64());
    }
  }
  stats.messages.set_phase(static_cast<MessagePhase>(r.U8()));
  stats.updates_reported = r.U64();
  stats.reinits = r.U64();
  stats.fp_filters_installed = r.U64();
  stats.fn_filters_installed = r.U64();
  const auto ReadOnline = [&r] {
    OnlineStats::Raw raw;
    raw.count = r.U64();
    raw.mean = r.F64();
    raw.m2 = r.F64();
    raw.min = r.F64();
    raw.max = r.F64();
    raw.sum = r.F64();
    return OnlineStats::FromRaw(raw);
  };
  stats.answer_size = ReadOnline();
  stats.oracle_checks = r.U64();
  stats.oracle_violations = r.U64();
  stats.max_f_plus = r.F64();
  stats.max_f_minus = r.F64();
  stats.max_worst_rank = r.U64();
  stats.oracle_violations_in_flight = r.U64();
  stats.update_delay = ReadOnline();
  stats.deployed_at = r.F64();
  stats.retired_at = r.F64();
  ASF_CHECK_MSG(r.Done(), "spilled query record has trailing bytes");
  return stats;
}

std::unique_ptr<QueryStateSpiller> QueryStateSpiller::Create(
    const SpillConfig& config) {
  ASF_CHECK_MSG(config.enabled(), "spiller created with spilling disabled");
  return std::unique_ptr<QueryStateSpiller>(new QueryStateSpiller(config));
}

storage::RecordRef QueryStateSpiller::Spill(const QueryRunStats& stats) {
  obs::ScopedPhase phase(obs_profiler_, obs::Phase::kSpillIo);
  const std::vector<std::uint8_t> bytes = EncodeQueryRecord(stats);
  const storage::RecordRef ref = log_.Append(bytes);
  ++records_spilled_;
  spilled_bytes_ += bytes.size();
  ASF_TRACE_EVENT(obs_tracer_, obs_ring_, obs::TraceEventType::kSpillEvict,
                  obs_clock_ != nullptr ? *obs_clock_ : 0.0,
                  static_cast<std::uint32_t>(records_spilled_), 0,
                  bytes.size());
  return ref;
}

QueryRunStats QueryStateSpiller::Fault(const storage::RecordRef& ref) {
  obs::ScopedPhase phase(obs_profiler_, obs::Phase::kSpillIo);
  const std::vector<std::uint8_t> bytes = log_.Read(ref);
  ++records_faulted_;
  faulted_bytes_ += bytes.size();
  ASF_TRACE_EVENT(obs_tracer_, obs_ring_, obs::TraceEventType::kSpillFault,
                  obs_clock_ != nullptr ? *obs_clock_ : 0.0,
                  static_cast<std::uint32_t>(records_faulted_), 0,
                  bytes.size());
  return DecodeQueryRecord(bytes);
}

SpillTelemetry QueryStateSpiller::Telemetry() const {
  SpillTelemetry t;
  t.enabled = true;
  t.records_spilled = records_spilled_;
  t.records_faulted = records_faulted_;
  t.spilled_bytes = spilled_bytes_;
  t.faulted_bytes = faulted_bytes_;
  t.pool_resident_bytes = storage::SpillLog::kBufferBytes;
  t.file_bytes = log_.size();
  return t;
}

}  // namespace engine_internal
}  // namespace asf
