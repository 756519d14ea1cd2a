#include "engine/spill.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/churn.h"
#include "engine/multi_system.h"
#include "engine/system.h"

// Out-of-core query state (DESIGN.md §13): the spilled-record codec must
// be bit-exact, and a run that spills retired state to the spill log must
// produce results identical to the all-in-RAM run, serial and sharded —
// the log only changes where closed books are parked.

namespace asf {
namespace {

std::string SpillDir() {
  return ::testing::TempDir();  // scratch files are removed by the spiller
}

// --- SpillConfig validation ---

TEST(SpillConfigTest, DisabledByDefault) {
  SpillConfig config;
  EXPECT_FALSE(config.enabled());
  EXPECT_TRUE(config.Validate().ok());
}

TEST(SpillConfigTest, RejectsUnwritableDir) {
  SpillConfig config;
  config.dir = "/nonexistent-asf-spill-dir/deeper";
  EXPECT_FALSE(config.Validate().ok());
}

TEST(SpillConfigTest, AcceptsWritableDir) {
  SpillConfig config;
  config.dir = SpillDir();
  EXPECT_TRUE(config.Validate().ok());
}

// --- Codec ---

QueryRunStats SampleStats() {
  QueryRunStats stats;
  stats.name = "codec-query";
  stats.messages.set_phase(MessagePhase::kInit);
  stats.messages.Count(MessageType::kFilterDeploy, 7);
  stats.messages.set_phase(MessagePhase::kMaintenance);
  stats.messages.Count(MessageType::kValueUpdate, 1234);
  stats.messages.Count(MessageType::kProbeRequest, 9);
  stats.updates_reported = 512;
  stats.reinits = 3;
  stats.fp_filters_installed = 11;
  stats.fn_filters_installed = 5;
  for (int i = 0; i < 17; ++i) stats.answer_size.Add(0.125 * i - 0.3);
  stats.oracle_checks = 40;
  stats.oracle_violations = 2;
  stats.max_f_plus = 0.21875;       // exact binary fractions round-trip
  stats.max_f_minus = 0.0625;
  stats.max_worst_rank = 6;
  stats.oracle_violations_in_flight = 1;
  for (int i = 0; i < 5; ++i) stats.update_delay.Add(1.5 + 0.25 * i);
  stats.deployed_at = 12.75;
  stats.retired_at = 987.125;
  return stats;
}

void ExpectBitExact(const QueryRunStats& a, const QueryRunStats& b) {
  EXPECT_EQ(a.name, b.name);
  for (int p = 0; p < kNumMessagePhases; ++p) {
    for (int t = 0; t < kNumMessageTypes; ++t) {
      EXPECT_EQ(a.messages.count(static_cast<MessagePhase>(p),
                                 static_cast<MessageType>(t)),
                b.messages.count(static_cast<MessagePhase>(p),
                                 static_cast<MessageType>(t)));
    }
  }
  EXPECT_EQ(a.messages.phase(), b.messages.phase());
  EXPECT_EQ(a.updates_reported, b.updates_reported);
  EXPECT_EQ(a.reinits, b.reinits);
  EXPECT_EQ(a.fp_filters_installed, b.fp_filters_installed);
  EXPECT_EQ(a.fn_filters_installed, b.fn_filters_installed);
  EXPECT_EQ(a.answer_size.count(), b.answer_size.count());
  EXPECT_EQ(a.answer_size.mean(), b.answer_size.mean());
  EXPECT_EQ(a.answer_size.variance(), b.answer_size.variance());
  EXPECT_EQ(a.answer_size.min(), b.answer_size.min());
  EXPECT_EQ(a.answer_size.max(), b.answer_size.max());
  EXPECT_EQ(a.answer_size.sum(), b.answer_size.sum());
  EXPECT_EQ(a.oracle_checks, b.oracle_checks);
  EXPECT_EQ(a.oracle_violations, b.oracle_violations);
  EXPECT_EQ(a.max_f_plus, b.max_f_plus);
  EXPECT_EQ(a.max_f_minus, b.max_f_minus);
  EXPECT_EQ(a.max_worst_rank, b.max_worst_rank);
  EXPECT_EQ(a.oracle_violations_in_flight, b.oracle_violations_in_flight);
  EXPECT_EQ(a.update_delay.count(), b.update_delay.count());
  EXPECT_EQ(a.update_delay.mean(), b.update_delay.mean());
  EXPECT_EQ(a.update_delay.variance(), b.update_delay.variance());
  EXPECT_EQ(a.deployed_at, b.deployed_at);
  EXPECT_EQ(a.retired_at, b.retired_at);
}

TEST(SpillCodecTest, RoundTripIsBitExact) {
  const QueryRunStats stats = SampleStats();
  const auto bytes = engine_internal::EncodeQueryRecord(stats);
  EXPECT_FALSE(bytes.empty());
  ExpectBitExact(stats, engine_internal::DecodeQueryRecord(bytes));
}

TEST(SpillCodecTest, DefaultStatsRoundTrip) {
  const QueryRunStats stats;
  ExpectBitExact(stats, engine_internal::DecodeQueryRecord(
                            engine_internal::EncodeQueryRecord(stats)));
}

// --- Spiller over a real spill log ---

TEST(SpillerTest, SpillAndFaultManyRecords) {
  SpillConfig config;
  config.dir = SpillDir();
  ASSERT_TRUE(config.Validate().ok());
  auto spiller = engine_internal::QueryStateSpiller::Create(config);

  // Enough records to overflow the log's write buffer several times, so
  // the faults below read both flushed and still-buffered records.
  constexpr int kRecords = 600;
  std::vector<storage::RecordRef> refs;
  std::vector<QueryRunStats> originals;
  for (int i = 0; i < kRecords; ++i) {
    QueryRunStats stats = SampleStats();
    stats.name = std::string("q").append(std::to_string(i));
    stats.updates_reported = 1000 + i;
    stats.deployed_at = i * 1.5;
    originals.push_back(stats);
    refs.push_back(spiller->Spill(stats));
    EXPECT_TRUE(refs.back().valid());
  }
  for (std::size_t i = 0; i < refs.size(); ++i) {
    ExpectBitExact(originals[i], spiller->Fault(refs[i]));
  }
  const SpillTelemetry telemetry = spiller->Telemetry();
  EXPECT_TRUE(telemetry.enabled);
  EXPECT_EQ(telemetry.records_spilled, std::uint64_t{kRecords});
  EXPECT_EQ(telemetry.records_faulted, std::uint64_t{kRecords});
  EXPECT_EQ(telemetry.spilled_bytes, telemetry.faulted_bytes);
  EXPECT_GT(telemetry.spilled_bytes, storage::SpillLog::kBufferBytes);
  // No padding: the log holds exactly the payload bytes.
  EXPECT_EQ(telemetry.file_bytes, telemetry.spilled_bytes);
  EXPECT_EQ(telemetry.pool_resident_bytes, storage::SpillLog::kBufferBytes);
}

// --- Whole-run equivalence: spill vs in-memory, byte-identical ---

void ExpectSameStats(const MultiQueryResult::PerQuery& a,
                     const MultiQueryResult::PerQuery& b) {
  EXPECT_EQ(a.name, b.name);
  for (int p = 0; p < kNumMessagePhases; ++p) {
    for (int t = 0; t < kNumMessageTypes; ++t) {
      EXPECT_EQ(a.messages.count(static_cast<MessagePhase>(p),
                                 static_cast<MessageType>(t)),
                b.messages.count(static_cast<MessagePhase>(p),
                                 static_cast<MessageType>(t)));
    }
  }
  EXPECT_EQ(a.updates_reported, b.updates_reported);
  EXPECT_EQ(a.reinits, b.reinits);
  EXPECT_EQ(a.answer_size.count(), b.answer_size.count());
  EXPECT_EQ(a.answer_size.mean(), b.answer_size.mean());
  EXPECT_EQ(a.answer_size.variance(), b.answer_size.variance());
  EXPECT_EQ(a.oracle_checks, b.oracle_checks);
  EXPECT_EQ(a.oracle_violations, b.oracle_violations);
  EXPECT_EQ(a.max_f_plus, b.max_f_plus);
  EXPECT_EQ(a.max_f_minus, b.max_f_minus);
  EXPECT_EQ(a.deployed_at, b.deployed_at);
  EXPECT_EQ(a.retired_at, b.retired_at);
}

void ExpectSameResult(const MultiQueryResult& a, const MultiQueryResult& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    ExpectSameStats(a.queries[i], b.queries[i]);
  }
  EXPECT_EQ(a.updates_generated, b.updates_generated);
  EXPECT_EQ(a.physical_updates, b.physical_updates);
  EXPECT_EQ(a.peak_live_queries, b.peak_live_queries);
}

MultiQueryConfig ChurnConfig() {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 80;
  walk.seed = 31;
  config.source = SourceSpec::Walk(walk);
  config.duration = 900;
  config.seed = 31;
  config.oracle.sample_interval = 120;

  ChurnSpec spec;
  // Enough retired queries to overflow the spill log's write buffer, so
  // result assembly reads records back from the file and the buffer.
  spec.arrival_rate = 0.3;
  spec.mean_lifetime = 60;
  spec.seed = 44;
  auto queries = ExpandChurn(spec, config.duration);
  EXPECT_TRUE(queries.ok());
  config.queries = std::move(queries).value();
  return config;
}

TEST(SpillEquivalenceTest, ChurnAcrossShards) {
  const MultiQueryConfig base = ChurnConfig();
  auto in_memory = RunMultiQuerySystem(base);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  EXPECT_FALSE(in_memory->spill.enabled);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    MultiQueryConfig config = base;
    config.spill.dir = SpillDir();
    config.shards = shards;
    auto spilled = RunMultiQuerySystem(config);
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    ExpectSameResult(*in_memory, *spilled,
                     "shards=" + std::to_string(shards));
    EXPECT_TRUE(spilled->spill.enabled);
    EXPECT_GT(spilled->spill.records_spilled, 0u);
    // Everything the result table shows was faulted back.
    EXPECT_EQ(spilled->spill.records_faulted,
              spilled->spill.records_spilled);
    EXPECT_EQ(spilled->spill.file_bytes, spilled->spill.spilled_bytes);
    EXPECT_GT(spilled->spill.spilled_bytes, storage::SpillLog::kBufferBytes);
  }
}

void ExpectSameRun(const RunResult& a, const RunResult& b,
                   const std::string& label) {
  SCOPED_TRACE(label);
  for (int p = 0; p < kNumMessagePhases; ++p) {
    for (int t = 0; t < kNumMessageTypes; ++t) {
      EXPECT_EQ(a.messages.count(static_cast<MessagePhase>(p),
                                 static_cast<MessageType>(t)),
                b.messages.count(static_cast<MessagePhase>(p),
                                 static_cast<MessageType>(t)));
    }
  }
  EXPECT_EQ(a.updates_generated, b.updates_generated);
  EXPECT_EQ(a.updates_reported, b.updates_reported);
  EXPECT_EQ(a.reinits, b.reinits);
  EXPECT_EQ(a.fp_filters_installed, b.fp_filters_installed);
  EXPECT_EQ(a.fn_filters_installed, b.fn_filters_installed);
  EXPECT_EQ(a.answer_size.count(), b.answer_size.count());
  EXPECT_EQ(a.answer_size.mean(), b.answer_size.mean());
  EXPECT_EQ(a.answer_size.variance(), b.answer_size.variance());
  EXPECT_EQ(a.oracle_checks, b.oracle_checks);
  EXPECT_EQ(a.oracle_violations, b.oracle_violations);
  EXPECT_EQ(a.max_f_plus, b.max_f_plus);
  EXPECT_EQ(a.max_f_minus, b.max_f_minus);
}

// A static query is live until the horizon, so it never leaves the hot
// set: only *retired* queries spill. The run must still accept (and
// validate) the spill configuration and print the same results, for the
// NRP protocols, serial and sharded.
TEST(SpillEquivalenceTest, StaticQueryAcrossProtocolsAndShards) {
  for (const ProtocolKind protocol :
       {ProtocolKind::kZtNrp, ProtocolKind::kFtNrp}) {
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
      SystemConfig config;
      RandomWalkConfig walk;
      walk.num_streams = 500;
      config.source = SourceSpec::Walk(walk);
      config.duration = 900;
      config.query = QuerySpec::Range(400, 600);
      config.protocol = protocol;
      config.fraction = {0.2, 0.2};
      config.oracle.sample_interval = 120;
      config.shards = shards;

      auto in_memory = RunSystem(config);
      ASSERT_TRUE(in_memory.ok());
      config.spill.dir = SpillDir();
      auto spilled = RunSystem(config);
      ASSERT_TRUE(spilled.ok());

      ExpectSameRun(*in_memory, *spilled,
                    std::string(ProtocolKindName(protocol)) +
                        " shards=" + std::to_string(shards));
      EXPECT_TRUE(spilled->spill.enabled);
      EXPECT_EQ(spilled->spill.records_spilled, 0u);
    }
  }
}

}  // namespace
}  // namespace asf
