#include "engine/sharded_core.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/churn.h"
#include "engine/multi_system.h"
#include "net/message.h"
#include "net_counters.h"
#include "query_stats_equal.h"

// Sharded-vs-serial equivalence: ShardedSimulationCore must produce
// byte-identical results to the serial SimulationCore for any shard count,
// across every protocol, with mid-run lifecycle (deploy/retire), periodic
// oracle sampling, and churn schedules. These tests are the contract named
// in DESIGN.md §8.

namespace asf {
namespace {

void ExpectSameNet(const NetStats& a, const NetStats& b) {
  const auto ca = NetCounters(a);
  const auto cb = NetCounters(b);
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].second, cb[i].second) << "net." << ca[i].first;
  }
  ExpectSameMoments(a.delay, b.delay, "net.delay");
  ExpectSameMoments(a.queue_depth, b.queue_depth, "net.queue_depth");
}

void ExpectSameResult(const MultiQueryResult& serial,
                      const MultiQueryResult& sharded,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(serial.queries.size(), sharded.queries.size());
  for (std::size_t i = 0; i < serial.queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    ExpectSameQueryStats(serial.queries[i], sharded.queries[i]);
  }
  EXPECT_EQ(serial.updates_generated, sharded.updates_generated);
  EXPECT_EQ(serial.physical_updates, sharded.physical_updates);
  EXPECT_EQ(serial.peak_live_queries, sharded.peak_live_queries);
  ExpectSameNet(serial.net, sharded.net);
}

/// A mixed three-query deployment of one protocol: one static query, one
/// late arrival, one that retires mid-run — so the equivalence covers
/// lifecycle barriers, not just the static batch.
MultiQueryConfig ProtocolConfig(ProtocolKind protocol) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 90;
  walk.seed = 11;
  config.source = SourceSpec::Walk(walk);
  config.duration = 600;
  config.seed = 23;
  config.oracle.sample_interval = 85;

  const bool rank = protocol == ProtocolKind::kRtp ||
                    protocol == ProtocolKind::kZtRp ||
                    protocol == ProtocolKind::kFtRp;
  for (int i = 0; i < 3; ++i) {
    QueryDeployment dep;
    dep.name = std::string("q").append(std::to_string(i));
    if (rank) {
      dep.query = QuerySpec::Knn(4 + i, 300.0 + 150.0 * i);
    } else {
      dep.query = QuerySpec::Range(250.0 + 100.0 * i, 470.0 + 100.0 * i);
    }
    dep.protocol = protocol;
    dep.rank_r = 2;
    dep.fraction.eps_plus = 0.25;
    dep.fraction.eps_minus = 0.25;
    if (i == 1) dep.start = 123.5;               // late arrival
    if (i == 2) dep.end = 431.25;                // mid-run retirement
    config.queries.push_back(dep);
  }
  return config;
}

/// Drives ShardedSimulationCore directly (the public entry point routes
/// shards == 1 to the serial engine, and the epoch machinery must hold for
/// one shard too).
MultiQueryResult RunShardedDirect(const MultiQueryConfig& config,
                                  std::size_t shards) {
  RunOptions options = config;
  options.shards = shards;
  ShardedSimulationCore core(options);
  return RunDeployments(core, config.queries);
}

TEST(ShardedCoreTest, ByteIdenticalToSerialAcrossProtocolsAndShardCounts) {
  const ProtocolKind protocols[] = {
      ProtocolKind::kNoFilter, ProtocolKind::kZtNrp, ProtocolKind::kFtNrp,
      ProtocolKind::kRtp,      ProtocolKind::kZtRp,  ProtocolKind::kFtRp};
  for (ProtocolKind protocol : protocols) {
    MultiQueryConfig config = ProtocolConfig(protocol);
    auto serial = RunMultiQuerySystem(config);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (std::size_t shards : {1u, 2u, 4u}) {
      const MultiQueryResult sharded = RunShardedDirect(config, shards);
      ExpectSameResult(*serial, sharded,
                       std::string(ProtocolKindName(protocol)) + " shards=" +
                           std::to_string(shards));
    }
  }
}

TEST(ShardedCoreTest, ByteIdenticalOnChurnSchedule) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 70;
  walk.seed = 5;
  config.source = SourceSpec::Walk(walk);
  config.duration = 900;
  config.seed = 7;
  config.oracle.sample_interval = 120;

  ChurnSpec spec;
  spec.arrival_rate = 0.05;
  spec.mean_lifetime = 220;
  spec.seed = 31;
  auto deployments = ExpandChurn(spec, config.duration);
  ASSERT_TRUE(deployments.ok());
  config.queries = std::move(deployments).value();
  ASSERT_GE(config.queries.size(), 10u);

  auto serial = RunMultiQuerySystem(config);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (std::size_t shards : {2u, 4u, 8u}) {
    MultiQueryConfig sharded_config = config;
    sharded_config.shards = shards;
    auto sharded = RunMultiQuerySystem(sharded_config);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ExpectSameResult(*serial, *sharded,
                     "churn shards=" + std::to_string(shards));
  }
}

/// One churn population of a single protocol: FT-NRP ranges at ε± 0.2,
/// or RTP k-NN with k = 10, r = 4.
MultiQueryConfig PerUpdateAuditChurn(ProtocolKind protocol) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 200;
  walk.seed = 1;
  config.source = SourceSpec::Walk(walk);
  config.duration = 300;
  config.seed = 1;

  ChurnSpec spec;
  spec.arrival_rate = 0.3;
  spec.mean_lifetime = 60;
  spec.seed = 1;
  ChurnMixEntry entry;
  entry.protocol = protocol;
  if (protocol == ProtocolKind::kRtp) {
    entry.query_type = QuerySpec::Type::kRank;
    entry.k = 10;
    entry.rank_r = 4;
  } else {
    entry.eps_plus = 0.2;
    entry.eps_minus = 0.2;
  }
  spec.mix = {entry};
  auto deployments = ExpandChurn(spec, config.duration);
  EXPECT_TRUE(deployments.ok());
  if (deployments.ok()) config.queries = std::move(deployments).value();
  return config;
}

// Auditing after every update and every delayed arrival re-judges each
// live query at instants the periodic sampler never sees: deliveries that
// land between generated updates, reconnect reconciliation, and audits
// across retirements. The churn inputs cover all three over delayed,
// batched and partitioned nets.
TEST(ShardedCoreTest, ByteIdenticalWithPerUpdateOracle) {
  MultiQueryConfig config = ProtocolConfig(ProtocolKind::kFtNrp);
  config.duration = 200;
  config.oracle.check_every_update = true;
  config.oracle.sample_interval = 0;

  auto serial = RunMultiQuerySystem(config);
  ASSERT_TRUE(serial.ok());
  MultiQueryConfig sharded_config = config;
  sharded_config.shards = 3;
  auto sharded = RunMultiQuerySystem(sharded_config);
  ASSERT_TRUE(sharded.ok());
  ExpectSameResult(*serial, *sharded, "per-update oracle shards=3");

  const char* kNets[] = {"instant", "latency:3:2", "batch:5",
                         "latency:4+loss:0.05:3+partition:50,80,150,160"};
  for (ProtocolKind protocol : {ProtocolKind::kFtNrp, ProtocolKind::kRtp}) {
    for (const char* spec : kNets) {
      const std::string label = "per-update oracle churn " +
                                std::string(ProtocolKindName(protocol)) +
                                " net=" + spec + " shards=3";
      SCOPED_TRACE(label);
      MultiQueryConfig churn = PerUpdateAuditChurn(protocol);
      ASSERT_GE(churn.queries.size(), 50u);
      auto net = ParseNetSpec(spec);
      ASSERT_TRUE(net.ok()) << spec;
      churn.net = *net;
      churn.oracle.check_every_update = true;
      churn.oracle.sample_interval = 0;

      auto churn_serial = RunMultiQuerySystem(churn);
      ASSERT_TRUE(churn_serial.ok()) << churn_serial.status().ToString();
      churn.shards = 3;
      auto churn_sharded = RunMultiQuerySystem(churn);
      ASSERT_TRUE(churn_sharded.ok()) << churn_sharded.status().ToString();
      ExpectSameResult(*churn_serial, *churn_sharded, label);

      // The schedule retires queries mid-run, and the audit judged them.
      std::size_t retired = 0;
      std::uint64_t checks = 0;
      for (const auto& q : churn_serial->queries) {
        if (q.retired_at < churn.duration) ++retired;
        checks += q.oracle_checks;
      }
      EXPECT_GT(retired, 0u);
      EXPECT_GT(checks, churn_serial->updates_generated);
      if (!churn.net.partition.empty()) {
        EXPECT_GT(churn_serial->net.reconcile_exchanges, 0u);
      }
    }
  }
}

TEST(ShardedCoreTest, ByteIdenticalOnTraceSource) {
  // Integer-timed trace records exercise the trace partition path (each
  // shard replays its sub-trace) — stream ids all distinct per timestamp
  // so the merge order is unambiguous.
  TraceData trace;
  trace.num_streams = 12;
  for (int t = 1; t <= 400; ++t) {
    TraceRecord rec;
    rec.time = t;
    rec.stream = static_cast<StreamId>((t * 7) % 12);
    rec.value = 100.0 + ((t * 37) % 900);
    trace.records.push_back(rec);
  }
  MultiQueryConfig config;
  config.source = SourceSpec::Trace(&trace);
  config.duration = 420;
  config.seed = 3;
  QueryDeployment dep;
  dep.name = "q0";
  dep.query = QuerySpec::Range(300, 650);
  dep.protocol = ProtocolKind::kZtNrp;
  config.queries.push_back(dep);

  auto serial = RunMultiQuerySystem(config);
  ASSERT_TRUE(serial.ok());
  MultiQueryConfig sharded_config = config;
  sharded_config.shards = 4;
  auto sharded = RunMultiQuerySystem(sharded_config);
  ASSERT_TRUE(sharded.ok());
  ExpectSameResult(*serial, *sharded, "trace shards=4");
}

// --- Dispatch-policy equivalence (DESIGN.md §10) ---
//
// The scan / index / auto dispatch policies are a pure performance trade:
// every observable result must be byte-identical, serial and sharded, for
// every protocol, under churn, and under delayed (batched) delivery.

TEST(ShardedCoreTest, DispatchPoliciesByteIdenticalAcrossProtocols) {
  const ProtocolKind protocols[] = {
      ProtocolKind::kNoFilter, ProtocolKind::kZtNrp, ProtocolKind::kFtNrp,
      ProtocolKind::kRtp,      ProtocolKind::kZtRp,  ProtocolKind::kFtRp};
  const DispatchPolicy policies[] = {DispatchPolicy::kIndex,
                                     DispatchPolicy::kAuto};
  for (ProtocolKind protocol : protocols) {
    MultiQueryConfig config = ProtocolConfig(protocol);
    config.dispatch = DispatchPolicy::kScan;
    auto scan = RunMultiQuerySystem(config);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    for (DispatchPolicy policy : policies) {
      config.dispatch = policy;
      const std::string label = std::string(ProtocolKindName(protocol)) +
                                " dispatch=" +
                                std::string(DispatchPolicyName(policy));
      config.shards = 1;
      auto serial = RunMultiQuerySystem(config);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      ExpectSameResult(*scan, *serial, label + " serial");
      if (policy == DispatchPolicy::kIndex) {
        // An explicit index config wins outright (no env override) and
        // serves every generated update through the index path.
        EXPECT_EQ(serial->dispatch_policy, DispatchPolicy::kIndex);
        EXPECT_EQ(serial->dispatch.scan_dispatches, 0u);
        EXPECT_EQ(serial->dispatch.index_dispatches,
                  serial->updates_generated);
      }
      for (std::size_t shards : {2u, 4u}) {
        config.shards = shards;
        auto sharded = RunMultiQuerySystem(config);
        ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
        ExpectSameResult(*scan, *sharded,
                         label + " shards=" + std::to_string(shards));
      }
      config.shards = 1;
    }
  }
}

TEST(ShardedCoreTest, IndexDispatchByteIdenticalOnChurnSchedule) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 70;
  walk.seed = 5;
  config.source = SourceSpec::Walk(walk);
  config.duration = 900;
  config.seed = 7;
  config.oracle.sample_interval = 120;

  ChurnSpec spec;
  spec.arrival_rate = 0.05;
  spec.mean_lifetime = 220;
  spec.seed = 31;
  auto deployments = ExpandChurn(spec, config.duration);
  ASSERT_TRUE(deployments.ok());
  config.queries = std::move(deployments).value();

  config.dispatch = DispatchPolicy::kScan;
  auto scan = RunMultiQuerySystem(config);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  config.dispatch = DispatchPolicy::kIndex;
  auto index = RunMultiQuerySystem(config);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ExpectSameResult(*scan, *index, "churn index serial");
  // The churn schedule's acquire/release/deploy mix must actually hit the
  // incremental maintenance paths, not rebuild every dispatch.
  EXPECT_GT(index->dispatch.index_dispatches, 0u);
  EXPECT_GT(index->dispatch.index_rebuilds, 0u);
  EXPECT_LT(index->dispatch.index_rebuilds, index->dispatch.index_dispatches);

  config.shards = 3;
  auto sharded = RunMultiQuerySystem(config);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectSameResult(*scan, *sharded, "churn index shards=3");
}

TEST(ShardedCoreTest, IndexDispatchByteIdenticalUnderBatchedDelivery) {
  MultiQueryConfig config = ProtocolConfig(ProtocolKind::kFtNrp);
  config.net.kind = NetConfig::Kind::kBatched;
  config.net.delta = 7.5;

  config.dispatch = DispatchPolicy::kScan;
  auto scan = RunMultiQuerySystem(config);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  config.dispatch = DispatchPolicy::kIndex;
  for (std::size_t shards : {1u, 2u}) {
    config.shards = shards;
    auto index = RunMultiQuerySystem(config);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    ExpectSameResult(*scan, *index,
                     "batched index shards=" + std::to_string(shards));
  }
}

// An open population large enough that auto dispatch crosses its
// default crossover (256 live columns) both ways, over a mix of the range
// and k-NN protocols, with retired queries spilled to disk.
TEST(ShardedCoreTest, DispatchPoliciesByteIdenticalOnSpilledChurn) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 120;
  walk.seed = 5;
  config.source = SourceSpec::Walk(walk);
  config.duration = 600;
  config.seed = 5;
  config.oracle.sample_interval = 120;
  config.spill.dir = ::testing::TempDir();

  ChurnSpec spec;
  spec.arrival_rate = 2.0;
  spec.mean_lifetime = 150;
  spec.seed = 5;
  ChurnMixEntry ft_nrp;
  ft_nrp.eps_plus = 0.3;
  ft_nrp.eps_minus = 0.3;
  ChurnMixEntry zt_nrp;
  zt_nrp.protocol = ProtocolKind::kZtNrp;
  ChurnMixEntry rtp;
  rtp.protocol = ProtocolKind::kRtp;
  rtp.query_type = QuerySpec::Type::kRank;
  rtp.k = 10;
  rtp.rank_r = 5;
  spec.mix = {ft_nrp, zt_nrp, rtp};
  auto deployments = ExpandChurn(spec, config.duration);
  ASSERT_TRUE(deployments.ok());
  config.queries = std::move(deployments).value();

  config.dispatch = DispatchPolicy::kScan;
  auto scan = RunMultiQuerySystem(config);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_GT(scan->spill.records_spilled, 0u);
  EXPECT_GT(scan->peak_live_queries, kDefaultAutoCrossover);
  const DispatchPolicy policies[] = {DispatchPolicy::kIndex,
                                     DispatchPolicy::kAuto};
  for (DispatchPolicy policy : policies) {
    config.dispatch = policy;
    for (std::size_t shards : {1u, 4u}) {
      config.shards = shards;
      const std::string label = "spilled churn dispatch=" +
                                std::string(DispatchPolicyName(policy)) +
                                " shards=" + std::to_string(shards);
      SCOPED_TRACE(label);
      auto run = RunMultiQuerySystem(config);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ExpectSameResult(*scan, *run, label);
      EXPECT_EQ(scan->spill.records_spilled, run->spill.records_spilled);
      EXPECT_EQ(scan->spill.records_faulted, run->spill.records_faulted);
      // Auto must serve this population through both paths. ASF_DISPATCH
      // may override an auto config, so check the mix only when auto ran.
      if (run->dispatch_policy == DispatchPolicy::kAuto) {
        EXPECT_GT(run->dispatch.scan_dispatches, 0u);
        EXPECT_GT(run->dispatch.index_dispatches, 0u);
      }
    }
  }
}

// --- Many queries per wire message ---
//
// A workload where most crossings reach several queries at once, so one
// wire message carries many payloads and the coordinator replays their
// reactions back to back. Every observable must stay byte-identical to
// the serial engine at every shard count, under delayed and faulty nets,
// and with pinned threads.

/// Six heavily-overlapping queries over one walk population, with a late
/// arrival and a mid-run retirement: most crossings fan out to >= 4 query
/// slots.
MultiQueryConfig OverlapConfig(ProtocolKind protocol) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 80;
  walk.seed = 13;
  config.source = SourceSpec::Walk(walk);
  config.duration = 500;
  config.seed = 29;
  config.oracle.sample_interval = 90;

  const bool rank = protocol == ProtocolKind::kRtp ||
                    protocol == ProtocolKind::kZtRp ||
                    protocol == ProtocolKind::kFtRp;
  for (int i = 0; i < 6; ++i) {
    QueryDeployment dep;
    dep.name = std::string("q").append(std::to_string(i));
    if (rank) {
      dep.query = QuerySpec::Knn(4 + i, 470.0 + 12.0 * i);
    } else {
      dep.query = QuerySpec::Range(200.0 + 15.0 * i, 690.0 + 12.0 * i);
    }
    dep.protocol = protocol;
    dep.rank_r = 2;
    dep.fraction.eps_plus = 0.25;
    dep.fraction.eps_minus = 0.25;
    if (i == 4) dep.start = 140.5;   // late arrival
    if (i == 5) dep.end = 380.25;    // mid-run retirement
    config.queries.push_back(dep);
  }
  return config;
}

TEST(ShardedCoreTest, OverlapByteIdenticalAcrossProtocolsAndShardCounts) {
  const ProtocolKind protocols[] = {
      ProtocolKind::kNoFilter, ProtocolKind::kZtNrp, ProtocolKind::kFtNrp,
      ProtocolKind::kRtp,      ProtocolKind::kZtRp,  ProtocolKind::kFtRp};
  for (ProtocolKind protocol : protocols) {
    MultiQueryConfig config = OverlapConfig(protocol);
    auto serial = RunMultiQuerySystem(config);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (std::size_t shards : {1u, 2u, 4u, 8u}) {
      const MultiQueryResult sharded = RunShardedDirect(config, shards);
      ExpectSameResult(*serial, sharded,
                       std::string(ProtocolKindName(protocol)) + " shards=" +
                           std::to_string(shards));
    }
  }
}

TEST(ShardedCoreTest, OverlapRepeatedRunsReplayExactly) {
  MultiQueryConfig config = OverlapConfig(ProtocolKind::kFtNrp);
  const MultiQueryResult first = RunShardedDirect(config, 4);
  const MultiQueryResult second = RunShardedDirect(config, 4);
  ExpectSameResult(first, second, "repeat shards=4");
}

TEST(ShardedCoreTest, OverlapByteIdenticalUnderDelayedNets) {
  const char* kSpecs[] = {"batch:7.5", "latency:3:2", "latency:5:3",
                          "bw:0.1"};
  for (const char* spec : kSpecs) {
    auto net = ParseNetSpec(spec);
    ASSERT_TRUE(net.ok()) << spec;
    MultiQueryConfig config = OverlapConfig(ProtocolKind::kFtNrp);
    config.net = *net;
    auto serial = RunMultiQuerySystem(config);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (std::size_t shards : {2u, 8u}) {
      const MultiQueryResult sharded = RunShardedDirect(config, shards);
      ExpectSameResult(*serial, sharded,
                       std::string(spec) + " shards=" +
                           std::to_string(shards));
    }
  }
}

TEST(ShardedCoreTest, OverlapByteIdenticalUnderFaultyNet) {
  auto net = ParseNetSpec("latency:2+loss:0.06:2");
  ASSERT_TRUE(net.ok());
  MultiQueryConfig config = OverlapConfig(ProtocolKind::kFtNrp);
  config.net = *net;
  auto serial = RunMultiQuerySystem(config);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (std::size_t shards : {2u, 4u}) {
    MultiQueryConfig sharded_config = config;
    sharded_config.shards = shards;
    auto sharded = RunMultiQuerySystem(sharded_config);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ExpectSameResult(*serial, *sharded,
                     "faulty shards=" + std::to_string(shards));
    EXPECT_EQ(serial->net.delivered_crossings,
              sharded->net.delivered_crossings);
    EXPECT_EQ(serial->net.deploy_retransmits, sharded->net.deploy_retransmits);
    EXPECT_EQ(serial->net.dropped_loss, sharded->net.dropped_loss);
  }
}

TEST(ShardedCoreTest, PinnedRunsStayByteIdentical) {
  MultiQueryConfig config = OverlapConfig(ProtocolKind::kZtNrp);
  auto serial = RunMultiQuerySystem(config);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  MultiQueryConfig sharded_config = config;
  sharded_config.shards = 4;
  sharded_config.pin_threads = true;
  auto pinned = RunMultiQuerySystem(sharded_config);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  ExpectSameResult(*serial, *pinned, "pinned shards=4");
#if defined(__linux__)
  EXPECT_TRUE(pinned->pinned);
#endif
}

TEST(ShardedCoreTest, RejectsCrossShardTraceTimestampTies) {
  // Two records at the same instant on streams of different shards: the
  // sharded merge would order them by stream id while the serial engine
  // replays trace order, so validation must refuse rather than silently
  // break the byte-identical contract.
  TraceData trace;
  trace.num_streams = 4;
  trace.records = {{1.0, 0, 10.0}, {2.0, 1, 20.0}, {2.0, 2, 30.0}};
  MultiQueryConfig config;
  config.source = SourceSpec::Trace(&trace);
  config.duration = 10;
  QueryDeployment dep;
  dep.name = "q0";
  dep.query = QuerySpec::Range(0, 100);
  dep.protocol = ProtocolKind::kZtNrp;
  config.queries.push_back(dep);

  config.shards = 1;
  EXPECT_TRUE(config.Validate().ok());  // serial replay order is exact
  config.shards = 2;
  EXPECT_FALSE(config.Validate().ok());  // streams 1 and 2 tie across shards

  // Same-shard ties keep their trace order in the shard log: fine.
  trace.records = {{1.0, 0, 10.0}, {2.0, 1, 20.0}, {2.0, 3, 30.0}};
  EXPECT_TRUE(config.Validate().ok());  // 1 and 3 are both shard 1 of 2
}

TEST(ShardedCoreTest, RejectsCustomSourceAndZeroShards) {
  MultiQueryConfig config = ProtocolConfig(ProtocolKind::kZtNrp);
  config.shards = 0;
  EXPECT_FALSE(config.Validate().ok());

  RandomWalkStreams custom(RandomWalkConfig{.num_streams = 8});
  MultiQueryConfig custom_config = ProtocolConfig(ProtocolKind::kZtNrp);
  custom_config.source = SourceSpec::Custom(&custom);
  custom_config.shards = 2;
  EXPECT_FALSE(custom_config.Validate().ok());
}

}  // namespace
}  // namespace asf
