#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/interval.h"
#include "engine/churn.h"
#include "engine/multi_system.h"
#include "engine/system.h"
#include "net/fault_pipeline.h"
#include "net/network_model.h"
#include "net_counters.h"
#include "query_stats_equal.h"
#include "sim/scheduler.h"

/// \file
/// Fault injection and the disruption-tolerant control plane (DESIGN.md
/// §11): the composable `--net=` stage grammar, the zero-rate ≡ instant
/// contract, seed-determinism of the fault schedule (serial and sharded),
/// the crossing conservation invariant, the deploy retransmission state
/// machine (timeout, duplicate suppression, supersession, backoff cap,
/// lazily re-armed timers), RTP counters pinned across commits, probe
/// failover, bounded reordering, partition-reconnect reconciliation, and
/// staleness compensation.

namespace asf {
namespace {

// ---------------------------------------------------------------- parsing

TEST(NetFaultSpecTest, ParsesEveryStage) {
  auto loss = ParseNetSpec("loss:0.1");
  ASSERT_TRUE(loss.ok());
  EXPECT_EQ(loss->kind, NetConfig::Kind::kInstant);
  EXPECT_DOUBLE_EQ(loss->loss, 0.1);
  EXPECT_DOUBLE_EQ(loss->loss_burst, 1);
  EXPECT_TRUE(loss->HasFaults());
  EXPECT_TRUE(loss->DelaysDelivery());
  EXPECT_EQ(loss->ToString(), "loss:0.1");

  auto burst = ParseNetSpec("loss:0.1:4");
  ASSERT_TRUE(burst.ok());
  EXPECT_DOUBLE_EQ(burst->loss_burst, 4);
  EXPECT_EQ(burst->ToString(), "loss:0.1:4");

  auto reorder = ParseNetSpec("reorder:3");
  ASSERT_TRUE(reorder.ok());
  EXPECT_EQ(reorder->reorder, 3u);
  EXPECT_EQ(reorder->ToString(), "reorder:3");

  auto partition = ParseNetSpec("partition:100,200,350");
  ASSERT_TRUE(partition.ok());
  ASSERT_EQ(partition->partition.size(), 3u);
  EXPECT_DOUBLE_EQ(partition->partition[1], 200);
  EXPECT_EQ(partition->ToString(), "partition:100,200,350");

  auto composite =
      ParseNetSpec("latency:5:2+loss:0.05:3+reorder:2+partition:10,20"
                   "+rto:4:32+comp:1.5+norecon");
  ASSERT_TRUE(composite.ok());
  EXPECT_EQ(composite->kind, NetConfig::Kind::kFixedLatency);
  EXPECT_DOUBLE_EQ(composite->latency, 5);
  EXPECT_DOUBLE_EQ(composite->jitter, 2);
  EXPECT_DOUBLE_EQ(composite->loss, 0.05);
  EXPECT_DOUBLE_EQ(composite->loss_burst, 3);
  EXPECT_EQ(composite->reorder, 2u);
  EXPECT_DOUBLE_EQ(composite->rto, 4);
  EXPECT_DOUBLE_EQ(composite->rto_max, 32);
  EXPECT_DOUBLE_EQ(composite->comp, 1.5);
  EXPECT_FALSE(composite->reconcile);
  // Canonical round trip.
  EXPECT_EQ(composite->ToString(),
            "latency:5:2+loss:0.05:3+reorder:2+partition:10,20+rto:4:32"
            "+comp:1.5+norecon");
  auto again = ParseNetSpec(composite->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->ToString(), composite->ToString());

  // Zero-rate stages parse and are recognized as fault-free.
  auto zero = ParseNetSpec("loss:0");
  ASSERT_TRUE(zero.ok());
  EXPECT_FALSE(zero->HasFaults());
  EXPECT_FALSE(zero->DelaysDelivery());
  auto zreorder = ParseNetSpec("reorder:0");
  ASSERT_TRUE(zreorder.ok());
  EXPECT_FALSE(zreorder->HasFaults());
  EXPECT_FALSE(zreorder->DelaysDelivery());

  // An explicit base composes with stages.
  auto batched = ParseNetSpec("batch:10+loss:0.2");
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(batched->kind, NetConfig::Kind::kBatched);
  EXPECT_DOUBLE_EQ(batched->delta, 10);
  EXPECT_DOUBLE_EQ(batched->loss, 0.2);
}

TEST(NetFaultSpecTest, RejectsMalformedStages) {
  // Out-of-range probabilities and burst lengths.
  EXPECT_FALSE(ParseNetSpec("loss:1.5").ok());
  EXPECT_FALSE(ParseNetSpec("loss:-0.1").ok());
  EXPECT_FALSE(ParseNetSpec("loss:abc").ok());
  EXPECT_FALSE(ParseNetSpec("loss:0.1:0.5").ok());  // burst < 1
  EXPECT_FALSE(ParseNetSpec("loss:").ok());
  // Gilbert-Elliott feasibility: burst b needs loss <= b/(b+1).
  EXPECT_FALSE(ParseNetSpec("loss:0.9:2").ok());
  // Reorder must be a bounded non-negative integer.
  EXPECT_FALSE(ParseNetSpec("reorder:-1").ok());
  EXPECT_FALSE(ParseNetSpec("reorder:1.5").ok());
  EXPECT_FALSE(ParseNetSpec("reorder:").ok());
  EXPECT_FALSE(ParseNetSpec("reorder:2:3").ok());
  // Partition boundaries must be strictly increasing and well-formed.
  EXPECT_FALSE(ParseNetSpec("partition:").ok());
  EXPECT_FALSE(ParseNetSpec("partition:5,3").ok());
  EXPECT_FALSE(ParseNetSpec("partition:5,5").ok());
  EXPECT_FALSE(ParseNetSpec("partition:-1,5").ok());
  EXPECT_FALSE(ParseNetSpec("partition:1,2,").ok());
  // Rto must be positive; the cap must cover the initial timeout.
  EXPECT_FALSE(ParseNetSpec("rto:0").ok());
  EXPECT_FALSE(ParseNetSpec("rto:-2").ok());
  EXPECT_FALSE(ParseNetSpec("rto:8:4").ok());
  // Compensation must be non-negative.
  EXPECT_FALSE(ParseNetSpec("comp:-1").ok());
  // Structural errors: duplicate stages, second base, empty stage,
  // parameters where none belong, unknown stages.
  EXPECT_FALSE(ParseNetSpec("loss:0.1+loss:0.2").ok());
  EXPECT_FALSE(ParseNetSpec("reorder:1+reorder:2").ok());
  EXPECT_FALSE(ParseNetSpec("latency:1+batch:2").ok());
  EXPECT_FALSE(ParseNetSpec("instant+instant").ok());
  EXPECT_FALSE(ParseNetSpec("loss:0.1++reorder:2").ok());
  EXPECT_FALSE(ParseNetSpec("norecon:1").ok());
  EXPECT_FALSE(ParseNetSpec("norecon+norecon").ok());
  EXPECT_FALSE(ParseNetSpec("warp:0.1").ok());
  EXPECT_FALSE(ParseNetSpec("latency:1+warp").ok());
  // The diagnostic names the offending stage.
  auto bad = ParseNetSpec("latency:2+warp:1");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("warp"), std::string::npos);
}

// ------------------------------------------------ shared run scaffolding

SystemConfig BaseConfig(ProtocolKind protocol, const QuerySpec& query,
                        double eps, std::size_t rank_r) {
  SystemConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 200;
  walk.seed = 23;
  config.source = SourceSpec::Walk(walk);
  config.query = query;
  config.protocol = protocol;
  config.fraction = {eps, eps};
  config.rank_r = rank_r;
  config.duration = 400;
  config.seed = 23;
  config.oracle.sample_interval = 25;
  return config;
}

struct ProtoCase {
  const char* label;
  ProtocolKind protocol;
  QuerySpec query;
  double eps;
  std::size_t rank_r;
};

const ProtoCase kAllProtocols[] = {
    {"no-filter", ProtocolKind::kNoFilter, QuerySpec::Range(400, 600), 0, 0},
    {"zt-nrp", ProtocolKind::kZtNrp, QuerySpec::Range(400, 600), 0, 0},
    {"ft-nrp", ProtocolKind::kFtNrp, QuerySpec::Range(400, 600), 0.3, 0},
    {"rtp", ProtocolKind::kRtp, QuerySpec::Knn(5, 500), 0, 3},
    {"zt-rp", ProtocolKind::kZtRp, QuerySpec::Knn(5, 500), 0, 0},
    {"ft-rp", ProtocolKind::kFtRp, QuerySpec::Knn(10, 500), 0.3, 0},
};

void ExpectSameRun(const RunResult& a, const RunResult& b,
                   const char* label) {
  SCOPED_TRACE(label);
  ExpectSameQueryStats(a, b);
  EXPECT_EQ(a.updates_generated, b.updates_generated);
}

void ExpectSameNetStats(const NetStats& a, const NetStats& b,
                        const char* label) {
  const auto ca = NetCounters(a);
  const auto cb = NetCounters(b);
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].second, cb[i].second) << label << " " << ca[i].first;
  }
}

/// The crossing conservation invariant (DESIGN.md §11): every crossing the
/// sources offered is delivered, dropped by a named cause, or still in
/// flight at the horizon — nothing vanishes.
void ExpectConservation(const NetStats& net, const char* label) {
  EXPECT_EQ(net.crossings,
            net.delivered_crossings + net.dropped_loss +
                net.dropped_partition + net.dropped_retired +
                net.in_flight_crossings_at_end)
      << label << ": crossings=" << net.crossings
      << " delivered=" << net.delivered_crossings
      << " loss=" << net.dropped_loss
      << " partition=" << net.dropped_partition
      << " retired=" << net.dropped_retired
      << " in_flight=" << net.in_flight_crossings_at_end;
}

// ------------------------------------------- zero-rate faults ≡ instant

/// `loss:0`, `reorder:0` and their composites with zero-delay bases are
/// observably fault-free: they must take the inline delivery path and
/// reproduce the instant run byte-identically for every protocol, serial
/// and sharded.
TEST(NetFaultEquivalenceTest, ZeroRateFaultConfigsMatchInstant) {
  const char* kSpecs[] = {"loss:0", "reorder:0", "latency:0+loss:0+reorder:0"};
  for (const ProtoCase& c : kAllProtocols) {
    SystemConfig config = BaseConfig(c.protocol, c.query, c.eps, c.rank_r);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
      config.shards = shards;
      config.net = NetConfig{};  // instant
      auto instant = RunSystem(config);
      ASSERT_TRUE(instant.ok()) << c.label;
      for (const char* spec : kSpecs) {
        auto net = ParseNetSpec(spec);
        ASSERT_TRUE(net.ok()) << spec;
        ASSERT_FALSE(net->DelaysDelivery()) << spec;
        config.net = *net;
        auto run = RunSystem(config);
        ASSERT_TRUE(run.ok()) << c.label << " " << spec;
        ExpectSameRun(*instant, *run, c.label);
      }
    }
  }
}

// ------------------------------------------------ determinism under seed

/// The fault schedule is a pure function of (config, seed): a composite
/// loss+reorder+partition run replays every observable — including every
/// fault counter — exactly, serial and sharded alike.
TEST(NetFaultDeterminismTest, CompositeFaultsReplayExactly) {
  auto net = ParseNetSpec("latency:3:2+loss:0.08:3+reorder:2+partition:120,240");
  ASSERT_TRUE(net.ok());
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SystemConfig config =
        BaseConfig(ProtocolKind::kFtNrp, QuerySpec::Range(400, 600), 0.2, 0);
    config.shards = shards;
    config.net = *net;
    auto first = RunSystem(config);
    auto second = RunSystem(config);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    ExpectSameRun(*first, *second, "fault-replay");
    ExpectSameNetStats(first->net, second->net, "fault-replay");
    // The faults actually engaged.
    EXPECT_GT(first->net.dropped_loss, 0u);
    EXPECT_GT(first->net.dropped_partition, 0u);
    ExpectConservation(first->net, "fault-replay");
  }
}

// ---------------------------------------------- serial ≡ sharded, faulty

/// Under a lossy + delayed composite the sharded engine must reproduce the
/// serial run for any shard count — fault draws happen in replay order on
/// the coordinator, so the schedule cannot depend on the partitioning.
TEST(NetFaultShardedTest, SerialMatchesShardedUnderFaults) {
  const char* kSpecs[] = {
      "latency:4+loss:0.05:3",
      "batch:15+loss:0.1",
      "latency:2:3+loss:0.05+reorder:2+partition:150,260",
  };
  for (const char* spec : kSpecs) {
    auto net = ParseNetSpec(spec);
    ASSERT_TRUE(net.ok()) << spec;
    SystemConfig config =
        BaseConfig(ProtocolKind::kFtNrp, QuerySpec::Range(400, 600), 0.2, 0);
    config.net = *net;
    config.shards = 1;
    auto serial = RunSystem(config);
    ASSERT_TRUE(serial.ok()) << spec;
    for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
      config.shards = shards;
      auto sharded = RunSystem(config);
      ASSERT_TRUE(sharded.ok()) << spec;
      ExpectSameRun(*serial, *sharded, spec);
      ExpectSameNetStats(serial->net, sharded->net, spec);
    }
    ExpectConservation(serial->net, spec);
  }
}

// ------------------------------------ cross-commit identity pin (RTP)

SystemConfig PinConfig(const char* spec, std::size_t shards,
                       std::uint64_t seed = 41) {
  SystemConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 300;
  walk.seed = seed;
  config.source = SourceSpec::Walk(walk);
  config.query = QuerySpec::Knn(10, 500);
  config.protocol = ProtocolKind::kRtp;
  config.rank_r = 4;
  config.duration = 300;
  config.seed = seed;
  config.oracle.sample_interval = 20;
  config.shards = shards;
  config.net = ParseNetSpec(spec).value();
  return config;
}

/// The RTP counters a pin records: updates generated, updates reported,
/// reinits, init messages, and maintenance value updates, probe
/// requests, deploys, total.
std::vector<std::uint64_t> RtpPinCounters(const RunResult& run) {
  const MessageStats& m = run.messages;
  return {run.updates_generated,
          run.updates_reported,
          run.reinits,
          m.InitTotal(),
          m.count(MessagePhase::kMaintenance, MessageType::kValueUpdate),
          m.count(MessagePhase::kMaintenance, MessageType::kProbeRequest),
          m.count(MessagePhase::kMaintenance, MessageType::kFilterDeploy),
          run.MaintenanceMessages()};
}

/// RTP k-NN under delayed, lossy, partitioned and reordering nets, with
/// every counter pinned to the values of the engine before the event
/// kernel grew its FIFO lane and the retransmit timers became lazy. The
/// serial/sharded and replay tests compare two runs of the same code; only
/// a pin notices a kernel change that reorders equal-time events in both.
TEST(NetFaultPinTest, RtpKnnCountersMatchRecordedValues) {
  struct Pin {
    const char* spec;
    std::size_t shards;
    /// updates generated, updates reported, reinits, init messages, and
    /// maintenance value updates, probe requests, deploys, total.
    std::uint64_t run[8];
    /// NetCounters order.
    std::uint64_t net[24];
  };
  const Pin kPins[] = {
      {"latency:4+loss:0.05:3", 1,
       {4491, 218, 0, 897, 218, 560, 12300, 13936},
       {225, 218, 218, 218, 11798, 1151, 0, 0, 571, 0, 7, 0, 0, 12792, 192,
        1134, 3076, 94, 8011, 300, 232, 10, 0, 0}},
      {"latency:2:1+loss:0.1+partition:50,80,150,160", 1,
       {4491, 751, 0, 900, 751, 574, 12600, 14794},
       {212, 180, 180, 180, 9931, 1165, 0, 0, 34, 1, 13, 18, 0, 13437, 507,
        2492, 3586, 2200, 7296, 87, 285, 0, 600, 30}},
      {"latency:1+loss:0.2+rto:1", 1,
       {4491, 142, 0, 900, 142, 574, 12600, 14188},
       {171, 142, 142, 142, 12094, 1165, 0, 0, 75, 1, 28, 0, 0, 25145, 12245,
        8975, 8227, 7971, 7869, 37, 632, 0, 0, 0}},
      {"batch:2+loss:0.1:4+reorder:3", 1,
       {4491, 70, 0, 887, 70, 336, 7200, 7933},
       {174, 77, 77, 77, 7312, 636, 0, 0, 85, 85, 12, 0, 7, 8797, 1297, 1710,
        6542, 644, 545, 15, 424, 22, 0, 0}},
      {"latency:2:1+loss:0.1+partition:50,80,150,160", 3,
       {4491, 751, 0, 900, 751, 574, 12600, 14794},
       {212, 180, 180, 180, 9931, 1165, 0, 0, 34, 1, 13, 18, 0, 13437, 507,
        2492, 3586, 2200, 7296, 87, 285, 0, 600, 30}},
  };
  for (const Pin& pin : kPins) {
    auto run = RunSystem(PinConfig(pin.spec, pin.shards));
    ASSERT_TRUE(run.ok()) << pin.spec;
    const std::vector<std::uint64_t> got = RtpPinCounters(*run);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(got[i], pin.run[i]) << pin.spec << " s" << pin.shards
                                    << " run[" << i << "]";
    }
    const auto net = NetCounters(run->net);
    ASSERT_EQ(net.size(), 24u);
    for (std::size_t i = 0; i < net.size(); ++i) {
      EXPECT_EQ(net[i].second, pin.net[i])
          << pin.spec << " s" << pin.shards << " " << net[i].first;
    }
    ExpectConservation(run->net, pin.spec);
  }
}

/// RTP k-NN on the lossy delayed net over walk seeds whose runs take
/// Case-2 search expansions: the order ExpandSearch rebuilds X in (A's
/// hash-set order, not id order) fixes ReevaluateBound's probe order,
/// and under loss that order decides which probe draws which loss
/// sample. Recorded from the engine whose answer set was a hash set; a
/// rebuild of X in id order moves all three.
TEST(NetFaultPinTest, RtpProbeOrderMatchesRecordedValues) {
  struct Pin {
    std::uint64_t seed;
    std::size_t shards;
    std::uint64_t run[8];  ///< RtpPinCounters order
    std::uint64_t net[24];  ///< NetCounters order
  };
  const char* spec = "latency:4+loss:0.05:3";
  const Pin kPins[] = {
      {1, 1,
       {4376, 247, 0, 899, 247, 784, 17400, 19799},
       {257, 247, 247, 247, 16334, 1666, 0, 0, 571, 0, 10, 0, 0, 17790, 90,
        1599, 1950, 38, 13670, 300, 346, 10, 0, 0}},
      {2, 1,
       {4488, 196, 0, 898, 196, 434, 9900, 12422},
       {210, 196, 196, 196, 9249, 2186, 0, 0, 856, 4, 10, 0, 0, 10351, 151,
        912, 3067, 94, 5520, 300, 333, 6, 0, 0}},
      {3, 3,
       {4498, 177, 0, 896, 177, 392, 9600, 13765},
       {188, 177, 177, 177, 9541, 3886, 0, 0, 278, 3, 8, 0, 0, 10044, 144,
        818, 3094, 74, 5857, 300, 547, 13, 0, 0}},
  };
  for (const Pin& pin : kPins) {
    SCOPED_TRACE("seed " + std::to_string(pin.seed) + " s" +
                 std::to_string(pin.shards));
    auto run = RunSystem(PinConfig(spec, pin.shards, pin.seed));
    ASSERT_TRUE(run.ok());
    const std::vector<std::uint64_t> got = RtpPinCounters(*run);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(got[i], pin.run[i]) << "run[" << i << "]";
    }
    const auto net = NetCounters(run->net);
    ASSERT_EQ(net.size(), 24u);
    for (std::size_t i = 0; i < net.size(); ++i) {
      EXPECT_EQ(net[i].second, pin.net[i]) << net[i].first;
    }
  }
}

// ------------------------------ cross-commit identity pin (FT-NRP churn)

MultiQueryConfig FtChurnPinConfig(const char* spec, std::size_t shards) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 400;
  walk.seed = 5;
  config.source = SourceSpec::Walk(walk);
  config.duration = 800;
  config.seed = 5;
  config.oracle.sample_interval = 20;
  // The stabbing index, so the dirty marks every column install, uninstall
  // and compaction leaves behind reach the pinned rebuild counters.
  config.dispatch = DispatchPolicy::kIndex;
  config.shards = shards;
  config.net = ParseNetSpec(spec).value();
  ChurnSpec churn;
  churn.arrival_rate = 0.2;
  churn.mean_lifetime = 150;
  churn.seed = 5;
  ChurnMixEntry entry;
  entry.protocol = ProtocolKind::kFtNrp;
  entry.eps_plus = 0.2;
  entry.eps_minus = 0.2;
  churn.mix = {entry};
  config.queries = ExpandChurn(churn, config.duration).value();
  return config;
}

/// FNV-1a over every per-query figure of a multi-query run (doubles by
/// bit pattern), in query order.
std::uint64_t PerQueryDigest(const MultiQueryResult& result) {
  std::uint64_t h = 1469598103934665603ull;
  const auto add = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const auto add_double = [&add](double x) {
    add(std::bit_cast<std::uint64_t>(x));
  };
  for (const MultiQueryResult::PerQuery& q : result.queries) {
    for (const char c : q.name) add(static_cast<unsigned char>(c));
    for (int p = 0; p < kNumMessagePhases; ++p) {
      for (int t = 0; t < kNumMessageTypes; ++t) {
        add(q.messages.count(static_cast<MessagePhase>(p),
                             static_cast<MessageType>(t)));
      }
    }
    add(q.updates_reported);
    add(q.reinits);
    add(q.answer_size.count());
    add_double(q.answer_size.mean());
    add_double(q.answer_size.variance());
    add_double(q.answer_size.min());
    add_double(q.answer_size.max());
    add(q.oracle_checks);
    add(q.oracle_violations);
    add_double(q.max_f_plus);
    add_double(q.max_f_minus);
    add(q.max_worst_rank);
    add(q.oracle_violations_in_flight);
    add(q.update_delay.count());
    add_double(q.update_delay.mean());
    add_double(q.deployed_at);
    add_double(q.retired_at);
  }
  return h;
}

/// An FT-NRP churn population — 400 streams, arrivals at rate 0.2 with
/// mean lifetime 150, ε± = 0.2 — under instant, zero-delay, delayed,
/// batched and lossy nets, serial and sharded, with every per-query
/// figure, every NetStats counter and the dispatch counters pinned to
/// values recorded before query columns were installed in one pass. FT's
/// installs are the longest deploy bursts of any protocol, and under a
/// delaying net their send order decides arrival order, jitter draws and
/// retransmission timers; the identity suites compare two engines that
/// would drift together.
TEST(NetFaultPinTest, FtNrpChurnMatchesRecordedValues) {
  struct Pin {
    const char* spec;
    std::size_t shards;
    std::uint64_t digest;
    /// queries, updates generated, physical updates, peak live.
    std::uint64_t run[4];
    /// NetCounters order.
    std::uint64_t net[24];
    /// scan dispatches, index dispatches, index rebuilds, max stream
    /// rebuilds.
    std::uint64_t dispatch[4];
  };
  const Pin kPins[] = {
      {"instant", 1, 6244247357396843008ull,
       {177, 15778, 5310, 40},
       {8254, 5310, 8254, 8254, 130426, 71626, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0},
       {0, 15778, 2630, 9}},
      {"instant", 3, 6244247357396843008ull,
       {177, 15778, 5310, 40},
       {8254, 5310, 8254, 8254, 130426, 71626, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0},
       {0, 15778, 2630, 9}},
      {"latency:0", 1, 6244247357396843008ull,
       {177, 15778, 5310, 40},
       {8254, 5310, 8254, 8254, 130426, 71626, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0},
       {0, 15778, 2630, 9}},
      {"latency:0", 3, 6244247357396843008ull,
       {177, 15778, 5310, 40},
       {8254, 5310, 8254, 8254, 130426, 71626, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0},
       {0, 15778, 2630, 9}},
      {"latency:3:2", 1, 1065830964698759128ull,
       {177, 15778, 11514, 40},
       {22063, 11514, 22000, 21444, 130016, 71624, 556, 60296, 453, 63, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
       {0, 15778, 2669, 9}},
      {"latency:3:2", 3, 1065830964698759128ull,
       {177, 15778, 11514, 40},
       {22063, 11514, 22000, 21444, 130016, 71624, 556, 60296, 453, 63, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
       {0, 15778, 2694, 9}},
      {"batch:5", 1, 5861537873636313508ull,
       {177, 15778, 4935, 40},
       {8239, 4935, 7920, 8122, 130403, 71603, 117, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0},
       {0, 15778, 2631, 9}},
      {"batch:5", 3, 5861537873636313508ull,
       {177, 15778, 4935, 40},
       {8239, 4935, 7920, 8122, 130403, 71603, 117, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0},
       {0, 15778, 2631, 9}},
      {"latency:4+loss:0.05:3", 1, 3552682441724072207ull,
       {177, 15778, 11266, 40},
       {22447, 11266, 21651, 21117, 129854, 71592, 534, 59986, 1986, 65, 731,
        0, 0, 207136, 76744, 13322, 124839, 69645, 67035, 1287, 14969, 354, 0,
        0},
       {0, 15778, 2665, 9}},
      {"latency:4+loss:0.05:3", 3, 3552682441724072207ull,
       {177, 15778, 11266, 40},
       {22447, 11266, 21651, 21117, 129854, 71592, 534, 59986, 1986, 65, 731,
        0, 0, 207136, 76744, 13322, 124839, 69645, 67035, 1287, 14969, 354, 0,
        0},
       {0, 15778, 2693, 9}},
  };
  for (const Pin& pin : kPins) {
    auto run = RunMultiQuerySystem(FtChurnPinConfig(pin.spec, pin.shards));
    ASSERT_TRUE(run.ok()) << pin.spec;
    const std::string label =
        std::string(pin.spec) + " s" + std::to_string(pin.shards);
    EXPECT_EQ(PerQueryDigest(*run), pin.digest) << label << " digest";
    const std::uint64_t got[4] = {run->queries.size(), run->updates_generated,
                                  run->physical_updates,
                                  run->peak_live_queries};
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(got[i], pin.run[i]) << label << " run[" << i << "]";
    }
    const auto net = NetCounters(run->net);
    ASSERT_EQ(net.size(), 24u);
    for (std::size_t i = 0; i < net.size(); ++i) {
      EXPECT_EQ(net[i].second, pin.net[i]) << label << " " << net[i].first;
    }
    const std::uint64_t dispatch[4] = {
        run->dispatch.scan_dispatches, run->dispatch.index_dispatches,
        run->dispatch.index_rebuilds, run->dispatch.max_stream_rebuilds};
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(dispatch[i], pin.dispatch[i])
          << label << " dispatch[" << i << "]";
    }
    ExpectConservation(run->net, label.c_str());
  }
}

// ------------------------------- every protocol terminates under faults

/// Sustained burst loss with retransmitting deploys: all six protocols
/// complete the run, keep judging, and satisfy the conservation invariant.
TEST(NetFaultProtocolTest, AllProtocolsTerminateUnderBurstLoss) {
  auto net = ParseNetSpec("latency:2+loss:0.1:3+rto:8");
  ASSERT_TRUE(net.ok());
  for (const ProtoCase& c : kAllProtocols) {
    SystemConfig config = BaseConfig(c.protocol, c.query, c.eps, c.rank_r);
    config.net = *net;
    auto run = RunSystem(config);
    ASSERT_TRUE(run.ok()) << c.label;
    EXPECT_GT(run->oracle_checks, 0u) << c.label;
    EXPECT_LE(run->oracle_violations, run->oracle_checks) << c.label;
    ExpectConservation(run->net, c.label);
  }
}

/// Crossings lost to retirement under loss: a query retiring with updates
/// in flight closes its books; the invariant still balances with both the
/// retired and the loss buckets populated.
TEST(NetFaultLifecycleTest, RetirementAndLossShareTheInvariant) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 120;
  walk.seed = 31;
  config.source = SourceSpec::Walk(walk);
  config.duration = 600;
  config.seed = 31;
  auto net = ParseNetSpec("latency:25+loss:0.15");
  ASSERT_TRUE(net.ok());
  config.net = *net;

  QueryDeployment young;
  young.name = "young";
  young.query = QuerySpec::Range(300, 700);
  young.protocol = ProtocolKind::kZtNrp;
  young.start = 0;
  young.end = 200;
  QueryDeployment old;
  old.name = "survivor";
  old.query = QuerySpec::Range(350, 650);
  old.protocol = ProtocolKind::kZtNrp;
  config.queries = {young, old};

  auto result = RunMultiQuerySystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->net.dropped_retired, 0u);
  EXPECT_GT(result->net.dropped_loss, 0u);
  ExpectConservation(result->net, "retire+loss");
}

// --------------------------------------- deploy state machine, scripted

struct DeployArrival {
  std::size_t slot;
  StreamId id;
  FilterConstraint constraint;
  SimTime at;
};

struct FaultRig {
  Scheduler scheduler;
  std::unique_ptr<NetworkModel> net;
  std::vector<DeployArrival> deploys;

  explicit FaultRig(const NetConfig& config, std::uint64_t seed = 7) {
    net = MakeNetworkModel(config, seed);
    net->Bind(
        &scheduler,
        [](StreamId, const NetworkModel::Payload*, std::size_t, SimTime) {},
        [this](std::size_t slot, StreamId id, const FilterConstraint& c,
               SimTime at) {
          deploys.push_back({slot, id, c, at});
        });
  }
};

/// Scripted timeout + duplicate + lost-ack scenario: deploy at t=0 under
/// latency:2 with the link down in [1,3) and rto:5. The install arrives at
/// t=2 and is applied, but its ack evaluates against the down window and is
/// lost; the timer fires at t=5, the retransmit arrives at t=7 as a
/// duplicate (suppressed, re-acked), and the ack lands at t=9.
TEST(NetDeployStateMachineTest, TimeoutRetransmitsAndSuppressesDuplicate) {
  auto net = ParseNetSpec("latency:2+partition:1,3+rto:5+norecon");
  ASSERT_TRUE(net.ok());
  FaultRig rig(*net);

  rig.net->SendDeploy(/*slot=*/4, /*id=*/9,
                      FilterConstraint::Range(Interval(400, 600)), 0);
  rig.scheduler.RunUntil(20);
  rig.net->Finalize(20);

  ASSERT_EQ(rig.deploys.size(), 1u);  // the duplicate was suppressed
  EXPECT_EQ(rig.deploys[0].slot, 4u);
  EXPECT_EQ(rig.deploys[0].id, 9u);
  EXPECT_DOUBLE_EQ(rig.deploys[0].at, 2.0);

  const NetStats& stats = rig.net->stats();
  EXPECT_EQ(stats.deploy_messages, 1u);
  EXPECT_EQ(stats.deploy_attempts, 2u);
  EXPECT_EQ(stats.deploy_retransmits, 1u);
  EXPECT_EQ(stats.deploy_dropped, 1u);  // the lost ack
  EXPECT_EQ(stats.deploy_dup_suppressed, 1u);
  EXPECT_EQ(stats.deploy_acks, 1u);
  EXPECT_EQ(stats.deploy_stale_acks, 0u);
  EXPECT_EQ(stats.deploy_unacked_at_end, 0u);
  EXPECT_EQ(stats.in_flight_at_end, 0u);
}

/// Supersession: a second install on the same (query, stream) channel
/// bumps the sequence number before the first ack returns; the stale ack
/// is ignored and only the newest install's ack settles the channel.
TEST(NetDeployStateMachineTest, SupersededDeployIgnoresStaleAck) {
  // The far-away partition window never opens in this script; it only
  // makes the config faulty so the pipeline (and its ack machinery) runs.
  auto net = ParseNetSpec("latency:2+partition:900,901+rto:10+norecon");
  ASSERT_TRUE(net.ok());
  FaultRig rig(*net);

  const FilterConstraint a = FilterConstraint::Range(Interval(400, 600));
  const FilterConstraint b = FilterConstraint::Range(Interval(450, 550));
  rig.net->SendDeploy(/*slot=*/1, /*id=*/3, a, 0);
  rig.scheduler.RunUntil(1);
  rig.net->SendDeploy(/*slot=*/1, /*id=*/3, b, 1);
  rig.scheduler.RunUntil(30);
  rig.net->Finalize(30);

  ASSERT_EQ(rig.deploys.size(), 2u);
  EXPECT_TRUE(rig.deploys[0].constraint == a);
  EXPECT_TRUE(rig.deploys[1].constraint == b);
  EXPECT_DOUBLE_EQ(rig.deploys[0].at, 2.0);
  EXPECT_DOUBLE_EQ(rig.deploys[1].at, 3.0);

  const NetStats& stats = rig.net->stats();
  EXPECT_EQ(stats.deploy_attempts, 2u);
  EXPECT_EQ(stats.deploy_retransmits, 0u);
  EXPECT_EQ(stats.deploy_acks, 1u);        // only B's ack counts
  EXPECT_EQ(stats.deploy_stale_acks, 1u);  // A's ack arrived superseded
  EXPECT_EQ(stats.deploy_unacked_at_end, 0u);
}

/// Backoff caps: with rto:5:20 inside a never-healing partition the
/// retransmit schedule is 5, 15, 35, 55, 75, 95 — seven attempts by t=100.
/// Uncapped doubling (5, 15, 35, 75, 155) would only reach four.
TEST(NetDeployStateMachineTest, BackoffIsCappedAtRtoMax) {
  auto net = ParseNetSpec("partition:0,1000+rto:5:20+norecon");
  ASSERT_TRUE(net.ok());
  FaultRig rig(*net);

  rig.net->SendDeploy(/*slot=*/0, /*id=*/0,
                      FilterConstraint::Range(Interval(100, 200)), 0);
  rig.scheduler.RunUntil(100);
  rig.net->Finalize(100);

  const NetStats& stats = rig.net->stats();
  EXPECT_EQ(stats.deploy_attempts, 7u);
  EXPECT_EQ(stats.deploy_retransmits, 6u);
  EXPECT_EQ(stats.deploy_dropped, 7u);  // every copy hit the partition
  EXPECT_EQ(stats.deploy_acks, 0u);
  EXPECT_EQ(stats.deploy_unacked_at_end, 1u);
  EXPECT_EQ(rig.deploys.size(), 0u);
  EXPECT_EQ(stats.deploy_messages, 0u);
}

/// Lazy re-arm, case (a): a superseding send whose backoff is *shorter*
/// than the queued timer's moves the timer forward. Inside a partition
/// with rto:5 the first install times out at t=5 and its retransmit is
/// due at 15; a fresh install at t=6 restarts the backoff, so the next
/// retransmit fires at 6 + 5 = 11 (then 11 + 10 = 21), never at 15.
TEST(NetDeployStateMachineTest, ShorterSupersedingBackoffFiresAtNewDeadline) {
  auto net = ParseNetSpec("partition:0,1000+rto:5+norecon");
  ASSERT_TRUE(net.ok());
  FaultRig rig(*net);
  const NetStats& stats = rig.net->stats();

  rig.net->SendDeploy(/*slot=*/0, /*id=*/2,
                      FilterConstraint::Range(Interval(100, 200)), 0);
  rig.scheduler.RunUntil(6);
  EXPECT_EQ(stats.deploy_retransmits, 1u);  // t=5
  rig.net->SendDeploy(/*slot=*/0, /*id=*/2,
                      FilterConstraint::Range(Interval(120, 180)), 6);
  rig.scheduler.RunUntil(10.5);
  EXPECT_EQ(stats.deploy_retransmits, 1u);
  rig.scheduler.RunUntil(11);
  EXPECT_EQ(stats.deploy_retransmits, 2u);  // t=11
  rig.scheduler.RunUntil(20.5);
  EXPECT_EQ(stats.deploy_retransmits, 2u);  // nothing at the stale t=15
  rig.scheduler.RunUntil(21);
  EXPECT_EQ(stats.deploy_retransmits, 3u);  // t=21
  EXPECT_EQ(stats.deploy_attempts, 5u);
}

/// Lazy re-arm, case (b): a superseding send with a *later* deadline
/// leaves the queued timer in place. It fires at the old deadline (t=5),
/// finds itself superseded and re-arms; the only retransmit is at the new
/// deadline 2 + 5 = 7, the next one at 7 + 10 = 17.
TEST(NetDeployStateMachineTest, LaterSupersedingDeadlineRetransmitsOnce) {
  auto net = ParseNetSpec("partition:0,1000+rto:5+norecon");
  ASSERT_TRUE(net.ok());
  FaultRig rig(*net);
  const NetStats& stats = rig.net->stats();

  rig.net->SendDeploy(/*slot=*/1, /*id=*/4,
                      FilterConstraint::Range(Interval(100, 200)), 0);
  rig.scheduler.RunUntil(2);
  rig.net->SendDeploy(/*slot=*/1, /*id=*/4,
                      FilterConstraint::Range(Interval(120, 180)), 2);
  rig.scheduler.RunUntil(6.5);
  EXPECT_EQ(stats.deploy_retransmits, 0u);  // the superseded t=5 timeout
  rig.scheduler.RunUntil(7);
  EXPECT_EQ(stats.deploy_retransmits, 1u);
  rig.scheduler.RunUntil(16.5);
  EXPECT_EQ(stats.deploy_retransmits, 1u);
  rig.scheduler.RunUntil(17);
  EXPECT_EQ(stats.deploy_retransmits, 2u);
  EXPECT_EQ(stats.deploy_attempts, 4u);
}

/// Case (c): a timeout and an ack due at the same instant. The timer was
/// armed when its install was sent, before the ack was scheduled, so it
/// runs first (FIFO at equal times) even after a lazy re-arm: A at t=0
/// queues a timer for t=4; B at t=1 is due at t=5 and leaves it queued;
/// at t=4 it re-arms for B. At t=5 B's timeout retransmits, then B's ack
/// (sent at t=3) settles the channel; the retransmitted copy arrives at
/// t=7 as a duplicate whose ack is stale.
TEST(NetDeployStateMachineTest, TimeoutRunsBeforeAckAtTheSameInstant) {
  auto net = ParseNetSpec("latency:2+partition:900,901+rto:4+norecon");
  ASSERT_TRUE(net.ok());
  FaultRig rig(*net);

  const FilterConstraint a = FilterConstraint::Range(Interval(400, 600));
  const FilterConstraint b = FilterConstraint::Range(Interval(450, 550));
  rig.net->SendDeploy(/*slot=*/2, /*id=*/5, a, 0);
  rig.scheduler.RunUntil(1);
  rig.net->SendDeploy(/*slot=*/2, /*id=*/5, b, 1);
  rig.scheduler.RunUntil(30);
  rig.net->Finalize(30);

  ASSERT_EQ(rig.deploys.size(), 2u);
  EXPECT_DOUBLE_EQ(rig.deploys[0].at, 2.0);
  EXPECT_DOUBLE_EQ(rig.deploys[1].at, 3.0);
  const NetStats& stats = rig.net->stats();
  EXPECT_EQ(stats.deploy_retransmits, 1u);  // the timer won the tie
  EXPECT_EQ(stats.deploy_attempts, 3u);
  EXPECT_EQ(stats.deploy_acks, 1u);
  EXPECT_EQ(stats.deploy_stale_acks, 2u);  // A's, and the duplicate's
  EXPECT_EQ(stats.deploy_dup_suppressed, 1u);
  EXPECT_EQ(stats.deploy_unacked_at_end, 0u);
  EXPECT_EQ(stats.in_flight_at_end, 0u);
}

// ----------------------------------------------------- probe resilience

/// A partitioned link fails the probe immediately; a loss:1 link exhausts
/// the bounded retransmissions. Both report failover so the server serves
/// its cached value.
TEST(NetProbeTest, PartitionAndTotalLossFailOver) {
  auto down = ParseNetSpec("partition:0,1000+norecon");
  ASSERT_TRUE(down.ok());
  FaultRig part(*down);
  EXPECT_FALSE(part.net->ControlRpc(/*id=*/3, /*now=*/50));
  EXPECT_EQ(part.net->stats().control_rpcs, 1u);
  EXPECT_EQ(part.net->stats().probe_failovers, 1u);
  EXPECT_EQ(part.net->stats().probe_retransmits, 0u);

  auto lossy = ParseNetSpec("loss:1");
  ASSERT_TRUE(lossy.ok());
  FaultRig total(*lossy);
  EXPECT_FALSE(total.net->ControlRpc(/*id=*/3, /*now=*/50));
  EXPECT_EQ(total.net->stats().control_rpcs, 1u);
  EXPECT_EQ(total.net->stats().probe_failovers, 1u);
  EXPECT_EQ(total.net->stats().probe_retransmits, 7u);  // 8 attempts

  // A clean link always succeeds and counts no retransmissions.
  auto clean = ParseNetSpec("latency:2+partition:900,901");
  ASSERT_TRUE(clean.ok());
  FaultRig ok(*clean);
  EXPECT_TRUE(ok.net->ControlRpc(/*id=*/3, /*now=*/50));
  EXPECT_EQ(ok.net->stats().probe_failovers, 0u);
}

// -------------------------------------------------- bounded reordering

/// reorder:k holds each surviving message behind at most k later
/// survivors: arrivals are a permutation with displacement <= k, and
/// whatever is still held at the horizon is counted in flight.
TEST(NetReorderTest, DisplacementIsBoundedByK) {
  auto net = ParseNetSpec("reorder:2");
  ASSERT_TRUE(net.ok());

  Scheduler scheduler;
  auto model = MakeNetworkModel(*net, /*seed=*/11);
  std::vector<std::uint64_t> arrived_seq;
  model->Bind(
      &scheduler,
      [&](StreamId id, const NetworkModel::Payload* payloads,
          std::size_t count, SimTime) {
        ASSERT_EQ(id, 5u);
        ASSERT_EQ(count, 1u);
        arrived_seq.push_back(payloads[0].seq);
      },
      [](std::size_t, StreamId, const FilterConstraint&, SimTime) {});

  const std::vector<std::size_t> slots = {0};
  const int kSends = 50;
  for (int i = 0; i < kSends; ++i) {
    scheduler.RunUntil(static_cast<SimTime>(i));
    model->SendUpdate(/*id=*/5, static_cast<Value>(i), slots,
                      scheduler.now());
  }
  scheduler.RunUntil(1000);
  model->Finalize(1000);

  const NetStats& stats = model->stats();
  EXPECT_EQ(arrived_seq.size() + stats.in_flight_at_end,
            static_cast<std::size_t>(kSends));
  EXPECT_EQ(stats.in_flight_crossings_at_end, stats.in_flight_at_end);
  // Each arrival was overtaken by at most k=2 later sends.
  std::uint64_t inversions = 0;
  for (std::size_t i = 0; i < arrived_seq.size(); ++i) {
    std::uint64_t overtakers = 0;
    for (std::size_t j = 0; j < i; ++j) {
      if (arrived_seq[j] > arrived_seq[i]) ++overtakers;
    }
    inversions += overtakers;
    EXPECT_LE(overtakers, 2u) << "arrival " << i;
  }
  // The stage actually reorders under this seed.
  EXPECT_GT(inversions, 0u);
  // No duplicates: seqs are distinct.
  std::vector<std::uint64_t> sorted = arrived_seq;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
}

/// End to end, reordering without loss changes delivery order but loses
/// nothing: stale payloads are suppressed at the server (counted), and the
/// conservation invariant holds.
TEST(NetReorderTest, EndToEndSuppressionIsAccounted) {
  auto net = ParseNetSpec("latency:1+reorder:3");
  ASSERT_TRUE(net.ok());
  SystemConfig config =
      BaseConfig(ProtocolKind::kZtNrp, QuerySpec::Range(400, 600), 0, 0);
  config.net = *net;
  auto run = RunSystem(config);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->net.dropped_loss, 0u);
  EXPECT_GT(run->net.suppressed_stale, 0u);
  ExpectConservation(run->net, "reorder-e2e");
}

// ------------------------------------------- reconnect reconciliation

/// Partition up-edges trigger the summary-vector exchange: with
/// reconciliation every source reports once per up-edge; `norecon`
/// suppresses the exchange entirely. Both runs terminate.
TEST(NetReconcileTest, UpEdgeExchangesRunUnlessDisabled) {
  SystemConfig config =
      BaseConfig(ProtocolKind::kZtNrp, QuerySpec::Range(400, 600), 0, 0);
  auto with = ParseNetSpec("latency:2+partition:150,300");
  ASSERT_TRUE(with.ok());
  config.net = *with;
  auto reconciled = RunSystem(config);
  ASSERT_TRUE(reconciled.ok());
  // One up-edge (t=300) x 200 streams.
  EXPECT_EQ(reconciled->net.reconcile_exchanges, 200u);
  ExpectConservation(reconciled->net, "reconcile");

  auto without = ParseNetSpec("latency:2+partition:150,300+norecon");
  ASSERT_TRUE(without.ok());
  config.net = *without;
  auto bare = RunSystem(config);
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->net.reconcile_exchanges, 0u);
  EXPECT_EQ(bare->net.reconcile_deploys, 0u);
  ExpectConservation(bare->net, "norecon");
}

// ------------------------------------------------ staleness compensation

TEST(NetCompensationTest, ShrinksFiniteBoundsAndCollapsesCrossedBands) {
  const FilterConstraint range =
      FilterConstraint::Range(Interval(400, 600));
  const FilterConstraint shrunk = CompensateConstraint(range, 10);
  ASSERT_TRUE(shrunk.has_filter());
  EXPECT_DOUBLE_EQ(shrunk.interval().lo(), 410);
  EXPECT_DOUBLE_EQ(shrunk.interval().hi(), 590);

  // Margins that cross collapse to the original midpoint.
  const FilterConstraint collapsed = CompensateConstraint(range, 150);
  ASSERT_TRUE(collapsed.has_filter());
  EXPECT_DOUBLE_EQ(collapsed.interval().lo(), 500);
  EXPECT_DOUBLE_EQ(collapsed.interval().hi(), 500);

  // Infinite bounds stay put; only finite ones move.
  const FilterConstraint half =
      FilterConstraint::Range(Interval(-kInf, 600));
  const FilterConstraint half_shrunk = CompensateConstraint(half, 25);
  EXPECT_DOUBLE_EQ(half_shrunk.interval().lo(), -kInf);
  EXPECT_DOUBLE_EQ(half_shrunk.interval().hi(), 575);

  // Pass-through forms are untouched.
  EXPECT_TRUE(CompensateConstraint(FilterConstraint::NoFilter(), 10) ==
              FilterConstraint::NoFilter());
  EXPECT_TRUE(CompensateConstraint(FilterConstraint::FalsePositive(), 10) ==
              FilterConstraint::FalsePositive());
  EXPECT_TRUE(CompensateConstraint(FilterConstraint::FalseNegative(), 10) ==
              FilterConstraint::FalseNegative());
  // Zero margin is the identity.
  EXPECT_TRUE(CompensateConstraint(range, 0) == range);
}

/// comp composes with delay in the engine: the run completes and the
/// deterministic replay contract still holds.
TEST(NetCompensationTest, CompensatedRunsAreDeterministic) {
  auto net = ParseNetSpec("latency:5:2+comp:10");
  ASSERT_TRUE(net.ok());
  EXPECT_TRUE(net->DelaysDelivery());
  SystemConfig config =
      BaseConfig(ProtocolKind::kZtNrp, QuerySpec::Range(400, 600), 0, 0);
  config.net = *net;
  auto first = RunSystem(config);
  auto second = RunSystem(config);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectSameRun(*first, *second, "comp-replay");
}

// ------------------------------------------------------- adaptive RTO

TEST(RttEstimatorTest, FollowsRfc6298) {
  RttEstimator est;
  EXPECT_FALSE(est.has_sample());

  // First sample: srtt = R, rttvar = R/2, RTO = 3R.
  est.AddSample(10);
  ASSERT_TRUE(est.has_sample());
  EXPECT_DOUBLE_EQ(est.srtt(), 10);
  EXPECT_DOUBLE_EQ(est.rttvar(), 5);
  EXPECT_DOUBLE_EQ(est.Rto(1.0, 1000), 30);

  // Steady identical samples: srtt stays, rttvar decays by 3/4 — the
  // timeout converges down toward srtt.
  est.AddSample(10);
  EXPECT_DOUBLE_EQ(est.srtt(), 10);
  EXPECT_DOUBLE_EQ(est.rttvar(), 3.75);
  EXPECT_DOUBLE_EQ(est.Rto(1.0, 1000), 25);

  // A deviating sample moves both estimates with gains 1/8 and 1/4.
  est.AddSample(18);
  EXPECT_DOUBLE_EQ(est.srtt(), 11);  // 0.875*10 + 0.125*18
  EXPECT_DOUBLE_EQ(est.rttvar(), 0.75 * 3.75 + 0.25 * 8);

  // Clamps apply at both ends.
  RttEstimator tiny;
  tiny.AddSample(0);
  EXPECT_DOUBLE_EQ(tiny.Rto(1.0, 1000), 1.0);
  RttEstimator huge;
  huge.AddSample(500);
  EXPECT_DOUBLE_EQ(huge.Rto(1.0, 100), 100);
}

TEST(NetAdaptiveRtoTest, ParsesAdaptiveAndFixedForms) {
  // Adaptive is the default: no rto stage means rto_adaptive on.
  auto plain = ParseNetSpec("loss:0.1");
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->rto_adaptive);
  EXPECT_DOUBLE_EQ(plain->rto, 0);

  // Explicit adaptive with no cap canonicalizes away (it IS the default).
  auto adaptive = ParseNetSpec("latency:5+rto:adaptive");
  ASSERT_TRUE(adaptive.ok());
  EXPECT_TRUE(adaptive->rto_adaptive);
  EXPECT_EQ(adaptive->ToString(), "latency:5");

  // An explicit cap keeps a stage and round-trips.
  auto capped = ParseNetSpec("latency:5+rto:adaptive:160");
  ASSERT_TRUE(capped.ok());
  EXPECT_TRUE(capped->rto_adaptive);
  EXPECT_DOUBLE_EQ(capped->rto_max, 160);
  EXPECT_EQ(capped->ToString(), "latency:5+rto:adaptive:160");
  auto again = ParseNetSpec(capped->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->ToString(), capped->ToString());

  // rto:fixed pins the legacy auto-initial schedule and round-trips.
  auto fixed = ParseNetSpec("latency:5+rto:fixed");
  ASSERT_TRUE(fixed.ok());
  EXPECT_FALSE(fixed->rto_adaptive);
  EXPECT_DOUBLE_EQ(fixed->rto, 0);
  EXPECT_EQ(fixed->ToString(), "latency:5+rto:fixed");
  auto fixed_cap = ParseNetSpec("rto:fixed:40");
  ASSERT_TRUE(fixed_cap.ok());
  EXPECT_FALSE(fixed_cap->rto_adaptive);
  EXPECT_DOUBLE_EQ(fixed_cap->rto_max, 40);
  EXPECT_EQ(fixed_cap->ToString(), "rto:fixed:40");

  // A numeric timeout always wins over the adaptive flag.
  auto numeric = ParseNetSpec("rto:4:32");
  ASSERT_TRUE(numeric.ok());
  EXPECT_DOUBLE_EQ(numeric->rto, 4);

  // Malformed forms are rejected.
  EXPECT_FALSE(ParseNetSpec("rto:adaptive:x").ok());
  EXPECT_FALSE(ParseNetSpec("rto:bogus").ok());
  EXPECT_FALSE(ParseNetSpec("rto:adaptive:1:2").ok());
}

/// Warm link, then an outage: five clean deploy/ack exchanges (RTT = 2x
/// latency = 10 each) train the link's estimator, so the retransmit timer
/// for a copy lost at t=100 fires at the adaptive base
/// srtt + 4*rttvar = 10 + 4*(5 * 0.75^4) — earlier than the conservative
/// auto initial 4*latency = 20 that `rto:fixed` keeps.
TEST(NetAdaptiveRtoTest, TrainedLinkRetransmitsAtAdaptiveBase) {
  const double kAdaptiveBase = 10 + 4 * (5 * 0.75 * 0.75 * 0.75 * 0.75);
  struct Variant {
    const char* spec;
    double base;  // backoff base in effect at the t=100 timeout
  };
  const Variant kVariants[] = {
      {"latency:5+partition:100,103+norecon", kAdaptiveBase},
      {"latency:5+partition:100,103+norecon+rto:fixed", 20.0},
  };
  for (const Variant& v : kVariants) {
    auto net = ParseNetSpec(v.spec);
    ASSERT_TRUE(net.ok()) << v.spec;
    FaultRig rig(*net);
    const FilterConstraint c = FilterConstraint::Range(Interval(400, 600));
    // Five priming exchanges on link id=3, one per channel (the estimator
    // is per link, shared across query slots).
    for (std::size_t k = 0; k < 5; ++k) {
      rig.scheduler.RunUntil(static_cast<SimTime>(20 * k));
      rig.net->SendDeploy(/*slot=*/k, /*id=*/3, c, rig.scheduler.now());
    }
    rig.scheduler.RunUntil(100);
    // This copy hits the down window [100,103) and is dropped; the
    // retransmit goes out one backoff base later and arrives after the
    // one-way latency.
    rig.net->SendDeploy(/*slot=*/9, /*id=*/3, c, 100);
    rig.scheduler.RunUntil(200);
    rig.net->Finalize(200);

    ASSERT_EQ(rig.deploys.size(), 6u) << v.spec;
    EXPECT_DOUBLE_EQ(rig.deploys.back().at, 100 + v.base + 5) << v.spec;
    EXPECT_EQ(rig.net->stats().deploy_retransmits, 1u) << v.spec;
    EXPECT_EQ(rig.net->stats().deploy_unacked_at_end, 0u) << v.spec;
  }
}

/// Karn's rule: an exchange that needed a retransmit yields no RTT sample
/// (its ack is ambiguous), so a later timeout on the same link still uses
/// the conservative auto initial base, not a bogus estimate.
TEST(NetAdaptiveRtoTest, RetransmittedExchangesAreNotSampled) {
  auto net = ParseNetSpec("latency:5+partition:0,8,40,48+norecon");
  ASSERT_TRUE(net.ok());
  FaultRig rig(*net);
  const FilterConstraint c = FilterConstraint::Range(Interval(400, 600));

  // First install: the t=0 copy hits [0,8) and is dropped; the timeout
  // fires at the auto initial 4*latency = 20, the retransmit arrives at
  // 25 and its ack settles the channel — but the exchange was ambiguous,
  // so no sample is recorded.
  rig.net->SendDeploy(/*slot=*/0, /*id=*/7, c, 0);
  rig.scheduler.RunUntil(40);
  // Second install: the t=40 copy hits [40,48). If the first exchange had
  // (wrongly) been sampled the timer base would differ from 20; unsampled,
  // the retransmit again goes out exactly 20 later and arrives at 65.
  rig.net->SendDeploy(/*slot=*/1, /*id=*/7, c, 40);
  rig.scheduler.RunUntil(200);
  rig.net->Finalize(200);

  ASSERT_EQ(rig.deploys.size(), 2u);
  EXPECT_DOUBLE_EQ(rig.deploys[0].at, 25.0);
  EXPECT_DOUBLE_EQ(rig.deploys[1].at, 65.0);
  EXPECT_EQ(rig.net->stats().deploy_retransmits, 2u);
}

/// Instant-base configs: a zero round trip clamps the adaptive base to
/// exactly the legacy auto initial max(1, 0) = 1, so adaptive and fixed
/// schedules coincide and whole runs stay byte-identical.
TEST(NetAdaptiveRtoTest, InstantBaseAdaptiveMatchesFixedExactly) {
  auto net = ParseNetSpec("loss:0.12:3");
  ASSERT_TRUE(net.ok());
  SystemConfig config =
      BaseConfig(ProtocolKind::kFtNrp, QuerySpec::Range(400, 600), 0.2, 0);
  config.net = *net;
  auto adaptive = RunSystem(config);
  ASSERT_TRUE(adaptive.ok());
  config.net.rto_adaptive = false;
  auto fixed = RunSystem(config);
  ASSERT_TRUE(fixed.ok());
  ExpectSameRun(*adaptive, *fixed, "instant-adaptive");
  ExpectSameNetStats(adaptive->net, fixed->net, "instant-adaptive");
  EXPECT_GT(adaptive->net.deploy_retransmits, 0u);
}

/// Adaptive timers live on the coordinator's replayed-event order, so the
/// serial and sharded engines agree under a delayed lossy composite with
/// retransmissions actually happening, and runs replay exactly.
TEST(NetAdaptiveRtoTest, SerialMatchesShardedWithAdaptiveRto) {
  auto net = ParseNetSpec("latency:4+loss:0.1:2");
  ASSERT_TRUE(net.ok());
  ASSERT_TRUE(net->rto_adaptive);
  SystemConfig config =
      BaseConfig(ProtocolKind::kFtNrp, QuerySpec::Range(400, 600), 0.2, 0);
  config.net = *net;
  config.shards = 1;
  auto serial = RunSystem(config);
  ASSERT_TRUE(serial.ok());
  EXPECT_GT(serial->net.deploy_retransmits, 0u);
  auto replay = RunSystem(config);
  ASSERT_TRUE(replay.ok());
  ExpectSameRun(*serial, *replay, "adaptive-replay");
  ExpectSameNetStats(serial->net, replay->net, "adaptive-replay");
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    config.shards = shards;
    auto sharded = RunSystem(config);
    ASSERT_TRUE(sharded.ok());
    ExpectSameRun(*serial, *sharded, "adaptive-sharded");
    ExpectSameNetStats(serial->net, sharded->net, "adaptive-sharded");
  }
  ExpectConservation(serial->net, "adaptive");
}

}  // namespace
}  // namespace asf
