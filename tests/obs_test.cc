#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "engine/churn.h"
#include "engine/multi_system.h"
#include "engine/system.h"
#include "metrics/bench_json.h"
#include "net/network_model.h"
#include "net_counters.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "obs/trace_convert.h"
#include "query_stats_equal.h"

// Unified observability layer (DESIGN.md §14): tracer ring semantics,
// binary <-> Chrome JSON round trip, histogram bucket math, profiler
// attribution, snapshot grid — and above all the inertness contract:
// attaching every observability facility must leave engine results
// bit-identical.

namespace asf {
namespace {

// --- Trace ring ---

TEST(TraceRingTest, OverflowDropsAndCountsInsteadOfBlocking) {
  obs::TraceRing ring(4);
  obs::TraceRecord record;
  for (int i = 0; i < 10; ++i) {
    record.id = static_cast<std::uint32_t>(i);
    ring.Push(record);
  }
  EXPECT_EQ(ring.records().size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  // The survivors are the first four — drops happen at the tail.
  EXPECT_EQ(ring.records()[3].id, 3u);
}

TEST(TracerTest, EmitRespectsCategoryMask) {
  obs::Tracer tracer(obs::kCatWire);
  tracer.EnsureRings(1);
  EXPECT_TRUE(tracer.Wants(obs::kCatWire));
  EXPECT_FALSE(tracer.Wants(obs::kCatUpdate));
  ASF_TRACE_EVENT(&tracer, 0, obs::TraceEventType::kWireSend, 1.0, 7, 0.5, 2);
  ASF_TRACE_EVENT(&tracer, 0, obs::TraceEventType::kValueUpdate, 2.0, 8, 0.5,
                  0);
#if ASF_OBS_TRACE_COMPILED
  ASSERT_EQ(tracer.total_records(), 1u);
  EXPECT_EQ(tracer.ring(0).records()[0].type,
            static_cast<std::uint16_t>(obs::TraceEventType::kWireSend));
#else
  EXPECT_EQ(tracer.total_records(), 0u);
#endif
}

TEST(TracerTest, ParseCategoryMask) {
  EXPECT_EQ(obs::ParseCategoryMask("all").value(), obs::kCatAll);
  EXPECT_EQ(obs::ParseCategoryMask("").value(), obs::kCatAll);
  EXPECT_EQ(obs::ParseCategoryMask("update,wire").value(),
            obs::kCatUpdate | obs::kCatWire);
  EXPECT_EQ(obs::ParseCategoryMask("spill").value(), obs::kCatSpill);
  EXPECT_FALSE(obs::ParseCategoryMask("bogus").ok());
}

// --- Binary file <-> Chrome JSON round trip ---

TEST(TraceConvertTest, BinaryRoundTripPreservesRecordsAndDrops) {
  obs::Tracer tracer(obs::kCatAll, 2);
  tracer.EnsureRings(3);
  tracer.Emit(0, obs::TraceEventType::kValueUpdate, 1.5, 11, 42.0, 0);
  tracer.Emit(0, obs::TraceEventType::kCrossing, 2.5, 12, 43.0, 3);
  tracer.Emit(0, obs::TraceEventType::kWireSend, 3.5, 13, 0.0, 1);  // dropped
  tracer.Emit(2, obs::TraceEventType::kEpochBarrier, 4.0, 0, 0.0, 9);

  const std::string path = ::testing::TempDir() + "/obs_roundtrip.trace";
  ASSERT_TRUE(tracer.WriteBinary(path).ok());

  const auto data = obs::ReadTraceBinary(path);
  ASSERT_TRUE(data.ok());
  ASSERT_EQ(data->rings.size(), 3u);
  EXPECT_EQ(data->rings[0].records.size(), 2u);
  EXPECT_EQ(data->rings[0].dropped, 1u);
  EXPECT_EQ(data->rings[1].records.size(), 0u);
  EXPECT_EQ(data->rings[2].records.size(), 1u);
  EXPECT_EQ(data->total_records(), 3u);
  EXPECT_EQ(data->total_dropped(), 1u);

  const obs::TraceRecord& first = data->rings[0].records[0];
  EXPECT_DOUBLE_EQ(first.time, 1.5);
  EXPECT_EQ(first.id, 11u);
  EXPECT_DOUBLE_EQ(first.value, 42.0);
  const obs::TraceRecord& barrier = data->rings[2].records[0];
  EXPECT_EQ(barrier.aux, 9u);
  EXPECT_EQ(barrier.ring, 2u);

  const std::string json = obs::ChromeTraceJson(*data);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"value_update\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch_barrier\""), std::string::npos);
  // Sim-time 1.5 on the default 1e6 ts axis.
  EXPECT_NE(json.find("1500000"), std::string::npos);
}

TEST(TraceConvertTest, RejectsGarbageFile) {
  const std::string path = ::testing::TempDir() + "/obs_garbage.trace";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("not a trace", f);
  std::fclose(f);
  EXPECT_FALSE(obs::ReadTraceBinary(path).ok());
}

// --- Log-bucketed histogram ---

TEST(LogHistogramTest, BucketBoundariesWithUnitMin) {
  obs::LogHistogram hist(1.0, 8);  // buckets: under, 6 ranges, over
  EXPECT_EQ(hist.BucketOf(0.0), 0u);    // underflow
  EXPECT_EQ(hist.BucketOf(0.999), 0u);  // underflow
  EXPECT_EQ(hist.BucketOf(-3.0), 0u);
  EXPECT_EQ(hist.BucketOf(std::nan("")), 0u);
  EXPECT_EQ(hist.BucketOf(1.0), 1u);   // [1, 2)
  EXPECT_EQ(hist.BucketOf(1.999), 1u);
  EXPECT_EQ(hist.BucketOf(2.0), 2u);   // exact power of two: low edge
  EXPECT_EQ(hist.BucketOf(3.999), 2u);
  EXPECT_EQ(hist.BucketOf(4.0), 3u);
  EXPECT_EQ(hist.BucketOf(32.0), 6u);  // [32, 64) is the last range
  EXPECT_EQ(hist.BucketOf(64.0), 7u);  // overflow
  EXPECT_EQ(hist.BucketOf(1e30), 7u);
  EXPECT_DOUBLE_EQ(hist.bucket_lo(1), 1.0);
  EXPECT_DOUBLE_EQ(hist.bucket_lo(3), 4.0);
}

TEST(LogHistogramTest, MergeIsAssociativeAndCommutative) {
  const double values_a[] = {0.5, 1.0, 7.0, 100.0};
  const double values_b[] = {2.0, 2.0, 1e9};
  const double values_c[] = {0.0, 3.5, 64.0, 64.0, 1.25};
  auto fill = [](const double* vals, std::size_t n) {
    obs::LogHistogram h(1.0, 16);
    for (std::size_t i = 0; i < n; ++i) h.Add(vals[i]);
    return h;
  };

  // (a + b) + c
  obs::LogHistogram left = fill(values_a, 4);
  left.Merge(fill(values_b, 3));
  left.Merge(fill(values_c, 5));
  // a + (c + b)
  obs::LogHistogram inner = fill(values_c, 5);
  inner.Merge(fill(values_b, 3));
  obs::LogHistogram right = fill(values_a, 4);
  right.Merge(inner);

  ASSERT_EQ(left.count(), right.count());
  EXPECT_DOUBLE_EQ(left.sum(), right.sum());
  for (std::size_t i = 0; i < left.buckets(); ++i) {
    EXPECT_EQ(left.bucket_count(i), right.bucket_count(i)) << "bucket " << i;
  }
}

// --- Metrics registry ---

TEST(MetricsRegistryTest, SnapshotsSampleGaugesInOrder) {
  obs::MetricsRegistry registry;
  double x = 1.0;
  registry.RegisterGauge("x", [&x] { return x; });
  registry.RegisterGauge("twice_x", [&x] { return 2 * x; });
  registry.SnapshotAt(10);
  x = 5.0;
  registry.SnapshotAt(20);
  registry.ClearGauges();

  ASSERT_EQ(registry.series().size(), 2u);
  EXPECT_EQ(registry.series()[0].time, 10);
  EXPECT_EQ(registry.series()[0].values[1], 2.0);
  EXPECT_EQ(registry.series()[1].values[0], 5.0);
  EXPECT_EQ(registry.series()[1].values[1], 10.0);
  // Names survive ClearGauges — TimeSeriesJson needs the column header.
  const std::string json = registry.TimeSeriesJson();
  EXPECT_NE(json.find("\"twice_x\""), std::string::npos);
}

TEST(MetricsRegistryTest, NetSinkCreatesHistogramsOnce) {
  obs::MetricsRegistry registry;
  obs::NetMetricsSink* sink = registry.net_sink();
  ASSERT_NE(sink->staleness, nullptr);
  sink->staleness->Add(3.0);
  EXPECT_EQ(registry.net_sink(), sink);  // idempotent
  EXPECT_EQ(registry.FindHistogram("net_staleness")->count(), 1u);
}

// --- Profiler ---

TEST(ProfilerTest, NestedScopesAttributeExclusively) {
  obs::Profiler profiler;
  {
    obs::ScopedPhase root(&profiler, obs::Phase::kOther);
    {
      obs::ScopedPhase dispatch(&profiler, obs::Phase::kDispatch);
      obs::ScopedPhase nested(&profiler, obs::Phase::kNetFlush);
    }
  }
  const obs::ProfileReport report = profiler.Merged();
  EXPECT_GT(report.of(obs::Phase::kOther), 0.0);
  EXPECT_GE(report.of(obs::Phase::kDispatch), 0.0);
  EXPECT_GE(report.of(obs::Phase::kNetFlush), 0.0);
  // Exclusive attribution: phases sum to the total, not more.
  const double sum = report.of(obs::Phase::kOther) +
                     report.of(obs::Phase::kDispatch) +
                     report.of(obs::Phase::kNetFlush);
  EXPECT_DOUBLE_EQ(report.total(), sum);
  const std::string table = profiler.FormatTable(report.total());
  EXPECT_NE(table.find("obs profile"), std::string::npos);
  const std::string json = profiler.ProfileJson();
  EXPECT_NE(json.find("\"total\""), std::string::npos);
}

TEST(ProfilerTest, NullProfilerScopesAreNoops) {
  obs::ScopedPhase scope(nullptr, obs::Phase::kDispatch);  // must not crash
}

// --- JsonWriter blocks ---

TEST(JsonWriterTest, BlocksComeAfterTheMetricsObject) {
  metrics::JsonWriter writer("unit");
  writer.SetProvenance({{"key", "val"}});
  writer.AddMetric("m", 1.5);
  writer.AddBlock("extra", "{\"a\": 1}");
  const std::string json = writer.ToJson();
  const auto metrics_pos = json.find("\"metrics\"");
  const auto prov_pos = json.find("\"provenance\"");
  const auto block_pos = json.find("\"extra\"");
  ASSERT_NE(metrics_pos, std::string::npos);
  EXPECT_LT(prov_pos, metrics_pos);  // strings before the flat scan
  EXPECT_GT(block_pos, metrics_pos);  // blocks after the gated object
}

// --- Telemetry blocks ---

TEST(TelemetryTest, SpillBlockEmptyWhenDisabled) {
  SpillTelemetry spill;  // enabled = false
  const obs::TelemetryBlock block = obs::SpillTelemetryBlock(spill);
  EXPECT_TRUE(block.rows().empty());
  EXPECT_TRUE(block.metrics().empty());
}

TEST(TelemetryTest, NetBlockGatesOnDelayingModel) {
  NetConfig instant;  // default: instant, not delaying
  NetStats stats;
  EXPECT_TRUE(obs::NetTelemetryBlock(instant, stats, nullptr).rows().empty());

  const NetConfig batch = ParseNetSpec("batch:5").value();
  const obs::TelemetryBlock block = obs::NetTelemetryBlock(batch, stats,
                                                           nullptr);
  ASSERT_FALSE(block.rows().empty());
  EXPECT_EQ(block.rows()[0].first, "net model");
}

// --- Inertness: the acceptance criterion ---

struct InertnessCase {
  const char* label;
  ProtocolKind protocol;
  QuerySpec query;
  FractionTolerance fraction;
  std::size_t rank_r;
};

/// The six protocols: range queries under ε± = 0.2, rank queries as a
/// top-20 with ε+ = 0.3 and RTP slack r = 5.
const InertnessCase kInertnessCases[] = {
    {"no-filter", ProtocolKind::kNoFilter, QuerySpec::Range(400, 600),
     {0.2, 0.2}, 0},
    {"zt-nrp", ProtocolKind::kZtNrp, QuerySpec::Range(400, 600), {0.2, 0.2},
     0},
    {"ft-nrp", ProtocolKind::kFtNrp, QuerySpec::Range(400, 600), {0.2, 0.2},
     0},
    {"rtp", ProtocolKind::kRtp, QuerySpec::TopK(20), {0.3, 0}, 5},
    {"zt-rp", ProtocolKind::kZtRp, QuerySpec::TopK(20), {0.3, 0}, 5},
    {"ft-rp", ProtocolKind::kFtRp, QuerySpec::TopK(20), {0.3, 0}, 5},
};

constexpr SimTime kObsDuration = 900;
constexpr SimTime kObsMetricsEvery = 100;

SystemConfig ObsTestConfig(const InertnessCase& c, std::size_t shards,
                           const char* net) {
  SystemConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 500;
  walk.seed = 5;
  config.source = SourceSpec::Walk(walk);
  config.duration = kObsDuration;
  config.seed = 5;
  config.shards = shards;
  config.query = c.query;
  config.protocol = c.protocol;
  config.fraction = c.fraction;
  config.rank_r = c.rank_r;
  config.net = ParseNetSpec(net).value();
  config.oracle.sample_interval = 120;
  return config;
}

/// Attaches every facility (all trace categories, metrics snapshots,
/// profiler) to `hooks`.
struct ObsFacilities {
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  obs::Profiler profiler;

  void Attach(obs::ObsHooks* hooks) {
    hooks->tracer = &tracer;
    hooks->metrics = &registry;
    hooks->metrics_every = kObsMetricsEvery;
    hooks->profiler = &profiler;
  }

  /// The facilities actually ran: snapshots on the sim-time grid and,
  /// when compiled in, per-ring sim-time-ordered trace records (each ring
  /// is written by one thread in dispatch order).
  void ExpectRan(SimTime duration, std::size_t shards,
                 const std::string& label) {
    EXPECT_EQ(registry.series().size(),
              static_cast<std::size_t>(duration / kObsMetricsEvery))
        << label;
#if ASF_OBS_TRACE_COMPILED
    EXPECT_GT(tracer.total_records(), 0u) << label;
    for (std::size_t r = 0; r < tracer.ring_count(); ++r) {
      double last = -1e300;
      std::uint64_t updates_in_ring = 0;
      for (const obs::TraceRecord& record : tracer.ring(r).records()) {
        if (record.type !=
            static_cast<std::uint16_t>(obs::TraceEventType::kValueUpdate)) {
          continue;
        }
        EXPECT_GE(record.time, last) << label << " ring " << r;
        last = record.time;
        ++updates_in_ring;
      }
      if (r < shards) {
        EXPECT_GT(updates_in_ring, 0u) << label << " ring " << r;
      }
    }
#endif
    EXPECT_GT(profiler.Merged().total(), 0.0) << label;
  }
};

void ExpectSameNet(const NetStats& a, const NetStats& b,
                   const std::string& label) {
  const auto ca = NetCounters(a);
  const auto cb = NetCounters(b);
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].second, cb[i].second) << label << " " << ca[i].first;
  }
  ExpectSameMoments(a.delay, b.delay, "net.delay");
}

void ExpectIdenticalResults(const RunResult& a, const RunResult& b,
                            const std::string& label) {
  SCOPED_TRACE(label);
  ExpectSameQueryStats(a, b);
  EXPECT_EQ(a.updates_generated, b.updates_generated);
  ExpectSameNet(a.net, b.net, label);
}

/// Six protocols × shards {1, 4}, on a batched net and on a delayed lossy
/// one (retransmitting deploys, probe retries): obs-on ≡ obs-off.
TEST(ObsInertnessTest, ProtocolsAndShardsAreByteIdentical) {
  for (const char* net : {"batch:10", "latency:4+loss:0.05:3"}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      for (const InertnessCase& c : kInertnessCases) {
        const std::string label = std::string(c.label) + " " + net +
                                  " s" + std::to_string(shards);
        const auto baseline = RunSystem(ObsTestConfig(c, shards, net));
        ASSERT_TRUE(baseline.ok()) << label << baseline.status().ToString();
        ObsFacilities facilities;
        SystemConfig config = ObsTestConfig(c, shards, net);
        facilities.Attach(&config.obs);
        const auto observed = RunSystem(config);
        ASSERT_TRUE(observed.ok()) << label << observed.status().ToString();
        ExpectIdenticalResults(*baseline, *observed, label);
        facilities.ExpectRan(kObsDuration, shards, label);
      }
    }
  }
}

/// An open ZT-NRP population (arrival rate 0.2, mean lifetime 150) over
/// 400 streams, serial and at four shards: obs-on ≡ obs-off per query.
TEST(ObsInertnessTest, ChurnIsByteIdentical) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 400;
  walk.seed = 5;
  config.source = SourceSpec::Walk(walk);
  config.duration = 800;
  config.seed = 5;
  ChurnSpec spec;
  spec.arrival_rate = 0.2;
  spec.mean_lifetime = 150;
  spec.seed = 5;
  ChurnMixEntry entry;
  entry.protocol = ProtocolKind::kZtNrp;
  spec.mix.push_back(entry);
  auto deployments = ExpandChurn(spec, config.duration);
  ASSERT_TRUE(deployments.ok());
  config.queries = std::move(deployments).value();
  ASSERT_GE(config.queries.size(), 100u);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    const std::string label = "churn s" + std::to_string(shards);
    config.shards = shards;
    config.obs = obs::ObsHooks{};
    const auto baseline = RunMultiQuerySystem(config);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    ObsFacilities facilities;
    facilities.Attach(&config.obs);
    const auto observed = RunMultiQuerySystem(config);
    ASSERT_TRUE(observed.ok()) << observed.status().ToString();

    EXPECT_EQ(baseline->updates_generated, observed->updates_generated);
    EXPECT_EQ(baseline->physical_updates, observed->physical_updates);
    EXPECT_EQ(baseline->peak_live_queries, observed->peak_live_queries);
    ExpectSameNet(baseline->net, observed->net, label);
    ASSERT_EQ(baseline->queries.size(), observed->queries.size());
    for (std::size_t q = 0; q < baseline->queries.size(); ++q) {
      SCOPED_TRACE(label + " " + baseline->queries[q].name);
      ExpectSameQueryStats(baseline->queries[q], observed->queries[q]);
    }
    facilities.ExpectRan(config.duration, shards, label);
  }
}

}  // namespace
}  // namespace asf
