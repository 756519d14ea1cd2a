#include "stream/random_walk.h"

#include <limits>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "sim/scheduler.h"
#include "stream/trace_source.h"

namespace asf {
namespace {

// --- RandomWalkStreams (the paper's §6.2 synthetic model) ---

TEST(RandomWalkTest, ConfigValidation) {
  RandomWalkConfig ok;
  EXPECT_TRUE(ok.Validate().ok());
  RandomWalkConfig bad = ok;
  bad.num_streams = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ok;
  bad.init_lo = bad.init_hi;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ok;
  bad.mean_interarrival = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ok;
  bad.sigma = -1;
  EXPECT_FALSE(bad.Validate().ok());
}

// A non-finite setting would walk NaN values or never schedule an update;
// Validate refuses it instead of running.
TEST(RandomWalkTest, ConfigRejectsNonFinite) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const RandomWalkConfig ok;
  for (const double v : {nan, inf, -inf}) {
    RandomWalkConfig bad = ok;
    bad.sigma = v;
    EXPECT_FALSE(bad.Validate().ok()) << "sigma " << v;
    bad = ok;
    bad.mean_interarrival = v;
    EXPECT_FALSE(bad.Validate().ok()) << "mean_interarrival " << v;
    bad = ok;
    bad.init_lo = v;
    EXPECT_FALSE(bad.Validate().ok()) << "init_lo " << v;
    bad = ok;
    bad.init_hi = v;
    EXPECT_FALSE(bad.Validate().ok()) << "init_hi " << v;
  }
  RandomWalkConfig still_ok = ok;
  still_ok.sigma = 0;  // a constant stream is a valid walk
  EXPECT_TRUE(still_ok.Validate().ok());
}

TEST(RandomWalkTest, InitialValuesUniformInRange) {
  RandomWalkConfig config;
  config.num_streams = 20000;
  config.seed = 3;
  RandomWalkStreams streams(config);
  OnlineStats stats;
  for (StreamId id = 0; id < streams.size(); ++id) {
    const Value v = streams.value(id);
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1000.0);
    stats.Add(v);
  }
  EXPECT_NEAR(stats.mean(), 500.0, 10.0);
  // Uniform sd = 1000/sqrt(12) ~ 288.7.
  EXPECT_NEAR(stats.stddev(), 288.7, 10.0);
}

TEST(RandomWalkTest, InterarrivalMeanMatchesConfig) {
  RandomWalkConfig config;
  config.num_streams = 200;
  config.mean_interarrival = 20;
  config.seed = 5;
  RandomWalkStreams streams(config);
  Scheduler sched;
  streams.Start(&sched, 4000);
  sched.RunUntil(4000);
  // Expected updates ~ n * duration / mean = 200 * 4000/20 = 40000.
  EXPECT_NEAR(static_cast<double>(streams.updates_generated()), 40000, 1500);
}

TEST(RandomWalkTest, StepSizeMatchesSigma) {
  RandomWalkConfig config;
  config.num_streams = 1;
  config.sigma = 20;
  config.reflect = false;
  config.seed = 11;
  RandomWalkStreams streams(config);
  Scheduler sched;
  OnlineStats steps;
  Value prev = streams.value(0);
  streams.set_update_handler([&](StreamId, Value v, SimTime) {
    steps.Add(v - prev);
    prev = v;
  });
  streams.Start(&sched, 2.0e6);
  sched.RunUntil(2.0e6);
  ASSERT_GT(steps.count(), 50000u);
  EXPECT_NEAR(steps.mean(), 0.0, 0.5);
  EXPECT_NEAR(steps.stddev(), 20.0, 0.5);
}

TEST(RandomWalkTest, ReflectionKeepsValuesInDomain) {
  RandomWalkConfig config;
  config.num_streams = 50;
  config.sigma = 200;  // violent steps to stress the reflection
  config.seed = 13;
  RandomWalkStreams streams(config);
  Scheduler sched;
  streams.set_update_handler([](StreamId, Value v, SimTime) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1000.0);
  });
  streams.Start(&sched, 2000);
  sched.RunUntil(2000);
  EXPECT_GT(streams.updates_generated(), 1000u);
}

TEST(RandomWalkTest, UnboundedWalkDrifts) {
  RandomWalkConfig config;
  config.num_streams = 100;
  config.sigma = 50;
  config.reflect = false;
  config.seed = 17;
  RandomWalkStreams streams(config);
  Scheduler sched;
  streams.Start(&sched, 20000);
  sched.RunUntil(20000);
  // Without reflection some stream must have escaped [0, 1000].
  bool escaped = false;
  for (StreamId id = 0; id < streams.size(); ++id) {
    if (streams.value(id) < 0 || streams.value(id) > 1000) escaped = true;
  }
  EXPECT_TRUE(escaped);
}

TEST(RandomWalkTest, DeterministicAcrossRuns) {
  RandomWalkConfig config;
  config.num_streams = 30;
  config.seed = 23;
  std::vector<Value> first;
  for (int run = 0; run < 2; ++run) {
    RandomWalkStreams streams(config);
    Scheduler sched;
    streams.Start(&sched, 500);
    sched.RunUntil(500);
    if (run == 0) {
      first = streams.values();
    } else {
      EXPECT_EQ(streams.values(), first);
    }
  }
}

TEST(RandomWalkTest, HandlerSeesMonotoneTimes) {
  RandomWalkConfig config;
  config.num_streams = 20;
  config.seed = 29;
  RandomWalkStreams streams(config);
  Scheduler sched;
  SimTime last = 0;
  streams.set_update_handler([&](StreamId, Value, SimTime t) {
    EXPECT_GE(t, last);
    last = t;
  });
  streams.Start(&sched, 1000);
  sched.RunUntil(1000);
  EXPECT_GT(last, 0.0);
}

// --- TraceStreams ---

TraceData SmallTrace() {
  TraceData trace;
  trace.num_streams = 3;
  trace.initial_values = {10, 20, 30};
  trace.records = {
      {1.0, 0, 15}, {2.0, 1, 25}, {2.0, 2, 35}, {5.0, 0, 5},
  };
  return trace;
}

TEST(TraceStreamsTest, ValidationCatchesBadTraces) {
  TraceData t = SmallTrace();
  EXPECT_TRUE(t.Validate().ok());
  t.records[0].stream = 99;
  EXPECT_FALSE(t.Validate().ok());

  t = SmallTrace();
  std::swap(t.records[0], t.records[3]);  // out of order
  EXPECT_FALSE(t.Validate().ok());

  t = SmallTrace();
  t.initial_values.pop_back();
  EXPECT_FALSE(t.Validate().ok());

  t = SmallTrace();
  t.num_streams = 0;
  EXPECT_FALSE(t.Validate().ok());
}

TEST(TraceStreamsTest, InitialValuesApplied) {
  const TraceData trace = SmallTrace();
  TraceStreams streams(&trace);
  EXPECT_EQ(streams.value(0), 10);
  EXPECT_EQ(streams.value(1), 20);
  EXPECT_EQ(streams.value(2), 30);
}

TEST(TraceStreamsTest, ReplaysInOrder) {
  const TraceData trace = SmallTrace();
  TraceStreams streams(&trace);
  Scheduler sched;
  std::vector<std::pair<StreamId, Value>> seen;
  streams.set_update_handler([&](StreamId id, Value v, SimTime) {
    seen.push_back({id, v});
  });
  streams.Start(&sched, 100);
  sched.RunUntil(100);
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], (std::pair<StreamId, Value>{0, 15}));
  EXPECT_EQ(seen[3], (std::pair<StreamId, Value>{0, 5}));
  EXPECT_EQ(streams.value(0), 5);
  EXPECT_EQ(streams.value(1), 25);
}

TEST(TraceStreamsTest, HorizonTruncatesReplay) {
  const TraceData trace = SmallTrace();
  TraceStreams streams(&trace);
  Scheduler sched;
  streams.Start(&sched, 2.0);  // cut off the t=5 record
  sched.RunUntil(2.0);
  EXPECT_EQ(streams.updates_generated(), 3u);
  EXPECT_EQ(streams.value(0), 15);  // t=5 record never applied
}

TEST(TraceStreamsTest, EmptyTraceIsFine) {
  TraceData trace;
  trace.num_streams = 2;
  TraceStreams streams(&trace);
  Scheduler sched;
  streams.Start(&sched, 100);
  sched.RunUntil(100);
  EXPECT_EQ(streams.updates_generated(), 0u);
  EXPECT_EQ(streams.value(0), 0.0);  // default initial value
}

TEST(TraceStreamsTest, DurationReportsLastRecordTime) {
  EXPECT_EQ(SmallTrace().Duration(), 5.0);
  EXPECT_EQ(TraceData{}.Duration(), 0.0);
}

}  // namespace
}  // namespace asf
