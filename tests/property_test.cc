#include <gtest/gtest.h>

#include <tuple>

#include "engine/system.h"
#include "geo/distance_streams.h"
#include "trace/tcp_synth.h"

/// \file
/// Property tests: for randomized workloads across protocols, tolerances
/// and seeds, the oracle judges the answer after EVERY generated update and
/// must never observe a tolerance violation — this is the paper's
/// Correctness Requirement 1/2 checked empirically (DESIGN.md §7).

namespace asf {
namespace {

SystemConfig WalkBase(std::uint64_t seed) {
  SystemConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 60;
  walk.sigma = 25;
  walk.seed = seed;
  config.source = SourceSpec::Walk(walk);
  config.duration = 400;
  config.seed = seed * 31 + 7;
  config.oracle.check_every_update = true;
  return config;
}

// ---------------------------------------------------------------------------
// Range-query protocols: NoFilter / ZT-NRP / FT-NRP never violate (eps+,
// eps-) at any instant.
// ---------------------------------------------------------------------------

using RangeParam =
    std::tuple<ProtocolKind, double /*eps*/, SelectionHeuristic,
               std::uint64_t /*seed*/>;

class RangeProtocolProperty : public ::testing::TestWithParam<RangeParam> {};

TEST_P(RangeProtocolProperty, ToleranceNeverViolated) {
  const auto [protocol, eps, heuristic, seed] = GetParam();
  SystemConfig config = WalkBase(seed);
  config.query = QuerySpec::Range(400, 600);
  config.protocol = protocol;
  config.fraction = {eps, eps};
  config.ft.heuristic = heuristic;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->oracle_checks, 200u);
  EXPECT_EQ(result->oracle_violations, 0u)
      << "maxF+=" << result->max_f_plus << " maxF-=" << result->max_f_minus;
  if (protocol != ProtocolKind::kFtNrp) {
    // Zero-tolerance protocols are exact at all times.
    EXPECT_EQ(result->max_f_plus, 0.0);
    EXPECT_EQ(result->max_f_minus, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ZeroToleranceProtocols, RangeProtocolProperty,
    ::testing::Combine(::testing::Values(ProtocolKind::kNoFilter,
                                         ProtocolKind::kZtNrp),
                       ::testing::Values(0.0),
                       ::testing::Values(SelectionHeuristic::kBoundaryNearest),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

INSTANTIATE_TEST_SUITE_P(
    FtNrpSweep, RangeProtocolProperty,
    ::testing::Combine(::testing::Values(ProtocolKind::kFtNrp),
                       ::testing::Values(0.0, 0.1, 0.25, 0.5),
                       ::testing::Values(SelectionHeuristic::kBoundaryNearest,
                                         SelectionHeuristic::kRandom),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

// FT-NRP with re-initialization enabled must stay correct too.
class FtNrpReinitProperty
    : public ::testing::TestWithParam<std::uint64_t /*seed*/> {};

TEST_P(FtNrpReinitProperty, ToleranceNeverViolated) {
  SystemConfig config = WalkBase(GetParam());
  config.query = QuerySpec::Range(400, 600);
  config.protocol = ProtocolKind::kFtNrp;
  config.fraction = {0.3, 0.3};
  config.ft.reinit = ReinitPolicy::kWhenExhausted;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->oracle_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtNrpReinitProperty,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u));

// ---------------------------------------------------------------------------
// Rank-query protocols with rank tolerance: RTP answers are always exactly
// k streams, every member ranking <= k + r (Definition 1).
// ---------------------------------------------------------------------------

using RtpParam = std::tuple<std::size_t /*k*/, std::size_t /*r*/,
                            std::uint64_t /*seed*/>;

class RtpProperty : public ::testing::TestWithParam<RtpParam> {};

TEST_P(RtpProperty, Definition1NeverViolated) {
  const auto [k, r, seed] = GetParam();
  SystemConfig config = WalkBase(seed);
  config.query = QuerySpec::Knn(k, 500);
  config.protocol = ProtocolKind::kRtp;
  config.rank_r = r;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->oracle_checks, 200u);
  EXPECT_EQ(result->oracle_violations, 0u)
      << "k=" << k << " r=" << r << " worst=" << result->max_worst_rank;
  EXPECT_LE(result->max_worst_rank, k + r);
  // |A(t)| == k at every sampled instant.
  EXPECT_DOUBLE_EQ(result->answer_size.min(), static_cast<double>(k));
  EXPECT_DOUBLE_EQ(result->answer_size.max(), static_cast<double>(k));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RtpProperty,
    ::testing::Combine(::testing::Values(1u, 3u, 8u),
                       ::testing::Values(0u, 2u, 10u),
                       ::testing::Values(21u, 22u, 23u)));

// Top-k flavor of RTP (q = +inf transformation).
class RtpTopKProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RtpTopKProperty, Definition1NeverViolated) {
  SystemConfig config = WalkBase(GetParam());
  config.query = QuerySpec::TopK(5);
  config.protocol = ProtocolKind::kRtp;
  config.rank_r = 3;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->oracle_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtpTopKProperty,
                         ::testing::Values(31u, 32u, 33u, 34u));

// ---------------------------------------------------------------------------
// Rank-query protocols with fraction tolerance: ZT-RP is always exact;
// FT-RP keeps F+ <= eps+ and F- <= eps- at every instant.
// ---------------------------------------------------------------------------

class ZtRpProperty : public ::testing::TestWithParam<
                         std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(ZtRpProperty, AlwaysExact) {
  const auto [k, seed] = GetParam();
  SystemConfig config = WalkBase(seed);
  // ZT-RP probes everyone on every crossing: keep the run short.
  config.duration = 150;
  config.query = QuerySpec::Knn(k, 500);
  config.protocol = ProtocolKind::kZtRp;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->oracle_violations, 0u)
      << "worst=" << result->max_worst_rank;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZtRpProperty,
    ::testing::Combine(::testing::Values(1u, 5u), ::testing::Values(41u, 42u)));

using FtRpParam = std::tuple<std::size_t /*k*/, double /*eps*/,
                             RhoPolicy, std::uint64_t /*seed*/>;

class FtRpProperty : public ::testing::TestWithParam<FtRpParam> {};

TEST_P(FtRpProperty, FractionToleranceNeverViolated) {
  const auto [k, eps, rho, seed] = GetParam();
  SystemConfig config = WalkBase(seed);
  config.query = QuerySpec::Knn(k, 500);
  config.protocol = ProtocolKind::kFtRp;
  config.fraction = {eps, eps};
  config.ft.rho = rho;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->oracle_checks, 200u);
  EXPECT_EQ(result->oracle_violations, 0u)
      << "k=" << k << " eps=" << eps << " maxF+=" << result->max_f_plus
      << " maxF-=" << result->max_f_minus;
  // Equations 8/10: |A| within [k/2, 2k] whenever eps < 0.5.
  EXPECT_GE(result->answer_size.min(), static_cast<double>(k) / 2.0);
  EXPECT_LE(result->answer_size.max(), 2.0 * static_cast<double>(k));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FtRpProperty,
    ::testing::Combine(::testing::Values(5u, 15u),
                       ::testing::Values(0.1, 0.3, 0.45),
                       ::testing::Values(RhoPolicy::kBalanced),
                       ::testing::Values(51u, 52u, 53u)));

INSTANTIATE_TEST_SUITE_P(
    RhoPolicies, FtRpProperty,
    ::testing::Combine(::testing::Values(15u), ::testing::Values(0.4),
                       ::testing::Values(RhoPolicy::kFavorPositive,
                                         RhoPolicy::kFavorNegative),
                       ::testing::Values(61u, 62u)));

// ---------------------------------------------------------------------------
// Broadcast cost model: accounting changes, behaviour does not — the exact
// same answers (and oracle verdicts) with fewer counted messages.
// ---------------------------------------------------------------------------

class BroadcastModelProperty
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(BroadcastModelProperty, OnlyAccountingChanges) {
  SystemConfig config = WalkBase(77);
  if (GetParam() == ProtocolKind::kFtNrp) {
    config.query = QuerySpec::Range(400, 600);
  } else {
    config.query = QuerySpec::Knn(5, 500);
  }
  config.protocol = GetParam();
  config.fraction = {0.3, 0.3};
  config.rank_r = 3;
  auto per_recipient = RunSystem(config);
  config.broadcast = BroadcastCostModel::kSingleMessage;
  auto broadcast = RunSystem(config);
  ASSERT_TRUE(per_recipient.ok());
  ASSERT_TRUE(broadcast.ok());
  // Identical dynamics...
  EXPECT_EQ(per_recipient->updates_generated, broadcast->updates_generated);
  EXPECT_EQ(per_recipient->updates_reported, broadcast->updates_reported);
  EXPECT_EQ(per_recipient->reinits, broadcast->reinits);
  EXPECT_EQ(per_recipient->oracle_violations, 0u);
  EXPECT_EQ(broadcast->oracle_violations, 0u);
  // ... with no more messages under the broadcast model.
  EXPECT_LE(broadcast->MaintenanceMessages(),
            per_recipient->MaintenanceMessages());
}

INSTANTIATE_TEST_SUITE_P(Protocols, BroadcastModelProperty,
                         ::testing::Values(ProtocolKind::kFtNrp,
                                           ProtocolKind::kRtp,
                                           ProtocolKind::kZtRp,
                                           ProtocolKind::kFtRp));

// ---------------------------------------------------------------------------
// Trace-driven property: the guarantees hold on the bursty, heavy-tailed
// TCP workload too, not just on the smooth random walk.
// ---------------------------------------------------------------------------

class TraceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceProperty, ToleranceHoldsOnTcpWorkload) {
  TcpSynthConfig synth;
  synth.num_subnets = 60;
  synth.total_connections = 3000;
  synth.duration = 500;
  synth.seed = GetParam();
  auto trace = GenerateTcpTrace(synth);
  ASSERT_TRUE(trace.ok());

  for (ProtocolKind kind : {ProtocolKind::kFtNrp, ProtocolKind::kRtp,
                            ProtocolKind::kFtRp}) {
    SystemConfig config;
    config.source = SourceSpec::Trace(&trace.value());
    config.duration = synth.duration;
    config.protocol = kind;
    config.fraction = {0.3, 0.3};
    config.rank_r = 5;
    config.query = (kind == ProtocolKind::kFtNrp)
                       ? QuerySpec::Range(400, 600)
                       : QuerySpec::TopK(8);
    config.oracle.check_every_update = true;
    auto result = RunSystem(config);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->oracle_violations, 0u)
        << ProtocolKindName(kind) << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceProperty,
                         ::testing::Values(71u, 72u, 73u));

// ---------------------------------------------------------------------------
// 2-D k-NN via the distance reduction: the 1-D guarantees carry over
// verbatim (paper §7).
// ---------------------------------------------------------------------------

using Plane2dParam = std::tuple<ProtocolKind, std::uint64_t /*seed*/>;

class PlaneKnnProperty : public ::testing::TestWithParam<Plane2dParam> {};

TEST_P(PlaneKnnProperty, ReducedKnnNeverViolates) {
  const auto [kind, seed] = GetParam();
  PlaneWalkConfig plane_config;
  plane_config.num_streams = 60;
  plane_config.sigma = 25;
  plane_config.seed = seed;
  PlaneWalkStreams plane(plane_config);
  DistanceStreamSet distances(&plane, {500, 500});

  SystemConfig config;
  config.source = SourceSpec::Custom(&distances);
  config.query = QuerySpec::BottomK(6);
  config.protocol = kind;
  config.fraction = {0.3, 0.3};
  config.rank_r = 4;
  config.duration = 300;
  config.oracle.check_every_update = true;
  auto result = RunSystem(config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->oracle_checks, 200u);
  EXPECT_EQ(result->oracle_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlaneKnnProperty,
    ::testing::Combine(::testing::Values(ProtocolKind::kRtp,
                                         ProtocolKind::kZtRp,
                                         ProtocolKind::kFtRp),
                       ::testing::Values(81u, 82u)));

// ---------------------------------------------------------------------------
// Cross-cutting: a same-config run is bit-for-bit reproducible.
// ---------------------------------------------------------------------------

class DeterminismProperty
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(DeterminismProperty, RunsAreReproducible) {
  SystemConfig config = WalkBase(99);
  config.oracle.check_every_update = false;
  switch (GetParam()) {
    case ProtocolKind::kZtNrp:
    case ProtocolKind::kFtNrp:
      config.query = QuerySpec::Range(400, 600);
      break;
    default:
      config.query = QuerySpec::Knn(5, 500);
      break;
  }
  config.protocol = GetParam();
  config.fraction = {0.3, 0.3};
  config.rank_r = 3;
  auto a = RunSystem(config);
  auto b = RunSystem(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->MaintenanceMessages(), b->MaintenanceMessages());
  EXPECT_EQ(a->reinits, b->reinits);
  EXPECT_DOUBLE_EQ(a->answer_size.mean(), b->answer_size.mean());
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, DeterminismProperty,
    ::testing::Values(ProtocolKind::kZtNrp, ProtocolKind::kFtNrp,
                      ProtocolKind::kRtp, ProtocolKind::kZtRp,
                      ProtocolKind::kFtRp));

}  // namespace
}  // namespace asf
