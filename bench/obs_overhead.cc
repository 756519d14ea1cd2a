/// Observability overhead microbenchmark (DESIGN.md §14). End-to-end
/// engine throughput (generated updates per wall second, the
/// micro_dispatch `engine` configuration shape) at Q=64 and Q=256
/// concurrent range queries, measured twice:
///
///  * baseline: no observability hooks — with ASF_OBS_TRACE=ON (the
///    default build) this is the *compiled-in-but-runtime-disabled*
///    cost the CI 3% gate guards: every trace point is one null-tracer
///    branch.
///  * enabled: tracer (all categories), metrics registry with periodic
///    snapshots, and the phase profiler all attached.
///
/// The ratio enabled/baseline is the full-observability tax. The
/// compiled-*out* baseline (-DASF_OBS_TRACE=OFF) lives in a different
/// binary by definition; CI's obs leg builds both and compares their
/// micro_dispatch numbers instead.
///
/// The bench also asserts inertness: both runs must produce identical
/// message counts and update totals.
///
/// Writes BENCH_obs_overhead.json by default (--json=PATH to override,
/// --json= to disable).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/multi_system.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace asf {
namespace {

constexpr std::size_t kStreams = 800;

struct ObsRunStats {
  double updates_per_sec = 0;
  std::uint64_t updates_generated = 0;
  std::uint64_t physical_maintenance = 0;
  std::uint64_t trace_records = 0;
};

/// One engine run with Q staggered range queries; `hooks` empty for the
/// baseline leg.
ObsRunStats RunOnce(std::size_t q_count, double duration,
                    const obs::ObsHooks& hooks) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = kStreams;
  walk.seed = 9;
  config.source = SourceSpec::Walk(walk);
  config.duration = duration;
  config.seed = 9;
  config.obs = hooks;
  for (std::size_t q = 0; q < q_count; ++q) {
    QueryDeployment dep;
    dep.name = std::string("q").append(std::to_string(q));
    const double lo = 100.0 + 50.0 * static_cast<double>(q % 16);
    dep.query = QuerySpec::Range(lo, lo + 100.0);
    dep.protocol = ProtocolKind::kZtNrp;
    config.queries.push_back(dep);
  }
  auto result = RunMultiQuerySystem(config);
  ASF_CHECK_MSG(result.ok(), result.status().ToString().c_str());

  ObsRunStats stats;
  stats.updates_generated = result->updates_generated;
  stats.physical_maintenance = result->PhysicalMaintenanceTotal();
  stats.updates_per_sec =
      static_cast<double>(result->updates_generated) / result->wall_seconds;
  if (hooks.tracer != nullptr) {
    stats.trace_records = hooks.tracer->total_records();
  }
  return stats;
}

int Main(int argc, char** argv) {
  const double scale = bench::Scale();
  const double duration = 2000 * scale;

  std::printf("=== obs_overhead (trace points compiled %s) ===\n",
              ASF_OBS_TRACE_COMPILED ? "in" : "out");

  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("obs_trace_compiled",
                       ASF_OBS_TRACE_COMPILED ? 1.0 : 0.0);
  for (const std::size_t q : {std::size_t{64}, std::size_t{256}}) {
    const ObsRunStats baseline = RunOnce(q, duration, obs::ObsHooks{});

    // Full observability: every category traced (ring sized so nothing
    // drops — a saturated ring would under-charge the Emit path),
    // metrics sampled on a fine grid, profiler attached.
    obs::Tracer tracer(obs::kCatAll, std::size_t{1} << 22);
    obs::MetricsRegistry registry;
    obs::Profiler profiler;
    obs::ObsHooks hooks;
    hooks.tracer = &tracer;
    hooks.metrics = &registry;
    hooks.metrics_every = duration / 200;
    hooks.profiler = &profiler;
    const ObsRunStats enabled = RunOnce(q, duration, hooks);

    ASF_CHECK_MSG(
        baseline.updates_generated == enabled.updates_generated &&
            baseline.physical_maintenance == enabled.physical_maintenance,
        "observability perturbed the run: results must be identical");

    const double tax = enabled.updates_per_sec > 0
                           ? baseline.updates_per_sec / enabled.updates_per_sec
                           : 0.0;
    std::printf(
        "Q=%-4zu baseline %10.3e up/s   all-enabled %10.3e up/s   "
        "tax %.3fx   (%llu trace records, %llu dropped)\n",
        q, baseline.updates_per_sec, enabled.updates_per_sec, tax,
        (unsigned long long)enabled.trace_records,
        (unsigned long long)tracer.total_dropped());

    const std::string tag = std::string("q").append(std::to_string(q));
    metrics.emplace_back("baseline_" + tag + "_updates_per_sec",
                         baseline.updates_per_sec);
    metrics.emplace_back("enabled_" + tag + "_updates_per_sec",
                         enabled.updates_per_sec);
    metrics.emplace_back("obs_tax_" + tag, tax);
    metrics.emplace_back("trace_records_" + tag,
                         static_cast<double>(enabled.trace_records));
  }

  return bench::FinishMicroBench(argc, argv, "BENCH_obs_overhead.json",
                                 "obs_overhead", metrics);
}

}  // namespace
}  // namespace asf

int main(int argc, char** argv) { return asf::Main(argc, argv); }
