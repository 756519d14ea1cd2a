/// End-to-end shard scaling of the multi-query engine: a (queries x
/// shards) grid of RunMultiQuerySystem throughput, the headline
/// measurement of the ShardedSimulationCore epoch pipeline (DESIGN.md §8).
///
/// Workload: Q concurrent ZT-NRP range queries with staggered windows
/// over one shared random-walk population — the fig11 configuration shape,
/// where per-update dispatch cost dominates as Q grows. shards=1 is the
/// classic serial engine; shards>1 partitions streams across worker
/// shards whose results are byte-identical to serial (the bench asserts
/// the physical message count to prove it measures the same run).
///
/// Reported per cell: generated updates per wall second, the
/// machine-stable ratios speedup_s{S} = cell / serial of the same Q, and
/// for sharded cells the measured replay fraction — the share of wall
/// time spent in the coordinator's serial replay stage, i.e. the serial
/// term of the Amdahl curve. On a multi-core host the s4 ratio is the
/// headline; on a single hardware thread it degrades to the epoch
/// pipeline's overhead factor (EXPERIMENTS.md records which environment
/// produced the checked-in baseline).
///
/// Writes BENCH_shard_scaling.json by default (--json=PATH to override,
/// --json= to disable).

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/simd.h"
#include "engine/multi_system.h"
#include "metrics/table.h"

namespace asf {
namespace {

MultiQueryConfig GridConfig(std::size_t q_count, std::size_t shards,
                            double duration) {
  MultiQueryConfig config;
  RandomWalkConfig walk;
  walk.num_streams = 800;
  walk.seed = 9;
  config.source = SourceSpec::Walk(walk);
  config.duration = duration;
  config.seed = 9;
  config.shards = shards;
  for (std::size_t q = 0; q < q_count; ++q) {
    QueryDeployment dep;
    dep.name = std::string("q").append(std::to_string(q));
    const double lo = 100.0 + 50.0 * static_cast<double>(q % 16);
    dep.query = QuerySpec::Range(lo, lo + 100.0);
    dep.protocol = ProtocolKind::kZtNrp;
    config.queries.push_back(dep);
  }
  return config;
}

int Main(int argc, char** argv) {
  const double scale = bench::Scale();
  const double duration = 1500 * scale;
  const std::size_t kQueries[] = {64, 256};
  const std::size_t kShards[] = {1, 2, 4, 8, 16};

  std::printf("=== shard_scaling (simd backend: %s, %u hardware threads) "
              "===\n",
              simd::KernelBackend(), std::thread::hardware_concurrency());
  TextTable table({"queries", "shards", "updates/sec", "speedup vs serial",
                   "replay frac"});
  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("simd_lanes",
                       static_cast<double>(simd::KernelLanes()));
  metrics.emplace_back("hardware_threads",
                       static_cast<double>(std::thread::hardware_concurrency()));

  for (const std::size_t q : kQueries) {
    double serial_rate = 0.0;
    std::uint64_t serial_physical = 0;
    for (const std::size_t s : kShards) {
      auto result = RunMultiQuerySystem(GridConfig(q, s, duration));
      ASF_CHECK_MSG(result.ok(), result.status().ToString().c_str());
      const double rate =
          static_cast<double>(result->updates_generated) /
          result->wall_seconds;
      if (s == 1) {
        serial_rate = rate;
        serial_physical = result->physical_updates;
      } else {
        // Sharded runs reproduce the serial run exactly; a mismatch here
        // means the bench is comparing different work.
        ASF_CHECK(result->physical_updates == serial_physical);
      }
      const double speedup = rate / serial_rate;
      const double replay_fraction =
          result->wall_seconds > 0
              ? result->replay_seconds / result->wall_seconds
              : 0.0;
      table.AddRow({Fmt("%zu", q), Fmt("%zu", s), Fmt("%.3e", rate),
                    Fmt("%.2fx", speedup),
                    s == 1 ? std::string("-")
                           : Fmt("%.2f", replay_fraction)});
      metrics.emplace_back(
          Fmt("q%zu_s%zu_updates_per_sec", q, s), rate);
      if (s != 1) {
        metrics.emplace_back(Fmt("q%zu_speedup_s%zu", q, s), speedup);
        metrics.emplace_back(Fmt("q%zu_s%zu_replay_fraction", q, s),
                             replay_fraction);
      }
    }
  }
  std::printf("%s", table.ToString().c_str());

  return bench::FinishMicroBench(argc, argv, "BENCH_shard_scaling.json",
                                 "shard_scaling", metrics);
}

}  // namespace
}  // namespace asf

int main(int argc, char** argv) { return asf::Main(argc, argv); }
