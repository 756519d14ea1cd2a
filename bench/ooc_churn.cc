/// Out-of-core churn bench (DESIGN.md §13) — resident footprint and
/// spill-log volume when the cumulative query population dwarfs the peak
/// live population.
///
/// Workload: a long-horizon churn schedule (Poisson arrivals with short
/// exponential lifetimes) whose cumulative deployment count is >= 20x
/// the peak live count. In-memory, the engine's resident state scales
/// with peak live (lazy slot wiring + spill-on-retire keep pre-deploy
/// and post-retire slots skeletal); with --spill the closed books move
/// to an append-only scratch log whose write buffer caps the RAM the
/// cold state may occupy.
///
/// One spilled run is compared against the in-memory run: the bench
/// reports the records and payload bytes spilled, the log length (equal
/// to the payload — records are packed, no page padding) and the
/// resident write-buffer bytes, and asserts the spilled run reproduces
/// the in-memory run exactly (the byte-identity contract).
///
/// Writes BENCH_ooc_churn.json by default (--json=PATH to override,
/// --json= to disable). CI gates spill_identical, the cumulative/peak
/// ratio and a file_bytes ceiling (see .github/workflows/ci.yml).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "engine/churn.h"
#include "engine/multi_system.h"
#include "metrics/table.h"

namespace asf {
namespace {

std::string ScratchDir() {
  const char* env = std::getenv("TMPDIR");
  return env != nullptr && env[0] != '\0' ? env : "/tmp";
}

/// Exact equality of everything the result reports per query — the same
/// fields the spill_test equivalence suite checks.
bool SameResults(const MultiQueryResult& a, const MultiQueryResult& b) {
  if (a.queries.size() != b.queries.size()) return false;
  if (a.updates_generated != b.updates_generated) return false;
  if (a.physical_updates != b.physical_updates) return false;
  if (a.peak_live_queries != b.peak_live_queries) return false;
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    const auto& qa = a.queries[i];
    const auto& qb = b.queries[i];
    if (qa.name != qb.name) return false;
    for (int p = 0; p < kNumMessagePhases; ++p) {
      for (int t = 0; t < kNumMessageTypes; ++t) {
        if (qa.messages.count(static_cast<MessagePhase>(p),
                              static_cast<MessageType>(t)) !=
            qb.messages.count(static_cast<MessagePhase>(p),
                              static_cast<MessageType>(t))) {
          return false;
        }
      }
    }
    if (qa.updates_reported != qb.updates_reported) return false;
    if (qa.reinits != qb.reinits) return false;
    if (qa.answer_size.count() != qb.answer_size.count()) return false;
    if (qa.answer_size.mean() != qb.answer_size.mean()) return false;
    if (qa.answer_size.variance() != qb.answer_size.variance()) return false;
    if (qa.oracle_checks != qb.oracle_checks) return false;
    if (qa.oracle_violations != qb.oracle_violations) return false;
    if (qa.deployed_at != qb.deployed_at) return false;
    if (qa.retired_at != qb.retired_at) return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  const double scale = bench::Scale();
  const SimTime duration = 6000 * scale;

  std::printf("=== ooc_churn ===\n");
  std::printf("long-horizon churn: cumulative queries >> peak live; "
              "retired state spills to an append-only scratch log\n");
  std::printf("expect: identical results; file bytes = spilled bytes; "
              "resident bytes = one write buffer, independent of "
              "cumulative volume\n\n");

  ChurnSpec spec;
  spec.arrival_rate = 0.25;
  spec.mean_lifetime = 60;  // short lives: most queries retire mid-run
  spec.seed = 71;
  auto deployments = ExpandChurn(spec, duration);
  ASF_CHECK_MSG(deployments.ok(), deployments.status().ToString().c_str());

  MultiQueryConfig base;
  RandomWalkConfig walk;
  walk.num_streams = 200;
  walk.seed = 13;
  base.source = SourceSpec::Walk(walk);
  base.duration = duration;
  base.seed = 13;
  base.queries = std::move(deployments).value();

  auto in_memory = RunMultiQuerySystem(base);
  ASF_CHECK_MSG(in_memory.ok(), in_memory.status().ToString().c_str());

  const std::size_t cumulative = in_memory->queries.size();
  const std::size_t peak = in_memory->peak_live_queries;
  const double cumulative_over_peak =
      peak > 0 ? static_cast<double>(cumulative) / peak : 0.0;
  std::printf("cumulative queries: %zu, peak live: %zu (%.1fx)\n\n",
              cumulative, peak, cumulative_over_peak);

  MultiQueryConfig config = base;
  config.spill.dir = ScratchDir();
  auto spilled = RunMultiQuerySystem(config);
  ASF_CHECK_MSG(spilled.ok(), spilled.status().ToString().c_str());
  const bool identical = SameResults(*in_memory, *spilled);
  const SpillTelemetry& t = spilled->spill;

  TextTable table({"records", "spilled_bytes", "file_bytes",
                   "resident_bytes", "identical", "wall_s"});
  table.AddRow({Fmt("%llu", (unsigned long long)t.records_spilled),
                Fmt("%llu", (unsigned long long)t.spilled_bytes),
                Fmt("%llu", (unsigned long long)t.file_bytes),
                Fmt("%llu", (unsigned long long)t.pool_resident_bytes),
                identical ? "yes" : "NO",
                Fmt("%.3f", spilled->wall_seconds)});
  const std::vector<std::pair<std::string, double>> metrics = {
      {"cumulative_queries", static_cast<double>(cumulative)},
      {"peak_live", static_cast<double>(peak)},
      {"cumulative_over_peak", cumulative_over_peak},
      {"records", static_cast<double>(t.records_spilled)},
      {"spilled_bytes", static_cast<double>(t.spilled_bytes)},
      {"file_bytes", static_cast<double>(t.file_bytes)},
      {"resident_bytes", static_cast<double>(t.pool_resident_bytes)},
      {"wall_seconds", spilled->wall_seconds},
      {"spill_identical", identical ? 1.0 : 0.0},
  };
  std::printf("%s", table.ToString().c_str());
  std::printf("\nspilled run identical to in-memory: %s\n",
              identical ? "yes" : "NO");
  bench::MaybeWriteCsv(table, "ooc_churn");

  return bench::FinishMicroBench(argc, argv, "BENCH_ooc_churn.json",
                                 "ooc_churn", metrics);
}

}  // namespace
}  // namespace asf

int main(int argc, char** argv) { return asf::Main(argc, argv); }
