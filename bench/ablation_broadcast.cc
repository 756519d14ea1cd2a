/// Ablation — broadcast cost model (DESIGN.md §3, note 3).
///
/// The paper counts "maintenance messages" without pinning down whether a
/// constraint deployed to all n streams costs n messages (point-to-point
/// network) or one (broadcast medium, e.g. the sensor-network radio of
/// §5.1.1's battery discussion). The protocols most sensitive to the
/// choice are the ones that redeploy bounds: ZT-RP (every crossing) and
/// RTP (every bound change). FT-NRP barely re-deploys, so it is nearly
/// model-independent — which is itself evidence for the robustness of the
/// paper's FT-NRP conclusions.

#include "bench_common.h"

namespace asf {
namespace {

void Run() {
  bench::PrintBanner(
      "Ablation: broadcast cost model (per-recipient vs single-message)",
      "(methodology) the paper's metric is ambiguous about deploy-all "
      "costs; this bounds how much the reading matters per protocol",
      "ZT-RP/RTP shrink dramatically under the broadcast model; FT-NRP "
      "barely moves");

  struct Case {
    const char* label;
    ProtocolKind protocol;
    QuerySpec query;
    double eps;
    std::size_t r;
  };
  const Case cases[] = {
      {"ZT-NRP", ProtocolKind::kZtNrp, QuerySpec::Range(400, 600), 0, 0},
      {"FT-NRP eps=0.3", ProtocolKind::kFtNrp, QuerySpec::Range(400, 600),
       0.3, 0},
      {"RTP r=5", ProtocolKind::kRtp, QuerySpec::Knn(20, 500), 0, 5},
      {"ZT-RP", ProtocolKind::kZtRp, QuerySpec::Knn(20, 500), 0, 0},
      {"FT-RP eps=0.3", ProtocolKind::kFtRp, QuerySpec::Knn(20, 500), 0.3,
       0},
  };

  std::vector<SystemConfig> configs;
  for (const Case& c : cases) {
    for (int b = 0; b < 2; ++b) {
      SystemConfig config;
      RandomWalkConfig walk;
      walk.num_streams = 1000;
      walk.seed = 67;
      config.source = SourceSpec::Walk(walk);
      config.query = c.query;
      config.protocol = c.protocol;
      config.fraction = {c.eps, c.eps};
      config.rank_r = c.r;
      config.broadcast = b == 1 ? BroadcastCostModel::kSingleMessage
                                : BroadcastCostModel::kPerRecipient;
      config.duration = 300 * bench::Scale();
      configs.push_back(config);
    }
  }
  const std::vector<RunResult> results = bench::MustRunAll(configs);

  TextTable table(
      {"protocol", "per-recipient", "broadcast", "ratio"});
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const std::uint64_t msgs[2] = {
        results[2 * i].MaintenanceMessages(),
        results[2 * i + 1].MaintenanceMessages()};
    table.AddRow({cases[i].label, bench::Msgs(msgs[0]), bench::Msgs(msgs[1]),
                  Fmt("%.2f", msgs[0] == 0
                                  ? 1.0
                                  : static_cast<double>(msgs[1]) /
                                        static_cast<double>(msgs[0]))});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace asf

int main() {
  asf::Run();
  return 0;
}
