#include "suite.hpp"

#include "common/table.hpp"
#include "scenario/library.hpp"
#include "scenario/runner.hpp"

namespace topfull::bench {

namespace {

constexpr BenchEntry kSuite[] = {
    {"fig04_starvation_demo", "Fig. 4: per-microservice control starves Get Product",
     Fig04StarvationDemo},
    {"fig08_goodput_overload", "Fig. 8: per-API goodput under overload, 5 controllers",
     Fig08GoodputOverload},
    {"fig09_demand_sweep", "Fig. 9: total goodput vs user demand", Fig09DemandSweep},
    {"fig10_component_breakdown", "Fig. 10: TopFull component breakdown, 3 apps",
     Fig10ComponentBreakdown},
    {"fig11_priority_starvation", "Fig. 11: per-API goodput with business priorities",
     Fig11PriorityStarvation},
    {"fig12_priority_timeline", "Fig. 12: API1/API2 goodput timeline, DAGOR vs TopFull",
     Fig12PriorityTimeline},
    {"fig13_table2_convergence", "Fig. 13 + Table 2: convergence after an overload",
     Fig13Table2Convergence},
    {"fig14_trainticket_surge", "Fig. 14: Train Ticket surge with the autoscaler",
     Fig14TrainTicketSurge},
    {"fig15_boutique_surge", "Fig. 15: Online Boutique surge with the autoscaler",
     Fig15BoutiqueSurge},
    {"fig16_resource_saving", "Fig. 16: goodput vs pre-provisioned vCPUs",
     Fig16ResourceSaving},
    {"fig17_transfer_learning", "Fig. 17: base vs transfer-learned RL models",
     Fig17TransferLearning},
    {"fig18_failure_adaptation", "Fig. 18: recovery from 30/35 ts-station pods killed",
     Fig18FailureAdaptation},
    {"fig19_vm_startup_sensitivity", "Fig. 19: goodput vs VM startup time",
     Fig19VmStartupSensitivity},
    {"sec2_starvation_analysis", "Sec. 2: overloads per surge, starvation in the trace",
     Sec2StarvationAnalysis},
    {"sec42_recluster_dynamics", "Sec. 4.2: clusters merge and split over time",
     Sec42ReclusterDynamics},
    {"sec64_clustering_scalability", "Sec. 6.4: clustering the Alibaba overload snapshot",
     Sec64ClusteringScalability},
    {"abl_controller_design", "Ablation: one controller knob at a time",
     AblControllerDesign},
    {"abl_sync_rpc", "Ablation: async vs blocking RPC servers", AblSyncRpc},
    {"abl_chaos_matrix", "Ablation: controller x fault type x severity",
     AblChaosMatrix, /*smoke=*/true},
    {"scenario_matrix", "Scenario x controller conformance verdicts", ScenarioMatrix,
     /*smoke=*/true},
};

}  // namespace

std::span<const BenchEntry> Suite() { return kSuite; }

// The built-in scenario library under the default controllers; the same
// matrix `topfull scenario run` runs, under a banner.
int ScenarioMatrix(const BenchArgs& args) {
  PrintBanner("scenario_matrix",
              "workload-pathology scenarios x controllers, invariant verdicts");
  return scenario::RunConformanceMatrix(scenario::BuiltinScenarios(), {},
                                        args.smoke, /*json_path=*/"");
}

}  // namespace topfull::bench
