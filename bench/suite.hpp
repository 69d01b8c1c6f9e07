// The reproduction suite: every paper figure, section analysis and
// ablation as one entry of `topfull bench`.
//
// Each bench/<name>.cpp builds its RunSpec table, runs it and prints the
// rows the paper reports; its entry function is what used to be its
// main(). Suite() lists them in one explicit table (no static
// self-registration: the linker drops unreferenced objects from static
// libraries). bench/manifest.sha256 pins every entry's stdout.
#pragma once

#include <span>

namespace topfull::bench {

struct BenchArgs {
  /// Short horizon and fewer seeds; only entries with `smoke` set take it.
  bool smoke = false;
};

struct BenchEntry {
  const char* name;
  const char* summary;  ///< one line, for `topfull bench --list`
  int (*run)(const BenchArgs&);
  bool smoke = false;  ///< accepts --smoke
};

/// Every entry, in the order `topfull bench --all` runs them.
std::span<const BenchEntry> Suite();

int Fig04StarvationDemo(const BenchArgs& args);
int Fig08GoodputOverload(const BenchArgs& args);
int Fig09DemandSweep(const BenchArgs& args);
int Fig10ComponentBreakdown(const BenchArgs& args);
int Fig11PriorityStarvation(const BenchArgs& args);
int Fig12PriorityTimeline(const BenchArgs& args);
int Fig13Table2Convergence(const BenchArgs& args);
int Fig14TrainTicketSurge(const BenchArgs& args);
int Fig15BoutiqueSurge(const BenchArgs& args);
int Fig16ResourceSaving(const BenchArgs& args);
int Fig17TransferLearning(const BenchArgs& args);
int Fig18FailureAdaptation(const BenchArgs& args);
int Fig19VmStartupSensitivity(const BenchArgs& args);
int Sec2StarvationAnalysis(const BenchArgs& args);
int Sec42ReclusterDynamics(const BenchArgs& args);
int Sec64ClusteringScalability(const BenchArgs& args);
int AblControllerDesign(const BenchArgs& args);
int AblSyncRpc(const BenchArgs& args);
int AblChaosMatrix(const BenchArgs& args);
int ScenarioMatrix(const BenchArgs& args);

}  // namespace topfull::bench
