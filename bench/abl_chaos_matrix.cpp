// Ablation: controller x fault type x severity chaos matrix.
//
// Every controller variant is exercised against every fault type in
// src/fault at two severities on Online Boutique, measuring goodput while
// the fault is active and after it clears. This is the "as many scenarios
// as you can imagine" axis the single scripted Fig. 18 drop cannot cover:
// it shows which control schemes stay stable under pod churn, degraded
// capacity, slow dependencies, dependency blackholes, and error bursts.
//
//   --smoke   1 seed, short horizon (CI fault-path crash check)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/online_boutique.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"
#include "fault/fault.hpp"

using namespace topfull;

namespace {

struct Phase {
  double fault_s;     ///< fault injection time
  double clear_s;     ///< fault end (revert/restart) time
  double end_s;       ///< run horizon
};

struct FaultCell {
  const char* name;
  fault::FaultType type;
  double mild;
  double severe;
};

// The matrix targets productcatalog: it sits on every API path, so every
// controller must react to its failure.
constexpr const char* kTarget = "productcatalog";

fault::FaultSchedule MakeFault(const FaultCell& cell, double severity,
                               const Phase& phase) {
  fault::FaultSchedule schedule;
  const SimTime at = Seconds(phase.fault_s);
  const SimTime duration = Seconds(phase.clear_s - phase.fault_s);
  switch (cell.type) {
    case fault::FaultType::kPodCrash:
      // severity = number of pods to kill (of productcatalog's 3).
      schedule.CrashPods(kTarget, at, static_cast<int>(severity), duration);
      break;
    case fault::FaultType::kCapacityDegrade:
      schedule.DegradeCapacity(kTarget, at, duration, severity);
      break;
    case fault::FaultType::kServiceTimeInflate:
      schedule.InflateServiceTime(kTarget, at, duration, severity);
      break;
    case fault::FaultType::kBlackhole:
      // severity = blackhole length as a fraction of the fault window.
      schedule.Blackhole(kTarget, at, static_cast<SimTime>(duration * severity));
      break;
    case fault::FaultType::kErrorBurst:
      schedule.ErrorBurst(kTarget, at, duration, severity);
      break;
    case fault::FaultType::kVmOutage:
      break;  // not part of the matrix (needs an HPA/cluster setup)
  }
  return schedule;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const Phase phase = smoke ? Phase{10.0, 20.0, 30.0} : Phase{20.0, 40.0, 70.0};
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{17} : std::vector<std::uint64_t>{17, 18};

  PrintBanner("Chaos matrix",
              "Online Boutique: controller x fault type x severity. Goodput "
              "during the fault window and after it clears (averaged over "
              "seeds).");

  const FaultCell cells[] = {
      {"crash", fault::FaultType::kPodCrash, 1, 2},
      {"degrade", fault::FaultType::kCapacityDegrade, 0.6, 0.25},
      {"inflate", fault::FaultType::kServiceTimeInflate, 1.5, 3.0},
      {"blackhole", fault::FaultType::kBlackhole, 0.5, 1.0},
      {"errors", fault::FaultType::kErrorBurst, 0.1, 0.4},
  };
  const exp::Variant variants[] = {
      exp::Variant::kNoControl,
      exp::Variant::kTopFull,
      exp::Variant::kDagor,
      exp::Variant::kBreakwater,
  };
  auto policy = exp::GetPretrainedPolicy();

  std::vector<exp::RunSpec> specs;
  for (const exp::Variant variant : variants) {
    for (const FaultCell& cell : cells) {
      for (const bool severe : {false, true}) {
        for (const std::uint64_t seed : seeds) {
          exp::RunSpec spec;
          spec.label = exp::VariantName(variant) + std::string("/") + cell.name +
                       (severe ? "/severe" : "/mild");
          spec.duration_s = phase.end_s;
          spec.variant = variant;
          spec.policy = policy.get();
          spec.make_app = [seed]() {
            apps::BoutiqueOptions options;
            options.seed = seed;
            auto app = apps::MakeOnlineBoutique(options);
            // Uniform RPC policy across every cell so the comparison is
            // fair; blackholes need the hop timeout to resolve.
            app->ConfigureRpc(Millis(500), /*max_retries=*/1, Millis(25));
            return app;
          };
          spec.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
            traffic.AddClosedLoop(exp::UniformUsers(app),
                                  workload::Schedule::Constant(2000));
          };
          spec.faults = MakeFault(cell, severe ? cell.severe : cell.mild, phase);
          specs.push_back(std::move(spec));
        }
      }
    }
  }

  const auto results = exp::RunExecutor().Execute(specs);

  Table table("goodput (rps)");
  table.SetHeader({"controller", "fault", "severity", "during fault", "after clear"});
  std::size_t i = 0;
  for (const exp::Variant variant : variants) {
    for (const FaultCell& cell : cells) {
      for (const bool severe : {false, true}) {
        double during = 0.0, after = 0.0;
        for (std::size_t s = 0; s < seeds.size(); ++s, ++i) {
          const sim::Application& app = results[i].app();
          during += exp::TotalGoodput(app, phase.fault_s, phase.clear_s);
          after += exp::TotalGoodput(app, phase.clear_s + 5.0, phase.end_s);
        }
        const auto n = static_cast<double>(seeds.size());
        table.AddRow({exp::VariantName(variant), cell.name,
                      severe ? "severe" : "mild", Fmt(during / n, 0),
                      Fmt(after / n, 0)});
      }
    }
  }
  table.Print();
  std::printf("\n%zu runs (%zu seed(s), horizon %.0f s, fault %g-%g s)%s\n",
              results.size(), seeds.size(), phase.end_s, phase.fault_s,
              phase.clear_s, smoke ? " [smoke]" : "");
  return 0;
}
