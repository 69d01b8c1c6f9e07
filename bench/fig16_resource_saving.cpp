// Figure 16: resource saving under traffic spikes — average goodput vs the
// vCPUs pre-provisioned on the critical (bottleneck) microservices, with and
// without TopFull (no autoscaler; pure overprovisioning trade-off).
//
// Paper: TopFull matches or beats the uncontrolled deployment with up to
// 50 % fewer vCPUs on Train Ticket and 57 % fewer on Online Boutique
// (2.98x goodput at 5 vCPUs on TT, 12.96x at 15 vCPUs on OB).
//
// The 2 apps x 6 vCPU budgets x {with, without} matrix (24 independent
// runs) executes concurrently on the shared worker pool.
#include <algorithm>
#include <cstdio>

#include "apps/online_boutique.hpp"
#include "apps/train_ticket.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"
#include "suite.hpp"

using namespace topfull;

namespace {

constexpr double kSpikeStartS = 30.0;
constexpr double kSpikeS = 120.0;  // paper: two-minute spike
constexpr double kEndS = 180.0;

void SpikeTraffic(workload::TrafficDriver& traffic, sim::Application& app) {
  traffic.AddClosedLoop(exp::UniformUsers(app),
                        workload::Schedule::Spike(500, Seconds(kSpikeStartS),
                                                  Seconds(kSpikeS), 3200));
}

std::unique_ptr<sim::Application> MakeTrainTicket(int critical_vcpus) {
  apps::TrainTicketOptions options;
  options.seed = 71;
  auto app = apps::MakeTrainTicket(options);
  // Distribute the critical vCPU budget over the services the spike
  // saturates (1 pod = 1 vCPU): the travel/food query plane plus the order
  // services behind it.
  app->service(app->FindService("ts-travel"))
      .SetPodCount(std::max(1, critical_vcpus * 3 / 10));
  app->service(app->FindService("ts-travel2"))
      .SetPodCount(std::max(1, critical_vcpus * 2 / 10));
  app->service(app->FindService("ts-food"))
      .SetPodCount(std::max(1, critical_vcpus * 2 / 10));
  app->service(app->FindService("ts-order"))
      .SetPodCount(std::max(1, critical_vcpus * 2 / 10));
  app->service(app->FindService("ts-order-other"))
      .SetPodCount(std::max(1, critical_vcpus * 1 / 10));
  return app;
}

std::unique_ptr<sim::Application> MakeBoutique(int critical_vcpus) {
  apps::BoutiqueOptions options;
  options.seed = 73;
  options.probe_failures = true;
  auto app = apps::MakeOnlineBoutique(options);
  // Critical services: recommendation + checkout + productcatalog
  // (40/30/30 of the budget).
  app->service(app->FindService("recommendation"))
      .SetPodCount(std::max(1, critical_vcpus * 4 / 10));
  app->service(app->FindService("checkout"))
      .SetPodCount(std::max(1, critical_vcpus * 3 / 10));
  app->service(app->FindService("productcatalog"))
      .SetPodCount(std::max(1, critical_vcpus * 3 / 10));
  return app;
}

void Sweep(const char* name, const std::vector<int>& vcpus,
           std::unique_ptr<sim::Application> (*make_app)(int),
           const rl::GaussianPolicy* policy) {
  std::vector<exp::RunSpec> specs;
  for (const int v : vcpus) {
    for (const bool with_topfull : {false, true}) {
      exp::RunSpec spec;
      spec.label = std::string(name) + "/" + std::to_string(v) +
                   (with_topfull ? "/topfull" : "/none");
      spec.duration_s = kEndS;
      spec.variant =
          with_topfull ? exp::Variant::kTopFull : exp::Variant::kNoControl;
      spec.policy = with_topfull ? policy : nullptr;
      spec.make_app = [make_app, v] { return make_app(v); };
      spec.traffic = SpikeTraffic;
      specs.push_back(std::move(spec));
    }
  }
  const std::vector<exp::RunResult> results = exp::RunExecutor().Execute(specs);

  Table table(std::string(name) +
              ": avg goodput (rps) during the spike vs critical vCPUs");
  table.SetHeader({"vCPUs", "without TopFull", "with TopFull", "gain"});
  for (std::size_t i = 0; i < vcpus.size(); ++i) {
    const double without = exp::TotalGoodput(results[2 * i].app(), kSpikeStartS,
                                             kSpikeStartS + kSpikeS);
    const double with = exp::TotalGoodput(results[2 * i + 1].app(), kSpikeStartS,
                                          kSpikeStartS + kSpikeS);
    table.AddRow({std::to_string(vcpus[i]), Fmt(without, 0), Fmt(with, 0),
                  Fmt(with / std::max(1.0, without), 2) + "x"});
  }
  table.Print();
  std::printf("\n");
}

}  // namespace

int topfull::bench::Fig16ResourceSaving(const BenchArgs&) {
  PrintBanner("Figure 16",
              "Two-minute traffic spike; goodput vs pre-provisioned vCPUs on "
              "critical microservices, with/without TopFull.");
  auto policy = exp::GetPretrainedPolicy();
  Sweep("(a) Train Ticket", {5, 10, 15, 20, 28, 36}, MakeTrainTicket, policy.get());
  Sweep("(b) Online Boutique", {5, 10, 15, 20, 28, 36}, MakeBoutique, policy.get());
  std::printf("Paper: TT needs up to 50%% fewer vCPUs with TopFull (2.98x at "
              "5 vCPUs); OB up to 57%% fewer (12.96x at 15 vCPUs).\n");
  return 0;
}
