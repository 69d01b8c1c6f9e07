// §2 "Starvation is easily triggered and frequent": two measurements.
//
// (a) Online Boutique: surging one API at a time always overloads multiple
//     microservices — 3.4 on average across the five APIs in the paper.
// (b) Alibaba trace: 44.4 % of the APIs involved in overloaded microservices
//     are potentially starvation-vulnerable (involved in several overloaded
//     microservices with contending APIs). We run the same analysis over the
//     synthetic trace calibrated to the published statistics.
#include <cstdio>

#include "apps/online_boutique.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/run_executor.hpp"
#include "trace/synthetic_trace.hpp"

using namespace topfull;

namespace {

exp::RunSpec SurgeSpec(const char* name, sim::ApiId api) {
  exp::RunSpec spec;
  spec.label = name;
  spec.duration_s = 40.0;
  spec.make_app = [] {
    apps::BoutiqueOptions options;
    options.seed = 97;
    return apps::MakeOnlineBoutique(options);
  };
  spec.traffic = [api](workload::TrafficDriver& traffic, sim::Application& app) {
    // Moderate background on all APIs, then a large surge on one API.
    for (sim::ApiId a = 0; a < app.NumApis(); ++a) {
      traffic.AddOpenLoop(a, workload::Schedule::Constant(300));
    }
    traffic.AddOpenLoop(api, workload::Schedule::Constant(0).Then(Seconds(10), 4000));
  };
  return spec;
}

int OverloadedServices(const sim::Application& app) {
  // Utilisation averaged over the last 10 s (single 1 s snapshots are noisy
  // for services hovering right at the threshold).
  const auto& timeline = app.metrics().Timeline();
  const std::size_t window = std::min<std::size_t>(10, timeline.size());
  int overloaded = 0;
  for (int s = 0; s < app.NumServices(); ++s) {
    double sum = 0.0;
    for (std::size_t i = timeline.size() - window; i < timeline.size(); ++i) {
      sum += timeline[i].services[static_cast<std::size_t>(s)].cpu_utilization;
    }
    if (sum / static_cast<double>(window) > 0.8) ++overloaded;
  }
  return overloaded;
}

}  // namespace

int main() {
  PrintBanner("Section 2 analysis",
              "(a) overloaded microservices per single-API surge on Online "
              "Boutique; (b) starvation vulnerability in the trace.");

  const char* names[] = {"postcheckout", "getproduct", "getcart", "postcart",
                         "emptycart"};
  Table per_api("(a) single-API 6x surge -> # microservices with util > 0.8");
  per_api.SetHeader({"surged API", "overloaded microservices"});
  std::vector<exp::RunSpec> specs;
  for (sim::ApiId a = 0; a < 5; ++a) specs.push_back(SurgeSpec(names[a], a));
  const std::vector<exp::RunResult> results = exp::RunExecutor().Execute(specs);
  double total = 0.0;
  for (const exp::RunResult& result : results) {
    const int n = OverloadedServices(result.app());
    total += n;
    per_api.AddRow({result.label, std::to_string(n)});
  }
  per_api.Print();
  std::printf("average: %.1f (paper: 3.4)\n\n", total / 5.0);

  const trace::TraceConfig config;
  const trace::SyntheticTrace synthetic = trace::GenerateTrace(config, 20210701);
  const trace::StarvationAnalysis analysis =
      trace::AnalyzeStarvation(synthetic, config.util_threshold);
  Table trace_table("(b) synthetic Alibaba trace (23,481 microservices)");
  trace_table.SetHeader({"metric", "value", "paper"});
  trace_table.AddRow({"overloaded microservices",
                      std::to_string(analysis.overloaded_services), "up to 68"});
  trace_table.AddRow({"APIs involved in overloaded ms",
                      std::to_string(analysis.apis_involved), "-"});
  trace_table.AddRow({"starvation-vulnerable APIs",
                      std::to_string(analysis.vulnerable_apis), "-"});
  trace_table.AddRow({"vulnerable fraction",
                      Fmt(100.0 * analysis.vulnerable_fraction, 1) + "%", "44.4%"});
  trace_table.Print();
  return 0;
}
