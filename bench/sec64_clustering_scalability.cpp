// §6.4 "Scalability and effectiveness of clustering": cluster the overloaded
// microservices of the (synthetic) Alibaba trace.
//
// Paper: at a given time up to 68 of 23,481 microservices are overloaded;
// 59 % of them share no API with any other overloaded microservice; the
// sharing ones form groups of 2.38 on average; the 68 constraints decompose
// into 57 independent clusters with 1.19 constraints each.
#include <cstdio>
#include <string>

#include "common/table.hpp"
#include "trace/synthetic_trace.hpp"
#include "suite.hpp"

using namespace topfull;

int topfull::bench::Sec64ClusteringScalability(const BenchArgs&) {
  PrintBanner("Section 6.4 clustering",
              "Clustering the overloaded microservices of the synthetic "
              "Alibaba trace into independent sub-problems.");

  const trace::TraceConfig config;
  const trace::SyntheticTrace synthetic = trace::GenerateTrace(config, 20210701);

  const trace::ClusteringAnalysis analysis =
      trace::AnalyzeClustering(synthetic, config.util_threshold);

  Table table("clustering of the overload snapshot");
  table.SetHeader({"metric", "measured", "paper"});
  table.AddRow({"microservices in trace", std::to_string(synthetic.num_services),
                "23,481"});
  table.AddRow({"overloaded (util > 0.8)",
                std::to_string(analysis.overloaded_services), "68"});
  table.AddRow({"independent clusters", std::to_string(analysis.clusters), "57"});
  table.AddRow({"avg constraints per cluster",
                Fmt(analysis.avg_constraints_per_cluster, 2), "1.19"});
  table.AddRow({"overloaded ms sharing no APIs",
                Fmt(100.0 * analysis.isolated_fraction, 0) + "%", "59%"});
  table.AddRow({"avg sharing-group size", Fmt(analysis.avg_sharing_group, 2),
                "2.38"});
  table.Print();

  std::printf("\nEach cluster is an independent sub-problem, so TopFull runs "
              "one rate controller per cluster in parallel.\n");
  return 0;
}
