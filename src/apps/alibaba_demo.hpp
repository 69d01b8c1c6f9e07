// Real-trace demo application (paper §5 "Real-trace Demo implementation"):
// a 127-microservice deployment reconstructed from the Alibaba 2021 trace
// with 25 external APIs and 43 execution paths in total; 8 of the APIs have
// branching execution paths (up to 6 alternatives), and 13 microservices
// are designed to be overloadable (lower capacity, mirroring the trace's
// CPU-util>0.8 microservices).
//
// The paper's demo app is itself a synthetic reconstruction (simple RPC
// servers doing sorting/arithmetic); we reconstruct with the same published
// shape parameters using a seeded deterministic generator.
#pragma once

#include <memory>
#include <vector>

#include "sim/app.hpp"

namespace topfull::apps {

struct AlibabaDemoOptions {
  std::uint64_t seed = 2021;   ///< topology seed (fixed => same app each run)
  double capacity_scale = 1.0;
  /// Scaled-up topology: `replicas` independent copies of the 127-service
  /// deployment (distinct service/API names, per-copy seeds) in one
  /// Application — 127*K services, 25*K APIs, simulated on one engine
  /// (`topfull run --replicas K`). Copies never share services, so the
  /// shard partitioner of the perfbench `alibaba_sharded` workload puts
  /// whole copies onto shards with zero cross-shard edges.
  /// replicas == 1 is byte-identical to the original demo.
  int replicas = 1;
};

struct AlibabaDemo {
  std::unique_ptr<sim::Application> app;
  /// The 13 services designed to be overloadable.
  std::vector<sim::ServiceId> overloadable;
};

AlibabaDemo MakeAlibabaDemo(const AlibabaDemoOptions& options = {});

}  // namespace topfull::apps
