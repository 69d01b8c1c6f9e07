// API call graphs: execution paths through microservices.
//
// Each external API owns one or more ExecutionPaths (branching APIs, §4.2,
// sample one path per request by probability). A path is a call tree whose
// nodes name the microservice invoked, the relative amount of work done
// there, and whether children fan out sequentially or in parallel. End-to-end
// latency is the sum over sequential stages and the max over parallel
// branches — the aggregation rule of the paper's simulator design (§4.3).
#pragma once

#include <set>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace topfull::sim {

/// One microservice invocation in a call tree.
struct CallNode {
  ServiceId service = kNoService;
  /// Multiplier on the service's base service-time (per-endpoint cost).
  double work = 1.0;
  /// If true, children are invoked concurrently after this node's local
  /// work; otherwise one after another.
  bool parallel = false;
  std::vector<CallNode> children;
};

/// A complete execution path (one possible call tree of an API).
struct ExecutionPath {
  CallNode root;
  /// Selection probability among the API's paths; normalised on Finalize.
  double probability = 1.0;
  /// All services appearing anywhere in this path (derived).
  std::set<ServiceId> services;
};

/// An external, user-facing API.
class ApiSpec {
 public:
  ApiSpec() = default;
  ApiSpec(std::string name, int business_priority)
      : name_(std::move(name)), business_priority_(business_priority) {}

  /// Adds one possible execution path.
  void AddPath(ExecutionPath path) { paths_.push_back(std::move(path)); }

  /// Normalises path probabilities and computes involved-service sets.
  /// Must be called once all paths are added.
  void Finalize();

  /// Samples a path index given a uniform [0,1) draw.
  std::size_t SamplePath(double u) const;

  const std::string& name() const { return name_; }
  int business_priority() const { return business_priority_; }
  void set_business_priority(int p) { business_priority_ = p; }
  const std::vector<ExecutionPath>& paths() const { return paths_; }

  /// Union of services over every possible path — the membership set used
  /// for clustering (branching APIs count as involved in all their paths).
  const std::set<ServiceId>& involved_services() const { return involved_; }

  /// True if any path traverses `s`.
  bool Uses(ServiceId s) const { return involved_.count(s) > 0; }

 private:
  std::string name_;
  int business_priority_ = 0;
  std::vector<ExecutionPath> paths_;
  std::set<ServiceId> involved_;
};

/// Collects the services of a call (sub)tree into `out`.
void CollectServices(const CallNode& node, std::set<ServiceId>& out);

/// Counts nodes in a call tree.
std::size_t CountNodes(const CallNode& node);

/// Builders for common shapes.
/// Chain: root -> a -> b -> c (each node sequential child of the previous).
CallNode Chain(const std::vector<ServiceId>& services, double work = 1.0);
/// Fan-out: root calls all children in parallel.
CallNode FanOut(ServiceId root, const std::vector<ServiceId>& children,
                double work = 1.0);

}  // namespace topfull::sim
