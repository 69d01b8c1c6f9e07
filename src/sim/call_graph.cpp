#include "sim/call_graph.hpp"

#include <cassert>

namespace topfull::sim {

void CollectServices(const CallNode& node, std::set<ServiceId>& out) {
  if (node.service != kNoService) out.insert(node.service);
  for (const auto& child : node.children) CollectServices(child, out);
}

std::size_t CountNodes(const CallNode& node) {
  std::size_t n = node.service != kNoService ? 1 : 0;
  for (const auto& child : node.children) n += CountNodes(child);
  return n;
}

void ApiSpec::Finalize() {
  assert(!paths_.empty() && "API must have at least one execution path");
  double total = 0.0;
  for (auto& p : paths_) total += p.probability;
  involved_.clear();
  for (auto& p : paths_) {
    p.probability = total > 0.0 ? p.probability / total
                                : 1.0 / static_cast<double>(paths_.size());
    p.services.clear();
    CollectServices(p.root, p.services);
    involved_.insert(p.services.begin(), p.services.end());
  }
}

std::size_t ApiSpec::SamplePath(double u) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    acc += paths_[i].probability;
    if (u < acc) return i;
  }
  return paths_.size() - 1;
}

CallNode Chain(const std::vector<ServiceId>& services, double work) {
  assert(!services.empty());
  CallNode root{services.front(), work, false, {}};
  CallNode* tail = &root;
  for (std::size_t i = 1; i < services.size(); ++i) {
    tail->children.push_back(CallNode{services[i], work, false, {}});
    tail = &tail->children.back();
  }
  return root;
}

CallNode FanOut(ServiceId root, const std::vector<ServiceId>& children,
                double work) {
  CallNode node{root, work, true, {}};
  node.children.reserve(children.size());
  for (const ServiceId c : children) {
    node.children.push_back(CallNode{c, work, false, {}});
  }
  return node;
}

}  // namespace topfull::sim
