// Breakwater overload control (Cho et al., OSDI'20), as re-implemented by
// the TopFull authors for their baseline comparison (§5).
//
// Breakwater is credit-based admission for single-tier RPCs. Following the
// TopFull implementation, each gRPC edge between pods is treated as a
// client-server pair: every pod advertises a credit budget (modelled as a
// token rate) that its upstreams may send; the budget grows additively while
// the pod's queueing delay is below the target and shrinks multiplicatively
// in proportion to the overload above it. An AQM guard sheds arrivals
// whenever the instantaneous queueing delay exceeds twice the target.
// Because shedding is uncorrelated across tiers, a request crossing k
// overloaded pods survives with probability ~(1-p)^k — the multi-tier
// weakness §6.1 analyses.
#pragma once

#include <algorithm>
#include <vector>

#include "common/token_bucket.hpp"
#include "sim/app.hpp"

namespace topfull::baselines {

struct BreakwaterConfig {
  /// Queueing-delay target (Breakwater's d_t). The paper's uses are
  /// us-scale RPCs; our pods serve ms-scale requests, so the target scales
  /// with service time. 20 ms works for all benchmark apps.
  double target_delay_s = 0.020;
  /// AQM drop threshold as a multiple of the target.
  double aqm_factor = 2.0;
  /// Additive credit-rate increase per update below target (rps).
  double additive_rps = 50.0;
  /// Multiplicative-decrease aggressiveness above the target.
  double beta = 0.4;
  double max_decrease = 0.5;
  /// Update cadence (Breakwater updates per RTT; pods here run ms-scale
  /// requests, so 100 ms plays that role).
  SimTime update_period = Millis(100);
  /// Initial per-pod credit rate (rps).
  double initial_rate = 200.0;
  double min_rate = 5.0;
};

class BreakwaterAdmission : public sim::ServiceAdmission {
 public:
  BreakwaterAdmission(sim::Application* app, BreakwaterConfig config = {});

  /// Installs on every microservice and starts the credit update loop.
  void Install();

  bool Admit(const sim::RequestInfo& info, sim::ServiceId service, int pod_index,
             SimTime now) override;

  /// One credit-update pass (exposed for tests).
  void Update();

  double CreditRate(sim::ServiceId service, int pod_index) const;

 private:
  struct PodCtl {
    double rate;
    TokenBucket bucket;
    explicit PodCtl(double rate_rps)
        : rate(rate_rps), bucket(rate_rps, std::max(4.0, rate_rps / 10.0)) {}
  };

  PodCtl& Ctl(sim::ServiceId service, int pod_index);

  sim::Application* app_;
  BreakwaterConfig config_;
  std::vector<std::vector<PodCtl>> pods_;
  bool installed_ = false;
};

}  // namespace topfull::baselines
