// WISP-style distributed rate management (Suresh et al., SoCC'17), the
// third related system the paper discusses (§7).
//
// WISP places rate limiters at every microservice and propagates admission
// information upstream: each service measures the rate its downstreams will
// actually accept and pushes its own limiter towards that, so excess load
// is shed as early (as far upstream) as possible. Per the paper's critique,
// WISP (a) sheds sub-requests without DAGOR's consistent per-request
// priority, so multi-tier drops compound randomly, and (b) does not reason
// about which APIs are gated by *other* overloaded microservices, so it
// inherits the starvation problem.
//
// Implementation: per-pod token-bucket rate limiters. Every update period a
// pod's limit moves multiplicatively: down in proportion to its own
// queueing delay above target (local overload), and also down towards the
// observed downstream acceptance ratio of requests it forwarded (shed
// upstream what downstream would reject anyway); up additively when both
// are healthy. Downstream acceptance is reported through the application's
// completion bookkeeping: the admission object is notified of every
// sub-request outcome.
#pragma once

#include <algorithm>
#include <vector>

#include "common/token_bucket.hpp"
#include "sim/app.hpp"

namespace topfull::baselines {

struct WispConfig {
  double target_delay_s = 0.02;    ///< local queueing-delay target
  double beta = 0.4;               ///< multiplicative decrease aggressiveness
  double additive_rps = 40.0;      ///< additive increase per update
  double downstream_weight = 0.5;  ///< pull towards downstream acceptance
  SimTime update_period = Millis(200);
  double initial_rate = 300.0;
  double min_rate = 5.0;
};

class WispAdmission : public sim::ServiceAdmission {
 public:
  WispAdmission(sim::Application* app, WispConfig config = {});

  /// Installs on every microservice and starts the update loop.
  void Install();

  bool Admit(const sim::RequestInfo& info, sim::ServiceId service, int pod_index,
             SimTime now) override;

  /// One update pass (exposed for tests).
  void Update();

  double RateLimit(sim::ServiceId service, int pod_index) const;

 private:
  struct PodCtl {
    double rate;
    TokenBucket bucket;
    // Downstream acceptance accounting for the current window: of the
    // requests this pod admitted, how many were later shed anywhere
    // downstream of it. Approximated service-wide (see Update()).
    explicit PodCtl(double rate_rps)
        : rate(rate_rps), bucket(rate_rps, std::max(4.0, rate_rps / 10.0)) {}
  };

  PodCtl& Ctl(sim::ServiceId service, int pod_index);

  sim::Application* app_;
  WispConfig config_;
  std::vector<std::vector<PodCtl>> pods_;
  /// Per-service window counters: admitted here / rejected downstream.
  std::vector<std::uint64_t> admitted_window_;
  std::vector<std::uint64_t> downstream_loss_window_;
  bool installed_ = false;

  friend class WispProbe;
};

}  // namespace topfull::baselines
