// Static (non-adaptive) entry rate limiter baseline.
//
// The simplest overload "control" an operator can deploy: a fixed per-API
// token bucket at the gateway, provisioned once and never adjusted. It is
// the control group of the scenario matrix — scenarios that require
// *adaptation* (metastable-trap escape, retry-storm damping) are expected
// to defeat it, which is exactly what the invariant expectations encode.
#pragma once

#include <vector>

#include "common/token_bucket.hpp"
#include "sim/admission.hpp"
#include "sim/app.hpp"

namespace topfull::baselines {

class StaticLimitAdmission : public sim::EntryAdmission {
 public:
  /// `rate_per_api` <= 0 leaves every API uncapped (the limiter admits
  /// everything — indistinguishable from no control, but still exercises
  /// the admission path).
  StaticLimitAdmission(sim::Application* app, double rate_per_api,
                       double burst_fraction = 0.25, double min_burst = 4.0);

  /// Installs this limiter as the application's entry admission.
  void Install();

  // sim::EntryAdmission:
  bool Admit(sim::ApiId api, SimTime now) override;

  double rate_per_api() const { return rate_per_api_; }

 private:
  sim::Application* app_;
  double rate_per_api_;
  std::vector<TokenBucket> buckets_;  ///< one per API; empty when uncapped
};

}  // namespace topfull::baselines
