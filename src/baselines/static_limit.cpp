#include "baselines/static_limit.hpp"

#include <algorithm>

namespace topfull::baselines {

StaticLimitAdmission::StaticLimitAdmission(sim::Application* app,
                                           double rate_per_api,
                                           double burst_fraction,
                                           double min_burst)
    : app_(app), rate_per_api_(rate_per_api) {
  if (rate_per_api <= 0.0) return;
  const double burst = std::max(min_burst, rate_per_api * burst_fraction);
  buckets_.assign(static_cast<std::size_t>(app->NumApis()),
                  TokenBucket(rate_per_api, burst));
}

void StaticLimitAdmission::Install() { app_->SetEntryAdmission(this); }

bool StaticLimitAdmission::Admit(sim::ApiId api, SimTime now) {
  if (buckets_.empty()) return true;
  return buckets_[static_cast<std::size_t>(api)].TryAdmit(now);
}

}  // namespace topfull::baselines
