#include "core/controller.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace topfull::core {

TopFullController::TopFullController(sim::Application* app,
                                     std::unique_ptr<RateController> prototype,
                                     TopFullConfig config)
    : app_(app),
      registry_(*app),
      prototype_(std::move(prototype)),
      config_(config),
      controls_(app->NumApis()) {
  app_->SetEntryAdmission(this);
  // Live registry families, updated in-line with every tick/limit change.
  obs::MetricsRegistry& metrics = app_->metrics_registry();
  ticks_counter_ = metrics.GetCounter("topfull_controller_ticks_total",
                                      "Control ticks executed.");
  decisions_counter_ =
      metrics.GetCounter("topfull_controller_decisions_total",
                         "Control decisions taken (Algorithm 1 + recovery).");
  overloaded_gauge_ = metrics.GetGauge(
      "topfull_controller_overloaded_services",
      "Overloaded microservices detected at the last tick (after hysteresis).");
  for (sim::ApiId a = 0; a < app_->NumApis(); ++a) {
    limit_gauges_.push_back(metrics.GetGauge(
        "topfull_api_rate_limit_rps",
        "Entry rate limit per API (+Inf = uncapped).", {{"api", app_->api(a).name()}}));
    limit_gauges_.back()->Set(std::numeric_limits<double>::infinity());
  }
}

void TopFullController::Start() {
  if (started_) return;
  started_ = true;
  app_->sim().SchedulePeriodic(app_->sim().Now() + config_.period, config_.period,
                               [this]() { Tick(); });
}

bool TopFullController::Admit(sim::ApiId api, SimTime now) {
  ApiControl& control = controls_[api];
  return !control.capped || control.bucket.TryAdmit(now);
}

std::optional<double> TopFullController::RateLimit(sim::ApiId api) const {
  const ApiControl& control = controls_[api];
  if (!control.capped) return std::nullopt;
  return control.rate;
}

void TopFullController::ForceRateLimit(sim::ApiId api, double rate) {
  if (!std::isfinite(rate)) return;  // fail safe: keep the current limit
  controls_[api].capped = true;
  SetRate(api, rate);
}

double TopFullController::LatencyOf(const sim::ApiWindow& w) const {
  switch (config_.latency_feature) {
    case LatencyFeature::kP50:
      return w.latency_p50_ms / 1000.0;
    case LatencyFeature::kP99:
      return w.latency_p99_ms / 1000.0;
    case LatencyFeature::kP95:
      break;
  }
  return w.latency_p95_ms / 1000.0;
}

ControlState TopFullController::StateOf(const std::vector<sim::ApiId>& apis) const {
  return StateOf(apis, app_->metrics().Latest());
}

ControlState TopFullController::StateOf(const std::vector<sim::ApiId>& apis,
                                        const sim::Snapshot& snap) const {
  ControlState state;
  state.slo_s = ToSeconds(app_->metrics().slo());
  for (const sim::ApiId a : apis) {
    const auto& w = snap.apis[a];
    state.goodput += static_cast<double>(w.good);
    state.rate_limit += controls_[a].capped
                            ? controls_[a].rate
                            : static_cast<double>(std::max<std::uint64_t>(w.admitted, 1));
    state.latency_s = std::max(state.latency_s, LatencyOf(w));
  }
  return state;
}

RateController& TopFullController::ClusterController(sim::ServiceId target) {
  auto& slot = cluster_controllers_[target];
  if (!slot) slot = prototype_->Clone();
  return *slot;
}

RateController& TopFullController::RecoveryController(sim::ApiId api) {
  auto& slot = recovery_controllers_[api];
  if (!slot) slot = prototype_->Clone();
  return *slot;
}

void TopFullController::SetRate(sim::ApiId api, double rate) {
  // Fail safe: a non-finite rate (NaN from a diverged policy, say) would pass
  // std::clamp and starve the API, so the API keeps its current limit.
  if (!std::isfinite(rate)) return;
  ApiControl& control = controls_[api];
  const double before = control.rate;
  control.rate = std::clamp(rate, config_.min_rate, config_.max_rate);
  if (decision_observer_ != nullptr) {
    decision_observer_->OnRateChange(api, before, control.rate);
  }
  limit_gauges_[api]->Set(control.rate);
  // Keep a shallow burst so 1 s averages track the limit closely. Every
  // change starts a fresh, full bucket.
  const double burst =
      std::max(config_.min_burst, control.rate * config_.burst_fraction);
  control.bucket = TokenBucket(control.rate, burst);
}

void TopFullController::EnsureCapped(sim::ApiId api, const sim::Snapshot& snap) {
  ApiControl& control = controls_[api];
  if (control.capped) return;
  control.capped = true;
  const auto& w = snap.apis[api];
  // Seed from the observed admitted rate of the last window: the control
  // starts from "what the system currently takes", not from a blind guess.
  const double seed = std::max<double>(static_cast<double>(w.admitted), config_.min_rate);
  SetRate(api, seed);
}

void TopFullController::AdjustRate(const std::vector<sim::ApiId>& candidates,
                                   double action) {
  if (candidates.empty() || action == 0.0) return;
  // Algorithm 1: positive actions go to the highest-business-priority
  // candidates, negative actions to the lowest. Ties are adjusted together;
  // with priorities disabled (or all equal) every candidate moves equally.
  // A candidate already pinned at the rate floor cannot shed further, so a
  // negative action escalates past it to the next priority tier (otherwise
  // the overload would never resolve once the lowest tier bottoms out).
  std::vector<sim::ApiId> targets;
  if (!config_.respect_priority) {
    targets = candidates;
  } else {
    std::vector<sim::ApiId> eligible;
    if (action < 0.0) {
      for (const sim::ApiId a : candidates) {
        if (!controls_[a].capped || controls_[a].rate > config_.min_rate + 1e-9) {
          eligible.push_back(a);
        }
      }
    }
    if (eligible.empty()) eligible = candidates;
    int extreme = app_->api(eligible[0]).business_priority();
    for (const sim::ApiId a : eligible) {
      const int p = app_->api(a).business_priority();
      // Smaller value = higher priority.
      if (action > 0.0 ? p < extreme : p > extreme) extreme = p;
    }
    for (const sim::ApiId a : eligible) {
      if (app_->api(a).business_priority() == extreme) targets.push_back(a);
    }
  }
  const sim::Snapshot& snap = app_->metrics().Latest();
  for (const sim::ApiId a : targets) {
    double rate = controls_[a].rate * (1.0 + action);
    if (action < 0.0 && a < static_cast<sim::ApiId>(snap.apis.size())) {
      // Excessive-throttling guard: while queues drain after a cut, the
      // observed e2e latency stays stale-high for a few windows, which
      // would otherwise drive the limit far below the throughput the API
      // demonstrably sustains. Never cut below ~80 % of the goodput the
      // API just delivered.
      const double floor = 0.8 * static_cast<double>(snap.apis[a].good);
      rate = std::max(rate, floor);
    }
    SetRate(a, rate);
  }
}

void TopFullController::Tick() {
  const sim::Snapshot& snap = app_->metrics().Latest();
  if (snap.services.empty()) return;
  ticks_counter_->Inc();

  std::vector<sim::ServiceId> overloaded = DetectOverloaded(snap, config_.overload);
  if (config_.overload.util_exit_threshold > 0.0) {
    // Two-threshold hysteresis: a previously flagged service stays in the
    // overloaded set until its utilisation drops below the exit threshold.
    if (flagged_.empty()) {
      flagged_.assign(static_cast<std::size_t>(app_->NumServices()), false);
    }
    std::vector<bool> now_flagged(flagged_.size(), false);
    for (const sim::ServiceId s : overloaded) now_flagged[s] = true;
    for (std::size_t s = 0; s < flagged_.size(); ++s) {
      if (flagged_[s] && !now_flagged[s] &&
          snap.services[s].cpu_utilization >= config_.overload.util_exit_threshold) {
        now_flagged[s] = true;
      }
    }
    overloaded.clear();
    for (std::size_t s = 0; s < now_flagged.size(); ++s) {
      if (now_flagged[s]) overloaded.push_back(static_cast<sim::ServiceId>(s));
    }
    flagged_ = std::move(now_flagged);
  }
  overloaded_gauge_->Set(static_cast<double>(overloaded.size()));
  last_clusters_ = BuildClusters(registry_, overloaded);
  if (tracker_ != nullptr) {
    tracker_->Record(ToSeconds(app_->sim().Now()), last_clusters_);
  }
  if (decision_observer_ != nullptr) {
    decision_observer_->BeginTick(ToSeconds(app_->sim().Now()), overloaded,
                                  last_clusters_);
  }

  // Which APIs are members of some cluster (i.e. touch an overload)?
  std::vector<bool> in_cluster(static_cast<std::size_t>(app_->NumApis()), false);
  for (const auto& cluster : last_clusters_) {
    for (const sim::ApiId a : cluster.apis) in_cluster[a] = true;
  }

  // --- Per-cluster load control (parallel; sequential in the ablation). ----
  if (!last_clusters_.empty()) {
    std::size_t begin = 0, end = last_clusters_.size();
    if (!config_.enable_clustering) {
      // Naive sequential control: one sub-problem per tick, round robin.
      begin = sequential_cursor_ % last_clusters_.size();
      end = begin + 1;
      ++sequential_cursor_;
    }
    std::vector<bool> overloaded_set(static_cast<std::size_t>(app_->NumServices()),
                                     false);
    for (const sim::ServiceId s : overloaded) overloaded_set[s] = true;
    for (std::size_t c = begin; c < end; ++c) {
      const Cluster& cluster = last_clusters_[c];
      if (cluster.overloaded.empty()) continue;
      // Resolve the cluster's overloaded services fewest-APIs-first (§4.1
      // target-selection order). A bottleneck being *held* at capacity
      // stays in the overloaded set indefinitely, so strict
      // one-service-at-a-time would leave every other bottleneck in the
      // cluster unmanaged; instead we progress to further targets within
      // the tick as long as their candidate APIs were not already adjusted
      // by an earlier target (decisions stay independent).
      std::vector<sim::ServiceId> targets = cluster.overloaded;
      switch (config_.target_order) {
        case TargetOrder::kFewestApisFirst:
          std::sort(targets.begin(), targets.end(),
                    [this](sim::ServiceId a, sim::ServiceId b) {
                      const int ca = registry_.ApiCount(a), cb = registry_.ApiCount(b);
                      return ca != cb ? ca < cb : a < b;
                    });
          break;
        case TargetOrder::kMostApisFirst:
          std::sort(targets.begin(), targets.end(),
                    [this](sim::ServiceId a, sim::ServiceId b) {
                      const int ca = registry_.ApiCount(a), cb = registry_.ApiCount(b);
                      return ca != cb ? ca > cb : a < b;
                    });
          break;
        case TargetOrder::kServiceIdOrder:
          break;  // cluster.overloaded is already sorted by id
      }
      std::vector<bool> adjusted(static_cast<std::size_t>(app_->NumApis()), false);
      for (const sim::ServiceId target : targets) {
        const std::vector<sim::ApiId>& all_candidates = registry_.ApisOf(target);
        // APIs already adjusted for an earlier (fewer-API) target this tick
        // are off limits; the remaining candidates are still actionable.
        std::vector<sim::ApiId> candidates;
        for (const sim::ApiId a : all_candidates) {
          if (!adjusted[a]) candidates.push_back(a);
        }
        if (candidates.empty()) continue;
        for (const sim::ApiId a : candidates) {
          adjusted[a] = true;
          EnsureCapped(a, snap);
        }
        const ControlState state = StateOf(candidates, snap);
        const double action = ClusterController(target).DecideStep(state);
        ++decisions_;
        decisions_counter_->Inc();
        if (decision_observer_ != nullptr) {
          decision_observer_->OnClusterDecision(target, candidates, state, action);
        }
        if (action > 0.0) {
          // §4.1: only rate-increase APIs whose execution paths contain no
          // overloaded microservice beyond the target being probed —
          // increasing an API still gated elsewhere only manufactures
          // partially-processed responses (Fig. 6). If nobody qualifies,
          // fall back to all candidates so the capacity search never
          // stalls.
          std::vector<sim::ApiId> eligible;
          for (const sim::ApiId a : candidates) {
            bool gated_elsewhere = false;
            for (const sim::ServiceId s : registry_.ServicesOf(a)) {
              if (s != target && overloaded_set[s]) {
                gated_elsewhere = true;
                break;
              }
            }
            if (!gated_elsewhere) eligible.push_back(a);
          }
          AdjustRate(eligible.empty() ? candidates : eligible, action);
        } else {
          AdjustRate(candidates, action);
        }
      }
    }
  }

  // --- Recovery of rate-limited APIs with overload-free paths (§4.1). ------
  for (sim::ApiId a = 0; a < app_->NumApis(); ++a) {
    if (!controls_[a].capped || in_cluster[a]) continue;
    if (config_.deactivate_when_slack &&
        controls_[a].rate > static_cast<double>(snap.apis[a].offered)) {
      // The limit no longer binds and nothing on the path is overloaded:
      // load control for this API is deactivated (§4.1).
      controls_[a].capped = false;
      limit_gauges_[a]->Set(std::numeric_limits<double>::infinity());
      continue;
    }
    const ControlState state = StateOf({a}, snap);
    const double action = config_.recovery_step > 0.0
                              ? config_.recovery_step
                              : RecoveryController(a).DecideStep(state);
    ++decisions_;
    decisions_counter_->Inc();
    if (decision_observer_ != nullptr) {
      decision_observer_->OnRecoveryDecision(a, state, action);
    }
    if (action != 0.0) SetRate(a, controls_[a].rate * (1.0 + action));
  }
  if (decision_observer_ != nullptr) decision_observer_->EndTick();
}

}  // namespace topfull::core
