#include "sim/service.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace topfull::sim {

Service::Service(des::Simulation* sim, ServiceId id, ServiceConfig config, Rng rng,
                 Pod::DoneSink* sink)
    : sim_(sim), sink_(sink), id_(id), config_(std::move(config)), rng_(rng) {
  assert(config_.mean_service_ms > 0.0);
  assert(config_.threads > 0);
  // Lognormal mu such that the mean equals mean_service_ms.
  log_mean_ = std::log(config_.mean_service_ms) -
              0.5 * config_.service_sigma * config_.service_sigma;
  SetPodCount(config_.initial_pods, /*startup_delay=*/0);
  if (config_.probe_failures_enabled) StartProbeLoop();
}

int Service::PickPod() {
  // Least-outstanding among running pods, round-robin tie-break: scan from
  // the cursor and keep the first pod with the fewest outstanding jobs. An
  // idle pod cannot be beaten, so the scan stops there.
  const std::size_t n = pods_.size();
  if (n == 0) return -1;
  std::size_t i = static_cast<std::size_t>(rr_cursor_++ % n);
  int best = -1;
  int best_load = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const Pod& pod = *pods_[i];
    if (pod.running()) {
      const int load = pod.Outstanding();
      if (best < 0 || load < best_load) {
        best = static_cast<int>(i);
        best_load = load;
        if (load == 0) break;
      }
    }
    if (++i == n) i = 0;
  }
  return best;
}

bool Service::Dispatch(const RequestInfo& info, double work, std::uint32_t token,
                       SimTime* sampled_service_time, bool* token_retained) {
  return Route(info, work, token, nullptr, sampled_service_time, token_retained);
}

bool Service::DispatchHeld(const RequestInfo& info, double work, std::uint32_t token,
                           HeldDispatch* held, SimTime* sampled_service_time,
                           bool* token_retained) {
  return Route(info, work, token, held, sampled_service_time, token_retained);
}

bool Service::Route(const RequestInfo& info, double work, std::uint32_t token,
                    HeldDispatch* held, SimTime* sampled_service_time,
                    bool* token_retained) {
  if (token_retained != nullptr) *token_retained = true;
  const int pod_index = PickPod();
  if (pod_index < 0) return false;
  Pod* pod = pods_[pod_index].get();
  if (admission_ != nullptr) {
    if (!admission_->Admit(info, id_, pod_index, sim_->Now())) return false;
  }
  if (blackholed_) {
    // The caller sees a successful send that never completes; its hop
    // timeout (if any) converts the silence into a failure. Dropping the
    // token before the service-time draw keeps the workload RNG stream
    // aligned with the post-revert run. A held dispatch leaves `held->pod`
    // null, so a later ReleaseHeld is a no-op: no worker slot was taken.
    ++blackholed_dispatches_;
    if (token_retained != nullptr) *token_retained = false;
    return true;
  }
  if (error_rate_ > 0.0 && error_rng_.NextDouble() < error_rate_) {
    ++injected_errors_;  // transient 5xx: fails fast, retryable
    return false;
  }
  const double sigma = config_.service_sigma;
  // log(1) is exactly 0, so skipping it for unit work changes no bit.
  const double ms =
      sigma > 0.0
          ? rng_.LogNormal(work == 1.0 ? log_mean_ : log_mean_ + std::log(work), sigma)
          : config_.mean_service_ms * work;
  const SimTime service_time = Millis(ms * time_factor_);
  if (sampled_service_time != nullptr) *sampled_service_time = service_time;
  if (held == nullptr) return pod->Enqueue(service_time, token);
  held->pod = pod;
  return pod->EnqueueHeld(service_time, token, &held->handle);
}

void Service::AddPod(SimTime startup_delay) {
  pods_.push_back(
      std::make_unique<Pod>(sim_, config_.threads, config_.max_queue, sink_));
  probe_strikes_.push_back(0);
  Pod* pod = pods_.back().get();
  // New pods land on the same (possibly degraded) machines as the rest of
  // the fleet, so they inherit the active capacity factor.
  const int offline = OfflineThreadsPerPod();
  if (offline > 0) pod->SetOfflineThreads(offline);
  if (startup_delay <= 0) {
    pod->Start();
  } else {
    sim_->ScheduleAfter(startup_delay, [pod]() { pod->Start(); });
  }
}

void Service::SetPodCount(int n, SimTime startup_delay) {
  n = std::max(0, n);
  desired_pods_ = n;
  // Count live pods (running or starting).
  int live = TotalPods();
  while (live < n) {
    AddPod(startup_delay);
    ++live;
  }
  if (live > n) {
    // Remove starting pods first, then running pods from the back.
    for (auto it = pods_.rbegin(); it != pods_.rend() && live > n; ++it) {
      if ((*it)->state() == PodState::kStarting) {
        (*it)->Kill();
        --live;
      }
    }
    for (auto it = pods_.rbegin(); it != pods_.rend() && live > n; ++it) {
      if ((*it)->running()) {
        (*it)->Kill();
        --live;
      }
    }
  }
}

int Service::KillPods(int n) {
  int killed = 0;
  for (auto& pod : pods_) {
    if (killed >= n) break;
    if (pod->running()) {
      pod->Kill();
      ++killed;
    }
  }
  return killed;
}

int Service::RestorePods(int n, SimTime startup_delay) {
  int added = 0;
  while (added < n && TotalPods() < desired_pods_) {
    AddPod(startup_delay);
    ++added;
  }
  return added;
}

int Service::OfflineThreadsPerPod() const {
  if (capacity_factor_ >= 1.0) return 0;
  const int effective = std::max(
      1, static_cast<int>(std::floor(static_cast<double>(config_.threads) *
                                         capacity_factor_ +
                                     1e-9)));
  return config_.threads - effective;
}

void Service::SetCapacityFactor(double factor) {
  capacity_factor_ = std::clamp(factor, 1e-6, 1.0);
  const int offline = OfflineThreadsPerPod();
  for (auto& pod : pods_) pod->SetOfflineThreads(offline);
}

void Service::SetServiceTimeFactor(double factor) {
  time_factor_ = std::max(0.01, factor);
}

void Service::SetErrorInjection(double rate, Rng rng) {
  error_rate_ = std::clamp(rate, 0.0, 1.0);
  error_rng_ = rng;
}

int Service::RunningPods() const {
  int n = 0;
  for (const auto& pod : pods_) n += pod->running() ? 1 : 0;
  return n;
}

int Service::TotalPods() const {
  int n = 0;
  for (const auto& pod : pods_) {
    n += (pod->state() == PodState::kRunning || pod->state() == PodState::kStarting) ? 1 : 0;
  }
  return n;
}

ServiceWindowStats Service::CollectWindow(SimTime window) {
  ServiceWindowStats out;
  double busy = 0.0;
  double qsum = 0.0;
  int available_threads = 0;
  for (auto& pod : pods_) {
    const PodWindowStats w = pod->DrainWindowStats();
    busy += w.busy_seconds;
    qsum += w.queue_delay_sum_s;
    out.max_queue_delay_s = std::max(out.max_queue_delay_s, w.queue_delay_max_s);
    out.started += w.started;
    out.completed += w.completed;
    if (pod->running()) {
      ++out.running_pods;
      out.total_outstanding += pod->Outstanding();
      available_threads += pod->EffectiveThreads();
    }
  }
  out.avg_queue_delay_s = out.started > 0 ? qsum / static_cast<double>(out.started) : 0.0;
  // Utilisation is measured against *effective* servers: a degraded pod
  // that saturates its remaining capacity reads 100 % busy, which is what
  // the HPA and the overload detector should see.
  const double denom = ToSeconds(window) * static_cast<double>(available_threads);
  if (denom > 0.0) {
    out.cpu_utilization = std::clamp(busy / denom, 0.0, 1.0);
  } else {
    out.cpu_utilization = (out.started > 0 || out.total_outstanding > 0) ? 1.0 : 0.0;
  }
  return out;
}

double Service::CapacityRps() const {
  int available_threads = 0;
  for (const auto& pod : pods_) {
    if (pod->running()) available_threads += pod->EffectiveThreads();
  }
  return static_cast<double>(available_threads) /
         (config_.mean_service_ms * time_factor_ / 1000.0);
}

void Service::SetProbeFailures(bool enabled) {
  config_.probe_failures_enabled = enabled;
  if (enabled) StartProbeLoop();
}

void Service::StartProbeLoop() {
  if (probe_loop_running_) return;
  probe_loop_running_ = true;
  sim_->SchedulePeriodic(config_.probe_period, config_.probe_period,
                         [this]() { RunProbe(); });
}

void Service::RunProbe() {
  if (!config_.probe_failures_enabled) return;
  for (std::size_t i = 0; i < pods_.size(); ++i) {
    Pod* pod = pods_[i].get();
    if (!pod->running()) continue;
    if (pod->QueueLength() > config_.probe_queue_threshold) {
      if (++probe_strikes_[i] >= config_.probe_failure_count) {
        pod->Kill();
        probe_strikes_[i] = 0;
        ++probe_kills_;
        // The deployment controller replaces the crashed pod after the
        // restart delay (if the service is still under its desired count).
        sim_->ScheduleAfter(config_.restart_delay, [this]() {
          if (TotalPods() < desired_pods_) {
            SetPodCount(desired_pods_, /*startup_delay=*/Seconds(1));
          }
        });
      }
    } else {
      probe_strikes_[i] = 0;
    }
  }
}

}  // namespace topfull::sim
