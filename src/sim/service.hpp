// A microservice: a named pool of pods plus dispatch, scaling, and failure
// machinery.
//
// Capacity model: each running pod serves with `threads` parallel servers and
// a lognormal service time with mean `mean_service_ms` (scaled by the call
// node's work factor), i.e. one pod sustains threads / mean_service_time
// requests per second at 100 % CPU.
//
// A dispatch carries the caller's 32-bit token to the chosen pod; every pod
// of a service reports outcomes to the one Pod::DoneSink the service was
// built with (the Application's).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "des/simulation.hpp"
#include "sim/admission.hpp"
#include "sim/pod.hpp"
#include "sim/types.hpp"

namespace topfull::sim {

/// Static configuration of a microservice.
struct ServiceConfig {
  std::string name;
  /// Mean service time per request in milliseconds (before work scaling).
  double mean_service_ms = 10.0;
  /// Lognormal sigma of the service time (0 = deterministic).
  double service_sigma = 0.25;
  /// Worker servers per pod.
  int threads = 8;
  /// Per-pod queue capacity; arrivals beyond it are shed (503).
  int max_queue = 512;
  /// Initial replica count.
  int initial_pods = 1;
  /// vCPUs consumed by one pod (used by the cluster/autoscaler model).
  double vcpus_per_pod = 1.0;
  /// Synchronous (thread-per-request) RPC mode: the worker thread stays
  /// blocked while its request awaits downstream calls, so a slow
  /// downstream eats this service's concurrency — the classic cascade
  /// amplifier. Off by default (async RPC servers, like the paper's gRPC
  /// services with async handlers).
  bool blocking_rpc = false;
  /// Liveness-probe failure model (Fig. 15): when enabled, a pod whose
  /// queue stays above `probe_queue_threshold` for `probe_failure_count`
  /// consecutive probes is killed and restarted after `restart_delay`.
  bool probe_failures_enabled = false;
  SimTime probe_period = Seconds(5);
  int probe_queue_threshold = 400;
  int probe_failure_count = 3;
  SimTime restart_delay = Seconds(15);
};

/// Utilisation and queue snapshot for one collection window.
struct ServiceWindowStats {
  double cpu_utilization = 0.0;  ///< busy server time / available server time.
  double avg_queue_delay_s = 0.0;
  double max_queue_delay_s = 0.0;
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  int running_pods = 0;
  int total_outstanding = 0;  ///< queued + in-service jobs across pods.
};

class Service {
 public:
  /// Every pod reports job outcomes to `sink` (not owned; must outlive the
  /// service's pending completions).
  Service(des::Simulation* sim, ServiceId id, ServiceConfig config, Rng rng,
          Pod::DoneSink* sink);

  /// Dispatches one sub-request doing `work`× the base service time.
  /// Returns false when shed (admission denied, queue full, or no running
  /// pod); the sink only ever hears of `token` on success. The service time
  /// is drawn whether or not `sampled_service_time` is given; when it is
  /// non-null, the sampled duration is written to it on success (tracing
  /// observes the queue-wait/service-time split this way). A blackholed
  /// service returns true but drops the token; `*token_retained` (when
  /// non-null) tells the caller whether the sink will eventually report
  /// `token` — the request engine's attempt records count outstanding
  /// references and must not wait for one that was dropped.
  bool Dispatch(const RequestInfo& info, double work, std::uint32_t token,
                SimTime* sampled_service_time = nullptr,
                bool* token_retained = nullptr);

  /// Worker-slot handle for blocking-RPC dispatches; call ReleaseHeld once
  /// the request's downstream subtree has completed.
  struct HeldDispatch {
    Pod* pod = nullptr;
    Pod::HoldHandle handle;
  };
  static_assert(sizeof(HeldDispatch) == 16);

  /// Like Dispatch, but the worker slot stays occupied after local service
  /// completes until ReleaseHeld(*held). `held` must stay at a stable
  /// address until the attempt resolves (it lives in the request engine's
  /// pooled attempt record).
  bool DispatchHeld(const RequestInfo& info, double work, std::uint32_t token,
                    HeldDispatch* held, SimTime* sampled_service_time = nullptr,
                    bool* token_retained = nullptr);

  static void ReleaseHeld(HeldDispatch& held) {
    if (held.pod != nullptr) held.pod->Release(held.handle);
    held.pod = nullptr;
  }

  /// Installs a per-service admission controller (baselines). Not owned.
  void SetAdmission(ServiceAdmission* admission) { admission_ = admission; }

  // --- Scaling -------------------------------------------------------------

  /// Scales to `n` pods. New pods become running after `startup_delay`;
  /// removed pods are killed immediately (their queued jobs fail).
  void SetPodCount(int n, SimTime startup_delay = 0);

  /// Kills `n` running pods (failure injection, Fig. 18). Returns the
  /// number actually killed.
  int KillPods(int n);

  /// Re-adds up to `n` pods toward the desired count without changing it
  /// (deployment controller replacing crashed pods one by one — the fault
  /// engine's staggered-restart path). Returns the number added.
  int RestorePods(int n, SimTime startup_delay = 0);

  // --- Fault injection (src/fault) -----------------------------------------
  //
  // All knobs below default to the identity and, while inactive, consume no
  // randomness and change no behaviour — the same no-perturbation contract
  // as the observers in src/obs.

  /// Caps per-pod parallelism to `factor` × threads (capacity degradation:
  /// CPU throttling, noisy neighbours). Applies to current and future pods;
  /// each pod keeps at least one effective server. factor is clamped to
  /// (0, 1].
  void SetCapacityFactor(double factor);
  double CapacityFactor() const { return capacity_factor_; }

  /// Multiplies every sampled service time by `factor` (>= 0.01). The
  /// underlying lognormal draw is unchanged, so reverting the fault
  /// restores the baseline sample stream exactly.
  void SetServiceTimeFactor(double factor);
  double ServiceTimeFactor() const { return time_factor_; }

  /// Blackholes the service: dispatches are accepted (the caller believes
  /// the RPC is in flight) but never complete. Callers need a hop timeout
  /// to make progress — exactly the dependency-failure mode the fault
  /// engine models. No RNG is consumed for blackholed dispatches.
  void SetBlackhole(bool on) { blackholed_ = on; }
  bool Blackholed() const { return blackholed_; }

  /// Transient error injection: each dispatch fails immediately with
  /// probability `rate`, drawn from `rng` — a fault-owned stream, never
  /// the workload RNG, so rate 0 keeps runs byte-identical.
  void SetErrorInjection(double rate, Rng rng);
  void ClearErrorInjection() { error_rate_ = 0.0; }
  double ErrorRate() const { return error_rate_; }

  std::uint64_t BlackholedDispatches() const { return blackholed_dispatches_; }
  std::uint64_t InjectedErrors() const { return injected_errors_; }

  int RunningPods() const;
  int DesiredPods() const { return desired_pods_; }
  /// Pods that exist in any live state (running or starting).
  int TotalPods() const;

  /// Direct pod access (baseline controllers read per-pod queue signals).
  /// Indices are stable: killed pods remain as tombstones.
  int PodCount() const { return static_cast<int>(pods_.size()); }
  Pod& pod(int index) { return *pods_[index]; }
  const Pod& pod(int index) const { return *pods_[index]; }

  // --- Metrics -------------------------------------------------------------

  /// Drains per-pod counters accumulated since the previous call and
  /// returns the aggregated window view. `window` is the elapsed time the
  /// counters cover.
  ServiceWindowStats CollectWindow(SimTime window);

  /// Estimated sustainable throughput in requests/second at work=1.
  double CapacityRps() const;

  const ServiceConfig& config() const { return config_; }
  ServiceId id() const { return id_; }
  const std::string& name() const { return config_.name; }

  /// Enables/disables the liveness-probe failure model at runtime.
  void SetProbeFailures(bool enabled);

  /// Total number of probe-triggered pod kills (for reporting).
  int ProbeKills() const { return probe_kills_; }

 private:
  /// Index of the least-loaded running pod, or -1 when none is running.
  /// Ties go to the first in round-robin order from rr_cursor_ % pods.
  int PickPod();
  /// Dispatch and DispatchHeld (`held` null for a plain dispatch).
  bool Route(const RequestInfo& info, double work, std::uint32_t token,
             HeldDispatch* held, SimTime* sampled_service_time,
             bool* token_retained);
  /// Appends one pod (starting after `startup_delay`) with the current
  /// capacity factor applied.
  void AddPod(SimTime startup_delay);
  /// Offline servers per pod implied by the current capacity factor.
  int OfflineThreadsPerPod() const;
  void StartProbeLoop();
  void RunProbe();

  des::Simulation* sim_;
  Pod::DoneSink* sink_;
  ServiceId id_;
  ServiceConfig config_;
  Rng rng_;
  ServiceAdmission* admission_ = nullptr;
  std::vector<std::unique_ptr<Pod>> pods_;
  std::vector<int> probe_strikes_;  ///< consecutive failed probes per pod.
  int desired_pods_ = 0;
  std::uint64_t rr_cursor_ = 0;  ///< advanced once per pick
  int probe_kills_ = 0;
  bool probe_loop_running_ = false;
  double log_mean_;  ///< precomputed lognormal mu for the base service time.

  // Fault-injection state (identity defaults = no behaviour change).
  double capacity_factor_ = 1.0;
  double time_factor_ = 1.0;
  bool blackholed_ = false;
  double error_rate_ = 0.0;
  Rng error_rng_;  ///< Only drawn from while error_rate_ > 0.
  std::uint64_t blackholed_dispatches_ = 0;
  std::uint64_t injected_errors_ = 0;
};

}  // namespace topfull::sim
