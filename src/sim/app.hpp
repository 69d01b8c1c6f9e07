// Application: a complete simulated microservice deployment.
//
// Owns the event engine, the services, the API registry, the entry gateway
// and the metrics collector, and implements the request lifecycle: entry
// admission -> call-tree execution across services -> completion/failure
// accounting. A rejection at any service fails the whole request while the
// work already done upstream stays spent — the waste/starvation mechanism
// of Fig. 1.
//
// The request engine runs on pooled records instead of shared_ptr-chained
// closures: one RequestRec per admitted request and one AttemptRec per hop
// attempt, both slab-allocated and recycled, with generation counters
// guarding the continuations that might outlive their attempt. A hop carries
// no closure: pods report its outcome to the Application's one
// Pod::DoneSink by the attempt record's pool index, and hop timeouts are
// queue timers (one des::Simulation timer queue per distinct delay) armed
// with the same index and cancelled when the hop settles, so the
// steady-state per-hop path performs zero heap allocations.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/object_pool.hpp"
#include "common/rng.hpp"
#include "des/simulation.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/call_graph.hpp"
#include "sim/metrics.hpp"
#include "sim/request_observer.hpp"
#include "sim/service.hpp"
#include "sim/types.hpp"

namespace topfull::sim {

/// Application-wide knobs.
struct AppConfig {
  /// End-to-end latency SLO; completions beyond it do not count as goodput.
  SimTime slo = Seconds(1);
  /// Metrics collection window (the paper observes at 1 s granularity).
  SimTime metrics_period = Seconds(1);
  /// Per-hop RPC timeout; 0 disables (a hop waits forever — required to be
  /// > 0 for blackhole faults to resolve). The timed-out job keeps running
  /// on its server: the partial work stays spent. Each distinct value gets
  /// one des::Simulation timer queue, whose timeouts expire in the order
  /// they were armed; a value changed mid-run (ConfigureRpc) arms new hops
  /// on another queue while the old queue's timeouts stay pending.
  SimTime hop_timeout = 0;
  /// Bounded retries per hop after a shed, error, or timeout. Each retry
  /// re-picks a pod and re-samples the service time (retry amplification).
  int max_retries = 0;
  /// Delay before each retry attempt.
  SimTime retry_backoff = 0;
};

/// Optional per-request attribution supplied by the traffic source.
struct SubmitOptions {
  /// DAGOR-style user priority in [0, 127]. Negative keeps the legacy
  /// behaviour of sampling a fresh priority per request at the gateway; a
  /// non-negative value pins it, which is what gives a closed-loop *user*
  /// a stable identity across all of their requests (multi-tenant
  /// fairness scenarios depend on this).
  int user_priority = -1;
};

class Application {
 public:
  /// Completion callback: outcome and end-to-end latency (0 on rejection).
  using DoneFn = std::function<void(Outcome, SimTime)>;

  Application(std::string name, std::uint64_t seed, AppConfig config = {});
  ~Application();

  // --- Topology construction ----------------------------------------------

  /// Registers a microservice; returns its id.
  ServiceId AddService(ServiceConfig config);

  /// Registers an external API; returns its id. `spec` may be unfinalised;
  /// Finalize() completes it.
  ApiId AddApi(ApiSpec spec);

  /// Must be called once after all services/APIs are added. Starts the
  /// metrics collection loop (which therefore ticks before any controller
  /// loop registered afterwards — controllers see fresh windows) and
  /// builds the name -> id lookup indices.
  void Finalize();

  // --- Entry point ---------------------------------------------------------

  /// Installs the entry admission hook (TopFull's rate limiter). Not owned.
  void SetEntryAdmission(EntryAdmission* admission) { entry_ = admission; }

  /// Installs a request-lifecycle observer (span tracing). Not owned; must
  /// outlive the simulation run. Strictly pass-through: results are
  /// identical with or without an observer.
  void SetObserver(RequestObserver* observer) { observer_ = observer; }
  RequestObserver* observer() const { return observer_; }

  /// Submits one client request for `api` at the current sim time.
  void Submit(ApiId api, DoneFn on_done = {});
  /// Submit with explicit attribution (stable user priority, ...).
  void Submit(ApiId api, const SubmitOptions& options, DoneFn on_done = {});

  // --- Access ---------------------------------------------------------------

  des::Simulation& sim() { return sim_; }
  const des::Simulation& sim() const { return sim_; }
  MetricsCollector& metrics() { return *metrics_; }
  const MetricsCollector& metrics() const { return *metrics_; }

  /// The live streaming-metrics registry. Populated by Finalize() with the
  /// request/service families (updated in-line as the DES advances);
  /// controllers and fault injectors add their own families. One registry
  /// per Application — never shared across parallel runs.
  obs::MetricsRegistry& metrics_registry() { return registry_; }
  const obs::MetricsRegistry& metrics_registry() const { return registry_; }

  Service& service(ServiceId id) { return *services_[id]; }
  const Service& service(ServiceId id) const { return *services_[id]; }
  int NumServices() const { return static_cast<int>(services_.size()); }

  const ApiSpec& api(ApiId id) const { return apis_[id]; }
  ApiSpec& mutable_api(ApiId id) { return apis_[id]; }
  int NumApis() const { return static_cast<int>(apis_.size()); }

  /// Looks up a service by name; returns kNoService when absent. O(1)
  /// after Finalize() (hash index), linear scan before.
  ServiceId FindService(const std::string& name) const;
  /// Looks up an API by name; returns kNoApi when absent. O(1) after
  /// Finalize().
  ApiId FindApi(const std::string& name) const;

  const std::string& name() const { return name_; }
  const AppConfig& config() const { return config_; }
  Rng& rng() { return rng_; }

  /// Runs the simulation for `duration` from the current clock.
  void RunFor(SimTime duration) { sim_.RunUntil(sim_.Now() + duration); }
  void RunUntil(SimTime t) { sim_.RunUntil(t); }

  /// In-flight request count (admitted, not yet finalised).
  int Inflight() const { return inflight_; }

  /// Reconfigures the per-hop timeout/retry policy (callable any time; new
  /// dispatches pick it up immediately). Convenience for benches/CLI so app
  /// factories need not thread the knobs through.
  void ConfigureRpc(SimTime hop_timeout, int max_retries, SimTime retry_backoff);

  /// Cumulative hop timeouts fired / retry attempts dispatched.
  std::uint64_t HopTimeouts() const { return hop_timeouts_; }
  std::uint64_t Retries() const { return retries_; }

  /// Cumulative local hop attempts dispatched (first attempts + retries,
  /// including attempts shed at dispatch). HopAttempts() - Retries() is the
  /// number of first attempts, so the per-hop retry amplification factor is
  /// HopAttempts() / (HopAttempts() - Retries()).
  std::uint64_t HopAttempts() const { return hop_attempts_; }

  /// Request-engine arena usage (benches/tests): live records and pool
  /// high-water capacity. Steady-state capacity growth means the hot path
  /// is allocating — the tab_event_throughput bench watches this.
  struct ArenaStats {
    std::size_t live_requests = 0;
    std::size_t request_capacity = 0;
    std::size_t live_attempts = 0;
    std::size_t attempt_capacity = 0;
  };
  ArenaStats Arena() const;

 private:
  struct RequestRec;
  struct AttemptRec;

  /// Where an attempt's subtree result is delivered: the owning request
  /// (root of the call tree), a sequential parent (advance to the next
  /// child), or a parallel parent (join). Parent access is generation-
  /// checked; the parent record is pinned until its subtree resolves, so
  /// the check is an assertion rather than a branch.
  struct ContRef {
    enum class Kind : std::uint8_t { kRoot, kSeq, kJoin };
    Kind kind = Kind::kRoot;
    AttemptRec* parent = nullptr;
    std::uint32_t parent_gen = 0;
  };

  void StartAttempt(RequestRec* req, const CallNode* node, int attempt,
                    ContRef cont);
  void OnLocalDone(AttemptRec* a, bool ok);
  void OnHopTimeout(AttemptRec* a);
  /// Points new hops at the timer queue for config_.hop_timeout, reusing
  /// the queue of an earlier equal delay or adding one.
  void SelectHopTimeoutQueue();
  /// Shed/error/pod-death/timeout: bounded retry, else resolve(false).
  void FailAttempt(AttemptRec* a);
  /// Local service succeeded: run children (or resolve a leaf).
  void AfterLocalSuccess(AttemptRec* a);
  void RunNextChild(AttemptRec* a);
  /// The attempt's whole subtree is decided: release the held worker slot,
  /// deliver to the continuation, drop the logic reference.
  void ResolveSubtree(AttemptRec* a, bool ok);
  void FinalizeRequest(RequestRec* req, bool ok);
  /// Drops one reference; frees the record (bumping its generation) at 0.
  void ReleaseAttempt(AttemptRec* a);

  std::string name_;
  AppConfig config_;
  Rng rng_;
  des::Simulation sim_;
  /// Every pod's job outcomes: the token is the attempt record's pool index.
  Pod::DoneSink done_sink_;
  std::vector<std::unique_ptr<Service>> services_;
  std::vector<ApiSpec> apis_;
  std::unique_ptr<MetricsCollector> metrics_;
  obs::MetricsRegistry registry_;
  /// Per-service live handles updated at every window close.
  struct ServiceMetricHandles {
    obs::Gauge* cpu = nullptr;
    obs::Gauge* pods = nullptr;
    obs::Gauge* outstanding = nullptr;
    obs::Gauge* capacity = nullptr;
    obs::Histogram* queue_delay_ms = nullptr;
  };
  std::vector<ServiceMetricHandles> service_handles_;
  obs::Gauge* sim_end_gauge_ = nullptr;
  /// Engine-state gauges (timer heap, cancellations, slab/arena occupancy)
  /// refreshed at every window close. All values are pure functions of
  /// simulation state, so they are deterministic and safe to include in
  /// the offline Prometheus dump.
  struct EngineMetricHandles {
    obs::Gauge* pending_events = nullptr;
    obs::Gauge* events_cancelled = nullptr;
    obs::Gauge* timer_slots = nullptr;
    obs::Gauge* timer_slots_free = nullptr;
    obs::Gauge* arena_requests_live = nullptr;
    obs::Gauge* arena_requests_capacity = nullptr;
    obs::Gauge* arena_attempts_live = nullptr;
    obs::Gauge* arena_attempts_capacity = nullptr;
  };
  EngineMetricHandles engine_handles_;
  EntryAdmission* entry_ = nullptr;
  RequestObserver* observer_ = nullptr;
  RequestId next_request_id_ = 1;
  int inflight_ = 0;
  bool finalized_ = false;
  std::uint64_t hop_timeouts_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t hop_attempts_ = 0;
  SlabPool<RequestRec> request_pool_;
  SlabPool<AttemptRec> attempt_pool_;
  /// Hop-timeout timer queues, one per distinct delay: (delay, queue id).
  /// The queues' arg is the attempt record's pool index.
  std::vector<std::pair<SimTime, std::uint32_t>> hop_timeout_queues_;
  std::uint32_t hop_timeout_queue_ = 0;  ///< the queue for config_.hop_timeout
  std::unordered_map<std::string, ServiceId> service_index_;  // built at Finalize
  std::unordered_map<std::string, ApiId> api_index_;
  /// Reused per metrics window; reallocating it every second was measurable.
  std::vector<ServiceWindow> window_scratch_;
};

}  // namespace topfull::sim
