// TopFullController: the end-to-end overload controller (paper §4).
//
// Every control period (1 s):
//   1. read the freshly closed metrics window,
//   2. detect overloaded microservices,
//   3. cluster the affected APIs (Eq. 2) — re-clustered every tick,
//   4. in each cluster (in parallel in the real system; the decision logic
//      is per-cluster-independent here) pick the target = overloaded service
//      used by the fewest APIs and apply Algorithm 1 with the step chosen by
//      the cluster's rate controller,
//   5. separately rate-increase APIs that are rate-limited but currently
//      traverse no overloaded microservice (the recovery controllers).
//
// Admission itself is a per-API token bucket at the entry gateway (§5).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/token_bucket.hpp"
#include "core/cluster_tracker.hpp"
#include "core/clustering.hpp"
#include "core/decision_observer.hpp"
#include "core/overload.hpp"
#include "core/rate_controller.hpp"
#include "core/registry.hpp"
#include "sim/app.hpp"

namespace topfull::core {

/// Order in which a cluster's overloaded services are targeted (§4.1: the
/// paper argues fewest-APIs-first; the alternatives exist for the ablation
/// bench).
enum class TargetOrder {
  kFewestApisFirst,  ///< the paper's rule
  kMostApisFirst,    ///< adversarial inversion
  kServiceIdOrder,   ///< arbitrary fixed order
};

/// Which per-window end-to-end latency percentile feeds the controller
/// state (the ablation bench compares them).
enum class LatencyFeature { kP50, kP95, kP99 };

struct TopFullConfig {
  SimTime period = Seconds(1);
  OverloadConfig overload;
  TargetOrder target_order = TargetOrder::kFewestApisFirst;
  /// Which end-to-end latency percentile feeds the controller state.
  LatencyFeature latency_feature = LatencyFeature::kP95;
  /// Ablation switch (§6.2 "w/o cluster"): when false, only one cluster is
  /// controlled per tick (naive sequential load control).
  bool enable_clustering = true;
  /// Respect business priorities in Algorithm 1. With equal priorities all
  /// candidates are adjusted together.
  bool respect_priority = true;
  /// Rate-limit floor (rps) so APIs can always recover.
  double min_rate = 20.0;
  /// Rate-limit ceiling.
  double max_rate = 1e7;
  /// Token-bucket depth as a fraction of the rate (burst tolerance).
  double burst_fraction = 0.25;
  double min_burst = 4.0;
  /// Recovery reopening step (§4.1). 0 keeps the default behaviour — the
  /// prototype controller (a second RL/MIMD instance) also decides recovery
  /// steps. > 0 reopens rate-limited APIs whose paths are overload-free by
  /// this fixed multiplicative step instead: optimistic reopening is safe
  /// because an API whose path re-overloads falls back under cluster
  /// control at the very next tick.
  double recovery_step = 0.0;
  /// §4.1 deactivation: drop an API's rate limiter entirely once it stops
  /// binding — the limit exceeds the API's offered rate while no service on
  /// its path is overloaded.
  bool deactivate_when_slack = false;
};

class TopFullController : public sim::EntryAdmission {
 public:
  /// `prototype` supplies per-cluster/per-API controller instances via
  /// Clone(); pass an RlRateController for TopFull proper, a
  /// MimdRateController / AimdRateController for the ablations.
  TopFullController(sim::Application* app, std::unique_ptr<RateController> prototype,
                    TopFullConfig config = {});

  /// Registers the periodic control loop. Call after Application::Finalize()
  /// (so the metrics window closes before each control tick).
  void Start();

  /// One control tick (exposed for tests and for the RL application env).
  void Tick();

  // sim::EntryAdmission:
  bool Admit(sim::ApiId api, SimTime now) override;

  // --- Introspection ---------------------------------------------------------
  /// Current rate limit; +infinity semantics (uncapped) reported as nullopt.
  std::optional<double> RateLimit(sim::ApiId api) const;
  const std::vector<Cluster>& LastClusters() const { return last_clusters_; }
  const ApiRegistry& registry() const { return registry_; }
  const TopFullConfig& config() const { return config_; }

  /// Overrides the rate limit directly (used by the RL training env).
  void ForceRateLimit(sim::ApiId api, double rate);

  /// Control state of an API set against the latest metrics window (what a
  /// rate controller for that set would observe). Public for the RL
  /// training environment and for tests.
  ControlState StateOf(const std::vector<sim::ApiId>& apis) const;

  /// Total control decisions taken (for overhead accounting).
  std::uint64_t Decisions() const { return decisions_; }

  /// Attaches a cluster-evolution tracker (not owned); every tick's
  /// clustering is recorded for the re-clustering dynamics analysis.
  void SetClusterTracker(ClusterTracker* tracker) { tracker_ = tracker; }

  /// Attaches a decision observer (not owned); every tick's detections,
  /// Algorithm 1 decisions and rate-limit changes are reported to it.
  /// Pass-through: cannot influence control behaviour.
  void SetDecisionObserver(DecisionObserver* observer) { decision_observer_ = observer; }

 private:
  struct ApiControl {
    bool capped = false;
    double rate = 0.0;
    TokenBucket bucket{0.0, 1.0};  ///< entry gate; reset by every SetRate
  };

  /// Applies Algorithm 1 to `candidates` with multiplicative step `action`.
  void AdjustRate(const std::vector<sim::ApiId>& candidates, double action);
  void SetRate(sim::ApiId api, double rate);
  /// Starts controlling an uncapped API: seeds its limit from the admitted
  /// rate observed in the last window.
  void EnsureCapped(sim::ApiId api, const sim::Snapshot& snap);
  ControlState StateOf(const std::vector<sim::ApiId>& apis,
                       const sim::Snapshot& snap) const;
  double LatencyOf(const sim::ApiWindow& w) const;
  RateController& ClusterController(sim::ServiceId target);
  RateController& RecoveryController(sim::ApiId api);

  sim::Application* app_;
  ApiRegistry registry_;
  std::unique_ptr<RateController> prototype_;
  TopFullConfig config_;
  std::vector<ApiControl> controls_;
  // Live metrics-registry handles (owned by the app's registry).
  obs::Counter* ticks_counter_ = nullptr;
  obs::Counter* decisions_counter_ = nullptr;
  obs::Gauge* overloaded_gauge_ = nullptr;
  std::vector<obs::Gauge*> limit_gauges_;
  std::map<sim::ServiceId, std::unique_ptr<RateController>> cluster_controllers_;
  std::map<sim::ApiId, std::unique_ptr<RateController>> recovery_controllers_;
  std::vector<Cluster> last_clusters_;
  ClusterTracker* tracker_ = nullptr;
  DecisionObserver* decision_observer_ = nullptr;
  std::vector<bool> flagged_;  ///< hysteresis state (when enabled)
  std::size_t sequential_cursor_ = 0;  // for the w/o-clustering ablation
  std::uint64_t decisions_ = 0;
  bool started_ = false;
};

}  // namespace topfull::core
