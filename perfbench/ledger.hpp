// Per-layer ledger for the benchmark's traced run, measured from outside.
//
// Every span is opened and closed by the benchmark around a call into one
// layer's public interface: the DES step loop, the entry and per-service
// admission hooks, the controller tick, the rate-controller decision, and
// the request, decision and window observers. A span records its name,
// start, end and parent; its self time is its duration minus the time its
// child spans cover. Low-frequency spans (ticks, window closes, decisions,
// export) are kept whole in memory and written when the run ends;
// per-request spans (events, admits, tracer hooks) would need hundreds of
// megabytes, so they are folded into per-name totals as they close.
//
// A SpanRecorder belongs to one thread: the unsharded run has one, the
// sharded run one per shard, each touched only by that shard's thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/decision_observer.hpp"
#include "core/rate_controller.hpp"
#include "sim/admission.hpp"
#include "sim/app.hpp"
#include "sim/metrics.hpp"
#include "sim/request_observer.hpp"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names. The order is the order of the ledger's per-name table.
enum class Span : int {
  kEvent,          ///< one DES event popped by Simulation::Step
  kTail,           ///< the events left at the run's end time (one RunUntil)
  kAdmitEntry,     ///< EntryAdmission::Admit (TopFull's entry limiter)
  kAdmitHop,       ///< ServiceAdmission::Admit (DAGOR, every hop)
  kTick,           ///< TopFullController::Tick
  kRlDecide,       ///< RateController::DecideStep
  kTracerHook,     ///< RequestObserver hook (obs::RequestTracer)
  kDecisionHook,   ///< DecisionObserver hook (obs::DecisionLog)
  kWindowObserver, ///< WindowObserver chain (SloMonitor -> TsdbPlane)
  kExport,         ///< end-of-run artifact export
  kCount,
};

const char* SpanName(Span span);

/// What the event that a root kEvent span covers turned out to be.
enum class EventKind : int { kOrdinary, kWindowClose, kTick };

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

/// A span kept whole (low-frequency names only).
struct SpanRecord {
  Span name = Span::kEvent;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t self_ns = 0;
  int parent = -1;  ///< index into records(), -1 for a root
};

class SpanRecorder {
 public:
  SpanRecorder();

  void Begin(Span name) { BeginAt(name, NowNs()); }
  void BeginAt(Span name, std::int64_t start_ns);
  void End() { EndAt(NowNs()); }
  void EndAt(std::int64_t end_ns);

  /// Drops everything recorded so far (spans opened during set-up, such as
  /// the admits of the first closed-loop requests). No span may be open.
  void Clear();

  /// Marks the innermost open kEvent span with what it turned out to be.
  void MarkEvent(EventKind kind);

  /// Start of the innermost open span of `name`, or -1.
  std::int64_t OpenStart(Span name) const;

  const SpanTotals& totals(Span name) const {
    return totals_[static_cast<int>(name)];
  }
  /// Root kEvent spans split by kind (self time excludes child spans).
  const SpanTotals& event_totals(EventKind kind) const {
    return event_totals_[static_cast<int>(kind)];
  }
  const std::vector<SpanRecord>& records() const { return records_; }
  /// Durations (ns) of every closed span of a kept name, in close order.
  std::vector<std::int64_t> Durations(Span name) const;
  /// Self times (ns) of the window-close events.
  const std::vector<std::int64_t>& window_close_self() const {
    return window_close_self_;
  }

 private:
  struct Open {
    Span name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    int record;  ///< index in records_ when kept, else -1
    EventKind kind;
  };
  static bool Kept(Span name);

  std::vector<Open> stack_;
  std::vector<SpanTotals> totals_;
  std::vector<SpanTotals> event_totals_;
  std::vector<SpanRecord> records_;
  std::vector<std::int64_t> window_close_self_;
};

/// Times TopFullController::Admit (or any entry limiter).
class TimedEntryAdmission : public topfull::sim::EntryAdmission {
 public:
  TimedEntryAdmission(topfull::sim::EntryAdmission* inner, SpanRecorder* rec)
      : inner_(inner), rec_(rec) {}
  bool Admit(topfull::sim::ApiId api, topfull::SimTime now) override;

 private:
  topfull::sim::EntryAdmission* inner_;
  SpanRecorder* rec_;
};

/// Times a per-service admission controller (DAGOR) on every hop.
class TimedServiceAdmission : public topfull::sim::ServiceAdmission {
 public:
  TimedServiceAdmission(topfull::sim::ServiceAdmission* inner, SpanRecorder* rec)
      : inner_(inner), rec_(rec) {}
  bool Admit(const topfull::sim::RequestInfo& info, topfull::sim::ServiceId service,
             int pod_index, topfull::SimTime now) override;

  std::uint64_t calls = 0;
  std::uint64_t rejects = 0;

 private:
  topfull::sim::ServiceAdmission* inner_;
  SpanRecorder* rec_;
};

/// Rate-controller decorator; Clone() wraps the inner controller's clone,
/// so every per-cluster and recovery controller is timed.
class TimedRateController : public topfull::core::RateController {
 public:
  TimedRateController(std::unique_ptr<topfull::core::RateController> inner,
                      SpanRecorder* rec, std::uint64_t* calls)
      : inner_(std::move(inner)), rec_(rec), calls_(calls) {}
  double DecideStep(const topfull::core::ControlState& state) override;
  std::unique_ptr<topfull::core::RateController> Clone() const override;
  void Reset() override { inner_->Reset(); }

 private:
  std::unique_ptr<topfull::core::RateController> inner_;
  SpanRecorder* rec_;
  std::uint64_t* calls_;
};

/// Times every hook of the request tracer.
class TimedRequestObserver : public topfull::sim::RequestObserver {
 public:
  TimedRequestObserver(topfull::sim::RequestObserver* inner, SpanRecorder* rec)
      : inner_(inner), rec_(rec) {}
  void OnOffered(topfull::sim::ApiId api, topfull::SimTime now) override;
  void OnEntryRejected(topfull::sim::ApiId api, topfull::SimTime now) override;
  void OnAdmitted(topfull::sim::RequestId id, topfull::sim::ApiId api,
                  topfull::SimTime now) override;
  bool Tracing(topfull::sim::RequestId id) const override;
  void OnHopShed(topfull::sim::RequestId id, topfull::sim::ServiceId service,
                 topfull::SimTime now) override;
  void OnHopDone(topfull::sim::RequestId id, topfull::sim::ServiceId service,
                 topfull::SimTime start, topfull::SimTime end,
                 topfull::SimTime service_time, bool ok) override;
  void OnRequestDone(topfull::sim::RequestId id, topfull::sim::ApiId api,
                     topfull::SimTime start, topfull::SimTime end,
                     topfull::sim::Outcome outcome, bool slo_ok) override;

 private:
  topfull::sim::RequestObserver* inner_;
  SpanRecorder* rec_;
};

/// Times the decision log's hooks (when one is attached) and timestamps
/// BeginTick against the enclosing tick span: tick start -> BeginTick is
/// the controller's detect + cluster phase.
class TimedDecisionObserver : public topfull::core::DecisionObserver {
 public:
  TimedDecisionObserver(topfull::core::DecisionObserver* inner, SpanRecorder* rec)
      : inner_(inner), rec_(rec) {}
  void BeginTick(double t_s, const std::vector<topfull::sim::ServiceId>& overloaded,
                 const std::vector<topfull::core::Cluster>& clusters) override;
  void OnClusterDecision(topfull::sim::ServiceId target,
                         const std::vector<topfull::sim::ApiId>& candidates,
                         const topfull::core::ControlState& state,
                         double action) override;
  void OnRecoveryDecision(topfull::sim::ApiId api,
                          const topfull::core::ControlState& state,
                          double action) override;
  void OnRateChange(topfull::sim::ApiId api, double before, double after) override;
  void EndTick() override;

  std::vector<std::int64_t> detect_cluster_ns;
  std::uint64_t rate_changes = 0;

 private:
  topfull::core::DecisionObserver* inner_;
  SpanRecorder* rec_;
};

/// The benchmark's window observer, outermost in the chain. It reads one
/// clock per window close (host time per simulated second) and samples the
/// DES queue depth; in the traced run it also marks the enclosing event as
/// a window close and times the inner observer chain.
class BenchWindowObserver : public topfull::sim::WindowObserver {
 public:
  BenchWindowObserver(topfull::sim::Application* app, SpanRecorder* rec)
      : app_(app), rec_(rec), inner_(app->metrics().window_observer()) {
    app->metrics().SetWindowObserver(this);
  }
  void OnWindow(const topfull::sim::Snapshot& snapshot) override;

  std::vector<double> close_t_s;         ///< sim time of each window close
  std::vector<std::int64_t> close_ns;    ///< host clock at each window close
  std::vector<std::size_t> pending;      ///< DES queue depth at each close

 private:
  topfull::sim::Application* app_;
  SpanRecorder* rec_;
  topfull::sim::WindowObserver* inner_;
};

}  // namespace perfbench
