#include "ledger.hpp"

namespace perfbench {

const char* SpanName(Span span) {
  switch (span) {
    case Span::kEvent: return "des_sim.event";
    case Span::kTail: return "des_sim.tail";
    case Span::kAdmitEntry: return "admit.entry";
    case Span::kAdmitHop: return "admit.hop";
    case Span::kTick: return "core.tick";
    case Span::kRlDecide: return "rl.decide";
    case Span::kTracerHook: return "obs.tracer_hook";
    case Span::kDecisionHook: return "obs.decision_hook";
    case Span::kWindowObserver: return "obs.window_observer";
    case Span::kExport: return "obs.export";
    case Span::kCount: break;
  }
  return "?";
}

SpanRecorder::SpanRecorder()
    : totals_(static_cast<std::size_t>(Span::kCount)), event_totals_(3) {
  stack_.reserve(16);
}

void SpanRecorder::Clear() {
  totals_.assign(totals_.size(), SpanTotals{});
  event_totals_.assign(event_totals_.size(), SpanTotals{});
  records_.clear();
  window_close_self_.clear();
}

bool SpanRecorder::Kept(Span name) {
  switch (name) {
    case Span::kTick:
    case Span::kRlDecide:
    case Span::kWindowObserver:
    case Span::kExport:
    case Span::kTail:
      return true;
    default:
      return false;
  }
}

void SpanRecorder::BeginAt(Span name, std::int64_t start_ns) {
  int record = -1;
  if (Kept(name)) {
    int parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->record >= 0) {
        parent = it->record;
        break;
      }
    }
    record = static_cast<int>(records_.size());
    records_.push_back({name, start_ns, 0, 0, parent});
  }
  stack_.push_back({name, start_ns, 0, record, EventKind::kOrdinary});
}

void SpanRecorder::EndAt(std::int64_t end_ns) {
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end_ns - open.start_ns;
  const std::int64_t self = dur - open.child_ns;
  SpanTotals& t = totals_[static_cast<int>(open.name)];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += self;
  if (open.name == Span::kEvent) {
    SpanTotals& e = event_totals_[static_cast<int>(open.kind)];
    ++e.count;
    e.total_ns += dur;
    e.self_ns += self;
    if (open.kind == EventKind::kWindowClose) window_close_self_.push_back(self);
  }
  if (open.record >= 0) {
    SpanRecord& r = records_[static_cast<std::size_t>(open.record)];
    r.end_ns = end_ns;
    r.self_ns = self;
  }
  if (!stack_.empty()) stack_.back().child_ns += dur;
}

void SpanRecorder::MarkEvent(EventKind kind) {
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if (it->name == Span::kEvent) {
      it->kind = kind;
      return;
    }
  }
}

std::int64_t SpanRecorder::OpenStart(Span name) const {
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if (it->name == name) return it->start_ns;
  }
  return -1;
}

std::vector<std::int64_t> SpanRecorder::Durations(Span name) const {
  std::vector<std::int64_t> out;
  for (const SpanRecord& r : records_) {
    if (r.name == name) out.push_back(r.end_ns - r.start_ns);
  }
  return out;
}

// --- Decorators -------------------------------------------------------------

bool TimedEntryAdmission::Admit(topfull::sim::ApiId api, topfull::SimTime now) {
  rec_->Begin(Span::kAdmitEntry);
  const bool ok = inner_->Admit(api, now);
  rec_->End();
  return ok;
}

bool TimedServiceAdmission::Admit(const topfull::sim::RequestInfo& info,
                                  topfull::sim::ServiceId service, int pod_index,
                                  topfull::SimTime now) {
  rec_->Begin(Span::kAdmitHop);
  const bool ok = inner_->Admit(info, service, pod_index, now);
  rec_->End();
  ++calls;
  if (!ok) ++rejects;
  return ok;
}

double TimedRateController::DecideStep(const topfull::core::ControlState& state) {
  rec_->Begin(Span::kRlDecide);
  const double step = inner_->DecideStep(state);
  rec_->End();
  ++*calls_;
  return step;
}

std::unique_ptr<topfull::core::RateController> TimedRateController::Clone() const {
  return std::make_unique<TimedRateController>(inner_->Clone(), rec_, calls_);
}

void TimedRequestObserver::OnOffered(topfull::sim::ApiId api, topfull::SimTime now) {
  rec_->Begin(Span::kTracerHook);
  inner_->OnOffered(api, now);
  rec_->End();
}

void TimedRequestObserver::OnEntryRejected(topfull::sim::ApiId api,
                                           topfull::SimTime now) {
  rec_->Begin(Span::kTracerHook);
  inner_->OnEntryRejected(api, now);
  rec_->End();
}

void TimedRequestObserver::OnAdmitted(topfull::sim::RequestId id,
                                      topfull::sim::ApiId api, topfull::SimTime now) {
  rec_->Begin(Span::kTracerHook);
  inner_->OnAdmitted(id, api, now);
  rec_->End();
}

bool TimedRequestObserver::Tracing(topfull::sim::RequestId id) const {
  rec_->Begin(Span::kTracerHook);
  const bool tracing = inner_->Tracing(id);
  rec_->End();
  return tracing;
}

void TimedRequestObserver::OnHopShed(topfull::sim::RequestId id,
                                     topfull::sim::ServiceId service,
                                     topfull::SimTime now) {
  rec_->Begin(Span::kTracerHook);
  inner_->OnHopShed(id, service, now);
  rec_->End();
}

void TimedRequestObserver::OnHopDone(topfull::sim::RequestId id,
                                     topfull::sim::ServiceId service,
                                     topfull::SimTime start, topfull::SimTime end,
                                     topfull::SimTime service_time, bool ok) {
  rec_->Begin(Span::kTracerHook);
  inner_->OnHopDone(id, service, start, end, service_time, ok);
  rec_->End();
}

void TimedRequestObserver::OnRequestDone(topfull::sim::RequestId id,
                                         topfull::sim::ApiId api,
                                         topfull::SimTime start, topfull::SimTime end,
                                         topfull::sim::Outcome outcome, bool slo_ok) {
  rec_->Begin(Span::kTracerHook);
  inner_->OnRequestDone(id, api, start, end, outcome, slo_ok);
  rec_->End();
}

void TimedDecisionObserver::BeginTick(
    double t_s, const std::vector<topfull::sim::ServiceId>& overloaded,
    const std::vector<topfull::core::Cluster>& clusters) {
  const std::int64_t now = NowNs();
  const std::int64_t tick_start = rec_->OpenStart(Span::kTick);
  if (tick_start >= 0) detect_cluster_ns.push_back(now - tick_start);
  if (inner_ == nullptr) return;
  rec_->BeginAt(Span::kDecisionHook, now);
  inner_->BeginTick(t_s, overloaded, clusters);
  rec_->End();
}

void TimedDecisionObserver::OnClusterDecision(
    topfull::sim::ServiceId target, const std::vector<topfull::sim::ApiId>& candidates,
    const topfull::core::ControlState& state, double action) {
  if (inner_ == nullptr) return;
  rec_->Begin(Span::kDecisionHook);
  inner_->OnClusterDecision(target, candidates, state, action);
  rec_->End();
}

void TimedDecisionObserver::OnRecoveryDecision(topfull::sim::ApiId api,
                                               const topfull::core::ControlState& state,
                                               double action) {
  if (inner_ == nullptr) return;
  rec_->Begin(Span::kDecisionHook);
  inner_->OnRecoveryDecision(api, state, action);
  rec_->End();
}

void TimedDecisionObserver::OnRateChange(topfull::sim::ApiId api, double before,
                                         double after) {
  ++rate_changes;
  if (inner_ == nullptr) return;
  rec_->Begin(Span::kDecisionHook);
  inner_->OnRateChange(api, before, after);
  rec_->End();
}

void TimedDecisionObserver::EndTick() {
  if (inner_ == nullptr) return;
  rec_->Begin(Span::kDecisionHook);
  inner_->EndTick();
  rec_->End();
}

void BenchWindowObserver::OnWindow(const topfull::sim::Snapshot& snapshot) {
  close_ns.push_back(NowNs());
  close_t_s.push_back(snapshot.t_end_s);
  pending.push_back(app_->sim().PendingEvents());
  if (rec_ != nullptr) rec_->MarkEvent(EventKind::kWindowClose);
  if (inner_ == nullptr) return;
  if (rec_ != nullptr) rec_->Begin(Span::kWindowObserver);
  inner_->OnWindow(snapshot);
  if (rec_ != nullptr) rec_->End();
}

}  // namespace perfbench
