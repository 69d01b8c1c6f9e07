#include "obs/export.hpp"

#include "core/controller.hpp"
#include "obs/text_buffer.hpp"

namespace topfull::obs {

namespace {

const char* OutcomeName(sim::Outcome outcome) {
  switch (outcome) {
    case sim::Outcome::kCompleted: return "completed";
    case sim::Outcome::kRejectedEntry: return "rejected_entry";
    case sim::Outcome::kRejectedService: return "rejected_service";
  }
  return "unknown";
}

}  // namespace

bool WritePerfettoTrace(const RequestTracer& tracer, const sim::Application& app,
                        const std::string& path,
                        const std::vector<fault::FaultRecord>* faults,
                        const std::vector<SloEvent>* slo_events) {
  TextBuffer out(path);
  if (!out.ok()) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  // Starts the next event: every event but the first follows ",\n".
  const auto next = [&out, &first]() -> TextBuffer& {
    if (!first) out << ",\n";
    first = false;
    return out;
  };

  // Process/thread naming: pid 0 is the client (root spans, one thread per
  // API); pid s+1 is microservice s.
  next() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
            "\"args\":{\"name\":\"client:";
  out.Json(app.name()) << "\"}}";
  for (int s = 0; s < app.NumServices(); ++s) {
    next() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    out.U64(s + 1) << ",\"tid\":0,\"args\":{\"name\":\"";
    out.Json(app.service(s).name()) << "\"}}";
  }
  for (int pid = 0; pid <= app.NumServices(); ++pid) {
    for (sim::ApiId a = 0; a < app.NumApis(); ++a) {
      next() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
      out.U64(pid) << ",\"tid\":";
      out.U64(a) << ",\"args\":{\"name\":\"";
      out.Json(app.api(a).name()) << "\"}}";
    }
  }

  // Injected faults get their own process row so they line up against the
  // request spans they disturbed.
  if (faults != nullptr && !faults->empty()) {
    const std::string fault_pid = U64(static_cast<std::uint64_t>(app.NumServices()) + 1);
    next() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << fault_pid
           << ",\"tid\":0,\"args\":{\"name\":\"faults\"}}";
    for (const fault::FaultRecord& r : *faults) {
      next() << "{\"name\":\"" << fault::FaultTypeName(r.type) << ":"
             << fault::FaultActionName(r.action)
             << "\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\",\"ts\":";
      out.U64(static_cast<std::uint64_t>(r.at)) << ",\"pid\":" << fault_pid
          << ",\"tid\":0,\"args\":{\"service\":\"";
      out.Json(r.service) << "\",\"severity\":";
      out.Num(r.severity) << ",\"count\":";
      out.U64(static_cast<std::uint64_t>(r.count)) << "}}";
    }
  }

  // SLO monitor events, likewise on their own row. Timestamps are window
  // closes in simulation time — deterministic by construction.
  if (slo_events != nullptr && !slo_events->empty()) {
    const std::string slo_pid = U64(static_cast<std::uint64_t>(app.NumServices()) + 2);
    next() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << slo_pid
           << ",\"tid\":0,\"args\":{\"name\":\"slo\"}}";
    for (const SloEvent& e : *slo_events) {
      next() << "{\"name\":\"" << SloEventTypeName(e.type)
             << "\",\"cat\":\"slo\",\"ph\":\"i\",\"s\":\"g\",\"ts\":";
      out.U64(static_cast<std::uint64_t>(e.t_s * 1e6)) << ",\"pid\":" << slo_pid
          << ",\"tid\":0,\"args\":{\"subject\":\"";
      out.Json(e.subject) << "\",\"value\":";
      out.Num(e.value) << ",\"threshold\":";
      out.Num(e.threshold) << "}}";
    }
  }

  // Request and hop events dominate the file: their names are escaped once
  // up front, the per-event work is appends and integer formatting.
  std::vector<std::string> api_names;
  for (sim::ApiId a = 0; a < app.NumApis(); ++a) {
    api_names.push_back(JsonEscape(app.api(a).name()));
  }
  std::vector<std::string> service_names;
  for (int s = 0; s < app.NumServices(); ++s) {
    service_names.push_back(JsonEscape(app.service(s).name()));
  }
  for (const RequestTrace& trace : tracer.finished()) {
    const std::uint64_t tid = static_cast<std::uint64_t>(trace.api);
    if (trace.outcome == sim::Outcome::kRejectedEntry) {
      next() << "{\"name\":\"rejected_entry\",\"cat\":\"admission\",\"ph\":\"i\","
                "\"s\":\"t\",\"ts\":";
      out.U64(trace.start) << ",\"pid\":0,\"tid\":";
      out.U64(tid) << "}";
      continue;
    }
    next() << "{\"name\":\"" << api_names[static_cast<std::size_t>(trace.api)]
           << "\",\"cat\":\"request\",\"ph\":\"X\",\"ts\":";
    out.U64(trace.start) << ",\"dur\":";
    out.U64(trace.end - trace.start) << ",\"pid\":0,\"tid\":";
    out.U64(tid) << ",\"args\":{\"id\":";
    out.U64(trace.id) << ",\"outcome\":\"" << OutcomeName(trace.outcome)
                      << (trace.slo_ok ? "\",\"slo_ok\":true}}"
                                       : "\",\"slo_ok\":false}}");
    for (const HopSpan& span : trace.spans) {
      next() << "{\"name\":\""
             << service_names[static_cast<std::size_t>(span.service)]
             << "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":";
      out.U64(span.start) << ",\"dur\":";
      out.U64(span.end - span.start) << ",\"pid\":";
      out.U64(span.service + 1) << ",\"tid\":";
      out.U64(tid) << ",\"args\":{\"id\":";
      out.U64(trace.id) << ",\"queue_wait_ms\":";
      out.Num(ToMillis(span.queue_wait)) << ",\"service_time_ms\":";
      out.Num(ToMillis(span.service_time))
          << (span.ok ? ",\"ok\":true" : ",\"ok\":false")
          << (span.shed ? ",\"shed\":true}}" : ",\"shed\":false}}");
    }
  }
  out << "\n]}\n";
  return out.Close();
}

namespace {

std::string SloEventLine(const SloEvent& e) {
  return "{\"t_s\":" + Num(e.t_s) + ",\"event\":\"" + SloEventTypeName(e.type) +
         "\",\"subject\":\"" + JsonEscape(e.subject) + "\",\"value\":" +
         Num(e.value) + ",\"threshold\":" + Num(e.threshold) + "}";
}

std::string AlertLine(const AlertTransition& tr) {
  // Burn ratios can be non-finite (zero denominator); keep the line JSON.
  return "{\"t_s\":" + Num(tr.t_s) + ",\"event\":\"alert\",\"rule\":\"" +
         JsonEscape(tr.rule) + "\",\"from\":\"" + AlertStateName(tr.from) +
         "\",\"to\":\"" + AlertStateName(tr.to) + "\",\"value\":" +
         JsonDouble(tr.value) + "}";
}

}  // namespace

bool WriteDecisionLogJsonl(const DecisionLog& log, const sim::Application& app,
                           const std::string& path,
                           const std::vector<SloEvent>* slo_events,
                           const std::vector<AlertTransition>* alerts) {
  TextBuffer out(path);
  if (!out.ok()) return false;
  const auto api_name = [&app](sim::ApiId a) {
    return "\"" + JsonEscape(app.api(a).name()) + "\"";
  };
  const auto svc_name = [&app](sim::ServiceId s) {
    return "\"" + JsonEscape(app.service(s).name()) + "\"";
  };
  const auto api_list = [&api_name](const std::vector<sim::ApiId>& apis) {
    std::string s = "[";
    for (std::size_t i = 0; i < apis.size(); ++i) {
      if (i > 0) s += ",";
      s += api_name(apis[i]);
    }
    return s + "]";
  };
  const auto svc_list = [&svc_name](const std::vector<sim::ServiceId>& svcs) {
    std::string s = "[";
    for (std::size_t i = 0; i < svcs.size(); ++i) {
      if (i > 0) s += ",";
      s += svc_name(svcs[i]);
    }
    return s + "]";
  };
  const auto state_fields = [](const core::ControlState& state) {
    return "\"goodput\":" + Num(state.goodput) + ",\"rate_limit\":" +
           Num(state.rate_limit) + ",\"latency_s\":" + Num(state.latency_s) +
           ",\"slo_s\":" + Num(state.slo_s);
  };

  // Merge the SLO event stream into the tick stream in time order. An
  // event at t fires at the window close, before the control tick of the
  // same second — the order the simulation executes them in.
  std::size_t next_event = 0;
  std::size_t next_alert = 0;
  const auto flush_events = [&out, &next_event, &next_alert, slo_events,
                             alerts](double upto_s) {
    while (true) {
      const bool have_event = slo_events != nullptr &&
                              next_event < slo_events->size() &&
                              (*slo_events)[next_event].t_s <= upto_s;
      const bool have_alert = alerts != nullptr &&
                              next_alert < alerts->size() &&
                              (*alerts)[next_alert].t_s <= upto_s;
      if (!have_event && !have_alert) break;
      // Time order; at a tie the monitor event wins (the window closes
      // before the rules evaluate on it).
      if (have_event &&
          (!have_alert || (*slo_events)[next_event].t_s <=
                              (*alerts)[next_alert].t_s)) {
        out << SloEventLine((*slo_events)[next_event]) << "\n";
        ++next_event;
      } else {
        out << AlertLine((*alerts)[next_alert]) << "\n";
        ++next_alert;
      }
    }
  };

  for (const TickRecord& tick : log.ticks()) {
    flush_events(tick.t_s);
    out << "{\"t_s\":" << Num(tick.t_s) << ",\"overloaded\":"
        << svc_list(tick.overloaded) << ",\"clusters\":[";
    for (std::size_t i = 0; i < tick.clusters.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"apis\":" << api_list(tick.clusters[i].apis) << ",\"overloaded\":"
          << svc_list(tick.clusters[i].overloaded) << "}";
    }
    out << "],\"decisions\":[";
    for (std::size_t i = 0; i < tick.decisions.size(); ++i) {
      const TargetDecision& d = tick.decisions[i];
      if (i > 0) out << ",";
      out << "{\"target\":" << svc_name(d.target) << ",\"apis\":"
          << api_list(d.apis) << "," << state_fields(d.state)
          << ",\"action\":" << Num(d.action) << "}";
    }
    out << "],\"recovery\":[";
    for (std::size_t i = 0; i < tick.recovery.size(); ++i) {
      const RecoveryDecision& d = tick.recovery[i];
      if (i > 0) out << ",";
      out << "{\"api\":" << api_name(d.api) << "," << state_fields(d.state)
          << ",\"action\":" << Num(d.action) << "}";
    }
    out << "],\"limits\":[";
    for (std::size_t i = 0; i < tick.limits.size(); ++i) {
      const LimitDelta& delta = tick.limits[i];
      if (i > 0) out << ",";
      out << "{\"api\":" << api_name(delta.api) << ",\"before\":"
          << Num(delta.before) << ",\"after\":" << Num(delta.after) << "}";
    }
    out << "]}\n";
  }
  if (slo_events != nullptr) {
    // Events after the last tick (or all of them, when no controller ran).
    while (next_event < slo_events->size()) {
      out << SloEventLine((*slo_events)[next_event]) << "\n";
      ++next_event;
    }
  }
  if (alerts != nullptr) {
    while (next_alert < alerts->size()) {
      out << AlertLine((*alerts)[next_alert]) << "\n";
      ++next_alert;
    }
  }
  return out.Close();
}

void AppendTracerCounters(SnapshotBuilder& builder, const RequestTracer& tracer) {
  const TracerCounters& c = tracer.counters();
  builder.AddCounter("topfull_trace_sampled_total", "Request traces recorded.", {},
                     c.sampled);
  builder.AddCounter("topfull_trace_dropped_total",
                     "Sampled traces discarded by the memory cap.", {}, c.dropped);
  std::uint64_t spans = 0;
  for (const RequestTrace& trace : tracer.finished()) spans += trace.spans.size();
  builder.AddCounter("topfull_trace_spans_total",
                     "Service hop spans across finished traces.", {}, spans);
}

bool WritePrometheusText(const sim::Application& app, const RequestTracer* tracer,
                         const std::string& path) {
  // The tracer lives outside the application (it is attached per run, the
  // registry belongs to the app), so its counters join the snapshot here.
  SnapshotBuilder builder;
  builder.AddRegistry(app.metrics_registry());
  if (tracer != nullptr) AppendTracerCounters(builder, *tracer);
  return WriteTextFile(path, PromTextFromSnapshot(*builder.Finish()));
}

}  // namespace topfull::obs
