// Telemetry exporters.
//
// - WritePerfettoTrace: Chrome trace-event JSON (loadable in Perfetto /
//   chrome://tracing). One pid per service (pid 0 is the client/gateway),
//   one tid per API; timestamps are SimTime microseconds. Hop spans carry
//   queue-wait / service-time args; entry rejections are instant events;
//   injected faults and SLO-monitor events get dedicated process rows.
// - WriteDecisionLogJsonl: one JSON object per control tick, with SLO
//   monitor events merged in at their window-close timestamps.
// - WritePrometheusText: text-exposition dump of the application's live
//   metrics registry (every counter/gauge/histogram family the run
//   touched), plus the tracer counters when a tracer is attached. Label
//   values and help text are escaped per the Prometheus text-exposition
//   spec and every family carries a # TYPE line.
//
// All writers are deterministic: output depends only on simulation state,
// never on wall-clock time or thread scheduling.
#pragma once

#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "obs/decision_log.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/rules.hpp"
#include "obs/slo_monitor.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "sim/app.hpp"

namespace topfull::obs {

/// Writes the tracer's finished traces as Chrome trace-event JSON. `app`
/// supplies service/API names. When `faults` is non-null, injected fault
/// records appear as instant events on a dedicated "faults" process row;
/// when `slo_events` is non-null, SLO monitor events appear on an "slo"
/// row. Returns false on I/O failure.
bool WritePerfettoTrace(const RequestTracer& tracer, const sim::Application& app,
                        const std::string& path,
                        const std::vector<fault::FaultRecord>* faults = nullptr,
                        const std::vector<SloEvent>* slo_events = nullptr);

/// Writes the decision log as JSONL (one tick per line). When `slo_events`
/// is non-null the monitor's events are merged into the stream in time
/// order (an event at t precedes the control tick of the same second, the
/// order they occur in the simulation). When `alerts` is non-null the rule
/// engine's alert state transitions are merged the same way, after any SLO
/// event of the same timestamp (windows close before rules evaluate).
/// Returns false on I/O failure.
bool WriteDecisionLogJsonl(const DecisionLog& log, const sim::Application& app,
                           const std::string& path,
                           const std::vector<SloEvent>* slo_events = nullptr,
                           const std::vector<AlertTransition>* alerts = nullptr);

/// Writes the application's metrics registry in Prometheus text exposition
/// format; `tracer` (optional) appends the tracer counter families. Built
/// on the same SnapshotBuilder + PromTextFromSnapshot path the live
/// `/metrics` endpoint uses, so the two renderings are byte-identical.
/// Returns false on I/O failure.
bool WritePrometheusText(const sim::Application& app, const RequestTracer* tracer,
                         const std::string& path);

/// Adds the tracer's counter families (sampled/dropped traces, finished
/// hop spans) to a snapshot under construction.
void AppendTracerCounters(SnapshotBuilder& builder, const RequestTracer& tracer);

}  // namespace topfull::obs
