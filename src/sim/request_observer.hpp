// Request-level tracing hooks of the simulator.
//
// The production system observes requests through Istio distributed tracing
// (paper §5); the simulator exposes the same signal as an optional observer
// interface the request engine calls at each lifecycle edge: entry admission
// verdict, per-service hop completion (with the queue-wait / service-time
// split), and end-to-end finalisation. Observation is strictly pass-through:
// hooks consume no randomness and schedule no events, so simulation results
// are bit-identical with an observer installed or not.
#pragma once

#include "common/sim_time.hpp"
#include "sim/types.hpp"

namespace topfull::sim {

/// Lifecycle observer consulted by Application when installed. All calls
/// happen on the simulation thread in deterministic event order.
class RequestObserver {
 public:
  virtual ~RequestObserver() = default;

  /// A client request arrived at the gateway (before the admission verdict).
  virtual void OnOffered(ApiId api, SimTime now) = 0;

  /// The entry rate limiter shed the request (no RequestId is assigned).
  virtual void OnEntryRejected(ApiId api, SimTime now) = 0;

  /// The request was admitted and assigned `id`. The observer decides here
  /// whether to trace the request's hops.
  virtual void OnAdmitted(RequestId id, ApiId api, SimTime now) = 0;

  /// Whether hop-level events should be reported for `id`. The engine asks
  /// once per request, right after OnAdmitted, and keeps the answer for the
  /// request's lifetime; it skips span bookkeeping entirely for untraced
  /// requests.
  virtual bool Tracing(RequestId id) const = 0;

  /// A sub-request was shed at dispatch (queue full / no running pod /
  /// per-service admission denial).
  virtual void OnHopShed(RequestId id, ServiceId service, SimTime now) = 0;

  /// A sub-request finished local service at `service`. `start` is dispatch
  /// time, `end` local completion (or pod death when !ok), `service_time`
  /// the sampled service duration; queue wait is end - start - service_time.
  virtual void OnHopDone(RequestId id, ServiceId service, SimTime start,
                         SimTime end, SimTime service_time, bool ok) = 0;

  /// The request finalised. Only called for requests whose Tracing(id) was
  /// true at admission.
  /// `slo_ok` mirrors the metrics collector's goodput accounting.
  virtual void OnRequestDone(RequestId id, ApiId api, SimTime start, SimTime end,
                             Outcome outcome, bool slo_ok) = 0;
};

}  // namespace topfull::sim
