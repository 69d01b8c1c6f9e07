#include "sim/app.hpp"

#include <cassert>
#include <utility>

namespace topfull::sim {

// One pooled record per admitted request, one cache line. Recycled through
// a SlabPool; the generation counter survives recycling and invalidates any
// stale pointer (retry events assert against it).
struct Application::RequestRec {
  RequestInfo info;
  SimTime start = 0;
  const ExecutionPath* path = nullptr;
  std::uint64_t done_data = 0;  ///< DoneRef::data
  std::uint32_t done_handler = DoneRef::kNoHandler;
  std::uint32_t gen = 0;
  std::uint32_t pool_index = 0;  // set by the SlabPool; AttemptRec::req
  bool finalized = false;
  /// The observer's Tracing() verdict, asked once after OnAdmitted.
  bool traced = false;
};

// One pooled record per hop attempt, one cache line. Replaces the old
// per-attempt closure web (shared_ptr<Request> + shared_ptr<bool> settled +
// shared_ptr<SimTime> + shared_ptr<HeldDispatch> + std::function captures)
// with a single recycled struct. `pending` counts the references that may
// still touch the record: the attempt logic itself, the dispatched job
// (whose token the pod reports exactly once), and the hop-timeout timer —
// at most 3; the record is freed (generation bumped) when all are gone.
// The request and the continuation parent are pool indices; the hop's
// start and service time, read only by the observer, are in hop_times_.
struct Application::AttemptRec {
  const CallNode* node = nullptr;
  des::Simulation::TimerHandle timeout{};
  Service::HeldDispatch held{};
  std::uint32_t req = 0;         ///< request_pool_ index
  std::uint32_t parent = 0;      ///< ContRef::parent (kSeq, kJoin)
  std::uint32_t parent_gen = 0;  ///< ContRef::parent_gen
  std::uint32_t gen = 0;
  std::uint32_t pool_index = 0;  // set by the SlabPool; the job token and timeout arg
  std::int32_t attempt = 0;
  // A node's children run either in sequence or in parallel, never both.
  union {
    std::uint32_t next_child = 0;  ///< sequential-children cursor
    std::uint32_t join_remaining;  ///< parallel join: branches still running
  };
  std::uint8_t pending = 0;
  bool settled : 1 = false;
  /// Settled by the hop timeout: the held worker slot (if any) must NOT be
  /// released at subtree resolution — the late completion releases it.
  bool timed_out : 1 = false;
  bool traced : 1 = false;
  bool join_all_ok : 1 = true;
  ContRef::Kind cont_kind : 2 = ContRef::Kind::kRoot;

  ContRef cont() const { return ContRef{cont_kind, parent, parent_gen}; }
};

Application::Application(std::string name, std::uint64_t seed, AppConfig config)
    : name_(std::move(name)),
      config_(config),
      rng_(seed),
      done_sink_([this](std::uint32_t token, bool ok) {
        OnLocalDone(attempt_pool_.At(token), ok);
      }) {
  SelectHopTimeoutQueue();
}

void Application::ConfigureRpc(SimTime hop_timeout, int max_retries,
                               SimTime retry_backoff) {
  config_.hop_timeout = hop_timeout;
  config_.max_retries = max_retries < 0 ? 0 : max_retries;
  config_.retry_backoff = retry_backoff;
  SelectHopTimeoutQueue();
}

void Application::SelectHopTimeoutQueue() {
  if (config_.hop_timeout <= 0) return;
  for (const auto& [delay, queue] : hop_timeout_queues_) {
    if (delay == config_.hop_timeout) {
      hop_timeout_queue_ = queue;
      return;
    }
  }
  hop_timeout_queue_ = sim_.AddTimerQueue(config_.hop_timeout, [this](std::uint32_t i) {
    OnHopTimeout(attempt_pool_.At(i));
  });
  hop_timeout_queues_.emplace_back(config_.hop_timeout, hop_timeout_queue_);
}

Application::~Application() = default;

ServiceId Application::AddService(ServiceConfig config) {
  assert(!finalized_ && "cannot add services after Finalize()");
  const auto id = static_cast<ServiceId>(services_.size());
  Rng service_rng = rng_.Fork(HashLabel(config.name) ^ static_cast<std::uint64_t>(id));
  services_.push_back(
      std::make_unique<Service>(&sim_, id, std::move(config), service_rng, &done_sink_));
  return id;
}

ApiId Application::AddApi(ApiSpec spec) {
  assert(!finalized_ && "cannot add APIs after Finalize()");
  const auto id = static_cast<ApiId>(apis_.size());
  apis_.push_back(std::move(spec));
  return id;
}

void Application::Finalize() {
  assert(!finalized_);
  finalized_ = true;
  for (auto& api : apis_) api.Finalize();
  metrics_ = std::make_unique<MetricsCollector>(NumApis(), config_.slo);

  // Name -> id indices. Topology is frozen from here on, so the maps never
  // go stale; controllers and fault profiles resolve names every tick.
  service_index_.reserve(services_.size());
  for (const auto& svc : services_) service_index_.emplace(svc->name(), svc->id());
  api_index_.reserve(apis_.size());
  for (std::size_t i = 0; i < apis_.size(); ++i) {
    api_index_.emplace(apis_[i].name(), static_cast<ApiId>(i));
  }

  // Streaming-metrics registry: resolve every request/service family once
  // so the per-event hot path is a single pointer add.
  std::vector<ApiMetricHandles> api_handles;
  api_handles.reserve(apis_.size());
  for (const auto& api : apis_) {
    const obs::Labels labels{{"api", api.name()}};
    ApiMetricHandles h;
    h.offered = registry_.GetCounter("topfull_requests_offered_total",
                                     "Client requests offered at the gateway.", labels);
    h.admitted = registry_.GetCounter("topfull_requests_admitted_total",
                                      "Requests admitted by the entry limiter.", labels);
    h.rejected_entry =
        registry_.GetCounter("topfull_requests_rejected_entry_total",
                             "Requests shed by the entry rate limiter.", labels);
    h.rejected_service = registry_.GetCounter(
        "topfull_requests_rejected_service_total",
        "Admitted requests that failed at some microservice.", labels);
    h.completed = registry_.GetCounter("topfull_requests_completed_total",
                                       "Requests that completed end to end.", labels);
    h.good = registry_.GetCounter("topfull_requests_good_total",
                                  "Completions within the end-to-end SLO.", labels);
    obs::HistogramConfig latency_buckets;
    latency_buckets.min_value = 1e-2;  // 10 us, in ms
    latency_buckets.max_value = 1e6;   // ~17 min, in ms
    h.latency_ms = registry_.GetHistogram(
        "topfull_request_latency_ms", "End-to-end latency of completed requests.",
        labels, latency_buckets);
    api_handles.push_back(h);
  }
  metrics_->BindRegistry(std::move(api_handles));

  service_handles_.clear();
  for (const auto& svc : services_) {
    const obs::Labels labels{{"service", svc->name()}};
    ServiceMetricHandles h;
    h.cpu = registry_.GetGauge("topfull_service_cpu_utilization",
                               "CPU utilisation over the last closed window.", labels);
    h.pods = registry_.GetGauge("topfull_service_running_pods",
                                "Running pods per microservice.", labels);
    h.outstanding =
        registry_.GetGauge("topfull_service_outstanding_jobs",
                           "Queued + in-service jobs at the window close.", labels);
    h.capacity = registry_.GetGauge(
        "topfull_service_capacity_rps",
        "Estimated sustainable throughput per microservice at work=1.", labels);
    h.capacity->Set(svc->CapacityRps());
    obs::HistogramConfig delay_buckets;
    delay_buckets.min_value = 1e-3;  // 1 us, in ms
    delay_buckets.max_value = 1e6;
    h.queue_delay_ms = registry_.GetHistogram(
        "topfull_service_queue_delay_ms",
        "Per-window average queueing delay (one sample per window).", labels,
        delay_buckets);
    service_handles_.push_back(h);
  }
  registry_.GetGauge("topfull_slo_seconds", "End-to-end latency SLO.")
      ->Set(ToSeconds(config_.slo));
  sim_end_gauge_ = registry_.GetGauge(
      "topfull_sim_end_seconds", "Simulation time at the last closed metrics window.");
  engine_handles_.pending_events = registry_.GetGauge(
      "topfull_engine_pending_events",
      "Timer-heap size (scheduled events not yet fired) at the window close.");
  engine_handles_.events_cancelled = registry_.GetGauge(
      "topfull_engine_events_cancelled",
      "Events cancelled before firing, cumulative.");
  engine_handles_.timer_slots = registry_.GetGauge(
      "topfull_engine_timer_slots",
      "Timer slots carved from the slab pool (capacity high-water).");
  engine_handles_.timer_slots_free = registry_.GetGauge(
      "topfull_engine_timer_slots_free",
      "Timer slots currently on the free list.");
  engine_handles_.arena_requests_live = registry_.GetGauge(
      "topfull_engine_arena_requests_live",
      "Live pooled request records at the window close.");
  engine_handles_.arena_requests_capacity = registry_.GetGauge(
      "topfull_engine_arena_requests_capacity",
      "Request-record arena capacity high-water.");
  engine_handles_.arena_attempts_live = registry_.GetGauge(
      "topfull_engine_arena_attempts_live",
      "Live pooled attempt records at the window close.");
  engine_handles_.arena_attempts_capacity = registry_.GetGauge(
      "topfull_engine_arena_attempts_capacity",
      "Attempt-record arena capacity high-water.");

  // Metric collection loop. Registered before any controller loop so that
  // within every tick, controllers observe the freshly closed window.
  window_scratch_.reserve(services_.size());
  sim_.SchedulePeriodic(config_.metrics_period, config_.metrics_period, [this]() {
    window_scratch_.clear();
    for (std::size_t s = 0; s < services_.size(); ++s) {
      const ServiceWindowStats w = services_[s]->CollectWindow(config_.metrics_period);
      window_scratch_.push_back(ServiceWindow{w.cpu_utilization, w.avg_queue_delay_s,
                                              w.max_queue_delay_s, w.running_pods,
                                              w.total_outstanding});
      ServiceMetricHandles& h = service_handles_[s];
      h.cpu->Set(w.cpu_utilization);
      h.pods->Set(w.running_pods);
      h.outstanding->Set(w.total_outstanding);
      h.capacity->Set(services_[s]->CapacityRps());
      h.queue_delay_ms->Record(1e3 * w.avg_queue_delay_s);
    }
    sim_end_gauge_->Set(ToSeconds(sim_.Now()));
    engine_handles_.pending_events->Set(static_cast<double>(sim_.PendingEvents()));
    engine_handles_.events_cancelled->Set(
        static_cast<double>(sim_.EventsCancelled()));
    engine_handles_.timer_slots->Set(static_cast<double>(sim_.SlotCapacity()));
    engine_handles_.timer_slots_free->Set(static_cast<double>(sim_.SlotsFree()));
    const ArenaStats arena = Arena();
    engine_handles_.arena_requests_live->Set(
        static_cast<double>(arena.live_requests));
    engine_handles_.arena_requests_capacity->Set(
        static_cast<double>(arena.request_capacity));
    engine_handles_.arena_attempts_live->Set(
        static_cast<double>(arena.live_attempts));
    engine_handles_.arena_attempts_capacity->Set(
        static_cast<double>(arena.attempt_capacity));
    metrics_->Collect(sim_.Now(), window_scratch_);
  });
}

ServiceId Application::FindService(const std::string& name) const {
  if (finalized_) {
    const auto it = service_index_.find(name);
    return it != service_index_.end() ? it->second : kNoService;
  }
  for (const auto& svc : services_) {
    if (svc->name() == name) return svc->id();
  }
  return kNoService;
}

ApiId Application::FindApi(const std::string& name) const {
  if (finalized_) {
    const auto it = api_index_.find(name);
    return it != api_index_.end() ? it->second : kNoApi;
  }
  for (std::size_t i = 0; i < apis_.size(); ++i) {
    if (apis_[i].name() == name) return static_cast<ApiId>(i);
  }
  return kNoApi;
}

Application::ArenaStats Application::Arena() const {
  static_assert(sizeof(RequestRec) <= 64, "a request record fits one cache line");
  static_assert(sizeof(AttemptRec) == 64, "an attempt record is one cache line");
  return ArenaStats{request_pool_.live(), request_pool_.capacity(),
                    attempt_pool_.live(), attempt_pool_.capacity(),
                    request_pool_.capacity() * sizeof(RequestRec) +
                        attempt_pool_.capacity() * sizeof(AttemptRec)};
}

std::uint32_t Application::AddDoneHandler(DoneHandler fn) {
  done_handlers_.push_back(std::move(fn));
  return static_cast<std::uint32_t>(done_handlers_.size() - 1);
}

void Application::Complete(const DoneRef& done, Outcome outcome, SimTime latency) {
  if (done.handler != DoneRef::kNoHandler) {
    done_handlers_[done.handler](outcome, latency, done.data);
  }
}

void Application::Submit(ApiId api, DoneRef done) {
  Submit(api, SubmitOptions{}, done);
}

void Application::Submit(ApiId api, const SubmitOptions& options, DoneRef done) {
  assert(finalized_ && "Finalize() before submitting traffic");
  assert(done.handler == DoneRef::kNoHandler || done.handler < done_handlers_.size());
  metrics_->OnOffered(api);
  if (observer_ != nullptr) observer_->OnOffered(api, sim_.Now());
  if (entry_ != nullptr && !entry_->Admit(api, sim_.Now())) {
    metrics_->OnRejectedEntry(api);
    if (observer_ != nullptr) observer_->OnEntryRejected(api, sim_.Now());
    Complete(done, Outcome::kRejectedEntry, 0);
    return;
  }
  metrics_->OnAdmitted(api);

  RequestRec* req = request_pool_.Alloc();
  req->info.id = next_request_id_++;
  req->info.api = api;
  req->info.business_priority = apis_[api].business_priority();
  // A pinned user priority consumes no randomness, so pools that pin it
  // draw exactly the same gateway stream as before for unpinned traffic.
  req->info.user_priority = options.user_priority >= 0
                                ? options.user_priority
                                : static_cast<int>(rng_.UniformInt(0, 127));
  req->start = sim_.Now();
  const auto& spec = apis_[api];
  req->path = &spec.paths()[spec.SamplePath(rng_.NextDouble())];
  req->done_data = done.data;
  req->done_handler = done.handler;
  req->finalized = false;
  ++inflight_;
  req->traced = false;
  if (observer_ != nullptr) {
    observer_->OnAdmitted(req->info.id, api, sim_.Now());
    req->traced = observer_->Tracing(req->info.id);
  }

  StartAttempt(req, &req->path->root, /*attempt=*/0, ContRef{});
}

void Application::StartAttempt(RequestRec* req, const CallNode* node, int attempt,
                               ContRef cont) {
  Service& svc = *services_[node->service];
  ++hop_attempts_;
  AttemptRec* a = attempt_pool_.Alloc();
  a->node = node;
  a->timeout = des::Simulation::TimerHandle{};
  a->held = Service::HeldDispatch{};
  a->req = req->pool_index;
  a->parent = cont.parent;
  a->parent_gen = cont.parent_gen;
  a->attempt = attempt;
  a->next_child = 0;
  a->pending = 1;  // the attempt logic itself
  a->settled = false;
  a->timed_out = false;
  a->traced = req->traced;
  a->join_all_ok = true;
  a->cont_kind = cont.kind;

  // Dispatch draws the service time whether or not it is asked to report
  // it, so the RNG stream is identical with and without tracing.
  SimTime* service_time = nullptr;
  if (a->traced) {
    if (hop_times_.size() <= a->pool_index) hop_times_.resize(attempt_pool_.capacity());
    HopTimes& t = hop_times_[a->pool_index];
    t = HopTimes{sim_.Now(), 0};
    service_time = &t.service_time;
  }
  // Synchronous-RPC services hold their worker slot while the request's
  // downstream subtree runs; the slot is released when the subtree
  // resolves (success or failure). A fresh handle per attempt: a retried
  // hop lands on a (possibly) different pod.
  const bool blocking = svc.config().blocking_rpc && !node->children.empty();
  bool token_retained = false;
  const bool dispatched =
      blocking ? svc.DispatchHeld(req->info, node->work, a->pool_index, &a->held,
                                  service_time, &token_retained)
               : svc.Dispatch(req->info, node->work, a->pool_index, service_time,
                              &token_retained);
  if (!dispatched) {
    if (a->traced) observer_->OnHopShed(req->info.id, node->service, sim_.Now());
    FailAttempt(a);  // consumes the logic reference
    return;
  }
  if (token_retained) ++a->pending;
  if (config_.hop_timeout > 0) {
    // Scheduled identically whether or not the request is traced — the
    // event sequence (and thus every tie-break) must not depend on
    // observation. Cancelled when the hop settles first.
    ++a->pending;
    a->timeout = sim_.ArmTimer(hop_timeout_queue_, a->pool_index);
  }
}

void Application::OnLocalDone(AttemptRec* a, bool ok) {
  // The dispatched job's reference pins the record, so the token still
  // names this attempt.
  if (a->settled) {
    // The hop timed out earlier; the server just finished the wasted
    // work. A blocking attempt's slot is freed here (nobody else will);
    // non-blocking pods free their own slot.
    Service::ReleaseHeld(a->held);
    ReleaseAttempt(a);
    return;
  }
  a->settled = true;
  if (a->timeout.valid()) {
    if (sim_.Cancel(a->timeout)) ReleaseAttempt(a);  // timer reference gone
    a->timeout = des::Simulation::TimerHandle{};
  }
  if (a->traced) {
    const HopTimes& t = hop_times_[a->pool_index];
    observer_->OnHopDone(request_pool_.At(a->req)->info.id, a->node->service, t.start,
                         sim_.Now(), t.service_time, ok);
  }
  if (!ok) {
    // Pod died mid-service: no slot is held (the hold handle never
    // activated), so fail/retry directly.
    FailAttempt(a);
  } else {
    AfterLocalSuccess(a);
  }
  ReleaseAttempt(a);  // the dispatched job's reference
}

void Application::OnHopTimeout(AttemptRec* a) {
  // The timer reference pins the record, so the pool index still names
  // this attempt.
  if (!a->settled) {
    a->settled = true;
    a->timed_out = true;
    a->timeout = des::Simulation::TimerHandle{};
    ++hop_timeouts_;
    if (a->traced) {
      const HopTimes& t = hop_times_[a->pool_index];
      observer_->OnHopDone(request_pool_.At(a->req)->info.id, a->node->service,
                           t.start, sim_.Now(), t.service_time, /*ok=*/false);
    }
    FailAttempt(a);  // consumes the logic reference
  }
  ReleaseAttempt(a);  // the timer reference
}

void Application::FailAttempt(AttemptRec* a) {
  if (a->attempt < config_.max_retries) {
    ++retries_;
    RequestRec* req = request_pool_.At(a->req);
    const CallNode* node = a->node;
    const int next_attempt = a->attempt + 1;
    const ContRef cont = a->cont();
    if (config_.retry_backoff > 0) {
      // A pending retry keeps the subtree unresolved, which pins the
      // request and the continuation parent until the retry runs.
      const std::uint32_t req_gen = req->gen;
      sim_.ScheduleAfter(config_.retry_backoff,
                         [this, req, req_gen, node, next_attempt, cont]() {
                           assert(req->gen == req_gen);
                           (void)req_gen;
                           StartAttempt(req, node, next_attempt, cont);
                         });
      ReleaseAttempt(a);
    } else {
      ReleaseAttempt(a);
      StartAttempt(req, node, next_attempt, cont);
    }
  } else {
    ResolveSubtree(a, false);
  }
}

void Application::AfterLocalSuccess(AttemptRec* a) {
  const CallNode* node = a->node;
  if (node->children.empty()) {
    ResolveSubtree(a, true);
    return;
  }
  if (node->parallel) {
    // Fan out all children; join when every branch resolves. Failed
    // branches do not cancel their siblings (their work is wasted),
    // matching real partially-constructed responses.
    a->join_remaining = static_cast<std::uint32_t>(node->children.size());
    a->join_all_ok = true;
    RequestRec* req = request_pool_.At(a->req);
    const ContRef cont{ContRef::Kind::kJoin, a->pool_index, a->gen};
    for (const auto& child : node->children) {
      StartAttempt(req, &child, /*attempt=*/0, cont);
    }
  } else {
    a->next_child = 0;
    RunNextChild(a);
  }
}

void Application::RunNextChild(AttemptRec* a) {
  const auto& children = a->node->children;
  if (a->next_child >= children.size()) {
    ResolveSubtree(a, true);
    return;
  }
  StartAttempt(request_pool_.At(a->req), &children[a->next_child], /*attempt=*/0,
               ContRef{ContRef::Kind::kSeq, a->pool_index, a->gen});
}

void Application::ResolveSubtree(AttemptRec* a, bool ok) {
  // A timed-out attempt must keep its held slot: the server is still
  // working and the late completion handler is the one that frees it.
  if (!a->timed_out) Service::ReleaseHeld(a->held);
  switch (a->cont_kind) {
    case ContRef::Kind::kRoot:
      FinalizeRequest(request_pool_.At(a->req), ok);
      break;
    case ContRef::Kind::kSeq: {
      AttemptRec* p = attempt_pool_.At(a->parent);
      assert(p->gen == a->parent_gen);
      if (!ok) {
        ResolveSubtree(p, false);
      } else {
        ++p->next_child;
        RunNextChild(p);
      }
      break;
    }
    case ContRef::Kind::kJoin: {
      AttemptRec* p = attempt_pool_.At(a->parent);
      assert(p->gen == a->parent_gen);
      if (!ok) p->join_all_ok = false;
      if (--p->join_remaining == 0) ResolveSubtree(p, p->join_all_ok);
      break;
    }
  }
  ReleaseAttempt(a);  // the logic reference
}

void Application::FinalizeRequest(RequestRec* req, bool ok) {
  if (req->finalized) return;
  req->finalized = true;
  --inflight_;
  const SimTime latency = sim_.Now() - req->start;
  const ApiId api = req->info.api;
  if (req->traced) {
    observer_->OnRequestDone(req->info.id, req->info.api, req->start, sim_.Now(),
                             ok ? Outcome::kCompleted : Outcome::kRejectedService,
                             ok && latency <= config_.slo);
  }
  // Recycle the record before running the done handler: it may Submit
  // re-entrantly and is welcome to reuse this slot.
  const DoneRef done{req->done_handler, req->done_data};
  ++req->gen;
  request_pool_.Free(req);
  if (ok) {
    metrics_->OnCompleted(api, latency);
    Complete(done, Outcome::kCompleted, latency);
  } else {
    metrics_->OnRejectedService(api);
    Complete(done, Outcome::kRejectedService, latency);
  }
}

void Application::ReleaseAttempt(AttemptRec* a) {
  assert(a->pending > 0);
  if (--a->pending == 0) {
    ++a->gen;  // invalidate any stale pointer into this record
    attempt_pool_.Free(a);
  }
}

}  // namespace topfull::sim
