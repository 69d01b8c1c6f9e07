#include "sim/sharded_app.hpp"

#include <algorithm>
#include <cassert>

namespace topfull::sim {

ShardedApp::ShardedApp(const AppFactory& factory, Options options)
    : options_(options) {
  const int n = std::max(1, options_.shards);
  apps_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    apps_.push_back(factory());
    assert(apps_.back() != nullptr);
    assert(apps_.back()->NumApis() == apps_[0]->NumApis() &&
           apps_.back()->NumServices() == apps_[0]->NumServices() &&
           "app factory must be deterministic across replicas");
  }
  ShardPlanOptions plan_options;
  plan_options.num_shards = n;
  plan_options.net_latency = options_.net_latency;
  plan_ = BuildShardPlan(*apps_[0], plan_options);

  std::vector<des::Simulation*> sims;
  sims.reserve(apps_.size());
  for (auto& a : apps_) sims.push_back(&a->sim());
  // The lookahead is the minimum latency of any message that can cross
  // shards: net_latency when the plan splits a cluster, unbounded when it
  // does not (then each RunUntil is a single round).
  des::ShardedSimulation::Options engine_options;
  engine_options.lookahead = plan_.cluster_aligned
                                 ? des::ShardedSimulation::kUnboundedLookahead
                                 : options_.net_latency;
  engine_options.threaded = options_.threaded;
  engine_ = std::make_unique<des::ShardedSimulation>(std::move(sims),
                                                     engine_options);

  peers_.reserve(apps_.size());
  for (auto& a : apps_) peers_.push_back(a.get());
  if (n > 1) {
    for (int i = 0; i < n; ++i) {
      ShardBinding binding;
      binding.shard = i;
      binding.num_shards = n;
      binding.net_latency = options_.net_latency;
      binding.service_owner = &plan_.service_owner;
      binding.net = engine_.get();
      binding.peers = &peers_;
      apps_[static_cast<std::size_t>(i)]->BindShard(binding);
    }
    InstallSchedulerInstrumentation();
  }
}

void ShardedApp::InstallSchedulerInstrumentation() {
  // Durations land in milliseconds (sub-microsecond rounds underflow),
  // counts in events/messages; both ranges are generous without paying for
  // the default 50-octave layout per cell.
  const obs::HistogramConfig ms_config{1e-3, 1e6, 8};
  const obs::HistogramConfig count_config{1.0, 1e9, 8};

  round_wall_ms_ = sched_registry_.GetHistogram(
      "topfull_shard_round_wall_ms",
      "Wall time per synchronization round (drain + execute).", {}, ms_config);
  round_drain_ms_ = sched_registry_.GetHistogram(
      "topfull_shard_round_drain_ms",
      "Wall time per round spent in the drain phase.", {}, ms_config);
  rounds_total_ = sched_registry_.GetCounter(
      "topfull_shard_rounds_total", "Synchronization rounds completed.");

  sched_.resize(apps_.size());
  for (int i = 0; i < num_shards(); ++i) {
    const obs::Labels labels = {{"shard", std::to_string(i)}};
    ShardSched& s = sched_[static_cast<std::size_t>(i)];
    s.barrier_wait_ms = sched_registry_.GetHistogram(
        "topfull_shard_barrier_wait_ms",
        "Per-round wall time a shard spent blocked at the phase barrier.",
        labels, ms_config);
    s.events_per_round = sched_registry_.GetHistogram(
        "topfull_shard_events_per_round",
        "Engine events a shard processed in one round.", labels, count_config);
    s.messages_per_round = sched_registry_.GetHistogram(
        "topfull_shard_messages_per_round",
        "Cross-shard messages delivered to a shard in one round.", labels,
        count_config);
    s.mailbox_hwm = sched_registry_.GetGauge(
        "topfull_shard_mailbox_depth_hwm",
        "Deepest inbound mailbox backlog observed at a drain phase.", labels);
    s.busy_seconds = sched_registry_.GetGauge(
        "topfull_shard_busy_seconds",
        "Cumulative wall time inside drain/execute phases.", labels);
    s.blocked_seconds = sched_registry_.GetGauge(
        "topfull_shard_barrier_wait_seconds",
        "Cumulative wall time blocked at the phase barrier.", labels);
    s.messages_sent = sched_registry_.GetCounter(
        "topfull_shard_messages_sent_total",
        "Cross-shard messages sent by this shard.", labels);
    s.messages_delivered = sched_registry_.GetCounter(
        "topfull_shard_messages_delivered_total",
        "Cross-shard messages delivered to this shard.", labels);
  }

  engine_->SetRoundObserver(
      [this](const des::ShardedSimulation::RoundInfo& info) { OnRound(info); });
}

void ShardedApp::OnRound(const des::ShardedSimulation::RoundInfo& info) {
  // Runs on the RunUntil caller thread while every worker is parked at the
  // barrier, so reading engine counters and Stats() is race-free here.
  round_wall_ms_->Record(info.wall_s * 1e3);
  round_drain_ms_->Record(info.drain_s * 1e3);
  rounds_total_->Inc();
  const std::vector<des::ShardedSimulation::ShardStats>& stats =
      engine_->Stats();
  for (int i = 0; i < num_shards(); ++i) {
    ShardSched& s = sched_[static_cast<std::size_t>(i)];
    const des::ShardedSimulation::ShardStats& st =
        stats[static_cast<std::size_t>(i)];
    const des::Simulation& sim = engine_->shard(i);

    const std::uint64_t events = sim.EventsProcessed();
    s.events_per_round->Record(static_cast<double>(events - s.prev_events));
    s.prev_events = events;

    s.messages_per_round->Record(
        static_cast<double>(st.messages_delivered - s.prev_delivered));
    s.messages_sent->Inc(st.messages_sent - s.prev_sent);
    s.messages_delivered->Inc(st.messages_delivered - s.prev_delivered);
    s.prev_sent = st.messages_sent;
    s.prev_delivered = st.messages_delivered;

    s.barrier_wait_ms->Record((st.blocked_s - s.prev_blocked_s) * 1e3);
    s.prev_blocked_s = st.blocked_s;

    s.mailbox_hwm->Set(static_cast<double>(st.mailbox_depth_hwm));
    s.busy_seconds->Set(st.busy_s);
    s.blocked_seconds->Set(st.blocked_s);
  }
}

std::vector<Snapshot> ShardedApp::MergedTimeline() const {
  const auto& base = app(0).metrics().Timeline();
  std::size_t rows = base.size();
  for (int i = 1; i < num_shards(); ++i) {
    rows = std::min(rows, app(i).metrics().Timeline().size());
  }
  std::vector<Snapshot> merged;
  merged.reserve(rows);
  for (std::size_t row = 0; row < rows; ++row) {
    Snapshot snap;
    snap.t_end_s = base[row].t_end_s;
    snap.apis.reserve(base[row].apis.size());
    for (std::size_t a = 0; a < base[row].apis.size(); ++a) {
      const int origin = plan_.OriginOf(static_cast<ApiId>(a));
      snap.apis.push_back(app(origin).metrics().Timeline()[row].apis[a]);
    }
    snap.services.reserve(base[row].services.size());
    for (std::size_t s = 0; s < base[row].services.size(); ++s) {
      const int owner = plan_.OwnerOf(static_cast<ServiceId>(s));
      snap.services.push_back(app(owner).metrics().Timeline()[row].services[s]);
    }
    merged.push_back(std::move(snap));
  }
  return merged;
}

std::vector<ApiTotals> ShardedApp::MergedTotals() const {
  const int num_apis = app(0).NumApis();
  std::vector<ApiTotals> totals;
  totals.reserve(static_cast<std::size_t>(num_apis));
  for (ApiId a = 0; a < num_apis; ++a) {
    totals.push_back(
        app(plan_.OriginOf(a)).metrics().Totals()[static_cast<std::size_t>(a)]);
  }
  return totals;
}

double ShardedApp::MergedAvgTotalGoodput(double from_s, double to_s) const {
  double total = 0.0;
  for (ApiId a = 0; a < app(0).NumApis(); ++a) {
    total += app(plan_.OriginOf(a)).metrics().AvgGoodput(a, from_s, to_s);
  }
  return total;
}

std::uint64_t ShardedApp::HopTimeouts() const {
  std::uint64_t n = 0;
  for (const auto& a : apps_) n += a->HopTimeouts();
  return n;
}

std::uint64_t ShardedApp::Retries() const {
  std::uint64_t n = 0;
  for (const auto& a : apps_) n += a->Retries();
  return n;
}

std::uint64_t ShardedApp::RemoteCalls() const {
  std::uint64_t n = 0;
  for (const auto& a : apps_) n += a->RemoteCallsOut();
  return n;
}

int ShardedApp::Inflight() const {
  int n = 0;
  for (const auto& a : apps_) n += a->Inflight();
  return n;
}

}  // namespace topfull::sim
