#include "sim/sharded_app.hpp"

#include <algorithm>
#include <cassert>

namespace topfull::sim {

ShardedApp::ShardedApp(const AppFactory& factory, Options options)
    : options_(options) {
  // The plan needs only the topology, so the first replica is enough to
  // size the rest: one replica per shard of the plan.
  apps_.push_back(factory());
  assert(apps_.back() != nullptr);
  ShardPlanOptions plan_options;
  plan_options.num_shards = options_.shards;
  plan_ = BuildShardPlan(*apps_[0], plan_options);
  const int n = plan_.num_shards;
  apps_.reserve(static_cast<std::size_t>(n));
  for (int i = 1; i < n; ++i) {
    apps_.push_back(factory());
    assert(apps_.back() != nullptr);
    assert(apps_.back()->NumApis() == apps_[0]->NumApis() &&
           apps_.back()->NumServices() == apps_[0]->NumServices() &&
           "app factory must be deterministic across replicas");
  }

  std::vector<des::Simulation*> sims;
  sims.reserve(apps_.size());
  for (auto& a : apps_) sims.push_back(&a->sim());
  des::ShardedSimulation::Options engine_options;
  engine_options.threaded = options_.threaded;
  engine_ = std::make_unique<des::ShardedSimulation>(std::move(sims),
                                                     engine_options);
  if (n > 1) InstallSchedulerInstrumentation();
}

void ShardedApp::InstallSchedulerInstrumentation() {
  // Durations land in milliseconds (sub-microsecond rounds underflow),
  // counts in events; both ranges are generous without paying for
  // the default 50-octave layout per cell.
  const obs::HistogramConfig ms_config{1e-3, 1e6, 8};
  const obs::HistogramConfig count_config{1.0, 1e9, 8};

  round_wall_ms_ = sched_registry_.GetHistogram(
      "topfull_shard_round_wall_ms",
      "Wall time per round, from spawning the shard threads to joining them.",
      {}, ms_config);
  rounds_total_ = sched_registry_.GetCounter("topfull_shard_rounds_total",
                                             "Rounds completed.");

  sched_.resize(apps_.size());
  for (int i = 0; i < num_shards(); ++i) {
    const obs::Labels labels = {{"shard", std::to_string(i)}};
    ShardSched& s = sched_[static_cast<std::size_t>(i)];
    s.barrier_wait_ms = sched_registry_.GetHistogram(
        "topfull_shard_barrier_wait_ms",
        "Per-round wall time from a shard's finish to the round's end.",
        labels, ms_config);
    s.events_per_round = sched_registry_.GetHistogram(
        "topfull_shard_events_per_round",
        "Engine events a shard processed in one round.", labels, count_config);
    s.busy_seconds = sched_registry_.GetGauge(
        "topfull_shard_busy_seconds",
        "Cumulative wall time running the shard's engine.", labels);
    s.blocked_seconds = sched_registry_.GetGauge(
        "topfull_shard_barrier_wait_seconds",
        "Cumulative wall time from the shard's finish to each round's end.",
        labels);
  }

  engine_->SetRoundObserver(
      [this](const des::ShardedSimulation::RoundInfo& info) { OnRound(info); });
}

void ShardedApp::OnRound(const des::ShardedSimulation::RoundInfo& info) {
  // Runs on the RunUntil caller thread after every shard thread has been
  // joined, so reading engine counters and Stats() is race-free here.
  round_wall_ms_->Record(info.wall_s * 1e3);
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

    s.barrier_wait_ms->Record((st.blocked_s - s.prev_blocked_s) * 1e3);
    s.prev_blocked_s = st.blocked_s;

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

int ShardedApp::Inflight() const {
  int n = 0;
  for (const auto& a : apps_) n += a->Inflight();
  return n;
}

}  // namespace topfull::sim
