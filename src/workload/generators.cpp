#include "workload/generators.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>

namespace topfull::workload {

std::vector<double> ApiMix::Cumulative() const {
  std::vector<double> cumulative(weights.size());
  double total = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    total += weights[i];
    cumulative[i] = total;
  }
  return cumulative;
}

sim::ApiId ApiMix::SampleCumulative(const std::vector<double>& cumulative,
                                    double u) {
  assert(!cumulative.empty() && cumulative.back() > 0.0 &&
         "API mix must have positive total weight");
  const auto it =
      std::upper_bound(cumulative.begin(), cumulative.end(), u * cumulative.back());
  if (it == cumulative.end()) return static_cast<sim::ApiId>(cumulative.size() - 1);
  return static_cast<sim::ApiId>(it - cumulative.begin());
}

ClosedLoopPool::ClosedLoopPool(sim::Application* app, ClosedLoopConfig config,
                               Schedule users, Rng rng)
    : app_(app),
      config_(std::move(config)),
      mix_cumulative_(config_.mix.Cumulative()),
      schedule_(std::move(users)),
      rng_(rng),
      think_handler_(app_->sim().AddHandler(
          [this](std::uint32_t user) { UserLoop(static_cast<int>(user)); })),
      timeout_queue_(app_->sim().AddTimerQueue(
          config_.client_timeout,
          [this](std::uint32_t user) { OnClientTimeout(static_cast<int>(user)); })),
      done_handler_(app_->AddDoneHandler(
          [this](sim::Outcome outcome, SimTime, std::uint64_t data) {
            OnResponse(static_cast<int>(data >> 32), static_cast<std::uint32_t>(data),
                       outcome);
          })) {}

void ClosedLoopPool::Start() {
  if (started_) return;
  started_ = true;
  Reconcile();
  app_->sim().SchedulePeriodic(app_->sim().Now() + config_.reconcile_period,
                               config_.reconcile_period, [this]() { Reconcile(); });
}

void ClosedLoopPool::Reconcile() {
  target_users_ = static_cast<int>(schedule_.At(app_->sim().Now()));
  // Ramp-down is gradual: excess users terminate at their next loop
  // boundary (a user whose index >= target exits instead of re-issuing).
  // A user above the target that has not left yet simply carries on when
  // the target rises again; only users that left are started again, in
  // index order, before users never started.
  if (static_cast<int>(users_.size()) < target_users_) users_.resize(target_users_);
  while (!left_.empty() && left_.front() < target_users_) {
    std::pop_heap(left_.begin(), left_.end(), std::greater<>());
    const int index = left_.back();
    left_.pop_back();
    ++live_users_;
    UserLoop(index);
  }
  while (spawned_users_ < target_users_) {
    const int index = spawned_users_++;
    ++live_users_;
    UserLoop(index);
  }
}

std::vector<UserOutcomes> ClosedLoopPool::Outcomes() const {
  std::vector<UserOutcomes> outcomes;
  outcomes.reserve(users_.size());
  for (const User& user : users_) {
    outcomes.push_back(UserOutcomes{user.intents, user.attempts, user.ok, user.failed});
  }
  return outcomes;
}

int ClosedLoopPool::UserPriority(int user_index) const {
  if (config_.user_priority_lo < 0) return -1;
  const int lo = config_.user_priority_lo;
  const int hi = std::max(config_.user_priority_hi, lo);
  return lo + user_index % (hi - lo + 1);
}

void ClosedLoopPool::UserLoop(int user_index) {
  if (user_index >= target_users_) {
    --live_users_;
    left_.push_back(user_index);
    std::push_heap(left_.begin(), left_.end(), std::greater<>());
    return;
  }
  const sim::ApiId api =
      ApiMix::SampleCumulative(mix_cumulative_, rng_.NextDouble());
  User& user = users_[static_cast<std::size_t>(user_index)];
  user.api = api;
  user.retries_left = static_cast<std::uint32_t>(std::max(0, config_.max_client_retries));
  ++user.intents;
  IssueAttempt(user_index);
}

void ClosedLoopPool::IssueAttempt(int user_index) {
  User& user = users_[static_cast<std::size_t>(user_index)];
  assert(user.attempts != std::numeric_limits<std::uint32_t>::max());
  const std::uint32_t epoch = ++user.attempts;
  user.waiting = true;
  user.timeout = des::Simulation::TimerHandle{};
  sim::SubmitOptions options;
  options.user_priority = UserPriority(user_index);
  app_->Submit(user.api, options,
               sim::DoneRef{done_handler_,
                            static_cast<std::uint64_t>(user_index) << 32 | epoch});
  // A refusal has already answered inside Submit.
  if (user.attempts != epoch || !user.waiting) return;
  user.timeout =
      app_->sim().ArmTimer(timeout_queue_, static_cast<std::uint32_t>(user_index));
}

void ClosedLoopPool::OnResponse(int user_index, std::uint32_t epoch,
                                sim::Outcome outcome) {
  User& user = users_[static_cast<std::size_t>(user_index)];
  // A late response: the user already gave up (the server work was wasted).
  if (user.attempts != epoch || !user.waiting) return;
  user.waiting = false;
  if (user.timeout.valid()) {
    app_->sim().Cancel(user.timeout);
    user.timeout = des::Simulation::TimerHandle{};
  }
  OnAttemptDone(user_index, outcome == sim::Outcome::kCompleted);
}

void ClosedLoopPool::OnClientTimeout(int user_index) {
  // A response cancels the timer, so a firing timer's user is still
  // waiting on the attempt that armed it.
  User& user = users_[static_cast<std::size_t>(user_index)];
  assert(user.waiting);
  user.waiting = false;  // client gives up; a late response is ignored
  user.timeout = des::Simulation::TimerHandle{};
  OnAttemptDone(user_index, false);
}

void ClosedLoopPool::OnAttemptDone(int user_index, bool ok) {
  User& user = users_[static_cast<std::size_t>(user_index)];
  if (ok) {
    ++user.ok;
    UserThink(user_index);
    return;
  }
  if (user.retries_left > 0) {
    --user.retries_left;
    const std::uint32_t epoch = user.attempts;
    app_->sim().ScheduleAfter(config_.client_retry_backoff,
                              [this, user_index, epoch]() {
                                const User& u =
                                    users_[static_cast<std::size_t>(user_index)];
                                if (u.attempts != epoch) return;  // superseded
                                IssueAttempt(user_index);
                              });
    return;
  }
  ++user.failed;
  UserThink(user_index);
}

void ClosedLoopPool::UserThink(int user_index) {
  const double jitter = 1.0 + config_.think_jitter * rng_.Uniform(-1.0, 1.0);
  const auto think = static_cast<SimTime>(
      std::max(0.0, static_cast<double>(config_.think) * jitter));
  app_->sim().ScheduleHandlerAfter(think, think_handler_,
                                   static_cast<std::uint32_t>(user_index));
}

OpenLoopGenerator::OpenLoopGenerator(sim::Application* app, sim::ApiId api,
                                     Schedule rate, Rng rng)
    : app_(app),
      api_(api),
      rate_(std::move(rate)),
      rng_(rng),
      handler_(app_->sim().AddHandler([this](std::uint32_t what) {
        if (what == kArrival) app_->Submit(api_);
        ScheduleNext();
      })) {}

void OpenLoopGenerator::Start() { ScheduleNext(); }

void OpenLoopGenerator::ScheduleNext() {
  const double rate = rate_.At(app_->sim().Now());
  if (rate <= 0.0) {
    // Idle; poll for the schedule turning on.
    app_->sim().ScheduleHandlerAfter(Millis(100), handler_, kPoll);
    return;
  }
  const SimTime gap = std::max<SimTime>(1, Seconds(rng_.Exponential(1.0 / rate)));
  app_->sim().ScheduleHandlerAfter(gap, handler_, kArrival);
}

ClosedLoopPool& TrafficDriver::AddClosedLoop(ClosedLoopConfig config, Schedule users) {
  if (scope_.api_origin != nullptr) {
    // Apportion: this shard keeps the users proportional to its share of
    // the mix weight and drops foreign APIs from the mix. When the share
    // is exactly 1 (identical float sums), nothing is touched.
    double total = 0.0;
    double owned = 0.0;
    for (std::size_t i = 0; i < config.mix.weights.size(); ++i) {
      total += config.mix.weights[i];
      if ((*scope_.api_origin)[i] == scope_.shard) owned += config.mix.weights[i];
    }
    const double share = total > 0.0 ? owned / total : 0.0;
    if (share != 1.0) {
      for (std::size_t i = 0; i < config.mix.weights.size(); ++i) {
        if ((*scope_.api_origin)[i] != scope_.shard) config.mix.weights[i] = 0.0;
      }
      // share == 0 leaves an all-zero mix, but then the scaled schedule
      // keeps the pool at zero users forever and the mix is never sampled.
      users = users.Scaled(share);
    }
  }
  // Pool 0 keeps the historical fork label (byte-identical single-pool
  // runs); additional pools get decorrelated streams.
  const std::uint64_t salt =
      HashLabel("closed-loop") ^ static_cast<std::uint64_t>(pools_.size());
  pools_.push_back(std::make_unique<ClosedLoopPool>(
      app_, std::move(config), std::move(users), app_->rng().Fork(salt)));
  pools_.back()->Start();
  return *pools_.back();
}

OpenLoopGenerator& TrafficDriver::AddOpenLoop(sim::ApiId api, Schedule rate) {
  open_.push_back(std::make_unique<OpenLoopGenerator>(
      app_, api, std::move(rate),
      app_->rng().Fork(HashLabel("open-loop") ^ static_cast<std::uint64_t>(api))));
  const bool owned = scope_.api_origin == nullptr ||
                     (*scope_.api_origin)[static_cast<std::size_t>(api)] ==
                         scope_.shard;
  // A foreign API's generator is registered (RNG fork order stays fixed)
  // but never started, so it schedules nothing — not even idle polls.
  if (owned) open_.back()->Start();
  return *open_.back();
}

}  // namespace topfull::workload
