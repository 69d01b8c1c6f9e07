#include "des/sharded_simulation.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace topfull::des {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

[[noreturn]] void LookaheadViolation(const char* why, int from, int to,
                                     SimTime now, SimTime when) {
  std::fprintf(stderr,
               "ShardedSimulation::Post: %s (shard %d -> %d, sender now %lld us, "
               "when %lld us)\n",
               why, from, to, static_cast<long long>(now),
               static_cast<long long>(when));
  std::abort();
}

}  // namespace

/// Phase barrier. The RunUntil caller publishes (phase, target) under the
/// mutex and bumps `seq`; workers wait for a new seq, run their shard's
/// share, and decrement `pending`. The caller doubles as shard 0's
/// executor, so only N-1 workers exist. A condition variable (no spinning)
/// keeps oversubscribed hosts — including single-core CI runners — from
/// livelocking: a phase is short relative to a context switch only when
/// shards are tiny, and then the sequential mode is the right tool anyway.
struct ShardedSimulation::Sync {
  std::mutex mutex;
  std::condition_variable start;
  std::condition_variable done;
  std::uint64_t seq = 0;
  Phase phase = Phase::kIdle;
  SimTime target = 0;
  int pending = 0;
};

void ShardedSimulation::Init() {
  assert(!shards_.empty());
  const std::size_t n = shards_.size();
  mailboxes_.resize(n * n);
  for (auto& box : mailboxes_)
    box = std::make_unique<SpscMailbox<Message>>();
  stats_.resize(n);
  sync_ = std::make_unique<Sync>();
}

ShardedSimulation::ShardedSimulation(std::vector<Simulation*> shards,
                                     Options options)
    : shards_(std::move(shards)), options_(options) {
  Init();
}

ShardedSimulation::ShardedSimulation(int num_shards, Options options)
    : options_(options) {
  assert(num_shards >= 1);
  owned_.reserve(static_cast<std::size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    owned_.push_back(std::make_unique<Simulation>());
    shards_.push_back(owned_.back().get());
  }
  Init();
}

ShardedSimulation::~ShardedSimulation() { StopWorkers(); }

void ShardedSimulation::Post(int from, int to, SimTime when, InlineEvent fn) {
  assert(from >= 0 && from < num_shards());
  assert(to >= 0 && to < num_shards());
  if (to == from) {
    shards_[static_cast<std::size_t>(from)]->ScheduleAt(when, std::move(fn));
    return;
  }
  // Conservative-lookahead contract: the receiver may already be at
  // sender_now rounded up to the window edge, so anything closer than
  // `lookahead` could land in its past. Checked in every build type: a
  // shard plan that disagrees with the engine's lookahead would otherwise
  // silently reorder the receiver's history.
  const SimTime now = shards_[static_cast<std::size_t>(from)]->Now();
  if (options_.lookahead == kUnboundedLookahead) {
    LookaheadViolation(
        "cross-shard message on an engine with unbounded lookahead "
        "(the shard plan promised no cross-shard edge)",
        from, to, now, when);
  }
  if (when < now + options_.lookahead) {
    LookaheadViolation("cross-shard message undercuts the lookahead", from, to,
                       now, when);
  }
  MailboxFor(from, to).Push(Message{when, std::move(fn)});
  ++stats_[static_cast<std::size_t>(from)].messages_sent;
}

void ShardedSimulation::DrainInbox(int shard_index) {
  Simulation& sim = *shards_[static_cast<std::size_t>(shard_index)];
  ShardStats& st = stats_[static_cast<std::size_t>(shard_index)];
  // Fixed order — sender id ascending, FIFO within a mailbox — so the
  // receiving engine assigns tie-break seq numbers deterministically no
  // matter how threads were scheduled while the messages were produced.
  std::uint64_t drained = 0;
  for (int from = 0; from < num_shards(); ++from) {
    if (from == shard_index) continue;
    drained += MailboxFor(from, shard_index).Drain([&sim](Message&& m) {
      assert(m.when >= sim.Now() && "cross-shard message in the past");
      sim.ScheduleAt(m.when, std::move(m.fn));
    });
  }
  st.messages_delivered += drained;
  st.mailbox_depth_hwm = std::max(st.mailbox_depth_hwm, drained);
}

void ShardedSimulation::DoPhase(int shard_index, Phase phase, SimTime target) {
  switch (phase) {
    case Phase::kDrain:
      DrainInbox(shard_index);
      break;
    case Phase::kExecute:
      shards_[static_cast<std::size_t>(shard_index)]->RunUntil(target);
      break;
    case Phase::kIdle:
    case Phase::kExit:
      break;
  }
}

void ShardedSimulation::WorkerLoop(int shard_index) {
  ShardStats& st = stats_[static_cast<std::size_t>(shard_index)];
  std::uint64_t seen = 0;
  for (;;) {
    Phase phase;
    SimTime target;
    {
      const auto t0 = std::chrono::steady_clock::now();
      std::unique_lock<std::mutex> lock(sync_->mutex);
      sync_->start.wait(lock, [&] { return sync_->seq != seen; });
      seen = sync_->seq;
      phase = sync_->phase;
      target = sync_->target;
      st.blocked_s += SecondsSince(t0);
    }
    if (phase == Phase::kExit) return;
    const auto t0 = std::chrono::steady_clock::now();
    DoPhase(shard_index, phase, target);
    st.busy_s += SecondsSince(t0);
    {
      std::lock_guard<std::mutex> lock(sync_->mutex);
      if (--sync_->pending == 0) sync_->done.notify_one();
    }
  }
}

void ShardedSimulation::RunPhase(Phase phase, SimTime target) {
  if (workers_.empty()) {
    for (int i = 0; i < num_shards(); ++i) DoPhase(i, phase, target);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(sync_->mutex);
    sync_->phase = phase;
    sync_->target = target;
    sync_->pending = num_shards() - 1;
    ++sync_->seq;
  }
  sync_->start.notify_all();
  ShardStats& st = stats_[0];
  const auto t0 = std::chrono::steady_clock::now();
  DoPhase(0, phase, target);
  st.busy_s += SecondsSince(t0);
  const auto t1 = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(sync_->mutex);
    sync_->done.wait(lock, [&] { return sync_->pending == 0; });
  }
  st.blocked_s += SecondsSince(t1);
}

void ShardedSimulation::StartWorkers() {
  workers_.reserve(static_cast<std::size_t>(num_shards() - 1));
  for (int i = 1; i < num_shards(); ++i)
    workers_.emplace_back([this, i] { WorkerLoop(i); });
}

void ShardedSimulation::StopWorkers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(sync_->mutex);
    sync_->phase = Phase::kExit;
    ++sync_->seq;
  }
  sync_->start.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void ShardedSimulation::RunUntil(SimTime end) {
  if (num_shards() == 1) {
    // Bit-identical PR 5 fast path: no windows, no barrier, no threads.
    shards_[0]->RunUntil(end);
    horizon_ = std::max(horizon_, end);
    return;
  }
  assert(options_.lookahead > 0 && "lookahead must be positive for N > 1");
  if (options_.threaded && workers_.empty()) StartWorkers();
  while (horizon_ < end) {
    // Saturating horizon_ + lookahead: never overflows, and an unbounded
    // lookahead makes this whole call a single round.
    const SimTime h = end - horizon_ <= options_.lookahead
                          ? end
                          : horizon_ + options_.lookahead;
    if (round_observer_) {
      // Per-round wall clocks are observer-only: the protocol itself never
      // needs them and the unobserved hot loop stays clock-free.
      const auto t0 = std::chrono::steady_clock::now();
      RunPhase(Phase::kDrain, h);
      const auto t1 = std::chrono::steady_clock::now();
      RunPhase(Phase::kExecute, h);
      const auto t2 = std::chrono::steady_clock::now();
      horizon_ = h;
      ++rounds_;
      RoundInfo info;
      info.round = rounds_ - 1;
      info.horizon = horizon_;
      info.drain_s = std::chrono::duration<double>(t1 - t0).count();
      info.execute_s = std::chrono::duration<double>(t2 - t1).count();
      info.wall_s = info.drain_s + info.execute_s;
      round_observer_(info);
    } else {
      RunPhase(Phase::kDrain, h);
      RunPhase(Phase::kExecute, h);
      horizon_ = h;
      ++rounds_;
    }
  }
}

std::uint64_t ShardedSimulation::TotalEventsProcessed() const {
  std::uint64_t n = 0;
  for (const Simulation* s : shards_) n += s->EventsProcessed();
  return n;
}

std::uint64_t ShardedSimulation::TotalEventsScheduled() const {
  std::uint64_t n = 0;
  for (const Simulation* s : shards_) n += s->EventsScheduled();
  return n;
}

std::uint64_t ShardedSimulation::TotalEventsCancelled() const {
  std::uint64_t n = 0;
  for (const Simulation* s : shards_) n += s->EventsCancelled();
  return n;
}

std::uint64_t ShardedSimulation::TotalMessages() const {
  std::uint64_t n = 0;
  for (const auto& s : stats_) n += s.messages_sent;
  return n;
}

}  // namespace topfull::des
