#include "des/sharded_simulation.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

namespace topfull::des {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

ShardedSimulation::ShardedSimulation(std::vector<Simulation*> shards,
                                     Options options)
    : shards_(std::move(shards)), options_(options) {
  assert(!shards_.empty());
  stats_.resize(shards_.size());
}

ShardedSimulation::ShardedSimulation(int num_shards, Options options)
    : options_(options) {
  assert(num_shards >= 1);
  owned_.reserve(static_cast<std::size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    owned_.push_back(std::make_unique<Simulation>());
    shards_.push_back(owned_.back().get());
  }
  stats_.resize(shards_.size());
}

void ShardedSimulation::RunUntil(SimTime end) {
  if (num_shards() == 1) {
    // A plain engine run: no rounds, no threads.
    shards_[0]->RunUntil(end);
    horizon_ = std::max(horizon_, end);
    return;
  }
  if (end <= horizon_) return;
  if (options_.threaded) {
    // Each shard stamps its own start and finish; the join is the barrier.
    std::vector<Clock::time_point> start(shards_.size());
    std::vector<Clock::time_point> finish(shards_.size());
    const auto run = [this, end, &start, &finish](std::size_t i) {
      start[i] = Clock::now();
      shards_[i]->RunUntil(end);
      finish[i] = Clock::now();
    };
    {
      std::vector<std::jthread> threads;
      threads.reserve(shards_.size() - 1);
      for (std::size_t i = 1; i < shards_.size(); ++i) {
        threads.emplace_back(run, i);
      }
      run(0);
    }  // every shard thread is joined here, on an exception too
    const Clock::time_point joined = Clock::now();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      stats_[i].busy_s += SecondsBetween(start[i], finish[i]);
      stats_[i].blocked_s += SecondsBetween(finish[i], joined);
    }
  } else {
    for (Simulation* sim : shards_) sim->RunUntil(end);
  }
  horizon_ = end;
  ++rounds_;
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

}  // namespace topfull::des
