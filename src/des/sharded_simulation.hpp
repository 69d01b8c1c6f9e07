// Sharded parallel DES: many single-threaded des::Simulation engines that
// never exchange an event.
//
// Only sim::ShardedApp uses it, for the perfbench `alibaba_sharded`
// workload and the `sharded_deep_tree_*` rows of tab_event_throughput;
// every other run is one des::Simulation.
//
// The service graph decomposes into independent clusters (§6.4 of the
// paper — the same decomposition the overload controller exploits), and the
// shard plan (sim::BuildShardPlan) puts whole clusters on shards, so no hop
// ever leaves its shard and no shard can affect another. Synchronization is
// therefore one spawn-and-join round per RunUntil(end): shards 1..N-1 run
// to `end` on their own std::threads, shard 0 runs on the calling thread,
// and the caller joins them. A shard's (when, seq) stream depends on its
// own queue alone, so where the RunUntil boundaries fall changes nothing
// but the round count.
//
// shards == 1 bypasses threads entirely (a plain RunUntil) and is
// byte-identical to a lone des::Simulation.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/sim_time.hpp"
#include "des/simulation.hpp"

namespace topfull::des {

class ShardedSimulation {
 public:
  struct Options {
    /// Run shards 1..N-1 on their own threads (default) or every shard on
    /// the calling thread, one after another. Both modes produce
    /// bit-identical results; sequential exists for determinism
    /// cross-checks and for debugging under a debugger.
    bool threaded = true;
  };

  /// Per-shard accounting for the benchmark tables.
  struct ShardStats {
    double busy_s = 0;     ///< wall time running the shard's engine
    double blocked_s = 0;  ///< wall time from the shard's finish to the round's end
  };

  /// Non-owning: runs engines owned elsewhere (e.g. by sim::Application
  /// instances). All pointers must outlive this object and every engine
  /// must be at the same clock (normally 0).
  ShardedSimulation(std::vector<Simulation*> shards, Options options);

  /// Owning convenience for DES-level tests: constructs `num_shards` fresh
  /// engines internally.
  ShardedSimulation(int num_shards, Options options);

  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  Simulation& shard(int i) { return *shards_[static_cast<std::size_t>(i)]; }
  const Simulation& shard(int i) const {
    return *shards_[static_cast<std::size_t>(i)];
  }

  /// The globally synchronized time: every shard's clock after RunUntil.
  SimTime Horizon() const { return horizon_; }

  /// Advances every shard to `end` in one round. Callable repeatedly.
  void RunUntil(SimTime end);

  /// Aggregate engine counters over all shards.
  std::uint64_t TotalEventsProcessed() const;
  std::uint64_t TotalEventsScheduled() const;
  std::uint64_t TotalEventsCancelled() const;
  /// Always 0: no event crosses shards. Kept only because the perfbench
  /// driver reports it as `des.shard.messages`.
  std::uint64_t TotalMessages() const { return 0; }

  /// Number of rounds executed so far.
  std::uint64_t Rounds() const { return rounds_; }

  /// Per-shard busy/blocked accounting. Stats are collected with wall
  /// clocks only in threaded mode; sequential mode reports zeros.
  const std::vector<ShardStats>& Stats() const { return stats_; }

 private:
  std::vector<Simulation*> shards_;
  std::vector<std::unique_ptr<Simulation>> owned_;
  Options options_;
  SimTime horizon_ = 0;
  std::uint64_t rounds_ = 0;
  std::vector<ShardStats> stats_;
};

}  // namespace topfull::des
