// Sharded parallel DES: conservative-lookahead synchronization of many
// single-threaded des::Simulation engines.
//
// The service graph decomposes into near-independent clusters (§6.4 of the
// paper — the same decomposition the overload controller exploits), so a
// whole-machine simulation is N per-shard engines that only interact through
// cross-shard RPC edges. Every such edge has a known minimum network
// latency, which gives a global conservative lookahead L = min over edges:
// no shard can affect another sooner than L ahead of its own clock. With no
// cross-shard edge at all (a cluster-aligned plan) the minimum is over an
// empty set and L is unbounded: kUnboundedLookahead.
//
// Synchronization is a bounded-lag window protocol (a simplified
// Chandy–Misra: the all-to-all mailbox topology makes per-link null
// messages degenerate to one global window bound). Time advances in rounds
// of two barrier-separated phases over a window (H_prev, H]:
//
//   drain phase    every shard empties its inbound mailboxes in a fixed
//                  order (sender shard id ascending, FIFO within a
//                  mailbox) and schedules the messages into its local
//                  engine. No shard produces messages in this phase.
//   execute phase  every shard runs its local engine to the horizon
//                  H = min(H_prev + L, end), the add saturating at `end`.
//                  Sends during this phase only Push into outbound
//                  mailboxes; no shard consumes.
//
// With an unbounded L each RunUntil(end) is exactly one round: the shards
// run independently to `end` and meet once. RunUntil boundaries are the
// caller's quiescent points (live publishes, rule evaluation), so callers
// that need to observe mid-run state chunk their RunUntil calls.
//
// Safety: a message Posted during the execute phase of round k has send
// time > H_{k-1} and delivery time >= send + L > H_{k-1} + L = H_k, so
// draining it at the start of round k+1 (receiver clock == H_k) can never
// deliver into the receiver's past. Post enforces this in every build
// type: a cross-shard message that undercuts L, or any cross-shard message
// at all when L is unbounded, aborts the process. Phase separation means
// push and pop on a mailbox are never concurrent (see SpscMailbox), and the
// fixed drain order makes delivery -> engine seq assignment deterministic
// regardless of thread scheduling: a fixed shard count and lookahead yield
// bit-identical runs. With no cross-shard messages a shard's (when, seq)
// stream depends on its own queue alone, not on where the window edges
// fall, so the window length changes nothing but the round count.
//
// shards == 1 bypasses the protocol entirely (no threads, no windows, a
// plain RunUntil) and is byte-identical to the PR 5 engine; the
// engine-identity digests pin this.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/ring_queue.hpp"
#include "common/sim_time.hpp"
#include "des/simulation.hpp"

namespace topfull::des {

class ShardedSimulation {
 public:
  /// Lookahead of a shard set that no message can cross: every RunUntil
  /// call is one drain + execute round, and any cross-shard Post aborts.
  static constexpr SimTime kUnboundedLookahead =
      std::numeric_limits<SimTime>::max();

  struct Options {
    /// Conservative lookahead: the minimum cross-shard message latency, or
    /// kUnboundedLookahead when no cross-shard edge exists. Post() aborts
    /// on any message that undercuts it. Must be > 0 for N > 1.
    SimTime lookahead = Millis(1);
    /// Run execute phases on worker threads (default) or on the calling
    /// thread, one shard at a time. Both modes run the identical window
    /// protocol and produce bit-identical results; sequential exists for
    /// determinism cross-checks and for debugging under a debugger.
    bool threaded = true;
  };

  /// Per-shard accounting for the benchmark tables and the live plane.
  struct ShardStats {
    double busy_s = 0;      ///< wall time inside drain/execute phases
    double blocked_s = 0;   ///< wall time waiting on the barrier
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_delivered = 0;
    /// Deepest inbound backlog observed at a drain phase (messages queued
    /// across all senders since the previous round).
    std::uint64_t mailbox_depth_hwm = 0;
  };

  /// Wall-clock accounting for one completed synchronization round,
  /// delivered to the round observer on the RunUntil caller thread.
  struct RoundInfo {
    std::uint64_t round = 0;  ///< 0-based index of the round just completed
    SimTime horizon = 0;      ///< global horizon after the round
    double wall_s = 0.0;      ///< drain + execute wall time
    double drain_s = 0.0;
    double execute_s = 0.0;
  };

  /// Called after every completed round, on the caller thread, while all
  /// workers are parked at the barrier — the observer may therefore read
  /// every shard engine and Stats() without synchronization. It must not
  /// schedule events or otherwise mutate engine state (determinism). The
  /// per-round wall clocks are only measured while an observer is set.
  using RoundObserver = std::function<void(const RoundInfo&)>;
  void SetRoundObserver(RoundObserver observer) {
    round_observer_ = std::move(observer);
  }

  /// Non-owning: synchronizes engines owned elsewhere (e.g. by
  /// sim::Application instances). All pointers must outlive this object
  /// and every engine must be at the same clock (normally 0).
  ShardedSimulation(std::vector<Simulation*> shards, Options options);

  /// Owning convenience for DES-level tests: constructs `num_shards` fresh
  /// engines internally.
  ShardedSimulation(int num_shards, Options options);

  ~ShardedSimulation();

  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  Simulation& shard(int i) { return *shards_[static_cast<std::size_t>(i)]; }
  const Simulation& shard(int i) const {
    return *shards_[static_cast<std::size_t>(i)];
  }

  /// The globally synchronized time: every shard's clock after RunUntil.
  SimTime Horizon() const { return horizon_; }

  SimTime lookahead() const { return options_.lookahead; }

  /// Sends `fn` from shard `from` to shard `to`, to run at absolute time
  /// `when` on the receiving shard. Must be called from shard `from`'s
  /// execute phase (i.e. from inside one of its events), with
  /// `when >= shard(from).Now() + lookahead`; a violation, or any
  /// cross-shard message under kUnboundedLookahead, aborts the process in
  /// every build type. Messages to self are legal and become plain local
  /// events.
  void Post(int from, int to, SimTime when, InlineEvent fn);

  /// Advances every shard to `end` in lookahead windows (one window when
  /// the lookahead is unbounded). Callable repeatedly; messages still in
  /// flight past `end` are delivered by the next call's first drain phase.
  void RunUntil(SimTime end);

  /// Aggregate engine counters over all shards.
  std::uint64_t TotalEventsProcessed() const;
  std::uint64_t TotalEventsScheduled() const;
  std::uint64_t TotalEventsCancelled() const;
  std::uint64_t TotalMessages() const;

  /// Number of synchronization rounds executed so far.
  std::uint64_t Rounds() const { return rounds_; }

  /// Per-shard busy/blocked accounting. Stats are collected with wall
  /// clocks only in threaded mode; sequential mode reports zeros.
  const std::vector<ShardStats>& Stats() const { return stats_; }

 private:
  struct Message {
    SimTime when = 0;
    InlineEvent fn;
  };

  enum class Phase : std::uint8_t { kIdle, kDrain, kExecute, kExit };

  SpscMailbox<Message>& MailboxFor(int from, int to) {
    return *mailboxes_[static_cast<std::size_t>(from) *
                           static_cast<std::size_t>(num_shards()) +
                       static_cast<std::size_t>(to)];
  }

  void Init();
  void StartWorkers();
  void StopWorkers();
  void WorkerLoop(int shard_index);
  /// Runs one phase across all shards and waits for completion. The
  /// calling thread executes shard 0's share itself.
  void RunPhase(Phase phase, SimTime target);
  void DoPhase(int shard_index, Phase phase, SimTime target);
  void DrainInbox(int shard_index);

  std::vector<Simulation*> shards_;
  std::vector<std::unique_ptr<Simulation>> owned_;
  Options options_;
  SimTime horizon_ = 0;
  std::uint64_t rounds_ = 0;
  RoundObserver round_observer_;

  /// Dense from-major mailbox matrix; [from * N + to]. Heap-allocated so
  /// each alignas(64) mailbox sits on its own cache line.
  std::vector<std::unique_ptr<SpscMailbox<Message>>> mailboxes_;
  std::vector<ShardStats> stats_;

  // Barrier state (threaded mode). Workers handle shards 1..N-1; the
  // RunUntil caller thread doubles as shard 0's executor.
  struct Sync;
  std::unique_ptr<Sync> sync_;
  std::vector<std::thread> workers_;
};

}  // namespace topfull::des
