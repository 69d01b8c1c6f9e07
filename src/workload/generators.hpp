// Traffic generators.
//
// ClosedLoopPool models Locust: a scheduled number of concurrent users, each
// repeatedly issuing one request (API sampled from a weighted mix), waiting
// for the response up to a client timeout, then thinking ~1 s — "N users
// invoking 1 request per second" (§6). Each user is one 32-byte record (its
// request state and its outcome counters), and a request's completion is the
// pool's one registered done handler called with (user, epoch), so a user's
// request costs no allocation and no closure. OpenLoopGenerator issues
// Poisson arrivals at a scheduled rate for experiments that need precise
// offered load per API.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/app.hpp"
#include "workload/schedule.hpp"

namespace topfull::workload {

/// Weighted per-API request mix. Weights need not be normalised.
struct ApiMix {
  std::vector<double> weights;  ///< indexed by ApiId; missing tail = 0.

  /// Left-to-right running sums of `weights`; the last one is the total.
  std::vector<double> Cumulative() const;

  /// Samples an ApiId given a uniform [0,1) draw.
  sim::ApiId Sample(double u) const { return SampleCumulative(Cumulative(), u); }

  /// Samples from precomputed Cumulative() sums: the first index whose sum
  /// exceeds u * total, or the last index when u * total rounds up to the
  /// total. Zero-weight entries are never picked except in that last case.
  static sim::ApiId SampleCumulative(const std::vector<double>& cumulative,
                                     double u);
};

struct ClosedLoopConfig {
  ApiMix mix;
  /// Mean think time between a user's requests.
  SimTime think = Seconds(1);
  /// Uniform jitter fraction applied to think time (0.1 = +/-10 %).
  double think_jitter = 0.1;
  /// Client-side wait deadline; the user moves on after this even if the
  /// request is still being processed (the server work is then wasted).
  SimTime client_timeout = Seconds(5);
  /// How often the pool reconciles the live user count to the schedule.
  SimTime reconcile_period = Seconds(1);

  /// Client-side retries: a user whose transaction fails (entry rejection,
  /// service shed, or client timeout) re-issues the same API call up to
  /// this many times after `client_retry_backoff`, before giving up and
  /// thinking. Combined with per-hop server retries this is the compound
  /// retry-storm amplifier; 0 keeps the legacy fire-and-move-on user.
  int max_client_retries = 0;
  SimTime client_retry_backoff = Millis(100);

  /// Stable per-user DAGOR priority band: user i gets priority
  /// lo + i % (hi - lo + 1). Negative `user_priority_lo` keeps the legacy
  /// behaviour (a fresh random priority per request at the gateway).
  int user_priority_lo = -1;
  int user_priority_hi = -1;
};

/// Whole-lifetime outcome counters of one closed-loop user.
struct UserOutcomes {
  std::uint64_t intents = 0;   ///< transactions started
  std::uint64_t attempts = 0;  ///< submissions, including client retries
  std::uint64_t ok = 0;        ///< transactions answered successfully in time
  std::uint64_t failed = 0;    ///< transactions abandoned after all retries

  /// Success fraction of this user's finished transactions.
  double SuccessRate() const {
    const std::uint64_t settled = ok + failed;
    return settled == 0 ? 0.0 : static_cast<double>(ok) / static_cast<double>(settled);
  }
};

/// A pool of closed-loop users whose size follows a Schedule. Think timers
/// are handler events, client timeouts are timers of the pool's own timer
/// queue (arg = user index in both), and responses come to one done handler
/// (data = user index and epoch); the pool registers all three with `this`
/// captured, so it must not be copied or moved.
class ClosedLoopPool {
 public:
  ClosedLoopPool(sim::Application* app, ClosedLoopConfig config, Schedule users,
                 Rng rng);
  ClosedLoopPool(const ClosedLoopPool&) = delete;
  ClosedLoopPool& operator=(const ClosedLoopPool&) = delete;

  /// Begins spawning users at the current sim time.
  void Start();

  int LiveUsers() const { return live_users_; }

  /// Per-user outcome counters, indexed by user slot (slot i is the same
  /// "person" across ramp-downs and re-spawns), built from the user
  /// records. Pure bookkeeping: tracking them perturbs neither the event
  /// sequence nor any RNG stream.
  std::vector<UserOutcomes> Outcomes() const;

  /// The stable priority of user `i` under the configured band, or -1 when
  /// the pool uses legacy per-request sampling.
  int UserPriority(int user_index) const;

  const ClosedLoopConfig& config() const { return config_; }

 private:
  /// One user, reused across the user's whole lifetime (no per-request
  /// allocation): the request in flight and the outcome counters. The
  /// attempt counter doubles as the request's epoch — it is bumped exactly
  /// when a request is issued — so a late response or a stale retry event
  /// can never be mistaken for the current request; the client-timeout
  /// timer is cancelled when the response wins.
  ///
  /// 32-bit counters do not overflow: each moves at most once per attempt,
  /// and every attempt after a user's first (re)start is issued from an
  /// event of that user's own (a think timer or a retry backoff), so 2^32
  /// attempts take over 4e9 events for one user alone: some 15 minutes of
  /// host time at the engine's ~5e6 events/s spent on that one user, where
  /// a 600 s run with a 1 s think time makes under 1e3 attempts per user
  /// (IssueAttempt asserts the bound). `retries_left` holds at most
  /// max_client_retries <= INT_MAX in its 31 bits.
  struct User {
    des::Simulation::TimerHandle timeout{};
    std::uint32_t intents = 0;
    std::uint32_t attempts = 0;  ///< and the epoch of the latest request
    std::uint32_t ok = 0;
    std::uint32_t failed = 0;
    sim::ApiId api = sim::kNoApi;
    std::uint32_t retries_left : 31 = 0;
    bool waiting : 1 = false;
  };
  static_assert(sizeof(User) == 32, "a user record is half a cache line");

  void Reconcile();
  void UserLoop(int user_index);
  void IssueAttempt(int user_index);
  void OnClientTimeout(int user_index);
  /// The done handler: the response to `user_index`'s request `epoch`.
  void OnResponse(int user_index, std::uint32_t epoch, sim::Outcome outcome);
  void OnAttemptDone(int user_index, bool ok);
  void UserThink(int user_index);

  sim::Application* app_;
  ClosedLoopConfig config_;
  /// config_.mix.Cumulative(), built once: every user request samples it.
  std::vector<double> mix_cumulative_;
  Schedule schedule_;
  Rng rng_;
  /// Handler id of the think timer: UserLoop(arg).
  std::uint32_t think_handler_;
  /// Timer queue of the client timeouts: OnClientTimeout(arg).
  std::uint32_t timeout_queue_;
  /// Application done handler: OnResponse(data >> 32, data & 0xffffffff).
  std::uint32_t done_handler_;
  std::vector<User> users_;
  /// Indices of users that left at a loop boundary, as a min-heap.
  std::vector<int> left_;
  int spawned_users_ = 0;  ///< users [0, spawned_users_) were ever started
  int live_users_ = 0;     ///< users running a loop
  int target_users_ = 0;
  bool started_ = false;
};

/// Open-loop Poisson arrivals for one API at a scheduled rate (rps).
/// Arrivals and idle polls are handler events of one handler that captures
/// `this`, so a generator must not be copied or moved.
class OpenLoopGenerator {
 public:
  OpenLoopGenerator(sim::Application* app, sim::ApiId api, Schedule rate, Rng rng);
  OpenLoopGenerator(const OpenLoopGenerator&) = delete;
  OpenLoopGenerator& operator=(const OpenLoopGenerator&) = delete;

  void Start();

 private:
  /// Handler-event argument: what the due event does.
  enum : std::uint32_t { kPoll = 0, kArrival = 1 };

  void ScheduleNext();

  sim::Application* app_;
  sim::ApiId api_;
  Schedule rate_;
  Rng rng_;
  std::uint32_t handler_;
};

/// Convenience owner for a set of generators driving one Application.
class TrafficDriver {
 public:
  /// Restricts the driver to the APIs originating on one shard of a
  /// sharded run: closed-loop mixes are masked to owned APIs with the user
  /// schedule scaled by the owned share of the mix weight, and open-loop
  /// generators for non-owned APIs are registered but never started. A
  /// scope that owns every requested API is an exact pass-through, which
  /// is what keeps shards=1 byte-identical to an unscoped run.
  struct ShardScope {
    const std::vector<int>* api_origin = nullptr;  ///< ApiId -> shard
    int shard = 0;
  };

  explicit TrafficDriver(sim::Application* app) : app_(app) {}

  /// Installs the shard scope; affects generators added afterwards.
  void SetShardScope(ShardScope scope) { scope_ = scope; }

  /// Adds and starts a closed-loop pool.
  ClosedLoopPool& AddClosedLoop(ClosedLoopConfig config, Schedule users);

  /// Adds and starts an open-loop generator for `api`.
  OpenLoopGenerator& AddOpenLoop(sim::ApiId api, Schedule rate);

  /// All closed-loop pools added so far (fairness scenarios read each
  /// pool's per-user outcome counters after the run).
  const std::vector<std::unique_ptr<ClosedLoopPool>>& pools() const {
    return pools_;
  }

 private:
  sim::Application* app_;
  ShardScope scope_{};
  std::vector<std::unique_ptr<ClosedLoopPool>> pools_;
  std::vector<std::unique_ptr<OpenLoopGenerator>> open_;
};

}  // namespace topfull::workload
