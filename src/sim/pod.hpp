// A pod: one replica of a microservice, modelled as a c-server FIFO queue.
//
// Each pod has `threads` worker servers. An accepted job waits in FIFO order
// for a free server, occupies it for its sampled service time, then reports
// its outcome. Busy time is accounted per pod so the metric collector can
// compute CPU utilisation — the paper's overload signal.
//
// Pods are never destructed while the simulation runs (services keep them and
// mark state); in-flight completion events are invalidated by an epoch
// counter when the pod is killed.
//
// A job carries a 32-bit token instead of a callback: when the job ends, the
// pod calls its DoneSink with (token, ok). The request engine registers one
// sink per Application and uses the attempt record's pool index as the
// token, so a queued job is 32 bytes and an in-service record 24. A job
// that finds the queue empty and a server free enters service at once; a job
// in service lives in a recycled in-service record, and its completion is a
// handler event of the pod's one registered handler whose argument is the
// record index, so completions never take a timer slot. With the job queue
// a recycling ring buffer, the enqueue → serve → complete cycle performs no
// heap allocations in steady state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/inline_function.hpp"
#include "common/ring_queue.hpp"
#include "common/sim_time.hpp"
#include "des/simulation.hpp"

namespace topfull::sim {

/// Pod lifecycle state.
enum class PodState : std::uint8_t {
  kStarting,  ///< Scheduled; becomes running after the startup delay.
  kRunning,   ///< Accepting and serving requests.
  kKilled,    ///< Crashed or scaled down; serves nothing.
};

/// Per-window counters drained by the metric collector.
struct PodWindowStats {
  double busy_seconds = 0.0;    ///< Server-busy time accrued in the window.
  std::uint64_t started = 0;    ///< Jobs that entered service.
  std::uint64_t completed = 0;  ///< Jobs that finished service.
  double queue_delay_sum_s = 0.0;  ///< Sum of queueing delays of started jobs.
  double queue_delay_max_s = 0.0;  ///< Max queueing delay of started jobs.
};

class Pod {
 public:
  /// Receives every accepted job's outcome: the token given to Enqueue and
  /// whether service completed (true) or the pod died first (false).
  using DoneSink = InlineFunction<void(std::uint32_t token, bool ok), 16>;

  /// Handle of a worker slot kept occupied past local service
  /// completion (synchronous-RPC mode: the thread blocks on downstream
  /// calls). Pass back to Release().
  struct HoldHandle {
    std::uint32_t epoch = 0;
    bool active = false;
  };
  static_assert(sizeof(HoldHandle) == 8);

  /// `sink` is not owned and must outlive the pod's pending completions.
  Pod(des::Simulation* sim, int threads, int max_queue, DoneSink* sink);
  /// The completion handler captures `this`.
  Pod(const Pod&) = delete;
  Pod& operator=(const Pod&) = delete;

  /// Sends the outcomes of jobs that end from now on to `sink` (tests drive
  /// an Application's pods directly this way).
  void SetDoneSink(DoneSink* sink) { sink_ = sink; }

  /// Attempts to enqueue a job with the given service duration. Returns
  /// false (and reports nothing) when the queue is full or the pod is not
  /// running. Otherwise the sink gets (token, true) when service completes,
  /// or (token, false) if the pod dies first — exactly once either way.
  bool Enqueue(SimTime service_time, std::uint32_t token);

  /// Like Enqueue, but the worker slot stays occupied after the local work
  /// finishes (a thread blocked on downstream RPCs) until Release() is
  /// called with the handle stored into `*hold` before the sink gets
  /// (token, true).
  bool EnqueueHeld(SimTime service_time, std::uint32_t token, HoldHandle* hold);

  /// Frees a slot taken by EnqueueHeld. No-op if the pod died in between.
  void Release(const HoldHandle& hold);

  /// Marks the pod running (startup complete).
  void Start();

  /// Kills the pod: every queued job fails immediately; every job in service
  /// fails at its own completion event, which the epoch check turns into a
  /// failure.
  void Kill();

  /// Fault injection: takes `n` worker servers offline (capacity
  /// degradation — CPU throttling, noisy neighbours). Jobs already in
  /// service finish; new jobs only enter service while fewer than
  /// EffectiveThreads() servers are busy. Clamped to keep at least one
  /// server — full loss of capacity is a crash (Kill), not a degrade.
  void SetOfflineThreads(int n);

  PodState state() const { return state_; }
  bool running() const { return state_ == PodState::kRunning; }
  int threads() const { return threads_; }
  /// Servers currently allowed to serve (threads minus offline servers).
  int EffectiveThreads() const { return threads_ - offline_threads_; }
  int OfflineThreads() const { return offline_threads_; }

  /// Jobs waiting (not yet in service).
  int QueueLength() const { return static_cast<int>(queue_.size()); }
  /// Jobs currently in service.
  int InService() const { return busy_; }
  /// Waiting + in service; the load-balancing key.
  int Outstanding() const { return QueueLength() + busy_; }

  /// Age of the head-of-line job (0 when the queue is empty) — the
  /// instantaneous queueing-delay signal used by Breakwater-style AQM.
  SimTime HeadOfLineWait() const;

  /// Returns and resets the per-window counters.
  PodWindowStats DrainWindowStats();

  /// Cumulative busy seconds (for whole-run accounting).
  double TotalBusySeconds() const { return total_busy_seconds_; }

  /// In-service records ever allocated (the table's high-water mark) and
  /// how many are free. A record is taken when a job enters service and
  /// returned when its completion event fires, so a pod that is never
  /// killed holds at most threads() of them.
  std::size_t ServiceRecordCapacity() const { return in_service_.size(); }
  std::size_t FreeServiceRecords() const { return free_records_.size(); }

 private:
  struct Job {
    SimTime service_time = 0;
    SimTime enqueued_at = 0;
    HoldHandle* hold = nullptr;  ///< non-null => keep the slot until Release
    std::uint32_t token = 0;
  };

  /// A job between entering service and its completion event.
  struct ServiceRecord {
    SimTime service_time = 0;
    HoldHandle* hold = nullptr;
    std::uint32_t epoch = 0;  ///< pod epoch when service began
    std::uint32_t token = 0;
  };
  static_assert(sizeof(Job) == 32 && sizeof(ServiceRecord) == 24,
                "a queued job is half a cache line, an in-service record less");

  bool Accept(SimTime service_time, std::uint32_t token, HoldHandle* hold);
  /// Takes a server and schedules the job's completion.
  void StartService(SimTime service_time, std::uint32_t token, HoldHandle* hold);
  void StartNext();
  void OnServiceDone(std::uint32_t record);

  des::Simulation* sim_;
  DoneSink* sink_;
  std::uint32_t done_handler_;  ///< OnServiceDone(arg = record index)
  int threads_;
  int max_queue_;
  int offline_threads_ = 0;
  PodState state_ = PodState::kStarting;
  int busy_ = 0;
  /// Bumped on Kill to invalidate in-flight events. 32 bits are plenty:
  /// Kill is its only writer, and a killed pod never runs again (restarts
  /// and restores add new pods).
  std::uint32_t epoch_ = 0;
  RingQueue<Job> queue_;
  std::vector<ServiceRecord> in_service_;
  std::vector<std::uint32_t> free_records_;  ///< LIFO: the last freed is reused first
  PodWindowStats window_;
  double total_busy_seconds_ = 0.0;
};

}  // namespace topfull::sim
