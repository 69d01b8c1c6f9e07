#include "sim/pod.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace topfull::sim {

Pod::Pod(des::Simulation* sim, int threads, int max_queue)
    : sim_(sim),
      done_handler_(sim->AddHandler(
          [this](std::uint32_t record) { OnServiceDone(record); })),
      threads_(threads),
      max_queue_(max_queue) {}

bool Pod::Enqueue(SimTime service_time, DoneFn done) {
  if (state_ != PodState::kRunning) return false;
  if (static_cast<int>(queue_.size()) >= max_queue_) return false;
  queue_.push_back(Job{service_time, sim_->Now(), std::move(done), nullptr});
  StartNext();
  return true;
}

bool Pod::EnqueueHeld(SimTime service_time, DoneFn done, HoldHandle* hold) {
  if (state_ != PodState::kRunning) return false;
  if (static_cast<int>(queue_.size()) >= max_queue_) return false;
  queue_.push_back(Job{service_time, sim_->Now(), std::move(done), hold});
  StartNext();
  return true;
}

void Pod::Release(const HoldHandle& hold) {
  if (!hold.active || hold.epoch != epoch_) return;  // pod died meanwhile
  --busy_;
  StartNext();
}

void Pod::Start() {
  if (state_ == PodState::kStarting) state_ = PodState::kRunning;
}

void Pod::SetOfflineThreads(int n) {
  offline_threads_ = std::clamp(n, 0, threads_ - 1);
  // When servers come back online, backfill them from the queue; when they
  // go offline, in-service jobs simply run to completion and are not
  // replaced until busy_ drops below the new effective count.
  StartNext();
}

void Pod::Kill() {
  state_ = PodState::kKilled;
  ++epoch_;  // orphan all in-flight completion events
  busy_ = 0;
  // Fail queued jobs. Move them out first: their callbacks may re-enter.
  std::vector<DoneFn> to_fail;
  to_fail.reserve(queue_.size());
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    to_fail.push_back(std::move(queue_.at(i).done));
  }
  queue_.clear();
  for (auto& done : to_fail) done(false);
}

SimTime Pod::HeadOfLineWait() const {
  if (queue_.empty()) return 0;
  return sim_->Now() - queue_.front().enqueued_at;
}

void Pod::StartNext() {
  while (busy_ < EffectiveThreads() && !queue_.empty()) {
    Job job = std::move(queue_.front());
    queue_.pop_front();
    ++busy_;
    const double qdelay = ToSeconds(sim_->Now() - job.enqueued_at);
    ++window_.started;
    window_.queue_delay_sum_s += qdelay;
    window_.queue_delay_max_s = std::max(window_.queue_delay_max_s, qdelay);
    std::uint32_t record;
    if (free_records_.empty()) {
      record = static_cast<std::uint32_t>(in_service_.size());
      in_service_.emplace_back();
    } else {
      record = free_records_.back();
      free_records_.pop_back();
    }
    in_service_[record] = ServiceRecord{epoch_, job.service_time, job.hold, std::move(job.done)};
    sim_->ScheduleHandlerAfter(job.service_time, done_handler_, record);
  }
}

void Pod::OnServiceDone(std::uint32_t record) {
  // Take everything out and free the record first: `done` may re-enter the
  // pod (Enqueue, Release) and reuse it.
  ServiceRecord& job = in_service_[record];
  const std::uint64_t epoch = job.epoch;
  const SimTime service_time = job.service_time;
  HoldHandle* hold = job.hold;
  DoneFn done = std::move(job.done);
  free_records_.push_back(record);
  if (epoch != epoch_) {
    // The pod was killed while this job was in service; the job already
    // failed via Kill()'s sweep of queued jobs or is simply lost.
    done(false);
    return;
  }
  ++window_.completed;
  const double busy_s = ToSeconds(service_time);
  window_.busy_seconds += busy_s;
  total_busy_seconds_ += busy_s;
  if (hold != nullptr) {
    // Synchronous RPC: the worker stays blocked until Release().
    hold->epoch = epoch;
    hold->active = true;
  } else {
    --busy_;
    StartNext();
  }
  done(true);
}

PodWindowStats Pod::DrainWindowStats() {
  return std::exchange(window_, PodWindowStats{});
}

}  // namespace topfull::sim
