#include "sim/pod.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace topfull::sim {

Pod::Pod(des::Simulation* sim, int threads, int max_queue, DoneSink* sink)
    : sim_(sim),
      sink_(sink),
      done_handler_(sim->AddHandler(
          [this](std::uint32_t record) { OnServiceDone(record); })),
      threads_(threads),
      max_queue_(max_queue) {}

bool Pod::Enqueue(SimTime service_time, std::uint32_t token) {
  return Accept(service_time, token, nullptr);
}

bool Pod::EnqueueHeld(SimTime service_time, std::uint32_t token, HoldHandle* hold) {
  return Accept(service_time, token, hold);
}

bool Pod::Accept(SimTime service_time, std::uint32_t token, HoldHandle* hold) {
  if (state_ != PodState::kRunning) return false;
  if (static_cast<int>(queue_.size()) >= max_queue_) return false;
  if (queue_.empty() && busy_ < EffectiveThreads()) {
    // Idle fast path. Every state change refills free servers from the
    // queue, so a job is only queued while every server is busy: this job
    // would be the one StartNext takes, after a queue delay of 0.
    ++window_.started;
    StartService(service_time, token, hold);
    return true;
  }
  queue_.push_back(Job{service_time, sim_->Now(), hold, token});
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
  ++epoch_;  // in-service jobs fail at their completion events
  busy_ = 0;
  // Fail queued jobs. Take the tokens out first: the sink may re-enter.
  std::vector<std::uint32_t> to_fail;
  to_fail.reserve(queue_.size());
  for (std::size_t i = 0; i < queue_.size(); ++i) to_fail.push_back(queue_.at(i).token);
  queue_.clear();
  for (const std::uint32_t token : to_fail) (*sink_)(token, false);
}

SimTime Pod::HeadOfLineWait() const {
  if (queue_.empty()) return 0;
  return sim_->Now() - queue_.front().enqueued_at;
}

void Pod::StartNext() {
  while (busy_ < EffectiveThreads() && !queue_.empty()) {
    const Job job = queue_.front();
    queue_.pop_front();
    const double qdelay = ToSeconds(sim_->Now() - job.enqueued_at);
    ++window_.started;
    window_.queue_delay_sum_s += qdelay;
    window_.queue_delay_max_s = std::max(window_.queue_delay_max_s, qdelay);
    StartService(job.service_time, job.token, job.hold);
  }
}

void Pod::StartService(SimTime service_time, std::uint32_t token, HoldHandle* hold) {
  ++busy_;
  std::uint32_t record;
  if (free_records_.empty()) {
    record = static_cast<std::uint32_t>(in_service_.size());
    in_service_.emplace_back();
  } else {
    record = free_records_.back();
    free_records_.pop_back();
  }
  in_service_[record] = ServiceRecord{service_time, hold, epoch_, token};
  sim_->ScheduleHandlerAfter(service_time, done_handler_, record);
}

void Pod::OnServiceDone(std::uint32_t record) {
  // Copy the record out and free it first: the sink may re-enter the pod
  // (Enqueue, Release) and reuse it.
  const ServiceRecord job = in_service_[record];
  free_records_.push_back(record);
  if (job.epoch != epoch_) {
    // The pod was killed while this job was in service.
    (*sink_)(job.token, false);
    return;
  }
  ++window_.completed;
  const double busy_s = ToSeconds(job.service_time);
  window_.busy_seconds += busy_s;
  total_busy_seconds_ += busy_s;
  if (job.hold != nullptr) {
    // Synchronous RPC: the worker stays blocked until Release().
    job.hold->epoch = job.epoch;
    job.hold->active = true;
  } else {
    --busy_;
    StartNext();
  }
  (*sink_)(job.token, true);
}

PodWindowStats Pod::DrainWindowStats() {
  return std::exchange(window_, PodWindowStats{});
}

}  // namespace topfull::sim
