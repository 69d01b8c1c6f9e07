// A Pod::DoneSink for tests that drive pods and services directly: it records
// every (token, ok) report with the sim time it arrived, then runs the
// test's reaction, if one is set.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/sim_time.hpp"
#include "des/simulation.hpp"
#include "sim/pod.hpp"

namespace topfull::sim {

class RecordingSink {
 public:
  struct Report {
    std::uint32_t token = 0;
    bool ok = false;
    SimTime at = 0;
  };

  explicit RecordingSink(const des::Simulation* sim)
      : sim_(sim), sink_([this](std::uint32_t token, bool ok) {
          reports_.push_back(Report{token, ok, sim_->Now()});
          if (react_) react_(token, ok);
        }) {}
  /// The sink captures `this`.
  RecordingSink(const RecordingSink&) = delete;
  RecordingSink& operator=(const RecordingSink&) = delete;

  Pod::DoneSink* sink() { return &sink_; }

  /// Runs after each report is recorded; may re-enter the pod.
  void OnReport(std::function<void(std::uint32_t token, bool ok)> react) {
    react_ = std::move(react);
  }

  const std::vector<Report>& reports() const { return reports_; }

  /// Reports with the given outcome.
  int Count(bool ok) const {
    int n = 0;
    for (const Report& r : reports_) n += r.ok == ok ? 1 : 0;
    return n;
  }

 private:
  const des::Simulation* sim_;
  std::vector<Report> reports_;
  std::function<void(std::uint32_t, bool)> react_;
  Pod::DoneSink sink_;
};

}  // namespace topfull::sim
