// Per-request completion closures for tests. Application::Submit takes a
// DoneRef (a handler registered once plus 64 bits of data) instead of a
// closure; DoneClosures registers one handler per Application that runs the
// closure stored under the request's data, so a test can still write
//   done.Submit(api, [&](Outcome o, SimTime latency) { ... });
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "sim/app.hpp"

namespace topfull::sim {

class DoneClosures {
 public:
  using Fn = std::function<void(Outcome outcome, SimTime latency)>;

  explicit DoneClosures(Application* app)
      : app_(app),
        handler_(app->AddDoneHandler(
            [this](Outcome outcome, SimTime latency, std::uint64_t data) {
              // Moved out first: the closure may Submit again.
              Fn fn = std::move(fns_[data]);
              fn(outcome, latency);
            })) {}
  /// The handler captures `this`.
  DoneClosures(const DoneClosures&) = delete;
  DoneClosures& operator=(const DoneClosures&) = delete;

  /// Submits one request for `api`; `fn` runs at its completion.
  void Submit(ApiId api, Fn fn) {
    fns_.push_back(std::move(fn));
    app_->Submit(api, DoneRef{handler_, fns_.size() - 1});
  }

 private:
  Application* app_;
  std::uint32_t handler_;
  std::deque<Fn> fns_;  ///< by request data; a deque never moves one
};

}  // namespace topfull::sim
