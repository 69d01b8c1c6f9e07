// Figure 18: adaptation to internal instance failures.
//
// Paper setup: 25 of the 35 ts-station pods are deleted at t=50 s;
// Kubernetes re-creates them (ready again ~60 s later). Without control the
// surviving pods drown and goodput collapses until recovery; with TopFull
// the APIs crossing ts-station are throttled to what the survivors can
// serve, preserving that goodput throughout, and the healthy goodput is
// regained as soon as restored capacity suffices.
//
// Ported onto the fault-injection engine (src/fault): the crash + staggered
// restart is a FaultSchedule event, the runs go through exp::RunExecutor
// (parallel, bit-identical at any pool size), and DAGOR / Breakwater join
// the comparison.
//
// Two deliberate deviations from the paper's literal numbers, both because
// our simulator's RPCs do not block upstream threads (so cascades the real
// deployment produced by itself need explicit modelling):
//  - 30 of 35 pods die instead of 25: our ts-station runs with ~2.8x
//    headroom, so killing 25 leaves only a mild 1.25x overload; killing 30
//    reproduces the paper's drown-the-survivors regime (~2.5x).
//  - demand sits at the knee (3600 closed-loop users) where ts-travel and
//    ts-order have little slack, so work wasted on requests that later die
//    at ts-station is not free — the coupling the paper got from blocking
//    RPC threads.
#include <algorithm>
#include <cstdio>

#include "apps/train_ticket.hpp"
#include "common/table.hpp"
#include "exp/csv.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"
#include "fault/fault.hpp"
#include "suite.hpp"

using namespace topfull;

namespace {

constexpr double kFailS = 50.0;
constexpr double kRecoverDelayS = 60.0;
constexpr double kRestartStaggerS = 1.0;  // rolling re-create, 1 pod/s
constexpr double kEndS = 180.0;
constexpr int kKilledPods = 30;
constexpr int kUsers = 3600;

exp::RunSpec MakeSpec(exp::Variant variant, const rl::GaussianPolicy* policy) {
  exp::RunSpec spec;
  spec.label = exp::VariantName(variant);
  spec.duration_s = kEndS;
  spec.variant = variant;
  spec.policy = policy;
  // §4.1 recovery: reopen throttled APIs optimistically once their paths are
  // overload-free (re-overloading puts them back under cluster control next
  // tick) and deactivate the limiter when it stops binding.
  spec.topfull_config.recovery_step = 0.5;
  spec.topfull_config.deactivate_when_slack = true;
  spec.make_app = [variant]() {
    apps::TrainTicketOptions options;
    options.seed = 83;
    // DAGOR runs with its designed per-API business priorities (fig8/fig9
    // convention); the priority-free variants run all-equal.
    options.distinct_priorities = variant == exp::Variant::kDagor;
    auto app = apps::MakeTrainTicket(options);
    // Per-hop timeouts with one bounded retry: failed attempts are retried
    // by the caller, so deep shedding at ts-station re-amplifies load on
    // the upstream path (the §6.1 wasted-work mechanism).
    app->ConfigureRpc(Millis(800), /*max_retries=*/1, Millis(50));
    return app;
  };
  // Locust-style closed loop: kUsers users issuing one request at a time
  // with ~1 s think time, uniformly over the six APIs.
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
    traffic.AddClosedLoop(exp::UniformUsers(app),
                          workload::Schedule::Constant(kUsers));
  };
  // The failure itself: one crash event; the deployment controller replaces
  // the dead pods starting kRecoverDelayS later, one becoming ready per
  // kRestartStaggerS (a rolling re-create rather than 30 simultaneously).
  spec.faults.CrashPods("ts-station", Seconds(kFailS), kKilledPods,
                        Seconds(kRecoverDelayS), Seconds(kRestartStaggerS));
  return spec;
}

/// First time >= from_s at which the 1 s-binned goodput stays at or above
/// `target` for 5 consecutive bins, or -1 when never reached.
double RecoveryTime(const sim::Application& app, double from_s, double target) {
  for (double t = from_s; t + 5.0 <= kEndS; t += 1.0) {
    bool sustained = true;
    for (int bin = 0; bin < 5; ++bin) {
      if (exp::TotalGoodput(app, t + bin, t + bin + 1) < target) {
        sustained = false;
        break;
      }
    }
    if (sustained) return t;
  }
  return -1.0;
}

}  // namespace

int topfull::bench::Fig18FailureAdaptation(const BenchArgs&) {
  PrintBanner("Figure 18",
              "Train Ticket: 30/35 ts-station pods killed at t=50 s, rolling "
              "re-create from t=110 s (fault engine). Goodput timelines, "
              "no-control vs TopFull vs DAGOR vs Breakwater.");
  auto policy = exp::GetPretrainedPolicy();
  const std::vector<exp::RunSpec> specs = {
      MakeSpec(exp::Variant::kNoControl, nullptr),
      MakeSpec(exp::Variant::kTopFull, policy.get()),
      MakeSpec(exp::Variant::kDagor, nullptr),
      MakeSpec(exp::Variant::kBreakwater, nullptr),
  };
  const auto results = exp::RunExecutor().Execute(specs);

  Table timeline("total goodput (rps, 5 s bins)");
  timeline.SetHeader({"t(s)", "no control", "TopFull", "DAGOR", "Breakwater",
                      "station pods"});
  for (double t = 0.0; t + 5.0 <= kEndS; t += 5.0) {
    const double mid = t + 2.5;
    int pods = 35;
    if (mid >= kFailS) {
      const double restored =
          (mid - (kFailS + kRecoverDelayS)) / kRestartStaggerS;
      const int back = std::clamp(static_cast<int>(restored), 0, kKilledPods);
      pods = 35 - kKilledPods + back;
    }
    timeline.AddRow({Fmt(t + 5.0, 0),
                     Fmt(exp::TotalGoodput(results[0].app(), t, t + 5), 0),
                     Fmt(exp::TotalGoodput(results[1].app(), t, t + 5), 0),
                     Fmt(exp::TotalGoodput(results[2].app(), t, t + 5), 0),
                     Fmt(exp::TotalGoodput(results[3].app(), t, t + 5), 0),
                     Fmt(static_cast<double>(pods), 0)});
  }
  timeline.Print();

  exp::MaybeExportTimeline(results[0].app(), "fig18_no_control");
  exp::MaybeExportTimeline(results[1].app(), "fig18_topfull");
  exp::MaybeExportTimeline(results[2].app(), "fig18_dagor");
  exp::MaybeExportTimeline(results[3].app(), "fig18_breakwater");

  std::printf("\nfault log (TopFull run):\n");
  for (const auto& r : results[1].fault_log) {
    std::printf("  t=%7.2fs %s %s svc=%s count=%d\n", ToSeconds(r.at),
                fault::FaultTypeName(r.type), fault::FaultActionName(r.action),
                r.service.c_str(), r.count);
  }

  // The recovery bar is the healthy system's goodput: 95% of the best
  // pre-failure level across variants. Measuring against each variant's own
  // (possibly already degraded) pre-failure level would reward a controller
  // for being slow before the failure too.
  double healthy = 0.0;
  for (const auto& result : results) {
    healthy = std::max(healthy, exp::TotalGoodput(result.app(), 25, kFailS));
  }
  const double bar = 0.95 * healthy;

  Table summary("failure window + recovery");
  summary.SetHeader({"variant", "pre-fail (rps)", "during failure (rps)",
                     "recovered (rps)", "t_recover (>=95% healthy)"});
  for (const auto& result : results) {
    const double prefail = exp::TotalGoodput(result.app(), 25, kFailS);
    const double during =
        exp::TotalGoodput(result.app(), kFailS + 10, kFailS + kRecoverDelayS);
    const double recovered = exp::TotalGoodput(result.app(), 150, kEndS);
    const double recover =
        RecoveryTime(result.app(), kFailS + kRecoverDelayS, bar);
    summary.AddRow({result.label, Fmt(prefail, 0), Fmt(during, 0),
                    Fmt(recovered, 0),
                    recover < 0 ? "never" : Fmt(recover, 0) + " s"});
  }
  summary.Print();
  std::printf(
      "\nPaper: no control collapses until recovery; TopFull holds the goodput "
      "the survivors can sustain and is back at the healthy level as soon as "
      "restored capacity suffices, while the per-pod baselines plateau below "
      "it (recovery bar: %.0f rps).\n",
      bar);
  return 0;
}
