// §4.2 "Re-clustering dynamically": clusters are transitive — they merge
// when a new overload bridges previously independent groups and split again
// as overloads resolve.
//
// Scenario (Train Ticket): phase 1 surges the two ticket-query APIs (their
// bottlenecks, ts-travel and ts-travel2, are disjoint -> 2 clusters);
// phase 2 fails 3 of ts-basic's 4 pods — ts-basic sits on BOTH ticket
// queries' paths, so the shared overload bridges the groups into one
// cluster; phase 3 restores the pods and the merged cluster splits back.
#include <cstdio>

#include "apps/train_ticket.hpp"
#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/run_executor.hpp"

using namespace topfull;

int main() {
  PrintBanner("Section 4.2 re-clustering dynamics",
              "Cluster count / membership over time as overloads appear, "
              "bridge, and resolve.");

  exp::RunSpec spec;
  spec.label = "recluster";
  spec.duration_s = 140;
  spec.make_app = [] {
    apps::TrainTicketOptions options;
    options.seed = 119;
    return apps::MakeTrainTicket(options);
  };
  // Passive observation: clustering is an analysis over the overload set
  // (Eq. 2), so we watch it evolve on the uncontrolled system — under
  // TopFull the overloads themselves would be resolved within seconds
  // (which is the product's job, but makes a poor illustration). The
  // custom attachment installs no controller; it only schedules phase 2.
  spec.attach = [](sim::Application& app) -> std::shared_ptr<void> {
    // Phase 2 (t=50..90): ts-basic — shared by BOTH ticket queries — loses
    // 3 of its 4 pods. The shared overload bridges the two previously
    // independent clusters into one (Eq. 2 transitivity); pods return at
    // t=90 and the merged cluster splits back apart.
    sim::Service* basic = &app.service(app.FindService("ts-basic"));
    app.sim().ScheduleAt(Seconds(50), [basic]() { basic->KillPods(3); });
    app.sim().ScheduleAt(Seconds(90), [basic]() { basic->SetPodCount(4, Seconds(1)); });
    return nullptr;
  };
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application& app) {
    // Base load everywhere.
    for (sim::ApiId a = 0; a < app.NumApis(); ++a) {
      traffic.AddOpenLoop(a, workload::Schedule::Constant(120));
    }
    // Phase 1 (t=10): ticket queries surge; travel and travel2 overload.
    traffic.AddOpenLoop(apps::kHighSpeedTicket,
                        workload::Schedule::Constant(0).Then(Seconds(10), 900));
    traffic.AddOpenLoop(apps::kNormalSpeedTicket,
                        workload::Schedule::Constant(0).Then(Seconds(10), 500));
  };
  const exp::RunResult result = exp::Run(spec);
  const sim::Application& app = result.app();

  // Replay the per-second windows through the two-threshold detector.
  core::ApiRegistry registry(app);
  core::OverloadConfig detect;
  detect.util_exit_threshold = 0.8;
  std::vector<bool> flagged(static_cast<std::size_t>(app.NumServices()), false);
  core::ClusterTracker tracker(app.NumApis());
  for (const sim::Snapshot& snap : app.metrics().Timeline()) {
    std::vector<sim::ServiceId> overloaded = core::DetectOverloaded(snap, detect);
    std::vector<bool> now(flagged.size(), false);
    for (const sim::ServiceId s : overloaded) now[s] = true;
    for (std::size_t s = 0; s < flagged.size(); ++s) {
      if (flagged[s] && !now[s] &&
          snap.services[s].cpu_utilization >= detect.util_exit_threshold) {
        now[s] = true;
      }
    }
    overloaded.clear();
    for (std::size_t s = 0; s < now.size(); ++s) {
      if (now[s]) overloaded.push_back(static_cast<sim::ServiceId>(s));
    }
    flagged = std::move(now);
    tracker.Record(snap.t_end_s, core::BuildClusters(registry, overloaded));
  }

  Table table("clusters per control tick (5 s samples)");
  table.SetHeader({"t(s)", "clusters", "overloaded services", "APIs involved",
                   "splits", "merges"});
  for (const auto& snap : tracker.History()) {
    if (static_cast<int>(snap.t_s) % 5 != 0 && snap.splits == 0 && snap.merges == 0) {
      continue;  // print the 5 s grid plus every split/merge event
    }
    table.AddRow({Fmt(snap.t_s, 0), std::to_string(snap.clusters),
                  std::to_string(snap.overloaded_services),
                  std::to_string(snap.member_apis), std::to_string(snap.splits),
                  std::to_string(snap.merges)});
  }
  table.Print();
  std::printf("\ntotal splits: %d, total merges: %d — Eq. 2 partitions are "
              "re-derived every tick, so the sub-problems track the live "
              "overload set.\n",
              tracker.TotalSplits(), tracker.TotalMerges());
  return 0;
}
