// Ablation bench: asynchronous vs synchronous (thread-per-request) RPC
// servers under overload.
//
// The paper's applications run async gRPC handlers, so a slow downstream
// only grows queues. Many production stacks (thread-pool servlet servers,
// classic Spring) instead *block a worker thread* per in-flight request:
// a single overloaded downstream then eats the concurrency of every
// upstream on the path — overload cascades upward even though those
// services have CPU to spare. This bench overloads only the Checkout
// service of Online Boutique and reports what happens to the OTHER APIs
// under both server models, with and without TopFull.
#include <cstdio>

#include "common/table.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"
#include "exp/run_executor.hpp"
#include "sim/app.hpp"

using namespace topfull;

namespace {

constexpr double kEndS = 120.0;

/// A boutique-like 4-service line: frontend -> checkout (small) with two
/// bystander APIs that share only the frontend.
std::unique_ptr<sim::Application> MakeApp(bool blocking) {
  auto app = std::make_unique<sim::Application>("sync-abl", 131);
  auto add = [&](const char* name, double mean_ms, int threads, int pods) {
    sim::ServiceConfig config;
    config.name = name;
    config.mean_service_ms = mean_ms;
    config.threads = threads;
    config.initial_pods = pods;
    config.blocking_rpc = blocking;
    config.max_queue = 256;
    return app->AddService(config);
  };
  // Thread-per-request servers run far more threads than cores (the
  // threads mostly sit blocked on downstream I/O); async servers need only
  // a few workers. CPU cost per request is identical.
  const sim::ServiceId frontend = add("frontend", 2.0, blocking ? 48 : 8, 1);
  const sim::ServiceId checkout = add("checkout", 20.0, 4, 2);  // 400 rps
  const sim::ServiceId catalog = add("catalog", 4.0, 4, 2);     // 2000 rps
  const sim::ServiceId cart = add("cart", 4.0, 4, 2);           // 2000 rps

  sim::ApiSpec buy("buy", 1);
  buy.AddPath(sim::ExecutionPath{sim::Chain({frontend, checkout}), 1.0, {}});
  app->AddApi(std::move(buy));
  sim::ApiSpec browse("browse", 1);
  browse.AddPath(sim::ExecutionPath{sim::Chain({frontend, catalog}), 1.0, {}});
  app->AddApi(std::move(browse));
  sim::ApiSpec view_cart("viewcart", 1);
  view_cart.AddPath(sim::ExecutionPath{sim::Chain({frontend, cart}), 1.0, {}});
  app->AddApi(std::move(view_cart));
  app->Finalize();
  return app;
}

exp::RunSpec Spec(bool blocking, bool topfull, const rl::GaussianPolicy* policy) {
  exp::RunSpec spec;
  spec.label = std::string(blocking ? "blocking" : "async") +
               (topfull ? "/TopFull" : "/none");
  spec.duration_s = kEndS;
  spec.variant = topfull ? exp::Variant::kTopFull : exp::Variant::kNoControl;
  spec.policy = policy;
  spec.make_app = [blocking] { return MakeApp(blocking); };
  spec.traffic = [](workload::TrafficDriver& traffic, sim::Application&) {
    traffic.AddOpenLoop(0, workload::Schedule::Constant(1200));  // 3x checkout
    traffic.AddOpenLoop(1, workload::Schedule::Constant(800));   // healthy
    traffic.AddOpenLoop(2, workload::Schedule::Constant(800));   // healthy
  };
  return spec;
}

}  // namespace

int main() {
  PrintBanner("Sync-RPC ablation",
              "Only 'buy' overloads its Checkout dependency (3x). Async "
              "servers contain the damage; blocking servers let it eat the "
              "shared frontend's threads and starve the bystander APIs.");
  auto policy = exp::GetPretrainedPolicy();

  Table table("avg goodput (rps); bystanders offered 800 rps each");
  table.SetHeader({"server model", "control", "buy (overloaded dep)",
                   "browse (bystander)", "viewcart (bystander)"});
  struct Config {
    bool blocking, topfull;
    const char* model;
    const char* control;
  };
  const Config configs[] = {Config{false, false, "async", "none"},
                            Config{false, true, "async", "TopFull"},
                            Config{true, false, "blocking", "none"},
                            Config{true, true, "blocking", "TopFull"}};
  std::vector<exp::RunSpec> specs;
  for (const Config& config : configs) {
    specs.push_back(Spec(config.blocking, config.topfull, policy.get()));
  }
  const std::vector<exp::RunResult> results = exp::RunExecutor().Execute(specs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sim::Application& app = results[i].app();
    std::vector<std::string> row = {configs[i].model, configs[i].control};
    for (sim::ApiId a = 0; a < 3; ++a) {
      row.push_back(Fmt(app.metrics().AvgGoodput(a, 30, kEndS), 0));
    }
    table.AddRow(row);
  }
  table.Print();
  std::printf(
      "\nExpected shape: with async servers the bystanders barely notice the\n"
      "buy overload; with blocking servers they collapse too (frontend\n"
      "threads pile up behind checkout) unless TopFull throttles 'buy' at\n"
      "the entry and frees those threads.\n");
  return 0;
}
