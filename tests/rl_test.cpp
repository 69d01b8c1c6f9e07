// Unit tests for the RL stack: MLP backprop (numerical gradient check),
// Adam, the Gaussian policy, PPO on a toy problem, and the graph simulator
// environment's behaviour rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "rl/graph_sim_env.hpp"
#include "rl/nn.hpp"
#include "rl/observation.hpp"
#include "rl/policy.hpp"
#include "rl/ppo.hpp"

namespace topfull::rl {
namespace {

TEST(MlpTest, OutputShapeAndDeterminism) {
  Rng rng(1);
  Mlp net({3, 8, 2}, rng);
  const std::vector<double> x{0.5, -1.0, 2.0};
  const auto y1 = net.Forward(x);
  const auto y2 = net.Forward(x);
  ASSERT_EQ(y1.size(), 2u);
  EXPECT_EQ(y1, y2);
}

TEST(MlpTest, ParamRoundTrip) {
  Rng rng(2);
  Mlp net({2, 4, 1}, rng);
  std::vector<double> params;
  net.CopyParamsTo(params);
  EXPECT_EQ(params.size(), net.ParamCount());
  // Mutate, restore, verify.
  const auto y0 = net.Forward({1.0, 2.0});
  std::vector<double> perturbed = params;
  for (auto& p : perturbed) p += 1.0;
  net.SetParams(perturbed);
  EXPECT_NE(net.Forward({1.0, 2.0})[0], y0[0]);
  net.SetParams(params);
  EXPECT_DOUBLE_EQ(net.Forward({1.0, 2.0})[0], y0[0]);
}

TEST(MlpTest, BackwardMatchesNumericalGradient) {
  Rng rng(3);
  Mlp net({2, 5, 1}, rng);
  const std::vector<double> x{0.7, -0.3};

  // Analytic gradient of y (scalar output) w.r.t. every parameter.
  Mlp::Cache cache;
  net.Forward(x, &cache);
  net.ZeroGrad();
  net.Backward(cache, {1.0});
  std::vector<double> analytic;
  net.CopyGradsTo(analytic);

  std::vector<double> params;
  net.CopyParamsTo(params);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < params.size(); i += 7) {  // spot-check subset
    std::vector<double> p = params;
    p[i] += eps;
    net.SetParams(p);
    const double up = net.Forward(x)[0];
    p[i] -= 2 * eps;
    net.SetParams(p);
    const double down = net.Forward(x)[0];
    net.SetParams(params);
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric, 1e-5) << "param " << i;
  }
}

TEST(MlpTest, BackwardInputGradientMatchesNumerical) {
  Rng rng(4);
  Mlp net({2, 6, 1}, rng);
  const std::vector<double> x{0.2, 0.9};
  Mlp::Cache cache;
  net.Forward(x, &cache);
  net.ZeroGrad();
  const auto dx = net.Backward(cache, {1.0});
  const double eps = 1e-6;
  for (int i = 0; i < 2; ++i) {
    auto xx = x;
    xx[static_cast<std::size_t>(i)] += eps;
    const double up = net.Forward(xx)[0];
    xx[static_cast<std::size_t>(i)] -= 2 * eps;
    const double down = net.Forward(xx)[0];
    EXPECT_NEAR(dx[static_cast<std::size_t>(i)], (up - down) / (2 * eps), 1e-5);
  }
}

TEST(AdamTest, MinimisesQuadratic) {
  // f(p) = (p-3)^2, df/dp = 2(p-3).
  Adam adam(1, /*lr=*/0.1);
  std::vector<double> p{0.0};
  for (int i = 0; i < 500; ++i) {
    const std::vector<double> g{2.0 * (p[0] - 3.0)};
    adam.Step(p, g);
  }
  EXPECT_NEAR(p[0], 3.0, 0.05);
}

TEST(PolicyTest, MeanActionWithinBounds) {
  Rng rng(5);
  PolicyConfig config;
  GaussianPolicy policy(config, rng);
  for (double a = -3; a <= 3; a += 0.5) {
    for (double b = 0; b <= 5; b += 0.5) {
      const double act = policy.MeanAction({a, b});
      EXPECT_GE(act, config.action_low);
      EXPECT_LE(act, config.action_high);
    }
  }
}

TEST(PolicyTest, SampledActionsClippedAndLogProbFinite) {
  Rng rng(6);
  GaussianPolicy policy(PolicyConfig{}, rng);
  Rng sampler(7);
  for (int i = 0; i < 200; ++i) {
    double raw = 0.0;
    const double a = policy.SampleAction({0.5, 1.0}, sampler, &raw);
    EXPECT_GE(a, -0.5);
    EXPECT_LE(a, 0.5);
    const auto eval = policy.Evaluate({0.5, 1.0});
    EXPECT_TRUE(std::isfinite(GaussianPolicy::LogProb(raw, eval.mean, eval.log_std)));
  }
}

TEST(PolicyTest, LogProbPeaksAtMean) {
  const double lp_mean = GaussianPolicy::LogProb(0.1, 0.1, -1.0);
  const double lp_off = GaussianPolicy::LogProb(0.5, 0.1, -1.0);
  EXPECT_GT(lp_mean, lp_off);
}

TEST(PolicyTest, SaveLoadRoundTrip) {
  Rng rng(8);
  GaussianPolicy policy(PolicyConfig{}, rng);
  std::stringstream ss;
  policy.Save(ss);
  Rng rng2(999);
  GaussianPolicy loaded(PolicyConfig{}, rng2);
  EXPECT_NE(loaded.MeanAction({0.5, 1.0}), policy.MeanAction({0.5, 1.0}));
  ASSERT_TRUE(loaded.Load(ss));
  for (double lat = 0; lat < 5; lat += 0.7) {
    EXPECT_DOUBLE_EQ(loaded.MeanAction({0.8, lat}), policy.MeanAction({0.8, lat}));
  }
}

TEST(PolicyTest, SaveLoadRoundTripKeepsActionBoundsExact) {
  PolicyConfig config;
  config.action_low = -0.123456789;
  config.action_high = 0.4444444444;
  Rng rng(8);
  GaussianPolicy policy(config, rng);
  std::stringstream ss;
  policy.Save(ss);
  Rng rng2(999);
  GaussianPolicy loaded(PolicyConfig{}, rng2);
  ASSERT_TRUE(loaded.Load(ss));
  EXPECT_EQ(loaded.config().action_low, config.action_low);
  EXPECT_EQ(loaded.config().action_high, config.action_high);
}

TEST(PolicyTest, LoadRejectsGarbage) {
  Rng rng(9);
  GaussianPolicy policy(PolicyConfig{}, rng);
  std::stringstream ss("not-a-checkpoint 1 2 3");
  EXPECT_FALSE(policy.Load(ss));
}

// The checkpoints every TopFull run deploys (paper §4.3 transfer).
const char* const kCommittedModels[] = {"base_policy", "transfer_ob", "transfer_tt"};

std::string ModelPath(const char* name) {
  return std::string(TOPFULL_SOURCE_DIR) + "/models/" + name + ".txt";
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Reference parse: one locale-aware `>> double` per number, the way the
// loader read checkpoints before it parsed a buffer with std::from_chars.
struct StreamParse {
  double low = 0.0;
  double high = 0.0;
  std::vector<double> params;
};

StreamParse ParseByStream(const std::string& text) {
  std::istringstream in(text);
  StreamParse out;
  std::string magic;
  int obs_dim = 0;
  std::size_t num_hidden = 0;
  in >> magic >> obs_dim >> num_hidden;
  for (std::size_t i = 0; i < num_hidden; ++i) {
    int h = 0;
    in >> h;
  }
  std::size_t n = 0;
  in >> out.low >> out.high >> n;
  out.params.resize(n);
  for (auto& p : out.params) in >> p;
  EXPECT_TRUE(static_cast<bool>(in));
  return out;
}

TEST(PolicyTest, LoadMatchesStreamParseOnCommittedModels) {
  for (const char* name : kCommittedModels) {
    SCOPED_TRACE(name);
    const std::string path = ModelPath(name);
    const StreamParse ref = ParseByStream(ReadBytes(path));
    Rng rng(1);
    GaussianPolicy policy(PolicyConfig{}, rng);
    ASSERT_TRUE(policy.LoadFile(path));
    std::vector<double> params;
    policy.CopyParamsTo(params);
    ASSERT_EQ(params.size(), ref.params.size());
    EXPECT_EQ(std::memcmp(params.data(), ref.params.data(),
                          params.size() * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&policy.config().action_low, &ref.low, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&policy.config().action_high, &ref.high, sizeof(double)), 0);
  }
}

TEST(PolicyTest, SaveReproducesCommittedModels) {
  for (const char* name : kCommittedModels) {
    SCOPED_TRACE(name);
    const std::string path = ModelPath(name);
    Rng rng(1);
    GaussianPolicy policy(PolicyConfig{}, rng);
    ASSERT_TRUE(policy.LoadFile(path));
    std::ostringstream saved;
    policy.Save(saved);
    EXPECT_TRUE(saved.str() == ReadBytes(path));
  }
}

// A 19-parameter policy keeps the grammar tables and the fuzz loop cheap.
PolicyConfig TinyConfig() {
  PolicyConfig config;
  config.hidden = {2};
  return config;
}

std::vector<double> Params(const GaussianPolicy& policy) {
  std::vector<double> out;
  policy.CopyParamsTo(out);
  return out;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct TinyCheckpoint {
  std::string text;              ///< as Save writes it
  std::vector<std::string> lines;  ///< its lines; params start at line 4
  std::vector<double> params;
};

TinyCheckpoint MakeTinyCheckpoint() {
  Rng rng(21);
  GaussianPolicy policy(TinyConfig(), rng);
  TinyCheckpoint out;
  std::ostringstream os;
  policy.Save(os);
  out.text = os.str();
  std::istringstream in(out.text);
  for (std::string line; std::getline(in, line);) out.lines.push_back(line);
  out.params = Params(policy);
  return out;
}

std::string JoinLines(const std::vector<std::string>& lines, const std::string& eol = "\n") {
  std::string out;
  for (const auto& line : lines) out += line + eol;
  return out;
}

// A policy with other weights than the checkpoint, so a load that changes
// nothing is visible.
GaussianPolicy FreshTinyPolicy() {
  Rng rng(77);
  return GaussianPolicy(TinyConfig(), rng);
}

bool LoadText(GaussianPolicy& policy, const std::string& text) {
  std::istringstream in(text);
  return policy.Load(in);
}

TEST(PolicyTest, LoadRejectsMalformedCheckpoints) {
  const TinyCheckpoint good = MakeTinyCheckpoint();
  ASSERT_EQ(good.lines.size(), 4u + 19u);
  const auto with_line = [&good](std::size_t i, const std::string& line) {
    std::vector<std::string> lines = good.lines;
    lines[i] = line;
    return JoinLines(lines);
  };
  const std::size_t mid = 4 + 9;  // a parameter in the middle of the list
  std::vector<std::string> truncated = good.lines;
  truncated.pop_back();
  const struct {
    const char* name;
    std::string text;
  } cases[] = {
      {"bad magic", with_line(0, "topfull-policy-v2")},
      {"wrong obs dim", with_line(1, "3 1 2")},
      {"wrong hidden count", with_line(1, "2 2 2 2")},
      {"wrong hidden size", with_line(1, "2 1 3")},
      {"huge hidden count", with_line(1, "2 99999999999999999999 2")},
      {"negative count", with_line(1, "2 -1 2")},
      {"count mismatch", with_line(3, "18")},
      {"truncated parameters", JoinLines(truncated)},
      {"empty file", ""},
      {"whitespace only", " \n\t\r\n"},
      {"inf", with_line(mid, "inf")},
      {"-inf", with_line(mid, "-inf")},
      {"nan", with_line(mid, "nan")},
      {"1e400", with_line(mid, "1e400")},
      {"1e-400 underflows", with_line(mid, "1e-400")},
      {"5e", with_line(mid, "5e")},
      {"hex float", with_line(mid, "0x1p3")},
      {"1.5abc mid-file", with_line(mid, "1.5abc")},
      {"junk glued to the last parameter", with_line(4 + 18, good.lines[4 + 18] + "abc")},
      {"bare plus", with_line(mid, "+")},
      {"plus minus", with_line(mid, "+-1")},
      {"double plus", with_line(mid, "++1")},
      {"non-finite action bound", with_line(2, "-inf 0.5")},
      // Last, so that no later parameter goes missing if the cut-off head
      // of the token were read as a number.
      {"token longer than the read buffer",
       with_line(4 + 18, "0." + std::string(70 * 1024, '0') + "1")},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    GaussianPolicy policy = FreshTinyPolicy();
    const std::vector<double> before = Params(policy);
    EXPECT_FALSE(LoadText(policy, c.text));
    EXPECT_TRUE(SameBits(Params(policy), before));  // untouched on failure
  }
}

TEST(PolicyTest, LoadAcceptsPlusSignsCrlfAndTabs) {
  const TinyCheckpoint good = MakeTinyCheckpoint();
  std::vector<std::string> plus = good.lines;
  plus[1] = "+2 +1 +2";
  plus[3] = "+19";
  for (std::size_t i = 4; i < plus.size(); ++i) {
    if (plus[i][0] != '-') plus[i] = "+" + plus[i];
  }
  std::string tabs;
  for (std::size_t i = 0; i < good.lines.size(); ++i) {
    tabs += good.lines[i] + (i % 2 == 0 ? "\t" : " \t\v\f ");
  }
  std::string unterminated = good.text;
  unterminated.pop_back();
  const struct {
    const char* name;
    std::string text;
  } cases[] = {
      {"as saved", good.text},
      {"leading plus", JoinLines(plus)},
      {"CRLF", JoinLines(good.lines, "\r\n")},
      {"tabs and no line breaks", tabs},
      {"no final newline", unterminated},
      {"trailing tokens ignored", good.text + "trailing junk 1e999 nan\n"},
      {"leading whitespace", "\n\n  \t" + good.text},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    GaussianPolicy policy = FreshTinyPolicy();
    ASSERT_TRUE(LoadText(policy, c.text));
    EXPECT_TRUE(SameBits(Params(policy), good.params));
  }
  // A subnormal is finite and loads as itself.
  std::vector<std::string> subnormal = good.lines;
  subnormal[4 + 9] = "4.9406564584124654e-324";
  GaussianPolicy policy = FreshTinyPolicy();
  ASSERT_TRUE(LoadText(policy, JoinLines(subnormal)));
  EXPECT_EQ(Params(policy)[9], std::numeric_limits<double>::denorm_min());
}

TEST(PolicyTest, LoadCarriesATokenAcrossTheRefill) {
  constexpr std::size_t kBuffer = 64 * 1024;  // policy.cpp's read buffer
  const TinyCheckpoint good = MakeTinyCheckpoint();
  const std::string header = JoinLines({good.lines.begin(), good.lines.begin() + 4});
  const std::string body =
      JoinLines({good.lines.begin() + 4, good.lines.end()});
  const std::size_t first_len = good.lines[4].size();
  const std::string path = ::testing::TempDir() + "policy_refill.txt";
  // Start the first parameter so that the buffer edge falls before, inside
  // and just after it.
  for (std::size_t back = 0; back <= first_len + 1; ++back) {
    SCOPED_TRACE(back);
    const std::size_t start = kBuffer - back;
    const std::string text = header + std::string(start - header.size(), ' ') + body;
    GaussianPolicy from_stream = FreshTinyPolicy();
    ASSERT_TRUE(LoadText(from_stream, text));
    EXPECT_TRUE(SameBits(Params(from_stream), good.params));
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    GaussianPolicy from_file = FreshTinyPolicy();
    ASSERT_TRUE(from_file.LoadFile(path));
    EXPECT_TRUE(SameBits(Params(from_file), good.params));
  }
  std::remove(path.c_str());
}

// Seeded fuzz of the checkpoint reader: whatever the bytes, Load returns
// (no crash, no sanitizer report) and an accepted checkpoint is finite.
TEST(PolicyTest, LoadSurvivesFuzzedCheckpoints) {
  const TinyCheckpoint good = MakeTinyCheckpoint();
  const char* const kTokens[] = {
      "inf", "nan", "-nan", "1e400", "1e-400", "-0", "0x1p3", "+", "-", ".", "e5",
      "1e", "18446744073709551616", "99999999999999999999", "4.9406564584124654e-324",
      "1.7976931348623157e308", "0", "19", "2", "topfull-policy-v1"};
  const char kBytes[] = "0123456789.eE+- \t\r\n\v\fxXinfa";
  Rng rng(2024);
  int accepted = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<std::string> tokens;
    {
      std::istringstream in(good.text);
      for (std::string t; in >> t;) tokens.push_back(t);
    }
    const auto pick = [&rng](std::size_t n) {
      return static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
    };
    const int edits = static_cast<int>(rng.UniformInt(1, 3));
    for (int e = 0; e < edits; ++e) {
      switch (rng.UniformInt(0, 2)) {
        case 0:
          std::swap(tokens[pick(tokens.size())], tokens[pick(tokens.size())]);
          break;
        case 1:
          tokens[pick(tokens.size())] = kTokens[pick(std::size(kTokens))];
          break;
        default:
          tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(pick(tokens.size())));
          break;
      }
    }
    std::string text;
    for (const auto& t : tokens) text += t + "\n";
    for (int flips = static_cast<int>(rng.UniformInt(0, 3)); flips > 0 && !text.empty();
         --flips) {
      const char byte = rng.Bernoulli(0.5) ? kBytes[pick(sizeof(kBytes) - 1)]
                                           : static_cast<char>(rng.UniformInt(0, 255));
      text[pick(text.size())] = byte;
    }
    if (rng.Bernoulli(0.2)) text.resize(pick(text.size() + 1));
    if (rng.Bernoulli(0.05)) {
      // Pad so that the refill edge lands on a random parameter.
      const std::size_t at = std::min(text.size(), good.lines[0].size() + 1);
      text.insert(at, 64 * 1024 - at - pick(200), ' ');
    }
    GaussianPolicy policy = FreshTinyPolicy();
    if (!LoadText(policy, text)) continue;
    ++accepted;
    for (const double p : Params(policy)) ASSERT_TRUE(std::isfinite(p)) << text;
    ASSERT_TRUE(std::isfinite(policy.config().action_low));
    ASSERT_TRUE(std::isfinite(policy.config().action_high));
  }
  // Swaps of equal-looking tokens and bytes flipped into trailing text keep
  // some inputs valid; the fuzz is useless if none or all get through.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 3000);
}

TEST(ObservationTest, ClampsFeatures) {
  const auto obs = MakeObservation(5000.0, 100.0, 99.0, 1.0);
  EXPECT_DOUBLE_EQ(obs[0], 2.0);
  EXPECT_DOUBLE_EQ(obs[1], kMaxLatencyFactor);
  const auto zero = MakeObservation(10.0, 0.0, 0.5, 1.0);
  EXPECT_DOUBLE_EQ(zero[0], 0.0);
}

// A trivial env whose optimum is "always output +0.5": reward = action.
class BanditEnv : public Env {
 public:
  std::vector<double> Reset(std::uint64_t) override {
    steps_ = 0;
    return {0.5, 0.5};
  }
  StepResult Step(double action) override {
    ++steps_;
    return {{0.5, 0.5}, action, steps_ >= 10};
  }
  int ObsDim() const override { return 2; }

 private:
  int steps_ = 0;
};

TEST(PpoTest, LearnsTrivialBandit) {
  Rng rng(10);
  auto policy = std::make_unique<GaussianPolicy>(PolicyConfig{}, rng);
  PpoConfig config;
  config.lr = 3e-4;
  config.steps_per_episode = 10;
  config.episodes_per_iter = 16;
  PpoTrainer trainer(policy.get(), config, 11);
  BanditEnv env;
  const double before = policy->MeanAction({0.5, 0.5});
  for (int i = 0; i < 60; ++i) trainer.TrainIteration(env);
  const double after = policy->MeanAction({0.5, 0.5});
  EXPECT_GT(after, before + 0.1);
  EXPECT_GT(after, 0.3);
}

TEST(PpoTest, TrainSelectsBestCheckpoint) {
  Rng rng(12);
  auto policy = std::make_unique<GaussianPolicy>(PolicyConfig{}, rng);
  PpoConfig config;
  config.steps_per_episode = 10;
  config.episodes_per_iter = 8;
  PpoTrainer trainer(policy.get(), config, 13);
  BanditEnv env;
  const auto result = trainer.Train(
      env, /*total_episodes=*/160,
      [&env](GaussianPolicy& p) { return EvaluatePolicy(p, env, 2, 0, 10); },
      /*checkpoint_every=*/40);
  EXPECT_EQ(result.episodes_trained, 160);
  EXPECT_FALSE(result.best_params.empty());
  EXPECT_FALSE(result.history.empty());
  // The restored policy scores the recorded validation value.
  EXPECT_NEAR(EvaluatePolicy(*policy, env, 2, 0, 10), result.best_validation_score,
              1e-9);
}

TEST(PpoTest, TrainingImprovesGraphSimPolicy) {
  // Regression net for the whole RL stack: a briefly-trained policy must
  // clearly beat its untrained self on fixed validation scenarios.
  Rng rng(21);
  GaussianPolicy policy(PolicyConfig{}, rng);
  GraphSimEnv train_env({}, 5150);
  GraphSimEnv validation_env({}, 6160);
  const double before = EvaluatePolicy(policy, validation_env, 12, 400, 50);
  PpoTrainer trainer(&policy, PpoConfig{}, 22);
  trainer.Train(train_env, /*total_episodes=*/640);
  const double after = EvaluatePolicy(policy, validation_env, 12, 400, 50);
  EXPECT_GT(after, before + 0.5);
}

// --- GraphSimEnv behaviour rules (§4.3) -------------------------------------

TEST(GraphSimEnvTest, ResetIsSeedDeterministic) {
  GraphSimEnv env_a({}, 42), env_b({}, 42);
  const auto oa = env_a.Reset(7);
  const auto ob = env_b.Reset(7);
  EXPECT_EQ(oa, ob);
  const auto ra = env_a.Step(0.1);
  const auto rb = env_b.Step(0.1);
  EXPECT_EQ(ra.obs, rb.obs);
  EXPECT_DOUBLE_EQ(ra.reward, rb.reward);
}

TEST(GraphSimEnvTest, EpisodeEndsAtConfiguredSteps) {
  GraphSimConfig config;
  config.steps_per_episode = 5;
  GraphSimEnv env(config, 1);
  env.Reset(1);
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(env.Step(0.0).done);
  EXPECT_TRUE(env.Step(0.0).done);
}

TEST(GraphSimEnvTest, OverloadRaisesLatencyUnderloadKeepsItLow) {
  GraphSimConfig config;
  config.surge_prob = 0.0;
  config.scaleup_prob = 0.0;
  config.undershoot_start_prob = 0.0;
  config.noise = 0.0;
  GraphSimEnv env(config, 99);
  env.Reset(3);
  // Drive hard over capacity: latency must exceed the SLO eventually.
  double last_lat = 0.0;
  for (int i = 0; i < 20; ++i) last_lat = env.Step(0.5).obs[1];
  EXPECT_GT(last_lat, 1.0);
  // Now shed hard: latency recovers (rule 2).
  for (int i = 0; i < 30; ++i) last_lat = env.Step(-0.5).obs[1];
  EXPECT_LT(last_lat, 0.5);
}

TEST(GraphSimEnvTest, GoodputFollowsRateWhenUnderloaded) {
  GraphSimConfig config;
  config.surge_prob = 0.0;
  config.scaleup_prob = 0.0;
  config.undershoot_start_prob = 0.0;
  config.noise = 0.0;
  config.demand_lo = 0.3;
  config.demand_hi = 0.5;  // always below capacity
  GraphSimEnv env(config, 17);
  env.Reset(2);
  const auto r = env.Step(0.0);
  // Rule 3: not overloaded => goodput ~ incoming, ratio ~ 1.
  EXPECT_NEAR(r.obs[0], 1.0, 0.05);
  EXPECT_LT(r.obs[1], 0.5);
}

TEST(GraphSimEnvTest, ThrashReducesGoodputPastSaturation) {
  GraphSimConfig config;
  config.surge_prob = 0.0;
  config.scaleup_prob = 0.0;
  config.undershoot_start_prob = 0.0;
  config.noise = 0.0;
  config.demand_lo = 2.2;
  config.demand_hi = 2.4;  // far above capacity
  GraphSimEnv env(config, 23);
  env.Reset(4);
  env.Step(0.0);
  const double good_over = env.last_goodput();
  // Cut towards capacity: goodput should improve (rule 1/2).
  for (int i = 0; i < 10; ++i) env.Step(-0.25);
  for (int i = 0; i < 15; ++i) {
    const auto obs = env.Step(0.0).obs;
    (void)obs;
  }
  EXPECT_GT(env.last_goodput(), good_over);
}

TEST(GraphSimEnvTest, RateLimitClampedPositive) {
  GraphSimEnv env({}, 5);
  env.Reset(6);
  for (int i = 0; i < 60; ++i) env.Step(-0.5);
  EXPECT_GT(env.rate_limit(), 0.0);
}

}  // namespace
}  // namespace topfull::rl
