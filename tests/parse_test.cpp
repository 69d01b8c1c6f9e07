// One table of hostile number tokens, fed through the public entry point
// of every front end that reads numbers from text: the policy checkpoint,
// the scenario grammar, CLI flags, environment variables, JSON, the
// Prometheus text format, PromQL and the /query parameters. Each token has
// one outcome as a finite number and one as a whole number, under the rule
// in common/parse.hpp, and every front end must give it. The only
// departures are a format's own syntax, listed per front end: where
// whitespace separates tokens, " 5" is the token "5", and PromQL reads a
// leading '+' as an operator it does not have.
#include "common/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "exp/harness.hpp"
#include "exp/model_cache.hpp"
#include "obs/json.hpp"
#include "obs/prom_parser.hpp"
#include "obs/query.hpp"
#include "obs/tsdb.hpp"
#include "obs/tsdb_plane.hpp"
#include "rl/policy.hpp"
#include "scenario/profile.hpp"

namespace topfull {
namespace {

using Outcome = std::optional<double>;  // the value read, or nullopt: rejected
constexpr std::nullopt_t kRejected = std::nullopt;

struct TokenCase {
  std::string text;
  Outcome finite;  ///< read as a finite number
  Outcome whole;   ///< read as a whole number
};

/// The hostile tokens of the checkpoint reader's tests, the cases where the
/// front ends used to disagree, and controls that every front end accepts.
const std::vector<TokenCase>& Table() {
  static const std::vector<TokenCase> table = {
      {"5", 5.0, 5.0},
      {"+5", 5.0, 5.0},
      {"1e400", kRejected, kRejected},   // overflow is not inf
      {"1e-400", kRejected, kRejected},  // underflow is not 0
      {"5e", kRejected, kRejected},
      {"0x1p3", kRejected, kRejected},
      {"1.5abc", kRejected, kRejected},
      {"+-1", kRejected, kRejected},
      {"++5", kRejected, kRejected},
      {"inf", kRejected, kRejected},
      {"nan", kRejected, kRejected},
      {" 5", kRejected, kRejected},
      {"5 ", kRejected, kRejected},
      {"0x10", kRejected, kRejected},
      {"1e3", 1000.0, kRejected},
      {"2.5", 2.5, kRejected},
      {"2.0", 2.0, kRejected},
      {"1e-310", 1e-310, kRejected},  // a subnormal reads as itself
  };
  return table;
}

/// A front end that returns what it read: nullopt when it rejects.
struct FrontEnd {
  const char* name;
  std::function<Outcome(const std::string&)> read;
  /// Tokens whose outcome the format's own syntax decides.
  std::map<std::string, Outcome> syntax = {};
};

const std::map<std::string, Outcome> kSpaceSeparates = {{" 5", 5.0}, {"5 ", 5.0}};

std::string Checkpoint(int obs_dim) {
  rl::PolicyConfig config;
  config.obs_dim = obs_dim;
  Rng rng(7);
  std::ostringstream out;
  rl::GaussianPolicy(config, rng).Save(out);
  return out.str();
}

/// Loads `text` into a fresh policy with `obs_dim`; its first parameter
/// when it loads.
Outcome LoadFirstParam(const std::string& text, int obs_dim) {
  rl::PolicyConfig config;
  config.obs_dim = obs_dim;
  Rng rng(8);
  rl::GaussianPolicy policy(config, rng);
  std::istringstream in(text);
  if (!policy.Load(in)) return kRejected;
  std::vector<double> params;
  policy.CopyParamsTo(params);
  return params.at(0);
}

std::string PercentEncode(const std::string& text) {
  std::string out;
  char hex[4];
  for (const unsigned char c : text) {
    std::snprintf(hex, sizeof hex, "%%%02X", c);
    out += hex;
  }
  return out;
}

/// PromQL's answer to `expr` when it is a scalar.
Outcome PromQlScalar(const std::string& expr) {
  const obs::Tsdb tsdb;
  const obs::QueryResult result = obs::EvalInstant(tsdb, expr, 0.0);
  if (!result.ok || result.type != obs::QueryResult::Type::kScalar) return kRejected;
  return result.series.at(0).points.at(0).value;
}

Outcome PromRead(const std::string& line, bool timestamp) {
  obs::PromScrape scrape;
  if (!obs::ParsePromText("# TYPE m gauge\n" + line + "\n", &scrape)) return kRejected;
  const obs::PromSample& sample = scrape.families.at(0).samples.at(0);
  return timestamp ? static_cast<double>(sample.timestamp_ms) : sample.value;
}

std::optional<scenario::ScenarioSpec> Scenario(const std::string& keys) {
  const auto specs = scenario::ParseScenarioProfile("scenario: name=a, " + keys + "\n");
  if (!specs.has_value()) return std::nullopt;
  return specs->at(0);
}

std::vector<FrontEnd> FiniteFrontEnds() {
  return {
      {"ParseFinite", [](const std::string& t) { return ParseFinite(t); }},
      {"checkpoint parameter",
       [](const std::string& t) {
         std::string text = Checkpoint(2);
         // The first parameter is the line after <n>, the fifth line.
         std::size_t at = 0;
         for (int line = 0; line < 4; ++line) at = text.find('\n', at) + 1;
         text.replace(at, text.find('\n', at) - at, t);
         return LoadFirstParam(text, 2);
       },
       kSpaceSeparates},
      {"grammar static=",
       [](const std::string& t) -> Outcome {
         const auto spec = Scenario("static=" + t);
         return spec ? Outcome(spec->static_rate) : kRejected;
       },
       kSpaceSeparates},
      {"JSON",
       [](const std::string& t) -> Outcome {
         obs::JsonValue doc;
         if (!obs::ParseJson("[" + t + "]", &doc)) return kRejected;
         return doc.array.at(0).number;
       },
       kSpaceSeparates},
      {"Prometheus sample value", [](const std::string& t) { return PromRead("m " + t, false); }},
      {"PromQL",
       PromQlScalar,
       // Whitespace separates tokens, and a sign is an operator: the subset
       // has unary minus only.
       {{" 5", 5.0}, {"5 ", 5.0}, {"+5", kRejected}}},
      {"/query time=",
       [](const std::string& t) -> Outcome {
         obs::HttpRequest request;
         request.method = "GET";
         request.target = "/query?expr=1&time=" + PercentEncode(t);
         if (obs::HandleQueryRequest(request, obs::Tsdb()).status != 200) return kRejected;
         return ParseFinite(t);  // the status is all the endpoint reports
       }},
  };
}

std::vector<FrontEnd> WholeFrontEnds() {
  return {
      {"ParseWhole", [](const std::string& t) -> Outcome {
         const auto value = ParseWhole<long long>(t);
         return value ? Outcome(static_cast<double>(*value)) : kRejected;
       }},
      {"checkpoint obs_dim",
       [](const std::string& t) {
         // The checkpoint's obs_dim is 5, the value every accepted token has.
         std::string text = Checkpoint(5);
         const std::size_t line = text.find('\n') + 1;
         text.replace(line, text.find(' ', line) - line, t);
         return LoadFirstParam(text, 5).has_value() ? Outcome(5.0) : kRejected;
       },
       kSpaceSeparates},
      {"grammar seed=",
       [](const std::string& t) -> Outcome {
         const auto spec = Scenario("seed=" + t);
         return spec ? Outcome(static_cast<double>(spec->seed)) : kRejected;
       },
       kSpaceSeparates},
      {"grammar pods=",
       [](const std::string& t) -> Outcome {
         const auto specs = scenario::ParseScenarioProfile(
             "scenario: name=a\ncrash: svc=cart, at=1, pods=" + t + "\n");
         if (!specs.has_value()) return kRejected;
         return specs->at(0).faults.at(0).event.pods;
       },
       kSpaceSeparates},
      {"grammar prio=",
       [](const std::string& t) -> Outcome {
         const auto spec = scenario::ParseScenarioProfile(
             "scenario: name=a\ntenant: name=t, weight=1, prio=" + t + "\n");
         if (!spec.has_value()) return kRejected;
         return spec->at(0).tenants.at(0).priority_lo;
       },
       kSpaceSeparates},
      {"Prometheus timestamp", [](const std::string& t) { return PromRead("m 1 " + t, true); }},
  };
}

/// Where a front end departs from the table, the departure it declares.
Outcome Expected(const FrontEnd& front_end, const TokenCase& token, Outcome outcome) {
  const auto it = front_end.syntax.find(token.text);
  return it == front_end.syntax.end() ? outcome : it->second;
}

void ExpectOneOutcome(const std::vector<FrontEnd>& front_ends, Outcome TokenCase::*outcome) {
  for (const FrontEnd& front_end : front_ends) {
    for (const TokenCase& token : Table()) {
      const Outcome expected = Expected(front_end, token, token.*outcome);
      const Outcome got = front_end.read(token.text);
      ASSERT_EQ(got.has_value(), expected.has_value())
          << front_end.name << " on '" << token.text << "'";
      if (expected.has_value()) {
        EXPECT_EQ(*got, *expected) << front_end.name << " on '" << token.text << "'";
      }
    }
  }
}

TEST(NumberRuleTest, EveryFiniteFrontEndGivesEachTokenOneOutcome) {
  ExpectOneOutcome(FiniteFrontEnds(), &TokenCase::finite);
}

TEST(NumberRuleTest, EveryWholeFrontEndGivesEachTokenOneOutcome) {
  ExpectOneOutcome(WholeFrontEnds(), &TokenCase::whole);
}

TEST(NumberRuleTest, WholeNumbersSpanTheirTypeAndItsBounds) {
  EXPECT_EQ(ParseWhole<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(ParseWhole<std::uint64_t>("18446744073709551616"));
  EXPECT_FALSE(ParseWhole<std::uint64_t>("-1"));
  EXPECT_EQ(ParseWhole<std::uint64_t>("9007199254740993"), 9007199254740993ull);
  EXPECT_EQ(ParseWhole<std::int64_t>("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(ParseWhole<int>("65535", 0, 65535), 65535);
  EXPECT_FALSE(ParseWhole<int>("65536", 0, 65535));
  EXPECT_FALSE(ParseWhole<int>("-1", 0, 65535));
  EXPECT_FALSE(ParseWhole<int>(""));
  EXPECT_FALSE(ParseFinite(""));
  EXPECT_FALSE(ParseFinite("+"));
  EXPECT_EQ(ParseFinite("-0.5"), -0.5);
  EXPECT_EQ(ParseFinite("1.7976931348623157e308"), std::numeric_limits<double>::max());
}

// A flag and the environment variable it overrides share one exit path:
// exit 2 naming the source, before anything runs.
struct ExitingFrontEnd {
  const char* source;
  std::function<double(const std::string&)> read;
};

void ExpectExitsOnRejected(const std::vector<ExitingFrontEnd>& front_ends,
                           Outcome TokenCase::*outcome) {
  for (const ExitingFrontEnd& front_end : front_ends) {
    for (const TokenCase& token : Table()) {
      const std::string where = std::string(front_end.source) + " on '" + token.text + "'";
      if ((token.*outcome).has_value()) {
        EXPECT_EQ(front_end.read(token.text), *(token.*outcome)) << where;
      } else {
        EXPECT_EXIT(front_end.read(token.text), testing::ExitedWithCode(2),
                    std::string("bad ") + front_end.source + " '")
            << where;
      }
    }
  }
}

/// Sets `name` to `value` for one read, then unsets it.
double WithEnv(const char* name, const std::string& value, const std::function<double()>& read) {
  setenv(name, value.c_str(), /*overwrite=*/1);
  const double result = read();
  unsetenv(name);
  return result;
}

TEST(NumberRuleDeathTest, FlagsAndEnvironmentVariablesExitOnEachRejectedToken) {
  ExpectExitsOnRejected(
      {
          {"--users", [](const std::string& t) { return FiniteOrExit("--users", t); }},
          {"TOPFULL_TRACE_SAMPLE",
           [](const std::string& t) {
             return WithEnv("TOPFULL_TRACE_SAMPLE", t,
                            [] { return exp::TelemetryOptions::FromEnv().sample_rate; });
           }},
      },
      &TokenCase::finite);
  ExpectExitsOnRejected(
      {
          {"--shards",
           [](const std::string& t) { return WholeOrExit("--shards", t, 1, 1 << 20); }},
          {"TOPFULL_THREADS",
           [](const std::string& t) {
             return WithEnv("TOPFULL_THREADS", t, [] { return ThreadPool::EnvThreads(); });
           }},
          {"TOPFULL_PRETRAIN_EPISODES",
           [](const std::string& t) {
             return WithEnv("TOPFULL_PRETRAIN_EPISODES", t,
                            [] { return exp::PretrainEpisodes(); });
           }},
      },
      &TokenCase::whole);
}

}  // namespace
}  // namespace topfull
