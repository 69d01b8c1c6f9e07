#include "scenario/profile.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string_view>

#include "common/parse.hpp"

namespace topfull::scenario {
namespace {

using KeyValues = std::map<std::string, std::string>;
using Keys = std::vector<std::string>;

std::string Trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

bool Fail(std::string* error, int line, const std::string& reason) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line) + ": " + reason;
  }
  return false;
}

/// Parses `key=value, key=value`; rejects malformed pairs.
bool ParseKeyValues(const std::string& body, int line, KeyValues* out,
                    std::string* error) {
  std::stringstream stream(body);
  std::string pair;
  while (std::getline(stream, pair, ',')) {
    pair = Trim(pair);
    if (pair.empty()) continue;
    const auto eq = pair.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= pair.size()) {
      return Fail(error, line, "malformed key=value pair '" + pair + "'");
    }
    (*out)[Trim(pair.substr(0, eq))] = Trim(pair.substr(eq + 1));
  }
  return true;
}

/// A number key's value, which Apply has checked, or `fallback` when the
/// key is absent.
double GetNum(const KeyValues& kv, const std::string& key, double fallback) {
  const auto it = kv.find(key);
  return it == kv.end() ? fallback : ParseFinite(it->second).value_or(fallback);
}

/// A whole number key's value (kWholeKeys), or `fallback`.
template <typename T>
T GetWhole(const KeyValues& kv, const std::string& key, T fallback) {
  const auto it = kv.find(key);
  return it == kv.end() ? fallback : ParseWhole<T>(it->second).value_or(fallback);
}

std::string GetStr(const KeyValues& kv, const std::string& key,
                   const std::string& fallback = "") {
  const auto it = kv.find(key);
  return it == kv.end() ? fallback : it->second;
}

/// Parses a `prio=LO-HI` band (or a single `prio=P`); false on junk or an
/// empty band.
bool ParsePriorityBand(const std::string& value, int* lo, int* hi) {
  const std::string_view text(value);
  const auto dash = text.find('-');
  const std::optional<int> low = ParseWhole<int>(text.substr(0, dash), 0);
  const std::optional<int> high =
      dash == std::string_view::npos ? low : ParseWhole<int>(text.substr(dash + 1), low.value_or(0));
  *lo = low.value_or(0);
  *hi = high.value_or(0);
  return low && high;
}

/// One directive of the grammar: the keys it takes and what it does to the
/// spec. `apply` runs once the keys passed the check and returns why it
/// rejects the values, or "".
struct Directive {
  const char* name;
  Keys allowed;
  Keys required;
  Keys text;  ///< text-valued keys; every other key is a number
  std::function<std::string(const KeyValues&, ScenarioSpec*)> apply;
  bool fault = false;
};

/// A fault directive other than chaos: one fault event of `type`.
Directive FaultEventDirective(const char* name, fault::FaultType type,
                              Keys allowed, Keys required) {
  const auto apply = [type](const KeyValues& kv, ScenarioSpec* spec) {
    fault::FaultEvent event;
    event.type = type;
    event.service = GetStr(kv, "svc");
    event.at = Seconds(GetNum(kv, "at", 0.0));
    event.duration = Seconds(GetNum(kv, "for", 0.0));
    event.pods = GetWhole(kv, type == fault::FaultType::kVmOutage ? "vms" : "pods", 1);
    event.restart_delay = Seconds(GetNum(kv, "restart", 0.0));
    event.restart_stagger = Seconds(GetNum(kv, "stagger", 0.0));
    event.severity = GetNum(
        kv, type == fault::FaultType::kErrorBurst ? "p" : "factor", event.severity);
    spec->Fault({event, std::nullopt});
    return std::string();
  };
  return {name, std::move(allowed), std::move(required), {"svc"}, apply, true};
}

const std::vector<Directive>& Directives() {
  using fault::FaultType;
  static const std::vector<Directive> directives = {
      {"scenario",
       {"name", "app", "duration", "seed", "static", "distinct_prio",
        "probe_failures", "replicas", "hpa", "fault_seed"},
       {"name"},
       {"name", "app"},
       [](const KeyValues& kv, ScenarioSpec* spec) {
         *spec = ScenarioSpec::Make(GetStr(kv, "name"), GetStr(kv, "app", "boutique"));
         spec->duration_s = GetNum(kv, "duration", spec->duration_s);
         spec->seed = GetWhole(kv, "seed", spec->seed);
         spec->static_rate = GetNum(kv, "static", 0.0);
         spec->distinct_priorities = GetNum(kv, "distinct_prio", 0.0) != 0.0;
         spec->probe_failures = GetNum(kv, "probe_failures", 0.0) != 0.0;
         spec->replicas = GetWhole(kv, "replicas", spec->replicas);
         spec->hpa = GetNum(kv, "hpa", 0.0) != 0.0;
         spec->fault_seed = GetWhole(kv, "fault_seed", spec->fault_seed);
         return std::string();
       }},
      {"phase", {"at", "users", "rps", "ramp"}, {"at"}, {},
       [](const KeyValues& kv, ScenarioSpec* spec) -> std::string {
         const bool rps = kv.count("rps") != 0;
         if (rps == (kv.count("users") != 0)) {
           return "'phase' directive takes one of 'users' or 'rps'";
         }
         if (!spec->phases.empty() && rps != spec->open_loop) {
           return "phases mix 'users' and 'rps'";
         }
         spec->open_loop = rps;
         spec->Phase(GetNum(kv, "at", 0.0), GetNum(kv, rps ? "rps" : "users", 0.0),
                     GetNum(kv, "ramp", 0.0));
         return "";
       }},
      {"tenant", {"name", "weight", "prio"}, {"name", "weight"}, {"name", "prio"},
       [](const KeyValues& kv, ScenarioSpec* spec) -> std::string {
         TenantSpec tenant;
         tenant.name = GetStr(kv, "name");
         tenant.weight = GetNum(kv, "weight", 1.0);
         if (kv.count("prio") != 0 &&
             !ParsePriorityBand(kv.at("prio"), &tenant.priority_lo,
                                &tenant.priority_hi)) {
           return "malformed priority band '" + kv.at("prio") + "'";
         }
         spec->Tenant(std::move(tenant));
         return "";
       }},
      {"client", {"timeout", "retries", "backoff", "think"}, {}, {},
       [](const KeyValues& kv, ScenarioSpec* spec) {
         spec->Client(GetNum(kv, "timeout", spec->client_timeout_s),
                      GetWhole(kv, "retries", spec->client_retries),
                      GetNum(kv, "backoff", spec->client_retry_backoff_s),
                      GetNum(kv, "think", spec->think_s));
         return std::string();
       }},
      {"rpc", {"timeout", "retries", "backoff"}, {}, {},
       [](const KeyValues& kv, ScenarioSpec* spec) {
         spec->Rpc(GetNum(kv, "timeout", spec->hop_timeout_s),
                   GetWhole(kv, "retries", spec->hop_retries),
                   GetNum(kv, "backoff", spec->hop_retry_backoff_s));
         return std::string();
       }},
      {"diurnal", {"low", "high", "period"}, {"low", "high", "period"}, {},
       [](const KeyValues& kv, ScenarioSpec* spec) {
         spec->Diurnal(GetNum(kv, "low", 0.0), GetNum(kv, "high", 0.0),
                       GetNum(kv, "period", 0.0));
         return std::string();
       }},
      {"invariant", {"kind", "value", "from", "param"}, {"kind"}, {"kind", "param"},
       [](const KeyValues& kv, ScenarioSpec* spec) -> std::string {
         const auto kind = InvariantKindFromName(GetStr(kv, "kind"));
         if (!kind.has_value()) {
           return "unknown invariant kind '" + GetStr(kv, "kind") + "'";
         }
         spec->Require(*kind, GetNum(kv, "value", 0.0), GetNum(kv, "from", 0.0),
                       GetStr(kv, "param"));
         return "";
       }},
      {"expect_violation", {"controller", "invariant"}, {"controller", "invariant"},
       {"controller", "invariant"},
       [](const KeyValues& kv, ScenarioSpec* spec) -> std::string {
         const auto kind = InvariantKindFromName(GetStr(kv, "invariant"));
         if (!kind.has_value()) {
           return "unknown invariant kind '" + GetStr(kv, "invariant") + "'";
         }
         spec->ExpectViolation(GetStr(kv, "controller"), *kind);
         return "";
       }},
      FaultEventDirective("crash", FaultType::kPodCrash,
                 {"svc", "at", "pods", "restart", "stagger"}, {"svc", "at", "pods"}),
      FaultEventDirective("degrade", FaultType::kCapacityDegrade,
                 {"svc", "at", "for", "factor"}, {"svc", "at", "factor"}),
      FaultEventDirective("inflate", FaultType::kServiceTimeInflate,
                 {"svc", "at", "for", "factor"}, {"svc", "at", "factor"}),
      FaultEventDirective("blackhole", FaultType::kBlackhole, {"svc", "at", "for"},
                 {"svc", "at"}),
      FaultEventDirective("errors", FaultType::kErrorBurst, {"svc", "at", "for", "p"},
                 {"svc", "at", "p"}),
      FaultEventDirective("vmout", FaultType::kVmOutage, {"at", "for", "vms"}, {"at", "vms"}),
      {"chaos", {"seed", "events", "horizon", "start", "blackhole"}, {}, {},
       [](const KeyValues& kv, ScenarioSpec* spec) {
         fault::ChaosOptions chaos;
         chaos.seed = GetWhole(kv, "seed", chaos.seed);
         chaos.events = GetWhole(kv, "events", chaos.events);
         chaos.horizon_s = GetNum(kv, "horizon", chaos.horizon_s);
         chaos.start_s = GetNum(kv, "start", chaos.start_s);
         chaos.allow_blackhole = GetNum(kv, "blackhole", 0.0) != 0.0;
         spec->Fault({{}, chaos});
         return std::string();
       },
       true},
  };
  return directives;
}

bool Contains(const Keys& keys, const std::string& key) {
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

/// Keys whose value is a time in seconds, in every directive that takes
/// them; ParseTime checks them, so no time overflows SimTime.
const Keys kTimeKeys = {"duration", "at",      "ramp",    "timeout", "backoff",
                        "think",    "period",  "from",    "for",     "restart",
                        "stagger",  "horizon", "start"};
/// Keys whose value is a whole number, with its largest value: counts are
/// ints, and seeds span uint64.
const std::map<std::string, std::uint64_t> kWholeKeys = {
    {"pods", INT_MAX},   {"vms", INT_MAX},         {"replicas", INT_MAX},
    {"retries", INT_MAX}, {"events", INT_MAX},      {"seed", UINT64_MAX},
    {"fault_seed", UINT64_MAX}};

/// Applies one `name: body` entry to `spec`, then CheckScenario, all
/// rejections blamed on `line`. Keys outside the directive's list are
/// rejected (the parser never guesses at typos), required ones must be
/// present, and every number must pass ParseNumber (ParseTime for a time),
/// so junk like `users=many`, `nan`, `-5` or `at=1e300` is rejected rather
/// than read.
bool Apply(const std::string& name, const std::string& body, int line,
           bool faults_only, ScenarioSpec* spec, std::string* error) {
  const auto& all = Directives();
  const auto d = std::find_if(all.begin(), all.end(),
                              [&name](const Directive& d) { return name == d.name; });
  if (d == all.end()) return Fail(error, line, "unknown directive '" + name + "'");
  if (faults_only && !d->fault) {
    return Fail(error, line, "'" + name + "' is not a fault directive");
  }
  KeyValues kv;
  if (!ParseKeyValues(body, line, &kv, error)) return false;
  for (const auto& [key, value] : kv) {
    std::string reason;
    if (!Contains(d->allowed, key)) {
      return Fail(error, line, "unknown key '" + key + "' in '" + name + "' directive");
    }
    if (Contains(d->text, key)) continue;
    bool ok = Contains(kTimeKeys, key) ? ParseTime(value, &reason).has_value()
                                       : ParseNumber(value, &reason).has_value();
    const auto whole = kWholeKeys.find(key);
    if (ok && whole != kWholeKeys.end()) {
      ok = ParseWhole<std::uint64_t>(value, 0, whole->second).has_value();
      reason = "not a whole number from 0 to " + std::to_string(whole->second);
    }
    if (!ok) {
      return Fail(error, line,
                  "value '" + value + "' for key '" + key + "' is " + reason);
    }
  }
  for (const std::string& key : d->required) {
    if (kv.count(key) == 0) {
      return Fail(error, line,
                  "'" + name + "' directive missing required key '" + key + "'");
    }
  }
  std::string problem = d->apply(kv, spec);
  if (problem.empty()) problem = CheckScenario(*spec);
  return problem.empty() || Fail(error, line, problem);
}

/// Calls `apply(directive, body, line)` for every entry of `text` split at
/// `separator`, with `#` comments and blank entries dropped; `line` counts
/// entries from 1, blank ones included. Stops at the first failure.
template <typename Fn>
bool ForEachDirective(const std::string& text, char separator,
                      std::string* error, int* line, Fn apply) {
  std::stringstream stream(text);
  std::string raw;
  while (std::getline(stream, raw, separator)) {
    ++*line;
    raw = Trim(raw.substr(0, raw.find('#')));
    if (raw.empty()) continue;
    const auto colon = raw.find(':');
    if (colon == std::string::npos) {
      return Fail(error, *line, "directive '" + raw + "' has no ':'");
    }
    if (!apply(Trim(raw.substr(0, colon)), Trim(raw.substr(colon + 1)), *line)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<double> ParseNumber(const std::string& text, std::string* reason) {
  const std::optional<double> value = ParseFinite(text);
  if (value.has_value() && *value >= 0.0) return value;
  if (reason != nullptr) {
    *reason = ParseDouble(text).has_value() ? "not a finite number >= 0" : "non-numeric";
  }
  return std::nullopt;
}

std::optional<double> ParseTime(const std::string& text, std::string* reason) {
  const std::optional<double> value = ParseNumber(text, reason);
  if (!value.has_value() || *value <= kMaxConfigSeconds) return value;
  if (reason != nullptr) {
    char max[32];
    std::snprintf(max, sizeof max, "%.3g", kMaxConfigSeconds);
    *reason = std::string("too large a time (at most ") + max + " s)";
  }
  return std::nullopt;
}

std::optional<std::vector<ScenarioSpec>> ParseScenarioProfile(
    const std::string& text, std::string* error) {
  std::vector<ScenarioSpec> specs;
  int line = 0;
  const bool ok = ForEachDirective(
      text, '\n', error, &line,
      [&specs, error](const std::string& directive, const std::string& body,
                      int at) {
        // Every directive after a `scenario:` line configures that scenario.
        if (directive == "scenario") {
          specs.emplace_back();
        } else if (specs.empty()) {
          return Fail(error, at,
                      "'" + directive + "' directive before the first 'scenario:'");
        }
        if (!Apply(directive, body, at, /*faults_only=*/false, &specs.back(), error)) {
          return false;
        }
        const std::string& name = specs.back().name;
        const bool duplicate =
            directive == "scenario" &&
            std::any_of(specs.begin(), specs.end() - 1,
                        [&name](const ScenarioSpec& s) { return s.name == name; });
        return !duplicate || Fail(error, at, "duplicate scenario name '" + name + "'");
      });
  if (!ok) return std::nullopt;
  if (specs.empty()) {
    Fail(error, line, "profile declares no scenarios");
    return std::nullopt;
  }
  return specs;
}

std::optional<std::vector<FaultDirective>> ParseFaultProfile(
    const std::string& text, std::string* error) {
  ScenarioSpec spec;
  int entry = 0;
  const bool ok = ForEachDirective(
      text, ';', error, &entry,
      [&spec, error](const std::string& directive, const std::string& body, int at) {
        return Apply(directive, body, at, /*faults_only=*/true, &spec, error);
      });
  if (!ok) return std::nullopt;
  return spec.faults;
}

std::optional<std::vector<ScenarioSpec>> LoadScenarioProfile(
    const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open profile '" + path + "'";
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ParseScenarioProfile(buffer.str(), error);
}

}  // namespace topfull::scenario
