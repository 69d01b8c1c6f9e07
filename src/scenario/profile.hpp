// Text profiles for scenario specs.
//
// A profile is a newline-separated list of directives, each
// `directive: key=value, key=value, ...`, with `#` starting a comment.
// One file may declare several scenarios; every directive after a
// `scenario:` line configures that scenario until the next one.
//
//   # metastable trap, shrunk
//   scenario: name=meta_smoke, app=boutique, duration=120, seed=7
//   phase: at=0, users=300
//   phase: at=40, users=2200
//   phase: at=70, users=300
//   client: timeout=4, retries=3, backoff=0.25
//   rpc: timeout=0.5, retries=1, backoff=0.05
//   crash: svc=productcatalog, at=50, pods=2, restart=10, stagger=1
//   chaos: seed=7, events=3, horizon=120, start=10
//   invariant: kind=escapes_overload_by, value=40, from=70
//   expect_violation: controller=static, invariant=escapes_overload_by
//
// Directives: scenario, phase, tenant, client, rpc, diurnal, invariant,
// expect_violation, and the fault directives crash, degrade, inflate,
// blackhole, errors, vmout and chaos (a seeded draw over the app's
// services, fault/chaos.hpp); Directives() in profile.cpp lists each one's
// allowed and required keys. Phases are all `users` or all `rps`. The
// parser is strict — unknown directives or keys, missing required keys,
// numbers ParseNumber rejects, times ParseTime rejects (every key named in
// kTimeKeys, profile.cpp), duplicate scenario names, directives before
// the first `scenario:`, and specs CheckScenario rejects all fail with a
// line-numbered message, never a crash; malformed input is a first-class
// test fixture (tests/data/scenarios/). Service names are checked when
// ExpandFaults meets the app.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace topfull::scenario {

/// Parses a profile into scenario specs. Returns nullopt and sets *error
/// (if non-null) on any malformed input.
std::optional<std::vector<ScenarioSpec>> ParseScenarioProfile(
    const std::string& text, std::string* error = nullptr);

/// The grammar's number rule, shared with `topfull run`'s flags: `text`
/// must parse whole as a finite number >= 0. Otherwise nullopt, with
/// *reason (if non-null) "non-numeric" or "not a finite number >= 0".
std::optional<double> ParseNumber(const std::string& text,
                                  std::string* reason = nullptr);

/// The number rule for a time in seconds: ParseNumber, and at most
/// kMaxConfigSeconds, so the time converts to SimTime without overflow.
/// Otherwise nullopt, with *reason as ParseNumber's or "too large a time".
std::optional<double> ParseTime(const std::string& text,
                                std::string* reason = nullptr);

/// Parses `;`-separated fault directives, the `--fault-profile` form:
///   crash:svc=ts-station,at=50,pods=25,restart=60;chaos:seed=7,events=6
/// Each entry counts as one line in error messages.
std::optional<std::vector<FaultDirective>> ParseFaultProfile(
    const std::string& text, std::string* error = nullptr);

/// Reads and parses a profile file; distinguishes unreadable files from
/// parse failures in *error.
std::optional<std::vector<ScenarioSpec>> LoadScenarioProfile(
    const std::string& path, std::string* error = nullptr);

}  // namespace topfull::scenario
