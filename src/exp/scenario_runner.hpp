// ScenarioRunner: wires a Scenario into a live dumbbell simulation and
// extracts a RunResult.
//
// The topology itself (senders, access jitter, impairment stages, the
// bottleneck, delay lines, receivers) is built by Dumbbell — see
// exp/dumbbell.hpp for the per-flow diagram. This file adds the run
// around it: chaos, the capacity schedule, telemetry and audit sampling,
// the warm-up mark, the watchdog-sliced loop, and result extraction.
#pragma once

#include "exp/run_outcome.hpp"
#include "exp/run_result.hpp"
#include "exp/scenario.hpp"

namespace bbrnash {

/// Runs the scenario to completion and returns measurements taken over
/// [warmup, duration]. Throws std::invalid_argument for ill-formed
/// scenarios (Scenario::validate) and InvariantViolation when an always-on
/// runtime guard fires (conservation, queue bound, clock monotonicity).
[[nodiscard]] RunResult run_scenario(const Scenario& scenario);

/// Exception-free variant for sweeps: runs under the guard's watchdog
/// (event budget + wall-clock backstop), converts aborts / invariant
/// violations / errors into a typed RunOutcome, and retries degenerate
/// attempts with a bumped seed up to guard.max_attempts times.
[[nodiscard]] RunOutcome run_scenario_guarded(const Scenario& scenario,
                                              const GuardConfig& guard = {});

}  // namespace bbrnash
