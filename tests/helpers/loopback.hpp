// Test helper: a Scenario preset over the production dumbbell
// (exp/dumbbell.hpp) for the CC state-machine tests, which introspect the
// live congestion-control objects while the simulation runs.
#pragma once

#include <vector>

#include "exp/dumbbell.hpp"

namespace bbrnash::testing {

/// One flow per entry of `ccs`, all at base RTT `rtt`, starting together
/// at t = 0 with no access jitter.
inline Scenario loopback(BytesPerSec capacity, Bytes buffer_bytes, TimeNs rtt,
                         const std::vector<CcKind>& ccs) {
  Scenario s;
  s.capacity = capacity;
  s.buffer_bytes = buffer_bytes;
  for (const CcKind cc : ccs) {
    s.flows.push_back({.cc = cc, .base_rtt = rtt, .start_at = 0});
  }
  s.access_jitter = 0;
  return s;
}

/// A started simulation of `scenario`.
struct Loopback {
  explicit Loopback(const Scenario& scenario)
      : net(sim, scenario, nullptr, nullptr) {
    net.start();
  }
  const CongestionControl& cc(std::uint32_t i) { return net.sender(i).cc(); }
  /// Runs `fn` every `period` until `until`.
  template <typename Fn>
  void sample(TimeNs period, TimeNs until, Fn fn) {
    for (TimeNs t = period; t <= until; t += period) sim.schedule_at(t, fn);
  }

  Simulator sim;
  Dumbbell net;
};

}  // namespace bbrnash::testing
