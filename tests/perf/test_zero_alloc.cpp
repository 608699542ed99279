// Zero-allocation assertion for the simulator hot path.
//
// This binary links `bbrnash_alloccount`, which replaces the global
// allocation functions with counting versions (src/util/alloc_counter.*).
// Each case builds its dumbbell with the production topology builder
// (exp/dumbbell.hpp — the wiring run_scenario uses: access jitter, impairment
// stages, sojourn-carrying deliveries, by-value CC dispatch), applies the
// builder's steady-state reserve, runs past warmup, opens the measurement
// window the way run_scenario does, and then requires that the
// steady-state window performs *zero* operator new / delete calls.
// Steady-state allocation counts depend only on the simulated workload
// (never on wall-clock timing), so the exact-zero assertion is
// deterministic and CI-safe, and it holds in sanitizer builds too: the
// sanitize/tsan presets run this test, so a pooling regression fails
// loudly everywhere.

#include <cstdint>

#include <gtest/gtest.h>

#include "exp/dumbbell.hpp"
#include "exp/scenario.hpp"
#include "model/network_params.hpp"
#include "net/impairment.hpp"
#include "sim/simulator.hpp"
#include "util/alloc_counter.hpp"
#include "util/units.hpp"

namespace bbrnash {
namespace {

struct SteadyAllocs {
  std::uint64_t news = 0;
  std::uint64_t deletes = 0;
  std::uint64_t events = 0;
};

/// Runs `cubic_flows` CUBIC + `bbr_flows` BBR over a shared 40 ms
/// bottleneck and returns the allocation counts observed between `warmup`
/// and `duration`.
SteadyAllocs run_dumbbell(int bbr_flows, int cubic_flows, double capacity_mbps,
                          double buffer_bdps, const ImpairmentConfig& impair,
                          TimeNs warmup, TimeNs duration) {
  Scenario sc = make_mix_scenario(make_params(capacity_mbps, 40, buffer_bdps),
                                  cubic_flows, bbr_flows);
  sc.impairments = impair;

  Simulator sim;
  Dumbbell net{sim, sc, nullptr, nullptr};
  net.reserve_steady_state();
  net.start();

  sim.run_until(warmup);
  net.link().queue().begin_measurement(sim.now());
  for (std::uint32_t i = 0; i < net.flows(); ++i) {
    net.sender(i).begin_measurement();
  }
  const std::uint64_t warm_events = sim.events_executed();
  const std::uint64_t warm_news = allocs::news();
  const std::uint64_t warm_deletes = allocs::deletes();
  sim.run_until(duration);

  SteadyAllocs out;
  out.news = allocs::news() - warm_news;
  out.deletes = allocs::deletes() - warm_deletes;
  out.events = sim.events_executed() - warm_events;
  return out;
}

// The paper's Fig. 3 shape: one BBR vs one CUBIC flow. After warmup the
// entire event loop — heap maintenance, slot pool, packet rings, CC state,
// pacing — must run without touching the allocator.
TEST(ZeroAlloc, TwoFlowSteadyStateAllocatesNothing) {
  const SteadyAllocs a =
      run_dumbbell(1, 1, 50, 1.0, ImpairmentConfig{}, from_sec(2),
                   from_sec(5));
  EXPECT_GT(a.events, 10000u) << "scenario too small to be meaningful";
  EXPECT_EQ(a.news, 0u) << "steady-state hot path allocated";
  EXPECT_EQ(a.deletes, 0u) << "steady-state hot path freed";
}

// Many flows: per-flow pools and the shared event heap all at their
// high-water marks simultaneously.
TEST(ZeroAlloc, TenFlowSteadyStateAllocatesNothing) {
  const SteadyAllocs a =
      run_dumbbell(5, 5, 100, 1.0, ImpairmentConfig{}, from_sec(2),
                   from_sec(4));
  EXPECT_GT(a.events, 10000u);
  EXPECT_EQ(a.news, 0u) << "steady-state hot path allocated";
  EXPECT_EQ(a.deletes, 0u) << "steady-state hot path freed";
}

// The Fig. 9 cell shape that every NE figure sweeps: 25 CUBIC + 25 BBR
// through 100 Mbps / 40 ms / 5 BDP. The widest flow count and the deepest
// per-flow rings at once; without the reserve this shape allocates in
// steady state.
TEST(ZeroAlloc, FiftyFlowFig9CellSteadyStateAllocatesNothing) {
  const SteadyAllocs a =
      run_dumbbell(25, 25, 100, 5.0, ImpairmentConfig{}, from_sec(15),
                   from_sec(60));
  EXPECT_GT(a.events, 10000u);
  EXPECT_EQ(a.news, 0u) << "steady-state hot path allocated";
  EXPECT_EQ(a.deletes, 0u) << "steady-state hot path freed";
}

// Deep buffers stretch BBR's rounds, so its per-ack bandwidth filter
// holds its longest monotone sample runs there. The filter ring is sized
// from measured high-water marks (kBandwidthFilterReserve), not a worst
// case; these two shapes gate that size. First, many BBR flows sharing
// the link:
TEST(ZeroAlloc, BbrHeavyDeepBufferSteadyStateAllocatesNothing) {
  const SteadyAllocs a =
      run_dumbbell(8, 2, 100, 10.0, ImpairmentConfig{}, from_sec(5),
                   from_sec(15));
  EXPECT_GT(a.events, 10000u);
  EXPECT_EQ(a.news, 0u) << "steady-state hot path allocated";
  EXPECT_EQ(a.deletes, 0u) << "steady-state hot path freed";
}

// One BBR flow owns half of a fast deep-buffered link: the largest filter
// high-water mark seen at test scale (871 samples by 60 s).
TEST(ZeroAlloc, LoneBbrDeepBufferSteadyStateAllocatesNothing) {
  const SteadyAllocs a =
      run_dumbbell(1, 1, 100, 10.0, ImpairmentConfig{}, from_sec(5),
                   from_sec(60));
  EXPECT_GT(a.events, 10000u);
  EXPECT_EQ(a.news, 0u) << "steady-state hot path allocated";
  EXPECT_EQ(a.deletes, 0u) << "steady-state hot path freed";
}

// Loss + jitter + reordering drives the retransmit and out-of-order
// reassembly paths, which historically hid per-packet allocations.
TEST(ZeroAlloc, ImpairedSteadyStateAllocatesNothing) {
  ImpairmentConfig impair;
  impair.loss_rate = 0.005;
  impair.jitter = from_ms(2);
  impair.reorder_rate = 0.001;
  impair.reorder_delay = from_ms(5);
  const SteadyAllocs a =
      run_dumbbell(1, 1, 50, 1.0, impair, from_sec(2), from_sec(5));
  EXPECT_GT(a.events, 10000u);
  EXPECT_EQ(a.news, 0u) << "steady-state hot path allocated";
  EXPECT_EQ(a.deletes, 0u) << "steady-state hot path freed";
}

}  // namespace
}  // namespace bbrnash
