#include "cc/copa.hpp"

#include <gtest/gtest.h>

#include "helpers/loopback.hpp"

namespace bbrnash {
namespace {

using bbrnash::testing::Loopback;
using bbrnash::testing::loopback;

/// `flows` Copa flows through 20 Mbps / 40 ms and a `buffer_bdps`-BDP
/// buffer.
Scenario path(std::size_t flows, int buffer_bdps = 4) {
  return loopback(mbps(20), buffer_bdps * bdp_bytes(mbps(20), from_ms(40)),
                  from_ms(40), std::vector<CcKind>(flows, CcKind::kCopa));
}

TEST(Copa, FillsAnEmptyLink) {
  Loopback lb{path(1)};
  lb.sim.run_until(from_sec(10));
  const double goodput =
      to_mbps(static_cast<double>(lb.net.sender(0).delivered_bytes()) / 10.0);
  EXPECT_GT(goodput, 15.0);
}

TEST(Copa, KeepsQueueShallow) {
  // delta = 0.5 targets ~2 packets of queue per flow.
  Loopback lb{path(1, 10)};
  lb.sim.schedule_at(from_sec(3), [&] {
    lb.net.link().queue().begin_measurement(lb.sim.now());
  });
  lb.sim.run_until(from_sec(10));
  lb.net.link().queue().finalize(lb.sim.now());
  EXPECT_LT(lb.net.link().queue().avg_occupied_bytes(),
            0.5 * static_cast<double>(bdp_bytes(mbps(20), from_ms(40))));
}

TEST(Copa, CedesToCubic) {
  // The paper's §4.2 premise: Copa does not grab a disproportionate share.
  Loopback lb{loopback(mbps(20), 3 * bdp_bytes(mbps(20), from_ms(40)),
                       from_ms(40), {CcKind::kCubic, CcKind::kCopa})};
  lb.sim.run_until(from_sec(30));
  const auto cubic = static_cast<double>(lb.net.sender(0).delivered_bytes());
  const auto copa = static_cast<double>(lb.net.sender(1).delivered_bytes());
  EXPECT_LT(copa, cubic);
  EXPECT_LT(copa / (copa + cubic), 0.5);
}

TEST(Copa, QueueingDelaySignalComputed) {
  Copa c;
  c.on_start(0);
  AckEvent ev;
  ev.now = from_ms(100);
  ev.rtt = from_ms(40);
  ev.acked_bytes = kDefaultMss;
  c.on_ack(ev);
  EXPECT_EQ(c.queuing_delay(), 0);  // single sample: standing == min
  ev.now = from_ms(140);
  ev.rtt = from_ms(60);
  c.on_ack(ev);
  EXPECT_EQ(c.queuing_delay(), from_ms(20));
}

TEST(Copa, VelocityResetsOnDirectionChange) {
  Loopback lb{path(1)};
  lb.sim.run_until(from_sec(10));
  const auto& copa = dynamic_cast<const Copa&>(lb.cc(0));
  // At steady state Copa oscillates around its target: velocity stays low.
  EXPECT_LE(copa.velocity(), 4.0);
}

TEST(Copa, RtoResetsToSlowStart) {
  Copa c;
  c.on_start(0);
  c.on_rto(from_sec(1));
  EXPECT_EQ(c.cwnd(), CopaConfig{}.min_cwnd);
  EXPECT_DOUBLE_EQ(c.velocity(), 1.0);
}

TEST(Copa, PacingTracksWindow) {
  Loopback lb{path(1)};
  lb.sim.run_until(from_sec(5));
  const auto& copa = dynamic_cast<const Copa&>(lb.cc(0));
  EXPECT_LT(copa.pacing_rate(), kNoPacing);
  EXPECT_GT(copa.pacing_rate(), 0.0);
}

}  // namespace
}  // namespace bbrnash
