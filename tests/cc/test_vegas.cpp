#include "cc/vegas.hpp"

#include <gtest/gtest.h>

#include "cc/cc_variant.hpp"
#include "helpers/loopback.hpp"

namespace bbrnash {
namespace {

using bbrnash::testing::Loopback;
using bbrnash::testing::loopback;

/// `flows` Vegas flows through 20 Mbps / 40 ms and a `buffer_bdps`-BDP
/// buffer.
Scenario path(std::size_t flows, int buffer_bdps = 4) {
  return loopback(mbps(20), buffer_bdps * bdp_bytes(mbps(20), from_ms(40)),
                  from_ms(40), std::vector<CcKind>(flows, CcKind::kVegas));
}

TEST(Vegas, FillsAnEmptyLink) {
  Loopback lb{path(1)};
  lb.sim.run_until(from_sec(15));
  const double goodput =
      to_mbps(static_cast<double>(lb.net.sender(0).delivered_bytes()) / 15.0);
  EXPECT_GT(goodput, 16.0);
}

TEST(Vegas, HoldsTinyStandingQueue) {
  Loopback lb{path(1, 10)};
  lb.sim.schedule_at(from_sec(8), [&] {
    lb.net.link().queue().begin_measurement(lb.sim.now());
  });
  lb.sim.run_until(from_sec(18));
  lb.net.link().queue().finalize(lb.sim.now());
  // alpha..beta of 2..4 packets: average well under 10 packets.
  EXPECT_LT(lb.net.link().queue().avg_occupied_bytes(), 10.0 * 1500.0);
}

TEST(Vegas, BaseRttLearned) {
  Loopback lb{path(1)};
  lb.sim.run_until(from_sec(5));
  const auto& vegas = dynamic_cast<const Vegas&>(lb.cc(0));
  EXPECT_NEAR(to_ms(vegas.base_rtt()), 40.0, 2.0);
}

TEST(Vegas, CedesToReno) {
  // The classic result the related-work games rest on: loss-based Reno
  // starves delay-based Vegas in a shared drop-tail queue.
  Loopback lb{loopback(mbps(20), 4 * bdp_bytes(mbps(20), from_ms(40)),
                       from_ms(40), {CcKind::kReno, CcKind::kVegas})};
  lb.sim.run_until(from_sec(30));
  const auto reno = static_cast<double>(lb.net.sender(0).delivered_bytes());
  const auto vegas = static_cast<double>(lb.net.sender(1).delivered_bytes());
  EXPECT_GT(reno, 1.5 * vegas);
}

TEST(Vegas, EstimatorStepsOutsideRounds) {
  Vegas v;
  v.on_start(0);
  const Bytes w0 = v.cwnd();
  // Mid-round acks (prior_delivered below the round target) don't adjust.
  AckEvent ev;
  ev.now = from_ms(50);
  ev.rtt = from_ms(40);
  ev.acked_bytes = kDefaultMss;
  ev.delivered = kDefaultMss;
  ev.prior_delivered = 0;
  v.on_ack(ev);  // first round boundary (next_round_delivered_ starts 0)
  ev.prior_delivered = 0;
  ev.delivered = 2 * kDefaultMss;
  // Now prior_delivered < next_round_delivered: no further action.
  v.on_ack(ev);
  EXPECT_GE(v.cwnd(), w0 / 2);
}

TEST(Vegas, HalvesOnCongestionEvent) {
  Vegas v;
  v.on_start(0);
  const Bytes before = v.cwnd();
  v.on_congestion_event({});
  EXPECT_EQ(v.cwnd(), before / 2);
  EXPECT_FALSE(v.in_slow_start());
}

TEST(Vegas, RtoRestartsSlowStart) {
  Vegas v;
  v.on_start(0);
  v.on_congestion_event({});
  v.on_rto(from_sec(1));
  EXPECT_TRUE(v.in_slow_start());
  EXPECT_EQ(v.cwnd(), 2 * kDefaultMss);
}

TEST(Vegas, FactoryCreatesIt) {
  const CcVariant cc = make_cc_variant(CcKind::kVegas, CcConfig{});
  EXPECT_EQ(cc.base().name(), "vegas");
  EXPECT_STREQ(to_string(CcKind::kVegas), "vegas");
}

}  // namespace
}  // namespace bbrnash
