#include "flow/receiver.hpp"

#include <vector>

#include <gtest/gtest.h>

namespace bbrnash {
namespace {

Packet make_packet(SeqNo seq) {
  Packet p;
  p.flow = 0;
  p.seq = seq;
  return p;
}

TEST(Receiver, AcksEveryPacket) {
  Receiver r{0};
  std::vector<Ack> acks;
  r.set_ack_sink([&](const Ack& a) { acks.push_back(a); });
  r.on_packet(make_packet(0));
  r.on_packet(make_packet(1));
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[0].acked_seq, 0u);
  EXPECT_EQ(acks[0].cum_ack, 1u);
  EXPECT_EQ(acks[1].cum_ack, 2u);
}

TEST(Receiver, HoleFreezesCumAck) {
  Receiver r{0};
  std::vector<Ack> acks;
  r.set_ack_sink([&](const Ack& a) { acks.push_back(a); });
  r.on_packet(make_packet(0));
  r.on_packet(make_packet(2));  // 1 missing
  r.on_packet(make_packet(3));
  ASSERT_EQ(acks.size(), 3u);
  EXPECT_EQ(acks[1].cum_ack, 1u);
  EXPECT_EQ(acks[1].acked_seq, 2u);  // SACK-equivalent info
  EXPECT_EQ(acks[2].cum_ack, 1u);
  EXPECT_EQ(r.reorder_buffer_size(), 2u);
}

TEST(Receiver, HoleFillDrainsBuffer) {
  Receiver r{0};
  Ack last;
  r.set_ack_sink([&](const Ack& a) { last = a; });
  r.on_packet(make_packet(0));
  r.on_packet(make_packet(2));
  r.on_packet(make_packet(3));
  r.on_packet(make_packet(1));  // fills the hole
  EXPECT_EQ(last.cum_ack, 4u);
  EXPECT_EQ(r.reorder_buffer_size(), 0u);
}

TEST(Receiver, DuplicateIsAckedButNotCounted) {
  Receiver r{0};
  std::vector<Ack> acks;
  r.set_ack_sink([&](const Ack& a) { acks.push_back(a); });
  r.on_packet(make_packet(0));
  r.on_packet(make_packet(0));  // spurious retransmit
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[1].cum_ack, 1u);
  EXPECT_EQ(r.cumulative_next(), 1u);
}

TEST(Receiver, DuplicateAboveCumIgnoredByBuffer) {
  Receiver r{0};
  r.set_ack_sink([](const Ack&) {});
  r.on_packet(make_packet(5));
  r.on_packet(make_packet(5));
  EXPECT_EQ(r.reorder_buffer_size(), 1u);  // std::set dedups
}

TEST(Receiver, CountsPacketsIncludingDuplicates) {
  Receiver r{0};
  r.set_ack_sink([](const Ack&) {});
  r.on_packet(make_packet(0));
  r.on_packet(make_packet(0));
  r.on_packet(make_packet(1));
  EXPECT_EQ(r.packets_received(), 3u);
}

TEST(Receiver, LongOutOfOrderRun) {
  Receiver r{0};
  r.set_ack_sink([](const Ack&) {});
  // Deliver 1..99, then 0.
  for (SeqNo s = 1; s < 100; ++s) r.on_packet(make_packet(s));
  EXPECT_EQ(r.cumulative_next(), 0u);
  r.on_packet(make_packet(0));
  EXPECT_EQ(r.cumulative_next(), 100u);
  EXPECT_EQ(r.reorder_buffer_size(), 0u);
}

}  // namespace
}  // namespace bbrnash
