// Wire-level packet representation.
//
// The simulator is byte-accurate: `wire_bytes` (payload + header) is what
// occupies queue space and serialization time. Sender-side bookkeeping
// (delivery-rate snapshots, send ordering) lives in the sender, keyed by
// (flow, seq) — packets carry only what a real wire would.
#pragma once

#include <cstdint>

#include "util/units.hpp"

namespace bbrnash {

using FlowId = std::uint32_t;
using SeqNo = std::uint64_t;

/// Default Ethernet-ish sizing: 1448 B of payload + 52 B TCP/IP header.
inline constexpr Bytes kDefaultMss = 1448;
inline constexpr Bytes kHeaderBytes = 52;

struct Packet {
  FlowId flow = 0;
  SeqNo seq = 0;          ///< packet sequence number (per flow, 0-based)
  Bytes payload_bytes = kDefaultMss;
  Bytes wire_bytes = kDefaultMss + kHeaderBytes;
  TimeNs enqueued_at = kTimeNone;  ///< set by the bottleneck on entry
  bool is_retransmit = false;
};

/// Acknowledgement travelling the reverse path. ACKs are modelled as
/// delay-only (no reverse-path congestion), as in the paper's testbed where
/// the reverse direction was uncongested.
struct Ack {
  FlowId flow = 0;
  SeqNo acked_seq = 0;   ///< the packet that triggered this ACK (SACK-like)
  SeqNo cum_ack = 0;     ///< next in-order sequence expected by receiver
};

}  // namespace bbrnash
