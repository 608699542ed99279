// Devirtualized congestion-control dispatch.
//
// The Sender's hot loop consults its CC several times per ACK (cwnd,
// pacing_rate, pacing_burst_segments, on_ack); through the virtual
// CongestionControl interface each consult is an indirect call the
// compiler cannot inline into the transport. CcVariant closes that gap:
// it holds one of the seven concrete algorithms *by value* in a
// std::variant and dispatches with a switch on the variant index, so
// every member call resolves to a direct (inlinable — all seven classes
// are `final`) call on the concrete type.
//
// make_cc_variant (factory.cpp) is the only way a simulation builds its
// CCAs. The eighth alternative, a std::unique_ptr<CongestionControl>, is
// the seam for test doubles only: a scripted CC (tests/flow/test_sender.cpp)
// drives the Sender through it at virtual-dispatch cost. No run goes
// through it.
//
// Adding CCA #8: see DESIGN.md §6a — implement the class (final, derived
// from CongestionControl for introspection), append it to the Var
// alternative list *before* the unique_ptr seam, add a case label to
// both dispatch() overloads, and extend make_cc_variant in factory.cpp.
#pragma once

#include <memory>
#include <utility>
#include <variant>

#include "cc/bbr.hpp"
#include "cc/bbrv2.hpp"
#include "cc/congestion_control.hpp"
#include "cc/copa.hpp"
#include "cc/cubic.hpp"
#include "cc/reno.hpp"
#include "cc/vegas.hpp"
#include "cc/vivace.hpp"

namespace bbrnash {

class CcVariant {
  using Var = std::variant<Cubic, Reno, Bbr, BbrV2, Copa, Vivace, Vegas,
                           std::unique_ptr<CongestionControl>>;

  /// Switch-on-index dispatch (instead of std::visit's function-pointer
  /// table) so each arm is a direct call the optimizer inlines into the
  /// sender hot loop. The test-double arm dereferences to the base class,
  /// which keeps its virtual dispatch. Defined before all uses: the
  /// deduced (decltype(auto)) return type must be resolvable at each call.
  template <typename F>
  decltype(auto) dispatch(F&& f) {
    switch (v_.index()) {
      case 0: return f(*std::get_if<0>(&v_));
      case 1: return f(*std::get_if<1>(&v_));
      case 2: return f(*std::get_if<2>(&v_));
      case 3: return f(*std::get_if<3>(&v_));
      case 4: return f(*std::get_if<4>(&v_));
      case 5: return f(*std::get_if<5>(&v_));
      case 6: return f(*std::get_if<6>(&v_));
      default: return f(**std::get_if<7>(&v_));
    }
  }
  template <typename F>
  decltype(auto) dispatch(F&& f) const {
    switch (v_.index()) {
      case 0: return f(*std::get_if<0>(&v_));
      case 1: return f(*std::get_if<1>(&v_));
      case 2: return f(*std::get_if<2>(&v_));
      case 3: return f(*std::get_if<3>(&v_));
      case 4: return f(*std::get_if<4>(&v_));
      case 5: return f(*std::get_if<5>(&v_));
      case 6: return f(*std::get_if<6>(&v_));
      default: return f(**std::get_if<7>(&v_));
    }
  }

  Var v_;

 public:
  explicit CcVariant(Cubic cc) : v_(std::move(cc)) {}
  explicit CcVariant(Reno cc) : v_(std::move(cc)) {}
  explicit CcVariant(Bbr cc) : v_(std::move(cc)) {}
  explicit CcVariant(BbrV2 cc) : v_(std::move(cc)) {}
  explicit CcVariant(Copa cc) : v_(std::move(cc)) {}
  explicit CcVariant(Vivace cc) : v_(std::move(cc)) {}
  explicit CcVariant(Vegas cc) : v_(std::move(cc)) {}
  /// Test-double seam: wraps any CongestionControl (e.g. a scripted one)
  /// behind virtual dispatch.
  explicit CcVariant(std::unique_ptr<CongestionControl> cc)
      : v_(std::move(cc)) {}

  CcVariant(CcVariant&&) = default;
  CcVariant& operator=(CcVariant&&) = default;

  void on_start(TimeNs now) {
    dispatch([&](auto& c) { c.on_start(now); });
  }
  void on_ack(const AckEvent& ev) {
    dispatch([&](auto& c) { c.on_ack(ev); });
  }
  void on_congestion_event(const LossEvent& ev) {
    dispatch([&](auto& c) { c.on_congestion_event(ev); });
  }
  void on_packet_lost(TimeNs now, Bytes lost_bytes, Bytes inflight) {
    dispatch([&](auto& c) { c.on_packet_lost(now, lost_bytes, inflight); });
  }
  void on_rto(TimeNs now) {
    dispatch([&](auto& c) { c.on_rto(now); });
  }
  [[nodiscard]] Bytes cwnd() const {
    return dispatch([](const auto& c) { return c.cwnd(); });
  }
  [[nodiscard]] BytesPerSec pacing_rate() const {
    return dispatch([](const auto& c) { return c.pacing_rate(); });
  }
  [[nodiscard]] int pacing_burst_segments() const {
    return dispatch([](const auto& c) { return c.pacing_burst_segments(); });
  }

  /// The held algorithm as its (virtual) base — for introspection sites
  /// that snapshot state or dynamic_cast to a concrete CCA. The reference
  /// has the true dynamic type in every alternative.
  [[nodiscard]] CongestionControl& base() {
    return dispatch(
        [](auto& c) -> CongestionControl& { return c; });
  }
  [[nodiscard]] const CongestionControl& base() const {
    return dispatch(
        [](const auto& c) -> const CongestionControl& { return c; });
  }
};

/// Creates a by-value CC instance of the given kind — the one factory
/// every simulation uses (CcConfig -> per-algorithm config mapping).
[[nodiscard]] CcVariant make_cc_variant(CcKind kind, const CcConfig& cfg);

}  // namespace bbrnash
