// Dumbbell: the one place a Scenario becomes a live simulation topology.
//
// Topology per flow i (base RTT r_i):
//
//   Sender_i --access jitter--> [data ImpairmentStage_i]
//            --> [BottleneckLink: rate C, AQM/drop-tail buffer B]
//            --(serialize)--> DelayLine fwd (r_i/2) --> Receiver_i
//   Receiver_i --ACK--> [ACK ImpairmentStage_i]
//            --> DelayLine rev (r_i - r_i/2) --> Sender_i
//
// Bracketed stages exist only when the scenario impairs that path, so a
// pristine scenario is exactly the stage-free simulation. The access hop
// adds a per-packet delay uniform in [0, access_jitter) with a per-flow
// monotonicity guard (see Scenario::access_jitter). All of a flow's
// propagation delay is split across the two delay lines, so the base
// (congestion-free) RTT is exactly r_i and every queued byte adds sojourn
// time at the shared bottleneck — the configuration the paper's model
// describes (Fig. 2).
//
// run_scenario builds every simulation through this class; the zero-alloc
// tests, the simulator-core bench, the CC state-machine tests and
// tools/debug_trace do too, so they all exercise the production wiring.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exp/scenario.hpp"
#include "flow/receiver.hpp"
#include "flow/sender.hpp"
#include "net/bottleneck_link.hpp"
#include "net/delay_line.hpp"
#include "net/impairment.hpp"
#include "sim/audit.hpp"
#include "sim/flight_recorder.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bbrnash {

class Dumbbell {
 public:
  /// Wires every component of `scenario` onto `sim` without scheduling any
  /// event. `audit` and `recorder` may be null; when both are, senders get
  /// the uninstrumented transmit path. The root Rng (scenario.seed) is
  /// drawn in a fixed order: access-path forks, per-flow CC seeds, then
  /// start jitter.
  Dumbbell(Simulator& sim, const Scenario& scenario, ConservationAudit* audit,
           FlightRecorder* recorder);

  Dumbbell(const Dumbbell&) = delete;
  Dumbbell& operator=(const Dumbbell&) = delete;

  /// Schedules every sender's start: FlowSpec::start_at when set, else
  /// the start jitter drawn at construction.
  void start();

  /// Pre-sizes the event heap, every per-flow packet ring and the
  /// BBR-family bandwidth filters past their expected high-water marks, so
  /// the steady state never grows a pool.
  /// For the zero-allocation gates and the simulator-core bench only:
  /// run_scenario does not call it, because the reserve is sized for the
  /// worst flow mix and would multiply a figure's peak RSS.
  void reserve_steady_state();

  [[nodiscard]] std::uint32_t flows() const noexcept {
    return static_cast<std::uint32_t>(senders_.size());
  }
  [[nodiscard]] BottleneckLink& link() noexcept { return link_; }
  [[nodiscard]] Sender& sender(std::uint32_t i) { return *senders_[i]; }
  [[nodiscard]] const Receiver& receiver(std::uint32_t i) const {
    return *receivers_[i];
  }
  /// Null when flow i's data (ACK) path is pristine.
  [[nodiscard]] const ImpairmentStage<Packet>* data_stage(
      std::uint32_t i) const {
    return data_stages_[i].get();
  }
  [[nodiscard]] const ImpairmentStage<Ack>* ack_stage(std::uint32_t i) const {
    return ack_stages_[i].get();
  }
  [[nodiscard]] const DelayLine<Packet>& fwd_line(std::uint32_t i) const {
    return *fwd_lines_[i];
  }
  [[nodiscard]] const DelayLine<Ack>& rev_line(std::uint32_t i) const {
    return *rev_lines_[i];
  }

 private:
  /// Per-flow access-path state (see Scenario::access_jitter).
  struct AccessPath {
    Rng rng;
    TimeNs jitter = 1;
    TimeNs last_arrival = 0;
  };

  Simulator& sim_;
  BottleneckLink link_;
  std::vector<std::unique_ptr<Sender>> senders_;
  std::vector<std::unique_ptr<Receiver>> receivers_;
  std::vector<std::unique_ptr<DelayLine<Packet>>> fwd_lines_;
  std::vector<std::unique_ptr<DelayLine<Ack>>> rev_lines_;
  std::vector<std::unique_ptr<ImpairmentStage<Packet>>> data_stages_;
  std::vector<std::unique_ptr<ImpairmentStage<Ack>>> ack_stages_;
  std::vector<AccessPath> access_;
  std::vector<TimeNs> start_at_;
};

}  // namespace bbrnash
