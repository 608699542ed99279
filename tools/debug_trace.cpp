// Developer tool: trace per-second state of a 1v1 CUBIC/BBR run.
// Not part of the shipped benches; used to validate CC dynamics.
//
//   debug_trace [cap_mbps=50] [rtt_ms=40] [buf_bdp=4] [dur_s=40]
#include <cstdio>
#include <stdexcept>

#include "cc/bbr.hpp"
#include "exp/cli_flags.hpp"
#include "exp/dumbbell.hpp"

using namespace bbrnash;

int main(int argc, char** argv) try {
  const double cap_mbps =
      argc > 1 ? parse_double_strict("cap_mbps", argv[1]) : 50.0;
  const double rtt_ms = argc > 2 ? parse_double_strict("rtt_ms", argv[2]) : 40.0;
  const double buf_bdp =
      argc > 3 ? parse_double_strict("buf_bdp", argv[3]) : 4.0;
  const double dur_s = argc > 4 ? parse_double_strict("dur_s", argv[4]) : 40.0;

  Scenario sc;
  sc.capacity = mbps(cap_mbps);
  sc.buffer_bytes = static_cast<Bytes>(buf_bdp * sc.capacity * rtt_ms / 1e3);
  const TimeNs rtt = from_ms(rtt_ms);
  sc.flows = {{.cc = CcKind::kCubic, .base_rtt = rtt, .start_at = 0},
              {.cc = CcKind::kBbr, .base_rtt = rtt, .start_at = from_ms(50)}};
  sc.duration = from_sec(dur_s) + 1;
  sc.warmup = 0;
  sc.validate();

  Simulator sim;
  Dumbbell net{sim, sc, nullptr, nullptr};
  net.start();
  const Sender& cubic = net.sender(0);
  const Sender& bbr_snd = net.sender(1);
  const auto& bbr = dynamic_cast<const Bbr&>(bbr_snd.cc());
  const DropTailQueue& queue = net.link().queue();

  std::printf(
      "t cubic_mbps bbr_mbps cubic_cwnd_pk bbr_cwnd_pk bbr_state bbr_btlbw "
      "bbr_rtprop_ms q_pct q_cubic q_bbr retx_c retx_b rtos_c rtos_b\n");
  Bytes last_del[2] = {0, 0};
  for (double t = 1.0; t <= dur_s; t += 1.0) {
    sim.schedule_at(from_sec(t), [&, t] {
      const char* st = "?";
      switch (bbr.state()) {
        case Bbr::State::kStartup: st = "STARTUP"; break;
        case Bbr::State::kDrain: st = "DRAIN"; break;
        case Bbr::State::kProbeBw: st = "PROBEBW"; break;
        case Bbr::State::kProbeRtt: st = "PROBERTT"; break;
      }
      const double d0 = to_mbps(static_cast<double>(cubic.delivered_bytes() - last_del[0]));
      const double d1 = to_mbps(static_cast<double>(bbr_snd.delivered_bytes() - last_del[1]));
      last_del[0] = cubic.delivered_bytes();
      last_del[1] = bbr_snd.delivered_bytes();
      std::printf(
          "%5.0f %7.2f %7.2f %7ld %7ld %-8s %7.2f %7.2f %5.1f %8ld %8ld %5lu %5lu %3lu %3lu\n",
          t, d0, d1, cubic.cc().cwnd() / kDefaultMss,
          bbr.cwnd() / kDefaultMss, st, to_mbps(bbr.btlbw()),
          to_ms(bbr.rtprop()),
          100.0 * static_cast<double>(queue.occupied_bytes()) /
              static_cast<double>(sc.buffer_bytes),
          queue.flow_occupancy(0) / 1500, queue.flow_occupancy(1) / 1500,
          cubic.retransmit_count(), bbr_snd.retransmit_count(),
          cubic.rto_count(), bbr_snd.rto_count());
    });
  }
  sim.run_until(sc.duration);
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "debug_trace: invalid configuration: %s\n", e.what());
  return 2;
}
