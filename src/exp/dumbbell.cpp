#include "exp/dumbbell.hpp"

#include <algorithm>
#include <utility>

#include "cc/cc_variant.hpp"
#include "net/aqm.hpp"

namespace bbrnash {

namespace {

/// Stateless seed mixer (SplitMix64 finalizer) for per-flow impairment
/// streams. Deliberately NOT drawn from the scenario's root Rng: a pristine
/// scenario must stay byte-identical to one where the impairment layer
/// does not exist at all.
std::uint64_t impairment_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + stream * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Dumbbell::Dumbbell(Simulator& sim, const Scenario& scenario,
                   ConservationAudit* audit, FlightRecorder* recorder)
    : sim_(sim),
      link_(sim, scenario.capacity, scenario.buffer_bytes,
            static_cast<std::uint32_t>(scenario.flows.size())) {
  const auto n = static_cast<std::uint32_t>(scenario.flows.size());
  Rng rng{scenario.seed};

  switch (scenario.aqm) {
    case AqmKind::kDropTail:
      break;
    case AqmKind::kRed: {
      RedConfig red;
      red.seed = scenario.seed ^ 0x9E3779B97F4A7C15ULL;
      link_.set_aqm(std::make_unique<RedPolicy>(red));
      break;
    }
    case AqmKind::kCoDel:
      link_.set_aqm(std::make_unique<CoDelPolicy>());
      break;
  }

  senders_.reserve(n);
  receivers_.reserve(n);
  fwd_lines_.reserve(n);
  rev_lines_.reserve(n);

  // Impairment stages (created only for impaired paths so the pristine
  // configuration is exactly the pre-impairment-layer simulation).
  data_stages_.resize(n);
  ack_stages_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const ImpairmentConfig& data_cfg =
        scenario.flows[i].impairments ? *scenario.flows[i].impairments
                                      : scenario.impairments;
    if (data_cfg.any()) {
      data_stages_[i] = std::make_unique<ImpairmentStage<Packet>>(
          sim_, data_cfg, impairment_seed(scenario.seed, 2ULL * i + 1));
      data_stages_[i]->set_sink(
          [&link = link_](const Packet& pkt) { link.send(pkt); });
    }
    if (scenario.ack_impairments.any()) {
      ack_stages_[i] = std::make_unique<ImpairmentStage<Ack>>(
          sim_, scenario.ack_impairments,
          impairment_seed(scenario.seed, 2ULL * i + 2));
    }
  }

  access_.resize(n);
  const TimeNs default_jitter = serialization_time(
      scenario.mss + kHeaderBytes, scenario.capacity);
  for (auto& a : access_) {
    a.rng = rng.fork();
    a.jitter = std::max<TimeNs>(
        1, scenario.access_jitter >= 0 ? scenario.access_jitter
                                       : default_jitter);
  }

  const bool instrumented = audit != nullptr || recorder != nullptr;
  for (std::uint32_t i = 0; i < n; ++i) {
    const FlowSpec& spec = scenario.flows[i];
    const TimeNs one_way = spec.base_rtt / 2;

    receivers_.push_back(std::make_unique<Receiver>(i));
    fwd_lines_.push_back(std::make_unique<DelayLine<Packet>>(sim_, one_way));
    rev_lines_.push_back(
        std::make_unique<DelayLine<Ack>>(sim_, spec.base_rtt - one_way));

    CcConfig cc_cfg;
    cc_cfg.mss = scenario.mss;
    cc_cfg.initial_cwnd = 10 * scenario.mss;
    cc_cfg.seed = rng.next_u64();
    cc_cfg.bbr_cwnd_gain = scenario.bbr_cwnd_gain;
    CcVariant cc = make_cc_variant(spec.cc, cc_cfg);

    SenderConfig snd_cfg;
    snd_cfg.mss = scenario.mss;
    snd_cfg.transfer_bytes = spec.transfer_bytes;
    ImpairmentStage<Packet>* data_stage = data_stages_[i].get();
    if (instrumented) {
      // Audit/recorder wrapper: identical transmit logic plus the ledger's
      // independent injection count and the flight-recorder note. Installed
      // as a *separate* lambda so the uninstrumented path pays nothing.
      senders_.push_back(std::make_unique<Sender>(
          sim_, i, snd_cfg, std::move(cc),
          [&sim = sim_, &link = link_, &access = access_, data_stage, audit,
           recorder, i](const Packet& pkt) {
            if (audit != nullptr) audit->note_injected(i);
            if (recorder != nullptr) {
              recorder->note(sim.now(), FlightEventKind::kInject, i, pkt.seq,
                             pkt.is_retransmit ? 1 : 0);
            }
            access[i].last_arrival = std::max(
                access[i].last_arrival + 1,
                sim.now() + static_cast<TimeNs>(access[i].rng.next_below(
                                static_cast<std::uint64_t>(access[i].jitter))));
            sim.schedule_at(access[i].last_arrival,
                            [&link, data_stage, audit, i, pkt] {
                              if (audit != nullptr) audit->note_access_exit(i);
                              if (data_stage != nullptr) {
                                data_stage->send(pkt);
                              } else {
                                link.send(pkt);
                              }
                            });
          }));
    } else {
      senders_.push_back(std::make_unique<Sender>(
          sim_, i, snd_cfg, std::move(cc),
          [&sim = sim_, &link = link_, &access = access_, data_stage,
           i](const Packet& pkt) {
            // Access-path jitter with a monotonicity guard so a flow's own
            // packets are never reordered (deliberate reordering is the
            // impairment stage's job).
            access[i].last_arrival = std::max(
                access[i].last_arrival + 1,
                sim.now() + static_cast<TimeNs>(access[i].rng.next_below(
                                static_cast<std::uint64_t>(access[i].jitter))));
            sim.schedule_at(access[i].last_arrival, [&link, data_stage, pkt] {
              if (data_stage != nullptr) {
                data_stage->send(pkt);
              } else {
                link.send(pkt);
              }
            });
          }));
    }

    // Bottleneck exit -> forward propagation -> receiver.
    if (recorder != nullptr) {
      fwd_lines_[i]->set_sink([&receivers = receivers_, &sim = sim_, recorder,
                               i](const Packet& pkt) {
        recorder->note(sim.now(), FlightEventKind::kDeliver, i, pkt.seq);
        receivers[i]->on_packet(pkt);
      });
    } else {
      fwd_lines_[i]->set_sink([&receivers = receivers_, i](const Packet& pkt) {
        receivers[i]->on_packet(pkt);
      });
    }
    // Receiver -> (ACK impairments) -> reverse propagation -> sender.
    if (ack_stages_[i] != nullptr) {
      ack_stages_[i]->set_sink([&rev_lines = rev_lines_, i](const Ack& ack) {
        rev_lines[i]->send(ack);
      });
      ImpairmentStage<Ack>* ack_stage = ack_stages_[i].get();
      receivers_[i]->set_ack_sink(
          [ack_stage](const Ack& ack) { ack_stage->send(ack); });
    } else {
      receivers_[i]->set_ack_sink([&rev_lines = rev_lines_, i](const Ack& ack) {
        rev_lines[i]->send(ack);
      });
    }
    rev_lines_[i]->set_sink([&senders = senders_, i](const Ack& ack) {
      senders[i]->on_ack(ack);
    });
  }

  link_.set_sink([&fwd_lines = fwd_lines_](const Packet& pkt) {
    fwd_lines[pkt.flow]->send(pkt);
  });
  if (recorder != nullptr) {
    link_.set_drop_hook([&sim = sim_, recorder](const Packet& pkt) {
      recorder->note(sim.now(), FlightEventKind::kQueueDrop, pkt.flow,
                     pkt.seq);
    });
  }

  // Group instrumentation: aggregate CUBIC occupancy drives the model's
  // b_cmin / b_cmax validation, aggregate non-CUBIC occupancy is b_b.
  std::vector<FlowId> cubic_ids;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (scenario.flows[i].cc == CcKind::kCubic) cubic_ids.push_back(i);
  }
  if (!cubic_ids.empty()) link_.queue().track_group(cubic_ids);

  // Start times: explicit start times win; otherwise a deterministic
  // jitter decorrelates the slow starts.
  start_at_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const TimeNs jitter =
        scenario.start_jitter > 0
            ? static_cast<TimeNs>(rng.next_below(
                  static_cast<std::uint64_t>(scenario.start_jitter)))
            : 0;
    start_at_.push_back(scenario.flows[i].start_at != kTimeNone
                            ? scenario.flows[i].start_at
                            : jitter);
  }
}

void Dumbbell::start() {
  for (std::uint32_t i = 0; i < flows(); ++i) senders_[i]->start(start_at_[i]);
}

void Dumbbell::reserve_steady_state() {
  // The aggregate in-flight span is bounded by BDP + buffer packets (at
  // the longest base RTT), and each in-flight packet accounts for a
  // handful of scheduled events. Per-flow rings get the aggregate span
  // scaled by the flow count, with slack for skew — oversizing them is
  // not free, because a ring's head sweeps its whole buffer and an
  // oversized ring trades cache locality for nothing. Every pool still
  // grows on demand if a run overruns the hint.
  TimeNs rtt = 0;
  for (std::uint32_t i = 0; i < flows(); ++i) {
    rtt = std::max(rtt, fwd_lines_[i]->delay() + rev_lines_[i]->delay());
  }
  const Bytes bdp = bdp_bytes(link_.rate(), rtt);
  const auto total_window_pkts = static_cast<std::size_t>(
      (bdp + link_.queue().capacity()) / (kDefaultMss + kHeaderBytes) + 1);
  const std::size_t per_flow_pkts = 4 * total_window_pkts / flows() + 512;
  sim_.reserve_events(16 * total_window_pkts + 4096);
  // A BBR-family bandwidth filter holds up to 10 rounds of samples, and a
  // round stretches to (bdp + buffer) / bdp base RTTs once the buffer
  // fills. The CCAs' own kBandwidthFilterReserve covers buffers up to
  // ~10 BDP (the zero-alloc shapes gate exactly that size); deeper
  // buffers scale it up.
  const std::size_t filter_samples =
      kBandwidthFilterReserve *
      std::max<std::size_t>(
          1, static_cast<std::size_t>((bdp + link_.queue().capacity()) /
                                      (11 * bdp)));
  for (std::uint32_t i = 0; i < flows(); ++i) {
    senders_[i]->reserve_windows(per_flow_pkts);
    receivers_[i]->reserve_reorder(per_flow_pkts);
    CongestionControl& cc = senders_[i]->cc();
    if (auto* bbr = dynamic_cast<Bbr*>(&cc)) {
      bbr->reserve_filter(filter_samples);
    } else if (auto* v2 = dynamic_cast<BbrV2*>(&cc)) {
      v2->reserve_filter(filter_samples);
    }
  }
}

}  // namespace bbrnash
