// run_scenario digests: the full RunOutcome of six fixed scenarios, pinned
// as literal strings. Each covers one branch of the production wiring —
// pristine drop-tail, data + ACK impairment stages under a capacity
// schedule, RED, CoDel, the audited (instrumented) transmit path with the
// flight recorder, and a multi-RTT mix with a finite transfer — so a
// change to how the dumbbell is built, how seeds are drawn, or the order
// in which events are scheduled shows up here as a diff, not as a drift
// in some figure. The expected strings were recorded before the topology
// wiring moved into exp/dumbbell.cpp; a refactor of the wiring must leave
// them untouched. Doubles are printed with %.17g, so string equality is
// bit-identity.
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "exp/run_outcome.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_runner.hpp"
#include "model/network_params.hpp"
#include "util/units.hpp"

namespace bbrnash {
namespace {

void append(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g,", v);
  out += buf;
}

void append(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
  out += ',';
}

/// Every field of a RunOutcome except the wall time.
std::string encode(const RunOutcome& o) {
  std::string out;
  out += to_string(o.status);
  out += '|';
  append(out, o.seed_used);
  append(out, static_cast<std::uint64_t>(o.attempts));
  append(out, o.diagnostics.events_executed);
  append(out, o.diagnostics.pending_events);
  append(out, static_cast<std::uint64_t>(o.diagnostics.sim_time_reached));
  out += '|';
  const RunResult& r = o.result;
  append(out, r.avg_queue_delay_ms);
  append(out, r.avg_queue_bytes);
  append(out, r.link_utilization);
  append(out, r.total_drops);
  append(out, r.cubic_buffer_avg);
  append(out, static_cast<std::uint64_t>(r.cubic_buffer_min));
  append(out, static_cast<std::uint64_t>(r.cubic_buffer_max));
  append(out, r.noncubic_buffer_avg);
  for (const ImpairmentCounters& c : {r.data_impairments, r.ack_impairments}) {
    append(out, c.offered);
    append(out, c.dropped);
    append(out, c.duplicated);
    append(out, c.reordered);
  }
  for (const FlowResult& f : r.flows) {
    out += '|';
    out += to_string(f.cc);
    out += ',';
    append(out, static_cast<std::uint64_t>(f.base_rtt));
    append(out, f.stats.goodput_bps);
    append(out, f.stats.avg_rtt_ms);
    append(out, f.stats.min_rtt_ms);
    append(out, f.stats.max_rtt_ms);
    append(out, f.stats.retransmits);
    append(out, f.stats.rtos);
    append(out, f.stats.avg_inflight_bytes);
    append(out, static_cast<std::uint64_t>(f.stats.completed_at));
    append(out, f.stats.avg_queue_occupancy_bytes);
    append(out, static_cast<std::uint64_t>(f.stats.min_queue_occupancy_bytes));
    append(out, static_cast<std::uint64_t>(f.stats.max_queue_occupancy_bytes));
  }
  return out;
}

/// 2 CUBIC + 2 `other` at 100 Mbps / 40 ms / 2 BDP, 4 s with 1 s warm-up.
Scenario base(CcKind other = CcKind::kBbr) {
  Scenario s = make_mix_scenario(make_params(100, 40, 2), 2, 2, other);
  s.duration = from_sec(4);
  s.warmup = from_sec(1);
  s.seed = 11;
  return s;
}

std::string digest(const Scenario& s) {
  const RunOutcome out = run_scenario_guarded(s);
  EXPECT_TRUE(out.ok()) << out.diagnostics.message;
  return encode(out);
}

TEST(RunDigest, PristineCubicBbr) {
  EXPECT_EQ(digest(base()),
            "ok"
            "|11,1,130268,339,4000000000,"
            "|74.974708000000007,937183.85140748799,1,1066,"
            "783816.59812450351,685500,850500,153367.25328299968,0,0,0,0,0,0,"
            "0,0,"
            "|cubic,40000000,5540530.666666667,114.76100008711526,101.88,"
            "117.84,0,0,638529.19248009881,18446744073709551615,"
            "430969.36901599885,198000,700500,"
            "|cubic,40000000,4510520,114.96929695024103,109.68000000000001,"
            "117.84,0,0,521204.34565785533,18446744073709551615,"
            "352847.22910850303,94500,571500,"
            "|bbr,40000000,984640,114.83879813627446,102.439922,117.84,0,0,"
            "111455.36848390306,18446744073709551615,74799.683905499754,"
            "24000,120000,"
            "|bbr,40000000,1030976,114.79382430898869,101.909043,117.84,0,0,"
            "116801.40382376284,18446744073709551615,78567.569377499924,"
            "36000,142500,");
}

TEST(RunDigest, ImpairedWithCapacitySchedule) {
  Scenario s = base();
  s.capacity = mbps(50);
  s.impairments.loss_rate = 0.005;
  s.impairments.jitter = from_ms(2);
  s.impairments.reorder_rate = 0.002;
  s.impairments.reorder_delay = from_ms(5);
  s.impairments.duplicate_rate = 0.001;
  s.ack_impairments.loss_rate = 0.01;
  s.capacity_schedule =
      make_flap_schedule(from_sec(1), from_ms(200), mbps(50), mbps(20),
                         s.duration);
  EXPECT_EQ(digest(s),
            "ok"
            "|11,1,79810,74,4000000000,"
            "|105.182266,657389.16641550243,0.87975999999999999,424,"
            "10510.735597499988,0,19500,646878.43081799755,14686,93,8,34,"
            "13477,142,0,0,"
            "|cubic,40000000,50197.333333333336,145.23801980198019,"
            "62.640000000000001,238.91999999999999,4,0,7808.2432146699502,"
            "18446744073709551615,5519.1024879999977,0,10500,"
            "|cubic,40000000,44888,146.3324137931034,61.920000000000002,"
            "234.47999999999999,6,0,6740.525269796949,18446744073709551615,"
            "4991.6331095000005,0,9000,"
            "|bbr,40000000,1359189.3333333333,117.7726844054054,"
            "56.276314999999997,184.01392999999999,4059,0,151439.01721605874,"
            "18446744073709551615,369482.22187899798,3000,765000,"
            "|bbr,40000000,814258.66666666663,188.61551770000005,122.180678,"
            "200.232688,2832,0,108092.52591012222,18446744073709551615,"
            "277396.20893899963,0,703500,");
}

TEST(RunDigest, RedCubicBbrV2) {
  Scenario s = base(CcKind::kBbrV2);
  s.aqm = AqmKind::kRed;
  EXPECT_EQ(digest(s),
            "ok"
            "|11,1,141732,340,4000000000,"
            "|11.154146000000001,139426.82582400079,1,781,59864.447361499537,"
            "0,127500,79562.378462500375,0,0,0,0,0,0,0,0,"
            "|cubic,40000000,3365152,51.027631352282519,42.960000000000001,"
            "60.359999999999999,6,0,171324.76750644646,18446744073709551615,"
            "38225.412925500168,0,127500,"
            "|cubic,40000000,1909429.3333333333,50.995748987854256,"
            "42.840000000000003,60,4,0,97285.32561300305,"
            "18446744073709551615,21639.034436000115,0,120000,"
            "|bbrv2,40000000,3591522.6666666665,51.306169021121931,"
            "42.840000000000003,60.317312999999999,9,0,185377.82940527736,"
            "18446744073709551615,42233.950219500337,0,96000,"
            "|bbrv2,40000000,3200562.6666666665,51.188218603110123,"
            "42.876212000000002,60.382182999999998,7,0,165067.80248134819,"
            "18446744073709551615,37328.428243000038,9000,94500,");
}

TEST(RunDigest, CoDelDelayBasedMix) {
  Scenario s = base();
  s.aqm = AqmKind::kCoDel;
  s.flows[1].cc = CcKind::kCopa;
  s.flows[2].cc = CcKind::kVivace;
  s.flows[3].cc = CcKind::kVegas;
  EXPECT_EQ(digest(s),
            "ok"
            "|11,1,122333,341,4000000000,"
            "|1.2942370000000001,16177.971632000052,0.91059999999999997,186,"
            "8500.1464775002769,0,100500,7677.8251545000594,0,0,0,0,0,0,0,0,"
            "|cubic,40000000,6182477.333333333,41.368396534077661,"
            "40.120137999999997,52.560000000000002,0,0,256129.90479678646,"
            "18446744073709551615,8500.1464775002769,0,100500,"
            "|copa,40000000,1858749.3333333333,41.68117077278626,"
            "40.121265999999999,52.456609999999998,0,0,77130.167308861346,"
            "18446744073709551615,3124.4003965000211,0,105000,"
            "|vivace,40000000,587405.33333333337,41.634955851273574,"
            "40.120511,52.526009000000002,0,0,24807.651306291093,"
            "18446744073709551615,989.81277449999743,0,10500,"
            "|vegas,40000000,2319696,41.51694437369963,40.121042000000003,"
            "52.560000000000002,0,0,97116.566084787584,18446744073709551615,"
            "3563.6119835000409,0,90000,");
}

TEST(RunDigest, AuditedWithRecorder) {
  Scenario s = base();
  s.audit.enabled = true;
  s.audit.recorder_events = 256;
  s.flows[3].cc = CcKind::kReno;
  ImpairmentConfig lossy;
  lossy.loss_rate = 0.01;
  s.flows[0].impairments = lossy;
  EXPECT_EQ(digest(s),
            "ok"
            "|11,1,131182,338,4000000000,"
            "|42.538224999999997,531727.82477549778,1,642,333918.23633749917,"
            "186000,504000,197809.58843800012,2100,26,0,0,0,0,0,0,"
            "|cubic,40000000,379376,81.728682170542712,78.480000000000004,"
            "86.040000000000006,12,0,29539.045296390446,18446744073709551615,"
            "14871.662568500024,0,109500,"
            "|cubic,40000000,7177253.333333333,82.460610625420301,"
            "78.359999999999999,85.920000000000002,0,0,598086.47677826963,"
            "18446744073709551615,319046.57376899908,130500,504000,"
            "|bbr,40000000,1603901.3333333333,82.414673374360518,78.267426,"
            "86.040000000000006,0,0,132351.47513410202,18446744073709551615,"
            "70509.15620999987,57000,76500,"
            "|reno,40000000,2906136,82.678604882909681,78.719999999999999,"
            "86.040000000000006,0,0,237229.05477171371,18446744073709551615,"
            "127300.43222800025,0,273000,");
}

TEST(RunDigest, MultiRttMixWithFiniteTransfer) {
  Scenario s = base();
  s.flows[0].base_rtt = from_ms(20);
  s.flows[1].base_rtt = from_ms(60);
  s.flows[2].base_rtt = from_ms(120);
  s.flows[3].transfer_bytes = 2'000'000;
  s.flows[3].start_at = from_ms(300);
  s.access_jitter = from_us(50);
  EXPECT_EQ(digest(s),
            "ok"
            "|11,1,144095,914,4000000000,"
            "|65.82826,822853.25600700267,0.99951999999999996,7195,"
            "248801.79935649864,0,750000,574051.45665049599,0,0,0,0,0,0,0,0,"
            "|cubic,20000000,3590074.6666666665,84.700516305258404,"
            "20.732862999999998,99.959999999999994,770,0,337513.83115988364,"
            "18446744073709551615,234058.95908000015,0,697500,"
            "|cubic,60000000,232162.66666666666,123.60074366090713,"
            "65.252863000000005,139.91999999999999,21,0,30236.376378172627,"
            "18446744073709551615,14742.840276500021,0,69000,"
            "|bbr,120000000,7269442.666666667,187.0138827666668,"
            "131.47412600000001,199.95979199999999,4438,0,1841237.3059583486,"
            "18446744073709551615,533859.22034599597,0,994500,"
            "|bbr,40000000,624088,99.625710965075527,48.979940999999997,"
            "119.966892,746,1,110075.29195214981,18446744073709551615,"
            "40192.236304500017,0,130500,");
}

}  // namespace
}  // namespace bbrnash
