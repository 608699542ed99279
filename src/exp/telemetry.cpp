#include "exp/telemetry.hpp"

#include <ostream>
#include <stdexcept>

#include "util/canonical_text.hpp"

namespace bbrnash {

double SnapshotLog::goodput_between(std::size_t i, std::size_t flow) const {
  if (i == 0 || i >= snapshots_.size()) {
    throw std::out_of_range{"snapshot index"};
  }
  const Snapshot& a = snapshots_[i - 1];
  const Snapshot& b = snapshots_[i];
  const double dt = to_sec(b.t - a.t);
  if (dt <= 0) return 0.0;
  // Subtract each counter in double space: computing the difference on the
  // integer Bytes type first would wrap a counter regression (flow
  // restart/reconnect) into an astronomically large "goodput". A decrease
  // is a corrupt or restarted log — refuse it loudly instead of returning
  // garbage that a sweep would happily average.
  const double delivered_b = static_cast<double>(b.flows.at(flow).delivered);
  const double delivered_a = static_cast<double>(a.flows.at(flow).delivered);
  if (delivered_b < delivered_a) {
    throw std::invalid_argument{
        "goodput_between: delivered counter decreased between snapshots "
        "(flow restart or corrupt log)"};
  }
  return (delivered_b - delivered_a) / dt;
}

// Formats a double at full round-trip precision (%.17g): default ostream
// precision is 6 significant digits, which quantizes t_sec to 100 ms past
// t = 100 s on a 2-minute run and collapses distinct pacing rates. 17
// significant digits reproduce any IEEE-754 double exactly.
static void put_full(std::ostream& os, double v) {
  char buf[kCanonicalTextMax];
  os.write(buf, write_canonical(buf, v) - buf);
}

void SnapshotLog::write_csv(std::ostream& os) const {
  os << "t_sec,flow,cc,cwnd_bytes,pacing_bps,inflight_bytes,delivered_bytes,"
        "queue_bytes,retransmits,rtos,srtt_ms,total_queue_bytes,drops\n";
  for (const Snapshot& s : snapshots_) {
    for (std::size_t f = 0; f < s.flows.size(); ++f) {
      const FlowSnapshot& fs = s.flows[f];
      put_full(os, to_sec(s.t));
      os << ',' << f << ',' << to_string(fs.cc) << ',' << fs.cwnd << ',';
      put_full(os, fs.pacing_rate >= kNoPacing ? -1.0 : fs.pacing_rate);
      os << ',' << fs.inflight << ',' << fs.delivered << ',' << fs.queue_bytes
         << ',' << fs.retransmits << ',' << fs.rtos << ',';
      put_full(os,
               fs.smoothed_rtt == kTimeNone ? -1.0 : to_ms(fs.smoothed_rtt));
      os << ',' << s.queue_bytes << ',' << s.total_drops << '\n';
    }
  }
}

}  // namespace bbrnash
