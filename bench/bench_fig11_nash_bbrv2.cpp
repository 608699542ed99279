// Figure 11 (a, b): Nash Equilibria for CUBIC vs BBRv2, 50 flows,
// {50, 100} Mbps x {20, 40, 80} ms. The region predicted by the *BBR*
// model is printed alongside; the paper's finding is that BBRv2's NE has
// at least as many CUBIC flows as BBR's for the same buffer (BBRv2 is less
// aggressive because it reacts to loss).
#include <cstdio>
#include <iterator>
#include <vector>

#include "bench_common.hpp"
#include "exp/nash_search.hpp"
#include "model/nash.hpp"

using namespace bbrnash;
using namespace bbrnash::bench;

namespace {

constexpr int kTotalFlows = 50;

struct Row {
  bool has_region = false;
  double lo = 0, hi = 0;
  int k_ne = 0;
};

// Emits one capacity panel's (buffer x RTT) table in grid order.
void emit_panel(const BenchOptions& opts, double cap_mbps,
                const std::vector<double>& buffers,
                const std::vector<double>& rtts, const Row* rows) {
  Table table({"buffer_bdp", "rtt_ms", "bbr_region_lo", "bbr_region_hi",
               "cubic_at_ne_bbrv2"});
  for (std::size_t c = 0; c < buffers.size() * rtts.size(); ++c) {
    const Row& r = rows[c];
    table.add_row(
        {format_double(buffers[c / rtts.size()], 1),
         format_double(rtts[c % rtts.size()], 0),
         r.has_region ? format_double(r.lo, 1) : "n/a",
         r.has_region ? format_double(r.hi, 1) : "n/a",
         format_double(static_cast<double>(kTotalFlows - r.k_ne), 0)});
  }
  if (!opts.csv) std::printf("-- panel: 50 flows, %.0f Mbps --\n", cap_mbps);
  emit(opts, table);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_options(argc, argv);
  print_banner(opts, "Figure 11",
               "CUBIC vs BBRv2 Nash Equilibria, 50 flows");

  std::vector<double> buffers;
  std::vector<double> rtts;
  switch (opts.fidelity) {
    case Fidelity::kQuick:
      buffers = {5};
      rtts = {40};
      break;
    case Fidelity::kDefault:
      buffers = {2, 8, 20, 40};
      rtts = {20, 40, 80};
      break;
    case Fidelity::kFull:
      buffers = {1, 2, 5, 8, 12, 20, 30, 40, 50};
      rtts = {20, 40, 80};
      break;
  }
  const double caps[] = {50.0, 100.0};

  NashSearchConfig cfg;
  cfg.challenger = CcKind::kBbrV2;
  cfg.trial = trial_config(opts);
  if (opts.fidelity != Fidelity::kFull) cfg.trial.trials = 1;

  // Flatten the whole figure — capacity panel x buffer x RTT, panel-major —
  // into one parallel region of independent NE searches; rows are emitted
  // panel by panel in grid order.
  const std::size_t per_panel = buffers.size() * rtts.size();
  std::vector<Row> rows(std::size(caps) * per_panel);
  for_each_cell(opts, rows.size(), [&](std::size_t c) {
    const std::size_t g = c % per_panel;
    const NetworkParams net = make_params(
        caps[c / per_panel], rtts[g % rtts.size()], buffers[g / rtts.size()]);
    const auto region = predict_nash_region(net, kTotalFlows);
    Row& r = rows[c];
    if (region) {
      r.has_region = true;
      r.lo = region->cubic_low();
      r.hi = region->cubic_high();
    }
    r.k_ne = find_ne_crossing(net, kTotalFlows, cfg);
  });
  for (std::size_t p = 0; p < std::size(caps); ++p) {
    emit_panel(opts, caps[p], buffers, rtts, &rows[p * per_panel]);
  }
  print_parallel_summary(opts);
  return 0;
}
