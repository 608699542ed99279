// Figure 9 (a–f): predicted vs empirically found Nash Equilibria for 50
// same-RTT flows. Settings: {50, 100} Mbps x {20, 40, 80} ms, buffer swept
// 0.5..50 BDP. For each buffer size we print the model's Nash region (the
// sync/desync bounds on the number of CUBIC flows at the NE, Eq. 25) and
// the empirically found NE.
//
// The paper's observations reproduced here:
//   * deeper buffers -> more CUBIC flows at the NE,
//   * normalized by BDP, the predicted region is identical across link
//     speeds and RTTs (the last column makes this visible).
//
// The empirical search uses the monotone crossing search (O(log n) runs —
// the paper's exhaustive 51-distribution enumeration is available via
// find_ne_enumerate and exercised in the test suite); at `full` fidelity
// each probed distribution still runs 10 trials of 2-minute flows.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "exp/nash_search.hpp"
#include "model/nash.hpp"

using namespace bbrnash;
using namespace bbrnash::bench;

namespace {

constexpr int kTotalFlows = 50;

struct Panel {
  double cap_mbps;
  double rtt_ms;
};

struct Row {
  bool has_region = false;
  double sync = 0, desync = 0;
  int k_ne = 0;
};

void emit_panel(const BenchOptions& opts, const Panel& panel,
                const std::vector<double>& buffers, const Row* rows) {
  Table table({"buffer_bdp", "cubic_at_ne_sync", "cubic_at_ne_desync",
               "cubic_at_ne_sim"});
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const Row& r = rows[i];
    table.add_row(
        {format_double(buffers[i], 1),
         r.has_region ? format_double(r.sync, 1) : "n/a",
         r.has_region ? format_double(r.desync, 1) : "n/a",
         format_double(static_cast<double>(kTotalFlows - r.k_ne), 0)});
  }
  if (!opts.csv) {
    std::printf("-- panel: %.0f Mbps, %.0f ms --\n", panel.cap_mbps,
                panel.rtt_ms);
  }
  emit(opts, table);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_options(argc, argv);
  print_banner(opts, "Figure 9",
               "Nash region vs empirical NE, 50 same-RTT flows");

  std::vector<double> buffers;
  switch (opts.fidelity) {
    case Fidelity::kQuick:
      buffers = {2, 10, 30};
      break;
    case Fidelity::kDefault:
      buffers = {1, 2, 3, 5, 8, 12, 20, 30, 50};
      break;
    case Fidelity::kFull:
      for (double b = 1; b <= 50; b += 2.5) buffers.push_back(b);
      break;
  }
  const std::vector<Panel> panels = {{50, 20},  {50, 40},  {50, 80},
                                     {100, 20}, {100, 40}, {100, 80}};

  NashSearchConfig cfg;
  cfg.trial = trial_config(opts);
  // One trial per probed distribution keeps the search tractable below
  // `full`; the NE tolerance absorbs the trial noise.
  if (opts.fidelity != Fidelity::kFull) cfg.trial.trials = 1;

  // The cells of the whole figure are the unit of parallel work: every
  // (panel, buffer) point is an independent NE search (serial within the
  // cell, since the crossing search is adaptive), so all of them run in
  // one region over a panel-major flat index with no barrier between
  // panels. Each cell commits its row into its slot; the tables are then
  // emitted panel by panel in sweep order, byte-identical for every --jobs.
  std::vector<Row> rows(panels.size() * buffers.size());
  for_each_cell(opts, rows.size(), [&](std::size_t c) {
    const Panel& panel = panels[c / buffers.size()];
    const NetworkParams net =
        make_params(panel.cap_mbps, panel.rtt_ms, buffers[c % buffers.size()]);
    const auto region = predict_nash_region(net, kTotalFlows);
    Row& r = rows[c];
    if (region) {
      r.has_region = true;
      r.sync = region->sync.num_cubic;
      r.desync = region->desync.num_cubic;
    }
    r.k_ne = find_ne_crossing(net, kTotalFlows, cfg);
  });
  for (std::size_t p = 0; p < panels.size(); ++p) {
    emit_panel(opts, panels[p], buffers, &rows[p * buffers.size()]);
  }

  if (!opts.csv) {
    std::printf(
        "note: the predicted-region columns depend only on buffer-in-BDP — "
        "identical across all six panels, the paper's §4.4 scale-invariance "
        "observation.\n");
  }
  print_parallel_summary(opts);
  return 0;
}
