// Figure 4 (a, b): multi-flow model validation. 5 CUBIC vs 5 BBR and
// 10 CUBIC vs 10 BBR through a 100 Mbps / 40 ms bottleneck, buffer swept
// 1..30 BDP. Series: the model's CUBIC-synchronized and de-synchronized
// bounds (the "predicted region"), the Ware et al. baseline, and the
// simulated per-flow BBR throughput.
#include <cstdio>
#include <iterator>
#include <vector>

#include "bench_common.hpp"
#include "model/mishra_model.hpp"
#include "model/ware_model.hpp"

using namespace bbrnash;
using namespace bbrnash::bench;

namespace {

struct Row {
  double ware = 0, lo = 0, hi = 0, sim = 0;
  bool in_region = false;
};

// Emits one panel's table and region-coverage line in sweep order.
void emit_panel(const BenchOptions& opts, int per_side,
                const std::vector<double>& bdps, const Row* rows) {
  Table table({"buffer_bdp", "ware_mbps", "sync_bound_mbps",
               "desync_bound_mbps", "sim_bbr_mbps", "in_region"});
  int inside = 0;
  for (std::size_t i = 0; i < bdps.size(); ++i) {
    const Row& r = rows[i];
    inside += r.in_region ? 1 : 0;
    table.add_row({format_double(bdps[i]), format_double(r.ware),
                   format_double(r.lo), format_double(r.hi),
                   format_double(r.sim), r.in_region ? "yes" : "no"});
  }
  const int total = static_cast<int>(bdps.size());
  if (!opts.csv) {
    std::printf("-- panel: %d CUBIC vs %d BBR, 100 Mbps, 40 ms --\n",
                per_side, per_side);
  }
  emit(opts, table);
  if (!opts.csv) {
    std::printf("simulated points inside predicted region (+/-10%%): %d/%d\n\n",
                inside, total);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_options(argc, argv);
  print_banner(opts, "Figure 4",
               "multi-flow predicted region vs simulated per-flow BBR");
  const int panels[] = {5, 10};  // flows per side
  const TrialConfig trial = trial_config(opts);
  const double step = 1.0 * sweep_step_multiplier(opts.fidelity);
  std::vector<double> bdps;
  for (double bdp = 1.0; bdp <= 30.0 + 1e-9; bdp += step) {
    bdps.push_back(bdp);
  }

  // Every (panel, buffer) point is an independent cell: run the whole
  // figure in one parallel region over a panel-major flat index, each
  // cell committing into its slot, then emit panel by panel in sweep
  // order — the tables are byte-identical for every --jobs value.
  std::vector<Row> rows(std::size(panels) * bdps.size());
  for_each_cell(opts, rows.size(), [&](std::size_t c) {
    const int per_side = panels[c / bdps.size()];
    const NetworkParams net = make_params(100.0, 40.0, bdps[c % bdps.size()]);
    const auto region = prediction_interval(net, per_side, per_side);
    const WarePrediction ware = ware_prediction(
        net, WareInputs{per_side, to_sec(trial.duration), 1500});
    const MixOutcome sim =
        run_mix_trials(net, per_side, per_side, CcKind::kBbr, trial);

    Row& r = rows[c];
    r.ware = to_mbps(ware.lambda_bbr) / per_side;
    r.lo = region ? to_mbps(region->sync.per_flow_bbr) : 0.0;
    r.hi = region ? to_mbps(region->desync.per_flow_bbr) : 0.0;
    r.sim = sim.per_flow_other_mbps;
    // 10% slack: the paper's own measurements hug (and sometimes touch)
    // the region boundary.
    r.in_region = r.sim >= r.lo * 0.9 && r.sim <= r.hi * 1.1;
  });
  for (std::size_t p = 0; p < std::size(panels); ++p) {
    emit_panel(opts, panels[p], bdps, &rows[p * bdps.size()]);
  }
  print_parallel_summary(opts);
  return 0;
}
