// Figure 3 (a–d): predicted vs. actual throughput when one CUBIC flow
// competes with one BBR flow.
//
// Paper setup: {50, 100} Mbps x {40, 80} ms, buffer swept 1..30 BDP in
// steps of 0.5 BDP, 2-minute flows. Series: Ware et al. prediction, our
// model's prediction, and the measured BBR bandwidth share. The paper's
// claim: our model is within ~5% of measured for most of this range while
// Ware et al. is off by >= 30% in shallow buffers.
//
// Also prints the §3.1 model-error summary table for each panel.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "model/mishra_model.hpp"
#include "model/ware_model.hpp"
#include "util/stats.hpp"

using namespace bbrnash;
using namespace bbrnash::bench;

namespace {

struct Panel {
  const char* label;
  double capacity_mbps;
  double rtt_ms;
};

struct Row {
  double ware = 0, model = 0, sim = 0, err_pct = 0;
};

// Emits one panel's table and error summary, reduced in sweep order.
void emit_panel(const BenchOptions& opts, const Panel& panel,
                const std::vector<double>& bdps, const Row* rows) {
  Table table({"buffer_bdp", "ware_mbps", "model_mbps", "sim_bbr_mbps",
               "model_err_pct"});
  RunningStats err_1_30;
  for (std::size_t i = 0; i < bdps.size(); ++i) {
    const Row& r = rows[i];
    err_1_30.add(std::abs(r.err_pct));
    table.add_row({bdps[i], r.ware, r.model, r.sim, r.err_pct});
  }

  if (!opts.csv) std::printf("-- panel %s --\n", panel.label);
  emit(opts, table);
  if (!opts.csv) {
    std::printf(
        "model |error| vs sim over 1..30 BDP: mean %.1f%%, max %.1f%% "
        "(paper claims <= ~5%% for most buffer sizes)\n\n",
        err_1_30.mean(), err_1_30.max());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_options(argc, argv);
  print_banner(opts, "Figure 3",
               "1 CUBIC vs 1 BBR: our model vs Ware et al. vs simulation");

  const std::vector<Panel> panels = {
      {"(a) 50 Mbps, 40 ms", 50.0, 40.0},
      {"(b) 50 Mbps, 80 ms", 50.0, 80.0},
      {"(c) 100 Mbps, 40 ms", 100.0, 40.0},
      {"(d) 100 Mbps, 80 ms", 100.0, 80.0},
  };
  const TrialConfig trial = trial_config(opts);
  const double step = 0.5 * sweep_step_multiplier(opts.fidelity);
  std::vector<double> bdps;
  for (double bdp = 1.0; bdp <= 30.0 + 1e-9; bdp += step) {
    bdps.push_back(bdp);
  }

  // One parallel region for the whole figure over a panel-major flat
  // index, each cell committing into its slot; every panel's table AND
  // error summary are reduced in sweep order afterwards, so output is
  // byte-identical for every --jobs value.
  std::vector<Row> rows(panels.size() * bdps.size());
  for_each_cell(opts, rows.size(), [&](std::size_t c) {
    const Panel& panel = panels[c / bdps.size()];
    const NetworkParams net =
        make_params(panel.capacity_mbps, panel.rtt_ms, bdps[c % bdps.size()]);

    const WarePrediction ware =
        ware_prediction(net, WareInputs{1, to_sec(trial.duration), 1500});
    const auto model = two_flow_prediction(net);
    const MixOutcome sim = run_mix_trials(net, 1, 1, CcKind::kBbr, trial);

    Row& r = rows[c];
    r.ware = to_mbps(ware.lambda_bbr);
    r.model = model ? to_mbps(model->lambda_bbr) : 0.0;
    r.sim = sim.per_flow_other_mbps;
    r.err_pct = r.sim > 0 ? 100.0 * (r.model - r.sim) / r.sim : 0.0;
  });
  for (std::size_t p = 0; p < panels.size(); ++p) {
    emit_panel(opts, panels[p], bdps, &rows[p * bdps.size()]);
  }
  print_parallel_summary(opts);
  return 0;
}
