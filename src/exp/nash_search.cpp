#include "exp/nash_search.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "exp/chaos.hpp"
#include "exp/checkpoint.hpp"
#include "exp/parallel.hpp"
#include "exp/scenario_runner.hpp"

namespace bbrnash {

namespace {

/// Checkpoint log for one search, when the config asks for one.
std::unique_ptr<CheckpointLog> open_checkpoint(const NashSearchConfig& cfg) {
  if (cfg.checkpoint_path.empty()) return nullptr;
  return std::make_unique<CheckpointLog>(cfg.checkpoint_path,
                                         cfg.trial.guard.chaos.get());
}

/// A cell whose every trial failed has no measurement; its all-zero
/// averages would read as "0 Mbps" and silently skew the NE search, so
/// surface the per-trial diagnostics as a hard error instead.
const MixOutcome& require_measurement(const MixOutcome& m, int num_cubic,
                                      int num_other) {
  if (m.trials_completed > 0) return m;
  std::string msg = "NE search cell (" + std::to_string(num_cubic) +
                    " CUBIC vs " + std::to_string(num_other) +
                    " challenger) completed zero trials";
  for (const std::string& f : m.failures) msg += "\n  " + f;
  throw std::runtime_error{msg};
}

/// One payoff cell, with chaos-injected transient failures retried in
/// place. A ChaosFault is environmental — the cell's inputs are fine — so
/// the retry re-runs the identical computation (bit-identical outcome);
/// fire-once per site bounds the loop, with a small cap as a backstop.
MixOutcome run_cell(const NetworkParams& net, int num_cubic, int num_other,
                    const NashSearchConfig& cfg, CheckpointLog* log) {
  ChaosInjector* chaos = cfg.trial.guard.chaos.get();
  const std::string site = "ne-cell nc=" + std::to_string(num_cubic) +
                           " no=" + std::to_string(num_other);
  for (int redo = 0;; ++redo) {
    try {
      if (chaos != nullptr) chaos->maybe_throw(ChaosClass::kNeCell, site);
      return run_mix_trials_checkpointed(net, num_cubic, num_other,
                                         cfg.challenger, cfg.trial, log);
    } catch (const ChaosFault& e) {
      if (redo >= 2) throw;
      std::fprintf(stderr,
                   "nash-search: transient cell failure (%s); retrying\n",
                   e.what());
    }
  }
}

}  // namespace

EmpiricalPayoffs measure_payoffs(const NetworkParams& net, int total_flows,
                                 const NashSearchConfig& cfg) {
  EmpiricalPayoffs out;
  const auto cells = static_cast<std::size_t>(total_flows) + 1;
  out.cubic_mbps.assign(cells, 0.0);
  out.other_mbps.assign(cells, 0.0);
  const auto log = open_checkpoint(cfg);

  // All n+1 distributions are independent cells: run them concurrently,
  // each committing into its own slot. The nested per-cell trial loop in
  // run_mix_trials detects it is inside a pool task and runs inline.
  // CheckpointLog is internally thread-safe; under parallel execution the
  // cells land in the log in completion order, but every record's key and
  // numbers are identical to a serial run's.
  std::vector<MixOutcome> measured(cells);
  parallel_for(cfg.trial.jobs, cells, [&](std::size_t k) {
    measured[k] = run_cell(net, total_flows - static_cast<int>(k),
                           static_cast<int>(k), cfg, log.get());
  });

  // Validate and harvest in k order so an all-failed cell surfaces the
  // same (lowest-k) error a serial sweep would have thrown.
  for (std::size_t k = 0; k < cells; ++k) {
    const MixOutcome& m = require_measurement(
        measured[k], total_flows - static_cast<int>(k), static_cast<int>(k));
    out.cubic_mbps[k] = m.per_flow_cubic_mbps;
    out.other_mbps[k] = m.per_flow_other_mbps;
  }
  return out;
}

std::vector<int> find_ne_enumerate(const NetworkParams& net, int total_flows,
                                   const NashSearchConfig& cfg) {
  const EmpiricalPayoffs p = measure_payoffs(net, total_flows, cfg);
  const double fair_mbps = to_mbps(net.capacity) / total_flows;
  SymmetricGame game{total_flows, p.cubic_mbps, p.other_mbps};
  return game.equilibria(cfg.tolerance_frac * fair_mbps);
}

int find_ne_crossing(const NetworkParams& net, int total_flows,
                     const NashSearchConfig& cfg) {
  if (total_flows < 2) throw std::invalid_argument{"need >= 2 flows"};
  const double fair_mbps = to_mbps(net.capacity) / total_flows;
  const double tol = cfg.tolerance_frac * fair_mbps;

  // The crossing search is adaptive — which cell runs next depends on the
  // last result — so its probes stay serial here. The unit of parallel
  // work is one whole search: figure drivers run all the searches of a
  // figure as cells of a single parallel region. The per-probe trial loop
  // adds no parallelism there, since a parallel_for inside a pool task
  // runs inline (and below `full` fidelity it is a single trial anyway);
  // it fans out on cfg.trial.jobs only when called outside a pool.
  std::map<int, MixOutcome> cache;
  const auto log = open_checkpoint(cfg);
  const auto outcome_at = [&](int k) -> const MixOutcome& {
    auto it = cache.find(k);
    if (it == cache.end()) {
      MixOutcome m = run_cell(net, total_flows - k, k, cfg, log.get());
      require_measurement(m, total_flows - k, k);
      it = cache.emplace(k, std::move(m)).first;
    }
    return it->second;
  };
  // Advantage of the challenger over fair share at distribution k >= 1.
  const auto advantage = [&](int k) {
    return outcome_at(k).per_flow_other_mbps - fair_mbps;
  };

  // The challenger's per-flow throughput decays monotonically in k
  // (the paper's diminishing-returns observation, Fig. 5): binary-search
  // the largest k whose advantage is still non-negative.
  int lo = 1;
  int hi = total_flows;
  if (advantage(lo) < 0) {
    hi = 0;  // not even one challenger flow beats fair share
  } else if (advantage(hi) >= 0) {
    lo = total_flows;  // all-challenger is above/at fair share (Case 1)
  } else {
    while (hi - lo > 1) {
      const int mid = lo + (hi - lo) / 2;
      if (advantage(mid) >= 0) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    hi = lo;
  }
  const int crossing = hi;

  // Verify the NE condition in the crossing's neighbourhood using the
  // cached-and-extended payoff table.
  const auto payoff_cubic = [&](int k) {
    return k >= total_flows ? 0.0 : outcome_at(k).per_flow_cubic_mbps;
  };
  const auto payoff_other = [&](int k) {
    return k <= 0 ? 0.0 : outcome_at(k).per_flow_other_mbps;
  };
  const auto is_ne = [&](int k) {
    if (k < 0 || k > total_flows) return false;
    if (k < total_flows && payoff_other(k + 1) > payoff_cubic(k) + tol) {
      return false;
    }
    if (k > 0 && payoff_cubic(k - 1) > payoff_other(k) + tol) return false;
    return true;
  };
  for (const int k : {crossing, crossing + 1, crossing - 1}) {
    if (k >= 0 && k <= total_flows && is_ne(k)) return k;
  }
  return crossing;
}

namespace {

struct ProfileOutcome {
  std::vector<double> cubic_mbps;  // per group, per-flow
  std::vector<double> other_mbps;
};

ProfileOutcome run_profile(BytesPerSec capacity, Bytes buffer_bytes,
                           const std::vector<RttGroup>& groups,
                           const GroupProfile& profile, CcKind challenger,
                           const TrialConfig& trial) {
  const auto g_count = groups.size();
  ProfileOutcome avg;
  avg.cubic_mbps.assign(g_count, 0.0);
  avg.other_mbps.assign(g_count, 0.0);

  // The flow list is a pure function of (groups, profile): identical for
  // every trial, so build the group mapping once.
  std::vector<std::size_t> flow_group;
  std::vector<FlowSpec> flows;
  for (std::size_t g = 0; g < g_count; ++g) {
    const int cubics = profile.cubic_per_group[g];
    for (int i = 0; i < groups[g].flows; ++i) {
      flows.push_back(
          {i < cubics ? CcKind::kCubic : challenger, groups[g].base_rtt});
      flow_group.push_back(g);
    }
  }

  const int trials = trial.trials > 0 ? trial.trials : 1;
  std::vector<RunResult> results(static_cast<std::size_t>(trials));
  parallel_for(trial.jobs, static_cast<std::size_t>(trials),
               [&](std::size_t t) {
                 Scenario s;
                 s.capacity = capacity;
                 s.buffer_bytes = buffer_bytes;
                 s.duration = trial.duration;
                 s.warmup = trial.warmup;
                 s.seed = trial.seed + static_cast<std::uint64_t>(t) * 1000003ULL;
                 s.flows = flows;
                 results[t] = run_scenario(s);
               });

  // Reduce in trial order (bit-identical to the serial loop).
  for (int t = 0; t < trials; ++t) {
    const RunResult& r = results[static_cast<std::size_t>(t)];
    std::vector<double> cubic_sum(g_count, 0.0);
    std::vector<double> other_sum(g_count, 0.0);
    std::vector<int> cubic_n(g_count, 0);
    std::vector<int> other_n(g_count, 0);
    for (std::size_t i = 0; i < r.flows.size(); ++i) {
      const std::size_t g = flow_group[i];
      if (r.flows[i].cc == CcKind::kCubic) {
        cubic_sum[g] += to_mbps(r.flows[i].stats.goodput_bps);
        ++cubic_n[g];
      } else {
        other_sum[g] += to_mbps(r.flows[i].stats.goodput_bps);
        ++other_n[g];
      }
    }
    for (std::size_t g = 0; g < g_count; ++g) {
      if (cubic_n[g]) avg.cubic_mbps[g] += cubic_sum[g] / cubic_n[g];
      if (other_n[g]) avg.other_mbps[g] += other_sum[g] / other_n[g];
    }
  }
  for (std::size_t g = 0; g < g_count; ++g) {
    avg.cubic_mbps[g] /= trials;
    avg.other_mbps[g] /= trials;
  }
  return avg;
}

}  // namespace

MultiRttNe find_multi_rtt_ne(BytesPerSec capacity, Bytes buffer_bytes,
                             const std::vector<RttGroup>& groups,
                             const GroupProfile& start,
                             const NashSearchConfig& cfg) {
  if (groups.empty() || start.cubic_per_group.size() != groups.size()) {
    throw std::invalid_argument{"profile/group size mismatch"};
  }
  int total = 0;
  for (const auto& g : groups) total += g.flows;
  const double fair_mbps = to_mbps(capacity) / std::max(total, 1);
  const double tol = cfg.tolerance_frac * fair_mbps;

  MultiRttNe result;
  result.profile = start;

  ProfileOutcome current = run_profile(capacity, buffer_bytes, groups,
                                       result.profile, cfg.challenger,
                                       cfg.trial);

  const int max_steps = 2 * total + 4;
  for (int step = 0; step < max_steps; ++step) {
    // Enumerate the step's unilateral deviations in the fixed serial order
    // (group ascending; CUBIC→challenger before challenger→CUBIC), run
    // them concurrently into slots, then pick the winner by scanning the
    // slots in that same order — ties resolve exactly as the serial
    // first-strict-improvement scan did.
    struct Candidate {
      GroupProfile profile;
      std::size_t group = 0;
      bool to_challenger = false;
    };
    std::vector<Candidate> candidates;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (result.profile.cubic_per_group[g] > 0) {
        GroupProfile cand = result.profile;
        --cand.cubic_per_group[g];
        candidates.push_back({std::move(cand), g, true});
      }
      if (result.profile.cubic_per_group[g] < groups[g].flows) {
        GroupProfile cand = result.profile;
        ++cand.cubic_per_group[g];
        candidates.push_back({std::move(cand), g, false});
      }
    }
    std::vector<ProfileOutcome> outcomes(candidates.size());
    parallel_for(cfg.trial.jobs, candidates.size(), [&](std::size_t i) {
      outcomes[i] = run_profile(capacity, buffer_bytes, groups,
                                candidates[i].profile, cfg.challenger,
                                cfg.trial);
    });

    double best_gain = tol;
    GroupProfile best_profile;
    ProfileOutcome best_outcome;
    bool found = false;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const Candidate& c = candidates[i];
      const ProfileOutcome& o = outcomes[i];
      const double gain = c.to_challenger
                              ? o.other_mbps[c.group] - current.cubic_mbps[c.group]
                              : o.cubic_mbps[c.group] - current.other_mbps[c.group];
      if (gain > best_gain) {
        best_gain = gain;
        best_profile = c.profile;
        best_outcome = o;
        found = true;
      }
    }

    if (!found) {
      result.converged = true;
      break;
    }
    result.profile = best_profile;
    current = best_outcome;
    result.steps_taken = step + 1;
  }

  result.group_cubic_mbps = current.cubic_mbps;
  result.group_other_mbps = current.other_mbps;
  return result;
}

}  // namespace bbrnash
