// Shared scaffolding for the figure-regeneration benches.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "exp/fidelity.hpp"
#include "exp/sweeps.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace bbrnash::bench {

/// Parsed command line common to all benches:
///   [--csv] [--seed N] [--fidelity quick|default|full] [--jobs N]
///   [--audit] [--chaos SEED]
struct BenchOptions {
  bool csv = false;
  std::uint64_t seed = 1;
  Fidelity fidelity = Fidelity::kDefault;
  /// Sweep workers: 0 (default) = one per hardware thread, 1 = serial.
  /// Output is bit-identical for every value (see exp/parallel.hpp).
  int jobs = 0;
  /// Conservation audit on every trial (--audit). Read-only sampling, so
  /// the figures are identical with or without it.
  bool audit = false;
  /// Deterministic fault injection (--chaos SEED); 0 = off. Every fault
  /// is retried with the same trial seed, so figures stay bit-identical.
  bool chaos = false;
  std::uint64_t chaos_seed = 0;
};

/// Strict parser: an unknown flag or malformed value prints a diagnosis
/// and exits 2 — a typo'd knob must never silently run the default sweep.
/// `--checkpoint PATH` is recognised (and skipped) here because some
/// benches parse it themselves from the raw argv.
BenchOptions parse_options(int argc, char** argv);

/// Prints the figure banner: what is being reproduced and at what fidelity.
void print_banner(const BenchOptions& opts, const std::string& figure,
                  const std::string& description);

/// Emits the table in the selected format.
void emit(const BenchOptions& opts, const Table& table);

/// Trial config at the chosen fidelity (carries opts.jobs).
TrialConfig trial_config(const BenchOptions& opts);

/// Runs fn(i) for i in [0, n) on opts.jobs workers. fn must commit its
/// results by index (slot per sweep point); emit the table afterwards in
/// index order and the output is byte-identical to --jobs 1.
void for_each_cell(const BenchOptions& opts, std::size_t n,
                   const std::function<void(std::size_t)>& fn);

/// Prints the per-run parallel telemetry footer (suppressed under --csv).
void print_parallel_summary(const BenchOptions& opts);

}  // namespace bbrnash::bench
