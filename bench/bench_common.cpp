#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "exp/chaos.hpp"
#include "exp/cli_flags.hpp"
#include "exp/parallel.hpp"

namespace bbrnash::bench {

namespace {

[[noreturn]] void usage_exit(const char* prog, const char* complaint) {
  std::fprintf(stderr,
               "%s\nusage: %s [--csv] [--seed N] "
               "[--fidelity quick|default|full] [--jobs N] [--audit] "
               "[--chaos SEED] [--checkpoint PATH]\n",
               complaint, prog);
  std::exit(2);
}

std::string value_of(int argc, char** argv, int& i, const char* prog) {
  if (i + 1 >= argc) {
    const std::string msg = std::string{argv[i]} + " needs a value";
    usage_exit(prog, msg.c_str());
  }
  return argv[++i];
}

}  // namespace

BenchOptions parse_options(int argc, char** argv) {
  BenchOptions opts;
  opts.fidelity = fidelity_from_env();
  const char* prog = argc > 0 ? argv[0] : "bench";
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--csv") == 0) {
        opts.csv = true;
      } else if (std::strcmp(argv[i], "--audit") == 0) {
        opts.audit = true;
      } else if (std::strcmp(argv[i], "--seed") == 0) {
        opts.seed = parse_u64_strict("--seed", value_of(argc, argv, i, prog));
      } else if (std::strcmp(argv[i], "--chaos") == 0) {
        opts.chaos = true;
        opts.chaos_seed =
            parse_u64_strict("--chaos", value_of(argc, argv, i, prog));
      } else if (std::strcmp(argv[i], "--fidelity") == 0) {
        const std::string v = value_of(argc, argv, i, prog);
        if (v == "quick") {
          opts.fidelity = Fidelity::kQuick;
        } else if (v == "default") {
          opts.fidelity = Fidelity::kDefault;
        } else if (v == "full") {
          opts.fidelity = Fidelity::kFull;
        } else {
          const std::string msg = "--fidelity: unknown level '" + v + "'";
          usage_exit(prog, msg.c_str());
        }
      } else if (std::strcmp(argv[i], "--jobs") == 0) {
        opts.jobs = parse_int_strict("--jobs", value_of(argc, argv, i, prog));
      } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
        // Parsed by the bench itself from the raw argv; skip the value.
        (void)value_of(argc, argv, i, prog);
      } else {
        const std::string msg = std::string{"unknown flag '"} + argv[i] + "'";
        usage_exit(prog, msg.c_str());
      }
    }
  } catch (const std::invalid_argument& e) {
    usage_exit(prog, e.what());
  }
  return opts;
}

void print_banner(const BenchOptions& opts, const std::string& figure,
                  const std::string& description) {
  if (opts.csv) return;
  std::printf("### %s — %s\n", figure.c_str(), description.c_str());
  std::printf("### fidelity=%s (set BBRNASH_FIDELITY=quick|default|full), "
              "jobs=%d\n\n",
              to_string(opts.fidelity), resolve_jobs(opts.jobs));
}

void emit(const BenchOptions& opts, const Table& table) {
  if (opts.csv) {
    table.print_csv(std::cout);
  } else {
    table.print_aligned(std::cout);
    std::cout << '\n';
  }
}

TrialConfig trial_config(const BenchOptions& opts) {
  TrialConfig cfg;
  cfg.duration = experiment_duration(opts.fidelity);
  cfg.warmup = experiment_warmup(opts.fidelity);
  cfg.trials = experiment_trials(opts.fidelity);
  cfg.seed = opts.seed;
  cfg.jobs = opts.jobs;
  cfg.audit.enabled = opts.audit;
  if (opts.chaos) {
    cfg.guard.chaos = std::make_shared<ChaosInjector>(opts.chaos_seed);
  }
  return cfg;
}

void for_each_cell(const BenchOptions& opts, std::size_t n,
                   const std::function<void(std::size_t)>& fn) {
  parallel_for(opts.jobs, n, fn);
}

void print_parallel_summary(const BenchOptions& opts) {
  if (opts.csv) return;
  std::printf("### %s\n", describe(parallel_telemetry()).c_str());
}

}  // namespace bbrnash::bench
