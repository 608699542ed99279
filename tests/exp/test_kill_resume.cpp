// A genuine `kill -9` in the middle of an in-process payoff sweep.
//
// A forked child runs measure_payoffs against a checkpoint log and is
// SIGKILLed as soon as the log holds one complete record. Re-running the
// same sweep on the same log must resume from the finished cells, compute
// the rest, and reproduce an uninterrupted run exactly: every payoff row
// and every cell record. A torn trailing line left by the kill is legal
// input; the log skips it and that cell re-runs.
//
// The test forks, which ThreadSanitizer does not support, so this binary
// carries the `chaos` label only, never `sanitize`.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "exp/checkpoint.hpp"
#include "exp/nash_search.hpp"
#include "model/network_params.hpp"
#include "util/jsonl.hpp"

namespace bbrnash {
namespace {

/// Complete (parseable) records on disk, counting every appended line: a
/// resumed run appends exactly one record per cell it computes.
std::size_t complete_records(const std::string& path) {
  return read_jsonl(path).size();
}

std::string fresh_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

TEST(SweepKill, SigkilledSweepResumesFromCheckpoint) {
  // Five cells of tens of milliseconds each on one thread: the kill lands
  // after the first commit with several cells still to run.
  const NetworkParams net = make_params(50, 20, 3.0);
  const int total = 4;
  NashSearchConfig cfg;
  cfg.trial.duration = from_sec(30);
  cfg.trial.warmup = from_sec(5);
  cfg.trial.trials = 1;
  cfg.trial.seed = 1;
  cfg.trial.jobs = 1;
  cfg.checkpoint_path = fresh_path("sweep_kill9.jsonl");

  // bbrnash-lint: allow(process-control) -- the test IS the process drill:
  // fork a whole sweep, then SIGKILL it mid-run like an OOM killer.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int rc = 0;
    try {
      (void)measure_payoffs(net, total, cfg);
    } catch (...) {
      rc = 1;
    }
    // bbrnash-lint: allow(process-control) -- a fork child of the gtest
    // process must leave via _exit (no duplicated atexit/flush state).
    _exit(rc);
  }
  // Poll for the first complete record (gives up after ~2 minutes).
  for (int poll = 0;
       poll < 120000 && complete_records(cfg.checkpoint_path) == 0; ++poll) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // bbrnash-lint: allow(process-control) -- the genuine kill -9 the
  // checkpoint log claims to survive.
  kill(pid, SIGKILL);
  int status = 0;
  // bbrnash-lint: allow(process-control) -- reap the killed sweep.
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "the sweep finished before the kill";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  const std::size_t before = complete_records(cfg.checkpoint_path);
  ASSERT_GE(before, 1u);
  const EmpiricalPayoffs resumed = measure_payoffs(net, total, cfg);
  EXPECT_GT(complete_records(cfg.checkpoint_path), before)
      << "the resumed run computed no cell";

  NashSearchConfig clean = cfg;
  clean.checkpoint_path = fresh_path("sweep_kill9_clean.jsonl");
  const EmpiricalPayoffs truth = measure_payoffs(net, total, clean);
  EXPECT_EQ(resumed.cubic_mbps, truth.cubic_mbps);
  EXPECT_EQ(resumed.other_mbps, truth.other_mbps);

  const CheckpointLog resumed_log{cfg.checkpoint_path};
  const CheckpointLog clean_log{clean.checkpoint_path};
  for (int k = 0; k <= total; ++k) {
    const std::string key =
        mix_checkpoint_key(net, total - k, k, cfg.challenger, cfg.trial);
    const auto got = resumed_log.lookup(key);
    const auto want = clean_log.lookup(key);
    ASSERT_TRUE(got.has_value()) << "k=" << k;
    ASSERT_TRUE(want.has_value()) << "k=" << k;
    EXPECT_EQ(mix_to_record(mix_from_record(*got)).encode(),
              mix_to_record(mix_from_record(*want)).encode())
        << "k=" << k;
  }
}

}  // namespace
}  // namespace bbrnash
