// Benchmark harness for the workloads in BENCHMARK.json.
//
// Each workload calls the program's public entry points the way the sweeps
// and figure drivers do, and prints one JSON object of raw measurements on
// stdout; perfbench/run.py turns them into metrics and checks them.
//
//   run_50flow  run_scenario_guarded on one 25 CUBIC + 25 BBR cell
//               (100 Mbps, 40 ms, 5 BDP drop-tail), repeated on one thread
//   ne_cells    predict_nash_region + find_ne_crossing on every (panel,
//               buffer) cell of the Fig. 9 quick grid at each driver seed,
//               with a scratch checkpoint per cell to count the
//               distributions probed
//   oracle_mix  a PayoffOracle hydrated from a cache file the harness first
//               writes, answering a seeded query mix in a closed loop
//   probe       the host-speed probe alone, repeated for --seconds
//
// usage: perfbench_harness <workload> --seed N --seconds S --scratch DIR
//            [--jobs N] [--size full|tiny] [--setup-only] [--trace-out PATH]
//        perfbench_harness ne_cells --seeds N,N,... --scratch DIR [--jobs N]
//        perfbench_harness probe --seconds S
//
// Each timed repetition of run_50flow and each oracle_mix pass is preceded
// by one run of the host-speed probe, so run.py can scale every time to a
// reference host speed (see HostProbe).
//
// --setup-only builds the workload's inputs and exits (run.py times it as
// set-up). --trace-out keeps spans (name, start, end, parent, tag) around
// each call into the program in memory and writes them to PATH at the end.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_probe.hpp"
#include "exp/fidelity.hpp"
#include "exp/nash_search.hpp"
#include "exp/oracle.hpp"
#include "exp/parallel.hpp"
#include "exp/scenario_runner.hpp"
#include "exp/sweeps.hpp"
#include "model/nash.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace bbrnash;
using perfbench::alloc_calls;
using Clock = std::chrono::steady_clock;

// Runs repeat until --seconds have passed, but at least this often (so a
// median exists) and at most this often (so a tiny input cannot spin).
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 100000;

double wall_now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

template <typename T, typename F>
std::string json_list(const std::vector<T>& xs, F&& fmt) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ',';
    out += fmt(xs[i]);
  }
  return out + ']';
}

// --- spans ---------------------------------------------------------------

/// In-memory span recorder. Single-threaded by design: traced workloads
/// run their calls on the main thread.
class Tracer {
 public:
  struct Span {
    std::uint32_t parent = 0;  ///< id of the enclosing span, 0 = root
    const char* name = "";
    const char* tag = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// RAII span; a no-op while the tracer is off.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t) {
      if (!t_.on_) return;
      id_ = static_cast<std::uint32_t>(t_.spans_.size() + 1);
      const std::uint32_t parent = t_.open_.empty() ? 0 : t_.open_.back();
      t_.spans_.push_back(Span{parent, name, "", t_.now_ns(), 0});
      t_.open_.push_back(id_);
    }
    ~Scope() {
      if (id_ == 0) return;
      t_.spans_[id_ - 1].end_ns = t_.now_ns();
      t_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void tag(const char* tag) {
      if (id_ != 0) t_.spans_[id_ - 1].tag = tag;
    }

   private:
    Tracer& t_;
    std::uint32_t id_ = 0;
  };

  void enable() {
    on_ = true;
    spans_.reserve(1 << 20);
  }

  void write(const std::string& path) const {
    std::ofstream os{path};
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\":" << (i + 1) << ",\"parent\":" << s.parent
         << ",\"name\":" << quoted(s.name) << ",\"tag\":" << quoted(s.tag)
         << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
         << "}\n";
    }
    if (!os) throw std::runtime_error{"cannot write spans to " + path};
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool on_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

Tracer g_tracer;

// --- host-speed probe ----------------------------------------------------

/// A fixed amount of work that calls none of the program's code: a
/// dependent walk over a 1 MiB random cycle (load latency, like the
/// simulator's event and packet structures) mixed with integer hashing and
/// a data-dependent branch. The machine this benchmark runs on is shared,
/// and its speed drifts by tens of percent between minutes; the probe's
/// time drifts with it but not with changes to the program, so run.py
/// divides each measured time by the probe time taken next to it.
class HostProbe {
 public:
  HostProbe() : next_(kSlots) {
    // Sattolo's shuffle: one cycle through every slot. splitmix64 keeps
    // the walk independent of the program's own generator.
    for (std::uint32_t i = 0; i < kSlots; ++i) next_[i] = i;
    std::uint64_t x = 0x5EEDULL;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      z ^= z >> 31;
      std::swap(next_[i], next_[z % i]);
    }
  }

  /// Seconds one walk takes now.
  double run() {
    const double t0 = wall_now();
    std::uint32_t at = 0;
    std::uint64_t h = 0;
    for (std::uint32_t step = 0; step < kSteps; ++step) {
      at = next_[at];
      h = (h ^ at) * 0x9E3779B97F4A7C15ULL;
      if ((h >> 63) != 0) {
        h += step;
      } else {
        h ^= h >> 29;
      }
    }
    const double dt = wall_now() - t0;
    sink_ = sink_ + h;
    return dt;
  }

 private:
  static constexpr std::uint32_t kSlots = 1U << 18;  // 4 B each: 1 MiB
  static constexpr std::uint32_t kSteps = 1U << 20;
  std::vector<std::uint32_t> next_;
  volatile std::uint64_t sink_ = 0;  // keeps the walk from being elided
};

// --- options -------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::vector<std::uint64_t> seeds;  ///< ne_cells: one driver seed each
  double seconds = 10.0;
  std::string scratch = ".";
  int jobs = 1;
  bool tiny = false;
  bool setup_only = false;
  std::string trace_out;
};

Options parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument{"missing workload"};
  Options o;
  o.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument{flag + " needs a value"};
    const std::string v = argv[++i];
    if (flag == "--seed") {
      o.seed = std::stoull(v);
    } else if (flag == "--seeds") {
      std::stringstream ss{v};
      for (std::string item; std::getline(ss, item, ',');) {
        o.seeds.push_back(std::stoull(item));
      }
    } else if (flag == "--seconds") {
      o.seconds = std::stod(v);
    } else if (flag == "--scratch") {
      o.scratch = v;
    } else if (flag == "--jobs") {
      o.jobs = std::stoi(v);
    } else if (flag == "--size") {
      if (v != "full" && v != "tiny") throw std::invalid_argument{"--size " + v};
      o.tiny = v == "tiny";
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else {
      throw std::invalid_argument{"unknown flag " + flag};
    }
  }
  return o;
}

/// Repeats body() until opts.seconds have passed (within the rep limits).
template <typename F>
void repeat_for(const Options& o, F&& body) {
  const double t0 = wall_now();
  for (std::size_t rep = 0; rep < kMaxReps; ++rep) {
    if (rep >= kMinReps && wall_now() - t0 >= o.seconds) break;
    body(rep);
  }
}

// --- run_50flow ----------------------------------------------------------

Scenario fifty_flow_scenario(const Options& o) {
  Scenario sc = make_mix_scenario(make_params(100, 40, 5), 25, 25);
  sc.duration = from_sec(o.tiny ? 4 : 60);
  sc.warmup = from_sec(o.tiny ? 1 : 15);
  sc.seed = o.seed;
  sc.validate();
  return sc;
}

bool same_run(const RunOutcome& a, const RunOutcome& b) {
  if (a.status != b.status ||
      a.diagnostics.events_executed != b.diagnostics.events_executed ||
      a.result.total_drops != b.result.total_drops ||
      !same_bits(a.result.avg_queue_delay_ms, b.result.avg_queue_delay_ms) ||
      a.result.flows.size() != b.result.flows.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.result.flows.size(); ++i) {
    const FlowStats& x = a.result.flows[i].stats;
    const FlowStats& y = b.result.flows[i].stats;
    if (!same_bits(x.goodput_bps, y.goodput_bps) ||
        x.retransmits != y.retransmits || x.rtos != y.rtos) {
      return false;
    }
  }
  return true;
}

void run_fifty_flow(const Options& o) {
  const Scenario sc = fifty_flow_scenario(o);
  if (o.setup_only) return;

  struct Rep {
    double probe_s, wall_s, cpu_s;
    std::uint64_t allocs;
    bool ok;
  };
  std::vector<Rep> reps;
  std::optional<RunOutcome> first;
  int mismatched = 0;
  HostProbe probe;
  repeat_for(o, [&](std::size_t) {
    const double probe_s = probe.run();
    const std::uint64_t a0 = alloc_calls();
    const double w0 = wall_now();
    const double c0 = cpu_now();
    RunOutcome out = [&] {
      Tracer::Scope span{g_tracer, "exp.scenario_runner.run_scenario_guarded"};
      return run_scenario_guarded(sc);
    }();
    reps.push_back(Rep{probe_s, wall_now() - w0, cpu_now() - c0,
                       alloc_calls() - a0, out.ok()});
    if (!first) {
      first = std::move(out);
    } else if (!same_run(*first, out)) {
      ++mismatched;
    }
  });

  const RunOutcome& r = *first;
  std::uint64_t retransmits = 0;
  std::uint64_t rtos = 0;
  std::vector<double> goodput;
  for (const FlowResult& f : r.result.flows) {
    retransmits += f.stats.retransmits;
    rtos += f.stats.rtos;
    goodput.push_back(f.stats.goodput_bps);
  }
  std::printf(
      "{\"workload\":\"run_50flow\",\"status\":%s,\"attempts\":%d,"
      "\"mismatched_reps\":%d,\"sim_s\":%s,\"capacity_bps\":%s,"
      "\"events\":%llu,\"drops\":%llu,\"avg_queue_delay_ms\":%s,"
      "\"retransmits\":%llu,\"rtos\":%llu,\"goodput_bps\":%s,"
      "\"reps\":%s}\n",
      quoted(to_string(r.status)).c_str(), r.attempts, mismatched,
      num(to_sec(sc.duration)).c_str(), num(8.0 * sc.capacity).c_str(),
      static_cast<unsigned long long>(r.diagnostics.events_executed),
      static_cast<unsigned long long>(r.result.total_drops),
      num(r.result.avg_queue_delay_ms).c_str(),
      static_cast<unsigned long long>(retransmits),
      static_cast<unsigned long long>(rtos),
      json_list(goodput, num).c_str(),
      json_list(reps, [](const Rep& x) {
        return "{\"probe_s\":" + num(x.probe_s) + ",\"wall_s\":" +
               num(x.wall_s) + ",\"cpu_s\":" + num(x.cpu_s) +
               ",\"allocs\":" + std::to_string(x.allocs) +
               ",\"ok\":" + (x.ok ? "true" : "false") + "}";
      }).c_str());
}

// --- ne_cells ------------------------------------------------------------

// The Fig. 9 quick grid, in the driver's panel and row order
// (bench/bench_fig09_nash_same_rtt.cpp).
constexpr int kNeFlows = 50;
constexpr double kNeCaps[] = {50.0, 100.0};
constexpr double kNeRtts[] = {20.0, 40.0, 80.0};
constexpr double kNeBuffers[] = {2.0, 10.0, 30.0};

std::size_t count_lines(const std::string& path) {
  std::ifstream is{path};
  std::size_t n = 0;
  for (std::string line; std::getline(is, line);) n += line.empty() ? 0 : 1;
  return n;
}

void run_ne_cells(const Options& o) {
  struct Cell {
    std::uint64_t seed;
    double cap, rtt, buffer;
    std::string checkpoint;
    std::optional<NashRegion> region;
    int k_ne = 0;
    std::size_t distributions = 0;
  };
  std::vector<Cell> cells;
  for (const std::uint64_t seed : o.seeds) {
    for (const double cap : kNeCaps) {
      for (const double rtt : kNeRtts) {
        for (const double b : kNeBuffers) {
          cells.push_back(Cell{seed, cap, rtt, b,
                               o.scratch + "/ne_cell_" +
                                   std::to_string(cells.size()) + ".jsonl",
                               std::nullopt, 0, 0});
        }
      }
    }
  }
  // The driver's per-cell search config at quick fidelity.
  NashSearchConfig base;
  base.trial.duration = experiment_duration(Fidelity::kQuick);
  base.trial.warmup = experiment_warmup(Fidelity::kQuick);
  base.trial.trials = 1;
  if (o.setup_only) return;

  const auto run_cell = [&](std::size_t i) {
    Cell& c = cells[i];
    std::filesystem::remove(c.checkpoint);
    NashSearchConfig cfg = base;
    cfg.trial.seed = c.seed;
    cfg.checkpoint_path = c.checkpoint;
    const NetworkParams net = make_params(c.cap, c.rtt, c.buffer);
    {
      Tracer::Scope span{g_tracer, "model.predict_nash_region"};
      c.region = predict_nash_region(net, kNeFlows);
    }
    {
      Tracer::Scope span{g_tracer, "exp.nash_search.find_ne_crossing"};
      c.k_ne = find_ne_crossing(net, kNeFlows, cfg);
    }
    c.distributions = count_lines(c.checkpoint);
  };
  const double w0 = wall_now();
  if (o.trace_out.empty()) {
    parallel_for(o.jobs, cells.size(), run_cell);
  } else {
    for (std::size_t i = 0; i < cells.size(); ++i) run_cell(i);
  }
  const double wall = wall_now() - w0;

  std::printf(
      "{\"workload\":\"ne_cells\",\"trials\":%d,\"trial_sim_s\":%s,"
      "\"wall_s\":%s,\"cells\":%s}\n",
      base.trial.trials, num(to_sec(base.trial.duration)).c_str(),
      num(wall).c_str(),
      json_list(cells, [](const Cell& c) {
        // Formatted exactly like the driver's table cells.
        const std::string sync =
            c.region ? format_double(c.region->sync.num_cubic, 1) : "n/a";
        const std::string desync =
            c.region ? format_double(c.region->desync.num_cubic, 1) : "n/a";
        return "{\"seed\":" + std::to_string(c.seed) + ",\"panel\":" +
               quoted(format_double(c.cap, 0) + " Mbps, " +
                      format_double(c.rtt, 0) + " ms") +
               ",\"row\":[" + quoted(format_double(c.buffer, 1)) + "," +
               quoted(sync) + "," + quoted(desync) + "," +
               quoted(format_double(kNeFlows - c.k_ne, 0)) +
               "],\"distributions\":" + std::to_string(c.distributions) +
               "}";
      }).c_str());
}

// --- oracle_mix ----------------------------------------------------------

// What a query in the mix is built to exercise.
enum class Intent { kExact, kInterp, kModel, kMiss };

struct MixQuery {
  OracleQuery q;
  Intent intent = Intent::kExact;
};

// Lattice axes of every cached base point: buffer (BDP) x N_cubic x N_bbr.
constexpr double kLatticeBdp[] = {1.0, 2.0, 4.0, 8.0};
constexpr int kLatticeFlows[] = {1, 2, 4, 8};

// Queries per pass by intent: mostly cheap reads, and a small fixed share
// (0.32%) of fresh misses that compute and append to the cache. No program
// in the repository issues oracle traffic to copy, so the shares are
// assumed (METRICS.md). Exact hits stay well below half of the cheap
// answers, so their median lies inside the interpolated tier rather than
// on the edge between two tiers, where it would jump between them. The
// counts are fixed so every seed asks for the same amount of work; the
// seed picks the cells and the order.
struct MixCounts {
  std::size_t exact, interp, model, miss;
};
constexpr MixCounts kMixFull{4000, 3000, 2968, 32};
constexpr MixCounts kMixTiny{300, 180, 116, 4};

struct OracleInputs {
  std::vector<OracleQuery> lattice;  ///< cells written to the cache
  std::vector<MixQuery> mix;         ///< the closed-loop query sequence
};

OracleInputs oracle_inputs(const Options& o) {
  Rng rng{o.seed};
  TrialConfig trial;
  trial.duration = from_sec(2);
  trial.warmup = from_ms(500);
  trial.trials = 1;
  trial.seed = o.seed;

  // Sixteen cached base points, the same for every seed, so every seed's
  // cache and misses cost the same to build and to answer.
  struct Base {
    double cap_mbps, rtt_ms;
  };
  constexpr double kRtts[] = {10.0, 20.0, 30.0, 40.0};
  std::vector<Base> bases;
  const std::size_t num_bases = o.tiny ? 2 : 16;
  for (std::size_t i = 0; i < num_bases; ++i) {
    bases.push_back(Base{8.0 + 2.5 * static_cast<double>(i / 4), kRtts[i % 4]});
  }
  const auto cell = [&](const Base& b, double bdp, int nc, int no,
                        const TrialConfig& t) {
    return OracleQuery{make_params(b.cap_mbps, b.rtt_ms, bdp), nc, no,
                       CcKind::kBbr, t};
  };
  const auto pick = [&rng](const auto& arr) {
    return arr[rng.next_below(std::size(arr))];
  };

  OracleInputs in;
  for (const Base& b : bases) {
    for (const double bdp : kLatticeBdp) {
      for (const int nc : kLatticeFlows) {
        for (const int no : kLatticeFlows) {
          in.lattice.push_back(cell(b, bdp, nc, no, trial));
        }
      }
    }
  }

  const MixCounts counts = o.tiny ? kMixTiny : kMixFull;
  const auto lattice_base = [&] { return bases[rng.next_below(bases.size())]; };
  for (std::size_t i = 0; i < counts.exact; ++i) {
    in.mix.push_back({cell(lattice_base(), pick(kLatticeBdp), pick(kLatticeFlows),
                           pick(kLatticeFlows), trial),
                      Intent::kExact});
  }
  std::set<std::string> lattice_keys;
  for (const OracleQuery& q : in.lattice) lattice_keys.insert(oracle_key(q));
  while (in.mix.size() < counts.exact + counts.interp) {
    // Inside the lattice hull on the buffer axis; a draw whose buffer
    // rounds onto a cached cell is drawn again.
    const double bdp = 1.0 + 7.0 * (0.01 + 0.98 * rng.next_double());
    OracleQuery q = cell(lattice_base(), bdp, 1 + static_cast<int>(rng.next_below(8)),
                         1 + static_cast<int>(rng.next_below(8)), trial);
    if (lattice_keys.count(oracle_key(q)) == 0) {
      in.mix.push_back({std::move(q), Intent::kInterp});
    }
  }
  for (std::size_t i = 0; i < counts.model; ++i) {
    // Off every cached lattice: a link faster than any cached base.
    const Base off{20.0 + 80.0 * rng.next_double(), pick(kRtts)};
    in.mix.push_back({cell(off, 1.0 + 9.0 * rng.next_double(),
                           1 + static_cast<int>(rng.next_below(25)),
                           1 + static_cast<int>(rng.next_below(25)), trial),
                      Intent::kModel});
  }
  for (std::size_t i = 0; i < counts.miss; ++i) {
    // A lattice-shaped cell under a trial seed nothing has cached. The
    // shapes cycle through the lattice so the misses cost the same at
    // every seed.
    TrialConfig fresh = trial;
    fresh.seed = o.seed + 1 + i;
    in.mix.push_back({cell(bases[i % bases.size()], kLatticeBdp[i % 4],
                           kLatticeFlows[(i / 4) % 4], kLatticeFlows[(i / 2) % 4],
                           fresh),
                      Intent::kMiss});
  }
  // Fisher-Yates with the workload's generator.
  for (std::size_t i = in.mix.size(); i > 1; --i) {
    std::swap(in.mix[i - 1], in.mix[rng.next_below(i)]);
  }
  return in;
}

bool same_outcome(const MixOutcome& a, const MixOutcome& b) {
  return same_bits(a.per_flow_cubic_mbps, b.per_flow_cubic_mbps) &&
         same_bits(a.per_flow_other_mbps, b.per_flow_other_mbps) &&
         same_bits(a.total_cubic_mbps, b.total_cubic_mbps) &&
         same_bits(a.total_other_mbps, b.total_other_mbps) &&
         same_bits(a.avg_queue_delay_ms, b.avg_queue_delay_ms) &&
         same_bits(a.link_utilization, b.link_utilization) &&
         same_bits(a.cubic_buffer_avg, b.cubic_buffer_avg) &&
         same_bits(a.cubic_buffer_min, b.cubic_buffer_min) &&
         same_bits(a.noncubic_buffer_avg, b.noncubic_buffer_avg) &&
         a.trials_completed == b.trials_completed;
}

/// FNV-1a over everything an answer reports.
void digest_answer(std::uint64_t& h, const OracleAnswer& a) {
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  const MixOutcome& m = a.outcome;
  mix(static_cast<std::uint64_t>(a.status));
  mix(static_cast<std::uint64_t>(a.fidelity));
  for (const double v :
       {m.per_flow_cubic_mbps, m.per_flow_other_mbps, m.total_cubic_mbps,
        m.total_other_mbps, m.avg_queue_delay_ms, m.link_utilization,
        m.cubic_buffer_avg, m.cubic_buffer_min, m.noncubic_buffer_avg}) {
    mix(std::bit_cast<std::uint64_t>(v));
  }
  mix(static_cast<std::uint64_t>(m.trials_completed));
}

const char* answer_tag(const OracleAnswer& a, Intent intent) {
  if (!a.ok()) return "failed";
  if (a.fidelity == OracleFidelity::kExact) {
    return intent == Intent::kMiss ? "computed" : "exact";
  }
  return to_string(a.fidelity);
}

/// The client: requests that need the empirical cell go through the full
/// tier chain (query); estimates take the cheap tiers and fall back to the
/// closed-form model rather than wait for a simulation.
OracleAnswer ask(PayoffOracle& oracle, const MixQuery& m) {
  if (m.intent == Intent::kExact || m.intent == Intent::kMiss) {
    Tracer::Scope span{g_tracer, "exp.oracle.query"};
    return oracle.query(m.q);
  }
  {
    Tracer::Scope span{g_tracer, "exp.oracle.query_cached"};
    auto cached = oracle.query_cached(m.q);
    if (cached) return std::move(*cached);
  }
  Tracer::Scope span{g_tracer, "exp.oracle.answer_without_compute"};
  return oracle.answer_without_compute(m.q, "no-compute");
}

/// Why an answer is wrong for its intent; empty when it is right.
std::string check_answer(const OracleAnswer& a, const MixQuery& m,
                         const std::map<std::string, MixOutcome>& written) {
  if (!a.ok()) return std::string{"status "} + to_string(a.status);
  switch (m.intent) {
    case Intent::kExact: {
      const auto it = written.find(a.key);
      if (a.fidelity != OracleFidelity::kExact) return "exact hit not tagged exact";
      if (it == written.end() || !same_outcome(a.outcome, it->second)) {
        return "exact hit differs from the written outcome";
      }
      return "";
    }
    case Intent::kMiss:
      if (a.fidelity != OracleFidelity::kExact) return "miss not computed";
      if (a.outcome.trials_completed < 1 || a.outcome.trials_failed != 0) {
        return "computed cell has failed trials";
      }
      return "";
    case Intent::kInterp:
      // A blend the model band rejects falls back to the model tier.
      if (a.fidelity == OracleFidelity::kExact) return "midpoint tagged exact";
      if (a.fidelity == OracleFidelity::kInterpolated &&
          a.outcome.trials_completed != 0) {
        return "interpolated answer carries trial counts";
      }
      return "";
    case Intent::kModel:
      if (a.fidelity != OracleFidelity::kModelOnly) {
        return "off-lattice point not answered by the model";
      }
      return "";
  }
  return "unknown intent";
}

void run_oracle_mix(const Options& o) {
  const OracleInputs in = oracle_inputs(o);
  if (o.setup_only) return;

  // Write phase: compute every lattice cell through the oracle's own
  // compute path into the pristine cache file.
  const std::string pristine = o.scratch + "/oracle_cache.jsonl";
  const std::string live = o.scratch + "/oracle_live.jsonl";
  std::filesystem::remove(pristine);
  std::map<std::string, MixOutcome> written;
  std::uint64_t write_digest = 0xCBF29CE484222325ULL;
  int write_failed = 0;
  {
    OracleConfig cfg;
    cfg.cache_path = pristine;
    PayoffOracle writer{cfg};
    for (const OracleQuery& q : in.lattice) {
      const OracleAnswer a = writer.query_compute(q);
      if (!a.ok() || a.outcome.trials_completed < 1) ++write_failed;
      digest_answer(write_digest, a);
      written.emplace(a.key, a.outcome);
    }
    writer.flush();
  }
  const auto cache_bytes = std::filesystem::file_size(pristine);

  struct Pass {
    double probe_s, hydrate_s, wall_s, cpu_s, cheap_p50_us, cheap_p99_us,
        miss_p50_ms;
    std::uint64_t digest;
    std::size_t misses;
  };
  std::vector<Pass> passes;
  std::vector<double> cheap_us;  // this pass's cheap-tier latencies
  std::vector<double> miss_ms;   // this pass's miss latencies
  std::size_t miss_samples = 0;
  std::map<std::string, std::size_t> tags;  // answers by tag, first pass
  std::map<std::string, std::size_t> errors;
  std::size_t failed = 0;
  OracleStats stats;
  OracleConfig live_cfg;
  live_cfg.cache_path = live;
  HostProbe probe;
  repeat_for(o, [&](std::size_t rep) {
    std::filesystem::copy_file(pristine, live,
                               std::filesystem::copy_options::overwrite_existing);
    const double probe_s = probe.run();
    const double h0 = wall_now();
    std::optional<PayoffOracle> oracle;
    {
      Tracer::Scope span{g_tracer, "exp.oracle.hydrate"};
      oracle.emplace(live_cfg);
    }
    Pass p{probe_s, wall_now() - h0, 0, 0, 0, 0, 0, 0xCBF29CE484222325ULL, 0};
    cheap_us.clear();
    miss_ms.clear();
    const double w0 = wall_now();
    const double c0 = cpu_now();
    for (const MixQuery& m : in.mix) {
      const double t0 = wall_now();
      Tracer::Scope span{g_tracer, "bench.oracle_mix.request"};
      const OracleAnswer a = ask(*oracle, m);
      const double dt = wall_now() - t0;
      span.tag(answer_tag(a, m.intent));
      if (m.intent == Intent::kMiss) {
        miss_ms.push_back(1e3 * dt);
        ++p.misses;
      } else {
        cheap_us.push_back(1e6 * dt);
      }
      digest_answer(p.digest, a);
      const std::string why = check_answer(a, m, written);
      if (!why.empty()) {
        ++failed;
        ++errors[why];
      }
      if (rep == 0) ++tags[answer_tag(a, m.intent)];
    }
    {
      Tracer::Scope span{g_tracer, "exp.checkpoint.flush"};
      oracle->flush();
    }
    p.wall_s = wall_now() - w0;
    p.cpu_s = cpu_now() - c0;
    p.cheap_p50_us = percentile(cheap_us, 0.5);
    p.cheap_p99_us = percentile(cheap_us, 0.99);
    p.miss_p50_ms = percentile(miss_ms, 0.5);
    miss_samples += miss_ms.size();
    if (rep == 0) stats = oracle->stats();
    passes.push_back(p);
  });

  // The miss cells through run_mix_trials directly: the simulation share
  // of a miss, without the oracle's lookup and record around it.
  std::vector<double> mix_trials_ms;
  if (!o.trace_out.empty()) {
    for (const MixQuery& m : in.mix) {
      if (m.intent != Intent::kMiss) continue;
      const double t0 = wall_now();
      Tracer::Scope span{g_tracer, "exp.sweeps.run_mix_trials"};
      const MixOutcome out = run_mix_trials(m.q.net, m.q.num_cubic,
                                            m.q.num_other, m.q.challenger,
                                            m.q.trial);
      mix_trials_ms.push_back(1e3 * (wall_now() - t0));
      if (out.trials_completed < 1) ++failed;
    }
  }

  std::size_t digest_mismatches = 0;
  for (const Pass& p : passes) digest_mismatches += p.digest != passes[0].digest;
  std::ostringstream err;
  for (const auto& [why, n] : errors) err << (err.tellp() > 0 ? "," : "") << quoted(why) << ':' << n;
  std::ostringstream tag_json;
  for (const auto& [tag, n] : tags) {
    tag_json << (tag_json.tellp() > 0 ? "," : "") << quoted(tag) << ':' << n;
  }
  const auto u64 = [](std::uint64_t v) { return std::to_string(v); };
  std::printf(
      "{\"workload\":\"oracle_mix\",\"queries_per_pass\":%zu,"
      "\"lattice_cells\":%zu,\"write_failed\":%d,\"write_digest\":\"%016llx\","
      "\"answer_digest\":\"%016llx\",\"digest_mismatches\":%zu,"
      "\"failed\":%zu,\"errors\":{%s},\"tags\":{%s},"
      "\"trial_sim_s\":%s,\"trials\":%d,\"cache_bytes\":%llu,"
      "\"stats\":{\"queries\":%s,\"exact_hits\":%s,\"interpolated\":%s,"
      "\"model_only\":%s,\"computed\":%s,\"pending\":%s,\"failed\":%s,"
      "\"interp_no_bounds\":%s,\"interp_band_rejected\":%s,"
      "\"hydrated_cells\":%s},"
      "\"cheap_per_pass\":%zu,\"miss_samples\":%zu,"
      "\"mix_trials_p50_ms\":%s,"
      "\"passes\":%s}\n",
      in.mix.size(), in.lattice.size(), write_failed,
      static_cast<unsigned long long>(write_digest),
      static_cast<unsigned long long>(passes[0].digest), digest_mismatches,
      failed, err.str().c_str(), tag_json.str().c_str(),
      num(to_sec(in.lattice.front().trial.duration)).c_str(),
      in.lattice.front().trial.trials,
      static_cast<unsigned long long>(cache_bytes), u64(stats.queries).c_str(),
      u64(stats.exact_hits).c_str(), u64(stats.interpolated).c_str(),
      u64(stats.model_only).c_str(), u64(stats.computed).c_str(),
      u64(stats.pending).c_str(), u64(stats.failed).c_str(),
      u64(stats.interp_no_bounds).c_str(),
      u64(stats.interp_band_rejected).c_str(),
      u64(stats.hydrated_cells).c_str(), in.mix.size() - passes[0].misses,
      miss_samples, num(percentile(mix_trials_ms, 0.5)).c_str(),
      json_list(passes, [](const Pass& p) {
        return "{\"probe_s\":" + num(p.probe_s) +
               ",\"hydrate_s\":" + num(p.hydrate_s) + ",\"wall_s\":" +
               num(p.wall_s) + ",\"cpu_s\":" + num(p.cpu_s) +
               ",\"cheap_p50_us\":" + num(p.cheap_p50_us) +
               ",\"cheap_p99_us\":" + num(p.cheap_p99_us) +
               ",\"miss_p50_ms\":" + num(p.miss_p50_ms) +
               ",\"misses\":" + std::to_string(p.misses) + "}";
      }).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    if (!o.trace_out.empty()) g_tracer.enable();
    if (o.workload == "run_50flow") {
      run_fifty_flow(o);
    } else if (o.workload == "ne_cells") {
      run_ne_cells(o);
    } else if (o.workload == "oracle_mix") {
      run_oracle_mix(o);
    } else if (o.workload == "probe") {
      HostProbe probe;
      std::vector<double> times;
      repeat_for(o, [&](std::size_t) { times.push_back(probe.run()); });
      std::printf("{\"workload\":\"probe\",\"probe_s\":%s}\n",
                  json_list(times, num).c_str());
    } else {
      throw std::invalid_argument{"unknown workload " + o.workload};
    }
    if (!o.trace_out.empty() && !o.setup_only) g_tracer.write(o.trace_out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 2;
  }
}
