// Payoff-oracle query service: the memoized + interpolated cache front end
// over the sweep machinery.
//
// The paper's central question — "what throughput share does the
// (N_cubic, N_other) mix get at (C, B, RTT, impairment)?" — is a query an
// NE search or a figure driver issues over and over. The oracle answers it
// through a three-tier path, cheapest first:
//
//   1. exact        the canonical cell key (mix_checkpoint_key — the SAME
//                   key the sweeps and checkpoints use) hits the
//                   in-memory memo, hydrated at construction from the
//                   oracle's own append-only log plus any completed
//                   sweep checkpoint JSONL files. Bit-identical to
//                   running run_mix_trials for that cell.
//   2. interpolated bounded multilinear interpolation over the cached
//                   neighbours on the (N_c, N_other, buffer) lattice —
//                   every other knob must match exactly (it is part of the
//                   lattice's base key). Never extrapolates: each axis
//                   needs a cached cell at or on both sides of the query,
//                   and the blend is a convex combination of the corner
//                   cells. Cross-checked against the closed forms
//                   (model/model_band.hpp); a blend outside the model
//                   envelope by more than `max_band_deviation` is rejected
//                   and the query falls through to tier 3.
//   2b. model-only  when nothing useful is cached but the Mishra/Ware
//                   closed forms apply (challenger BBR, pristine path,
//                   B >= 1 BDP), answer from the model midpoint in O(µs).
//   3. compute      genuine miss: run the cell in-process on the calling
//                   thread (run_mix_trials). Under `no_compute` the oracle
//                   returns kPending instead and NEVER fabricates a number.
//                   Processes share computed cells through the cache file:
//                   each one hydrates from the others' logs (cache_path /
//                   hydrate_paths).
//
// Every computed answer is recorded to the `bbrnash-oracle-v1` append-only
// JSONL cache through CheckpointLog, so the cache inherits the same
// crash-safety story as everything else: torn trailing lines are skipped
// on reload, a killed-and-restarted oracle re-serves exactly the entries
// that reached the disk, and re-recording a key is harmless
// (last-write-wins). Cache entries never go stale by time: a cell's value
// is a pure function of its key (per-trial seeds included), so an entry
// can only be invalidated by changing the simulator itself — which is a
// schema bump, not an expiry rule.
//
// PayoffOracle is thread-safe: any number of threads may query one
// instance concurrently (the tsan-labelled hammer in
// tests/exp/test_oracle.cpp). The memo map is guarded by one mutex; disk
// appends go through CheckpointLog's single writer thread. Two threads
// that race to compute the same missing cell both run it and record the
// same bits — wasteful but correct, and impossible once either answer
// lands in the memo.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cc/congestion_control.hpp"
#include "exp/checkpoint.hpp"
#include "exp/sweeps.hpp"
#include "model/network_params.hpp"

namespace bbrnash {

/// Provenance of an answer's numbers (reported with every answer).
enum class OracleFidelity {
  kExact,         ///< memoized empirical cell (or computed this call)
  kInterpolated,  ///< convex blend of cached neighbour cells
  kModelOnly,     ///< closed-form midpoint, no empirical data touched
};

enum class OracleStatus {
  kOk,       ///< `outcome` holds the answer
  kPending,  ///< miss under no_compute: cell scheduled-to-be-computed,
             ///< NO numbers are reported
  kFailed,   ///< the compute path ran and failed (diagnostics in message)
};

[[nodiscard]] const char* to_string(OracleFidelity f);
[[nodiscard]] const char* to_string(OracleStatus s);

/// One oracle query: the full cell coordinates. Everything in here is part
/// of the canonical key — two queries differing in any knob are different
/// cells.
struct OracleQuery {
  NetworkParams net;
  int num_cubic = 1;
  int num_other = 1;
  CcKind challenger = CcKind::kBbr;
  TrialConfig trial;
};

/// Canonical cell key for a query — mix_checkpoint_key verbatim, so oracle
/// cache entries and sweep checkpoints share one key space (and one %.17g
/// float canonicalization).
[[nodiscard]] std::string oracle_key(const OracleQuery& q);

/// The (buffer, N_c, N_other) lattice coordinates of a mix cell key plus
/// the base key (the key with those three fields elided — everything that
/// must match EXACTLY for two cells to be interpolation neighbours).
/// nullopt for corrupt keys or anything that is not a mix cell key; the
/// oracle never builds lattice entries from such records.
struct MixKeyAxes {
  Bytes buffer = 0;
  int num_cubic = 0;
  int num_other = 0;
  std::string base;
};
[[nodiscard]] std::optional<MixKeyAxes> parse_mix_key_axes(
    const std::string& key);
/// The same axes for a query's own key, taken from the query's fields
/// instead of parsed back out of the text: equal to
/// parse_mix_key_axes(key) whenever `key` is oracle_key(q). The oracle's
/// read path uses this; parse_mix_key_axes stays for hydrated keys.
[[nodiscard]] std::optional<MixKeyAxes> query_key_axes(
    const OracleQuery& q, const std::string& key);

struct [[nodiscard]] OracleAnswer {
  OracleStatus status = OracleStatus::kFailed;
  OracleFidelity fidelity = OracleFidelity::kExact;
  MixOutcome outcome;       ///< valid only when status == kOk
  std::string key;          ///< canonical cell key of the query
  /// Closed-form cross-check: distance of the answer outside the
  /// Mishra/Ware envelope (0 = inside), or -1 when the models do not apply
  /// to this cell (non-BBR challenger, impaired path, B < 1 BDP).
  double band_deviation = -1.0;
  /// WHY a kPending answer has no numbers: the caller's tag, passed through
  /// answer_without_compute ("no-compute" when the config forbids running
  /// the simulator). Empty for kOk/kFailed.
  std::string reason;
  std::string message;      ///< non-empty for kPending/kFailed

  [[nodiscard]] bool ok() const noexcept {
    return status == OracleStatus::kOk;
  }
};

struct OracleConfig {
  /// The oracle's own append-only `bbrnash-oracle-v1` cache. Empty = pure
  /// in-memory cache (still correct, nothing survives the process).
  std::string cache_path;
  /// Additional completed sweep checkpoint logs to hydrate from (read
  /// only; records that are not mix cells and torn lines are skipped).
  std::vector<std::string> hydrate_paths;
  bool allow_interpolation = true;
  bool allow_model = true;
  /// Refuse to run the simulator: a genuine miss answers kPending.
  bool no_compute = false;
  /// Reject an interpolated blend whose per-flow throughputs land further
  /// than this outside the closed-form envelope (fraction of the model
  /// midpoint). Only applied where the models are valid.
  double max_band_deviation = 0.75;
};

/// Monotone counters; snapshot via PayoffOracle::stats().
struct OracleStats {
  std::uint64_t queries = 0;
  std::uint64_t exact_hits = 0;
  std::uint64_t interpolated = 0;
  std::uint64_t model_only = 0;
  std::uint64_t computed = 0;          ///< tier-3 cells run this process
  std::uint64_t pending = 0;
  std::uint64_t failed = 0;
  std::uint64_t interp_no_bounds = 0;  ///< would have extrapolated
  std::uint64_t interp_band_rejected = 0;  ///< blend outside model envelope
  /// Memo entries loaded at startup: every mix record of a side file
  /// (hydrate_paths), plus the distinct mix keys of the oracle's own cache.
  /// The cache's replay keeps the last record of a key, so a key written
  /// twice there counts once.
  std::uint64_t hydrated_cells = 0;
  std::uint64_t hydrate_skipped_lines = 0;  ///< torn/corrupt lines skipped
};

class PayoffOracle {
 public:
  explicit PayoffOracle(OracleConfig cfg);

  /// Answers one query through the tier chain. Thread-safe.
  [[nodiscard]] OracleAnswer query(const OracleQuery& q);

  /// The CHEAP tiers only (exact memo / interpolation / nothing): returns
  /// the answer when one is available without running the simulator,
  /// nullopt on a genuine miss (which does not touch the stats counters —
  /// the caller decides whether the miss becomes a compute or a pending
  /// answer). Thread-safe.
  [[nodiscard]] std::optional<OracleAnswer> query_cached(const OracleQuery& q);

  /// The COMPUTE path for a known miss: re-checks the exact memo (another
  /// thread may have landed the cell since the caller's query_cached), then
  /// runs tier 3. Thread-safe.
  [[nodiscard]] OracleAnswer query_compute(const OracleQuery& q);

  /// The answer for a miss that must NOT compute: the closed-form
  /// model-only tier when it applies, else kPending carrying `reason`
  /// (e.g. "no-compute") — numbers are never fabricated. Thread-safe.
  [[nodiscard]] OracleAnswer answer_without_compute(const OracleQuery& q,
                                                   const std::string& reason);

  /// Answers each query as query() would, in input order.
  [[nodiscard]] std::vector<OracleAnswer> query_batch(
      const std::vector<OracleQuery>& qs);

  /// Entry-for-entry snapshot of the memo (sorted by key) — lets tests
  /// assert cold-start vs hydrated vs resumed caches agree exactly.
  [[nodiscard]] std::vector<std::pair<std::string, MixOutcome>> snapshot()
      const;

  [[nodiscard]] std::size_t cache_size() const;
  [[nodiscard]] OracleStats stats() const;
  /// Blocks until every computed cell accepted so far is on disk.
  void flush();

 private:
  /// One cached cell on its lattice. `cell` points into memo_: map nodes
  /// never move, and a refreshed key overwrites its node in place.
  struct LatticePoint {
    Bytes buffer = 0;
    int num_cubic = 0;
    int num_other = 0;
    const MixOutcome* cell = nullptr;
  };

  void insert_locked(const std::string& key, const MixOutcome& m);
  /// Loads a read-only side file (hydrate_paths) into the memo.
  void hydrate_file(const std::string& path);
  /// Tiers 1 + 2 under mu_; nullopt = miss (no counters touched beyond the
  /// per-tier hit/reject ones).
  [[nodiscard]] std::optional<OracleAnswer> cached_tiers_locked(
      const OracleQuery& q, const std::string& key);
  /// Tier 2 under mu_: the interpolated answer, or nullopt when the blend
  /// would extrapolate or lands outside the model band (each counted).
  /// `key` is oracle_key(q).
  [[nodiscard]] std::optional<OracleAnswer> interpolated_locked(
      const OracleQuery& q, const std::string& key);
  [[nodiscard]] std::optional<MixOutcome> try_interpolate_locked(
      const OracleQuery& q, const MixKeyAxes& axes);
  [[nodiscard]] OracleAnswer answer_miss(const OracleQuery& q,
                                         const std::string& key);

  OracleConfig cfg_;
  std::unique_ptr<CheckpointLog> log_;  ///< null when cache_path is empty
  mutable std::mutex mu_;               ///< guards memo_, lattice_, stats_
  std::map<std::string, MixOutcome> memo_;
  std::map<std::string, std::vector<LatticePoint>> lattice_;
  OracleStats stats_;
};

}  // namespace bbrnash
