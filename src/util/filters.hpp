// Windowed extremum filters used by BBR-family congestion controls.
//
// Two implementations are provided:
//   * WindowedFilter     — exact, monotone-ring-based; O(1) amortized and
//                          allocation-free once the ring reaches its
//                          high-water size.
//   * KernelMinmaxFilter — the Linux kernel's 3-slot approximation
//                          (lib/minmax.c), kept for fidelity experiments.
// BBR in this repo uses WindowedFilter; a test cross-checks the two.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/ring_deque.hpp"
#include "util/units.hpp"

namespace bbrnash {

enum class FilterKind { kMax, kMin };

/// Samples a BBR-family bandwidth filter pre-sizes its ring to. The ring
/// zero-fills its buffer, so every reserved slot is resident memory paid
/// per flow, and the size comes from measured high-water marks rather
/// than a worst case. Over every quick-fidelity figure sweep (Figs. 3-5,
/// 7, 9-12: ~47k BBR/BBRv2 filters) 99.9% peaked at <= 512 samples and
/// 5 exceeded 1024, the largest at 1359 (a lone BBR flow in a deep
/// buffer). The largest at zero-alloc test scale is 871 (1 BBR + 1 CUBIC,
/// 100 Mbps, 40 ms, 10 BDP). A lone BBR flow in a 30-BDP buffer over a
/// 120-s run reaches ~2700 and doubles its ring twice. 1024 samples is
/// 16 KB per flow, a quarter of 4096's 64 KB; that saving is what lets
/// Fig. 9 run four 50-flow simulations at once (--jobs 4) without raising
/// peak RSS.
inline constexpr std::size_t kBandwidthFilterReserve = 1024;

/// Exact moving max/min over a sliding time window.
///
/// Samples must be inserted with non-decreasing timestamps. `best()` returns
/// the extremum among samples within `window` of the most recent update
/// time. When empty, returns the supplied default value.
template <typename T>
class WindowedFilter {
 public:
  WindowedFilter(FilterKind kind, TimeNs window, T default_value)
      : kind_(kind), window_(window), default_(default_value) {}

  void update(TimeNs now, T value) {
    now_ = now;
    // Pop samples that this one dominates: they can never be the extremum
    // again while `value` is in the window.
    while (!samples_.empty() && !beats(samples_.back().value, value)) {
      samples_.pop_back();
    }
    samples_.push_back({now, value});
    expire(now);
  }

  /// Advances the clock without adding a sample (expires stale entries).
  void advance(TimeNs now) {
    now_ = now;
    expire(now);
  }

  [[nodiscard]] T best() const {
    return samples_.empty() ? default_ : samples_.front().value;
  }

  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Timestamp of the current extremum sample (kTimeNone when empty).
  [[nodiscard]] TimeNs best_time() const {
    return samples_.empty() ? kTimeNone : samples_.front().time;
  }

  void reset() { samples_.clear(); }

  /// Pre-sizes the sample ring (a perf knob: pools reach their high-water
  /// capacity before measurement instead of growing mid-run).
  void reserve(std::size_t n) { samples_.reserve(n); }

  void set_window(TimeNs window) {
    window_ = window;
    expire(now_);
  }
  [[nodiscard]] TimeNs window() const { return window_; }

 private:
  struct Sample {
    TimeNs time;
    T value;
  };

  // True when `a` strictly dominates `b` for this filter's direction.
  [[nodiscard]] bool beats(T a, T b) const {
    return kind_ == FilterKind::kMax ? a > b : a < b;
  }

  void expire(TimeNs now) {
    while (!samples_.empty() && samples_.front().time + window_ < now) {
      samples_.pop_front();
    }
  }

  FilterKind kind_;
  TimeNs window_;
  T default_;
  TimeNs now_ = 0;
  RingDeque<Sample> samples_;
};

/// The Linux kernel's 3-slot windowed max estimator (lib/minmax.c),
/// specialized to max (what tcp_bbr uses for bandwidth).
///
/// It is an approximation: it keeps the best, second-best and third-best
/// samples by recency and ages them out as the window slides.
template <typename T>
class KernelMinmaxFilter {
 public:
  KernelMinmaxFilter(TimeNs window, T default_value)
      : window_(window), default_(default_value) {}

  void update_max(TimeNs now, T value) {
    if (empty_ || value >= slots_[0].value ||
        now - slots_[2].time > window_) {
      reset_to(now, value);
      return;
    }
    if (value >= slots_[1].value) {
      slots_[2] = {now, value};
      slots_[1] = slots_[2];
    } else if (value >= slots_[2].value) {
      slots_[2] = {now, value};
    }
    subwin_update(now, value);
  }

  [[nodiscard]] T best() const { return empty_ ? default_ : slots_[0].value; }

 private:
  struct Slot {
    TimeNs time = 0;
    T value{};
  };

  void reset_to(TimeNs now, T value) {
    slots_[0] = slots_[1] = slots_[2] = {now, value};
    empty_ = false;
  }

  // Port of minmax_subwin_update: rotate slots as the window slides.
  void subwin_update(TimeNs now, T value) {
    const TimeNs dt = now - slots_[0].time;
    if (dt > window_) {
      // Best sample expired: promote and record the new sample last.
      slots_[0] = slots_[1];
      slots_[1] = slots_[2];
      slots_[2] = {now, value};
      if (now - slots_[0].time > window_) {
        slots_[0] = slots_[1];
        slots_[1] = slots_[2];
      }
    } else if (slots_[1].time == slots_[0].time && dt > window_ / 4) {
      slots_[2] = slots_[1] = {now, value};
    } else if (slots_[2].time == slots_[1].time && dt > window_ / 2) {
      slots_[2] = {now, value};
    }
  }

  TimeNs window_;
  T default_;
  Slot slots_[3];
  bool empty_ = true;
};

}  // namespace bbrnash
