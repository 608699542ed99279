// Discrete-event core: a time-ordered queue of pooled event records.
//
// Ordering guarantee: events fire in non-decreasing time; events scheduled
// for the same instant fire in the order they were scheduled (FIFO via a
// monotone sequence number). This makes simulations fully deterministic.
//
// Representation: a timing wheel with a far-horizon heap overflow.
//
//   * The dense near-horizon band (pacing ticks, serialization times, ACK
//     deliveries, propagation delays — everything within ~67 ms) lives in
//     a 16384-bucket timing wheel with 4096 ns granularity. A bucket is an
//     intrusive singly-linked chain threaded through a node array that
//     parallels the payload pool, so scheduling is O(1): compute the
//     bucket, push the chain head, set an occupancy bit.
//   * Events at or beyond the wheel horizon (RTO timers, rtprop probes,
//     measurement boundaries) overflow into a small 4-ary min-heap of
//     packed 16-byte keys — the same cache-aligned sift machinery that
//     used to hold *all* events, now holding only the sparse far band.
//     As the wheel cursor advances, heap events that fall inside the
//     horizon migrate into their buckets, so every event is fired from
//     the wheel path. Invariant: heap events always live at a bucket the
//     cursor has not reached.
//   * The bucket the cursor is parked on is kept *loaded*: its chain is
//     pulled into a reusable scratch vector, sorted by the exact total
//     order (when, then schedule sequence), and drained front to back.
//     Events scheduled at or before the cursor's bucket (same-instant
//     chains, or a fresh event behind an eagerly advanced cursor) are
//     inserted into the scratch's pending region at their sorted
//     position, which preserves the exact heap ordering semantics:
//     among pending events the fire order is always (when, sequence).
//
// Dispatch runs the callable in place: payload slots live in fixed-size
// chunks that never move once allocated, so run_one() fires the event
// directly from pooled storage and recycles the slot after the callable
// returns (never before — the callable's own captures live in that slot).
// The cold Popped/pop() path still copies the payload out first.
//
// Each payload slot embeds its callable in a fixed 64-byte inline buffer,
// so the packet hot path (arrivals, departures, ACK deliveries, pacing
// and RTO timers — all of which capture at most a packet plus a couple of
// pointers) schedules and fires events with ZERO heap allocations in
// steady state: slots are recycled in place and every auxiliary array
// (scratch, chains, free list, heap keys) stops growing once the
// simulation reaches its high-water event count. Callables that are
// larger than the inline buffer or not trivially copyable are boxed on
// the heap (cold paths only: test lambdas, callables routed through
// std::function).
//
// Cancellation is lazy: cancelled entries stay where they are (scratch,
// chain, or heap) and are skipped when they reach the scratch front. Only
// events scheduled via schedule_cancellable() pay the hash-set
// bookkeeping; the hot path (packet arrivals/departures, which are never
// cancelled) stays allocation-free. Cancellation is keyed on the globally
// unique schedule sequence, never the pool slot, so a stale EventId whose
// slot has been recycled to a new event can never kill the new event, and
// double-cancel is a counted no-op. size() reports only live entries
// (watchdog diagnostics must not overreport); raw_size() includes the
// lazily-cancelled dead entries still occupying pool slots.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace bbrnash {

using EventId = std::uint64_t;

/// Inline storage per event payload. Sized for the largest hot-path
/// callable: a delayed delivery capturing a DelayLine pointer plus a
/// Packet payload (8 + 48 bytes), rounded up to a 64-byte slot.
inline constexpr std::size_t kEventInlineBytes = 64;

class EventQueue {
 private:
  /// What the wheel and heap order on: 16 bytes. meta packs
  /// (sequence << kSeqShift) | (slot << 1) | cancellable — the sequence
  /// occupies the high bits, so comparing meta words compares sequences
  /// (slot and flag only differ when sequences differ, and sequences are
  /// unique).
  struct Key {
    TimeNs when;
    std::uint64_t meta;
  };
  static_assert(std::is_trivially_copyable_v<Key>);
  static_assert(sizeof(Key) == 16);

  /// meta layout: bit 0 = cancellable, bits 1..24 = payload-slot index
  /// (16M concurrent events), bits 25..63 = schedule sequence (5e11
  /// events per simulation).
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSeqShift = kSlotBits + 1;
  static constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;

  /// One pooled payload: the callable plus its dispatch thunks. Written at
  /// schedule(), fired in place at dispatch, recycled through free_.
  /// Trivially copyable by construction (inline callables are restricted
  /// to trivially-copyable types), so the cold pop() copy-out is a plain
  /// assignment.
  struct Slot {
    void (*invoke)(std::byte*);
    void (*cleanup)(std::byte*);  ///< frees a boxed callable; null = inline
    alignas(std::max_align_t) std::byte storage[kEventInlineBytes];
  };
  static_assert(std::is_trivially_copyable_v<Slot>);

  /// Releases a dispatched slot's boxed callable at scope exit, so the box
  /// is freed even when the callable throws (a throwing event — e.g. an
  /// injected chaos fault — unwinds through the run loop after its key
  /// was already consumed, where no other owner would clean it).
  struct FireGuard {
    Slot& s;
    ~FireGuard() {
      if (s.cleanup != nullptr) s.cleanup(s.storage);
    }
  };

  /// run_one() fires callables in place from pooled storage; the slot must
  /// only return to the free list after the callable (whose captures live
  /// in that storage) finishes — including via an exception unwind.
  struct DispatchGuard {
    EventQueue& q;
    Slot& s;
    std::uint32_t idx;
    ~DispatchGuard() {
      if (s.cleanup != nullptr) s.cleanup(s.storage);
      q.free_.push_back(idx);
    }
  };

 public:
  EventQueue() {
    heads_.assign(kWheelSize, kNil);
    bitmap_.assign(kWheelSize / 64, 0);
  }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  ~EventQueue() {
    for (std::size_t i = drain_; i < scratch_.size(); ++i) {
      release_boxed(scratch_[i]);
    }
    for (std::uint32_t head : heads_) {
      for (std::uint32_t node = head; node != kNil; node = nodes_[node].next) {
        Slot& s = slot_ref(nodes_[node].slot);
        if (s.cleanup != nullptr) s.cleanup(s.storage);
      }
    }
    for (std::size_t i = 0; i < heap_n_; ++i) release_boxed(root_[i]);
    ::operator delete(base_, std::align_val_t{kLineBytes});
  }

  /// Schedules a non-cancellable event at absolute time `when`.
  template <typename F>
  void schedule(TimeNs when, F&& fn) {
    insert_key(when, make_meta(false), fill_slot(std::forward<F>(fn)));
  }

  /// Schedules a cancellable event; returns a handle for cancel().
  template <typename F>
  EventId schedule_cancellable(TimeNs when, F&& fn) {
    const std::uint64_t meta = make_meta(true);
    const EventId seq = meta >> kSeqShift;
    pending_.insert(seq);
    insert_key(when, meta, fill_slot(std::forward<F>(fn)));
    return seq;
  }

  /// Cancels a pending cancellable event. Cancelling an already-fired,
  /// already-cancelled, or unknown id is a harmless no-op: ids are the
  /// globally unique schedule sequence (not the recycled pool slot), so a
  /// stale id can never match a newer event, and the erase-guarded dead_
  /// counter cannot drift (so size() cannot underflow). The dead record
  /// stays pooled until it reaches the scratch front (lazy deletion).
  void cancel(EventId id) {
    if (pending_.erase(id) != 0) ++dead_;
  }

  [[nodiscard]] bool empty() { return !ensure_next(); }

  /// Number of LIVE events (excludes lazily-cancelled dead entries, so
  /// watchdog diagnostics never overreport the backlog).
  [[nodiscard]] std::size_t size() const { return n_ - dead_; }

  /// Number of pool slots currently occupied, dead entries included.
  [[nodiscard]] std::size_t raw_size() const { return n_; }

  /// Pre-sizes the event pool to `n` slots so neither the payload chunks
  /// nor the bookkeeping arrays reallocate while the simulation grows
  /// toward its high-water event count.
  void reserve(std::size_t n) {
    while (chunks_.size() * kChunkSlots < n) add_chunk();
    free_.reserve(n);
    scratch_.reserve(std::min<std::size_t>(n, 1024));
  }

  /// Time of the next live event; kTimeInf when empty.
  [[nodiscard]] TimeNs next_time() {
    return ensure_next() ? scratch_[drain_].when : kTimeInf;
  }

  /// A popped event: fire it with fn() (at most once). If destroyed
  /// unfired, any boxed callable is released.
  class Popped {
   public:
    Popped(const Popped&) = delete;
    Popped& operator=(const Popped&) = delete;
    Popped(Popped&& other) noexcept
        : when(other.when), slot_(other.slot_), live_(other.live_) {
      other.live_ = false;
    }
    Popped& operator=(Popped&&) = delete;
    ~Popped() {
      if (live_ && slot_.cleanup != nullptr) slot_.cleanup(slot_.storage);
    }

    /// Invokes the event's callable. Pre: not already fired. The payload
    /// was copied out of the pool at pop(), so the callable may freely
    /// schedule new events (growing the pool) while it runs.
    void fn() {
      assert(live_ && "event already fired");
      live_ = false;
      FireGuard guard{slot_};
      slot_.invoke(slot_.storage);
    }

    TimeNs when = 0;

   private:
    friend class EventQueue;
    Popped() = default;

    Slot slot_{};
    bool live_ = false;
  };

  /// Pops and returns the next live event. Pre: !empty().
  [[nodiscard]] Popped pop() {
    const bool has_next = ensure_next();
    assert(has_next && "pop() on an empty queue");
    (void)has_next;
    const Key top = scratch_[drain_++];
    --n_;
    retire(top);
    Popped out;
    out.when = top.when;
    out.slot_ = slot_ref(slot_of(top));  // copy out: callbacks may grow the pool
    out.live_ = true;
    free_.push_back(slot_of(top));
    return out;
  }

  /// Combined prune + deadline check + dispatch — the simulator run
  /// loop's one call per event. If the next live event is due at or before
  /// `deadline`, advances `clock` to its timestamp, fires it, and returns
  /// true; otherwise leaves the queue untouched and returns false. The
  /// callable runs in place from its (address-stable) pooled chunk; its
  /// slot is recycled only after it returns, so it may freely schedule new
  /// events.
  bool run_one(TimeNs deadline, TimeNs& clock) {
    if (!ensure_next()) return false;
    const Key top = scratch_[drain_];
    if (top.when > deadline) return false;
    ++drain_;
    --n_;
    retire(top);
    clock = top.when;
    Slot& s = slot_ref(slot_of(top));
    DispatchGuard guard{*this, s, slot_of(top)};
    s.invoke(s.storage);
    return true;
  }

 private:
  template <typename Fn>
  static void invoke_inline(std::byte* storage) {
    // bbrnash-lint: allow(reinterpret-cast) -- pooled-storage payload:
    // reads back the Fn placement-constructed into this slot by fill_slot;
    // launder makes the round-trip through std::byte storage well-defined.
    (*std::launder(reinterpret_cast<Fn*>(storage)))();
  }
  template <typename Fn>
  static void invoke_boxed(std::byte* storage) {
    Fn* boxed;
    std::memcpy(&boxed, storage, sizeof boxed);
    (*boxed)();
  }
  template <typename Fn>
  static void cleanup_boxed(std::byte* storage) {
    Fn* boxed;
    std::memcpy(&boxed, storage, sizeof boxed);
    delete boxed;
  }

  [[nodiscard]] static constexpr std::uint32_t slot_of(const Key& k) {
    return static_cast<std::uint32_t>((k.meta >> 1) & kSlotMask);
  }

  [[nodiscard]] std::uint64_t make_meta(bool cancellable) {
    // A sequence past 39 bits would make same-timestamp FIFO comparisons
    // wrap silently; no realistic run gets near 5e11 events, but fail
    // loudly rather than go nondeterministic.
    if (next_seq_ >> (64 - kSeqShift) != 0) {
      throw std::length_error{"event sequence space exhausted"};
    }
    return (next_seq_++ << kSeqShift) | (cancellable ? 1u : 0u);
  }

  // --- Payload pool (chunked; slots never move once allocated) ----------

  static constexpr std::size_t kChunkShift = 12;  ///< 4096 slots per chunk
  static constexpr std::size_t kChunkSlots = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkSlots - 1;

  [[nodiscard]] Slot& slot_ref(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & kChunkMask];
  }

  void add_chunk() {
    if (chunks_.size() * kChunkSlots > kSlotMask) {
      throw std::length_error{"event pool exhausted (16M live events)"};
    }
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    nodes_.resize(chunks_.size() * kChunkSlots);
  }

  /// Takes a slot from the free list (or grows the pool) and constructs
  /// the callable into it. Returns the slot index.
  template <typename F>
  std::uint32_t fill_slot(F&& fn) {
    using Fn = std::decay_t<F>;
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      if (used_slots_ == chunks_.size() * kChunkSlots) add_chunk();
      idx = static_cast<std::uint32_t>(used_slots_++);
    }
    Slot& s = slot_ref(idx);
    constexpr bool fits_inline =
        sizeof(Fn) <= kEventInlineBytes &&
        alignof(Fn) <= alignof(std::max_align_t) &&
        std::is_trivially_copyable_v<Fn>;
    if constexpr (fits_inline) {
      ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
      s.invoke = &invoke_inline<Fn>;
      s.cleanup = nullptr;
    } else {
      Fn* boxed = new Fn(std::forward<F>(fn));
      std::memcpy(s.storage, &boxed, sizeof boxed);
      s.invoke = &invoke_boxed<Fn>;
      s.cleanup = &cleanup_boxed<Fn>;
    }
    return idx;
  }

  /// Frees a key's boxed callable (if any) and recycles its pool slot.
  void release_slot(std::uint32_t idx) {
    Slot& s = slot_ref(idx);
    if (s.cleanup != nullptr) s.cleanup(s.storage);
    free_.push_back(idx);
  }

  /// Destructor-only: boxed cleanup without free-list bookkeeping.
  void release_boxed(const Key& k) {
    Slot& s = slot_ref(slot_of(k));
    if (s.cleanup != nullptr) s.cleanup(s.storage);
  }

  /// Strict total order: (when, schedule sequence). Sequences are unique,
  /// so ties never happen and FIFO-at-same-timestamp is exact.
  [[nodiscard]] static bool before(const Key& a, const Key& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.meta < b.meta;
  }

  // --- Timing wheel (near horizon) ---------------------------------------

  /// 16384 buckets x 4096 ns = a 67 ms horizon: wide enough that pacing
  /// ticks, serialization times, and propagation delays (tens of ms) all
  /// land directly in the wheel; only RTO-scale timers overflow to the
  /// heap. Bucket chains are threaded through nodes_ (parallel to the
  /// payload pool), so scheduling allocates nothing. The granularity is
  /// tuned so a loaded bucket holds a handful of events (sorting it is a
  /// few compares) while cursor advances stay rare relative to events.
  static constexpr std::uint64_t kBucketShift = 12;
  static constexpr std::uint64_t kWheelBits = 14;
  static constexpr std::uint64_t kWheelSize = std::uint64_t{1} << kWheelBits;
  static constexpr std::uint64_t kWheelMask = kWheelSize - 1;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Node {
    TimeNs when;
    std::uint64_t meta;
    std::uint32_t slot;  ///< == slot_of(meta); kept to avoid re-unpacking
    std::uint32_t next;
  };

  [[nodiscard]] static constexpr std::uint64_t bucket_of(TimeNs when) {
    return static_cast<std::uint64_t>(when) >> kBucketShift;
  }

  /// Routes a fresh (or heap-migrated) key to scratch, wheel, or heap.
  /// Pre for the wheel arm: wheel_pos_ < bucket_of(when) < wheel_pos_ +
  /// kWheelSize, which makes physical slot <-> absolute bucket a
  /// bijection (two in-horizon buckets congruent mod kWheelSize are
  /// equal), so a chain only ever holds one absolute bucket's events.
  void insert_key(TimeNs when, std::uint64_t meta, std::uint32_t slot) {
    const Key key{when, (meta & ~(kSlotMask << 1)) |
                            (static_cast<std::uint64_t>(slot) << 1)};
    ++n_;
    const std::uint64_t b = bucket_of(when);
    if (b <= wheel_pos_) {
      // The cursor's own bucket (same-instant chained events), or behind
      // an eagerly advanced cursor: splice into the scratch's pending
      // region at the exact (when, sequence) position. Everything already
      // drained compares strictly less (fired whens <= this when, and
      // this sequence is the largest yet issued), so the pending region
      // stays totally sorted and the global fire order is unchanged from
      // a single ordered heap.
      const auto pos = std::upper_bound(
          scratch_.begin() + static_cast<std::ptrdiff_t>(drain_),
          scratch_.end(), key,
          [](const Key& a, const Key& c) { return before(a, c); });
      scratch_.insert(pos, key);
    } else if (b - wheel_pos_ < kWheelSize) {
      chain_push(key);
    } else {
      push_heap_key(key);
    }
  }

  /// Pushes an in-horizon key onto its bucket chain. Pre: see insert_key.
  void chain_push(const Key& key) {
    const auto s =
        static_cast<std::uint32_t>(bucket_of(key.when) & kWheelMask);
    const std::uint32_t idx = slot_of(key);
    nodes_[idx] = Node{key.when, key.meta, idx, heads_[s]};
    heads_[s] = idx;
    bitmap_[s >> 6] |= std::uint64_t{1} << (s & 63);
    ++wheel_count_;
  }

  /// Smallest absolute bucket > wheel_pos_ with a non-empty chain.
  /// Pre: wheel_count_ != 0. Scans the occupancy bitmap starting just
  /// past the cursor's slot; because every chained event's bucket lies in
  /// (wheel_pos_, wheel_pos_ + kWheelSize), the first set bit in cyclic
  /// slot order is the earliest bucket.
  [[nodiscard]] std::uint64_t next_occupied_bucket() const {
    const auto start =
        static_cast<std::uint32_t>((wheel_pos_ + 1) & kWheelMask);
    const auto words = static_cast<std::uint32_t>(kWheelSize / 64);
    std::uint32_t w = start >> 6;
    std::uint64_t word = bitmap_[w] & (~std::uint64_t{0} << (start & 63));
    for (;;) {
      if (word != 0) {
        const auto s = static_cast<std::uint32_t>(
            (w << 6) + static_cast<std::uint32_t>(__builtin_ctzll(word)));
        const auto dist =
            static_cast<std::uint32_t>((s - start) & kWheelMask);
        return wheel_pos_ + 1 + dist;
      }
      w = (w + 1) & (words - 1);
      word = bitmap_[w];
    }
  }

  /// Moves the cursor to the earliest non-empty bucket, pulls that
  /// bucket's chain (plus any heap events that the advance brought inside
  /// the horizon) into scratch_, and sorts it. Pre: scratch_ is drained.
  /// Returns false when no events remain anywhere.
  bool advance_cursor() {
    scratch_.clear();
    drain_ = 0;
    std::uint64_t target;
    if (wheel_count_ != 0) {
      target = next_occupied_bucket();
      if (heap_n_ != 0) {
        const std::uint64_t hb = bucket_of(root_[0].when);
        if (hb < target) target = hb;
      }
    } else if (heap_n_ != 0) {
      // Wheel empty: rebase the cursor straight to the heap top's bucket
      // (this is how the cursor crosses long event-free gaps in O(1)).
      target = bucket_of(root_[0].when);
    } else {
      return false;
    }
    wheel_pos_ = target;
    const auto s = static_cast<std::uint32_t>(target & kWheelMask);
    std::uint32_t node = heads_[s];
    heads_[s] = kNil;
    bitmap_[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
    while (node != kNil) {
      scratch_.push_back(Key{nodes_[node].when, nodes_[node].meta});
      --wheel_count_;
      node = nodes_[node].next;
    }
    // Restore the heap invariant (all heap events beyond the horizon of
    // the *new* cursor): migrate anything the advance uncovered. The heap
    // pops in time order, so these go to their exact buckets.
    while (heap_n_ != 0 &&
           bucket_of(root_[0].when) < wheel_pos_ + kWheelSize) {
      Key k;
      pop_root(k);
      if (bucket_of(k.when) == wheel_pos_) {
        scratch_.push_back(k);
      } else {
        chain_push(k);
      }
    }
    std::sort(scratch_.begin(), scratch_.end(),
              [](const Key& a, const Key& b) { return before(a, b); });
    return true;
  }

  /// Advances past lazily-cancelled entries until scratch_[drain_] is the
  /// earliest live event queue-wide (loading buckets as needed). Returns
  /// false when no live events exist.
  bool ensure_next() {
    for (;;) {
      while (drain_ < scratch_.size()) {
        const Key k = scratch_[drain_];
        if ((k.meta & 1) == 0 ||
            pending_.find(k.meta >> kSeqShift) != pending_.end()) {
          return true;
        }
        ++drain_;
        --n_;
        --dead_;
        release_slot(slot_of(k));
      }
      if (!advance_cursor()) return false;
    }
  }

  /// Post-pop bookkeeping for a cancellable key that fired live.
  void retire(const Key& top) {
    if ((top.meta & 1) != 0) pending_.erase(top.meta >> kSeqShift);
  }

  // --- Far-horizon heap ---------------------------------------------------

  static constexpr std::size_t kArity = 4;
  static constexpr std::size_t kLineBytes = 64;
  /// Root offset inside the 64-byte-aligned allocation: with the root at
  /// element 3, every sibling group {4i+1 .. 4i+4} lands on physical
  /// indices {4k .. 4k+3} — exactly one cache line per group.
  static constexpr std::size_t kRootPad = kArity - 1;

  /// Grows (or first-allocates) the aligned key array to hold at least
  /// `min_cap` keys. Growth is amortized doubling; contents are preserved.
  void grow_keys(std::size_t min_cap) {
    std::size_t cap = key_cap_ == 0 ? 64 : key_cap_;
    while (cap < min_cap) cap *= 2;
    auto* fresh = static_cast<Key*>(::operator new(
        (cap + kRootPad) * sizeof(Key), std::align_val_t{kLineBytes}));
    if (heap_n_ != 0) std::memcpy(fresh + kRootPad, root_, heap_n_ * sizeof(Key));
    ::operator delete(base_, std::align_val_t{kLineBytes});
    base_ = fresh;
    root_ = fresh + kRootPad;
    key_cap_ = cap;
  }

  void push_heap_key(const Key& key) {
    if (heap_n_ == key_cap_) grow_keys(heap_n_ + 1);
    // Sift up with a hole: parents slide down until key's level is found.
    std::size_t i = heap_n_++;
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(key, root_[parent])) break;
      root_[i] = root_[parent];
      i = parent;
    }
    root_[i] = key;
  }

  /// Copies the root key into `out` and restores the heap invariant.
  void pop_root(Key& out) {
    out = root_[0];
    const Key last = root_[--heap_n_];
    if (heap_n_ == 0) return;
    // Sift down with a hole: the smallest child bubbles up until `last`
    // fits. Each sibling group is one aligned cache line.
    std::size_t i = 0;
    for (;;) {
      const std::size_t first_child = kArity * i + 1;
      if (first_child >= heap_n_) break;
      const std::size_t end_child =
          first_child + kArity < heap_n_ ? first_child + kArity : heap_n_;
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < end_child; ++c) {
        if (before(root_[c], root_[best])) best = c;
      }
      if (!before(root_[best], last)) break;
      root_[i] = root_[best];
      i = best;
    }
    root_[i] = last;
  }

  // --- State --------------------------------------------------------------

  // Payload pool: fixed-size chunks (slots never move), LIFO free list.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t used_slots_ = 0;  ///< slots handed out at least once
  std::vector<std::uint32_t> free_;

  // Wheel: per-slot chain nodes, bucket heads, occupancy bitmap, cursor.
  std::vector<Node> nodes_;            ///< parallel to the payload pool
  std::vector<std::uint32_t> heads_;   ///< kWheelSize chain heads
  std::vector<std::uint64_t> bitmap_;  ///< kWheelSize occupancy bits
  std::uint64_t wheel_pos_ = 0;  ///< absolute bucket the cursor is parked on
  std::size_t wheel_count_ = 0;  ///< events currently threaded in chains

  // Loaded bucket: sorted, drained front to back.
  std::vector<Key> scratch_;
  std::size_t drain_ = 0;

  // Far-horizon heap.
  Key* base_ = nullptr;  ///< 64-byte-aligned allocation (kRootPad lead-in)
  Key* root_ = nullptr;  ///< heap element 0 (= base_ + kRootPad)
  std::size_t key_cap_ = 0;  ///< heap capacity in keys (excludes the pad)
  std::size_t heap_n_ = 0;   ///< heap size

  std::size_t n_ = 0;  ///< occupied slots: scratch pending + chains + heap
  // bbrnash-lint: allow(unordered-container) -- lookup-only (insert /
  // erase / count); never iterated, so hash order cannot affect results.
  std::unordered_set<EventId> pending_;
  std::size_t dead_ = 0;  ///< cancelled entries still occupying pool slots
  EventId next_seq_ = 1;
};

}  // namespace bbrnash
