// Broadcast schedules under the k-line communication model (Definition 1
// of the paper): a sequence of rounds, each a set of calls, each call an
// explicit walk from an informed caller to its receiver.  Keeping the
// route explicit lets the validator check the model's real constraint:
// calls in one round are pairwise edge-disjoint and receiver-disjoint,
// and each occupies at most k edges.
//
// FlatSchedule is the one schedule type of the library.  It stores the
// schedule in three contiguous arrays instead of one vector per call:
//
//   pool_       — every path vertex of every call, back to back;
//   call_off_   — call c's path is pool_[call_off_[c] .. call_off_[c+1]);
//   round_end_  — round t covers calls [round_end_[t-1], round_end_[t]).
//
// Appending a call costs zero heap allocations once capacity is reserved
// (and O(log) amortized growth otherwise); memory is proportional to the
// total path length.  Producers build schedules through the round/call
// cursor API (begin_round / push_vertex / end_call); consumers iterate
// RoundView / CallView, which are non-owning spans into the pool.
// Hand-built degenerate inputs (an empty call, a one-vertex call, an
// empty round) go through push_vertex + end_call_unchecked or a bare
// begin_round, so they reach the validator's explicit error strings.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include "shc/bits/vertex.hpp"

namespace shc {

struct SymbolicSchedule;

/// Contiguous schedule of rounds of calls; see file comment.
class FlatSchedule {
 public:
  /// Non-owning view of one call's vertex path inside the pool.
  class CallView {
   public:
    CallView(const Vertex* data, std::size_t size) : data_(data), size_(size) {}

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] Vertex operator[](std::size_t i) const noexcept {
      assert(i < size_);
      return data_[i];
    }
    [[nodiscard]] const Vertex* begin() const noexcept { return data_; }
    [[nodiscard]] const Vertex* end() const noexcept { return data_ + size_; }

    [[nodiscard]] Vertex caller() const noexcept {
      assert(size_ > 0 && "caller() on an empty call");
      return data_[0];
    }
    [[nodiscard]] Vertex receiver() const noexcept {
      assert(size_ > 0 && "receiver() on an empty call");
      return data_[size_ - 1];
    }
    /// Number of edges occupied (the paper's call length); -1 when empty.
    [[nodiscard]] int length() const noexcept { return static_cast<int>(size_) - 1; }

   private:
    const Vertex* data_;
    std::size_t size_;
  };

  /// Random-access range of the calls of one round.
  class RoundView {
   public:
    /// Conforming C++20 forward iterator (by-value CallView reference, as
    /// permitted by the std::forward_iterator concept), so std::distance,
    /// <algorithm>, and ranges all work over a round.  The C++17-style
    /// category is input: Cpp17ForwardIterator requires reference to be
    /// an lvalue reference, which a proxy-returning iterator cannot
    /// honestly claim — legacy algorithms must not cache &*it.
    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using iterator_concept = std::forward_iterator_tag;
      using value_type = CallView;
      using difference_type = std::ptrdiff_t;
      using reference = CallView;
      using pointer = void;

      iterator() = default;
      iterator(const FlatSchedule* s, std::size_t call) : s_(s), call_(call) {}
      CallView operator*() const { return s_->call(call_); }
      iterator& operator++() {
        ++call_;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++call_;
        return old;
      }
      friend bool operator==(const iterator&, const iterator&) = default;

     private:
      const FlatSchedule* s_ = nullptr;
      std::size_t call_ = 0;
    };

    RoundView(const FlatSchedule* s, std::size_t first, std::size_t last)
        : s_(s), first_(first), last_(last) {}

    [[nodiscard]] std::size_t size() const noexcept { return last_ - first_; }
    [[nodiscard]] bool empty() const noexcept { return first_ == last_; }
    [[nodiscard]] CallView operator[](std::size_t i) const noexcept {
      assert(first_ + i < last_);
      return s_->call(first_ + i);
    }
    [[nodiscard]] iterator begin() const noexcept { return {s_, first_}; }
    [[nodiscard]] iterator end() const noexcept { return {s_, last_}; }

   private:
    const FlatSchedule* s_;
    std::size_t first_, last_;
  };

  Vertex source = 0;

  // ---- builder (cursor) API -------------------------------------------

  /// Pre-sizes the three arenas; after an exact (or over-) reservation,
  /// building performs zero further heap allocations.
  void reserve(std::size_t rounds, std::size_t calls, std::size_t path_vertices) {
    round_end_.reserve(rounds);
    call_off_.reserve(calls + 1);
    pool_.reserve(path_vertices);
  }

  /// Opens a new round; subsequent calls belong to it.
  void begin_round() {
    assert(!call_open() && "begin_round with an unsealed call");
    round_end_.push_back(num_calls());
  }

  /// Appends one vertex to the call being built.  The first push after a
  /// seal (or after begin_round) implicitly opens the next call.
  void push_vertex(Vertex v) {
    assert(!round_end_.empty() && "push_vertex before begin_round");
    pool_.push_back(v);
  }

  /// Last vertex of the call under construction.
  [[nodiscard]] Vertex last_vertex() const noexcept {
    assert(call_open());
    return pool_.back();
  }

  /// Seals the call under construction into the current round.  A sealed
  /// call must have at least two vertices (one edge).
  void end_call() {
    assert(pool_.size() - call_off_.back() >= 2 && "call needs >= 2 vertices");
    seal_call();
  }

  /// Seals the call under construction *without* the >= 2 vertex
  /// invariant.  Consumers that buffer untrusted schedules (the streaming
  /// validator's scratch arena) use this so a degenerate call reaches the
  /// validator's explicit error path instead of a builder assert.
  void end_call_unchecked() { seal_call(); }

  /// Closes the round under construction.  A no-op for the whole-arena
  /// builder — rounds are delimited by begin_round() — but part of the
  /// RoundSink producer API, where streaming consumers validate and
  /// recycle the round buffer here.
  void end_round() { assert(!call_open() && "end_round with an unsealed call"); }

  /// Convenience: appends a whole path as one call.
  void add_call(std::initializer_list<Vertex> path) {
    for (Vertex v : path) push_vertex(v);
    end_call();
  }
  template <class Range>
  void add_call(const Range& path) {
    for (Vertex v : path) push_vertex(v);
    end_call();
  }

  /// Drops rounds t >= `rounds` (and their calls/paths).
  void truncate_rounds(int rounds) {
    assert(!call_open());
    assert(rounds >= 0 && rounds <= num_rounds());
    round_end_.resize(static_cast<std::size_t>(rounds));
    const std::size_t calls = round_end_.empty() ? 0 : round_end_.back();
    call_off_.resize(calls + 1);
    pool_.resize(call_off_.back());
  }

  // ---- queries ---------------------------------------------------------

  [[nodiscard]] int num_rounds() const noexcept {
    return static_cast<int>(round_end_.size());
  }
  [[nodiscard]] std::size_t num_calls() const noexcept { return call_off_.size() - 1; }
  /// Total path vertices across all calls (pool size).
  [[nodiscard]] std::size_t num_path_vertices() const noexcept {
    return call_off_.back();
  }

  [[nodiscard]] CallView call(std::size_t c) const noexcept {
    assert(c < num_calls());
    return {pool_.data() + call_off_[c], call_off_[c + 1] - call_off_[c]};
  }

  /// Total path vertices of calls [first, last) — what a consumer needs
  /// to size per-round scratch (e.g. the streaming validator's edge
  /// table) without touching every call.
  [[nodiscard]] std::size_t path_vertices_between(std::size_t first,
                                                  std::size_t last) const noexcept {
    assert(first <= last && last <= num_calls());
    return call_off_[last] - call_off_[first];
  }

  [[nodiscard]] RoundView round(int t) const noexcept {
    assert(t >= 0 && t < num_rounds());
    const std::size_t i = static_cast<std::size_t>(t);
    return {this, i == 0 ? 0 : round_end_[i - 1], round_end_[i]};
  }

  /// Longest call in the schedule; 0 when there are no calls.
  [[nodiscard]] int max_call_length() const noexcept {
    int len = 0;
    for (std::size_t c = 0; c < num_calls(); ++c) {
      const int l = call(c).length();
      if (l > len) len = l;
    }
    return len;
  }

  /// Arena footprint of an exact reservation for the given counts —
  /// the static counterpart of heap_bytes(), kept adjacent so a-priori
  /// bounds (streaming certification) stay in lockstep with the real
  /// storage layout.
  [[nodiscard]] static constexpr std::size_t arena_bytes(
      std::size_t rounds, std::size_t calls, std::size_t path_vertices) noexcept {
    return path_vertices * sizeof(Vertex) + (calls + 1) * sizeof(std::size_t) +
           rounds * sizeof(std::size_t);
  }

  /// Bytes currently owned by the three arenas (diagnostics / benches).
  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return pool_.capacity() * sizeof(Vertex) +
           call_off_.capacity() * sizeof(std::size_t) +
           round_end_.capacity() * sizeof(std::size_t);
  }

  friend bool operator==(const FlatSchedule& a, const FlatSchedule& b) {
    return a.source == b.source && a.round_end_ == b.round_end_ &&
           a.call_off_ == b.call_off_ && a.pool_ == b.pool_;
  }

  // ---- conversion ------------------------------------------------------

  /// Expands a symbolic (subcube-batched) schedule into concrete calls:
  /// each group becomes its 2^popcount(free_mask) translated calls, in
  /// ascending free-assignment order.  The bridge that makes the
  /// symbolic and materialized pipelines parity-testable on their
  /// overlapping range.  Throws std::invalid_argument when the expanded
  /// size is unreasonable to materialize (call count above 2^28) or a
  /// group is malformed (prefix/mask overlap, count mismatch).
  [[nodiscard]] static FlatSchedule from_symbolic(const SymbolicSchedule& symbolic);

 private:
  [[nodiscard]] bool call_open() const noexcept {
    return pool_.size() > call_off_.back();
  }
  void seal_call() {
    call_off_.push_back(pool_.size());
    assert(!round_end_.empty());
    ++round_end_.back();
  }

  std::vector<Vertex> pool_;
  std::vector<std::size_t> call_off_ = {0};   // size num_calls()+1
  std::vector<std::size_t> round_end_;        // size num_rounds()
};

/// Pretty-prints a schedule round by round with `bits`-wide binary
/// vertex labels (decimal when bits == 0), e.g. for the Figure-4 trace.
[[nodiscard]] std::string format_schedule(const FlatSchedule& s, int bits = 0);

}  // namespace shc
