#include "shc/baseline/path_star.hpp"

#include <cassert>
#include <deque>
#include <stdexcept>
#include <string>

#include "shc/bits/bitstring.hpp"

namespace shc {
namespace {

/// A maximal run of consecutive path vertices containing exactly one
/// informed vertex (its owner).
struct Segment {
  VertexId lo, hi, owner;

  [[nodiscard]] VertexId uninformed() const noexcept { return hi - lo; }
};

/// Appends the consecutive-vertex walk from a to b (either direction) as
/// the current call's path.
void append_straight_path(FlatSchedule& s, VertexId a, VertexId b) {
  if (a <= b) {
    for (VertexId x = a;; ++x) {
      s.push_vertex(x);
      if (x == b) break;
    }
  } else {
    for (VertexId x = a;; --x) {
      s.push_vertex(x);
      if (x == b) break;
    }
  }
}

}  // namespace

FlatSchedule path_line_broadcast(VertexId N, VertexId source) {
  if (N < 1 || source >= N) {
    throw std::invalid_argument("path_line_broadcast: need N >= 1 and source < N, got N = " +
                                std::to_string(N) + ", source = " + std::to_string(source));
  }
  FlatSchedule schedule;
  schedule.source = source;
  if (N > 1) {
    // ceil(log2 N) rounds, N-1 calls, each path vertex covered once per
    // round it appears in a call; N vertices per round is a safe bound.
    schedule.reserve(static_cast<std::size_t>(ceil_log2(N)), N - 1,
                     static_cast<std::size_t>(ceil_log2(N)) * N);
  }

  std::deque<Segment> segments{{0, N - 1, source}};
  bool work_left = N > 1;
  while (work_left) {
    bool round_open = false;
    std::deque<Segment> next;
    work_left = false;
    for (const Segment& seg : segments) {
      const VertexId q = seg.uninformed();
      if (q == 0) {
        next.push_back(seg);
        continue;
      }
      // Give the callee's side ceil(q/2) vertices (callee included), the
      // owner's side floor(q/2) uninformed; both fit the halved budget.
      const VertexId s = (q + 1) / 2;
      const VertexId q_left = seg.owner - seg.lo;
      const VertexId q_right = seg.hi - seg.owner;
      Segment mine{0, 0, seg.owner};
      Segment theirs{0, 0, 0};
      if (q_right >= q_left) {
        assert(s <= q_right);  // shc-lint: allow(assert-guard) — q_right >= q/2
        const VertexId cut = seg.hi - s;  // owner's side is [lo, cut]
        mine.lo = seg.lo;
        mine.hi = cut;
        theirs.lo = cut + 1;
        theirs.hi = seg.hi;
        theirs.owner = cut + 1 + (s - 1) / 2;  // median of the new side
      } else {
        assert(s <= q_left);  // shc-lint: allow(assert-guard) — q_left > q/2
        const VertexId cut = seg.lo + s;  // owner's side is [cut, hi]
        mine.lo = cut;
        mine.hi = seg.hi;
        theirs.lo = seg.lo;
        theirs.hi = cut - 1;
        theirs.owner = seg.lo + (s - 1) / 2;
      }
      if (!round_open) {
        schedule.begin_round();
        round_open = true;
      }
      append_straight_path(schedule, seg.owner, theirs.owner);
      schedule.end_call();
      if (mine.uninformed() > 0 || theirs.uninformed() > 0) work_left = true;
      next.push_back(mine);
      next.push_back(theirs);
    }
    segments.swap(next);
  }
  return schedule;
}

FlatSchedule star_line_broadcast(VertexId N, VertexId source) {
  if (N < 2 || source >= N) {
    throw std::invalid_argument("star_line_broadcast: need N >= 2 and source < N, got N = " +
                                std::to_string(N) + ", source = " + std::to_string(source));
  }
  FlatSchedule schedule;
  schedule.source = source;
  schedule.reserve(static_cast<std::size_t>(ceil_log2(N)), N - 1,
                   3 * static_cast<std::size_t>(N - 1));

  std::vector<VertexId> informed{source};
  informed.reserve(N);
  std::vector<VertexId> pending;  // uninformed, consumed from the back
  pending.reserve(N - 1);
  for (VertexId leaf = 1; leaf < N; ++leaf) {
    if (leaf != source) pending.push_back(leaf);
  }
  if (source != 0) pending.push_back(0);
  // The center (if uninformed) sits at the back, so a leaf source calls
  // it first and every later call can switch through an informed center.
  while (!pending.empty()) {
    schedule.begin_round();
    const std::size_t frontier = informed.size();
    for (std::size_t i = 0; i < frontier && !pending.empty(); ++i) {
      const VertexId caller = informed[i];
      const VertexId target = pending.back();
      pending.pop_back();
      if (caller == 0 || target == 0) {
        schedule.add_call({caller, target});  // direct spoke
      } else {
        schedule.add_call({caller, 0, target});  // switch through the center
      }
      informed.push_back(target);
    }
  }
  return schedule;
}

}  // namespace shc
