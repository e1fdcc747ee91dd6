#!/usr/bin/env python3
"""Render a flight-recorder per-round JSONL trace as a terminal report.

Input is the `*.rounds.jsonl` sink written by a TraceSession (one JSON
object per SHC_TRACE_ROUND mark: wall time of the round's window, the
latest value of every counter, and the summed phase durations of the
window; a trailing `"round": -1` row covers the endgame after the last
mark).  The report shows:

  * a per-round table — round index, wall ms, call groups checked that
    round, groups/sec, frontier size and its growth over the previous
    round, and the round's dominant phase;
  * the aggregate phase breakdown across the whole run;
  * the top-5 slowest rounds by wall time.

Phase sums can exceed wall time.  Nested scopes count in full (the
occupancy ledger's `ledger_check` runs inside `collision_check`), and
with a worker pool of two or more the broadcast validator runs each
round's check phases (`group_checks`, `caller_tiling`,
`collision_check`, `sampled_replay`) on a pooled worker while the
engine thread runs `ledger_build` and `frontier_insert`, so their
durations overlap.  The report says so when a round's phases add up to
more than its wall time.  `ledger_build` holds only the collision
claims: the caller tiling's normal forms are reduced inside
`caller_tiling`, and only on a round the in-order tiling cannot match
(the per-round `caller_tiling_fallback` counter is 1 on such a round).
The `round_batch_bytes` counter is the recorded round plus the round's
frontier snapshot: the validator copies its frontier once per round at
every thread count (the producer and the tiling read that copy), so the
gauge means the same at one thread as at several.  That copy is its own
phase, `frontier_snapshot`, timed at the start of each round on the
engine thread (in the validator, or in the producer's own informed set
when its sink keeps none); it overlaps no other phase.

Only the Python standard library is used; the tool never interprets
verdicts (traces are telemetry — the reports they describe are produced
and gated elsewhere).

Usage:
  python3 tools/trace_report.py TRACE.rounds.jsonl
"""

from __future__ import annotations

import json
import sys


def load_rows(path: str) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{lineno}: not JSON: {e}") from e
            if not isinstance(row, dict) or "round" not in row:
                raise ValueError(f"{path}:{lineno}: not a per-round row")
            rows.append(row)
    return rows


def fmt_count(v: float) -> str:
    """1234567 -> '1.23M' — keeps the table narrow at designed-63 scale."""
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(v) >= scale:
            return f"{v / scale:.2f}{suffix}"
    return f"{v:.0f}" if float(v).is_integer() else f"{v:.2f}"


def dominant_phase(phases: dict) -> str:
    if not phases:
        return "-"
    name, ms = max(phases.items(), key=lambda kv: (kv[1], kv[0]))
    return f"{name} ({ms:.1f} ms)"


def render(rows: list[dict], out=None) -> None:
    if out is None:
        out = sys.stdout
    per_round = [r for r in rows if r.get("round", -1) >= 0]
    tail = [r for r in rows if r.get("round", -1) < 0]

    header = ["round", "wall_ms", "groups", "groups/s", "frontier",
              "growth", "dominant phase"]
    table = []
    prev_frontier = None
    for r in per_round:
        counters = r.get("counters", {})
        wall_ms = float(r.get("wall_ms", 0.0))
        groups = counters.get("round_groups")
        frontier = counters.get("frontier_subcubes")
        rate = "-"
        if groups is not None and wall_ms > 0:
            rate = fmt_count(float(groups) / (wall_ms / 1000.0))
        growth = "-"
        if frontier is not None and prev_frontier is not None:
            growth = f"{int(frontier) - int(prev_frontier):+d}"
        if frontier is not None:
            prev_frontier = frontier
        table.append([
            str(r["round"]),
            f"{wall_ms:.2f}",
            fmt_count(groups) if groups is not None else "-",
            rate,
            fmt_count(frontier) if frontier is not None else "-",
            growth,
            dominant_phase(r.get("phases_ms", {})),
        ])

    widths = [len(h) for h in header]
    for row in table:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]

    def line(cells):
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)), file=out)

    line(header)
    line(["-" * w for w in widths])
    for row in table:
        line(row)

    total_wall = sum(float(r.get("wall_ms", 0.0)) for r in rows)
    phase_totals: dict[str, float] = {}
    for r in rows:
        for name, ms in r.get("phases_ms", {}).items():
            phase_totals[name] = phase_totals.get(name, 0.0) + float(ms)

    print(file=out)
    print(f"rounds: {len(per_round)}"
          + (f" (+{len(tail)} endgame window)" if tail else "")
          + f"   total wall: {total_wall:.2f} ms", file=out)

    if phase_totals:
        overlapped = [r for r in rows
                      if sum(float(ms) for ms in r.get("phases_ms", {}).values())
                      > float(r.get("wall_ms", 0.0))]
        if overlapped:
            print(f"note: phases sum past wall time in {len(overlapped)} of "
                  f"{len(rows)} windows — nested scopes, and at >= 2 workers "
                  "frontier_insert overlapping the check phases", file=out)
        print("phase breakdown:", file=out)
        for name, ms in sorted(phase_totals.items(),
                               key=lambda kv: (-kv[1], kv[0])):
            pct = 100.0 * ms / total_wall if total_wall > 0 else 0.0
            print(f"  {name:<20} {ms:>10.2f} ms  {pct:5.1f}%", file=out)

    slowest = sorted(per_round,
                     key=lambda r: (-float(r.get("wall_ms", 0.0)),
                                    r["round"]))[:5]
    if slowest:
        print("top-5 slowest rounds:", file=out)
        for r in slowest:
            print(f"  round {r['round']:>4}  {float(r.get('wall_ms', 0)):.2f}"
                  f" ms  {dominant_phase(r.get('phases_ms', {}))}", file=out)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        rows = load_rows(argv[0])
    except (OSError, ValueError) as e:
        print(f"trace_report: {e}", file=sys.stderr)
        return 1
    if not rows:
        print(f"trace_report: {argv[0]} holds no per-round rows",
              file=sys.stderr)
        return 1
    render(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
