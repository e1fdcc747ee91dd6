#!/usr/bin/env python3
"""Self-test for tools/trace_report.py — renders synthetic per-round
JSONL rows and checks the table, the phase breakdown, and the error
paths, so the report stays trustworthy without a live trace."""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import trace_report  # noqa: E402


def rows_to_file(tmp: str, rows: list[dict]) -> str:
    path = pathlib.Path(tmp) / "t.rounds.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows),
                    encoding="utf-8")
    return str(path)


def run_main(path: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = trace_report.main([path])
    return status, out.getvalue(), err.getvalue()


SAMPLE = [
    {"round": 1, "ts_ms": 1.0, "wall_ms": 1.0,
     "counters": {"round_groups": 10, "frontier_subcubes": 4},
     "phases_ms": {"caller_tiling": 0.6, "frontier_insert": 0.2}},
    {"round": 2, "ts_ms": 3.0, "wall_ms": 2.0,
     "counters": {"round_groups": 2000, "frontier_subcubes": 9},
     "phases_ms": {"caller_tiling": 1.5}},
    {"round": 3, "ts_ms": 3.5, "wall_ms": 0.5,
     "counters": {"round_groups": 50, "frontier_subcubes": 7},
     "phases_ms": {"sampled_replay": 0.4}},
    {"round": -1, "ts_ms": 4.0, "wall_ms": 0.5,
     "counters": {}, "phases_ms": {"endgame": 0.5}},
]


class Render(unittest.TestCase):
    def test_table_and_summary(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            status, out, err = run_main(rows_to_file(tmp, SAMPLE))
        self.assertEqual(status, 0, err)
        # One table line per real round; the tail row is summarized.
        self.assertIn("rounds: 3 (+1 endgame window)", out)
        self.assertIn("total wall: 4.00 ms", out)
        # Groups/sec: round 2 checked 2000 groups in 2 ms -> 1M/s.
        self.assertIn("1.00M", out)
        # Frontier growth is a delta against the previous round.
        self.assertIn("+5", out)
        self.assertIn("-2", out)

    def test_phase_breakdown_sorted_by_time(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            status, out, _ = run_main(rows_to_file(tmp, SAMPLE))
        self.assertEqual(status, 0)
        breakdown = out.split("phase breakdown:")[1]
        self.assertLess(breakdown.index("caller_tiling"),
                        breakdown.index("endgame"))
        self.assertLess(breakdown.index("endgame"),
                        breakdown.index("sampled_replay"))

    def test_top5_slowest(self) -> None:
        rows = [{"round": r, "ts_ms": float(r), "wall_ms": float(r),
                 "counters": {}, "phases_ms": {}} for r in range(1, 9)]
        with tempfile.TemporaryDirectory() as tmp:
            status, out, _ = run_main(rows_to_file(tmp, rows))
        self.assertEqual(status, 0)
        top = out.split("top-5 slowest rounds:")[1]
        for r in (8, 7, 6, 5, 4):
            self.assertIn(f"round    {r}", top)
        self.assertNotIn("round    3", top)

    def test_no_overlap_note_when_phases_fit_the_wall(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            status, out, _ = run_main(rows_to_file(tmp, SAMPLE))
        self.assertEqual(status, 0)
        self.assertNotIn("note:", out)

    def test_overlapping_phases_are_noted(self) -> None:
        # A 2-worker round: the check phases ran on a pooled worker while
        # the engine thread inserted, so 1.7 ms of phases fit in 1.0 ms.
        rows = [
            {"round": 1, "ts_ms": 1.0, "wall_ms": 1.0,
             "counters": {"round_groups": 10, "pool_busy_ns": 700000},
             "phases_ms": {"ledger_build": 0.1, "frontier_insert": 0.8,
                           "group_checks": 0.2, "caller_tiling": 0.6}},
            {"round": 2, "ts_ms": 2.0, "wall_ms": 1.0,
             "counters": {"round_groups": 12},
             "phases_ms": {"frontier_insert": 0.5}},
        ]
        with tempfile.TemporaryDirectory() as tmp:
            status, out, err = run_main(rows_to_file(tmp, rows))
        self.assertEqual(status, 0, err)
        self.assertIn("note: phases sum past wall time in 1 of 2 windows", out)
        self.assertIn("frontier_insert overlapping the check phases", out)
        # The breakdown still reports every phase, past 100 % in total.
        breakdown = out.split("phase breakdown:")[1]
        self.assertIn("frontier_insert", breakdown)
        self.assertIn("65.0%", breakdown)

    def test_rows_without_optional_counters(self) -> None:
        rows = [{"round": 0, "ts_ms": 0.1, "wall_ms": 0.1,
                 "counters": {"rss_hwm_kb": 1024}, "phases_ms": {}}]
        with tempfile.TemporaryDirectory() as tmp:
            status, out, err = run_main(rows_to_file(tmp, rows))
        self.assertEqual(status, 0, err)
        self.assertIn("rounds: 1", out)


class Errors(unittest.TestCase):
    def test_missing_file(self) -> None:
        status, _, err = run_main("/nonexistent/t.jsonl")
        self.assertEqual(status, 1)
        self.assertIn("trace_report:", err)

    def test_malformed_json(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "bad.jsonl"
            path.write_text('{"round": 1\n', encoding="utf-8")
            status, _, err = run_main(str(path))
        self.assertEqual(status, 1)
        self.assertIn("not JSON", err)

    def test_row_without_round_key(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "bad.jsonl"
            path.write_text('{"wall_ms": 1.0}\n', encoding="utf-8")
            status, _, err = run_main(str(path))
        self.assertEqual(status, 1)
        self.assertIn("not a per-round row", err)

    def test_empty_file(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "empty.jsonl"
            path.write_text("", encoding="utf-8")
            status, _, err = run_main(str(path))
        self.assertEqual(status, 1)
        self.assertIn("no per-round rows", err)

    def test_usage(self) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = trace_report.main([])
        self.assertEqual(status, 2)
        self.assertIn("Usage", err.getvalue())


class FmtCount(unittest.TestCase):
    def test_scales(self) -> None:
        self.assertEqual(trace_report.fmt_count(7), "7")
        self.assertEqual(trace_report.fmt_count(1536), "1.54k")
        self.assertEqual(trace_report.fmt_count(2.5e6), "2.50M")
        self.assertEqual(trace_report.fmt_count(3e9), "3.00G")


if __name__ == "__main__":
    unittest.main()
