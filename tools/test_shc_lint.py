#!/usr/bin/env python3
"""Self-test for tools/shc_lint.py — each rule must fire on a minimal
violation and stay silent on the compliant / suppressed variant, so a
lint regression cannot silently stop guarding the tree."""

from __future__ import annotations

import contextlib
import io
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import shc_lint  # noqa: E402


class LintHarness(unittest.TestCase):
    def run_lint(self, files: dict[str, str]) -> tuple[int, str]:
        """Writes `files` (relative paths) into a scratch tree, lints it."""
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            for rel, text in files.items():
                path = root / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = shc_lint.main(["--root", str(root)])
            return status, buf.getvalue()

    def assert_finding(self, files: dict[str, str], rule: str) -> None:
        status, out = self.run_lint(files)
        self.assertEqual(status, 1, f"expected a finding, got:\n{out}")
        self.assertIn(f"[{rule}]", out)

    def assert_clean(self, files: dict[str, str]) -> None:
        status, out = self.run_lint(files)
        self.assertEqual(status, 0, f"expected clean, got:\n{out}")


class CheckedCounterRule(LintHarness):
    def test_raw_increment_flagged(self) -> None:
        self.assert_finding(
            {"src/sim/a.hpp": "void f() { stats_.total_calls += n; }\n"},
            "checked-counter",
        )

    def test_plus_plus_flagged(self) -> None:
        self.assert_finding(
            {"src/gossip/a.hpp": "void f() { total_exchanges++; }\n"},
            "checked-counter",
        )

    def test_assignment_with_arithmetic_flagged(self) -> None:
        self.assert_finding(
            {"src/mlbg/a.cpp": "void f() { rep.known_pairs = a + b; }\n"},
            "checked-counter",
        )

    def test_checked_helper_clean(self) -> None:
        self.assert_clean(
            {
                "src/sim/a.hpp":
                    "void f() { checked_acc_u64(stats_.total_calls, n); }\n"
                    "void g() { saturating_acc_u64(rep.known_pairs, m); }\n"
            }
        )

    def test_reset_and_reads_clean(self) -> None:
        self.assert_clean(
            {
                "src/sim/a.hpp":
                    "void f() { stats_.total_calls = 0; }\n"
                    "auto g() { return stats_.total_calls; }\n"
            }
        )

    def test_outside_counter_dirs_clean(self) -> None:
        self.assert_clean(
            {"src/graph/a.cpp": "void f() { total_calls += n; }\n"}
        )

    def test_comment_mention_clean(self) -> None:
        self.assert_clean(
            {"src/sim/a.hpp": "// total_calls += n would overflow\n"}
        )

    def test_suppression_honored(self) -> None:
        self.assert_clean(
            {
                "src/sim/a.hpp":
                    "// shc-lint: allow(checked-counter) — test fixture\n"
                    "void f() { stats_.total_calls += n; }\n"
            }
        )


class RawThreadRule(LintHarness):
    def test_thread_outside_pool_flagged(self) -> None:
        self.assert_finding(
            {"src/sim/a.hpp": "std::thread t([]{});\n"}, "raw-thread"
        )

    def test_worker_pool_itself_clean(self) -> None:
        self.assert_clean(
            {
                "src/sim/include/shc/sim/worker_pool.hpp":
                    "std::thread t([]{});\n"
            }
        )

    def test_hardware_concurrency_clean(self) -> None:
        self.assert_clean(
            {"src/sim/a.hpp": "auto n = std::thread::hardware_concurrency();\n"}
        )


class AssertGuardRule(LintHarness):
    def test_bare_assert_flagged(self) -> None:
        self.assert_finding(
            {"src/graph/src/a.cpp": "void f(int n) { assert(n >= 1); }\n"},
            "assert-guard",
        )

    def test_baseline_bare_assert_flagged(self) -> None:
        self.assert_finding(
            {"src/baseline/src/a.cpp": "void f(int n) { assert(n >= 1); }\n"},
            "assert-guard",
        )

    def test_subcube_translation_unit_flagged(self) -> None:
        self.assert_finding(
            {"src/sim/src/subcube.cpp": "void f(int n) { assert(n >= 1); }\n"},
            "assert-guard",
        )

    def test_subcube_header_flagged(self) -> None:
        self.assert_finding(
            {"src/sim/include/shc/sim/subcube.hpp":
                 "void f(int n) { assert(n >= 1); }\n"},
            "assert-guard",
        )

    def test_subcube_header_allowed_invariant_clean(self) -> None:
        self.assert_clean(
            {
                "src/sim/include/shc/sim/subcube.hpp":
                    "void f(int n) { assert(n >= 1);  "
                    "// shc-lint: allow(assert-guard)\n}\n"
            }
        )

    def test_knowledge_classes_translation_unit_flagged(self) -> None:
        self.assert_finding(
            {"src/sim/src/knowledge_classes.cpp":
                 "void f(int n) { assert(n >= 1); }\n"},
            "assert-guard",
        )

    def test_knowledge_classes_allowed_invariant_clean(self) -> None:
        self.assert_clean(
            {
                "src/sim/src/knowledge_classes.cpp":
                    "void f(int n) { assert(n >= 1);  "
                    "// shc-lint: allow(assert-guard)\n}\n"
            }
        )

    def test_congestion_translation_unit_flagged(self) -> None:
        self.assert_finding(
            {"src/sim/src/congestion.cpp": "void f(int n) { assert(n >= 1); }\n"},
            "assert-guard",
        )

    def test_congestion_allowed_invariant_clean(self) -> None:
        self.assert_clean(
            {
                "src/sim/src/congestion.cpp":
                    "void f(int n) { assert(n >= 1);  "
                    "// shc-lint: allow(assert-guard)\n}\n"
            }
        )

    def test_spec_translation_unit_flagged(self) -> None:
        self.assert_finding(
            {"src/mlbg/src/spec.cpp": "void f(int n) { assert(n >= 1); }\n"},
            "assert-guard",
        )

    def test_spec_allowed_invariant_clean(self) -> None:
        self.assert_clean(
            {
                "src/mlbg/src/spec.cpp":
                    "void f(int n) { assert(n >= 1);  "
                    "// shc-lint: allow(assert-guard)\n}\n"
            }
        )

    def test_params_translation_unit_flagged(self) -> None:
        self.assert_finding(
            {"src/mlbg/src/params.cpp": "int f(int n) { assert(n >= 2); return n; }\n"},
            "assert-guard",
        )

    def test_params_allowed_invariant_clean(self) -> None:
        self.assert_clean(
            {
                "src/mlbg/src/params.cpp":
                    "void f(int n) { assert(n >= 1);  "
                    "// shc-lint: allow(assert-guard)\n}\n"
            }
        )

    def test_other_sim_translation_unit_not_in_scope(self) -> None:
        self.assert_clean(
            {"src/sim/src/flat_schedule.cpp": "void f(int n) { assert(n >= 1); }\n"}
        )

    def test_baseline_allowed_invariant_clean(self) -> None:
        self.assert_clean(
            {
                "src/baseline/src/a.cpp":
                    "void f(int n) { assert(n >= 1);  "
                    "// shc-lint: allow(assert-guard)\n}\n"
            }
        )

    def test_header_not_in_scope(self) -> None:
        self.assert_clean(
            {"src/graph/include/shc/graph/a.hpp": "#define X assert(1)\n"}
        )

    def test_multiline_allow_comment_covers_assert(self) -> None:
        self.assert_clean(
            {
                "src/coding/src/a.cpp":
                    "// shc-lint: allow(assert-guard) — internal invariant,\n"
                    "// explained over two comment lines.\n"
                    "void f(int n) { assert(n >= 1); }\n"
            }
        )

    def test_static_assert_clean(self) -> None:
        self.assert_clean(
            {"src/graph/src/a.cpp": "static_assert(sizeof(int) == 4);\n"}
        )


class NondeterminismRule(LintHarness):
    def test_rand_flagged(self) -> None:
        self.assert_finding(
            {"src/sim/a.cpp": "int f() { return rand(); }\n"}, "nondeterminism"
        )

    def test_time_flagged(self) -> None:
        self.assert_finding(
            {"src/bits/a.cpp": "auto t = time(nullptr);\n"}, "nondeterminism"
        )

    def test_random_device_flagged(self) -> None:
        self.assert_finding(
            {"src/sim/a.cpp": "std::random_device rd;\n"}, "nondeterminism"
        )

    def test_seeded_engine_clean(self) -> None:
        self.assert_clean(
            {"src/graph/a.cpp": "std::mt19937_64 rng(seed);\n"}
        )


class LayeringRule(LintHarness):
    def test_sim_including_mlbg_flagged(self) -> None:
        self.assert_finding(
            {"src/sim/a.hpp": '#include "shc/mlbg/spec.hpp"\n'}, "layering"
        )

    def test_sim_including_gossip_flagged(self) -> None:
        self.assert_finding(
            {"src/sim/a.hpp": '#include "shc/gossip/gossip.hpp"\n'}, "layering"
        )

    def test_graph_including_coding_flagged(self) -> None:
        self.assert_finding(
            {"src/graph/a.cpp": '#include "shc/coding/gf2.hpp"\n'}, "layering"
        )

    def test_allowed_edges_clean(self) -> None:
        self.assert_clean(
            {
                "src/gossip/a.hpp": '#include "shc/mlbg/spec.hpp"\n',
                "src/mlbg/b.hpp": '#include "shc/sim/subcube.hpp"\n',
                "src/sim/c.hpp": '#include "shc/graph/graph.hpp"\n',
            }
        )

    def test_umbrella_dir_exempt(self) -> None:
        self.assert_clean(
            {"src/include/shc/shc.hpp": '#include "shc/gossip/gossip.hpp"\n'}
        )


class TimestampRule(LintHarness):
    def test_steady_clock_outside_obs_flagged(self) -> None:
        self.assert_finding(
            {"src/sim/a.hpp": "auto t = std::chrono::steady_clock::now();\n"},
            "timestamp",
        )

    def test_high_resolution_clock_flagged(self) -> None:
        self.assert_finding(
            {
                "src/bits/a.cpp":
                    "using clk = std::chrono::high_resolution_clock;\n"
            },
            "timestamp",
        )

    def test_obs_itself_clean(self) -> None:
        self.assert_clean(
            {
                "src/obs/src/recorder.cpp":
                    "auto t = std::chrono::steady_clock::now();\n"
            }
        )

    def test_comment_mention_clean(self) -> None:
        self.assert_clean(
            {"src/sim/a.hpp": "// steady_clock lives only in src/obs/\n"}
        )

    def test_suppression_honored(self) -> None:
        self.assert_clean(
            {
                "src/sim/a.hpp":
                    "// shc-lint: allow(timestamp) — test fixture\n"
                    "auto t = std::chrono::steady_clock::now();\n"
            }
        )


class ObsLayering(LintHarness):
    def test_bits_including_obs_flagged(self) -> None:
        self.assert_finding(
            {"src/bits/a.hpp": '#include "shc/obs/recorder.hpp"\n'}, "layering"
        )

    def test_obs_including_sim_flagged(self) -> None:
        self.assert_finding(
            {"src/obs/a.hpp": '#include "shc/sim/subcube.hpp"\n'}, "layering"
        )

    def test_kernel_including_obs_flagged(self) -> None:
        self.assert_finding(
            {
                "src/sim/include/shc/sim/subcube_batch.hpp":
                    '#include "shc/obs/recorder.hpp"\n'
            },
            "kernel-layer",
        )

    def test_engines_including_obs_clean(self) -> None:
        self.assert_clean(
            {
                "src/sim/a.hpp": '#include "shc/obs/recorder.hpp"\n',
                "src/mlbg/b.hpp": '#include "shc/obs/recorder.hpp"\n',
                "src/gossip/c.hpp": '#include "shc/obs/recorder.hpp"\n',
                "src/obs/d.hpp": '#include "shc/bits/vertex.hpp"\n',
            }
        )


class NewCheckedCounters(LintHarness):
    def test_rounds_checked_raw_flagged(self) -> None:
        self.assert_finding(
            {"src/sim/a.hpp": "void f() { stats_.rounds_checked++; }\n"},
            "checked-counter",
        )

    def test_union_cache_raw_flagged(self) -> None:
        self.assert_finding(
            {"src/sim/a.cpp": "void f() { stats_.union_cache_misses += 1; }\n"},
            "checked-counter",
        )

    def test_saturating_clean(self) -> None:
        self.assert_clean(
            {
                "src/sim/a.cpp":
                    "void f() { saturating_acc_u64(stats_.reduce_tree_tasks, "
                    "n); }\n"
            }
        )


class KernelLayerRule(LintHarness):
    KERNEL = "src/sim/include/shc/sim/subcube_batch.hpp"

    def test_kernel_including_sim_flagged(self) -> None:
        # Even an include its own module's layering allows (sim -> sim)
        # is out of bounds for the kernel header.
        self.assert_finding(
            {self.KERNEL: '#include "shc/sim/subcube.hpp"\n'}, "kernel-layer"
        )

    def test_kernel_including_graph_flagged(self) -> None:
        self.assert_finding(
            {self.KERNEL: '#include "shc/graph/graph.hpp"\n'}, "kernel-layer"
        )

    def test_bits_and_system_headers_clean(self) -> None:
        self.assert_clean(
            {
                self.KERNEL:
                    "#include <cstdint>\n"
                    "#include <vector>\n"
                    '#include "shc/bits/vertex.hpp"\n'
            }
        )

    def test_other_sim_headers_unaffected(self) -> None:
        self.assert_clean(
            {
                "src/sim/include/shc/sim/subcube.hpp":
                    '#include "shc/sim/subcube_batch.hpp"\n'
            }
        )


class DuplicateKnobRule(LintHarness):
    def test_redeclared_knob_flagged(self) -> None:
        self.assert_finding(
            {
                "src/mlbg/a.hpp":
                    "struct Opt { std::uint64_t sample_seed = 1; };\n"
            },
            "duplicate-knob",
        )

    def test_redeclared_budget_flagged(self) -> None:
        self.assert_finding(
            {
                "src/gossip/a.hpp":
                    "struct Opt { std::uint64_t ledger_budget_per_claim{8}; };\n"
            },
            "duplicate-knob",
        )

    def test_home_header_clean(self) -> None:
        self.assert_clean(
            {
                "src/sim/include/shc/sim/check_options.hpp":
                    "struct CommonCheckOptions { std::uint64_t sample_seed = "
                    "0x5eedULL; };\n"
            }
        )

    def test_qualified_reads_clean(self) -> None:
        self.assert_clean(
            {
                "src/sim/a.hpp":
                    "void f() { auto s = sopt_.sample_seed; }\n"
                    "bool g() { return budget < sopt_.ledger_budget_per_claim; }\n"
            }
        )

    def test_suppression_honored(self) -> None:
        self.assert_clean(
            {
                "src/sim/a.hpp":
                    "// shc-lint: allow(duplicate-knob) — test fixture\n"
                    "struct Opt { std::uint64_t sample_seed = 1; };\n"
            }
        )


class ApiLayering(LintHarness):
    def test_api_including_engines_clean(self) -> None:
        self.assert_clean(
            {
                "src/api/a.hpp": '#include "shc/mlbg/broadcast.hpp"\n',
                "src/api/b.cpp":
                    '#include "shc/gossip/symbolic_gossip.hpp"\n'
                    '#include "shc/sim/congestion.hpp"\n'
                    '#include "shc/obs/recorder.hpp"\n',
            }
        )

    def test_api_including_baseline_flagged(self) -> None:
        self.assert_finding(
            {"src/api/a.hpp": '#include "shc/baseline/path_star.hpp"\n'},
            "layering",
        )

    def test_engines_including_api_flagged(self) -> None:
        # Nothing below the facade may reach up into it.
        self.assert_finding(
            {"src/gossip/a.hpp": '#include "shc/api/certify.hpp"\n'}, "layering"
        )

    def test_sim_including_api_flagged(self) -> None:
        self.assert_finding(
            {"src/sim/a.cpp": '#include "shc/api/serve.hpp"\n'}, "layering"
        )


class RealTree(LintHarness):
    def test_repo_is_clean(self) -> None:
        """The actual tree must lint clean — this is the ctest gate."""
        root = pathlib.Path(__file__).resolve().parent.parent
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = shc_lint.main(["--root", str(root)])
        self.assertEqual(status, 0, f"repo lint failures:\n{buf.getvalue()}")


if __name__ == "__main__":
    unittest.main()
