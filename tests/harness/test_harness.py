"""Harness tests: runner, comparisons, figure generators, reports.

Uses small scales so the whole module stays fast; the benchmarks run
the full-size versions.
"""

import pytest

from repro.harness import figures, report
from repro.harness.configs import CONFIG_ORDER, named_configs
from repro.harness.runner import HostPerf, run_comparison, run_fpvm, run_native
from repro.core.vm import FPVMConfig

SMALL_SCALES = {
    "lorenz": 60,
    "three_body": 16,
    "double_pendulum": 20,
    "fbench": 4,
    "ffbench": 8,
    "enzo": 12,
}


@pytest.fixture(scope="module")
def suite():
    return figures.Suite("boxed_ieee", scale_overrides=SMALL_SCALES)


class TestRunner:
    def test_native_result(self):
        r = run_native("lorenz", scale=30)
        assert r.cycles > 0 and r.instructions > 0 and r.output

    def test_fpvm_result_fields(self):
        r = run_fpvm("lorenz", FPVMConfig.seq_short(), "SEQ_SHORT", scale=30)
        assert r.traps > 0
        assert r.emulated_instructions > 0
        assert r.ledger["altmath"] > 0
        assert r.config_name == "SEQ_SHORT"

    def test_config_label_inferred(self):
        r = run_fpvm("lorenz", FPVMConfig.seq(), scale=30)
        assert r.config_name == "SEQ"

    def test_comparison_all_configs(self):
        comp = run_comparison("lorenz", named_configs(), scale=30)
        assert set(comp.runs) == set(CONFIG_ORDER)
        for c in CONFIG_ORDER:
            assert comp.slowdown(c) > 1.0

    def test_comparison_outputs_bit_for_bit(self):
        comp = run_comparison("enzo", named_configs(), scale=12)
        for c in CONFIG_ORDER:
            assert comp.runs[c].output == comp.native.output

    def test_lower_bound_below_total(self):
        comp = run_comparison("lorenz", named_configs(), scale=30)
        for c in CONFIG_ORDER:
            assert 1.0 < comp.slowdown_from_lower_bound(c) < comp.slowdown(c)


class TestHostPerf:
    def test_ips_counts_emulated_instructions(self):
        host = HostPerf(seconds=2.0, instructions=300,
                        metrics={"fpvm.emulated_instructions": 500})
        assert host.ips == 400.0
        assert HostPerf(instructions=300).ips == 0.0

    def test_seq_short_ips_above_none(self):
        """SEQ_SHORT emulates most of lorenz, so counting only native
        instructions made it look slower than NONE."""
        none = run_fpvm("lorenz", FPVMConfig.none(), scale=150).host
        seq = run_fpvm("lorenz", FPVMConfig.seq_short(), scale=150).host
        emulated = "fpvm.emulated_instructions"
        assert seq.metrics[emulated] > seq.instructions
        assert (none.instructions + none.metrics[emulated]
                == seq.instructions + seq.metrics[emulated])
        assert seq.ips > none.ips


class TestFigureShapes:
    """The qualitative claims each figure makes must hold."""

    def test_fig1_kernel_dominates_baseline(self, suite):
        data = figures.figure1(suite)
        for w, am in data.items():
            assert am["kernel"] + am["ret"] + am["hw"] > 0.5 * sum(am.values()), w

    def test_fig4_each_technique_helps(self, suite):
        data = figures.figure4(suite)
        for w, cfgs in data.items():
            assert cfgs["SEQ"] < cfgs["NONE"], w
            assert cfgs["SHORT"] < cfgs["NONE"], w
            assert cfgs["SEQ_SHORT"] <= 1.2 * min(cfgs["SEQ"], cfgs["SHORT"]), w

    def test_fig4_order_of_magnitude_reduction(self, suite):
        """Paper: average 7.2x reduction NONE -> SEQ_SHORT."""
        data = figures.figure4(suite)
        reductions = [cfgs["NONE"] / cfgs["SEQ_SHORT"] for cfgs in data.values()]
        assert sum(reductions) / len(reductions) > 4

    def test_fig5_approaches_lower_bound(self, suite):
        data = figures.figure5(suite)
        for w, cfgs in data.items():
            assert cfgs["SEQ_SHORT"] < 6, (w, cfgs)
            assert cfgs["SEQ_SHORT"] < cfgs["NONE"] / 3

    def test_fig6_altmath_grows_with_optimizations(self, suite):
        data = figures.figure6(suite)
        for w, rows in data.items():
            by_cfg = {r.config: r for r in rows}
            frac_none = by_cfg["NONE"].amortized["altmath"] / sum(
                by_cfg["NONE"].amortized.values()
            )
            frac_opt = by_cfg["SEQ_SHORT"].amortized["altmath"] / sum(
                by_cfg["SEQ_SHORT"].amortized.values()
            )
            assert frac_opt > 3 * frac_none, w

    def test_fig6_speedups_annotated(self, suite):
        data = figures.figure6(suite)
        for rows in data.values():
            by_cfg = {r.config: r for r in rows}
            assert by_cfg["NONE"].speedup_vs_none == pytest.approx(1.0)
            assert by_cfg["SEQ_SHORT"].speedup_vs_none > 3

    def test_fig7_trace_dump(self, suite):
        text = figures.figure7(suite, "lorenz", rank=2)
        assert "trace rank 3" in text
        assert "terminator" in text

    def test_fig8_cdfs_reach_100(self, suite):
        for w, series in figures.figure8(suite).items():
            assert series[-1] == pytest.approx(100.0), w

    def test_fig9_lengths(self, suite):
        for w, series in figures.figure9(suite).items():
            assert series, w
            lengths = [l for l, _ in series]
            assert min(lengths) >= 1

    def test_fig10_cache_sizing_small(self, suite):
        """§6.3: trace caches stay tiny (paper: <2000 entries, <2MB)."""
        for w, sizing in figures.figure10(suite).items():
            assert sizing.cache_entries < 2000, w
            assert sizing.cache_bytes < 2 * 1024 * 1024

    def test_trap_microbenchmark_matches_paper_constants(self):
        t = figures.trap_microbenchmark()
        assert t.hw_trap == pytest.approx(380, rel=0.05)
        assert t.signal_delivery == pytest.approx(3920, rel=0.1)
        assert t.sigreturn == pytest.approx(1800, rel=0.05)
        assert 6 < t.delegation_reduction < 20  # paper: ~8x
        assert 5 < t.total_reduction < 12       # paper: 5980 -> ~760

    def test_fig3_magic_traps_cheaper(self):
        costs = figures.figure3()
        assert costs.reduction > 10  # paper: 14-120x

    def test_profiler_vs_static(self):
        rows = figures.profiler_vs_static(("three_body", "enzo"))
        for r in rows:
            assert r.profiler_subset
            assert r.profiler_sites <= r.static_sites


class TestReports:
    def test_render_breakdown(self, suite):
        text = report.render_breakdown(figures.figure1(suite), "Figure 1")
        assert "Lorenz" in text and "altmath" in text and "kernel" in text

    def test_render_slowdown(self, suite):
        text = report.render_slowdown(figures.figure4(suite), "Figure 4")
        assert "NONE" in text and "SEQ_SHORT" in text and "x" in text

    def test_render_breakdown_by_config(self, suite):
        text = report.render_breakdown_by_config(figures.figure6(suite), "Figure 6")
        assert "speedup" in text

    def test_render_cdf(self, suite):
        text = report.render_cdf(figures.figure8(suite), "Figure 8", "rank")
        assert "%" in text

    def test_render_length_cdf(self, suite):
        text = report.render_length_cdf(figures.figure9(suite), "Figure 9")
        assert "<=" in text

    def test_render_cache_sizing(self, suite):
        text = report.render_cache_sizing(figures.figure10(suite), "Figure 10")
        assert "entries" in text

    def test_render_trap_costs(self):
        text = report.render_trap_costs(figures.trap_microbenchmark(), "Trap costs")
        assert "sigreturn" in text and "reduction" in text

    def test_render_magic(self):
        text = report.render_magic_costs(figures.figure3(), "Figure 3")
        assert "magic" in text

    def test_render_patch_sites(self):
        text = report.render_patch_sites(
            figures.profiler_vs_static(("three_body",)), "patch sites"
        )
        assert "yes" in text


class TestMPFRSuite:
    def test_mpfr_figures_run(self):
        tiny = {k: max(v // 2, 4) for k, v in SMALL_SCALES.items()}
        tiny["ffbench"] = 8
        suite = figures.Suite("mpfr", scale_overrides=tiny)
        data = figures.figure5(suite, workloads=("lorenz", "fbench"))
        for w, cfgs in data.items():
            assert cfgs["SEQ_SHORT"] < cfgs["NONE"]

    def test_mpfr_closer_to_lower_bound_than_boxed(self):
        """§6.4: as intrinsic altmath cost grows, FPVM's slowdown
        approaches the lower bound."""
        scales = {"lorenz": 60}
        boxed = figures.Suite("boxed_ieee", scale_overrides=scales)
        mpfr = figures.Suite("mpfr", scale_overrides=scales)
        b = figures.figure5(boxed, workloads=("lorenz",))["lorenz"]["SEQ_SHORT"]
        m = figures.figure5(mpfr, workloads=("lorenz",))["lorenz"]["SEQ_SHORT"]
        assert m < b
