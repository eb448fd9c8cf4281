"""Unit tests for the figure generators against a synthetic Suite —
exercising the aggregation logic without full workload runs."""

import pytest

from repro.core.telemetry import Telemetry
from repro.harness import figures
from repro.harness.runner import Comparison, FPVMResult, NativeResult
from repro.core.sequences import TraceStatistics


def make_result(workload, config, cycles, ledger, emulated, traps,
                stats=None) -> FPVMResult:
    full_ledger = {c: 0 for c in
                   ("hw", "kernel", "decache", "decode", "bind", "emul",
                    "altmath", "gc", "corr", "fcall", "ret")}
    full_ledger.update(ledger)
    return FPVMResult(
        workload=workload,
        config_name=config,
        cycles=cycles,
        output=["1.0"],
        ledger=full_ledger,
        trace_stats=stats,
        telemetry=Telemetry(traps=traps, sequences=traps,
                            emulated_instructions=emulated),
        program=None,
    )


def make_stats(spec) -> TraceStatistics:
    """spec: list of (addrs, count, terminator, reason)."""
    stats = TraceStatistics()
    for addrs, count, term, reason in spec:
        for _ in range(count):
            stats.record(tuple(addrs), term, reason)
    return stats


class SyntheticSuite:
    """Duck-typed stand-in for figures.Suite."""

    def __init__(self, comparisons):
        self._comparisons = comparisons

    def comparison(self, workload):
        return self._comparisons[workload]


def synthetic_suite() -> SyntheticSuite:
    """One Lorenz comparison with hand-made ledgers and trace stats."""
    stats = make_stats([
        ((0x100, 0x108, 0x110), 50, "inc", "unsupported"),   # len 3, hot
        ((0x200,), 10, "mulsd", "no_boxed_source"),          # len 1
        ((0x300, 0x308), 5, "movhpd", "unsupported"),        # len 2
    ])
    comp = Comparison(
        "lorenz",
        NativeResult("lorenz", cycles=1000, instructions=900, output=["1.0"]),
    )
    comp.runs["NONE"] = make_result(
        "lorenz", "NONE", 600_000,
        {"hw": 38_000, "kernel": 392_000, "ret": 180_000, "altmath": 20_000},
        emulated=100, traps=100)
    comp.runs["SEQ"] = make_result(
        "lorenz", "SEQ", 150_000,
        {"hw": 10_000, "kernel": 98_000, "ret": 45_000, "altmath": 20_000},
        emulated=170, traps=65, stats=stats)
    comp.runs["SHORT"] = make_result(
        "lorenz", "SHORT", 120_000,
        {"hw": 38_000, "kernel": 28_000, "ret": 10_000, "altmath": 20_000},
        emulated=100, traps=100)
    comp.runs["SEQ_SHORT"] = make_result(
        "lorenz", "SEQ_SHORT", 50_000,
        {"hw": 10_000, "kernel": 7_000, "ret": 2_500, "altmath": 20_000},
        emulated=170, traps=65, stats=stats)
    return SyntheticSuite({"lorenz": comp})


@pytest.fixture
def suite():
    return synthetic_suite()


WORKLOADS = ("lorenz",)


class TestFigureMath:
    def test_figure1_amortizes_by_emulated(self, suite):
        data = figures.figure1(suite, WORKLOADS)
        assert data["lorenz"]["kernel"] == pytest.approx(3920.0)
        assert data["lorenz"]["hw"] == pytest.approx(380.0)

    def test_figure4_slowdowns(self, suite):
        data = figures.figure4(suite, WORKLOADS)
        assert data["lorenz"]["NONE"] == pytest.approx(600.0)
        assert data["lorenz"]["SEQ_SHORT"] == pytest.approx(50.0)

    def test_figure5_lower_bound(self, suite):
        data = figures.figure5(suite, WORKLOADS)
        # lower bound = native (1000) + altmath (20000) = 21000
        assert data["lorenz"]["SEQ_SHORT"] == pytest.approx(50_000 / 21_000)

    def test_figure6_speedups(self, suite):
        rows = figures.figure6(suite, WORKLOADS)["lorenz"]
        by = {r.config: r for r in rows}
        none_total = sum(by["NONE"].amortized.values())
        opt_total = sum(by["SEQ_SHORT"].amortized.values())
        assert by["SEQ_SHORT"].speedup_vs_none == pytest.approx(none_total / opt_total)
        assert by["NONE"].speedup_vs_none == pytest.approx(1.0)

    def test_figure8_cdf(self, suite):
        cdf = figures.figure8(suite, WORKLOADS)["lorenz"]
        # Contributions: 150, 10, 10 emulated instructions.
        assert cdf[0] == pytest.approx(100 * 150 / 170)
        assert cdf[-1] == pytest.approx(100.0)

    def test_figure9_length_cdf(self, suite):
        series = dict(figures.figure9(suite, WORKLOADS)["lorenz"])
        # 65 sequences: 10 of len 1, 5 of len 2, 50 of len 3.
        assert series[1] == pytest.approx(100 * 10 / 65)
        assert series[2] == pytest.approx(100 * 15 / 65)
        assert series[3] == pytest.approx(100.0)

    def test_figure10_sizing(self, suite):
        sizing = figures.figure10(suite, WORKLOADS)["lorenz"]
        stats_avg = 170 / 65
        assert sizing.average_length == pytest.approx(stats_avg)
        assert sizing.cache_entries == int(sizing.convergence_rank * stats_avg)

    def test_figure7_trace_requires_program(self, suite):
        # figure7 formats against the program; the synthetic suite has
        # none, so only check the ranked selection logic via stats.
        stats = suite.comparison("lorenz").runs["SEQ_SHORT"].trace_stats
        ranked = stats.by_popularity()
        assert ranked[0].addrs == (0x100, 0x108, 0x110)
        assert ranked[0].emulated_instructions == 150


class TestTraceStatisticsUnit:
    def test_weighted_by_rank_monotone_denominators(self):
        stats = make_stats([
            ((1, 2, 3, 4), 10, "x", "unsupported"),  # len 4
            ((5,), 30, "y", "unsupported"),          # len 1
        ])
        weighted = stats.weighted_length_by_rank()
        # top-1: 40/10 = 4.0; all: (40+30)/(10+30) = 1.75
        assert weighted[0] == pytest.approx(4.0)
        assert weighted[1] == pytest.approx(1.75)

    def test_empty_stats(self):
        stats = TraceStatistics()
        assert stats.rank_popularity_cdf() == []
        assert stats.length_cdf() == []
        assert stats.average_sequence_length() == 0.0

    def test_record_accumulates(self):
        stats = TraceStatistics()
        stats.record((1, 2), "a", "unsupported")
        stats.record((1, 2), "a", "unsupported")
        assert stats.traces[(1, 2)].count == 2
        assert stats.total_emulated() == 4
