"""Golden-file tests for the figure pipeline.

Each case regenerates one table of the ``figures.TABLES`` registry,
exactly as ``python -m repro figures`` and the bench suite do, and
diffs it against the committed text under ``benchmarks/results/``.
The diff is tolerance-aware: numbers may drift within a small
relative tolerance (cost-model tweaks legitimately move cycle counts
a little), but the surrounding prose, table structure, and row order
must match exactly — so a formatting regression or a renamed workload
fails loudly while a 0.1% cycle wiggle does not.

The tables that need no Suite are fast and run in tier-1; the
Suite-backed ones (a 6-workload × 4-config matrix each) are marked
``slow``.
"""

import math
import pathlib
import re

import pytest

from repro.harness import figures

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


def tolerant_diff(golden: str, fresh: str, rtol: float = 0.05) -> list[str]:
    """Differences between two rendered figures, ignoring numeric drift
    within ``rtol``.  Returns human-readable complaints (empty = match).
    """
    problems = []
    g_lines = golden.strip().splitlines()
    f_lines = fresh.strip().splitlines()
    if len(g_lines) != len(f_lines):
        problems.append(f"line count {len(f_lines)} != golden {len(g_lines)}")
    for lineno, (g, f) in enumerate(zip(g_lines, f_lines), start=1):
        if _NUMBER.sub("#", g) != _NUMBER.sub("#", f):
            problems.append(f"line {lineno} text differs:\n  golden: {g}\n  fresh:  {f}")
            continue
        g_nums = [float(m) for m in _NUMBER.findall(g)]
        f_nums = [float(m) for m in _NUMBER.findall(f)]
        for gv, fv in zip(g_nums, f_nums):
            if not math.isclose(gv, fv, rel_tol=rtol, abs_tol=0.5):
                problems.append(
                    f"line {lineno}: {fv} vs golden {gv} (>{rtol:.0%} drift)\n"
                    f"  golden: {g}"
                )
    return problems


def assert_matches_golden(name: str, fresh: str, rtol: float = 0.05) -> None:
    golden = (RESULTS / f"{name}.txt").read_text()
    problems = tolerant_diff(golden, fresh, rtol)
    assert not problems, f"{name}.txt: " + "\n".join(problems)


#: count-exact tables: RIPs and trap tallies are deterministic, so any
#: drift means the flow seam moved.
EXACT = {"trap_heatmap"}


def _cases():
    for stem, table in figures.TABLES.items():
        marks = [pytest.mark.slow] if table.suite else []
        if stem == "trap_heatmap":
            marks.append(pytest.mark.flow)
        yield pytest.param(stem, marks=marks, id=stem)


@pytest.fixture(scope="module")
def suites():
    return {}


@pytest.mark.parametrize("stem", _cases())
def test_table_matches_golden(stem, suites):
    table = figures.TABLES[stem]
    fresh = table.render(table.compute(suites))
    assert_matches_golden(stem, fresh, rtol=0.0 if stem in EXACT else 0.05)
