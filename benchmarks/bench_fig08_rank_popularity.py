"""Figure 8: instruction sequence rank popularity (CDF of emulated
instructions covered by the top-k traces).

Paper shape: the benchmarks' CDFs are far left (fewer than 100
sequences cover them); Enzo needs ~350 ranks for 90%."""

from conftest import publish_table
from repro.harness.figures import TABLES


def test_figure8(benchmark, boxed_suite, results_dir):
    data = benchmark.pedantic(TABLES["fig08"].data, args=(boxed_suite,), rounds=1, iterations=1)
    publish_table(results_dir, "fig08", data)
    for w, series in data.items():
        # A handful of traces covers most of the action...
        k = min(len(series), 100)
        assert series[k - 1] > 80, w
    # ...and Enzo needs the most ranks of anyone (paper's right-curve).
    ranks_to_90 = {
        w: next(i + 1 for i, v in enumerate(series) if v >= 90)
        for w, series in data.items()
    }
    assert ranks_to_90["enzo"] == max(ranks_to_90.values())
