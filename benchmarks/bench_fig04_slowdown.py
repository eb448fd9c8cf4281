"""Figure 4: end-to-end application slowdown (Boxed IEEE) for
NONE / SEQ / SHORT / SEQ_SHORT.

Paper shape: NONE in the hundreds-to-thousands; each technique cuts
it; combining both gives an average ~7.2x reduction (best ~11.5x,
Lorenz)."""

from conftest import publish_table
from repro.harness.figures import TABLES


def test_figure4(benchmark, boxed_suite, results_dir):
    data = benchmark.pedantic(TABLES["fig04"].data, args=(boxed_suite,), rounds=1, iterations=1)
    publish_table(results_dir, "fig04", data)
    publish_table(results_dir, "fig04_chart", data)
    reductions = []
    for w, cfgs in data.items():
        assert cfgs["NONE"] > 100, w
        assert cfgs["SEQ"] < cfgs["NONE"]
        assert cfgs["SHORT"] < cfgs["NONE"]
        reductions.append(cfgs["NONE"] / cfgs["SEQ_SHORT"])
    assert sum(reductions) / len(reductions) > 5  # paper: avg 7.2x
    assert max(reductions) > 9                    # paper: best 11.5x (Lorenz)
