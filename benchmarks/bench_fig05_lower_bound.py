"""Figure 5: slowdown relative to the altmath lower bound (Boxed IEEE).

1.0x means zero virtualization overhead on top of the alternative
arithmetic itself.  Paper: NONE sits ~10-25x above the bound;
SEQ_SHORT approaches it (Lorenz: 1.65x)."""

from conftest import publish_table
from repro.harness.figures import TABLES


def test_figure5(benchmark, boxed_suite, results_dir):
    data = benchmark.pedantic(TABLES["fig05"].data, args=(boxed_suite,), rounds=1, iterations=1)
    publish_table(results_dir, "fig05", data)
    for w, cfgs in data.items():
        assert cfgs["NONE"] > 10, w
        assert cfgs["SEQ_SHORT"] < 4.5, (w, cfgs["SEQ_SHORT"])
    assert min(c["SEQ_SHORT"] for c in data.values()) < 3  # best case near bound
