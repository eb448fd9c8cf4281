"""Figure 12: MPFR slowdown vs the MPFR lower bound.

Paper: as the intrinsic altmath cost grows, FPVM approaches its lower
bound — best case 1.35x (vs 1.65x for Boxed IEEE)."""

from conftest import publish_table
from repro.harness import figures
from repro.harness.figures import TABLES


def test_figure12(benchmark, mpfr_suite, boxed_suite, results_dir):
    data = benchmark.pedantic(TABLES["fig12"].data, args=(mpfr_suite,), rounds=1, iterations=1)
    publish_table(results_dir, "fig12", data)
    boxed = figures.figure5(boxed_suite)
    for w, cfgs in data.items():
        assert cfgs["SEQ_SHORT"] < 3, w
        # Closer to the bound than the Boxed IEEE worst case (§6.4).
        assert cfgs["SEQ_SHORT"] < boxed[w]["SEQ_SHORT"], w
