"""Figure 7: an example instruction trace (the paper prints the 3rd
most popular Lorenz trace, 15 instructions, terminated by an
unsupported movhpd partial-vector move)."""

from conftest import publish_table
from repro.harness.figures import TABLES


def test_figure7(benchmark, boxed_suite, results_dir):
    text = benchmark.pedantic(TABLES["fig07"].data, args=(boxed_suite,), rounds=1, iterations=1)
    publish_table(results_dir, "fig07", text)
    assert "addsd" in text or "mulsd" in text or "subsd" in text
    assert "terminator" in text
