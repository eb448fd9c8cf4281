"""Figure 10: sequence-length-weighted rank popularity — "if we cached
only the top-k sequences, what average sequence length would we get?"
— plus the §6.3 trace-cache sizing arithmetic.

Paper: Lorenz converges by rank ~18 to avg ~32 (=> ~576 entries);
Enzo needs ~600 ranks at avg ~3 (~1800 entries, ~1.8MB); every run
fits comfortably in the 64K-entry decode cache."""

from conftest import publish_table
from repro.harness.figures import TABLES


def test_figure10(benchmark, boxed_suite, results_dir):
    data = benchmark.pedantic(TABLES["fig10"].data, args=(boxed_suite,), rounds=1, iterations=1)
    publish_table(results_dir, "fig10", data)
    for w, sizing in data.items():
        assert sizing.cache_entries < 65536, w  # fits the default cache
        assert sizing.weighted_by_rank[-1] > 0
    assert data["lorenz"].average_length == max(s.average_length for s in data.values())
