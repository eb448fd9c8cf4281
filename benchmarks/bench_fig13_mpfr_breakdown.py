"""Figure 13: amortized per-instruction cost breakdown under MPFR.

Paper shape: altmath (MPFR itself) dominates every bar, and MPFR shows
slightly higher gc than Boxed IEEE (it allocates more temporaries)."""

from conftest import publish_table
from repro.harness.figures import TABLES
from repro.machine.costs import LEDGER_CATEGORIES


def test_figure13(benchmark, mpfr_suite, results_dir):
    data = benchmark.pedantic(TABLES["fig13"].data, args=(mpfr_suite,), rounds=1, iterations=1)
    publish_table(results_dir, "fig13", data)
    for w, rows in data.items():
        by = {r.config: r for r in rows}
        opt = by["SEQ_SHORT"].amortized
        assert opt["altmath"] == max(opt[c] for c in LEDGER_CATEGORIES), w
        # altmath is a much bigger share than under Boxed IEEE.
        assert opt["altmath"] > 0.35 * sum(opt.values()), w
