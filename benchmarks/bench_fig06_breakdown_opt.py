"""Figure 6: per-instruction cost breakdown under each acceleration
(Boxed IEEE), with the per-bar speedup factors.

Paper shape: SHORT collapses kernel+ret; SEQ amortizes hw+kernel+ret
by the average sequence length; combined, altmath becomes the largest
component (the Amdahl limit)."""

from conftest import publish_table
from repro.harness.figures import TABLES
from repro.machine.costs import LEDGER_CATEGORIES


def test_figure6(benchmark, boxed_suite, results_dir):
    data = benchmark.pedantic(TABLES["fig06"].data, args=(boxed_suite,), rounds=1, iterations=1)
    publish_table(results_dir, "fig06", data)
    publish_table(results_dir, "fig06_chart", data)
    for w, rows in data.items():
        by = {r.config: r for r in rows}
        # SHORT cuts the kernel category by ~an order of magnitude.
        assert by["SHORT"].amortized["kernel"] < by["NONE"].amortized["kernel"] / 8
        # SEQ amortizes hw.
        assert by["SEQ"].amortized["hw"] < by["NONE"].amortized["hw"] / 1.5
        # Combined: altmath is the largest category (Amdahl limit).
        opt = by["SEQ_SHORT"].amortized
        assert opt["altmath"] == max(opt[c] for c in LEDGER_CATEGORIES), w
        assert by["SEQ_SHORT"].speedup_vs_none > 4
