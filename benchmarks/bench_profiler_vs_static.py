"""§5.1: the profiling-based patch-site finder vs the conservative
static analysis.  The profiler must find a subset of the static sites
(it observes one concrete run), and correctness overhead with the
profiler is near-eliminated in the breakdowns."""

from conftest import publish, publish_table
from repro.harness import figures
from repro.harness.figures import TABLES


def test_profiler_vs_static(benchmark, results_dir):
    rows = benchmark.pedantic(TABLES["profiler_vs_static"].data, rounds=1, iterations=1)
    publish_table(results_dir, "profiler_vs_static", rows)
    for r in rows:
        assert r.profiler_subset, r.workload
        assert r.profiler_sites <= r.static_sites


def test_correctness_overhead_eliminated(benchmark, boxed_suite, results_dir):
    data = benchmark.pedantic(figures.figure6, args=(boxed_suite,), rounds=1, iterations=1)
    lines = ["Correctness overhead share with profiler + magic traps (§5)", ""]
    for w, rows in data.items():
        opt = {r.config: r for r in rows}["SEQ_SHORT"].amortized
        share = opt["corr"] / max(sum(opt.values()), 1e-9)
        lines.append(f"  {w:<16} corr = {opt['corr']:6.1f} cyc/instr ({100*share:.2f}%)")
        assert share < 0.05, w  # "practically eliminates the overhead"
    publish(results_dir, "corr_share", "\n".join(lines))
