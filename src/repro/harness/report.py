"""ASCII rendering of the per-figure data, matching what the paper's
figures report (bar heights become table cells; CDFs become sampled
series)."""

from __future__ import annotations

from repro.harness.configs import CONFIG_ORDER
from repro.machine.costs import LEDGER_CATEGORIES
from repro.observability import render_flow_graph, render_trap_heatmap  # noqa: F401

_DISPLAY = {
    "lorenz": "Lorenz",
    "three_body": "3-body",
    "double_pendulum": "Double Pend.",
    "fbench": "fbench",
    "ffbench": "ffbench",
    "enzo": "Enzo",
    "denorm_storm": "Denorm Storm",
    "range_storm": "Range Storm",
}


def display_name(w: str) -> str:
    """A workload's name as the figures and tables print it."""
    return _DISPLAY.get(w, w)


def render_breakdown(data: dict[str, dict[str, float]], title: str) -> str:
    """Figure 1-style: one row per workload, one column per category."""
    cats = list(LEDGER_CATEGORIES)
    lines = [title, ""]
    header = f"{'workload':<14}" + "".join(f"{c:>9}" for c in cats) + f"{'total':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for w, am in data.items():
        row = f"{display_name(w):<14}"
        for c in cats:
            row += f"{am.get(c, 0.0):>9.0f}"
        row += f"{sum(am.values()):>10.0f}"
        lines.append(row)
    lines.append("")
    lines.append("(amortized CPU cycles per emulated instruction)")
    return "\n".join(lines)


def render_breakdown_by_config(data, title: str) -> str:
    """Figure 6/13-style: workload x config rows with speedup factors."""
    cats = list(LEDGER_CATEGORIES)
    lines = [title, ""]
    header = (
        f"{'workload':<14}{'config':<11}"
        + "".join(f"{c:>8}" for c in cats)
        + f"{'total':>9}{'speedup':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for w, rows in data.items():
        for row in rows:
            line = f"{display_name(w):<14}{row.config:<11}"
            for c in cats:
                line += f"{row.amortized.get(c, 0.0):>8.0f}"
            line += f"{sum(row.amortized.values()):>9.0f}"
            line += f"{row.speedup_vs_none:>8.1f}x"
            lines.append(line)
        lines.append("")
    return "\n".join(lines)


def render_slowdown(data: dict[str, dict[str, float]], title: str,
                    baseline_note: str = "vs native") -> str:
    """Figure 4/5/11/12-style slowdown table."""
    lines = [title, ""]
    header = f"{'workload':<14}" + "".join(f"{c:>12}" for c in CONFIG_ORDER)
    lines.append(header)
    lines.append("-" * len(header))
    for w, cfgs in data.items():
        row = f"{display_name(w):<14}"
        for c in CONFIG_ORDER:
            row += f"{cfgs[c]:>11.2f}x"
        lines.append(row)
    lines.append("")
    lines.append(f"(slowdown {baseline_note}; lower is better)")
    return "\n".join(lines)


def render_cdf(data: dict[str, list], title: str, xlabel: str,
               sample_points=(1, 2, 5, 10, 20, 50, 100, 200, 400)) -> str:
    """Figure 8-style: CDF sampled at fixed ranks."""
    lines = [title, ""]
    header = f"{'workload':<14}" + "".join(f"@{p:>6}" for p in sample_points)
    lines.append(header)
    lines.append("-" * len(header))
    for w, series in data.items():
        row = f"{display_name(w):<14}"
        for p in sample_points:
            if not series:
                row += f"{'-':>7}"
            else:
                idx = min(p, len(series)) - 1
                row += f"{series[idx]:>6.1f}%"
        lines.append(row)
    lines.append("")
    lines.append(f"(cumulative %, sampled at {xlabel} 1..N)")
    return "\n".join(lines)


def render_length_cdf(data: dict[str, list], title: str) -> str:
    """Figure 9-style: CDF over sequence length."""
    lines = [title, ""]
    probe = (1, 2, 3, 5, 10, 20, 50, 100)
    header = f"{'workload':<14}" + "".join(f"<={p:>5}" for p in probe)
    lines.append(header)
    lines.append("-" * len(header))
    for w, series in data.items():
        row = f"{display_name(w):<14}"
        for p in probe:
            pct = 0.0
            for length, cum in series:
                if length <= p:
                    pct = cum
                else:
                    break
            row += f"{pct:>6.1f}%"
        lines.append(row)
    return "\n".join(lines)


def render_cache_sizing(data, title: str) -> str:
    """Figure 10 companion: the §6.3 trace-cache sizing arithmetic."""
    lines = [title, ""]
    header = (f"{'workload':<14}{'avg seq len':>12}{'conv. rank':>12}"
              f"{'entries':>10}{'cache KB':>10}")
    lines.append(header)
    lines.append("-" * len(header))
    for w, sizing in data.items():
        lines.append(
            f"{display_name(w):<14}{sizing.average_length:>12.1f}"
            f"{sizing.convergence_rank:>12}{sizing.cache_entries:>10}"
            f"{sizing.cache_bytes // 1024:>10}"
        )
    return "\n".join(lines)


def render_trap_costs(table, title: str) -> str:
    lines = [title, ""]
    lines.append(f"  hardware #XF dispatch (hw):        {table.hw_trap:8.0f} cycles")
    lines.append(f"  SIGFPE delivery (kern):            {table.signal_delivery:8.0f} cycles")
    lines.append(f"  sigreturn (ret):                   {table.sigreturn:8.0f} cycles")
    lines.append(f"  short-circuit delivery:            {table.short_delivery:8.0f} cycles")
    lines.append(f"  short-circuit return (iretq):      {table.short_return:8.0f} cycles")
    lines.append(f"  signal path total (hw+kern+ret):   {table.signal_total:8.0f} cycles")
    lines.append(f"  short path total:                  {table.short_total:8.0f} cycles")
    lines.append("")
    lines.append(f"  trap delegation reduction: {table.delegation_reduction:.1f}x "
                 "(paper: ~8x)")
    lines.append(f"  total trap cost reduction: {table.total_reduction:.1f}x "
                 "(paper: 5980 -> ~760, ~7.9x)")
    return "\n".join(lines)


def render_trap_class_costs(rows, title: str) -> str:
    """Per-#XF-class delivery cost table: every trap class gets its own
    measured hw/signal/short column (the Wittmann et al. surcharge note:
    denormal and underflow dispatch carries a microcode assist)."""
    lines = [title, ""]
    header = (f"  {'class':<11}{'traps':>7}{'hw/trap':>10}"
              f"{'signal/trap':>13}{'short/trap':>12}{'reduction':>11}")
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for r in rows:
        lines.append(
            f"  {r.trap_class:<11}{r.traps:>7}{r.hw_per_trap:>10.0f}"
            f"{r.signal_per_trap:>13.0f}{r.short_per_trap:>12.0f}"
            f"{r.reduction:>10.1f}x"
        )
    lines.append("")
    lines.append("  (class-pure constant-operand kernels; hw/trap = base "
                 "#XF dispatch + per-class assist surcharge)")
    return "\n".join(lines)


def render_trap_microbench(table, rows,
                           title: str = "Trap delegation microbenchmark (§2.3/§3)") -> str:
    """The published trap_microbench figure: the headline delegation
    table followed by the per-class cost breakdown."""
    return (render_trap_costs(table, title) + "\n\n"
            + render_trap_class_costs(
                rows, "Per-class #XF dispatch cost (§2.3, Wittmann et al. note)"))


def render_trap_flow(heatmap_data, title: str = "Trap heatmaps and NaN-flow graphs") -> str:
    """The trap_heatmap figure: per-RIP heatmap + NaN-flow graph for
    each trap-diverse workload, one section per workload."""
    lines = [title]
    for w, (recorder, program) in heatmap_data.items():
        lines.append("")
        lines.append(render_trap_heatmap(
            recorder, program, title=f"Trap heatmap: {display_name(w)}"))
        lines.append("")
        lines.append(render_flow_graph(
            recorder, program, title=f"NaN-flow graph: {display_name(w)}"))
    return "\n".join(lines)


def render_magic_costs(costs, title: str) -> str:
    lines = [title, ""]
    lines.append(f"  int3 + SIGTRAP per correctness event: {costs.int3_per_event:8.0f} cycles")
    lines.append(f"  magic trap per correctness event:     {costs.magic_per_event:8.0f} cycles")
    lines.append(f"  reduction: {costs.reduction:.0f}x (paper: 14-120x)")
    return "\n".join(lines)


def render_patch_sites(rows, title: str) -> str:
    lines = [title, ""]
    header = f"{'workload':<14}{'static sites':>13}{'profiler':>10}{'subset?':>9}"
    lines.append(header)
    lines.append("-" * len(header))
    for r in rows:
        lines.append(
            f"{display_name(r.workload):<14}{r.static_sites:>13}{r.profiler_sites:>10}"
            f"{'yes' if r.profiler_subset else 'NO':>9}"
        )
    return "\n".join(lines)
