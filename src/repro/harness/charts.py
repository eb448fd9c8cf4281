"""ASCII chart rendering: the paper's figures are stacked horizontal
bars (Figures 1/6/13) and grouped bars (Figures 4/5/11/12); these
renderers produce terminal equivalents of both, on top of the data the
:mod:`repro.harness.figures` generators return.
"""

from __future__ import annotations

from repro.harness.configs import CONFIG_ORDER
from repro.harness.report import display_name
from repro.machine.costs import LEDGER_CATEGORIES

#: fill character per ledger category (legend printed under charts).
CATEGORY_FILL = {
    "hw": "#",
    "kernel": "K",
    "decache": "d",
    "decode": "D",
    "bind": "b",
    "emul": "e",
    "altmath": "A",
    "gc": "g",
    "corr": "c",
    "fcall": "f",
    "ret": "r",
}


def stacked_bar(values: dict[str, float], scale: float, width: int) -> str:
    """One stacked bar: each category contributes round(v*scale) cells,
    at least one when nonzero (so small slices stay visible)."""
    cells: list[str] = []
    for cat in LEDGER_CATEGORIES:
        v = values.get(cat, 0.0)
        if v <= 0:
            continue
        n = max(int(round(v * scale)), 1)
        cells.append(CATEGORY_FILL[cat] * n)
    bar = "".join(cells)
    return bar[:width] if len(bar) > width else bar


def legend() -> str:
    pairs = [f"{CATEGORY_FILL[c]}={c}" for c in LEDGER_CATEGORIES]
    return "legend: " + "  ".join(pairs)


def breakdown_chart(data: dict[str, dict[str, float]], title: str,
                    width: int = 72) -> str:
    """Figure 1-style: one stacked bar per workload, shared scale."""
    peak = max((sum(v.values()) for v in data.values()), default=1.0)
    scale = width / peak if peak else 1.0
    lines = [title, ""]
    for w, am in data.items():
        total = sum(am.values())
        lines.append(f"{display_name(w):<14}|{stacked_bar(am, scale, width)}  {total:.0f}")
    lines.append("")
    lines.append(legend())
    lines.append(f"(amortized cycles per emulated instruction; full width = {peak:.0f})")
    return "\n".join(lines)


def breakdown_by_config_chart(data, title: str, width: int = 72) -> str:
    """Figure 6/13-style: stacked bar per workload x config, with the
    per-bar speedup factor annotated like the paper."""
    peak = 0.0
    for rows in data.values():
        for row in rows:
            peak = max(peak, sum(row.amortized.values()))
    scale = width / peak if peak else 1.0
    lines = [title, ""]
    for w, rows in data.items():
        for i, row in enumerate(rows):
            label = display_name(w) if i == 0 else ""
            bar = stacked_bar(row.amortized, scale, width)
            note = "" if row.config == "NONE" else f" ({row.speedup_vs_none:.1f}x)"
            lines.append(f"{label:<14}{row.config:<10}|{bar}{note}")
        lines.append("")
    lines.append(legend())
    return "\n".join(lines)


def slowdown_chart(data: dict[str, dict[str, float]], title: str,
                   width: int = 60, log: bool = True) -> str:
    """Figure 4-style grouped bars.  Log scale by default because NONE
    dwarfs everything else, exactly as in the paper's tall-bar figure."""
    import math

    peak = max(max(cfgs.values()) for cfgs in data.values())
    lines = [title, ""]
    for w, cfgs in data.items():
        for i, cfg in enumerate(CONFIG_ORDER):
            label = display_name(w) if i == 0 else ""
            v = cfgs[cfg]
            if log:
                frac = math.log10(max(v, 1.0)) / math.log10(max(peak, 10.0))
            else:
                frac = v / peak
            n = max(int(round(frac * width)), 1)
            lines.append(f"{label:<14}{cfg:<10}|{'=' * n} {v:.1f}x")
        lines.append("")
    lines.append(f"({'log' if log else 'linear'} scale; lower is better)")
    return "\n".join(lines)
