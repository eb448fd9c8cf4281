"""Command-line interface: ``python -m repro <command>``.

Commands
--------
list
    Show workloads, arithmetic systems and configurations.
run WORKLOAD [--config NAME] [--altmath NAME] [--scale N]
    Run a workload natively and under FPVM; print outputs, slowdown
    and the amortized cost breakdown.
characterize WORKLOAD [--scale N]
    The §6.3 sequence-emulation profile: top traces, average length,
    trace-cache sizing.
figures [--skip-mpfr] [--out DIR]
    Regenerate every paper figure (same as benchmarks/run_all_figures).
conformance [--full] [--matrix-only | --faults-only] [--scenario NAME]
    Differential conformance sweep (NONE/SEQ/SHORT/SEQ_SHORT × altmath
    × patch source × magic traps) plus fault-injection scenarios.
flow WORKLOAD [--config NAME] [--tier NAME] [--scale N]
    Exception-flow observability: run one workload with NaN-provenance
    recording on and print the per-RIP trap heatmap plus the NaN-flow
    graph (birth sites, propagation edges, kill sites).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.vm import FPVMConfig
from repro.harness import conformance_cli
from repro.harness import figures as F
from repro.harness import report
from repro.harness.configs import CONFIG_ORDER, named_configs
from repro.harness.runner import (
    run_fpvm,
    run_fpvm_process,
    run_native,
    run_native_process,
)
from repro.machine.cpu import TIERS
from repro.workloads import WORKLOAD_NAMES, get_workload

_CONFIG_FACTORY = {
    "none": FPVMConfig.none,
    "seq": FPVMConfig.seq,
    "short": FPVMConfig.short,
    "seq_short": FPVMConfig.seq_short,
}

_ALTMATH_NAMES = ("boxed_ieee", "mpfr", "posit", "interval", "rational", "lowprec")


def _cmd_list(args) -> int:
    print("workloads:")
    for name in WORKLOAD_NAMES:
        w = get_workload(name)
        print(f"  {name:<16} {w.description}")
    print("\narithmetic systems:", ", ".join(_ALTMATH_NAMES))
    print("configurations:    ", ", ".join(c.lower() for c in CONFIG_ORDER))
    return 0


def _cmd_run(args) -> int:
    factory = _CONFIG_FACTORY[args.config]
    config = factory(altmath=args.altmath)
    if get_workload(args.workload).requires_process:
        native = run_native_process(args.workload, scale=args.scale)
        result = run_fpvm_process(args.workload, config, args.config.upper(),
                                  scale=args.scale)
    else:
        native = run_native(args.workload, scale=args.scale)
        result = run_fpvm(args.workload, config, args.config.upper(),
                          scale=args.scale)

    print(f"== {args.workload} ({args.config.upper()}, {args.altmath}) ==")
    print(f"native output:      {native.output}")
    print(f"virtualized output: {result.output}")
    if args.altmath == "boxed_ieee":
        print(f"bit-for-bit:        {result.output == native.output}")
    print()
    print(f"native cycles:      {native.cycles:>14,}")
    print(f"virtualized cycles: {result.cycles:>14,}")
    print(f"slowdown:           {result.cycles / native.cycles:>13.1f}x")
    lower = native.cycles + result.altmath_cycles
    print(f"vs lower bound:     {result.cycles / lower:>13.2f}x")
    print(f"traps:              {result.traps:>14,}")
    print(f"avg sequence len:   {result.avg_sequence_length:>14.1f}")
    print()
    print("amortized cycles per emulated instruction:")
    for cat, val in result.amortized().items():
        if val:
            print(f"  {cat:<8} {val:>8.1f}")
    return 0


def _cmd_characterize(args) -> int:
    runner = (run_fpvm_process if get_workload(args.workload).requires_process
              else run_fpvm)
    result = runner(args.workload, FPVMConfig.seq_short(), "SEQ_SHORT",
                    scale=args.scale)
    stats = result.trace_stats
    print(f"== {args.workload}: sequence emulation profile ==")
    print(f"traps: {result.traps}   emulated instructions: "
          f"{result.emulated_instructions}   avg length: "
          f"{result.avg_sequence_length:.1f}")
    print(f"distinct traces: {len(stats.traces)}")
    print()
    for rank, rec in enumerate(stats.by_popularity()[: args.top], start=1):
        share = 100.0 * rec.emulated_instructions / max(stats.total_emulated(), 1)
        print(f"rank {rank}: len {rec.length}, {rec.count} hits, {share:.1f}% "
              f"of emulated instructions, terminator {rec.terminator} "
              f"({rec.reason})")
        if args.verbose:
            print(stats.format_trace(rec, result.program))
            print()
    return 0


def _cmd_flow(args) -> int:
    # The flow recorder sits behind the trap/emulate funnel every host
    # execution tier shares, so the graphs come out identical whichever
    # tier executed the guest.
    w = get_workload(args.workload)
    cfg = _CONFIG_FACTORY[args.config](flow=True)
    runner = run_fpvm_process if w.requires_process else run_fpvm
    result = runner(args.workload, cfg, scale=args.scale, uops=TIERS[args.tier])
    label = f"{args.workload} ({args.config}, {args.tier} tier)"
    print(report.render_trap_heatmap(result.flow, result.program,
                                     title=f"Trap heatmap: {label}"))
    print()
    print(report.render_flow_graph(result.flow, result.program,
                                   title=f"NaN-flow graph: {label}"))
    return 0


def _cmd_figures(args) -> int:
    import pathlib

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def publish(name: str, text: str) -> None:
        (out / f"{name}.txt").write_text(text + "\n")
        print(text)
        print()

    publish("trap_microbench", report.render_trap_microbench(
        F.trap_microbenchmark(), F.trap_class_microbenchmark()))
    publish("trap_heatmap", report.render_trap_flow(F.trap_heatmap()))
    publish("fig03", report.render_magic_costs(
        F.figure3(), "Figure 3: magic traps vs int3 correctness traps"))
    boxed = F.Suite("boxed_ieee")
    publish("fig01", report.render_breakdown(
        F.figure1(boxed), "Figure 1: baseline cost breakdown (Boxed IEEE, NONE)"))
    publish("fig04", report.render_slowdown(
        F.figure4(boxed), "Figure 4: application slowdown (Boxed IEEE)"))
    publish("fig05", report.render_slowdown(
        F.figure5(boxed), "Figure 5: slowdown from lower bound (Boxed IEEE)",
        "vs native+altmath"))
    publish("fig06", report.render_breakdown_by_config(
        F.figure6(boxed), "Figure 6: cost breakdown with accelerations"))
    publish("fig07", "Figure 7: example instruction trace\n\n" + F.figure7(boxed))
    publish("fig08", report.render_cdf(
        F.figure8(boxed), "Figure 8: sequence rank popularity CDF", "rank"))
    publish("fig09", report.render_length_cdf(
        F.figure9(boxed), "Figure 9: sequence length CDF"))
    publish("fig10", report.render_cache_sizing(
        F.figure10(boxed), "Figure 10: trace cache sizing"))
    publish("profiler_vs_static", report.render_patch_sites(
        F.profiler_vs_static(), "Patch sites: static analysis vs profiler"))
    if not args.skip_mpfr:
        mpfr = F.Suite("mpfr", scale_overrides={
            "lorenz": 150, "three_body": 16, "double_pendulum": 24,
            "fbench": 6, "ffbench": 16, "enzo": 16,
        })
        publish("fig11", report.render_slowdown(
            F.figure4(mpfr), "Figure 11: application slowdown (MPFR)"))
        publish("fig12", report.render_slowdown(
            F.figure5(mpfr), "Figure 12: slowdown from lower bound (MPFR)",
            "vs native+altmath"))
        publish("fig13", report.render_breakdown_by_config(
            F.figure6(mpfr), "Figure 13: cost breakdown (MPFR)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FPVM reproduction: run, characterize, regenerate figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show workloads/systems/configs")

    p_run = sub.add_parser("run", help="run a workload native + virtualized")
    p_run.add_argument("workload", choices=WORKLOAD_NAMES)
    p_run.add_argument("--config", choices=sorted(_CONFIG_FACTORY),
                       default="seq_short")
    p_run.add_argument("--altmath", choices=_ALTMATH_NAMES, default="boxed_ieee")
    p_run.add_argument("--scale", type=int, default=None)

    p_char = sub.add_parser("characterize", help="§6.3 trace profile")
    p_char.add_argument("workload", choices=WORKLOAD_NAMES)
    p_char.add_argument("--scale", type=int, default=None)
    p_char.add_argument("--top", type=int, default=5)
    p_char.add_argument("--verbose", action="store_true")

    p_fig = sub.add_parser("figures", help="regenerate every paper figure")
    p_fig.add_argument("--skip-mpfr", action="store_true")
    p_fig.add_argument("--out", default="benchmarks/results")

    p_flow = sub.add_parser(
        "flow", help="trap heatmap + NaN-flow graph for one workload")
    p_flow.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p_flow.add_argument("--config", choices=sorted(_CONFIG_FACTORY),
                        default="none",
                        help="none traps everything: richest heatmap")
    p_flow.add_argument("--tier", choices=list(TIERS), default="chained")
    p_flow.add_argument("--scale", type=int, default=None)

    conformance_cli.add_subparser(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "list": _cmd_list,
        "run": _cmd_run,
        "characterize": _cmd_characterize,
        "figures": _cmd_figures,
        "flow": _cmd_flow,
        "conformance": conformance_cli.cmd_conformance,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
