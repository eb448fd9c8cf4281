"""``python -m repro conformance``: drive the conformance matrix and
the fault-injection scenarios from the command line.

Default is the smoke grid (≈30 cells, a couple of seconds), the
batched-vs-stepwise scheduling axis, and every fault scenario;
``--full`` sweeps the whole matrix, ``--faults-only`` /
``--matrix-only`` / ``--sched-only`` cut it down, ``--trap-classes``
runs the trap-diverse storm rows plus a per-#XF-class coverage gate,
and ``--scenario NAME`` runs one injected fault.  Exit status is non-zero on any mismatch,
invariant failure, or undetected fault, so CI can gate on it directly.
"""

from __future__ import annotations

from repro.conformance import faults, matrix, scheduling


def add_subparser(sub) -> None:
    p = sub.add_parser(
        "conformance",
        help="differential config-matrix sweep + fault injection",
    )
    p.add_argument("--full", action="store_true",
                   help="sweep the full matrix instead of the smoke grid")
    p.add_argument("--smoke", action="store_true",
                   help="sweep the smoke grid (the default)")
    what = p.add_mutually_exclusive_group()
    what.add_argument("--matrix-only", action="store_true",
                      help="skip the fault-injection scenarios")
    what.add_argument("--faults-only", action="store_true",
                      help="skip the matrix sweep")
    what.add_argument("--sched-only", action="store_true",
                      help="run only the batched-scheduling axis")
    what.add_argument("--trap-classes", action="store_true",
                      help="run only the trap-diverse rows (storm "
                           "workloads) + per-class coverage check")
    p.add_argument("--scenario", choices=sorted(faults.SCENARIOS),
                   help="run a single fault scenario")
    p.add_argument("--verbose", action="store_true",
                   help="print each group as it completes")


def _cmd_trap_classes(args) -> int:
    """Trap-diverse rows + the per-class coverage gate: every #XF class
    must both survive the differential sweep and actually fire."""
    from repro.observability import TRAP_CLASSES

    plan = matrix.trap_class_plan()
    print(f"== trap-class matrix ({len(plan)} groups) ==")
    progress = None
    if args.verbose:
        progress = lambda r: print(f"  done {r.group.label}")
    report = matrix.sweep(plan, progress=progress)
    print(matrix.render_report(report))
    print()

    coverage = matrix.trap_class_coverage()
    print("== trap-class coverage (NONE config, flow telemetry) ==")
    header = f"  {'workload':<16}" + "".join(f"{c[:6]:>9}" for c in TRAP_CLASSES)
    print(header)
    print("  " + "-" * (len(header) - 2))
    union = set()
    for w, counts in coverage.items():
        union |= {c for c, n in counts.items() if n}
        print(f"  {w:<16}" + "".join(f"{counts.get(c, 0):>9}" for c in TRAP_CLASSES))
    missing = [c for c in TRAP_CLASSES if c not in union]
    print()
    if missing:
        print(f"trap classes never raised: {', '.join(missing)}")
    failed = (not report.ok) or bool(missing)
    print("conformance: FAIL" if failed else "conformance: all checks passed")
    return 1 if failed else 0


def cmd_conformance(args) -> int:
    failed = False

    if args.scenario:
        outcome = faults.run_scenario(args.scenario)
        print(outcome)
        return 0 if outcome.ok else 1

    if args.trap_classes:
        return _cmd_trap_classes(args)

    if not (args.faults_only or args.sched_only):
        plan = matrix.full_plan() if args.full else matrix.smoke_plan()
        grid = "full" if args.full else "smoke"
        print(f"== conformance matrix ({grid}: {len(plan)} groups) ==")
        progress = None
        if args.verbose:
            progress = lambda r: print(f"  done {r.group.label}")
        report = matrix.sweep(plan, progress=progress)
        print(matrix.render_report(report))
        print()
        failed |= not report.ok

    if not (args.faults_only or args.matrix_only):
        n_cells = scheduling.cell_count()
        print(f"== scheduling axis (chained vs stepwise, "
              f"{n_cells} cells) ==")
        progress = None
        if args.verbose:
            progress = lambda c: print(f"  done {c.label}")
        checks = scheduling.sweep(progress=progress)
        print(scheduling.render_checks(checks))
        print()
        failed |= any(not c.ok for c in checks)

    if not (args.matrix_only or args.sched_only):
        print(f"== fault injection ({len(faults.SCENARIOS)} scenarios) ==")
        for outcome in faults.run_all():
            print(f"  {'ok' if outcome.ok else 'FAIL':>4} {outcome}")
            failed |= not outcome.ok
        print()

    print("conformance: FAIL" if failed else "conformance: all checks passed")
    return 1 if failed else 0
