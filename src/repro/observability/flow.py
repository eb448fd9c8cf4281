"""Exception-flow recorder: NaN-box provenance and trap heatmaps.

The FlowFPX observation (PAPERS.md): an FP virtualization layer only
becomes a *debugging instrument* once every boxed value carries its
provenance — where it was born, which trap class created it, which
instructions propagated it, and where it left boxed space.  This
module is that layer.

One :class:`FlowRecorder` hangs off an attached FPVM (``vm.flow``)
when the ``flow`` config field enables it (default off: provenance
is an observability feature, not part of the virtualization).
The recorder is fed from a single seam — the emulator's
resolve/produce/demote value-flow helpers plus the VM's trap
entry/exit — so the interpreter and chained execution tiers all
produce the *same* flow graph for the same guest: every tier
funnels FP trap handling through ``Emulator.emulate``, and the
recorder never reads tier state.

Recorded structure
------------------
- **Trap heatmap** — per-RIP counters of delivered #XF traps split by
  trap class (``invalid``/``divzero``/``denormal``/``overflow``/
  ``underflow``/``inexact``, plus ``disabled`` for trap-everything
  mode's maskless deliveries).
- **Births** — a box's *birth site* is ``(rip, trap_class)``: the
  instruction that produced it and the class of the trap being
  serviced (``fcall`` for boxes born in libm wrappers, outside any
  trap).
- **Edges** — ``src_site -> dst_site`` propagation: the new box's
  value was computed from boxes born at ``src_site``.
- **Kills** — ``(birth_site, reason)`` where a box's value left boxed
  space: ``consumed`` (compare/convert read it without producing a
  box), ``clamped`` (the op produced a real NaN, collapsed to the
  canonical quiet NaN), ``demoted`` (demoted in place at a patch site,
  wrapper, or move), ``collected`` (the GC swept it — the overwritten/
  unreachable endpoint).

Everything is keyed by small tuples and counted, never timestamped, so
the structures are deterministic and directly comparable across tiers
(:meth:`FlowRecorder.fingerprint`).
"""

from __future__ import annotations

from collections import Counter, defaultdict

#: every #XF class a delivered trap can carry, in classification
#: priority order (an op can raise several flags at once; the class is
#: the highest-priority flag, mirroring how the x64 #XF priority is
#: usually read).  ``disabled`` marks trap-everything deliveries
#: (``trap_all_fp``: the FP unit is off, no MXCSR flags raised).
TRAP_CLASSES = ("invalid", "divzero", "denormal", "overflow",
                "underflow", "inexact")

#: kill reasons, for reference/rendering.
KILL_REASONS = ("consumed", "clamped", "demoted", "collected")

def classify_flags(flags) -> str:
    """Map one delivered trap's :class:`~repro.fpu.ieee.FPFlags` to its
    trap class.  Priority must stay in sync with
    :meth:`repro.machine.costs.CostModel.xf_trap_cost`."""
    if flags is None or not flags.any():
        return "disabled"
    if flags.invalid:
        return "invalid"
    if flags.zero_divide:
        return "divzero"
    if flags.denormal:
        return "denormal"
    if flags.overflow:
        return "overflow"
    if flags.underflow:
        return "underflow"
    return "inexact"


class FlowRecorder:
    """Provenance state for one attached FPVM.

    The hooks are written to cost nothing when the recorder is absent:
    every call site guards on ``vm.flow is not None``, and the hooks
    themselves only touch plain dict/Counter state — no allocation
    beyond the records, no hashing of anything but small tuples.
    """

    def __init__(self) -> None:
        #: rip -> Counter(trap class -> deliveries).
        self.traps_by_rip: dict[int, Counter] = defaultdict(Counter)
        self.traps_by_class: Counter = Counter()
        #: birth site (rip, class) -> boxes born there.
        self.births: Counter = Counter()
        #: (src_site, dst_site) -> propagation count.
        self.edges: Counter = Counter()
        #: (birth_site, reason) -> kill count.
        self.kills: Counter = Counter()
        #: live box ptr -> (generation, birth site).  Generations make
        #: free-list pointer reuse unambiguous.
        self.live: dict[int, tuple[int, tuple]] = {}
        self.generation = 0
        self._trap_class: str | None = None
        self._op_rip = 0
        self._srcs: list[tuple] = []

    # ------------------------------------------------------ trap window
    def begin_trap(self, rip: int, trap_class: str) -> None:
        """One #XF delivery: heatmap bump + the birth class for every
        box produced while servicing it (the whole emulated sequence)."""
        self.traps_by_rip[rip][trap_class] += 1
        self.traps_by_class[trap_class] += 1
        self._trap_class = trap_class

    def end_trap(self) -> None:
        self._trap_class = None

    # -------------------------------------------------------- op window
    def begin_op(self, rip: int) -> None:
        self._op_rip = rip
        self._srcs.clear()

    def note_source(self, ptr: int) -> None:
        """An owned box was unboxed as an operand of the current op."""
        rec = self.live.get(ptr)
        if rec is not None:
            self._srcs.append(rec[1])

    def note_birth(self, ptr: int) -> None:
        """The current op boxed its result at ``ptr``: a birth, with
        propagation edges from every source drained since the last
        produce (per-lane pairing falls out of the emulator's
        resolve/resolve/produce order)."""
        site = (self._op_rip, self._trap_class or "fcall")
        self.generation += 1
        self.live[ptr] = (self.generation, site)
        self.births[site] += 1
        for src in self._srcs:
            self.edges[(src, site)] += 1
        self._srcs.clear()

    def note_clamp(self) -> None:
        """The current op produced a *real* NaN, clamped to the
        canonical quiet NaN instead of boxed: its sources die here."""
        for src in self._srcs:
            self.kills[(src, "clamped")] += 1
        self._srcs.clear()

    def end_op(self) -> None:
        """Sources never drained by a produce/clamp were consumed — the
        value exited boxed space (compare flags, integer convert)."""
        for src in self._srcs:
            self.kills[(src, "consumed")] += 1
        self._srcs.clear()

    # ------------------------------------------------------- kill sites
    def record_demote(self, ptr: int) -> None:
        """A boxed pattern was collapsed to plain binary64 in place
        (patch-site demotion, demoting wrapper, masked xorpd)."""
        rec = self.live.get(ptr)
        if rec is not None:
            self.kills[(rec[1], "demoted")] += 1

    def on_free(self, dead_ptrs) -> None:
        """GC sweep callback: every swept box was overwritten or
        dropped by the guest and is now unreachable."""
        for ptr in dead_ptrs:
            rec = self.live.pop(ptr, None)
            if rec is not None:
                self.kills[(rec[1], "collected")] += 1

    # -------------------------------------------------------- summaries
    def fingerprint(self) -> tuple:
        """Canonical, order-independent digest of the whole flow graph;
        equal across execution tiers for the same guest + config."""
        return (
            tuple(sorted((rip, tuple(sorted(c.items())))
                         for rip, c in self.traps_by_rip.items())),
            tuple(sorted(self.births.items())),
            tuple(sorted(self.edges.items())),
            tuple(sorted(self.kills.items())),
        )

    def kills_by_reason(self) -> dict[str, int]:
        out: Counter = Counter()
        for (_site, reason), n in self.kills.items():
            out[reason] += n
        return dict(out)

