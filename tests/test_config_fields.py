"""The ``FPVMConfig`` surface: every field is a knob a user needs, named
here with the reason (the paper section it models, or the caller that
sets a non-default value).  A new field must be a deliberate addition
to this dict; a field no caller needs is deleted rather than kept.  The
execution tier is not a field: it is chosen where the ``CPU`` or
``Process`` is built (``uops=``)."""

import dataclasses

from repro.core.vm import FPVMConfig

FIELDS = {
    "altmath": "§2.1 alternative arithmetic system (every benchmark names one)",
    "altmath_kwargs": "per-system parameters (examples/arithmetic_tour.py)",
    "sequence_emulation": "§4 instruction sequence emulation (the SEQ axis of §6)",
    "trap_short_circuit": "§3 trap short-circuiting (the SHORT axis of §6)",
    "magic_traps": "§5.2 magic traps vs int3 (figures.py correctness figure)",
    "wrap_foreign": "§5.3 foreign-function wrapping (figures.py microbenchmarks turn it off)",
    "patch_site_source": "§5.1 profiler vs static analysis (conformance matrix groups)",
    "patch_sites": "§5.1 profile once per workload (runner.run_comparison, matrix)",
    "gc_threshold": "§2.5 collection policy (bench_ablation_gc.py)",
    "decode_cache_capacity": "§2.4 decode cache size (bench_ablation_cache_size.py)",
    "supported_instructions": "§4.2 emulatable set (bench_ablation_move_support.py)",
    "trap_all_fp": "§2.3 decreased-precision mode (altmath lowprec, matrix trap_all_fp cell)",
    "lazy_state_save": "§3.1 lazy handler state save (bench_ablation_lazy_save.py)",
    "box_capacity": "bounded box heap (conformance/faults.py heap-exhaustion scenarios)",
    "flow": "exception-flow observability (python -m repro flow, figures.py trap heatmap)",
}


def test_config_fields_are_the_committed_set():
    names = {f.name for f in dataclasses.fields(FPVMConfig)}
    assert names == set(FIELDS), (
        f"added: {sorted(names - set(FIELDS))}, "
        f"removed: {sorted(set(FIELDS) - names)}")


def test_every_field_has_a_reason():
    assert all(reason.strip() for reason in FIELDS.values())
