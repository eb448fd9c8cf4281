"""fork() for tests: a child :class:`Process` with an eager copy of
the parent's pages and one thread cloned from the caller.

FPVM's constructors re-run in a forked child (§2.1), so the child is
one more process to attach to; the tests that need a second process
build it here."""

from repro.machine.memory import _Page
from repro.machine.process import Process
from tests.machine.snapshots import restore, snapshot


def fork(parent: Process) -> Process:
    child = Process(
        parent.program.copy(),
        parent.costs,
        parent.max_instructions,
        uops=parent.main.uops_enabled,
        lazy_fp=parent.lazy_fp,
    )
    # In place: the uop closures hold the page dict by reference.
    pages = child.mem._pages
    pages.clear()
    pages.update((pno, _Page(bytearray(page.data), page.prot))
                 for pno, page in parent.mem._pages.items())
    # Post-fork threads must not collide with stacks carved pre-fork.
    child._next_stack = parent._next_stack
    restore(child.main.regs, snapshot(parent.main.regs))
    # FP ownership travels with the forking thread; the dirty/live lane
    # masks come across inside the register snapshot.
    if parent.fp_owner is parent.main:
        child.fp_owner = child.main
    return child
