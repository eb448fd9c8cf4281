"""The alternative arithmetic system interface and its cost model.

Cost constants are cycles *per call* and are what the ``altmath``
ledger category accumulates — the paper's lower bound (Figure 5) is
precisely "native time + altmath time", so these numbers, not wall
clock, define each system's intrinsic expense.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field


@dataclass(frozen=True)
class AltMathCosts:
    """Cycle costs of one system's operations."""

    promote: int = 60        # binary64 -> alt representation
    demote: int = 30         # alt representation -> binary64
    box: int = 90            # allocate + publish a heap box for a result
    load: int = 30           # follow a NaN-boxed pointer to its heap box
    compare: int = 20
    convert: int = 25        # int <-> alt conversions
    ops: dict = field(default_factory=dict)   # "add"/"mul"/... -> cycles
    libm: int = 400          # sin/cos/... unless overridden per-fn
    libm_ops: dict = field(default_factory=dict)

    def op(self, name: str) -> int:
        return self.ops.get(name, 40)

    def libm_fn(self, name: str) -> int:
        return self.libm_ops.get(name, self.libm)


class AltMathSystem(abc.ABC):
    """What FPVM requires of an arithmetic system.

    Values are opaque to FPVM; it only moves them between NaN boxes and
    feeds them back into this interface.  :meth:`promote` and
    :meth:`demote` are the only bit-pattern boundary: binary64 data
    enters as a *bit pattern* (an int, never a Python float, so NaN
    payloads survive the crossing) and leaves as one.  Every other
    entry point takes and returns the system's own values (the integer
    conversions aside).
    """

    #: registry key, e.g. "boxed_ieee"
    name: str = "abstract"
    costs: AltMathCosts = AltMathCosts()
    #: the box heap's store for this system's values (a key of
    #: ``repro.core.alloc.STORES``): "list" holds any Python value,
    #: "flat" holds binary64 floats at 8 bytes a box.
    box_store: str = "list"

    # ------------------------------------------------------- conversions
    @abc.abstractmethod
    def promote(self, bits: int):
        """Build an alt value from a binary64 bit pattern."""

    @abc.abstractmethod
    def demote(self, value) -> int:
        """Round an alt value back to a binary64 bit pattern (losing
        whatever benefit the system provided, §2.2)."""

    @abc.abstractmethod
    def from_i64(self, value: int):
        """Exact conversion from a signed 64-bit integer."""

    @abc.abstractmethod
    def to_i64(self, value, truncate: bool = True) -> int:
        """Convert to a signed 64-bit integer (two's complement in an
        unsigned int); x64 'integer indefinite' on NaN/overflow."""

    # -------------------------------------------------------- arithmetic
    @abc.abstractmethod
    def binary(self, op: str, a, b):
        """op in {add, sub, mul, div, min, max}."""

    @abc.abstractmethod
    def unary(self, op: str, a):
        """op in {sqrt, neg, abs}."""

    @abc.abstractmethod
    def compare(self, a, b) -> int | None:
        """-1/0/+1, or None when unordered."""

    def fma(self, a, b, c):
        """Fused multiply-add.  Default: two-step (systems with a real
        single-rounding fma override this)."""
        return self.binary("add", self.binary("mul", a, b), c)

    @abc.abstractmethod
    def is_nan_value(self, value) -> bool:
        """Does this alt value represent a NaN ("alternative NaN")?"""

    def libm(self, fn: str, *args):
        """Transcendental entry points used by the libm forward
        wrappers (§5.3).  Default: demote, host math, promote."""
        import math

        from repro.fpu import bits as B

        floats = [B.bits_to_float(self.demote(a)) for a in args]
        try:
            r = getattr(math, fn)(*floats)
        except (ValueError, OverflowError, ZeroDivisionError):
            r = math.nan
        return self.promote(B.float_to_bits(r))


_REGISTRY: dict[str, type] = {}


def register_altmath(cls: type) -> type:
    """Class decorator registering a system under its ``name``."""
    _REGISTRY[cls.name] = cls
    return cls


def get_altmath(name: str, **kwargs) -> AltMathSystem:
    """Instantiate a registered system ("boxed_ieee", "mpfr", "posit",
    "interval", "rational")."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown altmath system {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)
