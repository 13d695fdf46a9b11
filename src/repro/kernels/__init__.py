"""Struct-of-arrays compute kernels with a NumPy and a pure-Python backend.

The simulator's hot tiers — the pool fit index, the heartbeat staleness
roll-ups and the edge delays of a heartbeat cohort's delivery run — funnel
their batch work through this package.  Two interchangeable backends
implement every kernel:

* ``numpy`` — dense float64/int64 columns, vectorized passes; and
* ``python`` — plain lists and loops producing **byte-identical** results.

Backends never change *what* is computed, only *how*: the float formulas are
kept operation-for-operation equal to the scalar code (IEEE-754 elementwise
ops match CPython float ops bit for bit), so grant streams, summaries and
traces are invariant under backend choice — ``fuxi-sim kernelcheck`` pins
this end to end.

Selection: ``select("auto" | "numpy" | "python")``, defaulting to the
``FUXI_KERNELS`` environment variable, then ``auto`` (numpy when
importable).  ``RunSpec(kernels=...)`` plumbs the choice through the API.
"""

from __future__ import annotations

import os
from typing import Optional

KERNEL_BACKENDS = ("auto", "numpy", "python")

try:  # optional dependency: everything must work without it
    import numpy as _np
except Exception:  # pragma: no cover - depends on host environment
    _np = None

#: resolved backend name, "numpy" or "python" — never "auto"
_active: str = ""


def numpy_available() -> bool:
    """True if the numpy backend can be selected on this host."""
    return _np is not None


def numpy_version() -> Optional[str]:
    """Installed numpy version string, or None when absent."""
    return getattr(_np, "__version__", None) if _np is not None else None


def np():
    """The numpy module when the numpy backend is active, else None.

    Kernel modules branch on this once per bulk operation, not per element.
    """
    return _np if _active == "numpy" else None


def resolve(name: Optional[str]) -> str:
    """Map a requested backend name to a concrete one ("numpy"/"python")."""
    if not name or name == "auto":
        return "numpy" if _np is not None else "python"
    if name not in ("numpy", "python"):
        raise ValueError(
            f"unknown kernel backend {name!r}; choose from {KERNEL_BACKENDS}")
    if name == "numpy" and _np is None:
        raise RuntimeError("kernel backend 'numpy' requested but numpy "
                           "is not importable on this host")
    return name


def select(name: Optional[str]) -> str:
    """Activate a backend ("auto" resolves); returns the concrete name."""
    global _active
    _active = resolve(name)
    return _active


def current() -> str:
    """The active concrete backend name ("numpy" or "python")."""
    return _active


class use:
    """Context manager that temporarily forces a backend (tests)."""

    def __init__(self, name: str):
        self._name = name
        self._prev = ""

    def __enter__(self) -> str:
        self._prev = _active
        return select(self._name)

    def __exit__(self, *exc) -> None:
        global _active
        _active = self._prev


# Activate the default backend at import time so library users that never
# touch RunSpec still get a resolved backend.  FUXI_KERNELS overrides.
select(os.environ.get("FUXI_KERNELS") or "auto")
