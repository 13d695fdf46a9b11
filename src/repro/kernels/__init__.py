"""The simulator's one vectorised kernel and the backend switch it reads.

A heartbeat cohort's delivery run needs the edge delay of every member at
once (:mod:`repro.kernels.edgedelay`).  When numpy imports, that pass runs
on ``uint64``/``float64`` columns; otherwise the bus loops over its scalar
draw.  Both produce **byte-identical** delays: the float formulas are kept
operation-for-operation equal to the scalar code (IEEE-754 elementwise ops
match CPython float ops bit for bit), so grant streams, summaries and
traces do not depend on which one ran.

The backend is a platform fact, not a user option: numpy when importable.
:class:`use` substitutes one for the length of a ``with`` block (tests run
both legs); :func:`select`, :func:`current` and :func:`numpy_version` serve
the layered benchmark, which records the backend in its provenance.  The
other whole-pool passes — the pool's fit index and the liveness time
columns — priced no better vectorised and run in Python (DESIGN.md §11).
"""

from __future__ import annotations

from typing import Optional

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


def select(name: Optional[str]) -> str:
    """Activate ``"numpy"``, ``"python"`` or ``"auto"`` (numpy when
    importable); returns the concrete name."""
    global _active
    if not name or name == "auto":
        name = "numpy" if _np is not None else "python"
    elif name not in ("numpy", "python"):
        raise ValueError(f"unknown kernel backend {name!r}; "
                         f"choose from auto, numpy, python")
    elif name == "numpy" and _np is None:
        raise RuntimeError("kernel backend 'numpy' requested but numpy "
                           "is not importable on this host")
    _active = name
    return name


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


select("auto")
