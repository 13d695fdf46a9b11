"""Multi-dimensional resource description (paper §3.2.1).

Fuxi unifies physical resources (CPU, memory) and *virtual* resources (named
per-node concurrency tokens like ``"ASortResource"``) into one vector type.
All dimensions of a request must be satisfied simultaneously; comparison is
therefore component-wise, not lexicographic.

CPU is measured in centi-cores (100 == one core) and memory in megabytes,
matching the paper's request example (``CPU: 100, Memory: 1024``).  Virtual
dimensions use whatever unit the application chooses.

The vector is immutable, which the grant/return hot path exploits: algebra
results are built through a validation-free private constructor, hashes are
computed once and cached, and each vector memoizes its small-integer scalar
products (``unit.resources * count`` recurs constantly during scheduling).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

CPU = "CPU"
MEMORY = "Memory"

PHYSICAL_DIMENSIONS = (CPU, MEMORY)

#: memoize scalar products for small integer factors only (grant counts);
#: larger/float factors are rare and not worth the per-vector memory.
_SCALE_CACHE_MAX_FACTOR = 64


class ResourceVector:
    """An immutable mapping from dimension name to a non-negative quantity.

    Zero-valued dimensions are dropped, so ``ResourceVector()`` is the unique
    representation of "nothing" and equality is well-defined.

    Supports ``+``, ``-`` (which raises if any component would go negative;
    use :meth:`monus` for clamped subtraction), scalar ``*``, and
    :meth:`fits_in` for the component-wise "can this demand be satisfied by
    that supply" test that drives all scheduling decisions.
    """

    __slots__ = ("_dims", "_hash", "_scaled")

    def __init__(self, dims: Mapping[str, float] | None = None, **kw: float):
        merged: Dict[str, float] = {}
        for source in (dims or {}), kw:
            for name, amount in source.items():
                amount = float(amount)
                if amount < 0:
                    raise ValueError(f"negative amount for {name!r}: {amount}")
                if amount > 0:
                    merged[name] = merged.get(name, 0.0) + amount
        self._dims: Dict[str, float] = merged
        self._hash: Optional[int] = None
        self._scaled: Optional[Dict[int, "ResourceVector"]] = None

    @classmethod
    def _adopt(cls, dims: Dict[str, float]) -> "ResourceVector":
        """Validation-free constructor for internal algebra results.

        ``dims`` must already satisfy the invariant (all values > 0) and
        must not be aliased by the caller afterwards.
        """
        vector = cls.__new__(cls)
        vector._dims = dims
        vector._hash = None
        vector._scaled = None
        return vector

    # --------------------------------------------------------------- #
    # constructors
    # --------------------------------------------------------------- #

    @classmethod
    def of(cls, cpu: float = 0.0, memory: float = 0.0, **virtual: float) -> "ResourceVector":
        """Build a vector from CPU (centi-cores), memory (MB) and virtual dims."""
        dims = dict(virtual)
        if cpu:
            dims[CPU] = cpu
        if memory:
            dims[MEMORY] = memory
        return cls(dims)

    @classmethod
    def zero(cls) -> "ResourceVector":
        return cls()

    # --------------------------------------------------------------- #
    # accessors
    # --------------------------------------------------------------- #

    def get(self, dim: str) -> float:
        return self._dims.get(dim, 0.0)

    @property
    def cpu(self) -> float:
        return self._dims.get(CPU, 0.0)

    @property
    def memory(self) -> float:
        return self._dims.get(MEMORY, 0.0)

    def dimensions(self) -> Tuple[str, ...]:
        return tuple(sorted(self._dims))

    def items(self) -> Iterator[Tuple[str, float]]:
        return iter(sorted(self._dims.items()))

    def is_zero(self) -> bool:
        return not self._dims

    def as_dict(self) -> Dict[str, float]:
        return dict(self._dims)

    # --------------------------------------------------------------- #
    # algebra
    # --------------------------------------------------------------- #

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        if not isinstance(other, ResourceVector):
            return NotImplemented
        if not other._dims:
            return self
        if not self._dims:
            return other
        dims = dict(self._dims)
        for name, amount in other._dims.items():
            dims[name] = dims.get(name, 0.0) + amount
        return ResourceVector._adopt(dims)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        if not isinstance(other, ResourceVector):
            return NotImplemented
        if not other._dims:
            return self
        dims = dict(self._dims)
        for name, amount in other._dims.items():
            remaining = dims.get(name, 0.0) - amount
            if remaining < -1e-9:
                raise ValueError(
                    f"subtraction would make {name!r} negative "
                    f"({dims.get(name, 0.0)} - {amount})"
                )
            if remaining <= 1e-9:
                dims.pop(name, None)
            else:
                dims[name] = remaining
        return ResourceVector._adopt(dims)

    def monus(self, other: "ResourceVector") -> "ResourceVector":
        """Component-wise subtraction clamped at zero (truncated minus)."""
        other_dims = other._dims
        dims = {}
        for name, amount in self._dims.items():
            remaining = amount - other_dims.get(name, 0.0)
            if remaining > 1e-9:
                dims[name] = remaining
        return ResourceVector._adopt(dims)

    def __mul__(self, factor: float) -> "ResourceVector":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        if factor < 0:
            raise ValueError(f"negative factor {factor}")
        if factor == 0 or not self._dims:
            return _ZERO
        if factor == 1:
            return self
        cacheable = (type(factor) is int
                     and factor <= _SCALE_CACHE_MAX_FACTOR)
        if cacheable:
            cache = self._scaled
            if cache is not None:
                cached = cache.get(factor)
                if cached is not None:
                    return cached
        product = ResourceVector._adopt(
            {n: a * factor for n, a in self._dims.items()})
        if cacheable:
            if self._scaled is None:
                self._scaled = {}
            self._scaled[factor] = product
        return product

    __rmul__ = __mul__

    # --------------------------------------------------------------- #
    # comparisons
    # --------------------------------------------------------------- #

    def fits_in(self, supply: "ResourceVector") -> bool:
        """True if every dimension of this demand is available in ``supply``."""
        supply_dims = supply._dims
        for name, amount in self._dims.items():
            if amount > supply_dims.get(name, 0.0) + 1e-9:
                return False
        return True

    def max_units_in(self, supply: "ResourceVector") -> int:
        """How many whole copies of this vector fit in ``supply``.

        Returns a large sentinel (10**9) for the zero vector, which fits
        anywhere any number of times.
        """
        if not self._dims:
            return 10 ** 9
        supply_dims = supply._dims
        units = 10 ** 9
        for name, amount in self._dims.items():
            ratio = (supply_dims.get(name, 0.0) + 1e-9) / amount
            count = 10 ** 9 if ratio >= 10 ** 9 else int(ratio)
            if count < units:
                units = count
                if units <= 0:
                    return 0
        return units

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        if self is other or self._dims == other._dims:
            return True
        names = set(self._dims) | set(other._dims)
        # Relative + absolute tolerance: float accumulation over many
        # grant/release cycles must not make conserved books "unequal".
        return all(
            abs(self.get(n) - other.get(n))
            <= 1e-9 + 1e-9 * max(abs(self.get(n)), abs(other.get(n)))
            for n in names
        )

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(tuple(sorted(
                (n, round(a, 9)) for n, a in self._dims.items())))
            self._hash = cached
        return cached

    def __bool__(self) -> bool:
        return bool(self._dims)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={a:g}" for n, a in sorted(self._dims.items()))
        return f"ResourceVector({inner})"


_ZERO = ResourceVector()


def total_of(vectors: Iterable[ResourceVector]) -> ResourceVector:
    """Sum an iterable of vectors (empty sum is the zero vector)."""
    acc: Dict[str, float] = {}
    for vector in vectors:
        for name, amount in vector._dims.items():
            acc[name] = acc.get(name, 0.0) + amount
    return ResourceVector(acc)
