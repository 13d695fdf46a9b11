"""Seeded, stream-split randomness.

Every stochastic component gets its own named stream derived from the root
seed, so adding a new component (or reordering draws inside one) never
perturbs the randomness seen by others.  This is what keeps experiments
reproducible while the codebase evolves.
"""

from __future__ import annotations

import hashlib
import random


class SplitRandom:
    """A root seed from which independent named streams are derived."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def stream(self, name: str) -> random.Random:
        """Return an independent :class:`random.Random` for stream ``name``.

        The same (seed, name) pair always produces the same stream.
        """
        digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def split(self, name: str) -> "SplitRandom":
        """Derive a child :class:`SplitRandom` rooted at (seed, name)."""
        digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
        return SplitRandom(int.from_bytes(digest[8:16], "big"))

    def child_seed(self, name: str) -> int:
        """The derived child's root seed (``split(name).seed``).

        Used where only the integer needs to travel — e.g. the parallel
        sweep engine derives each task's seed in the parent process and
        ships it inside the picklable task envelope, so a task's
        randomness is fixed before any worker touches it.
        """
        return self.split(name).seed


def bounded_lognormal(rng: random.Random, mean: float, sigma: float,
                      low: float, high: float) -> float:
    """A lognormal draw clamped to ``[low, high]``.

    Used for execution-time models where the paper only states a range
    (e.g. "average execution time ranges from 10 seconds to 10 minutes").
    """
    if low > high:
        raise ValueError("low must be <= high")
    value = rng.lognormvariate(mean, sigma)
    return min(max(value, low), high)
