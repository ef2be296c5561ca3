"""Reproducible random-number-stream management.

The simulator gives every stochastic component (each class's arrival
process, service process, the scheduler's quantum and overhead clocks)
its own independent :class:`numpy.random.Generator`, spawned from a
single root seed via :class:`numpy.random.SeedSequence`.  Independent
streams keep variance-reduction comparisons honest: changing the
scheduling policy does not perturb the arrival sample path.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StreamFactory"]


class StreamFactory:
    """Hands out named, independent random streams from one root seed.

    Asking twice for the same name returns the *same* generator object,
    so components can be wired lazily while still sharing streams when
    they intend to.

    Examples
    --------
    >>> streams = StreamFactory(seed=42)
    >>> arr = streams.get("arrivals.class0")
    >>> svc = streams.get("service.class0")
    >>> arr is streams.get("arrivals.class0")
    True
    """

    def __init__(self, seed: int | np.random.SeedSequence | None = None):
        self._root = (seed if isinstance(seed, np.random.SeedSequence)
                      else np.random.SeedSequence(seed))
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            # Deterministic per-name child: derive from the root entropy
            # plus a stable hash of the name so creation order does not
            # change the streams.
            digest = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
            child = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=tuple(int(b) for b in digest),
            )
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StreamFactory(entropy={self._root.entropy}, streams={sorted(self._streams)})"
