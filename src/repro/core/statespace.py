"""Per-class state-space enumeration.

Section 4.1 of the paper: the class-``p`` chain tracks

* ``i`` — the number of class-``p`` jobs in the system (the *level*);
* ``a`` — the phase of the interarrival PH (``1..m_A``);
* ``v = (j_1, ..., j_{m_B})`` — how many of the ``min(i, c_p)``
  in-service jobs sit in each service phase (a weak composition);
* ``k`` — the phase of the timeplexing cycle as seen by class ``p``:
  ``k < M_p`` means class ``p`` holds the processors (quantum phases),
  ``k >= M_p`` means some other class does (vacation phases
  ``M_p .. M_p + N_p - 1``).

Under the paper's switch-on-empty policy, "class p in its quantum with
an empty system" is unreachable — the chain switches away the moment
the queue empties — so level 0 carries only the vacation phases.
Under the ``"idle"`` ablation policy level 0 keeps all cycle phases.

States within a level are ordered lexicographically by
``(a, v, k)`` with ``v`` in the deterministic order of
:func:`repro.utils.combinatorics.compositions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ValidationError
from repro.utils.combinatorics import composition_index_map, compositions

__all__ = ["ClassStateSpace"]


@dataclass(frozen=True)
class ClassStateSpace:
    """Index arithmetic for one class's QBD state space.

    Parameters
    ----------
    partitions:
        ``c_p``: the maximum number of class-``p`` jobs in service.
    m_arrival, m_service, m_quantum, m_vacation:
        Orders of the arrival, service, quantum and vacation PH
        representations (``m_A``, ``m_B``, ``M_p``, ``N_p``).
    policy:
        ``"switch"`` or ``"idle"`` (see
        :data:`repro.core.config.EMPTY_QUEUE_POLICIES`).
    """

    partitions: int
    m_arrival: int
    m_service: int
    m_quantum: int
    m_vacation: int
    policy: str = "switch"

    def __post_init__(self):
        for name in ("partitions", "m_arrival", "m_service", "m_quantum", "m_vacation"):
            val = getattr(self, name)
            if int(val) != val or val < 1:
                raise ValidationError(f"{name} must be a positive integer, got {val}")
            object.__setattr__(self, name, int(val))
        if self.policy not in ("switch", "idle"):
            raise ValidationError(f"unknown policy {self.policy!r}")

    # ------------------------------------------------------------------
    # Cycle phases
    # ------------------------------------------------------------------

    @property
    def num_cycle_phases(self) -> int:
        """Total cycle phases ``M_p + N_p`` (levels >= 1)."""
        return self.m_quantum + self.m_vacation

    def is_quantum_phase(self, k: int) -> bool:
        """Whether global cycle phase ``k`` is a quantum (service) phase."""
        return 0 <= k < self.m_quantum

    def cycle_phases_at(self, level: int) -> range:
        """Global cycle-phase indices valid at ``level``."""
        if level == 0 and self.policy == "switch":
            return range(self.m_quantum, self.num_cycle_phases)
        return range(self.num_cycle_phases)

    # ------------------------------------------------------------------
    # Service occupancy
    # ------------------------------------------------------------------

    def in_service(self, level: int) -> int:
        """Jobs holding a partition at ``level``: ``min(level, c_p)``."""
        return min(level, self.partitions)

    def service_vectors(self, level: int) -> tuple[tuple[int, ...], ...]:
        """All service-phase occupancy vectors valid at ``level``."""
        return compositions(self.in_service(level), self.m_service)

    def service_vector_index(self, level: int) -> dict[tuple[int, ...], int]:
        """Occupancy vector -> enumeration index at ``level``."""
        return composition_index_map(self.in_service(level), self.m_service)

    # ------------------------------------------------------------------
    # Level-wide indexing
    # ------------------------------------------------------------------

    @lru_cache(maxsize=None)
    def level_dim(self, level: int) -> int:
        """Number of states at ``level``."""
        return (self.m_arrival * len(self.service_vectors(level))
                * len(self.cycle_phases_at(level)))

    @property
    def boundary_levels(self) -> int:
        """The paper's boundary: levels ``0 .. c_p``."""
        return self.partitions

    def index(self, level: int, a: int, v: tuple[int, ...], k: int) -> int:
        """Flat index of state ``(a, v, k)`` within its level block."""
        phases = self.cycle_phases_at(level)
        nk = len(phases)
        k_local = k - phases.start
        if not 0 <= k_local < nk:
            raise ValidationError(
                f"cycle phase {k} invalid at level {level} (policy {self.policy})"
            )
        vmap = self.service_vector_index(level)
        try:
            vidx = vmap[tuple(v)]
        except KeyError:
            raise ValidationError(
                f"service vector {v} invalid at level {level} "
                f"(needs sum {self.in_service(level)})"
            ) from None
        if not 0 <= a < self.m_arrival:
            raise ValidationError(f"arrival phase {a} out of range")
        return (a * len(vmap) + vidx) * nk + k_local

    def states(self, level: int):
        """Iterate ``(a, v, k)`` tuples in index order at ``level``."""
        phases = self.cycle_phases_at(level)
        vecs = self.service_vectors(level)
        for a in range(self.m_arrival):
            for v in vecs:
                for k in phases:
                    yield (a, v, k)

    def labels(self, level: int) -> list[str]:
        """Human-readable state labels (used by the Figure 1 export)."""
        out = []
        for a, v, k in self.states(level):
            kind = "Q" if self.is_quantum_phase(k) else "V"
            kk = k if self.is_quantum_phase(k) else k - self.m_quantum
            out.append(f"i={level} a={a} v={v} {kind}{kk}")
        return out
