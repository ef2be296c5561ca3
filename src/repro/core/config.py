"""Model configuration: system topology and per-class distributions.

Mirrors Section 3 of the paper.  A :class:`SystemConfig` holds ``P``
processors and ``L`` :class:`ClassConfig` entries; class ``p`` requests
partitions of ``g(p)`` processors, so ``c_p = P / g(p)`` class-``p``
jobs space-share the machine during class ``p``'s quantum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ValidationError
from repro.phasetype import PhaseType, exponential

__all__ = ["ClassConfig", "SystemConfig", "EMPTY_QUEUE_POLICIES"]

#: Supported behaviours when a class's queue empties mid-quantum.
#:
#: ``"switch"`` — the paper's policy: context-switch to the next class
#: immediately (Section 3.1).
#: ``"idle"`` — strict cycling: the quantum runs to its PH expiry over
#: an idle machine (ablation baseline).
EMPTY_QUEUE_POLICIES = ("switch", "idle")


def _require_proper(d: PhaseType, what: str) -> PhaseType:
    if not isinstance(d, PhaseType):
        raise ValidationError(f"{what} must be a PhaseType, got {type(d).__name__}")
    if d.atom_at_zero > 1e-12:
        raise ValidationError(
            f"{what} must not have an atom at zero (mass {d.atom_at_zero:.3g}); "
            "zero-length samples are not meaningful here"
        )
    return d


@dataclass(frozen=True)
class ClassConfig:
    """Workload and scheduling parameters of one job class.

    Parameters
    ----------
    partition_size:
        ``g(p)``: processors per job of this class; must divide the
        system's processor count.
    arrival:
        PH interarrival-time distribution ``A_p`` (rate ``lambda_p``
        is its reciprocal mean).
    service:
        PH service-time distribution ``B_p`` on a ``g(p)``-processor
        partition (rate ``mu_p``).
    quantum:
        PH quantum-length distribution ``G_p`` (mean ``1/gamma_p``).
    overhead:
        PH context-switch overhead ``C_p`` for switching from this
        class to the next (mean ``1/delta_p``).
    name:
        Optional display name.
    """

    partition_size: int
    arrival: PhaseType
    service: PhaseType
    quantum: PhaseType
    overhead: PhaseType
    name: str = ""

    def __post_init__(self):
        if int(self.partition_size) != self.partition_size or self.partition_size < 1:
            raise ValidationError(
                f"partition_size must be a positive integer, got {self.partition_size}"
            )
        object.__setattr__(self, "partition_size", int(self.partition_size))
        _require_proper(self.arrival, "arrival distribution")
        _require_proper(self.service, "service distribution")
        _require_proper(self.quantum, "quantum distribution")
        _require_proper(self.overhead, "overhead distribution")

    # Convenience rates (the paper's lambda_p, mu_p, gamma_p, delta_p).

    @property
    def arrival_rate(self) -> float:
        """``lambda_p = 1 / E[A_p]``."""
        return self.arrival.rate

    @property
    def service_rate(self) -> float:
        """``mu_p = 1 / E[B_p]``."""
        return self.service.rate

    @property
    def overhead_rate(self) -> float:
        """``delta_p = 1 / E[C_p]``."""
        return self.overhead.rate

    @staticmethod
    def markovian(partition_size: int, *, arrival_rate: float, service_rate: float,
                  quantum_mean: float, overhead_mean: float,
                  name: str = "") -> "ClassConfig":
        """All-exponential class (the configuration of Figures 2-5)."""
        return ClassConfig(
            partition_size=partition_size,
            arrival=exponential(arrival_rate),
            service=exponential(service_rate),
            quantum=exponential(mean=quantum_mean),
            overhead=exponential(mean=overhead_mean),
            name=name,
        )


@dataclass(frozen=True)
class SystemConfig:
    """The full gang-scheduled system: ``P`` processors and ``L`` classes.

    Parameters
    ----------
    processors:
        Total processor count ``P``.
    classes:
        One :class:`ClassConfig` per job class, in timeplexing order
        (class ``p`` is followed by class ``(p+1) mod L``).
    empty_queue_policy:
        See :data:`EMPTY_QUEUE_POLICIES`.
    """

    processors: int
    classes: tuple[ClassConfig, ...]
    empty_queue_policy: str = "switch"
    _names: tuple[str, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        if int(self.processors) != self.processors or self.processors < 1:
            raise ValidationError(
                f"processors must be a positive integer, got {self.processors}"
            )
        object.__setattr__(self, "processors", int(self.processors))
        classes = tuple(self.classes)
        if not classes:
            raise ValidationError("at least one job class is required")
        for p, cls in enumerate(classes):
            if not isinstance(cls, ClassConfig):
                raise ValidationError(f"classes[{p}] is not a ClassConfig")
            if self.processors % cls.partition_size != 0:
                raise ValidationError(
                    f"class {p}: partition size {cls.partition_size} does not "
                    f"divide P={self.processors} into equal partitions"
                )
        if self.empty_queue_policy not in EMPTY_QUEUE_POLICIES:
            raise ValidationError(
                f"empty_queue_policy must be one of {EMPTY_QUEUE_POLICIES}, "
                f"got {self.empty_queue_policy!r}"
            )
        object.__setattr__(self, "classes", classes)
        names = tuple(c.name or f"class{p}" for p, c in enumerate(classes))
        object.__setattr__(self, "_names", names)

    @property
    def num_classes(self) -> int:
        """``L``."""
        return len(self.classes)

    @property
    def class_names(self) -> tuple[str, ...]:
        return self._names

    def partitions(self, p: int) -> int:
        """``c_p = P / g(p)``: partitions available to class ``p``."""
        return self.processors // self.classes[p].partition_size

    def utilization(self, p: int | None = None) -> float:
        """Traffic intensity.

        Per class: ``rho_p = lambda_p g(p) / (P mu_p)
        = lambda_p / (c_p mu_p)`` — the load class ``p`` would impose
        on the machine if it were dedicated to it.  With ``p=None``,
        the total ``rho = sum_p rho_p`` (the paper's utilization factor).
        """
        if p is not None:
            cls = self.classes[p]
            return cls.arrival_rate / (self.partitions(p) * cls.service_rate)
        return sum(self.utilization(q) for q in range(self.num_classes))

    def cycle_mean(self) -> float:
        """Mean timeplexing-cycle length ``sum_p (E[G_p] + E[C_p])``.

        This is the full-quantum (heavy-traffic) cycle; with early
        switching the realized cycle is shorter.
        """
        return sum(c.quantum.mean + c.overhead.mean for c in self.classes)

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"Gang-scheduled system: P={self.processors} processors, "
            f"L={self.num_classes} classes, policy={self.empty_queue_policy}",
        ]
        for p, c in enumerate(self.classes):
            lines.append(
                f"  {self._names[p]}: g={c.partition_size} (c={self.partitions(p)} "
                f"partitions), lambda={c.arrival_rate:.4g}, mu={c.service_rate:.4g}, "
                f"E[G]={c.quantum.mean:.4g}, E[C]={c.overhead.mean:.4g}, "
                f"rho_p={self.utilization(p):.4g}"
            )
        lines.append(f"  total rho={self.utilization():.4g}, "
                     f"full cycle E[Z]={self.cycle_mean():.4g}")
        return "\n".join(lines)
