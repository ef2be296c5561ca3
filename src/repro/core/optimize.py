"""Scheduler tuning on top of the analytic model.

The paper's stated purpose: *"Our model and analysis can be used to
tune our scheduler in order to maximize its performance on each
hardware platform."*  This module turns the solved model into that
tuning loop:

* :func:`optimize_quantum` — pick the quantum length minimizing a
  congestion objective (the Figures 2/3 knee), by golden-section
  search on the empirically unimodal curve;
* :func:`optimize_cycle_split` — divide the timeplexing cycle among
  classes (the Figure 5 trade-off) to minimize a weighted objective,
  by Nelder-Mead on a softmax parameterization of the simplex;
* :func:`optimize_weights` — search the *policy* space: the best
  :class:`~repro.policy.WeightedQuantum` weight vector for a fixed
  system, same softmax/Nelder-Mead machinery but turning a policy knob
  instead of rebuilding the system;
* :func:`optimize_priority_order` — exhaustive search over
  :class:`~repro.policy.PriorityCycle` orderings (``L!`` solves, so
  guarded to small ``L`` — the paper's systems have 4 classes);
* :func:`optimize_quantum_for_slo` — *tail-SLO* tuning: the smallest
  quantum whose worst-class distribution metric (``p99``, ``P{T > t}``)
  meets a bound like ``p99<=2.5``, built from a golden-section
  feasibility probe plus a bisection on the left feasibility edge.

Objectives receive the :class:`~repro.core.model.SolvedModel` and
return a scalar; saturated classes contribute ``inf``, which steers
the search away from infeasible allocations automatically.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence

import numpy as np
from scipy import optimize as sciopt

from repro.core.config import SystemConfig
from repro.core.model import GangSchedulingModel, SolvedModel
from repro.errors import UnstableSystemError, ValidationError
from repro.policy import PriorityCycle, SchedulingPolicy, WeightedQuantum

__all__ = [
    "total_jobs_objective",
    "weighted_response_objective",
    "slo_objective",
    "optimize_quantum",
    "optimize_quantum_for_slo",
    "optimize_cycle_split",
    "optimize_weights",
    "optimize_priority_order",
    "QuantumOptimum",
    "SLOTarget",
    "parse_slo_target",
    "SLOOptimum",
    "CycleSplitOptimum",
    "PolicyOptimum",
]


def total_jobs_objective(solved: SolvedModel) -> float:
    """``sum_p N_p`` — overall congestion (Little: total delay rate)."""
    return solved.mean_jobs()


def weighted_response_objective(weights: Sequence[float]
                                ) -> Callable[[SolvedModel], float]:
    """``sum_p w_p T_p`` — class-weighted mean response time."""
    w = [float(x) for x in weights]

    def objective(solved: SolvedModel) -> float:
        if len(w) != len(solved.classes):
            raise ValidationError(
                f"{len(w)} weights for {len(solved.classes)} classes")
        return sum(wi * c.mean_response_time
                   for wi, c in zip(w, solved.classes))

    return objective


def slo_objective(selector: str) -> Callable[[SolvedModel], float]:
    """Worst-class value of one distribution metric selector.

    ``slo_objective("p99")(solved)`` is ``max_p Q_p(0.99)`` over the
    per-class response-time distributions
    (:meth:`repro.core.model.SolvedModel.distributions`); an SLO holds
    exactly when this objective is below the bound.  ``mean`` falls
    back to the scalar measures.  Saturated classes evaluate to
    ``inf`` (quantile) / ``1.0`` (tail), steering searches away.
    """
    from repro.metrics.selectors import parse_metric

    sel = parse_metric(selector)

    def objective(solved: SolvedModel) -> float:
        values = []
        for p in range(len(solved.classes)):
            if sel.kind == "mean":
                values.append(solved.classes[p].mean_response_time)
            elif sel.kind == "quantile":
                values.append(solved.distributions(p).quantile(sel.value))
            else:
                values.append(solved.distributions(p).tail(sel.value))
        return max(values)

    return objective


def _evaluate(config: SystemConfig, objective, model_kwargs,
              policy: SchedulingPolicy | None = None) -> float:
    kwargs = dict(model_kwargs or {})
    if policy is not None:
        kwargs["policy"] = policy
    try:
        solved = GangSchedulingModel(config, **kwargs).solve()
    except UnstableSystemError:
        return math.inf
    return float(objective(solved))


def _config_key(config: SystemConfig) -> str:
    """Content key of a system configuration (canonical JSON hash)."""
    import hashlib
    import json

    from repro.serialize import system_to_dict

    blob = json.dumps(system_to_dict(config), sort_keys=True,
                      separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


class QuantumOptimum:
    """Result of :func:`optimize_quantum`."""

    def __init__(self, quantum: float, objective_value: float,
                 evaluations: int):
        #: The optimal mean quantum length.
        self.quantum = quantum
        #: Objective at the optimum.
        self.objective_value = objective_value
        #: Number of model solves performed.
        self.evaluations = evaluations

    def __repr__(self) -> str:
        return (f"QuantumOptimum(quantum={self.quantum:.6g}, "
                f"objective={self.objective_value:.6g}, "
                f"evaluations={self.evaluations})")


def optimize_quantum(config_factory: Callable[[float], SystemConfig],
                     *, bounds: tuple[float, float],
                     objective: Callable[[SolvedModel], float] = total_jobs_objective,
                     tol: float = 1e-3, max_evaluations: int = 60,
                     model_kwargs: dict | None = None,
                     memo: dict | None = None) -> QuantumOptimum:
    """Golden-section search for the best quantum length.

    Parameters
    ----------
    config_factory:
        ``quantum_mean -> SystemConfig``.
    bounds:
        Search interval ``(lo, hi)``, ``0 < lo <= hi``.  A degenerate
        bracket ``lo == hi`` evaluates that single quantum and returns
        it (so sweep scripts can pin the quantum without special-casing).
    objective:
        Scalar objective over the solved model (default: total mean
        jobs).  The Figure 2/3 curves are unimodal in the quantum, so
        golden-section is appropriate; for a non-unimodal custom
        objective, grid-search first.
    tol:
        Relative interval width at which to stop.
    memo:
        Optional content-keyed objective memo, keyed by the *built
        configuration* rather than the raw quantum: bracket endpoints
        that collapse to bit-identical configs (ulp-different quanta, a
        quantizing factory, repeated searches sharing the dict) cost
        zero solves.  Entries assume the same ``objective`` and
        ``model_kwargs``; pass a fresh dict when either changes.
        ``evaluations`` counts actual model solves only.  Solves share
        nothing; the memo is the only reuse between them.
    """
    lo, hi = bounds
    if not 0 < lo <= hi:
        raise ValidationError(
            f"bounds must satisfy 0 < lo <= hi, got {bounds}")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    evals = 0

    cache: dict[float, float] = {}
    content_memo = memo if memo is not None else {}

    def f(q: float) -> float:
        nonlocal evals
        if q not in cache:
            config = config_factory(q)
            ck = _config_key(config)
            if ck not in content_memo:
                content_memo[ck] = _evaluate(config, objective, model_kwargs)
                evals += 1
            cache[q] = content_memo[ck]
        return cache[q]

    if lo == hi:
        return QuantumOptimum(quantum=lo, objective_value=f(lo),
                              evaluations=evals)

    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    while (b - a) > tol * max(1.0, b) and evals < max_evaluations:
        if f(c) <= f(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    best_q = min(cache, key=cache.get)
    return QuantumOptimum(quantum=best_q, objective_value=cache[best_q],
                          evaluations=evals)


class SLOTarget:
    """A parsed tail-SLO bound: ``<selector> <= <bound>``."""

    def __init__(self, selector: str, bound: float):
        from repro.metrics.selectors import parse_metric

        #: The metric selector the bound constrains (``"p99"``,
        #: ``"tail@5"``, ``"mean"``) — validated on construction.
        self.selector = parse_metric(selector).raw
        #: The bound the worst class must stay at or below.
        self.bound = float(bound)
        if not math.isfinite(self.bound) or self.bound < 0:
            raise ValidationError(
                f"SLO bound must be finite and >= 0, got {bound!r}")

    def __repr__(self) -> str:
        return f"SLOTarget({self.selector}<={self.bound:g})"


def parse_slo_target(spec: str) -> SLOTarget:
    """Parse an SLO spec like ``"p99<=2.5"`` or ``"tail@5<=0.01"``.

    The left side is any metric selector accepted by
    :func:`repro.metrics.selectors.parse_metric`; the right side the
    numeric bound the worst class must meet.
    """
    parts = str(spec).split("<=")
    if len(parts) != 2:
        raise ValidationError(
            f"SLO target must look like 'p99<=2.5', got {spec!r}")
    selector, bound_text = parts[0].strip(), parts[1].strip()
    try:
        bound = float(bound_text)
    except ValueError:
        raise ValidationError(
            f"SLO bound {bound_text!r} is not a number") from None
    return SLOTarget(selector, bound)


class SLOOptimum:
    """Result of :func:`optimize_quantum_for_slo`."""

    def __init__(self, quantum: float, metric_value: float,
                 target: SLOTarget, feasible: bool, evaluations: int,
                 best_quantum: float, best_metric_value: float):
        #: Smallest quantum meeting the bound (the unconstrained
        #: optimum when the search was infeasible).
        self.quantum = quantum
        #: The worst-class metric at :attr:`quantum`.
        self.metric_value = metric_value
        #: The parsed constraint.
        self.target = target
        #: Whether any quantum in the bracket met the bound.
        self.feasible = feasible
        #: Total model solves across probe and bisection.
        self.evaluations = evaluations
        #: The unconstrained minimizer (and its metric) — reported so
        #: an infeasible search still says how close it got.
        self.best_quantum = best_quantum
        self.best_metric_value = best_metric_value

    def __repr__(self) -> str:
        state = "feasible" if self.feasible else "INFEASIBLE"
        return (f"SLOOptimum({self.target.selector}<={self.target.bound:g} "
                f"{state}: quantum={self.quantum:.6g}, "
                f"{self.target.selector}={self.metric_value:.6g}, "
                f"evaluations={self.evaluations})")


def optimize_quantum_for_slo(config_factory: Callable[[float], SystemConfig],
                             *, target: SLOTarget | str,
                             bounds: tuple[float, float],
                             tol: float = 1e-3, max_evaluations: int = 80,
                             model_kwargs: dict | None = None,
                             memo: dict | None = None) -> SLOOptimum:
    """Smallest quantum meeting a tail-SLO bound.

    Two stages on the same content-keyed memo (so no configuration is
    ever solved twice):

    1. a golden-section probe (:func:`optimize_quantum` with
       :func:`slo_objective`) locates the quantum minimizing the
       worst-class metric — if even that minimum violates the bound,
       the SLO is infeasible on this bracket and the probe's optimum
       is returned with ``feasible=False``;
    2. the metric curve is unimodal in the quantum (same empirical
       fact Figures 2/3 rest on), so the feasible set is an interval
       around the minimizer; a bisection on ``[lo, q*]`` walks to its
       left edge — the *smallest* feasible quantum.
    """
    if isinstance(target, str):
        target = parse_slo_target(target)
    lo, hi = bounds
    if not 0 < lo <= hi:
        raise ValidationError(
            f"bounds must satisfy 0 < lo <= hi, got {bounds}")
    objective = slo_objective(target.selector)
    content_memo = memo if memo is not None else {}

    probe = optimize_quantum(config_factory, bounds=bounds,
                             objective=objective, tol=tol,
                             max_evaluations=max_evaluations,
                             model_kwargs=model_kwargs, memo=content_memo)
    evals = probe.evaluations
    if not probe.objective_value <= target.bound:
        return SLOOptimum(quantum=probe.quantum,
                          metric_value=probe.objective_value,
                          target=target, feasible=False, evaluations=evals,
                          best_quantum=probe.quantum,
                          best_metric_value=probe.objective_value)

    def g(q: float) -> float:
        nonlocal evals
        config = config_factory(q)
        ck = _config_key(config)
        if ck not in content_memo:
            content_memo[ck] = _evaluate(config, objective, model_kwargs)
            evals += 1
        return content_memo[ck]

    best_q, best_v = probe.quantum, probe.objective_value
    if g(lo) <= target.bound:
        return SLOOptimum(quantum=lo, metric_value=g(lo), target=target,
                          feasible=True, evaluations=evals,
                          best_quantum=best_q, best_metric_value=best_v)
    # g(lo) violates, g(best_q) meets: bisect the crossing.
    a, b = lo, best_q
    while (b - a) > tol * max(1.0, b) and evals < max_evaluations:
        mid = 0.5 * (a + b)
        if g(mid) <= target.bound:
            b = mid
        else:
            a = mid
    return SLOOptimum(quantum=b, metric_value=g(b), target=target,
                      feasible=True, evaluations=evals,
                      best_quantum=best_q, best_metric_value=best_v)


class CycleSplitOptimum:
    """Result of :func:`optimize_cycle_split`."""

    def __init__(self, fractions: tuple[float, ...], objective_value: float,
                 evaluations: int):
        #: Optimal cycle fractions, summing to 1.
        self.fractions = fractions
        self.objective_value = objective_value
        self.evaluations = evaluations

    def __repr__(self) -> str:
        fr = ", ".join(f"{f:.4f}" for f in self.fractions)
        return (f"CycleSplitOptimum(fractions=({fr}), "
                f"objective={self.objective_value:.6g}, "
                f"evaluations={self.evaluations})")


def optimize_cycle_split(config_factory: Callable[[tuple[float, ...]], SystemConfig],
                         num_classes: int, *,
                         objective: Callable[[SolvedModel], float] = total_jobs_objective,
                         initial: Sequence[float] | None = None,
                         max_evaluations: int = 200,
                         model_kwargs: dict | None = None) -> CycleSplitOptimum:
    """Optimize the division of the cycle's quantum budget.

    Parameters
    ----------
    config_factory:
        ``fractions -> SystemConfig`` where ``fractions`` is a tuple of
        ``num_classes`` positive numbers summing to 1.
    num_classes:
        ``L``.
    initial:
        Starting fractions (default: even split).
    """
    if num_classes < 2:
        raise ValidationError("cycle-split optimization needs >= 2 classes")
    x0 = np.log(np.asarray(initial if initial is not None
                           else [1.0 / num_classes] * num_classes))
    evals = 0

    def unpack(z: np.ndarray) -> tuple[float, ...]:
        w = np.exp(z - z.max())
        w = w / w.sum()
        return tuple(float(v) for v in w)

    def f(z: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        fractions = unpack(z)
        return _evaluate(config_factory(fractions), objective, model_kwargs)

    res = sciopt.minimize(f, x0, method="Nelder-Mead",
                          options={"maxfev": max_evaluations,
                                   "xatol": 1e-3, "fatol": 1e-4})
    fractions = unpack(res.x)
    return CycleSplitOptimum(fractions=fractions,
                             objective_value=float(res.fun),
                             evaluations=evals)


class PolicyOptimum:
    """Result of a policy-knob search (:func:`optimize_weights` /
    :func:`optimize_priority_order`)."""

    def __init__(self, policy: SchedulingPolicy, objective_value: float,
                 evaluations: int):
        #: The best policy found.
        self.policy = policy
        self.objective_value = objective_value
        self.evaluations = evaluations

    def __repr__(self) -> str:
        return (f"PolicyOptimum(policy={self.policy.describe()}, "
                f"objective={self.objective_value:.6g}, "
                f"evaluations={self.evaluations})")


def optimize_weights(config: SystemConfig, *,
                     objective: Callable[[SolvedModel], float] = total_jobs_objective,
                     initial: Sequence[float] | None = None,
                     max_evaluations: int = 200,
                     model_kwargs: dict | None = None) -> PolicyOptimum:
    """Find the best :class:`~repro.policy.WeightedQuantum` weights.

    The system is fixed; only the policy's weight vector moves.
    Nelder-Mead runs on log-weights (softmax keeps them positive and
    scale-free — ``WeightedQuantum`` itself normalizes to the cycle).
    """
    L = config.num_classes
    if L < 2:
        raise ValidationError("weight optimization needs >= 2 classes")
    if initial is not None and len(initial) != L:
        raise ValidationError(
            f"{len(initial)} initial weights for {L} classes")
    x0 = np.log(np.asarray(initial if initial is not None else [1.0] * L,
                           dtype=float))
    evals = 0

    def unpack(z: np.ndarray) -> tuple[float, ...]:
        w = np.exp(z - z.max())
        return tuple(float(v) for v in w / w.sum())

    def f(z: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        policy = WeightedQuantum(weights=unpack(z))
        return _evaluate(config, objective, model_kwargs, policy=policy)

    res = sciopt.minimize(f, x0, method="Nelder-Mead",
                          options={"maxfev": max_evaluations,
                                   "xatol": 1e-3, "fatol": 1e-4})
    best = WeightedQuantum(weights=unpack(res.x))
    return PolicyOptimum(policy=best, objective_value=float(res.fun),
                         evaluations=evals)


def optimize_priority_order(config: SystemConfig, *,
                            decay: float = 0.5, floor: float = 0.05,
                            objective: Callable[[SolvedModel], float] = total_jobs_objective,
                            model_kwargs: dict | None = None,
                            max_classes: int = 6) -> PolicyOptimum:
    """Find the best :class:`~repro.policy.PriorityCycle` ordering.

    Exhaustive over all ``L!`` permutations with fixed ``decay`` and
    ``floor`` — exact, and cheap for the paper's class counts; refuses
    systems beyond ``max_classes`` rather than silently exploding.
    """
    L = config.num_classes
    if L > max_classes:
        raise ValidationError(
            f"priority-order search is exhaustive (L! solves); "
            f"{L} classes exceeds the limit of {max_classes}")
    best_policy = None
    best_value = math.inf
    evals = 0
    for order in itertools.permutations(range(L)):
        policy = PriorityCycle(order=order, decay=decay, floor=floor)
        value = _evaluate(config, objective, model_kwargs, policy=policy)
        evals += 1
        if value < best_value:
            best_policy, best_value = policy, value
    if best_policy is None or math.isinf(best_value):
        raise UnstableSystemError(
            "no priority ordering keeps every class stable")
    return PolicyOptimum(policy=best_policy, objective_value=best_value,
                         evaluations=evals)
