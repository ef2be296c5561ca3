"""The :class:`PhaseType` distribution class.

Notation follows Section 2.5 of the paper: an order-``m`` PH
distribution ``PH(alpha, S)`` is the absorption time of a CTMC on
states ``{1, ..., m, m+1}`` with generator::

    Q = [ S   s0 ]
        [ 0    0 ]

where ``s0 = -S e >= 0`` is the exit-rate vector.  ``alpha`` is the
initial distribution over transient phases; any deficit
``1 - alpha e`` is an atom at zero.

Distribution functions use uniformization (Section 2.4 of the paper):
with ``theta = max_i -S[i, i]`` and the substochastic jump matrix
``P = I + S/theta``,

    ``alpha exp(S x) = sum_k Pois(k; theta x) alpha P^k``.

Every term is a sub-probability vector, so the series cannot cancel
catastrophically (scipy's ``expm`` takes an exact-superdiagonal
shortcut for triangular input that collapses when two diagonal
entries differ by ~1 ulp, e.g. a hypoexponential with nearly equal
rates).  The vectors ``alpha P^k`` do not depend on ``x``, so each law
keeps only their scalar reductions ``c_k = alpha P^k e`` and
``d_k = alpha P^k s0``, grown on demand: ``sf``/``cdf`` (from ``c``)
and ``pdf`` (from ``d``) are then a Poisson-weighted sum over the
``1 - 1e-14`` window (:mod:`repro.utils.poisson`), O(K) scalar work per
probe once the sequence reaches the window.  ``c`` is non-increasing,
so once it has decayed to ``1e-16`` at or before the window, every term
in the window is negligible and the probe returns the ``x = inf``
limit; a huge ``x`` is answered from the decayed prefix, not from
``theta x`` terms.  A value depends only on the law and ``x``, never
on which arguments were probed before.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from repro.errors import NotAPhaseTypeError
from repro.utils.poisson import poisson_weights, poisson_window
from repro.utils.validation import (
    as_float_array,
    check_subgenerator,
    check_subprobability_vector,
)

__all__ = ["PhaseType"]

#: Indices into ``PhaseType._power_sums``: survival mass and exit density.
_MASS, _EXIT = 0, 1
#: Largest sequence term (``c_k``, or ``theta c_k`` bounding ``d_k``)
#: that counts as zero: below the window's own ``1e-14`` truncation.
_NEGLIGIBLE = 1e-16


class PhaseType:
    """An order-``m`` continuous phase-type distribution ``PH(alpha, S)``.

    Parameters
    ----------
    alpha:
        Initial sub-probability vector over the ``m`` transient phases.
        If ``sum(alpha) < 1`` the distribution has an atom of mass
        ``1 - sum(alpha)`` at zero.
    S:
        ``m x m`` sub-generator (non-negative off-diagonals, row sums
        ``<= 0``, invertible).

    Examples
    --------
    >>> from repro.phasetype import erlang
    >>> d = erlang(k=3, mean=1.5)
    >>> round(d.mean, 10)
    1.5
    >>> round(d.scv, 10)   # Erlang-3 has SCV 1/3
    0.3333333333
    """

    __slots__ = ("_alpha", "_S", "__dict__")

    def __init__(self, alpha, S):
        S = check_subgenerator(as_float_array(S, ndim=2, name="S"), name="S")
        alpha = check_subprobability_vector(
            as_float_array(alpha, ndim=1, name="alpha"), name="alpha"
        )
        if alpha.shape[0] != S.shape[0]:
            raise NotAPhaseTypeError(
                f"alpha has {alpha.shape[0]} entries but S is {S.shape[0]}x{S.shape[1]}"
            )
        self._alpha = alpha
        self._S = S

    @classmethod
    def from_trusted(cls, alpha, S) -> "PhaseType":
        """Construct without validation.

        For representations derived internally from already-validated
        distributions — closure operations, rescaling, the effective-
        quantum extraction — where the sub-generator is valid by
        construction.  The caller guarantees ``alpha`` is a
        sub-probability vector and ``S`` an invertible sub-generator;
        nothing here checks either.  External inputs (user code,
        deserialisation) must go through ``PhaseType(alpha, S)``.
        """
        self = object.__new__(cls)
        self._alpha = np.ascontiguousarray(alpha, dtype=np.float64)
        self._S = np.ascontiguousarray(S, dtype=np.float64)
        return self

    # ------------------------------------------------------------------
    # Representation
    # ------------------------------------------------------------------

    @property
    def alpha(self) -> np.ndarray:
        """Initial phase vector (read-only view)."""
        v = self._alpha.view()
        v.flags.writeable = False
        return v

    @property
    def S(self) -> np.ndarray:
        """Sub-generator matrix (read-only view)."""
        m = self._S.view()
        m.flags.writeable = False
        return m

    @property
    def order(self) -> int:
        """Number of transient phases ``m``."""
        return self._S.shape[0]

    @cached_property
    def exit_rates(self) -> np.ndarray:
        """Exit-rate vector ``s0 = -S e`` into the absorbing state."""
        s0 = -self._S.sum(axis=1)
        return np.clip(s0, 0.0, None)

    @cached_property
    def atom_at_zero(self) -> float:
        """Probability mass at zero, ``1 - alpha e``."""
        return max(0.0, 1.0 - float(self._alpha.sum()))

    @cached_property
    def _neg_S_inv(self) -> np.ndarray:
        """``(-S)^{-1}``, the matrix of expected sojourn times."""
        return np.linalg.inv(-self._S)

    def __repr__(self) -> str:
        return (f"PhaseType(order={self.order}, mean={self.mean:.6g}, "
                f"scv={self.scv:.6g})")

    def __eq__(self, other) -> bool:
        """Representation equality (same ``alpha`` and ``S``).

        Two PH objects can describe the same distribution with different
        representations; this compares parameters only.
        """
        if not isinstance(other, PhaseType):
            return NotImplemented
        return (self.order == other.order
                and np.array_equal(self._alpha, other._alpha)
                and np.array_equal(self._S, other._S))

    def __hash__(self):
        h = self.__dict__.get("_cached_hash")
        if h is None:
            h = hash((self.order, self._alpha.tobytes(), self._S.tobytes()))
            self.__dict__["_cached_hash"] = h
        return h

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------

    def moment(self, k: int) -> float:
        """Raw moment ``E[X^k] = k! * alpha (-S)^{-k} e``."""
        if k < 0:
            raise ValueError(f"moment order must be non-negative, got {k}")
        if k == 0:
            return 1.0
        v = self._alpha.copy()
        fact = 1.0
        for i in range(1, k + 1):
            v = v @ self._neg_S_inv
            fact *= i
        return float(fact * v.sum())

    @cached_property
    def mean(self) -> float:
        """Mean ``alpha (-S)^{-1} e``."""
        return self.moment(1)

    @cached_property
    def variance(self) -> float:
        """Variance ``E[X^2] - E[X]^2``."""
        return max(0.0, self.moment(2) - self.mean ** 2)

    @property
    def std(self) -> float:
        """Standard deviation."""
        return float(np.sqrt(self.variance))

    @cached_property
    def scv(self) -> float:
        """Squared coefficient of variation ``Var[X] / E[X]^2``.

        The paper's evaluation sweeps are sensitive to the variability
        of the quantum distribution; SCV is the standard one-number
        summary (1 for exponential, ``1/k`` for Erlang-``k``).
        """
        mu = self.mean
        if mu <= 0:
            return 0.0
        return self.variance / mu ** 2

    @property
    def rate(self) -> float:
        """Reciprocal mean ``1 / E[X]`` (service/arrival rate)."""
        return 1.0 / self.mean

    # ------------------------------------------------------------------
    # Distribution functions
    # ------------------------------------------------------------------

    def pdf(self, x) -> np.ndarray | float:
        """Density ``f(x) = alpha exp(S x) s0`` for ``x > 0``.

        At ``x = 0`` the limiting density ``alpha s0`` is returned; the
        atom at zero (if any) is not represented in the density.
        """
        return self._eval(x, lambda t: self._mix(t, _EXIT),
                          at_zero=float(self._alpha @ self.exit_rates),
                          below=0.0, at_inf=0.0)

    def cdf(self, x) -> np.ndarray | float:
        """CDF ``F(x) = 1 - alpha exp(S x) e`` for ``x >= 0``."""
        return self._eval(x, lambda t: 1.0 - self._mix(t, _MASS),
                          at_zero=self.atom_at_zero, below=0.0, at_inf=1.0)

    def sf(self, x) -> np.ndarray | float:
        """Survival function ``P(X > x) = alpha exp(S x) e``."""
        return self._eval(x, lambda t: self._mix(t, _MASS),
                          at_zero=1.0 - self.atom_at_zero, below=1.0,
                          at_inf=0.0)

    @cached_property
    def _uniformized(self) -> tuple[np.ndarray, float]:
        """Substochastic jump matrix ``P = I + S/theta`` and rate ``theta``."""
        theta = float(np.max(-np.diag(self._S)))
        P = self._S / theta + np.eye(self.order)
        np.clip(P, 0.0, None, out=P)
        return P, theta

    def _power_sums(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """At least ``n`` terms of the power sums ``(c, d)``.

        ``c_k = alpha P^k e`` and ``d_k = alpha P^k s0``.  The sequences
        are grown on demand and kept on the instance as one
        ``(c, d, v)`` tuple, ``v = alpha P^K`` being the vector the next
        term starts from.  An extension is built in local arrays and
        published by a single assignment, so a concurrent reader sees
        either the old or the new prefix, never a partial one.  Term
        ``k`` always comes from the same recursion, whatever was asked
        for before.
        """
        sums = self.__dict__.get("_sums")
        if sums is None:
            sums = (np.empty(0), np.empty(0), self._alpha)
        c, d, v = sums
        have = c.size
        if have >= n:
            return c, d
        P, _ = self._uniformized
        s0 = self.exit_rates
        c = np.concatenate((c, np.empty(n - have)))
        d = np.concatenate((d, np.empty(n - have)))
        for k in range(have, n):
            c[k] = v.sum()
            d[k] = v @ s0
            v = v @ P
        self._sums = (c, d, v)
        return c, d

    def _mix(self, x: float, which: int) -> float:
        """``sum_k Pois(k; theta x) * seq_k`` over the ``1 - 1e-14`` window.

        ``seq`` is ``c`` (``which=_MASS``, giving ``alpha exp(S x) e``)
        or ``d`` (``which=_EXIT``, giving ``alpha exp(S x) s0``).  Zero
        once the sequence has decayed before the window starts; a window
        past scipy's range (``theta x`` beyond ~2e11) starts at infinity.
        """
        _, theta = self._uniformized
        lam = theta * x
        window = poisson_window(lam, 1e-14)
        # d_k <= theta c_k, as every exit rate is at most theta.
        scale = theta if which == _EXIT else 1.0
        if self._decayed_by(math.inf if window is None else window[0], scale):
            return 0.0
        lo, hi = window
        seq = self._power_sums(hi + 1)[which]
        return float((poisson_weights(lam, lo, hi) * seq[lo:hi + 1]).sum())

    def _decayed_by(self, lo: float, scale: float) -> bool:
        """Whether ``scale * c_K <= _NEGLIGIBLE`` for some ``K <= lo``.

        Grows the sequence toward ``lo`` in doubling chunks and stops at
        the first chunk whose last term has decayed, so an infinite
        ``lo`` costs only the terms it takes ``c`` to decay.
        """
        n = 1
        while True:
            c = self._power_sums(n)[_MASS]
            n = c.size
            if scale * c[min(n - 1, lo)] <= _NEGLIGIBLE:
                return True
            if n > lo:
                return False
            n = min(2 * n, lo + 1)

    def _eval(self, x, mix, at_zero: float, below: float, at_inf: float):
        scalar = np.isscalar(x) or np.ndim(x) == 0
        x_arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
        out = np.empty(x_arr.size)
        for i, xi in enumerate(x_arr.ravel()):
            if xi < 0:
                out[i] = below
            elif xi == 0.0:
                out[i] = at_zero
            elif xi == np.inf:
                out[i] = at_inf
            elif np.isnan(xi):
                out[i] = np.nan
            else:
                out[i] = mix(float(xi))
        if scalar:
            return float(out[0])
        return out.reshape(x_arr.shape)

    def laplace_transform(self, s) -> complex | float:
        """Laplace–Stieltjes transform ``E[e^{-sX}] = alpha (sI - S)^{-1} s0 + atom``."""
        m = self.order
        A = s * np.eye(m) - self._S
        val = self._alpha @ np.linalg.solve(A, self.exit_rates)
        return val + self.atom_at_zero

    def quantile(self, q: float, *, tol: float = 1e-10, max_iter: int = 200) -> float:
        """Numerical quantile under the contract of
        :mod:`repro.metrics.quantiles` (left-continuous generalized
        inverse, evaluated by bracketed bisection on the CDF).

        The bisection probes one law many times; after the first probe
        that reaches the bracket's Poisson window, each further probe
        reuses the law's cached power sums and costs O(K) scalar work.
        """
        # Imported lazily: repro.metrics re-exports distribution types
        # built on PhaseType, so a module-level import would cycle.
        from repro.metrics.quantiles import cdf_quantile
        return cdf_quantile(self.cdf, q, mean_hint=self.mean,
                            atom_at_zero=self.atom_at_zero,
                            tol=tol, max_iter=max_iter)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw samples by simulating the absorbing chain.

        Vectorized over the batch: all not-yet-absorbed walkers advance
        one phase transition per loop iteration.  For the small orders
        used in this library (``m`` up to a few dozen) this is fast and
        exact.

        Parameters
        ----------
        rng:
            NumPy random generator.
        size:
            Number of samples; ``None`` returns a scalar.
        """
        n = 1 if size is None else int(size)
        if n < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        m = self.order
        total_rates = -np.diag(self._S)
        # Jump chain: P[i, j] = S[i,j]/(-S[i,i]) for j != i,
        # P[i, m] = s0[i]/(-S[i,i]) is absorption.
        jump = np.zeros((m, m + 1))
        for i in range(m):
            if total_rates[i] > 0:
                jump[i, :m] = self._S[i] / total_rates[i]
                jump[i, i] = 0.0
                jump[i, m] = self.exit_rates[i] / total_rates[i]
            else:  # pragma: no cover - excluded by subgenerator check
                jump[i, m] = 1.0
        jump_cum = np.cumsum(jump, axis=1)

        # Initial phases; m means "absorbed immediately" (atom at zero).
        init = np.append(self._alpha, self.atom_at_zero)
        phases = rng.choice(m + 1, size=n, p=init / init.sum())
        times = np.zeros(n)
        active = phases < m
        while np.any(active):
            idx = np.nonzero(active)[0]
            ph = phases[idx]
            times[idx] += rng.exponential(1.0 / total_rates[ph])
            u = rng.random(len(idx))
            nxt = (u[:, None] < jump_cum[ph]).argmax(axis=1)
            phases[idx] = nxt
            active[idx] = nxt < m
        if size is None:
            return float(times[0])
        return times

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------

    def rescaled(self, new_mean: float) -> "PhaseType":
        """Return a copy scaled to have mean ``new_mean``.

        Scaling a PH random variable by ``c > 0`` divides its
        sub-generator by ``c``.
        """
        if new_mean <= 0:
            raise ValueError(f"new_mean must be positive, got {new_mean}")
        c = new_mean / self.mean
        return PhaseType.from_trusted(self._alpha, self._S / c)

    def embedded_generator(self) -> np.ndarray:
        """Full ``(m+1) x (m+1)`` generator including the absorbing state."""
        m = self.order
        Q = np.zeros((m + 1, m + 1))
        Q[:m, :m] = self._S
        Q[:m, m] = self.exit_rates
        return Q

    def is_irreducible_representation(self) -> bool:
        """Check that every phase is reachable from ``alpha`` and reaches absorption.

        Irreducible representations are required by the stability
        analysis of Theorem 4.4 (via Neuts' condition on the generator
        ``A = A0 + A1 + A2``).  A representation failing this check can
        be repaired with :meth:`trimmed`.
        """
        return len(self._reachable_phases()) == self.order

    def _reachable_phases(self) -> list[int]:
        """Phases reachable from the initial vector (BFS over positive rates)."""
        m = self.order
        seen = [i for i in range(m) if self._alpha[i] > 0]
        frontier = list(seen)
        seen_set = set(seen)
        while frontier:
            i = frontier.pop()
            for j in range(m):
                if j != i and self._S[i, j] > 0 and j not in seen_set:
                    seen_set.add(j)
                    frontier.append(j)
        return sorted(seen_set)

    def trimmed(self) -> "PhaseType":
        """Remove phases unreachable from ``alpha`` (same distribution)."""
        keep = self._reachable_phases()
        if len(keep) == self.order:
            return self
        if not keep:
            raise NotAPhaseTypeError("no reachable phases; alpha is all zero")
        idx = np.asarray(keep)
        return PhaseType.from_trusted(self._alpha[idx], self._S[np.ix_(idx, idx)])
