"""Continuous-time Markov chains on finite state spaces, as a test oracle.

No product path builds a whole chain's generator: the solver works on
the QBD blocks of each class.  The dense CTMC here is kept for tests
that check a solver against the chain it stands for, with the
generator check and the stationary solves it needs, and
:func:`truncated_generator` writes a QBD's first levels out as one such
generator.  :func:`solve_stationary_gth` is the one-chain GTH
elimination that :func:`repro.kernels.batched.batched_gth` (the drift
test's GTH) is checked against.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.errors import ReducibleChainError, ValidationError
from repro.kernels import to_dense
from repro.utils.validation import DEFAULT_ATOL, as_float_array

__all__ = ["ContinuousTimeMarkovChain", "NotAGeneratorError",
           "check_generator", "solve_stationary_gth",
           "stationary_from_generator", "truncated_generator"]


class NotAGeneratorError(ValidationError):
    """A matrix claimed to be a CTMC generator is not one.

    A generator (infinitesimal rate) matrix must be square, have
    non-negative off-diagonal entries, and have rows that sum to zero
    (to within tolerance).
    """


def check_generator(Q, *, atol: float | None = None,
                    name: str = "generator") -> np.ndarray:
    """Validate that ``Q`` is a CTMC infinitesimal generator.

    Requirements: square; off-diagonal entries ``>= 0``; each row sums
    to zero within ``atol`` (scaled by the largest rate so that chains
    with fast clocks are not rejected for benign round-off).
    """
    Q = as_float_array(Q, ndim=2, name=name)
    n, m = Q.shape
    if n != m:
        raise NotAGeneratorError(f"{name} must be square, got {Q.shape}")
    scale = max(float(np.max(np.abs(Q))) if Q.size else 1.0, 1.0)
    tol = (DEFAULT_ATOL if atol is None else atol) * scale * max(n, 1)
    off = Q.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < -tol):
        i, j = np.unravel_index(np.argmin(off), off.shape)
        raise NotAGeneratorError(
            f"{name} has negative off-diagonal entry Q[{i},{j}]={Q[i, j]}"
        )
    rows = Q.sum(axis=1)
    if np.any(np.abs(rows) > tol):
        i = int(np.argmax(np.abs(rows)))
        raise NotAGeneratorError(
            f"{name} row {i} sums to {rows[i]:.3e}, expected 0 (tol {tol:.1e})"
        )
    return Q


def solve_stationary_gth(Q: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible CTMC generator via GTH.

    Solves ``pi Q = 0``, ``pi e = 1`` with the Grassmann–Taksar–Heyman
    elimination, which uses only additions and multiplications of
    non-negative quantities: only the off-diagonal rates are read (the
    diagonal is recomputed from row sums), so stiff generators suffer
    no catastrophic cancellation.  Raises
    :class:`~repro.errors.ReducibleChainError` if elimination detects a
    reducible structure.
    """
    Q = np.asarray(Q, dtype=np.float64)
    n = Q.shape[0]
    if n == 0:
        raise ValidationError("cannot solve a 0-state chain")
    if n == 1:
        return np.ones(1)
    A = np.array(Q, dtype=np.float64, copy=True)
    np.fill_diagonal(A, 0.0)

    # Forward elimination: fold state k into states 0..k-1.  The rank-1
    # updates also land on the diagonal, but no step reads a diagonal
    # entry (the scales, the updates and the back substitution all take
    # off-diagonal ones), so it is left as it falls.
    for k in range(n - 1, 0, -1):
        scale = A[k, :k].sum()
        if scale <= 0.0:
            raise ReducibleChainError(
                f"GTH elimination failed at state {k}: no transitions to "
                "remaining states; the chain is reducible"
            )
        A[:k, k] /= scale
        # Rank-1 update: rate i->j gains (rate i->k) * P(k->j | leave k).
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])

    # Back substitution.
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ A[:k, k]
    total = pi.sum()
    if not np.isfinite(total) or total <= 0:
        raise ReducibleChainError("GTH back-substitution produced invalid mass")
    return pi / total


def stationary_from_generator(Q: np.ndarray, *, method: str = "gth") -> np.ndarray:
    """Stationary vector of a CTMC generator.

    ``method`` is ``"gth"`` (GTH elimination, numerically robust) or
    ``"direct"`` (replace one balance equation by the normalization and
    solve the dense linear system).
    """
    Q = np.asarray(Q, dtype=np.float64)
    if method == "gth":
        return solve_stationary_gth(Q)
    if method == "direct":
        n = Q.shape[0]
        A = Q.T.copy()
        A[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        try:
            pi = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
            raise ReducibleChainError(f"direct stationary solve failed: {exc}") from exc
        if np.any(pi < -1e-8):
            raise ReducibleChainError(
                "direct stationary solve produced negative probabilities; "
                "the chain is likely reducible"
            )
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum()
    raise ValidationError(f"unknown stationary method {method!r}")


class ContinuousTimeMarkovChain:
    """A finite CTMC defined by its infinitesimal generator ``Q``.

    Section 2.2 of the paper: validation of the generator,
    irreducibility (strong connectivity of the positive-rate digraph),
    and the stationary distribution from the global balance equations
    ``pi Q = 0``, ``pi e = 1`` (Theorem 2.4).

    Parameters
    ----------
    Q:
        Square generator matrix (validated on construction).
    labels:
        Optional hashable labels for the states, used by
        :meth:`state_index`.
    """

    def __init__(self, Q, labels=None):
        self._Q = check_generator(Q)
        n = self._Q.shape[0]
        if labels is not None:
            labels = list(labels)
            if len(labels) != n:
                raise ValueError(
                    f"{len(labels)} labels supplied for {n} states"
                )
        self._labels = labels

    @property
    def Q(self) -> np.ndarray:
        """The generator matrix (read-only view)."""
        v = self._Q.view()
        v.flags.writeable = False
        return v

    @property
    def num_states(self) -> int:
        return self._Q.shape[0]

    @property
    def labels(self):
        return self._labels

    def state_index(self, label) -> int:
        """Index of the state with the given label."""
        if self._labels is None:
            raise ValueError("chain was constructed without labels")
        return self._labels.index(label)

    def __repr__(self) -> str:
        return f"ContinuousTimeMarkovChain(n={self.num_states})"

    @cached_property
    def max_exit_rate(self) -> float:
        """``q_max = max_i (-Q[i, i])``, the uniformization rate."""
        return float(np.max(-np.diag(self._Q))) if self.num_states else 0.0

    def is_irreducible(self) -> bool:
        """Whether the positive-rate digraph is strongly connected.

        For a finite CTMC, irreducibility implies ergodicity (positive
        recurrence of all states), so this is the full Theorem 2.4
        hypothesis check.
        """
        if self.num_states <= 1:
            return True
        return len(self.communicating_classes()) == 1

    def communicating_classes(self) -> list[list[int]]:
        """Strongly connected components of the transition digraph."""
        adj = sp.csr_matrix((self._Q > 0).astype(np.int8))
        ncomp, labels = connected_components(adj, directed=True, connection="strong")
        out: list[list[int]] = [[] for _ in range(ncomp)]
        for i, c in enumerate(labels):
            out[c].append(i)
        return out

    def stationary_distribution(self, *, method: str = "gth") -> np.ndarray:
        """Solve ``pi Q = 0, pi e = 1`` for the unique stationary vector.

        Raises :class:`~repro.errors.ReducibleChainError` if the chain
        is reducible.
        """
        if not self.is_irreducible():
            raise ReducibleChainError(
                "stationary distribution requested for a reducible chain; "
                "restrict to a recurrent class first"
            )
        return stationary_from_generator(self._Q, method=method)

    def expected_rewards(self, rewards, *, method: str = "gth") -> float:
        """Long-run average of a per-state reward vector."""
        rewards = np.asarray(rewards, dtype=np.float64)
        if rewards.shape != (self.num_states,):
            raise ValueError(
                f"rewards must have shape ({self.num_states},), got {rewards.shape}"
            )
        return float(self.stationary_distribution(method=method) @ rewards)


def truncated_generator(process, levels: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Dense generator of a QBD truncated to its first ``levels`` levels.

    The top level's upward rates are dropped and taken off its diagonal
    too, so the truncation reflects upward transitions back as
    self-loops and every row sums to zero.

    Returns the matrix and a list of ``(level, phase)`` state tags.
    """
    if levels < process.boundary_levels + 2:
        raise ValidationError(
            f"need at least {process.boundary_levels + 2} levels to include "
            "one repeating level"
        )
    dims = process.boundary_dims() + \
        [process.phase_dim] * (levels - process.boundary_levels - 1)
    offsets = np.concatenate([[0], np.cumsum(dims)])
    tags: list[tuple[int, int]] = []
    for lvl, dim in enumerate(dims):
        tags.extend((lvl, ph) for ph in range(dim))
    n = int(offsets[-1])
    Q = np.zeros((n, n))
    for i in range(levels):
        for j in (i - 1, i, i + 1):
            if j < 0 or j >= levels:
                continue
            blk = process.block(i, j)
            if blk is None:
                continue
            Q[offsets[i]:offsets[i] + dims[i],
              offsets[j]:offsets[j] + dims[j]] = to_dense(blk)
    # Repair the top level: remove the (dropped) upward rates from
    # the diagonal so that rows sum to zero.
    top = slice(int(offsets[levels - 1]), int(offsets[levels]))
    row_def = Q[top].sum(axis=1)
    Q[top, top] -= np.diag(row_def)
    return Q, tags
