"""Closure operations on phase-type distributions.

The PH class is closed under convolution, finite mixture, minimum and
maximum.  Convolution (Theorem 2.5 of the paper) is the operation the
gang-scheduling analysis leans on: the vacation period ``Z_p`` seen by
class ``p`` is the convolution of every other class's quantum and all
the context-switch overheads.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ValidationError
from repro.phasetype.distribution import PhaseType

__all__ = ["convolve", "convolve_many", "mixture", "scale", "minimum", "maximum"]


def kron_sum(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker sum ``A ⊕ B = A ⊗ I + I ⊗ B``.

    The generator of two independent Markov processes running in
    parallel; :func:`minimum` and :func:`maximum` build their joint
    block from it.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    return np.kron(A, np.eye(B.shape[0])) + np.kron(np.eye(A.shape[0]), B)


def convolve(f: PhaseType, g: PhaseType) -> PhaseType:
    """Convolution ``F * G``: the distribution of ``X + Y`` (independent).

    Implements Theorem 2.5 of the paper: for ``F = PH(vF, SF)`` of order
    ``nF`` and ``G = PH(vG, SG)`` of order ``nG``, the convolution is the
    order ``nF + nG`` PH with initial vector ``[vF, (1 - vF e) vG]`` and
    sub-generator::

        [ SF   sF0 vG ]
        [ 0       SG  ]

    where ``sF0 = -SF e``.  (The paper states the zero-atom-free case
    ``[vF, 0]``; the ``(1 - vF e) vG`` term carries F's atom at zero.)
    """
    nf, ng = f.order, g.order
    S = np.zeros((nf + ng, nf + ng))
    S[:nf, :nf] = f.S
    S[:nf, nf:] = np.outer(f.exit_rates, g.alpha)
    S[nf:, nf:] = g.S
    alpha = np.concatenate([f.alpha, f.atom_at_zero * g.alpha])
    # Valid by construction from validated operands (Theorem 2.5).
    return PhaseType.from_trusted(alpha, S)


def convolve_many(parts: Sequence[PhaseType]) -> PhaseType:
    """Convolution of a sequence of PH distributions (left to right).

    Used to assemble the heavy-traffic vacation distribution
    ``C_p * G_{p+1} * C_{p+1} * ... * G_{p-1} * C_{p-1}``
    of Theorem 4.1 in one call.

    The chain is built in one preallocated buffer instead of pairwise
    :func:`convolve` calls.  Each step replays the pairwise arithmetic
    exactly — the intermediate's exit rates and zero-atom are the same
    row/prefix sums over slices holding the already-written values — so
    the result is bit-identical to the folded form while skipping every
    intermediate ``PhaseType`` (this chain runs once per class per
    fixed-point iteration; see ``repro.core.vacation``).
    """
    parts = list(parts)
    if not parts:
        raise ValidationError("convolve_many requires at least one distribution")
    if len(parts) == 1:
        return parts[0]
    orders = [p.order for p in parts]
    total = sum(orders)
    S = np.zeros((total, total))
    alpha = np.empty(total)
    pos = orders[0]
    S[:pos, :pos] = parts[0].S
    alpha[:pos] = parts[0].alpha
    for p in parts[1:]:
        n = p.order
        a = np.asarray(p.alpha)
        exit_prev = np.clip(-S[:pos, :pos].sum(axis=1), 0.0, None)
        atom_prev = max(0.0, 1.0 - float(alpha[:pos].sum()))
        S[:pos, pos:pos + n] = np.outer(exit_prev, a)
        S[pos:pos + n, pos:pos + n] = p.S
        alpha[pos:pos + n] = atom_prev * a
        pos += n
    return PhaseType.from_trusted(alpha, S)


def mixture(weights: Sequence[float], parts: Sequence[PhaseType]) -> PhaseType:
    """Finite mixture ``sum_i w_i F_i`` as a PH distribution.

    The representation is block-diagonal: each component keeps its own
    phases, and the initial vector distributes mass ``w_i alpha_i``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    parts = list(parts)
    if weights.ndim != 1 or len(parts) != weights.size or not parts:
        raise ValidationError("weights and parts must be non-empty, equal length")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValidationError("weights must form a probability vector")
    orders = [p.order for p in parts]
    total = sum(orders)
    S = np.zeros((total, total))
    alpha = np.zeros(total)
    pos = 0
    for w, p in zip(weights, parts):
        S[pos:pos + p.order, pos:pos + p.order] = p.S
        alpha[pos:pos + p.order] = w * p.alpha
        pos += p.order
    return PhaseType.from_trusted(alpha, S)


def scale(f: PhaseType, c: float) -> PhaseType:
    """Distribution of ``c X`` for ``c > 0``: divide the sub-generator by ``c``."""
    if c <= 0:
        raise ValidationError(f"scale factor must be positive, got {c}")
    return PhaseType.from_trusted(f.alpha, f.S / c)


def minimum(f: PhaseType, g: PhaseType) -> PhaseType:
    """Distribution of ``min(X, Y)`` for independent PH ``X``, ``Y``.

    Both chains run in parallel (Kronecker sum); absorption of either
    absorbs the pair.  Order is ``nF * nG``.
    """
    alpha = np.kron(f.alpha, g.alpha)
    S = kron_sum(f.S, g.S)
    # Atoms at zero in either operand put mass at zero for the minimum;
    # the deficit of alpha already accounts for this:
    # sum(kron(aF, aG)) = (aF e)(aG e).
    return PhaseType.from_trusted(alpha, S)


def maximum(f: PhaseType, g: PhaseType) -> PhaseType:
    """Distribution of ``max(X, Y)`` for independent PH ``X``, ``Y``.

    Runs both chains in parallel, then lets the survivor finish alone.
    Order is ``nF * nG + nF + nG``.
    """
    nf, ng = f.order, g.order
    n_joint = nf * ng
    total = n_joint + nf + ng
    S = np.zeros((total, total))
    # Joint block: both alive.
    S[:n_joint, :n_joint] = kron_sum(f.S, g.S)
    # G absorbs first -> F continues alone: block[(i,j), i'] = d(i,i') g_exit[j].
    S[:n_joint, n_joint:n_joint + nf] = np.kron(np.eye(nf), g.exit_rates.reshape(ng, 1))
    # F absorbs first -> G continues alone: block[(i,j), j'] = d(j,j') f_exit[i].
    S[:n_joint, n_joint + nf:] = np.kron(f.exit_rates.reshape(nf, 1), np.eye(ng))
    S[n_joint:n_joint + nf, n_joint:n_joint + nf] = f.S
    S[n_joint + nf:, n_joint + nf:] = g.S
    alpha = np.zeros(total)
    alpha[:n_joint] = np.kron(f.alpha, g.alpha)
    # If one operand starts absorbed (atom at zero), the max is just the other.
    alpha[n_joint:n_joint + nf] = g.atom_at_zero * f.alpha
    alpha[n_joint + nf:] = f.atom_at_zero * g.alpha
    return PhaseType.from_trusted(alpha, S)
