"""Dense / sparse backend selection.

Every sparse kernel in the repo has a dense reference implementation
(small, cache-friendly, zero bookkeeping); the sparse counterpart wins
once the operand grows past a few hundred states.  The crossover is not subtle:
the per-class boundary system of the gang chains grows linearly with
the machine size ``P`` while its *density* falls like ``1/n`` (three
small blocks per block-row), so dense costs cross from "free" to
"dominant" somewhere around a couple hundred states and never come
back.

:func:`select_backend` centralizes that decision as a size × density
rule so every kernel (boundary solve, PH moments, Kronecker assembly)
picks the same way; the ``R`` solve asks it only whether a warm seed's
``d^2 x d^2`` Newton operator is small enough to build densely
(:func:`repro.qbd.rmatrix.warm_seed`).  Callers thread a user-facing
``backend`` mode through (``"auto"``, ``"dense"``, ``"sparse"``):

* ``"dense"`` — always the reference kernels (bit-compatible with the
  pre-kernels code paths);
* ``"sparse"`` — the sparse kernels wherever a sparse variant exists
  *and* the operand is big enough for CSR overhead to be harmless
  (tiny operands stay dense even here; forcing CSR on a 6x6 block
  would only slow the solve without changing a single result);
* ``"auto"`` — the size × density thresholds below decide.  These
  module constants are the whole policy; nothing is tuned at run time.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.obs import metrics

__all__ = [
    "BACKENDS",
    "DENSE",
    "SPARSE",
    "AUTO",
    "SPARSE_SIZE_THRESHOLD",
    "SPARSE_MIN_SIZE",
    "SPARSE_DENSITY_THRESHOLD",
    "resolve_backend",
    "select_backend",
]

#: Recognized backend modes, in CLI/display order.
BACKENDS = ("auto", "dense", "sparse")
AUTO, DENSE, SPARSE = BACKENDS

#: ``auto`` switches to sparse kernels at this operand size (the
#: matrix dimension ``n`` of the solve / matvec in question).  Below
#: it, dense BLAS beats any sparse format on these chains.
SPARSE_SIZE_THRESHOLD = 256

#: Even under ``backend="sparse"``, operands smaller than this stay on
#: the dense kernels: CSR indices would outweigh the data.
SPARSE_MIN_SIZE = 48

#: ``auto`` only goes sparse when the operand's fill fraction is below
#: this; a half-full matrix gains nothing from compressed storage.
SPARSE_DENSITY_THRESHOLD = 0.25


def resolve_backend(backend: str | None) -> str:
    """Validate and normalize a backend mode (``None`` means ``auto``)."""
    if backend is None:
        return AUTO
    if backend not in BACKENDS:
        raise ValidationError(
            f"unknown backend {backend!r}; use one of {BACKENDS}")
    return backend


def select_backend(backend: str | None, size: int,
                   density: float | None = None, *,
                   site: str | None = None) -> str:
    """Decide ``"dense"`` or ``"sparse"`` for one operand.

    Parameters
    ----------
    backend:
        User-facing mode (``auto`` / ``dense`` / ``sparse``; ``None``
        is ``auto``).
    size:
        Linear dimension of the operand (states in the system being
        solved, order of the PH distribution, block dimension...).
    density:
        Fill fraction ``nnz / size^2`` when the caller knows it;
        ``None`` skips the density test (structural sparsity is
        guaranteed by construction for the QBD systems, whose density
        decays like ``1/levels``).
    site:
        Optional instrumentation label; decisions made with a site are
        counted as ``backend.selected{choice, site}`` in the metrics
        registry (purely-advisory probes pass no site and stay
        uncounted).

    Returns
    -------
    str
        ``"dense"`` or ``"sparse"`` — never ``"auto"``.
    """
    mode = resolve_backend(backend)
    if mode == DENSE or size < SPARSE_MIN_SIZE:
        choice = DENSE
    elif mode == SPARSE:
        choice = SPARSE
    elif size < SPARSE_SIZE_THRESHOLD:
        choice = DENSE
    elif density is not None and density > SPARSE_DENSITY_THRESHOLD:
        choice = DENSE
    else:
        choice = SPARSE
    if site is not None:
        metrics.inc("backend.selected", choice=choice, site=site)
    return choice
