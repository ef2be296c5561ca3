"""Dense / sparse computational kernels behind the analytic pipeline.

The package splits into:

* :mod:`repro.kernels.backend` — the ``auto`` / ``dense`` / ``sparse``
  mode and the size x density selector every kernel consults;
* :mod:`repro.kernels.sparse` — representation-agnostic block helpers
  (dense ``ndarray`` or CSR) plus LU factorization and PH moments;
* :mod:`repro.kernels.kron` — sparse Kronecker assembly and the
  matrix-free Kronecker-sum / generalized-Sylvester operators;
* :mod:`repro.kernels.boundary` — the block-tridiagonal boundary
  solver replacing the dense all-levels least-squares path;
* :mod:`repro.kernels.batched` — ``(n, m, m)`` stacked twins of the
  R/G solvers, driving many sweep points through one batched-BLAS
  iteration with per-point dropout.

Every kernel here has a dense reference twin elsewhere in the repo;
``backend="dense"`` routes around this package entirely and the
sparse paths fall back to the references on numerical failure.
"""

from repro.kernels.backend import (
    AUTO,
    BACKENDS,
    DENSE,
    SPARSE,
    SPARSE_DENSITY_THRESHOLD,
    SPARSE_MIN_SIZE,
    SPARSE_SIZE_THRESHOLD,
    resolve_backend,
    select_backend,
)
from repro.kernels.batched import (
    batched_drift,
    batched_gth,
    batched_r_from_g,
    batched_refine_R,
    batched_solve_G,
    batched_solve_R,
    stack_blocks,
)
from repro.kernels.boundary import solve_boundary_blocktridiag
from repro.kernels.kron import KronSumOperator, kron2, solve_sylvester
from repro.kernels.sparse import (
    Factorization,
    density,
    diagonal,
    factorize,
    is_sparse,
    ph_moments,
    row_sums,
    sub_dense,
    to_csr,
    to_dense,
)

__all__ = [
    "AUTO",
    "BACKENDS",
    "DENSE",
    "SPARSE",
    "SPARSE_DENSITY_THRESHOLD",
    "SPARSE_MIN_SIZE",
    "SPARSE_SIZE_THRESHOLD",
    "resolve_backend",
    "select_backend",
    "stack_blocks",
    "batched_gth",
    "batched_drift",
    "batched_solve_G",
    "batched_r_from_g",
    "batched_refine_R",
    "batched_solve_R",
    "solve_boundary_blocktridiag",
    "KronSumOperator",
    "kron2",
    "solve_sylvester",
    "Factorization",
    "density",
    "diagonal",
    "factorize",
    "is_sparse",
    "ph_moments",
    "row_sums",
    "sub_dense",
    "to_csr",
    "to_dense",
]
