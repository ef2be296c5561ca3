"""Kronecker products for sparse assembly.

The QBD blocks are sums of two-factor Kronecker products (service
phase x vacation phase).  :func:`kron2` builds them, dispatching to
``scipy.sparse.kron`` when the caller wants CSR output, with the same
scalar shortcuts as the dense fast path.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sp

__all__ = ["kron2"]


def kron2(a, b, *, sparse: bool = False):
    """``kron(a, b)`` with scalar shortcuts and optional CSR output.

    Mirrors the dense fast path in :mod:`repro.pipeline.assembly`: a
    ``1x1`` factor is a plain scaling, so no Kronecker expansion is
    performed at all.  With ``sparse=True`` the expanded product comes
    back as ``csr_array`` built by ``scipy.sparse.kron`` without a
    dense intermediate (either factor may already be sparse).
    """
    if a.shape == (1, 1):
        s = a[0, 0] if not _sp.issparse(a) else a.toarray()[0, 0]
        out = b * s
        if sparse and not _sp.issparse(out):
            return _sp.csr_array(out)
        return out
    if b.shape == (1, 1):
        s = b[0, 0] if not _sp.issparse(b) else b.toarray()[0, 0]
        out = a * s
        if sparse and not _sp.issparse(out):
            return _sp.csr_array(out)
        return out
    if sparse or _sp.issparse(a) or _sp.issparse(b):
        return _sp.csr_array(_sp.kron(_sp.csr_array(a), _sp.csr_array(b),
                                      format="csr"))
    return np.kron(a, b)
