"""QBD process description and structural validation.

The process mirrors eq. (20) of the paper.  Levels ``0..b`` form the
(possibly level-dependent) *boundary*; levels ``b, b+1, b+2, ...`` are
the *repeating portion* with blocks ``(A0, A1, A2)``.  The last
boundary level ``b`` must have the same phase dimension as the
repeating levels: transitions ``b -> b+1`` use ``A0`` and
``b+1 -> b`` use ``A2``.

In the gang-scheduling model, ``b = c_p = P / g(p)`` (the number of
partitions available to class ``p``) and the boundary levels have
growing phase spaces as jobs fill the partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import ValidationError
from repro.utils.validation import as_float_array

__all__ = ["QBDProcess"]


@dataclass(frozen=True)
class QBDProcess:
    """A continuous-time QBD with a level-dependent boundary.

    Parameters
    ----------
    boundary:
        ``boundary[i][j]`` is the transition block from boundary level
        ``i`` to boundary level ``j`` for ``|i - j| <= 1``; entries for
        non-adjacent pairs must be ``None``.  ``boundary[i][i]``
        contains the level's diagonal (including the negative exit
        rates).  The list length is ``b + 1``.
    A0, A1, A2:
        Repeating blocks: up / local / down.  ``A1`` carries the
        diagonal.  All are ``d x d`` with ``d`` equal to the phase
        dimension of boundary level ``b``.

    The boundary generator :attr:`G` holds every boundary block in one
    dense array.

    Notes
    -----
    Validation checks block shapes, sign patterns, and that every row
    of the (conceptually infinite) generator sums to zero:

    * boundary level ``i < b``: rows of ``[B[i][i-1] B[i][i] B[i][i+1]]``;
    * boundary level ``b``: rows of ``[B[b][b-1] B[b][b] A0]``;
    * repeating levels: rows of ``[A2 A1 A0]``.
    """

    boundary: tuple[tuple[np.ndarray | None, ...], ...]
    A0: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    #: Optional labels, one list per boundary level plus one for the
    #: repeating phase space, for debugging / diagram export.
    level_labels: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        A0 = as_float_array(self.A0, ndim=2, name="A0")
        A1 = as_float_array(self.A1, ndim=2, name="A1")
        A2 = as_float_array(self.A2, ndim=2, name="A2")
        d = A1.shape[0]
        for name, M in (("A0", A0), ("A1", A1), ("A2", A2)):
            if M.shape != (d, d):
                raise ValidationError(
                    f"{name} must be {d}x{d} to match A1, got {M.shape}"
                )
        if np.any(A0 < 0) or np.any(A2 < 0):
            raise ValidationError("A0 and A2 must be non-negative rate blocks")
        off = A1.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0):
            raise ValidationError("A1 must have non-negative off-diagonal entries")

        boundary = tuple(tuple(row) for row in self.boundary)
        b = len(boundary) - 1
        if b < 0:
            raise ValidationError("boundary must contain at least one level")
        dims = []
        for i, row in enumerate(boundary):
            if len(row) != b + 1:
                raise ValidationError(
                    f"boundary row {i} has {len(row)} entries, expected {b + 1}"
                )
            if row[i] is None:
                raise ValidationError(f"boundary diagonal block [{i}][{i}] missing")
            dims.append(as_float_array(row[i], ndim=2, name=f"B[{i}][{i}]").shape[0])
        if dims[b] != d:
            raise ValidationError(
                f"last boundary level has phase dim {dims[b]}, repeating blocks have {d}"
            )
        # Shape and adjacency checks.
        coerced: list[list[np.ndarray | None]] = []
        for i in range(b + 1):
            crow: list[np.ndarray | None] = []
            for j in range(b + 1):
                blk = boundary[i][j]
                if abs(i - j) > 1:
                    if blk is not None:
                        raise ValidationError(
                            f"non-adjacent boundary block [{i}][{j}] must be None"
                        )
                    crow.append(None)
                    continue
                if blk is None:
                    crow.append(None)
                    continue
                blk = as_float_array(blk, ndim=2, name=f"B[{i}][{j}]")
                if blk.shape != (dims[i], dims[j]):
                    raise ValidationError(
                        f"B[{i}][{j}] must be {dims[i]}x{dims[j]}, got {blk.shape}"
                    )
                if i != j and np.any(blk < 0):
                    raise ValidationError(
                        f"off-diagonal boundary block [{i}][{j}] must be non-negative"
                    )
                crow.append(blk)
            coerced.append(crow)

        # Row-sum (generator) checks.
        scale = max(1.0, float(np.max(np.abs(A1))))
        tol = 1e-8 * scale * max(d, 1)

        def _rowsum(parts):
            return sum(p.sum(axis=1) for p in parts if p is not None)

        for i in range(b + 1):
            parts = [coerced[i][j] for j in range(max(0, i - 1), min(b, i + 1) + 1)]
            if i == b:
                parts.append(A0)
            rows = _rowsum(parts)
            if np.any(np.abs(rows) > tol):
                k = int(np.argmax(np.abs(rows)))
                raise ValidationError(
                    f"boundary level {i} row {k} sums to {rows[k]:.3e}, expected 0"
                )
        rows = A0.sum(axis=1) + A1.sum(axis=1) + A2.sum(axis=1)
        if np.any(np.abs(rows) > tol):
            k = int(np.argmax(np.abs(rows)))
            raise ValidationError(
                f"repeating level row {k} sums to {rows[k]:.3e}, expected 0"
            )

        object.__setattr__(self, "boundary", tuple(tuple(r) for r in coerced))
        object.__setattr__(self, "A0", A0)
        object.__setattr__(self, "A1", A1)
        object.__setattr__(self, "A2", A2)

    # ------------------------------------------------------------------

    @classmethod
    def from_trusted_blocks(cls, boundary, A0, A1, A2,
                            level_labels=None, G=None) -> "QBDProcess":
        """Construct without re-validating the generator structure.

        For builders that derive diagonals as negative row sums — the
        generator property then holds *by construction* and the row-sum
        re-check in ``__post_init__`` is pure overhead (it dominated
        the per-iteration assembly cost of the fixed point's small
        chains).  Blocks must already be float64 ``ndarray``s of
        consistent shapes; anything user-supplied should go through the
        validating constructor instead.  A builder that wrote the
        boundary into one array passes it as ``G``; the boundary
        blocks must then be views of it.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "boundary",
                           tuple(tuple(row) for row in boundary))
        object.__setattr__(self, "A0", A0)
        object.__setattr__(self, "A1", A1)
        object.__setattr__(self, "A2", A2)
        object.__setattr__(self, "level_labels", level_labels)
        if G is not None:
            self.__dict__["G"] = G
        return self

    @cached_property
    def G(self) -> np.ndarray:
        """The boundary generator: levels ``0..b`` as one dense array.

        Level ``i``'s rows and columns start at the running sum of
        :meth:`boundary_dims`, and block ``[i][j]`` sits at level
        ``i``'s rows and level ``j``'s columns; every other entry is
        zero.  The Kronecker assembler writes it directly (the boundary
        blocks are its views); a process built block by block assembles
        it from the blocks on first read, once.  Read-only.
        """
        from repro.kernels import to_dense

        dims = self.boundary_dims()
        offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
        G = np.zeros((offsets[-1], offsets[-1]))
        b = self.boundary_levels
        for i in range(b + 1):
            for j in range(max(0, i - 1), min(b, i + 1) + 1):
                blk = self.boundary[i][j]
                if blk is not None:
                    G[offsets[i]:offsets[i + 1],
                      offsets[j]:offsets[j + 1]] += to_dense(blk)
        G.flags.writeable = False
        return G

    @property
    def boundary_levels(self) -> int:
        """Index ``b`` of the last boundary level."""
        return len(self.boundary) - 1

    @property
    def phase_dim(self) -> int:
        """Phase dimension of the repeating levels."""
        return self.A1.shape[0]

    def boundary_dims(self) -> list[int]:
        """Phase dimension of each boundary level ``0..b``."""
        return [row[i].shape[0] for i, row in enumerate(self.boundary)]

    def block(self, i: int, j: int) -> np.ndarray | None:
        """Transition block from level ``i`` to level ``j`` (any levels).

        Returns ``None`` for non-adjacent levels.  Levels beyond the
        boundary use the repeating blocks.
        """
        b = self.boundary_levels
        if abs(i - j) > 1 or i < 0 or j < 0:
            return None
        if i <= b and j <= b:
            return self.boundary[i][j]
        if j == i + 1:
            return self.A0
        if j == i - 1:
            return self.A2
        return self.A1
