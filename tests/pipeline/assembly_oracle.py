"""Level-by-level dense assembly: the bit-identity oracle.

It builds what :func:`repro.pipeline.assembly.build_class_qbd_fast`
builds for a dense boundary, one block at a time: each level's local
block is its own Kronecker product plus the static addends, and each
diagonal is set by ``_with_diagonal`` on that block alone (local, then
down, then up; ``A1``: local, then ``A0``, then ``A2``).
``tests/pipeline/test_assembly.py`` asserts that the production
assembler returns exactly its bits; nothing in ``src/`` imports it.
The vacation-independent factors come from
:class:`repro.pipeline.assembly.AssemblyWorkspace`.
"""

from __future__ import annotations

import numpy as np

from repro.core.generator import _with_diagonal, class_state_space
from repro.pipeline.assembly import AssemblyWorkspace
from repro.qbd.structure import QBDProcess

__all__ = ["build_class_qbd_levels"]


def _off_diag(M) -> np.ndarray:
    out = np.array(M, dtype=np.float64, copy=True)
    np.fill_diagonal(out, 0.0)
    return out


def _kron(a, b):
    """``repro.kernels.kron2`` on dense operands: a 1x1 factor scales."""
    if a.shape == (1, 1):
        return b * a[0, 0]
    if b.shape == (1, 1):
        return a * b[0, 0]
    return np.kron(a, b)


def build_class_qbd_levels(partitions, arrival, service, quantum, vacation,
                           *, policy: str = "switch") -> QBDProcess:
    """One class's dense QBD, assembled level by level."""
    ws = AssemblyWorkspace(partitions, arrival, service, policy)
    space = class_state_space(partitions, arrival, service, quantum,
                              vacation, policy)
    c = space.boundary_levels
    mA = space.m_arrival
    M = space.m_quantum
    N = space.m_vacation
    nk = M + N
    switch = space.policy == "switch"

    SG_off = _off_diag(np.asarray(quantum.S))
    sG0 = np.asarray(quantum.exit_rates, dtype=np.float64)
    bG = np.asarray(quantum.alpha, dtype=np.float64)
    V_off = _off_diag(np.asarray(vacation.S))
    zeta = np.asarray(vacation.alpha, dtype=np.float64)
    v0 = np.asarray(vacation.exit_rates, dtype=np.float64)

    Kfull = np.zeros((nk, nk))
    Kfull[:M, :M] = SG_off
    Kfull[:M, M:] += np.outer(sG0, zeta)
    Kfull[M:, M:] += V_off
    Kfull[M:, :M] += np.outer(v0, bG)
    Eq = np.zeros((nk, nk))
    Eq[:M, :M] = np.eye(M)
    if switch:
        K0 = V_off + np.outer(v0, zeta)
        np.fill_diagonal(K0, 0.0)
        E0up = np.zeros((N, nk))
        E0up[:, M:] = np.eye(N)
        Tq0 = np.zeros((nk, N))
        Tq0[:M, :] = zeta[None, :]

    I_mA = np.eye(mA)
    I_nk = np.eye(nk)

    ups = []
    for i in range(c + 1):
        Vup = ws.Uent[i] if i < c else np.eye(ws.nv[i])
        Kup = E0up if (i == 0 and switch) else I_nk
        ups.append(_kron(ws.Aup, _kron(Vup, Kup)))
    downs: list[np.ndarray | None] = [None]
    for i in range(1, c + 2):
        Dv = ws.Dref if i > c else ws.Dplain[i]
        Kdn = Tq0 if (i == 1 and switch) else Eq
        downs.append(_kron(I_mA, _kron(Dv, Kdn)))
    sa_jumps = bool(ws.SA_off.any())
    locals_ = []
    for i in range(c + 2):
        nki = N if (i == 0 and switch) else nk
        Ki = K0 if (i == 0 and switch) else Kfull
        L = _kron(I_mA, _kron(np.eye(ws.nv[i]), Ki))
        if not (i == 0 and switch) and min(i, c) > 0 \
                and bool(ws.Sjump[i].any()):
            L = L + _kron(I_mA, _kron(ws.Sjump[i], Eq))
        if sa_jumps:
            L = L + _kron(ws.SA_off, np.eye(ws.nv[i] * nki))
        locals_.append(L)

    A0 = ups[c]
    A2 = downs[c + 1]
    A1 = _with_diagonal(locals_[c + 1], [A0, A2])
    boundary: list[list[np.ndarray | None]] = [
        [None] * (c + 1) for _ in range(c + 1)
    ]
    for i in range(c + 1):
        out_blocks = []
        if i > 0:
            boundary[i][i - 1] = downs[i]
            out_blocks.append(downs[i])
        out_blocks.append(ups[i])
        if i < c:
            boundary[i][i + 1] = ups[i]
        boundary[i][i] = _with_diagonal(locals_[i], out_blocks)
    return QBDProcess.from_trusted_blocks(boundary, A0, A1, A2)
