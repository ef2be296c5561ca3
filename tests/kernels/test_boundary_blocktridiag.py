"""Tests for the block-tridiagonal boundary solver."""

import numpy as np
import pytest

from repro.core.generator import build_class_qbd
from repro.errors import ConvergenceError, ValidationError
from repro.kernels import is_sparse, solve_boundary_blocktridiag
from repro.phasetype import erlang, exponential
from repro.pipeline.assembly import build_class_qbd_fast
from repro.qbd.boundary import solve_boundary
from repro.qbd.rmatrix import solve_R
from repro.qbd.structure import QBDProcess
from repro.resilience import faults


def gang_chain(c=8, *, lam=0.3, mu=1.0, backend=None):
    """One gang class chain with ``c`` boundary levels, plus its R."""
    arrival = exponential(lam)
    service = erlang(2, rate=mu)
    quantum = erlang(2, rate=0.7)
    vacation = erlang(2, rate=0.5)
    if backend is None:
        process, _ = build_class_qbd(c, arrival, service, quantum, vacation,
                                     policy="switch")
    else:
        process, _, _ = build_class_qbd_fast(c, arrival, service, quantum,
                                             vacation, policy="switch",
                                             backend=backend)
    R = solve_R(process.A0, process.A1, process.A2)
    return process, R


def tail_of(R):
    """The boundary normalization's ``(I - R)^{-1} e``."""
    return np.linalg.solve(np.eye(R.shape[0]) - R, np.ones(R.shape[0]))


def extended_mm1(lam=0.6, mu=1.0, b=25):
    """M/M/1 with ``b`` boundary levels, all interior blocks identical.

    The long identical stretch exercises the freeze-and-reuse path of
    the forward elimination; the exact solution stays geometric.
    """
    A0 = np.array([[lam]])
    A1 = np.array([[-(lam + mu)]])
    A2 = np.array([[mu]])
    rows = []
    for i in range(b + 1):
        row = [None] * (b + 1)
        if i > 0:
            row[i - 1] = A2
        row[i] = A1 if i > 0 else np.array([[-lam]])
        if i < b:
            row[i + 1] = A0
        rows.append(tuple(row))
    return QBDProcess(boundary=tuple(rows), A0=A0, A1=A1, A2=A2), lam / mu


class TestAgainstDenseReference:
    @pytest.mark.parametrize("c", [2, 5, 10])
    def test_gang_chain_parity(self, c):
        process, R = gang_chain(c)
        dense, tail = solve_boundary(process, R, backend="dense")
        assert tail.tobytes() == tail_of(R).tobytes()
        block = solve_boundary_blocktridiag(process, R, tail=tail)
        assert len(block) == len(dense)
        for pb, pd in zip(block, dense):
            assert np.allclose(pb, pd, atol=1e-10)

    def test_csr_blocks(self):
        process, R = gang_chain(30, backend="sparse")
        assert any(is_sparse(blk) for row in process.boundary for blk in row
                   if blk is not None)
        dense, tail = solve_boundary(process, R, backend="dense")
        block = solve_boundary_blocktridiag(process, R, tail=tail,
                                            backend="sparse")
        for pb, pd in zip(block, dense):
            assert np.allclose(pb, pd, atol=1e-10)

    def test_frozen_stretch_geometric(self):
        process, rho = extended_mm1(b=25)
        R = solve_R(process.A0, process.A1, process.A2)
        pi = solve_boundary_blocktridiag(process, R, tail=tail_of(R))
        for i in range(10):
            assert float(pi[i].sum()) == pytest.approx(
                (1 - rho) * rho ** i, abs=1e-12)
        dense, _ = solve_boundary(process, R, backend="dense")
        for pb, pd in zip(pi, dense):
            assert np.allclose(pb, pd, atol=1e-12)


class TestValidationAndFallback:
    def test_bad_R_shape_rejected(self):
        process, R = gang_chain(2)
        with pytest.raises(ValidationError):
            solve_boundary_blocktridiag(process, np.eye(R.shape[0] + 1),
                                        tail=tail_of(R))

    def test_injected_fault_raises(self):
        process, R = gang_chain(2)
        with faults.inject("kernels.sparse", raises=ConvergenceError,
                           keys=("boundary",)):
            with pytest.raises(ConvergenceError):
                solve_boundary_blocktridiag(process, R, tail=tail_of(R))

    def test_solve_boundary_falls_back_to_dense(self):
        """A failing block solver must never fail the boundary solve."""
        process, R = gang_chain(12)
        expect, _ = solve_boundary(process, R, backend="dense")
        with faults.inject("kernels.sparse", raises=ConvergenceError,
                           keys=("boundary",)) as spec:
            got, _ = solve_boundary(process, R, backend="sparse")
            assert spec.fired >= 1
        for pg, pe in zip(got, expect):
            assert np.allclose(pg, pe, atol=1e-10)

    def test_unstable_R_rejected(self):
        """``sp(R) >= 1`` gives a negative tail, refused before the block
        elimination runs."""
        process, R = gang_chain(12)   # big enough for the block path
        with faults.inject("kernels.sparse", raises=ConvergenceError,
                           keys=("boundary",)) as spec:
            with pytest.raises(ValidationError):
                solve_boundary(process, np.eye(R.shape[0]) * 1.5,
                               backend="sparse")
            assert spec.fired == 0


class TestNormalization:
    def test_mass_with_tail_is_one(self):
        process, R = gang_chain(6)
        tail = tail_of(R)
        pi = solve_boundary_blocktridiag(process, R, tail=tail)
        b = process.boundary_levels
        mass = sum(float(v.sum()) for v in pi[:b]) + float(pi[b] @ tail)
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert all(float(v.min()) >= 0.0 for v in pi)
