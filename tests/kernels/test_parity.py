"""Property-based dense <-> sparse parity.

The sparse backend must be an *optimization*, never a model change:
for any well-formed class chain, assembly under ``backend="sparse"``
produces the same blocks, and the sparse solve path lands on the same
stationary distribution to 1e-10.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generator import build_class_qbd
from repro.kernels import solve_boundary_blocktridiag, to_dense
from repro.phasetype import erlang, exponential, hyperexponential
from repro.pipeline.assembly import build_class_qbd_fast
from repro.qbd.boundary import solve_boundary
from repro.qbd.stability import drift
from repro.qbd.rmatrix import solve_R
from repro.qbd.stationary import solve_qbd

rates = st.floats(0.1, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def small_ph(draw, *, max_order: int = 2):
    kind = draw(st.sampled_from(["exp", "erlang", "hyper"]))
    if kind == "exp" or max_order == 1:
        return exponential(draw(rates))
    if kind == "erlang":
        return erlang(draw(st.integers(1, max_order)), rate=draw(rates))
    w = draw(st.floats(0.1, 0.9))
    return hyperexponential([w, 1 - w], [draw(rates), draw(rates)])


@st.composite
def class_chains(draw):
    c = draw(st.integers(1, 4))
    arrival = draw(small_ph())
    service = draw(small_ph())
    quantum = draw(small_ph())
    vacation = draw(small_ph())
    policy = draw(st.sampled_from(["switch", "idle"]))
    return c, arrival, service, quantum, vacation, policy


def build_both(chain):
    c, arrival, service, quantum, vacation, policy = chain
    dense, space = build_class_qbd(c, arrival, service, quantum, vacation,
                                   policy=policy)
    sparse, _, _ = build_class_qbd_fast(c, arrival, service, quantum,
                                        vacation, policy=policy,
                                        backend="sparse")
    return dense, sparse, space


@given(chain=class_chains())
@settings(max_examples=30, deadline=None)
def test_assembly_blocks_identical(chain):
    """Sparse-backend assembly yields the exact same generator blocks."""
    dense, sparse, _ = build_both(chain)
    assert np.array_equal(np.asarray(dense.A0), to_dense(sparse.A0))
    assert np.array_equal(np.asarray(dense.A1), to_dense(sparse.A1))
    assert np.array_equal(np.asarray(dense.A2), to_dense(sparse.A2))
    for row_d, row_s in zip(dense.boundary, sparse.boundary):
        for blk_d, blk_s in zip(row_d, row_s):
            if blk_d is None:
                assert blk_s is None
            else:
                assert np.allclose(np.asarray(blk_d), to_dense(blk_s),
                                   atol=0.0)


@given(chain=class_chains())
@settings(max_examples=25, deadline=None)
def test_boundary_solver_parity(chain):
    """Block-tridiagonal elimination == dense reference to 1e-10."""
    c, arrival, service, quantum, vacation, policy = chain
    process, _ = build_class_qbd(c, arrival, service, quantum, vacation,
                                 policy=policy)
    report = drift(process.A0, process.A1, process.A2)
    if not report.stable:
        return
    R = solve_R(process.A0, process.A1, process.A2)
    dense_pi, tail = solve_boundary(process, R, backend="dense")
    block_pi = solve_boundary_blocktridiag(process, R, tail=tail)
    for pb, pd in zip(block_pi, dense_pi):
        assert np.allclose(pb, pd, atol=1e-10)


@given(chain=class_chains())
@settings(max_examples=15, deadline=None)
def test_end_to_end_stationary_parity(chain):
    """solve_qbd under both backends: same stationary vectors to 1e-10."""
    dense_proc, sparse_proc, _ = build_both(chain)
    report = drift(dense_proc.A0, dense_proc.A1, dense_proc.A2)
    if not report.stable:
        return
    sol_d = solve_qbd(dense_proc, backend="dense")
    sol_s = solve_qbd(sparse_proc, backend="sparse")
    assert np.allclose(sol_s.R, sol_d.R, atol=1e-10)
    for pd, ps in zip(sol_d.boundary_pi, sol_s.boundary_pi):
        assert np.allclose(ps, pd, atol=1e-10)
    assert sol_s.mean_level == pytest.approx(sol_d.mean_level,
                                             rel=1e-8, abs=1e-10)
