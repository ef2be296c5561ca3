"""Tests for banded-process re-blocking (batch-arrival machinery)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.qbd import solve_qbd
from repro.qbd.banded import BandedLevelProcess, reblock
from tests.markov.ctmc_oracle import solve_stationary_gth


def batch_mm1(lam=0.3, mu=1.0, pmf=(0.5, 0.3, 0.2)):
    """M^[X]/M/1: batches of size 1..len(pmf) at rate lam, service mu."""
    K = len(pmf)

    def block(i, j):
        if j == i - 1 and i >= 1:
            return np.array([[mu]])
        if i < j <= i + K:
            return np.array([[lam * pmf[j - i - 1]]])
        if j == i:
            rate = lam + (mu if i >= 1 else 0.0)
            return np.array([[-rate]])
        return None

    return BandedLevelProcess(block=block, level_dim=lambda i: 1,
                              max_jump=K, regular_from=1)


def truncated_reference(banded, levels=400):
    """Direct GTH solve of the truncated banded generator."""
    K = banded.max_jump
    Q = np.zeros((levels, levels))
    for i in range(levels):
        for j in range(max(0, i - 1), min(levels - 1, i + K) + 1):
            if i == j:
                continue
            blk = banded.block(i, j)
            if blk is not None:
                Q[i, j] = blk[0, 0]
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return solve_stationary_gth(Q)


class TestReblock:
    def test_structure_valid(self):
        process, index = reblock(batch_mm1())
        # QBDProcess construction validates rows; spot-check shapes.
        assert process.phase_dim == 3          # K * d = 3 * 1
        assert index.regular_dim == 1

    def test_matches_truncated_solution(self):
        banded = batch_mm1()
        process, index = reblock(banded)
        sol = solve_qbd(process)
        pi_ref = truncated_reference(banded)
        for lvl in range(12):
            got = float(index.marginal(sol, lvl).sum())
            assert got == pytest.approx(pi_ref[lvl], abs=1e-9)

    def test_mean_level_matches(self):
        banded = batch_mm1(lam=0.35, mu=1.0, pmf=(0.4, 0.6))
        process, index = reblock(banded)
        sol = solve_qbd(process)
        pi_ref = truncated_reference(banded)
        ref_mean = float(np.arange(pi_ref.size) @ pi_ref)
        assert index.mean_level(sol) == pytest.approx(ref_mean, rel=1e-8)

    def test_single_batch_reduces_to_plain_mm1(self):
        banded = batch_mm1(lam=0.6, mu=1.0, pmf=(1.0,))
        process, index = reblock(banded)
        sol = solve_qbd(process)
        rho = 0.6
        assert index.mean_level(sol) == pytest.approx(rho / (1 - rho),
                                                      rel=1e-8)
        assert float(index.marginal(sol, 0).sum()) == pytest.approx(1 - rho,
                                                                    abs=1e-9)

    def test_batch_queue_worse_than_poisson_at_equal_load(self):
        # Same job rate, batched: more variance -> longer queues.
        m1 = _mean(batch_mm1(lam=0.6, mu=1.0, pmf=(1.0,)))
        m2 = _mean(batch_mm1(lam=0.3, mu=1.0, pmf=(0.0, 1.0)))  # pairs
        assert m2 > m1

    def test_locate_roundtrip(self):
        banded = batch_mm1()
        _, index = reblock(banded)
        seen = set()
        for lvl in range(10):
            J, sl = index.locate(lvl)
            seen.add((J, sl.start, sl.stop))
        assert len(seen) == 10   # distinct coordinates

    def test_negative_level_rejected(self):
        _, index = reblock(batch_mm1())
        with pytest.raises(ValidationError):
            index.locate(-1)

    def test_irregular_dims_rejected(self):
        def block(i, j):
            return batch_mm1().block(i, j)

        banded = BandedLevelProcess(
            block=block, level_dim=lambda i: 1 if i != 3 else 2,
            max_jump=3, regular_from=1)
        with pytest.raises(ValidationError, match="phase dim"):
            reblock(banded)


def _solve(banded):
    process, index = reblock(banded)
    return index, solve_qbd(process)


# Patch: ReblockedIndex.mean_level is an instance method; adapt helper.
def _mean(banded):
    index, sol = _solve(banded)
    return index.mean_level(sol)
