"""Tests for the representation-agnostic block helpers and factorizations."""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.kernels import (
    Factorization,
    band_csc,
    density,
    factorize,
    is_sparse,
    ph_moments,
    row_sums,
    to_dense,
)
from repro.phasetype import erlang, hyperexponential
from tests.kernels.sparse_helpers import diagonal, sub_dense, to_csr


def random_block(n, seed=0, fill=0.3):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    M[rng.random((n, n)) > fill] = 0.0
    return M


class TestRepresentationHelpers:
    def test_roundtrip(self):
        M = random_block(12)
        assert np.array_equal(to_dense(to_csr(M)), M)
        assert is_sparse(to_csr(M))
        assert not is_sparse(to_dense(to_csr(M)))

    def test_density_agrees(self):
        M = random_block(15, seed=3)
        assert density(M) == pytest.approx(density(to_csr(M)))
        assert density(np.zeros((4, 4))) == 0.0
        assert density(np.zeros((0, 0))) == 0.0

    def test_diagonal_and_row_sums(self):
        M = random_block(10, seed=1)
        C = to_csr(M)
        assert np.allclose(diagonal(C), np.diag(M))
        assert np.allclose(row_sums(C), M.sum(axis=1))

    def test_sub_dense_matches_fancy_indexing(self):
        M = random_block(20, seed=2)
        rows = np.array([0, 3, 7, 19])
        cols = np.array([1, 2, 18])
        expect = M[np.ix_(rows, cols)]
        assert np.array_equal(sub_dense(M, rows, cols), expect)
        assert np.allclose(sub_dense(to_csr(M), rows, cols), expect)

    def test_sub_dense_empty_index_sets(self):
        M = to_csr(random_block(5))
        assert sub_dense(M, np.array([], dtype=np.intp),
                         np.array([0, 1])).shape == (0, 2)
        assert sub_dense(M, np.array([0]),
                         np.array([], dtype=np.intp)).shape == (1, 0)


class TestFactorization:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_solve_and_transpose(self, backend):
        rng = np.random.default_rng(7)
        A = random_block(16, seed=7) + 16 * np.eye(16)  # well conditioned
        lu = Factorization(A, backend=backend)
        b = rng.standard_normal(16)
        assert np.allclose(A @ lu.solve(b), b, atol=1e-10)
        assert np.allclose(A.T @ lu.solve_transposed(b), b, atol=1e-10)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_matrix_rhs(self, backend):
        A = random_block(10, seed=8) + 10 * np.eye(10)
        B = np.random.default_rng(8).standard_normal((10, 3))
        lu = Factorization(A, backend=backend)
        assert np.allclose(A @ lu.solve(B), B, atol=1e-10)

    def test_factorize_accepts_csr(self):
        A = random_block(12, seed=9) + 12 * np.eye(12)
        x = np.ones(12)
        dense = factorize(A, backend="dense").solve(x)
        sparse = factorize(sp.csr_array(A), backend="sparse").solve(x)
        assert np.allclose(dense, sparse, atol=1e-10)


class TestPhMoments:
    @pytest.mark.parametrize("dist", [
        erlang(4, rate=1.3),
        hyperexponential([0.3, 0.7], [0.5, 2.0]),
    ])
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_matches_reference(self, dist, backend):
        moments = ph_moments(dist.alpha, dist.S, 3, backend=backend)
        for k, m in enumerate(moments, start=1):
            assert m == pytest.approx(dist.moment(k), rel=1e-12)

    def test_sparse_generator_input(self):
        dist = erlang(6, rate=0.8)
        moments = ph_moments(dist.alpha, sp.csr_array(np.asarray(dist.S)), 2)
        assert moments[0] == pytest.approx(dist.mean, rel=1e-12)


def _banded_subgenerator(order, seed):
    """A block-banded PH sub-generator like a truncated chain's."""
    rng = np.random.default_rng(seed)
    S = np.zeros((order, order))
    for offset in (-2, -1, 1, 2):
        idx = np.arange(max(0, -offset), min(order, order - offset))
        S[idx, idx + offset] = rng.random(idx.size)
    absorb = rng.random(order) * (rng.random(order) < 0.2)
    S[np.arange(order), np.arange(order)] = -(S.sum(axis=1) + absorb + 1e-3)
    alpha = rng.random(order)
    return alpha / (1.1 * alpha.sum()), S


class TestPhMomentsOperand:
    """``ph_moments`` builds its CSC operand once; the moments keep the
    bits of the route that converted ``-S`` to CSR and then to CSC."""

    @staticmethod
    def _old_route(alpha, S, kmax):
        from scipy.sparse import linalg as spla

        lu = spla.splu(sp.csc_matrix(sp.csr_array(-np.asarray(S))))
        y, fact, out = np.ones(len(alpha)), 1.0, []
        for k in range(1, kmax + 1):
            y = lu.solve(y)
            fact *= k
            out.append(float(fact * (alpha @ y)))
        return out

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("order", [256, 411])
    def test_bits_equal_old_route(self, order, seed):
        alpha, S = _banded_subgenerator(order, seed)
        got = ph_moments(alpha, S, 3, backend="auto")
        assert got == self._old_route(alpha, S, 3)

    @staticmethod
    def _band(order, width):
        """``band_csc``'s pattern of a band ``width`` rows either side."""
        cols = np.repeat(np.arange(order), 2 * width + 1)
        rows = cols + np.tile(np.arange(-width, width + 1), order)
        keep = (rows >= 0) & (rows < order)
        return rows[keep], cols[keep]

    @staticmethod
    def _assert_same_csc(got, want):
        for name in ("data", "indices", "indptr"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype, name
            assert g.tobytes() == w.tobytes(), name
        assert got.shape == want.shape

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("order", [256, 411])
    def test_band_with_exact_zeros(self, order, seed):
        """Zeros (of either sign) inside the pattern are dropped as the
        dense conversion drops them; the moments keep their bits."""
        alpha, S = _banded_subgenerator(order, seed)
        rng = np.random.default_rng(seed)
        holes = (rng.random(S.shape) < 0.3) & ~np.eye(order, dtype=bool)
        S[holes] = rng.choice([0.0, -0.0], size=int(holes.sum()))
        S[np.diag_indices(order)] = 0.0
        S[np.diag_indices(order)] = -(S.sum(axis=1) + 1e-3)
        pattern = self._band(order, 3)        # wider than the matrix's band
        self._assert_same_csc(band_csc(S, *pattern, negate=True),
                              sp.csc_array(-S))
        self._assert_same_csc(band_csc(S, *pattern), sp.csc_array(S))
        got = ph_moments(alpha, S, 3, backend="auto", pattern=pattern)
        assert got == ph_moments(alpha, S, 3, backend="auto")
        assert got == self._old_route(alpha, S, 3)

    def test_figure3_operands(self):
        """The effective quanta of Figure 3's first point at the
        400-level cap: the extraction plan's pattern covers every
        nonzero of ``S`` and gives the dense conversion's operand."""
        from repro import scenario
        from repro.pipeline import stages
        from repro.scenario import figure_scenarios

        captured = []
        reduce_order = stages.reduce_order

        def capture(raw, reduction, **kwargs):
            if raw.order >= 256 and len(captured) < 6:
                captured.append((raw, kwargs["pattern"]()))
            return reduce_order(raw, reduction, **kwargs)

        fig3 = figure_scenarios(3, grid="full")[0]
        mp = pytest.MonkeyPatch()
        mp.setattr(stages, "reduce_order", capture)
        try:
            scenario.run(fig3.with_grid(fig3.grid()[:1]))
        finally:
            mp.undo()
        assert len(captured) == 6
        for raw, (rows, cols) in captured:
            S = np.asarray(raw.S)
            outside = np.ones(S.shape, dtype=bool)
            outside[rows, cols] = False
            assert not (S[outside] != 0).any()
            self._assert_same_csc(band_csc(S, rows, cols, negate=True),
                                  sp.csc_array(-S))
            alpha = np.asarray(raw.alpha)
            got = ph_moments(alpha, S, 3, backend="auto",
                             pattern=(rows, cols))
            assert got == self._old_route(alpha, S, 3)
