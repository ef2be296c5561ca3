"""The Kronecker assembler equals the reference builder (to 1e-12) and
the level-by-level oracle bit for bit."""

import numpy as np
import pytest

from repro.core.generator import build_class_qbd
from repro.errors import ValidationError
from repro.phasetype import PhaseType, erlang, exponential
from repro.pipeline.assembly import AssemblyWorkspace, build_class_qbd_fast
from tests.pipeline import assembly_oracle

ARRIVALS = {
    "exp": exponential(0.4),
    "ph2": PhaseType([0.6, 0.4], [[-1.0, 0.3], [0.1, -0.8]]),
}
SERVICES = {
    "exp": exponential(1.0),
    "ph2": PhaseType([0.5, 0.5], [[-2.0, 0.5], [0.0, -1.5]]),
}
QUANTA = {"erl2": erlang(2, 1.0), "erl3": erlang(3, 1.5)}
VACATIONS = {"erl3": erlang(3, 2.0), "exp": exponential(0.7)}


def _assert_processes_equal(fast, ref, atol=1e-12):
    assert fast.boundary_levels == ref.boundary_levels
    for name in ("A0", "A1", "A2"):
        np.testing.assert_allclose(getattr(fast, name), getattr(ref, name),
                                   atol=atol, err_msg=name)
    for i, (frow, rrow) in enumerate(zip(fast.boundary, ref.boundary)):
        for j, (fb, rb) in enumerate(zip(frow, rrow)):
            assert (fb is None) == (rb is None), (i, j)
            if fb is not None:
                np.testing.assert_allclose(fb, rb, atol=atol,
                                           err_msg=f"B[{i}][{j}]")


@pytest.mark.parametrize("policy", ["switch", "idle"])
@pytest.mark.parametrize("partitions", [1, 2, 4])
@pytest.mark.parametrize("akey", sorted(ARRIVALS))
@pytest.mark.parametrize("skey", sorted(SERVICES))
@pytest.mark.parametrize("qkey,vkey", [("erl2", "erl3"), ("erl3", "exp")])
def test_fast_assembly_matches_reference(policy, partitions, akey, skey,
                                         qkey, vkey):
    arrival, service = ARRIVALS[akey], SERVICES[skey]
    quantum, vacation = QUANTA[qkey], VACATIONS[vkey]
    ref_proc, ref_space = build_class_qbd(partitions, arrival, service,
                                          quantum, vacation, policy=policy)
    fast_proc, fast_space, ws = build_class_qbd_fast(
        partitions, arrival, service, quantum, vacation, policy=policy)
    assert fast_space == ref_space
    assert isinstance(ws, AssemblyWorkspace)
    _assert_processes_equal(fast_proc, ref_proc)


def test_workspace_reused_across_vacations():
    arrival, service, quantum = exponential(0.4), exponential(1.0), erlang(2, 1.0)
    _, _, ws = build_class_qbd_fast(2, arrival, service, quantum,
                                    erlang(3, 2.0))
    for vac in (erlang(3, 0.5), exponential(1.1), erlang(2, 4.0)):
        proc, _, ws2 = build_class_qbd_fast(2, arrival, service, quantum, vac,
                                            workspace=ws)
        assert ws2 is ws  # the vacation-independent factors survive
        ref, _ = build_class_qbd(2, arrival, service, quantum, vac)
        _assert_processes_equal(proc, ref)


def test_stale_workspace_rebuilt():
    arrival, service, quantum = exponential(0.4), exponential(1.0), erlang(2, 1.0)
    vac = erlang(3, 2.0)
    _, _, ws = build_class_qbd_fast(2, arrival, service, quantum, vac)
    proc, _, ws2 = build_class_qbd_fast(2, exponential(0.7), service, quantum,
                                        vac, workspace=ws)
    assert ws2 is not ws  # different arrival: factors no longer apply
    ref, _ = build_class_qbd(2, exponential(0.7), service, quantum, vac)
    _assert_processes_equal(proc, ref)


def test_atom_at_zero_rejected():
    atom = PhaseType([0.5], [[-1.0]])  # alpha sums to 0.5: atom at zero
    with pytest.raises(ValidationError, match="atom at zero"):
        build_class_qbd_fast(1, exponential(0.4), exponential(1.0),
                             erlang(2, 1.0), atom)


# ---------------------------------------------------------------------------
# Bit identity with the level-by-level oracle

def _same_bits(got, want, what):
    """Equal arrays, zeros' signs included."""
    got = np.asarray(got)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert np.ascontiguousarray(got).tobytes() == want.tobytes(), what


def _assert_processes_identical(got, want):
    assert got.boundary_levels == want.boundary_levels
    for name in ("A0", "A1", "A2"):
        _same_bits(getattr(got, name), getattr(want, name), name)
    for i, (grow, wrow) in enumerate(zip(got.boundary, want.boundary)):
        for j, (gb, wb) in enumerate(zip(grow, wrow)):
            assert (gb is None) == (wb is None), (i, j)
            if gb is not None:
                _same_bits(gb, wb, f"B[{i}][{j}]")


# Unrounded rates and several entry/exit phases, so row sums add
# several distinct terms and a change of summation order shows.
PH_ARRIVAL3 = PhaseType([0.5, 0.3, 0.2], [[-1.3, 0.4, 0.2],
                                          [0.1, -0.9, 0.3],
                                          [0.2, 0.0, -1.1]])
PH_SERVICE2 = PhaseType([0.35, 0.65], [[-2.3, 0.7], [0.4, -1.9]])
PH_QUANTUM2 = PhaseType([0.45, 0.55], [[-0.61, 0.2], [0.1, -1.37]])
PH_VACATION3 = PhaseType([0.5, 0.3, 0.2], [[-3.1, 1.2, 0.4],
                                           [0.3, -2.2, 0.9],
                                           [0.0, 0.7, -4.3]])


@pytest.mark.parametrize("policy", ["switch", "idle"])
@pytest.mark.parametrize("partitions", range(1, 9))
@pytest.mark.parametrize("kind", ["markovian", "ph"])
def test_bits_equal_level_by_level_oracle(policy, partitions, kind):
    if kind == "markovian":
        dists = (exponential(0.37), exponential(1.13), erlang(2, 0.9),
                 erlang(3, 2.3))
    else:
        dists = (PH_ARRIVAL3, PH_SERVICE2, PH_QUANTUM2, PH_VACATION3)
    want = assembly_oracle.build_class_qbd_levels(partitions, *dists,
                                                  policy=policy)
    got, _, _ = build_class_qbd_fast(partitions, *dists, policy=policy)
    _assert_processes_identical(got, want)


@pytest.mark.parametrize("policy", ["switch", "idle"])
def test_bits_equal_oracle_across_iterations(policy):
    """A reused workspace (and its cached static blocks) assembles each
    new vacation to the oracle's bits, vacation orders changing too."""
    arrival, service, quantum = PH_ARRIVAL3, PH_SERVICE2, PH_QUANTUM2
    ws = None
    for vac in (PH_VACATION3, erlang(3, 0.7), exponential(1.1),
                PH_VACATION3, erlang(2, 4.0)):
        got, _, ws = build_class_qbd_fast(3, arrival, service, quantum, vac,
                                          policy=policy, workspace=ws)
        want = assembly_oracle.build_class_qbd_levels(
            3, arrival, service, quantum, vac, policy=policy)
        _assert_processes_identical(got, want)


def test_blocks_are_views_of_the_boundary_generator():
    proc, space, _ = build_class_qbd_fast(3, PH_ARRIVAL3, PH_SERVICE2,
                                          PH_QUANTUM2, PH_VACATION3)
    G = proc.G
    dims = proc.boundary_dims()
    offsets = np.concatenate([[0], np.cumsum(dims)])
    assert G.shape == (offsets[-1],) * 2
    b = proc.boundary_levels
    for i in range(b + 1):
        for j in range(b + 1):
            blk = proc.block(i, j)
            if abs(i - j) > 1:
                assert blk is None
                assert not G[offsets[i]:offsets[i + 1],
                             offsets[j]:offsets[j + 1]].any()
            else:
                assert np.shares_memory(blk, G)
                assert np.array_equal(
                    blk, G[offsets[i]:offsets[i + 1],
                           offsets[j]:offsets[j + 1]])
    assert not G.flags.writeable


def test_blocks_survive_the_next_assembly():
    """Each assembly writes a fresh ``G``: a process assembled earlier
    keeps its blocks when the workspace assembles the next vacation."""
    args = (2, PH_ARRIVAL3, PH_SERVICE2, PH_QUANTUM2)
    first, _, ws = build_class_qbd_fast(*args, PH_VACATION3)
    kept = [[None if blk is None else blk.copy() for blk in row]
            for row in first.boundary]
    kept_A1 = first.A1.copy()
    second, _, ws2 = build_class_qbd_fast(*args, erlang(3, 0.7),
                                          workspace=ws)
    assert ws2 is ws
    assert not np.shares_memory(first.G, second.G)
    assert not np.array_equal(first.A1, second.A1)
    for row, krow in zip(first.boundary, kept):
        for blk, k in zip(row, krow):
            if blk is not None:
                _same_bits(blk, k, "kept block")
    _same_bits(first.A1, kept_A1, "kept A1")


def test_csr_levels_keep_level_by_level_blocks():
    """A boundary with CSR levels is assembled level by level; its
    ``G`` is built from the blocks on first read."""
    from repro.kernels import is_sparse, to_dense

    args = (6, exponential(0.4), PH_SERVICE2, erlang(2, 1.0),
            erlang(8, 3.0))
    proc, _, _ = build_class_qbd_fast(*args, backend="sparse")
    assert any(is_sparse(blk) for row in proc.boundary for blk in row
               if blk is not None)
    G = proc.G
    offsets = np.concatenate([[0], np.cumsum(proc.boundary_dims())])
    for i, row in enumerate(proc.boundary):
        for j, blk in enumerate(row):
            if blk is not None:
                _same_bits(G[offsets[i]:offsets[i + 1],
                             offsets[j]:offsets[j + 1]],
                           to_dense(blk), f"G[{i}][{j}]")
    dense, _, _ = build_class_qbd_fast(*args, backend="dense")
    np.testing.assert_allclose(G, dense.G, rtol=0, atol=1e-12)
