"""Kronecker-product assembly of the per-class QBD blocks.

:func:`repro.core.generator.build_class_qbd` enumerates every state and
every transition in Python — clear, and the reference the tests pin —
but the fixed point rebuilds each class's generator once per iteration,
so state enumeration dominated the assembly cost.  This module builds
the *same* blocks from their tensor structure instead.

States within a level are ordered ``(a, v, k)`` with ``k`` fastest
(see :class:`repro.core.statespace.ClassStateSpace`), so every block
factors as ``kron(arrival part, kron(composition part, cycle part))``:

* the composition-space operators (service-phase jumps, completions
  with and without refill, arrival entry) do not depend on the
  vacation at all — they are built once per class in an
  :class:`AssemblyWorkspace` and reused across every fixed-point
  iteration;
* the cycle-phase operators (quantum/vacation jumps, expiry,
  switch-on-empty redirection) are small dense matrices rebuilt from
  the current vacation in microseconds.

A dense boundary is written into one fresh ``(n, n)`` array per
assembly, the boundary generator ``G`` (:attr:`QBDProcess.G`), whose
views are the process's boundary blocks.  A per-space plan (cached
like the extraction's) holds the flat positions of the cycle
operators' copies; a per-workspace template holds the entries of the
vacation-independent blocks (up blocks, most down blocks, the local
addends) and their row sums.  An assembly places the template's
entries into a zeroed ``G``, scatters ``Kfull`` (every level's
``kron(I, Kfull)``), ``K0`` and the level-1 switch down block, takes
each local block's row sums from strided views, and sets the diagonal
in the order the per-level helpers add: local, then down, then up
(``A1``: local, then ``A0``, then ``A2``).  The blocks equal a
level-by-level assembly bit for bit (the oracle
``tests/pipeline/assembly_oracle.py``), and ``build_class_qbd``'s to
floating-point noise (``tests/pipeline/test_assembly.py``).

With ``backend="sparse"`` (or ``"auto"`` past the size threshold),
boundary blocks above :data:`repro.kernels.backend.SPARSE_MIN_SIZE`
are assembled *directly in CSR*, level by level — ``scipy.sparse.kron``
over CSR factors — so no dense ``dim x dim`` intermediate ever exists
for the large levels, and such a process builds ``G`` only if a dense
boundary solve reads it.  The repeating blocks ``A0/A1/A2`` stay dense
regardless: every ``R``-matrix algorithm is dense ``d x d`` BLAS and
the repeating phase dimension is small by construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy import sparse as _sp

from repro.core.generator import _with_diagonal, class_state_space
from repro.core.statespace import ClassStateSpace
from repro.errors import ValidationError
from repro.kernels import is_sparse, kron2, row_sums, select_backend
from repro.phasetype import PhaseType
from repro.qbd.structure import QBDProcess
from repro.utils.combinatorics import composition_index_map, compositions

__all__ = ["AssemblyWorkspace", "build_class_qbd_fast"]


def _eye(n: int, sparse: bool):
    return _sp.eye_array(n, format="csr") if sparse else np.eye(n)


def _with_diagonal_any(local, other_blocks):
    """:func:`repro.core.generator._with_diagonal` for either
    representation of ``local`` (neighbours may be mixed too)."""
    total = row_sums(local)
    for blk in other_blocks:
        if blk is not None:
            total = total + row_sums(blk)
    if is_sparse(local):
        return _sp.csr_array(local - _sp.diags_array(total))
    out = local.copy()
    r = np.arange(out.shape[0])
    out[r, r] -= total
    return out


def _off_diag(M: np.ndarray) -> np.ndarray:
    out = np.array(M, dtype=np.float64, copy=True)
    out.flat[::out.shape[0] + 1] = 0.0
    return out


class AssemblyWorkspace:
    """Vacation-independent generator factors for one class.

    Everything here depends only on ``(partitions, arrival, service,
    policy)`` — fixed for the life of a fixed-point run — so one
    workspace amortizes the composition-space enumeration over all
    iterations.
    """

    def __init__(self, partitions: int, arrival: PhaseType,
                 service: PhaseType, policy: str):
        self.partitions = int(partitions)
        self.policy = policy
        self.arrival = arrival
        self.service = service
        c = self.partitions
        mB = service.order
        SB = np.asarray(service.S, dtype=np.float64)
        aB = np.asarray(service.alpha, dtype=np.float64)
        sB0 = np.asarray(service.exit_rates, dtype=np.float64)

        self.SA_off = _off_diag(np.asarray(arrival.S))
        self.Aup = np.outer(np.asarray(arrival.exit_rates, dtype=np.float64),
                            np.asarray(arrival.alpha, dtype=np.float64))

        # Composition-space operators per level.  in_service(i) =
        # min(i, c); levels c..c+1 share the full-occupancy vectors.
        def comps(s: int):
            return compositions(s, mB)

        def cmap(s: int):
            return composition_index_map(s, mB)

        self.nv = [len(comps(min(i, c))) for i in range(c + 2)]

        # Service-phase jumps within a level: v -> v - e_n + e_n2 at
        # rate v[n] SB[n, n2].
        self.Sjump: list[np.ndarray] = []
        for i in range(c + 2):
            s = min(i, c)
            vecs, vmap = comps(s), cmap(s)
            M = np.zeros((len(vecs), len(vecs)))
            for vi, v in enumerate(vecs):
                for n, count in enumerate(v):
                    if count == 0:
                        continue
                    for n2 in range(mB):
                        if n2 == n or SB[n, n2] <= 0:
                            continue
                        w = list(v)
                        w[n] -= 1
                        w[n2] += 1
                        M[vi, vmap[tuple(w)]] += count * SB[n, n2]
            self.Sjump.append(M)

        # Service completions, level i -> i - 1 (i = 1..c): the freed
        # partition stays empty, v -> v - e_n at rate v[n] sB0[n].
        self.Dplain: dict[int, np.ndarray] = {}
        for i in range(1, c + 1):
            vecs, vmap = comps(i), cmap(i - 1)
            M = np.zeros((len(vecs), len(vmap)))
            for vi, v in enumerate(vecs):
                for n, count in enumerate(v):
                    if count == 0 or sB0[n] <= 0:
                        continue
                    w = list(v)
                    w[n] -= 1
                    M[vi, vmap[tuple(w)]] += count * sB0[n]
            self.Dplain[i] = M

        # Service completions with refill (levels > c): the head-of-
        # queue job takes the slot, v -> v - e_n + e_n2 at rate
        # v[n] sB0[n] aB[n2].
        vecs, vmap = comps(c), cmap(c)
        M = np.zeros((len(vecs), len(vecs)))
        for vi, v in enumerate(vecs):
            for n, count in enumerate(v):
                if count == 0 or sB0[n] <= 0:
                    continue
                for n2 in np.nonzero(aB)[0]:
                    w = list(v)
                    w[n] -= 1
                    w[int(n2)] += 1
                    M[vi, vmap[tuple(w)]] += count * sB0[n] * aB[n2]
        self.Dref = M

        # Arrival entry, level i -> i + 1 (i < c): the arriving job
        # takes a partition with initial phase beta_B.
        self.Uent: dict[int, np.ndarray] = {}
        for i in range(c):
            vecs, vmap = comps(i), cmap(i + 1)
            M = np.zeros((len(vecs), len(vmap)))
            for vi, v in enumerate(vecs):
                for n in np.nonzero(aB)[0]:
                    w = list(v)
                    w[int(n)] += 1
                    M[vi, vmap[tuple(w)]] += aB[n]
            self.Uent[i] = M

        # Cycle-size-keyed Kronecker products that do not depend on the
        # quantum/vacation *values* — only on their orders.  The fixed
        # point rebuilds the generator every iteration with a new
        # vacation of (almost always) the same order, so these blocks
        # are identical call to call; caching them skips the dominant
        # kron2 work.  Keyed by (m_quantum, m_vacation, csr pattern):
        # the state space, and either the blocks themselves (a boundary
        # with CSR levels) or the dense template built from them.
        # Values are reused as-is, so the assembled blocks stay bitwise
        # equal to a cold build.
        self._static: dict[tuple, dict] = {}

    def matches(self, partitions: int, arrival: PhaseType,
                service: PhaseType, policy: str) -> bool:
        # A fixed point passes the same objects every iteration, so
        # identity settles the common case without comparing arrays.
        return (self.partitions == partitions and self.policy == policy
                and (self.arrival is arrival or self.arrival == arrival)
                and (self.service is service or self.service == service))


def build_class_qbd_fast(partitions: int, arrival: PhaseType,
                         service: PhaseType, quantum: PhaseType,
                         vacation: PhaseType, *, policy: str = "switch",
                         workspace: AssemblyWorkspace | None = None,
                         backend: str | None = None,
                         ) -> tuple[QBDProcess, ClassStateSpace, AssemblyWorkspace]:
    """Assemble one class's QBD from its Kronecker factors.

    Produces blocks equal to
    :func:`repro.core.generator.build_class_qbd` (same state order,
    same rates) at a fraction of the cost.  Returns the workspace used
    so callers can pass it back on the next iteration; a stale or
    ``None`` workspace is rebuilt transparently.  ``backend`` selects
    the representation of large *boundary* blocks (see module
    docstring); the workspace itself is representation-independent.
    """
    for what, dist in (("arrival", arrival), ("service", service),
                       ("quantum", quantum), ("vacation", vacation)):
        if dist.atom_at_zero > 1e-12:
            raise ValidationError(
                f"{what} distribution has an atom at zero "
                f"({dist.atom_at_zero:.3g}); the chain would have instantaneous "
                "transitions"
            )
    if workspace is None or not workspace.matches(partitions, arrival,
                                                  service, policy):
        workspace = AssemblyWorkspace(partitions, arrival, service, policy)
    ws = workspace
    c = ws.partitions
    mA = arrival.order
    M = quantum.order
    N = vacation.order
    nk = M + N
    switch = policy == "switch"

    def dim_at(i: int) -> int:
        return mA * ws.nv[i] * (N if (i == 0 and switch) else nk)

    # Representation per boundary level: CSR for levels past the
    # selector's threshold, dense below it.  The repeating levels
    # (c, c+1) are forced dense — A0/A1/A2 feed the dense R solvers.
    # The selector is monotone in the size, so the largest other level
    # decides whether any level goes CSR at all.
    csr_level = [False] * (c + 2)
    largest = max((dim_at(i) for i in range(c)), default=0)
    if select_backend(backend, largest, site="assembly") == "sparse":
        csr_level[:c] = [select_backend(backend, dim_at(i)) == "sparse"
                         for i in range(c)]

    # Everything that depends on the quantum/vacation only through
    # their *orders* — the state space and the blocks of
    # :func:`_static_blocks` — comes from the workspace cache (see
    # ``AssemblyWorkspace._static``); only the value-carrying pieces
    # are rebuilt per call.
    ckey = (M, N, tuple(csr_level))
    static = ws._static.get(ckey)
    if static is None:
        space = class_state_space(partitions, arrival, service, quantum,
                                  vacation, policy)
        static = _static_blocks(ws, space, csr_level)
        if not any(csr_level):
            static = {"space": space,
                      "template": _template(_plan(space), static)}
        ws._static[ckey] = static
    space = static["space"]

    SG_off = _off_diag(np.asarray(quantum.S))
    sG0 = np.asarray(quantum.exit_rates, dtype=np.float64)
    bG = np.asarray(quantum.alpha, dtype=np.float64)
    V_off = _off_diag(np.asarray(vacation.S))
    zeta = np.asarray(vacation.alpha, dtype=np.float64)
    v0 = np.asarray(vacation.exit_rates, dtype=np.float64)

    # Cycle-phase operators (all small dense matrices; each product is
    # ``np.outer``'s).
    Kfull = np.zeros((nk, nk))
    Kfull[:M, :M] = SG_off                      # quantum-phase jumps
    Kfull[:M, M:] += sG0[:, None] * zeta        # quantum expiry
    Kfull[M:, M:] += V_off                      # vacation-phase jumps
    Kfull[M:, :M] += v0[:, None] * bG           # vacation expiry
    K0 = down1 = None
    if switch:
        K0 = V_off + v0[:, None] * zeta         # skipped quantum at level 0
        K0.flat[::N + 1] = 0.0                  # restart self-loops dropped
        Tq0 = np.zeros((nk, N))                 # last departure -> vacation
        Tq0[:M, :] = zeta
        # The level-1 down block carries vacation values (Tq0).
        down1 = kron2(ws.Dplain[1], Tq0,
                      sparse=csr_level[1] and csr_level[0])
    if "template" in static:
        process = _assemble_dense(static["template"], Kfull, K0, down1)
    else:
        process = _assemble_levels(ws, space, static, csr_level, Kfull, K0,
                                   down1)
    return process, space, workspace


def _static_blocks(ws: AssemblyWorkspace, space: ClassStateSpace,
                   csr_level: list[bool]) -> dict:
    """The blocks that depend on the quantum and vacation only through
    their orders: ``ups`` (level ``i`` -> ``i + 1``, ``A0`` last), the
    ``downs`` without vacation values, and the local addends ``sjump``
    (service-phase jumps) and ``sa`` (arrival-phase jumps).

    Mirrors ``generator._BlockBuilder``.  A block between two levels
    goes CSR only when both endpoints do (a mixed pair is small on one
    side anyway).  Values are reused as-is, so the assembled blocks
    stay bitwise equal to a cold build.
    """
    c = space.boundary_levels
    mA = space.m_arrival
    M = space.m_quantum
    N = space.m_vacation
    nk = M + N
    switch = space.policy == "switch"
    I_mA = np.eye(mA)
    I_nk = np.eye(nk)
    Eq = np.zeros((nk, nk))                     # "during the quantum" mask
    Eq[:M, :M] = np.eye(M)
    E0up = np.zeros((N, nk))                    # level-0 phases embed at >=1
    E0up[:, M:] = np.eye(N)

    ups: list[np.ndarray] = []
    for i in range(c + 1):
        f = csr_level[i] and csr_level[i + 1]
        Vup = ws.Uent[i] if i < c else np.eye(ws.nv[i])
        Kup = E0up if (i == 0 and switch) else I_nk
        ups.append(kron2(ws.Aup, kron2(Vup, Kup, sparse=f), sparse=f))
    downs: dict[int, np.ndarray] = {}
    for i in range(1, c + 2):
        if i == 1 and switch:
            continue  # Tq0 carries vacation values; rebuilt per call
        f = csr_level[i] and csr_level[i - 1]
        Dv = ws.Dref if i > c else ws.Dplain[i]
        downs[i] = kron2(I_mA, kron2(Dv, Eq, sparse=f), sparse=f)
    sjump: dict[int, np.ndarray] = {}
    sa: dict[int, np.ndarray] = {}
    for i in range(c + 2):
        f = csr_level[i]
        nki = N if (i == 0 and switch) else nk
        if not (i == 0 and switch) and min(i, c) > 0 \
                and bool(ws.Sjump[i].any()):
            sjump[i] = kron2(I_mA, kron2(ws.Sjump[i], Eq, sparse=f),
                             sparse=f)
        if ws.SA_off.any():
            sa[i] = kron2(ws.SA_off, _eye(ws.nv[i] * nki, f), sparse=f)
    return {"space": space, "ups": ups, "downs": downs, "sjump": sjump,
            "sa": sa}


def _assemble_levels(ws: AssemblyWorkspace, space: ClassStateSpace,
                     static: dict, csr_level: list[bool], Kfull: np.ndarray,
                     K0: np.ndarray | None,
                     down1: np.ndarray | None) -> QBDProcess:
    """A boundary with CSR levels, assembled level by level; its ``G``
    is built from the blocks if a dense solve reads it."""
    c = space.boundary_levels
    I_mA = np.eye(space.m_arrival)
    ups = static["ups"]
    downs: list[np.ndarray | None] = [None]
    for i in range(1, c + 2):
        if i == 1 and down1 is not None:
            f = csr_level[1] and csr_level[0]
            downs.append(kron2(I_mA, down1, sparse=f))
        else:
            downs.append(static["downs"][i])

    locals_: list[np.ndarray] = []
    for i in range(c + 2):
        f = csr_level[i]
        Ki = K0 if (i == 0 and K0 is not None) else Kfull
        L = kron2(I_mA, kron2(_eye(ws.nv[i], f), Ki, sparse=f), sparse=f)
        if i in static["sjump"]:
            L = L + static["sjump"][i]
        if i in static["sa"]:
            L = L + static["sa"][i]
        locals_.append(L)

    # Boundary/diagonal assembly, identical to build_class_qbd.
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
        out_blocks.append(ups[i])          # ups[c] is A0
        if i < c:
            boundary[i][i + 1] = ups[i]
        boundary[i][i] = _with_diagonal_any(locals_[i], out_blocks)

    # Diagonals were derived as negative row sums above, so the
    # generator property holds by construction; skip the re-check.
    return QBDProcess.from_trusted_blocks(boundary, A0, A1, A2)


@dataclass(frozen=True)
class _AssemblyPlan:
    """Where one state space's cycle operators land in ``G``.

    Every index array holds flat positions into the ``(n, n)``
    boundary generator, one row per diagonal copy of its operator.
    """

    #: First row of each boundary level, then ``n``.
    offsets: tuple[int, ...]
    #: ``kron(I, Kfull)`` of every level but level 0 under the switch
    #: policy: ``(copies, nk * nk)``.
    full: np.ndarray
    #: Switch policy: ``kron(I, K0)`` at level 0, ``(copies, N * N)``.
    empty: np.ndarray | None
    #: Switch policy: the level-1 down block ``kron(I_mA, X)``,
    #: ``(m_arrival, X.size)``.
    down: np.ndarray | None
    #: ``(first level, levels, dim)`` of each run of consecutive
    #: levels of one dimension: their local blocks are equally spaced
    #: down the diagonal, so one strided view sums their rows.
    runs: tuple[tuple[int, int, int], ...]
    #: ``(i, j, index)`` of every boundary block: ``G[index]`` is block
    #: ``[i][j]``.
    blocks: tuple[tuple[int, int, tuple[slice, slice]], ...]


@functools.lru_cache(maxsize=64)
def _plan(space: ClassStateSpace) -> _AssemblyPlan:
    """The scatter plan of ``space``, built once per process.

    Spaces are value-hashable frozen dataclasses, so every equal space
    a fixed-point iteration re-creates finds its plan here.  Every
    caller shares the returned plan and must only read its arrays.
    """
    c = space.boundary_levels
    switch = space.policy == "switch"
    N = space.m_vacation
    nk = space.m_quantum + N
    dims = [space.level_dim(i) for i in range(c + 1)]
    o = list(accumulate(dims, initial=0))
    n = o[-1]

    def copies(row: int, col: int, rows: int, cols: int, count: int):
        """Flat positions of ``count`` ``rows x cols`` blocks placed
        down the diagonal from ``(row, col)``."""
        k = np.arange(count, dtype=np.intp)[:, None, None]
        r = row + k * rows + np.arange(rows, dtype=np.intp)[:, None]
        q = col + k * cols + np.arange(cols, dtype=np.intp)
        return (r * n + q).reshape(count, rows * cols)

    first = 1 if switch else 0
    full = np.concatenate([copies(o[i], o[i], nk, nk, dims[i] // nk)
                           for i in range(first, c + 1)])
    empty = down = None
    if switch:
        mA = space.m_arrival
        empty = copies(0, 0, N, N, dims[0] // N)
        down = copies(o[1], 0, dims[1] // mA, dims[0] // mA, mA)
    runs: list[list[int]] = []
    for i, dim in enumerate(dims):
        if runs and runs[-1][2] == dim:
            runs[-1][1] += 1
        else:
            runs.append([i, 1, dim])
    blocks = tuple((i, j, (slice(o[i], o[i + 1]), slice(o[j], o[j + 1])))
                   for i in range(c + 1)
                   for j in range(max(i - 1, 0), min(i + 1, c) + 1))
    return _AssemblyPlan(offsets=tuple(o), full=full, empty=empty, down=down,
                         runs=tuple(tuple(r) for r in runs), blocks=blocks)


@dataclass(frozen=True)
class _Template:
    """One workspace's vacation-independent part of ``G``.

    ``pos``/``vals`` place the up blocks, the down blocks that carry no
    vacation values, and the local blocks' static addends (every entry
    but a +0.0).  The row sums are per state of ``G``: each level's
    down block (0 at level 0 and, under the switch policy, at level 1)
    and up block (``A0`` at level ``c``); ``a2`` is ``A2``'s.
    """

    plan: _AssemblyPlan
    pos: np.ndarray
    vals: np.ndarray
    down: np.ndarray
    up: np.ndarray
    a2: np.ndarray
    A0: np.ndarray
    A2: np.ndarray


def _template(plan: _AssemblyPlan, static: dict) -> _Template:
    o = plan.offsets
    c = len(o) - 2
    G = np.zeros((o[-1], o[-1]))
    down = np.zeros(o[-1])
    up = np.empty(o[-1])

    def blk(i: int, j: int) -> np.ndarray:
        return G[o[i]:o[i + 1], o[j]:o[j + 1]]

    for i in range(c + 1):
        rows = slice(o[i], o[i + 1])
        up[rows] = row_sums(static["ups"][i])
        if i < c:
            blk(i, i + 1)[...] = static["ups"][i]
        if i in static["downs"]:
            blk(i, i - 1)[...] = static["downs"][i]
            down[rows] = row_sums(static["downs"][i])
        # The local addends, in the per-level order (the Kronecker
        # part they are added to is scattered in per assembly).
        if i in static["sjump"]:
            blk(i, i)[...] += static["sjump"][i]
        if i in static["sa"]:
            blk(i, i)[...] += static["sa"][i]
    flat = G.reshape(-1)
    pos = np.flatnonzero((flat != 0.0) | np.signbit(flat))
    return _Template(plan=plan, pos=pos, vals=flat[pos], down=down, up=up,
                     a2=row_sums(static["downs"][c + 1]),
                     A0=static["ups"][c], A2=static["downs"][c + 1])


def _assemble_dense(tmpl: _Template, Kfull: np.ndarray,
                    K0: np.ndarray | None,
                    down1: np.ndarray | None) -> QBDProcess:
    """A dense boundary's process: its blocks are views into a fresh
    ``G`` (see the module docstring)."""
    plan = tmpl.plan
    o = plan.offsets
    c = len(o) - 2
    n = o[-1]

    G = np.zeros((n, n))
    flat = G.reshape(-1)
    flat[tmpl.pos] = tmpl.vals
    # The cycle operators move within one (arrival, service) state and
    # the template's addends between them, so each copy lands on +0.0
    # and assigning it equals the per-level sum.
    flat[plan.full] = Kfull.ravel()
    down = tmpl.down
    if K0 is not None:
        flat[plan.empty] = K0.ravel()
        flat[plan.down] = down1.ravel()
        down = down.copy()
        G[o[1]:o[2], :o[1]].sum(axis=1, out=down[o[1]:o[2]])
    local = np.empty(n)
    s0, s1 = G.strides
    for first, levels, dim in plan.runs:
        at = o[first]
        blocks = np.ndarray((levels, dim, dim), dtype=G.dtype, buffer=G,
                            offset=at * (s0 + s1),
                            strides=(dim * (s0 + s1), s0, s1))
        blocks.sum(axis=2,
                   out=local[at:at + levels * dim].reshape(levels, dim))
    # Level c+1's local block equals level c's before its diagonal.
    A1 = G[o[c]:, o[c]:].copy()
    A1.reshape(-1)[::A1.shape[0] + 1] -= \
        (local[o[c]:] + tmpl.up[o[c]:]) + tmpl.a2
    flat[::n + 1] -= (local + down) + tmpl.up
    G.flags.writeable = False

    boundary = [[None] * (c + 1) for _ in range(c + 1)]
    for i, j, index in plan.blocks:
        boundary[i][j] = G[index]
    # Diagonals are negative row sums, so the generator property holds
    # by construction; skip the re-check.
    return QBDProcess.from_trusted_blocks(boundary, tmpl.A0, A1, tmpl.A2,
                                          G=G)
