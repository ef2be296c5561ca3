"""Staged solver pipeline: reusable artifacts for the fixed point.

The fixed-point iteration of Section 4.3 re-solves every class's QBD
once per iteration, and the figure sweeps run one fixed point per grid
value.  This package makes the repeated work explicit and reusable:

* :mod:`repro.pipeline.assembly` — Kronecker-product generator
  assembly with a per-class workspace of vacation-independent factors;
* :mod:`repro.pipeline.extract` — effective-quantum extraction
  stacked over n >= 1 chains of one state space, with one cached
  gather plan per space; single solves call it at n = 1, batched sweep
  chunks once per space group;
* :mod:`repro.pipeline.context` — the per-run
  :class:`~repro.pipeline.context.SolveContext` carrying class
  artifacts (including warm-start ``R`` seeds) and stage timings;
* :mod:`repro.pipeline.stages` — the assemble / stability / R-solve /
  boundary / extract stages the fixed-point driver composes for a
  single solve.

The reference implementations in :mod:`repro.core`
(``build_class_qbd``, ``effective_quantum``) remain as test oracles:
the parity tests patch them into the stages in place of the fast
versions.
"""

from repro.pipeline.assembly import AssemblyWorkspace, build_class_qbd_fast
from repro.pipeline.context import ClassArtifacts, SolveContext, StageTimings
from repro.pipeline.extract import (
    extract_effective_quanta,
    extract_effective_quantum,
)
from repro.pipeline.stages import (
    assemble_class,
    extract_class,
    solve_all,
    solve_class,
)

__all__ = [
    "AssemblyWorkspace",
    "ClassArtifacts",
    "SolveContext",
    "StageTimings",
    "assemble_class",
    "build_class_qbd_fast",
    "extract_class",
    "extract_effective_quanta",
    "extract_effective_quantum",
    "solve_all",
    "solve_class",
]
