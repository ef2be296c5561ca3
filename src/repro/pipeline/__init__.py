"""Staged solver pipeline: reusable artifacts for the fixed point.

The fixed-point iteration of Section 4.3 re-solves every class's QBD
once per iteration, and the figure sweeps run one fixed point per grid
value.  This package makes the repeated work explicit and reusable:

* :mod:`repro.pipeline.assembly` — Kronecker-product generator
  assembly with a per-class workspace of vacation-independent factors;
* :mod:`repro.pipeline.extract` — effective-quantum extraction
  stacked over n >= 1 chains of one state space under an element
  budget, with one cached gather plan per space;
* :mod:`repro.pipeline.context` — the per-run
  :class:`~repro.pipeline.context.SolveContext` carrying class
  artifacts (including warm-start ``R`` seeds) and stage timings;
* :mod:`repro.pipeline.stages` — the assemble / stability / R-solve /
  boundary / extract / reduce stages the fixed-point driver runs over
  n >= 1 points, stacking their drift tests, ``R`` solves and
  extractions.

Each stage has one implementation.  The reference assembly,
:func:`repro.core.generator.build_class_qbd`, stays in
:mod:`repro.core` because the Figure 1 and ``R``-matrix benchmarks
build through it; the reference extraction is a test oracle under
``tests/`` (``tests/core/vacation_oracle.py``).  The parity tests patch
both into the stages in place of the fast versions
(``tests/legacy_route.py``).
"""

from repro.pipeline.assembly import AssemblyWorkspace, build_class_qbd_fast
from repro.pipeline.context import ClassArtifacts, SolveContext, StageTimings
from repro.pipeline.extract import extract_effective_quanta
from repro.pipeline.stages import (
    assemble_class,
    extract_points,
    solve_points,
)

__all__ = [
    "AssemblyWorkspace",
    "ClassArtifacts",
    "SolveContext",
    "StageTimings",
    "assemble_class",
    "build_class_qbd_fast",
    "extract_effective_quanta",
    "extract_points",
    "solve_points",
]
