"""The reference solve route, patched into the pipeline as a test oracle.

The fixed-point driver runs the fast stages of
:mod:`repro.pipeline.stages`: Kronecker assembly, stacked
effective-quantum extraction and stacked ``R`` solves warm-started from
the previous iterate.  :func:`legacy_route` swaps the reference
implementations back in — :func:`repro.core.generator.build_class_qbd`,
:func:`tests.core.vacation_oracle.effective_quantum` one class at a time and
cold ``R0=None`` solves through the resilience chain — so a parity test
or bench can run both routes through the same driver and compare them.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.core.generator import build_class_qbd
from repro.pipeline import stages
from tests.core.vacation_oracle import effective_quantum


def _reference_assembly(*args, workspace=None, backend=None, **kwargs):
    process, space = build_class_qbd(*args, **kwargs)
    return process, space, workspace


def _cold(solve):
    def cold_solve(*args, R0=None, **kwargs):
        return solve(*args, R0=None, **kwargs)
    return cold_solve


def _reference_quanta(space, jobs, *, truncation_mass, max_levels,
                      timed=None):
    for i, (process, solution, vacation) in enumerate(jobs):
        yield i, effective_quantum(space, process, solution, vacation,
                                   truncation_mass=truncation_mass,
                                   max_levels=max_levels)


@contextlib.contextmanager
def legacy_route():
    """Route every single solve through the reference stages."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stages, "build_class_qbd_fast", _reference_assembly)
        mp.setattr(stages, "extract_effective_quanta", _reference_quanta)
        mp.setattr(stages, "_stackable", lambda job: False)
        mp.setattr(stages, "resilient_solve_R", _cold(stages.resilient_solve_R))
        yield
