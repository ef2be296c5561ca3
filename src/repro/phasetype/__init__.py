"""Phase-type (PH) distributions.

A phase-type distribution is the law of the time to absorption of a
finite continuous-time Markov chain with one absorbing state
(Section 2.5 of the paper).  It is parameterized by an initial
sub-probability vector ``alpha`` over the ``m`` transient phases and an
``m x m`` sub-generator ``S``; the exit-rate vector is
``s0 = -S @ ones``.

The class :class:`~repro.phasetype.distribution.PhaseType` provides
densities, moments and sampling; :mod:`~repro.phasetype.builders`
provides the standard named families (exponential, Erlang,
hyper/hypo-exponential, Coxian); :mod:`~repro.phasetype.algebra`
provides the closure operations (convolution — Theorem 2.5 of the
paper — finite mixture, scaling, order statistics);
:mod:`~repro.phasetype.fitting` provides moment-matching used to reduce
the order of effective-quantum distributions inside the fixed-point
iteration.
"""

from repro.phasetype.algebra import (
    convolve,
    convolve_many,
    maximum,
    minimum,
    mixture,
    scale,
)
from repro.phasetype.builders import (
    coxian,
    erlang,
    exponential,
    generalized_erlang,
    hyperexponential,
    hypoexponential,
)
from repro.phasetype.distribution import PhaseType
from repro.phasetype.em import HyperErlangFit, fit_hyper_erlang, fit_ph_em
from repro.phasetype.fitting import (
    fit_moments,
    match_two_moments,
    match_three_moments,
)
from repro.phasetype.random import PhaseTypeSampler, sampler_for

__all__ = [
    "PhaseType",
    "exponential",
    "erlang",
    "generalized_erlang",
    "hypoexponential",
    "hyperexponential",
    "coxian",
    "convolve",
    "convolve_many",
    "mixture",
    "scale",
    "minimum",
    "maximum",
    "fit_moments",
    "match_two_moments",
    "match_three_moments",
    "fit_ph_em",
    "fit_hyper_erlang",
    "HyperErlangFit",
    "PhaseTypeSampler",
    "sampler_for",
]
