"""Execute the library's docstring examples.

Examples in docstrings are part of the contract; this keeps them from
rotting.  Modules whose examples are expensive (full figure sweeps)
are simply not given doctest examples, so the whole pass stays fast.
"""

import doctest
import importlib

import pytest

MODULES = [
    "repro",
    "repro.phasetype.distribution",
    "repro.phasetype.em",
    "repro.core.model",
    "repro.core.batchmodel",
    "repro.sim.engine",
    "repro.sim.gang",
    "repro.utils.rng",
]


@pytest.mark.parametrize("modname", MODULES)
def test_module_doctests(modname):
    mod = importlib.import_module(modname)
    result = doctest.testmod(mod, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failure(s) in {modname}"
    # Modules on this list are expected to actually contain examples.
    assert result.attempted > 0, f"no doctests found in {modname}"
