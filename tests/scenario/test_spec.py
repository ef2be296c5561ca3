"""Tests for the Scenario spec tree."""

import pytest

from repro.errors import ValidationError
from repro.scenario import (
    EngineSpec,
    OutputSpec,
    Scenario,
    SweepAxis,
    SystemSpec,
    engine_field_names,
)


class TestSweepAxis:
    def test_values_coerced_to_floats(self):
        axis = SweepAxis("quantum_mean", (1, 2))
        assert axis.values == (1.0, 2.0)
        assert all(isinstance(v, float) for v in axis.values)

    def test_needs_parameter_and_values(self):
        with pytest.raises(ValidationError):
            SweepAxis("", (1.0,))
        with pytest.raises(ValidationError):
            SweepAxis("quantum_mean", ())


class TestSystemSpec:
    def test_exactly_one_of_preset_or_config(self, two_class_config):
        with pytest.raises(ValidationError, match="exactly one"):
            SystemSpec()
        with pytest.raises(ValidationError, match="exactly one"):
            SystemSpec(preset="fig23", config=two_class_config)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValidationError, match="unknown system preset"):
            SystemSpec(preset="fig99")

    def test_axis_requires_preset(self, two_class_config):
        with pytest.raises(ValidationError, match="axis requires a preset"):
            SystemSpec(config=two_class_config,
                       axis=SweepAxis("quantum_mean", (1.0,)))

    def test_config_for_builds_preset_at_value(self):
        spec = SystemSpec(preset="fig23", args={"arrival_rate": 0.4},
                          axis=SweepAxis("quantum_mean", (1.0, 2.0)))
        from repro.workloads import fig23_config
        assert (spec.config_for(2.0).classes
                == fig23_config(0.4, 2.0).classes)

    def test_swept_config_needs_a_value(self):
        spec = SystemSpec(preset="fig23", args={"arrival_rate": 0.4},
                          axis=SweepAxis("quantum_mean", (1.0,)))
        with pytest.raises(ValidationError, match="needs a value"):
            spec.config_for()

    def test_inline_config_returned_as_is(self, two_class_config):
        assert SystemSpec(config=two_class_config).config_for() \
            is two_class_config


class TestEngineSpec:
    def test_defaults_match_solver_defaults(self):
        eng = EngineSpec()
        assert eng.engine == "analytic"
        assert eng.solve_kwargs() == {"max_iterations": 200, "tol": 1e-5,
                                      "heavy_traffic_only": False}
        assert eng.model_kwargs() == {"backend": "auto",
                                      "reduction": "moments2",
                                      "rmatrix_method": "logreduction",
                                      "solve_budget": None}

    def test_engine_validated(self):
        with pytest.raises(ValidationError, match="engine"):
            EngineSpec(engine="magic")

    @pytest.mark.parametrize("kwargs", [
        {"replications": 0}, {"horizon": 0.0}, {"warmup_fraction": 1.0},
        {"max_evaluations": 0},
    ])
    def test_bad_numbers_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            EngineSpec(**kwargs)

    def test_engine_sides(self):
        assert EngineSpec(engine="analytic").analytic
        assert not EngineSpec(engine="analytic").simulated
        assert EngineSpec(engine="sim").simulated
        assert EngineSpec(engine="both").analytic
        assert EngineSpec(engine="both").simulated

    def test_warmup_follows_horizon(self):
        assert EngineSpec(horizon=1000.0).warmup == pytest.approx(100.0)

    def test_field_names_cover_every_knob(self):
        names = engine_field_names()
        assert "backend" in names and "tol" in names
        assert "workers" in names and "replications" in names


class TestOutputSpec:
    def test_unknown_measure_rejected(self):
        with pytest.raises(ValidationError, match="unknown measures"):
            OutputSpec(measures=("throughput",))


class TestScenario:
    SYSTEM = SystemSpec(preset="fig23", args={"arrival_rate": 0.4},
                        axis=SweepAxis("quantum_mean", (1.0, 2.0)))

    def test_axis_accessors(self):
        s = Scenario(name="s", system=self.SYSTEM)
        assert s.parameter == "quantum_mean"
        assert s.grid() == (1.0, 2.0)

    def test_with_engine_ignores_none(self):
        s = Scenario(name="s", system=self.SYSTEM)
        assert s.with_engine(workers=None, tol=None) is s
        again = s.with_engine(tol=1e-8, workers=None)
        assert again.engine.tol == 1e-8
        assert again.engine.workers is None
        assert again.system is s.system

    def test_with_grid_replaces_values(self):
        s = Scenario(name="s", system=self.SYSTEM).with_grid([3, 4, 5])
        assert s.grid() == (3.0, 4.0, 5.0)
        assert s.parameter == "quantum_mean"

    def test_with_grid_requires_axis(self, two_class_config):
        s = Scenario(name="s", system=SystemSpec(config=two_class_config))
        with pytest.raises(ValidationError, match="no sweep axis"):
            s.with_grid([1.0])
