"""Tests for ClassConfig / SystemConfig."""

import pytest

from repro.core import ClassConfig, SystemConfig
from repro.errors import ValidationError
from repro.phasetype import PhaseType, exponential


def make_class(g=2, lam=0.5, mu=1.0):
    return ClassConfig.markovian(g, arrival_rate=lam, service_rate=mu,
                                 quantum_mean=2.0, overhead_mean=0.01)


class TestClassConfig:
    def test_markovian_rates(self):
        c = make_class(lam=0.4, mu=2.0)
        assert c.arrival_rate == pytest.approx(0.4)
        assert c.service_rate == pytest.approx(2.0)
        assert c.quantum.rate == pytest.approx(0.5)
        assert c.overhead_rate == pytest.approx(100.0)

    def test_rejects_nonpositive_partition(self):
        with pytest.raises(ValidationError):
            ClassConfig.markovian(0, arrival_rate=1, service_rate=1,
                                  quantum_mean=1, overhead_mean=0.1)

    def test_rejects_atom_at_zero(self):
        with pytest.raises(ValidationError, match="atom at zero"):
            ClassConfig(partition_size=1,
                        arrival=PhaseType([0.5], [[-1.0]]),
                        service=exponential(1.0),
                        quantum=exponential(1.0),
                        overhead=exponential(10.0))

    def test_rejects_non_phasetype(self):
        with pytest.raises(ValidationError, match="PhaseType"):
            ClassConfig(partition_size=1, arrival=1.0,
                        service=exponential(1.0),
                        quantum=exponential(1.0),
                        overhead=exponential(10.0))


class TestSystemConfig:
    def test_partitions(self):
        cfg = SystemConfig(processors=8, classes=(make_class(2),))
        assert cfg.partitions(0) == 4

    def test_rejects_nondividing_partition(self):
        with pytest.raises(ValidationError, match="divide"):
            SystemConfig(processors=8, classes=(make_class(3),))

    def test_rejects_empty_classes(self):
        with pytest.raises(ValidationError):
            SystemConfig(processors=4, classes=())

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValidationError, match="empty_queue_policy"):
            SystemConfig(processors=4, classes=(make_class(2),),
                         empty_queue_policy="spin")

    def test_utilization_per_class(self):
        # rho_p = lambda / (c_p mu).
        cfg = SystemConfig(processors=8,
                           classes=(make_class(2, lam=0.5, mu=1.0),))
        assert cfg.utilization(0) == pytest.approx(0.5 / 4.0)

    def test_paper_identity_rho_equals_lambda(self):
        # With mu = (0.5, 1, 2, 4) and g = 2^p on 8 processors, the
        # total rho equals the common arrival rate (Section 5).
        mus = [0.5, 1.0, 2.0, 4.0]
        classes = tuple(
            ClassConfig.markovian(2 ** p, arrival_rate=0.4,
                                  service_rate=mus[p], quantum_mean=1.0,
                                  overhead_mean=0.01)
            for p in range(4))
        cfg = SystemConfig(processors=8, classes=classes)
        assert cfg.utilization() == pytest.approx(0.4)

    def test_cycle_mean(self):
        cfg = SystemConfig(processors=4, classes=(make_class(2), make_class(4)))
        assert cfg.cycle_mean() == pytest.approx(2 * (2.0 + 0.01))

    def test_default_names(self):
        cfg = SystemConfig(processors=4, classes=(make_class(2), make_class(4)))
        assert cfg.class_names == ("class0", "class1")

    def test_describe_mentions_rho(self):
        cfg = SystemConfig(processors=4, classes=(make_class(2),))
        assert "rho" in cfg.describe()
