"""Tests for repro.utils.rng."""

import numpy as np

from repro.utils.rng import StreamFactory


class TestStreamFactory:
    def test_same_name_same_stream(self):
        f = StreamFactory(1)
        assert f.get("a") is f.get("a")

    def test_different_names_different_streams(self):
        f = StreamFactory(1)
        a = f.get("arrivals").random(500)
        b = f.get("service").random(500)
        assert not np.array_equal(a, b)

    def test_creation_order_irrelevant(self):
        f1 = StreamFactory(9)
        f2 = StreamFactory(9)
        _ = f1.get("x")  # created first in f1 only
        a1 = f1.get("y").random(10)
        a2 = f2.get("y").random(10)
        assert np.array_equal(a1, a2)

    def test_seed_changes_streams(self):
        a = StreamFactory(1).get("s").random(10)
        b = StreamFactory(2).get("s").random(10)
        assert not np.array_equal(a, b)
