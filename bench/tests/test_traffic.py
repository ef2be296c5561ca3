from collections import Counter

from bench import traffic


def test_same_seed_same_traffic():
    assert traffic.service_traffic(7, 42) == traffic.service_traffic(7, 42)


def test_seed_changes_traffic():
    a, b = traffic.service_traffic(0, 42), traffic.service_traffic(1, 42)
    assert a.points != b.points
    assert a.warm_after != b.warm_after


def test_points_cover_every_stratum():
    t = traffic.service_traffic(3, 42)
    n = traffic.COLD_POINTS
    assert len(t.points) == n
    lo, hi = traffic.RHO
    cells = sorted(int((rho - lo) / (hi - lo) * n) for rho, _ in t.points)
    assert cells == list(range(n))
    assert all(traffic.QUANTUM[0] <= q <= traffic.QUANTUM[1]
               for _, q in t.points)


def test_warm_replays_only_answered_requests():
    t = traffic.service_traffic(5, 42)
    assert len(t.warm_after) == 42
    for i, warm in enumerate(t.warm_after):
        assert all(0 <= j <= i for j in warm)
    assert len(set(t.checked)) == traffic.CHECKED_POINTS


def test_every_request_replayed_warm_per_cold_times():
    for seed in range(5):
        t = traffic.service_traffic(seed, 42)
        replays = Counter(j for warm in t.warm_after for j in warm)
        assert replays == {j: traffic.WARM_PER_COLD for j in range(42)}
