"""Limit-case validation: the gang model collapses to known queues.

With a single class, the vacation is exactly the overhead ``C_0``;
driving the overhead to zero and the quantum to infinity recovers the
classical M/M/c (and M/PH/c) queue, whose mean job counts are known in
closed form.  These tests anchor the entire pipeline — state space,
generator, R matrix, boundary, measures — to textbook results.
"""

import math

import pytest

from repro.core import ClassConfig, GangSchedulingModel, SystemConfig
from repro.phasetype import erlang, exponential


def mmc_mean_jobs(lam, mu, c):
    rho = lam / (c * mu)
    a = lam / mu
    p0 = 1.0 / (sum(a ** k / math.factorial(k) for k in range(c))
                + a ** c / (math.factorial(c) * (1 - rho)))
    lq = p0 * a ** c * rho / (math.factorial(c) * (1 - rho) ** 2)
    return lq + a


def single_class(c, *, lam, mu, quantum_mean=50.0, overhead_mean=1e-4,
                 service=None):
    return SystemConfig(processors=c, classes=(
        ClassConfig(
            partition_size=1,
            arrival=exponential(lam),
            service=service or exponential(mu),
            quantum=exponential(mean=quantum_mean),
            overhead=exponential(mean=overhead_mean),
        ),
    ))


class TestMMCLimit:
    @pytest.mark.parametrize("lam,mu,c", [
        (0.7, 1.0, 1),
        (1.5, 1.0, 2),
        (3.0, 1.0, 4),
        (2.5, 0.8, 4),
        (6.0, 1.0, 8),
    ])
    def test_matches_erlang_c(self, lam, mu, c):
        cfg = single_class(c, lam=lam, mu=mu)
        sol = GangSchedulingModel(cfg).solve()
        assert sol.mean_jobs(0) == pytest.approx(mmc_mean_jobs(lam, mu, c),
                                                 rel=2e-3)

    def test_overhead_pushes_above_mmc(self):
        """A visible overhead strictly increases congestion."""
        lam, mu, c = 1.5, 1.0, 2
        sol = GangSchedulingModel(
            single_class(c, lam=lam, mu=mu, overhead_mean=0.5)).solve()
        assert sol.mean_jobs(0) > mmc_mean_jobs(lam, mu, c)

    def test_mph_c_limit_erlang_service(self):
        """M/E2/2 against a brute-force truncated CTMC of the same queue.

        The reference chain is assembled directly from first principles
        (state = (queue length, stage of job on server 1, stage of job
        on server 2)) with no gang-scheduling machinery involved.
        """
        import numpy as np

        from tests.markov.ctmc_oracle import solve_stationary_gth

        lam, c, stages, r = 1.2, 2, 2, 2.0   # stage rate = k * mu = 2
        cfg = single_class(c, lam=lam, mu=1.0, service=erlang(2, mean=1.0))
        sol = GangSchedulingModel(cfg).solve()

        # Brute force. State: (n, s1, s2) with n jobs in system; s_i in
        # {0 (idle), 1, 2} is the Erlang stage on server i; servers fill
        # in order (s2 occupied only if s1 is).
        cap = 60
        states = []
        for n in range(cap + 1):
            busy = min(n, c)
            if busy == 0:
                states.append((n, 0, 0))
            elif busy == 1:
                states.extend((n, s1, 0) for s1 in (1, 2))
            else:
                states.extend((n, s1, s2) for s1 in (1, 2) for s2 in (1, 2))
        idx = {s: i for i, s in enumerate(states)}
        Q = np.zeros((len(states), len(states)))

        def add(a, b, rate):
            Q[idx[a], idx[b]] += rate

        for (n, s1, s2) in states:
            # Arrival.
            if n < cap:
                if n == 0:
                    add((n, s1, s2), (n + 1, 1, 0), lam)
                elif n == 1:
                    add((n, s1, s2), (n + 1, s1, 1), lam)
                else:
                    add((n, s1, s2), (n + 1, s1, s2), lam)
            # Stage advances / completions per busy server.
            for server, s in ((1, s1), (2, s2)):
                if s == 0:
                    continue
                if s < stages:      # advance to next stage
                    t = (n, s + 1, s2) if server == 1 else (n, s1, s + 1)
                    add((n, s1, s2), t, r)
                else:               # completion
                    if n > c:       # refill from queue at stage 1
                        t = (n - 1, 1, s2) if server == 1 else (n - 1, s1, 1)
                    elif n == 2:    # freed server idles; survivor on s1 slot
                        t = (n - 1, s2 if server == 1 else s1, 0)
                    else:           # n == 1: system empties
                        t = (0, 0, 0)
                    add((n, s1, s2), t, r)
        np.fill_diagonal(Q, 0.0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        pi = solve_stationary_gth(Q)
        ref_mean = sum(n * pi[i] for i, (n, _, _) in enumerate(states))
        assert sol.mean_jobs(0) == pytest.approx(ref_mean, rel=5e-3)


class TestVacationQueueExactness:
    """L=1 with a visible overhead is solved exactly (no approximation)."""

    def test_matches_decomposed_simulation(self):
        from repro.sim.decomposed import VacationServerSimulation
        cfg = SystemConfig(processors=2, classes=(
            ClassConfig.markovian(1, arrival_rate=1.0, service_rate=1.0,
                                  quantum_mean=2.0, overhead_mean=0.3),
        ))
        sol = GangSchedulingModel(cfg).solve()
        cls = cfg.classes[0]
        sim = VacationServerSimulation(
            2, cls.arrival, cls.service, cls.quantum, cls.overhead,
            seed=11, warmup=2000.0)
        rep = sim.run(60_000.0)
        assert sol.mean_jobs(0) == pytest.approx(rep.mean_jobs[0], rel=0.05)
