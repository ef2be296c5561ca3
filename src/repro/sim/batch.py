"""Batch arrivals — the extension the paper sketches in Section 3.

"Our mathematical analysis is easily extended to handle batch arrivals
and/or departures as long as the batch sizes are bounded."  The
analytic extension changes the QBD into a banded (M/G/1-type) process;
this module provides the *simulation* side: each arrival epoch brings
a random, bounded number of jobs, so batch effects on gang scheduling
can be measured directly and the single-arrival model's adequacy
assessed (see ``tests/sim/test_batch.py``).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.config import SystemConfig
from repro.errors import ValidationError
from repro.sim.gang import GangSimulation
from repro.sim.jobs import Job

__all__ = ["BatchArrivalGangSimulation"]


class BatchArrivalGangSimulation(GangSimulation):
    """Gang scheduling with batched job arrivals.

    Parameters
    ----------
    config:
        The usual system description; its per-class arrival PH now
        governs the *epochs* at which batches arrive.
    batch_pmfs:
        One probability vector per class: ``batch_pmfs[p][k-1]`` is the
        probability an epoch brings ``k`` jobs (sizes ``1..len(pmf)``).
        Mean offered load per class becomes
        ``lambda_p * E[batch] / mu_p`` accordingly.
    """

    def __init__(self, config: SystemConfig,
                 batch_pmfs: Sequence[Sequence[float]], *,
                 seed: int | None = None, warmup: float = 0.0):
        super().__init__(config, seed=seed, warmup=warmup)
        if len(batch_pmfs) != config.num_classes:
            raise ValidationError(
                f"{len(batch_pmfs)} batch pmfs for {config.num_classes} classes")
        self._batch_pmfs = []
        for p, pmf in enumerate(batch_pmfs):
            arr = np.asarray(pmf, dtype=np.float64)
            if arr.ndim != 1 or arr.size == 0 or np.any(arr < 0) \
                    or abs(arr.sum() - 1.0) > 1e-9:
                raise ValidationError(
                    f"batch pmf for class {p} must be a probability vector")
            self._batch_pmfs.append(arr / arr.sum())

    def _on_arrival(self, p: int) -> None:
        cls = self.config.classes[p]
        now = self.sim.now
        pmf = self._batch_pmfs[p]
        size = 1 + int(self._rng(f"batch.{p}").choice(pmf.size, p=pmf))
        for _ in range(size):
            self._job_counter += 1
            job = Job(
                job_id=self._job_counter, class_id=p, arrival_time=now,
                service_requirement=self._sample(cls.service, f"service.{p}"),
            )
            self.stats[p].on_arrival(now)
            if len(self._active[p]) < self.config.partitions(p):
                self._active[p].append(job)
                if self._current_class == p:
                    self._start_job(job)
            else:
                self._queue[p].append(job)
        self.sim.schedule(self._sample(cls.arrival, f"arrival.{p}"),
                          self._on_arrival, p)
        if self._parked is not None:
            self._unpark()
