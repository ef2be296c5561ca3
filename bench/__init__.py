"""Repository benchmark: four workloads, end-to-end metrics, a per-layer ledger.

Run it with ``python -m bench run`` (end-to-end metrics, untraced),
``python -m bench trace`` (per-layer ledger) and ``python -m bench compare``
(parent vs change).  See ``bench/README.md`` for the workloads, the metric
map and a baseline.
"""
