#!/usr/bin/env python
"""Regenerate docs/api.md from the package's public (__all__) surface."""

import importlib
import inspect
import io
import pathlib

PACKAGES = [
    ("repro", "Top-level convenience exports"),
    ("repro.core", "The paper's model and its extensions"),
    ("repro.phasetype", "Phase-type distributions"),
    ("repro.markov", "Markov-chain machinery"),
    ("repro.qbd", "Matrix-geometric QBD solver"),
    ("repro.kernels", "Dense/sparse backend selection and sparse kernels"),
    ("repro.metrics", "Distribution-first metrics: quantiles, tails, SLOs"),
    ("repro.pipeline", "Staged solve pipeline: workspaces, warm starts, stacked extraction"),
    ("repro.policy", "Scheduling policies: cycle views, registry, variants"),
    ("repro.sim", "Discrete-event simulation"),
    ("repro.resilience", "Fallback chains, budgets, fault injection"),
    ("repro.obs", "Observability: span tracing, metrics, run reports"),
    ("repro.workloads", "Presets, sweeps, traces"),
    ("repro.scenario", "Declarative scenarios: spec tree, presets, runner"),
    ("repro.service", "Scenario service: daemon, result store, worker pool"),
    ("repro.analysis", "Results, comparison, reporting"),
    ("repro.serialize", "JSON configuration round-trips"),
    ("repro.errors", "Exception hierarchy"),
]


def main() -> None:
    out = io.StringIO()
    out.write("# Public API reference\n\n")
    out.write("One line per exported name (the `__all__` surface); see "
              "the docstrings for full signatures and semantics.  "
              "Generated by `python scripts/gen_api_docs.py`.\n")
    for modname, blurb in PACKAGES:
        mod = importlib.import_module(modname)
        out.write(f"\n## `{modname}` — {blurb}\n\n")
        for name in getattr(mod, "__all__", []):
            if name == "__version__":
                continue
            obj = getattr(mod, name)
            doc = (inspect.getdoc(obj) or "").strip().splitlines()
            first = doc[0] if doc else ""
            kind = ("class" if inspect.isclass(obj)
                    else "function" if callable(obj) else "constant")
            out.write(f"- **`{name}`** ({kind}) — {first}\n")
    root = pathlib.Path(__file__).resolve().parents[1]
    (root / "docs" / "api.md").write_text(out.getvalue())
    print(f"wrote docs/api.md ({len(out.getvalue())} bytes)")


if __name__ == "__main__":
    main()
