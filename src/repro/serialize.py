"""JSON (de)serialization of model configurations.

Real deployments keep scheduler configurations in files; this module
round-trips :class:`~repro.phasetype.PhaseType`,
:class:`~repro.core.config.ClassConfig` and
:class:`~repro.core.config.SystemConfig` through plain JSON-compatible
dictionaries, and the CLI's ``--config`` flag consumes the same format.

Format example::

    {
      "processors": 8,
      "empty_queue_policy": "switch",
      "classes": [
        {
          "name": "interactive",
          "partition_size": 1,
          "arrival":  {"kind": "exponential", "rate": 2.0},
          "service":  {"kind": "erlang", "k": 2, "mean": 1.0},
          "quantum":  {"kind": "exponential", "mean": 1.0},
          "overhead": {"kind": "exponential", "mean": 0.01}
        }
      ]
    }

Distribution ``kind``s: ``exponential`` (``rate`` or ``mean``),
``erlang`` (``k`` + ``rate``/``mean``), ``hyperexponential``
(``probs`` + ``rates``), ``coxian`` (``rates`` +
``completion_probs``), or ``ph`` (raw ``alpha`` + ``S``).  Arbitrary
PH objects serialize as ``ph``.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.core.config import ClassConfig, SystemConfig
from repro.errors import ValidationError
from repro.phasetype import (
    PhaseType,
    coxian,
    erlang,
    exponential,
    hyperexponential,
)

__all__ = [
    "phase_type_to_dict",
    "phase_type_from_dict",
    "system_to_dict",
    "system_from_dict",
    "save_system",
    "load_system",
    "SCENARIO_SCHEMA_VERSION",
    "scenario_to_dict",
    "scenario_from_dict",
    "save_scenario",
    "load_scenario",
]

#: Maximum scenario schema version this reader understands.  The
#: loader accepts any version up to the current one and tolerates
#: unknown fields, so old readers reject genuinely newer files while
#: new readers keep consuming old ones.  Writers stamp the *lowest*
#: version that can express the scenario — non-default metric
#: selectors (``output.metrics`` beyond ``("mean",)``) need version 3,
#: a non-default scheduling policy needs version 2; everything else
#: stays version 1, keeping plain files byte-identical to pre-policy
#: output (and readable by old readers).
SCENARIO_SCHEMA_VERSION = 3


def phase_type_to_dict(dist: PhaseType) -> dict:
    """Serialize a PH distribution (always as the raw ``ph`` kind)."""
    return {
        "kind": "ph",
        "alpha": [float(x) for x in np.asarray(dist.alpha)],
        "S": [[float(x) for x in row] for row in np.asarray(dist.S)],
    }


def phase_type_from_dict(data: dict) -> PhaseType:
    """Build a PH distribution from its dictionary form."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValidationError(f"distribution spec must have a 'kind': {data!r}")
    kind = data["kind"]
    if kind == "exponential":
        if "rate" in data:
            return exponential(float(data["rate"]))
        return exponential(mean=float(data["mean"]))
    if kind == "erlang":
        k = int(data["k"])
        if "rate" in data:
            return erlang(k, rate=float(data["rate"]))
        return erlang(k, mean=float(data["mean"]))
    if kind == "hyperexponential":
        return hyperexponential([float(p) for p in data["probs"]],
                                [float(r) for r in data["rates"]])
    if kind == "coxian":
        return coxian([float(r) for r in data["rates"]],
                      [float(p) for p in data["completion_probs"]])
    if kind == "ph":
        return PhaseType(data["alpha"], data["S"])
    raise ValidationError(f"unknown distribution kind {kind!r}")


def system_to_dict(config: SystemConfig) -> dict:
    """Serialize a full system configuration."""
    return {
        "processors": config.processors,
        "empty_queue_policy": config.empty_queue_policy,
        "classes": [
            {
                "name": cls.name,
                "partition_size": cls.partition_size,
                "arrival": phase_type_to_dict(cls.arrival),
                "service": phase_type_to_dict(cls.service),
                "quantum": phase_type_to_dict(cls.quantum),
                "overhead": phase_type_to_dict(cls.overhead),
            }
            for cls in config.classes
        ],
    }


def system_from_dict(data: dict) -> SystemConfig:
    """Build a :class:`SystemConfig` from its dictionary form."""
    if not isinstance(data, dict):
        raise ValidationError("system spec must be a mapping")
    try:
        classes = tuple(
            ClassConfig(
                partition_size=int(spec["partition_size"]),
                arrival=phase_type_from_dict(spec["arrival"]),
                service=phase_type_from_dict(spec["service"]),
                quantum=phase_type_from_dict(spec["quantum"]),
                overhead=phase_type_from_dict(spec["overhead"]),
                name=str(spec.get("name", "")),
            )
            for spec in data["classes"]
        )
    except KeyError as exc:
        raise ValidationError(f"missing field in system spec: {exc}") from exc
    return SystemConfig(
        processors=int(data["processors"]),
        classes=classes,
        empty_queue_policy=str(data.get("empty_queue_policy", "switch")),
    )


# --------------------------------------------------------------------------
# Scenarios (versioned, forward-tolerant)
# --------------------------------------------------------------------------

def scenario_to_dict(scenario) -> dict:
    """Serialize a :class:`~repro.scenario.spec.Scenario`.

    The output is canonical: every field is emitted (including
    defaults), so ``dict -> Scenario -> dict`` is byte-stable for any
    dict this function produced.
    """
    from repro.scenario.spec import Scenario

    if not isinstance(scenario, Scenario):
        raise ValidationError(
            f"expected a Scenario, got {type(scenario).__name__}")
    sys_spec = scenario.system
    system: dict = {}
    if sys_spec.preset is not None:
        system["preset"] = sys_spec.preset
        system["args"] = dict(sys_spec.args)
    else:
        system["config"] = system_to_dict(sys_spec.config)
    if sys_spec.axis is not None:
        system["axis"] = {
            "parameter": sys_spec.axis.parameter,
            "values": [float(v) for v in sys_spec.axis.values],
        }
    # A non-default policy is the only version-2 feature; round-robin
    # (always normalized to ``policy=None`` by SystemSpec) is omitted
    # entirely so pre-policy files and hashes are reproduced exactly.
    if sys_spec.policy is not None:
        from repro.policy import policy_to_dict
        system["policy"] = policy_to_dict(sys_spec.policy)
    eng = scenario.engine
    out = scenario.output
    # Metric selectors beyond the default ``("mean",)`` are the only
    # version-3 feature; default-selector scenarios keep emitting the
    # legacy boolean observability toggle in the ``metrics`` slot, so
    # pre-distribution files, hashes and old readers are untouched.
    from repro.metrics.selectors import DEFAULT_METRICS
    wants_distributions = tuple(out.metrics) != DEFAULT_METRICS
    if wants_distributions:
        version = 3
    else:
        version = 2 if sys_spec.policy is not None else 1
    return {
        "schema": "repro-scenario",
        "version": version,
        "name": scenario.name,
        "description": scenario.description,
        "system": system,
        "engine": {
            "engine": eng.engine,
            "backend": eng.backend,
            "reduction": eng.reduction,
            "rmatrix_method": eng.rmatrix_method,
            "max_iterations": eng.max_iterations,
            "tol": eng.tol,
            "heavy_traffic_only": eng.heavy_traffic_only,
            "solve_budget": eng.solve_budget,
            "workers": eng.workers,
            "checkpoint": eng.checkpoint,
            # ``batch_points`` appears only when set, so files written
            # before the knob existed are reproduced byte-for-byte.
            **({"batch_points": eng.batch_points}
               if eng.batch_points else {}),
            "horizon": eng.horizon,
            "seed": eng.seed,
            "replications": eng.replications,
            "warmup_fraction": eng.warmup_fraction,
            "max_evaluations": eng.max_evaluations,
        },
        "output": {
            "measures": list(out.measures),
            "trace": out.trace,
            **({"metrics": list(out.metrics),
                **({"collect_metrics": True} if out.collect_metrics else {})}
               if wants_distributions
               else {"metrics": out.collect_metrics}),
        },
    }


#: ``EngineSpec`` field -> JSON coercion, for the tolerant loader.
_ENGINE_FIELD_TYPES = {
    "engine": str, "backend": str, "reduction": str, "rmatrix_method": str,
    "max_iterations": int, "tol": float, "heavy_traffic_only": bool,
    "horizon": float, "seed": int, "replications": int,
    "warmup_fraction": float, "max_evaluations": int,
    "batch_points": int,
    # Optional (None-able) fields.
    "workers": int, "checkpoint": str, "solve_budget": float,
}
_ENGINE_OPTIONAL = ("workers", "checkpoint", "solve_budget")


def _engine_from_dict(data: dict):
    from repro.scenario.spec import EngineSpec

    if not isinstance(data, dict):
        raise ValidationError(f"engine spec must be a mapping: {data!r}")
    kwargs = {}
    for name, coerce in _ENGINE_FIELD_TYPES.items():
        if name not in data:
            continue                    # absent -> default (tolerant)
        value = data[name]
        if value is None:
            if name not in _ENGINE_OPTIONAL:
                raise ValidationError(f"engine field {name!r} cannot be null")
            continue
        kwargs[name] = coerce(value)
    return EngineSpec(**kwargs)         # unknown fields ignored


def _system_from_dict(data: dict):
    from repro.scenario.spec import SweepAxis, SystemSpec

    if not isinstance(data, dict):
        raise ValidationError(f"system spec must be a mapping: {data!r}")
    axis = None
    if data.get("axis") is not None:
        spec = data["axis"]
        try:
            axis = SweepAxis(str(spec["parameter"]),
                             tuple(float(v) for v in spec["values"]))
        except KeyError as exc:
            raise ValidationError(
                f"missing field in sweep axis: {exc}") from exc
    policy = None
    if data.get("policy") is not None:
        from repro.policy import policy_from_dict
        policy = policy_from_dict(data["policy"])
    if "config" in data:
        return SystemSpec(config=system_from_dict(data["config"]),
                          axis=axis, policy=policy)
    if "preset" in data:
        return SystemSpec(preset=str(data["preset"]),
                          args=dict(data.get("args", {})),
                          axis=axis, policy=policy)
    raise ValidationError(
        "system spec needs either a 'preset' or a 'config'")


def _output_from_dict(data: dict):
    from repro.scenario.spec import OutputSpec

    if not isinstance(data, dict):
        raise ValidationError(f"output spec must be a mapping: {data!r}")
    kwargs = {}
    if "measures" in data:
        kwargs["measures"] = tuple(str(m) for m in data["measures"])
    if data.get("trace") is not None:
        kwargs["trace"] = str(data["trace"])
    if "metrics" in data:
        value = data["metrics"]
        if isinstance(value, bool):
            # v1/v2 files: ``metrics`` was the observability toggle.
            kwargs["collect_metrics"] = value
        else:
            kwargs["metrics"] = tuple(str(m) for m in value)
    if data.get("collect_metrics"):
        kwargs["collect_metrics"] = True
    return OutputSpec(**kwargs)


def scenario_from_dict(data: dict):
    """Build a :class:`~repro.scenario.spec.Scenario` from its dict form.

    Tolerant by design: unknown fields anywhere in the tree are
    ignored (forward compatibility), absent fields fall back to the
    spec defaults, and only a ``version`` *newer* than this reader is
    rejected.
    """
    from repro.scenario.spec import EngineSpec, OutputSpec, Scenario

    if not isinstance(data, dict):
        raise ValidationError("scenario spec must be a mapping")
    schema = data.get("schema", "repro-scenario")
    if schema != "repro-scenario":
        raise ValidationError(
            f"not a scenario file (schema {schema!r})")
    version = int(data.get("version", 1))
    if version > SCENARIO_SCHEMA_VERSION:
        raise ValidationError(
            f"scenario schema version {version} is newer than this "
            f"reader (max {SCENARIO_SCHEMA_VERSION}); upgrade repro")
    if "system" not in data:
        raise ValidationError("scenario spec needs a 'system' entry")
    return Scenario(
        name=str(data.get("name", "")),
        description=str(data.get("description", "")),
        system=_system_from_dict(data["system"]),
        engine=(_engine_from_dict(data["engine"])
                if "engine" in data else EngineSpec()),
        output=(_output_from_dict(data["output"])
                if "output" in data else OutputSpec()),
    )


def save_scenario(scenario, path: str | pathlib.Path) -> None:
    """Write a scenario to a JSON file (canonical form)."""
    pathlib.Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def load_scenario(path: str | pathlib.Path):
    """Read a scenario from a JSON file.

    Unreadable paths (missing file, directory, permissions) and
    malformed JSON both raise :class:`~repro.errors.ValidationError`,
    so operational mistakes surface as the CLI's standard one-line
    error instead of a traceback.
    """
    try:
        data = json.loads(pathlib.Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ValidationError(
            f"cannot read scenario file {path}: {exc}") from exc
    return scenario_from_dict(data)


def save_system(config: SystemConfig, path: str | pathlib.Path) -> None:
    """Write a configuration to a JSON file."""
    pathlib.Path(path).write_text(
        json.dumps(system_to_dict(config), indent=2) + "\n")


def load_system(path: str | pathlib.Path) -> SystemConfig:
    """Read a configuration from a JSON file.

    Unreadable paths and malformed JSON raise
    :class:`~repro.errors.ValidationError` (see :func:`load_scenario`).
    """
    try:
        data = json.loads(pathlib.Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ValidationError(
            f"cannot read config file {path}: {exc}") from exc
    return system_from_dict(data)
