"""Scenario files: the JSON schema driving every command.

A scenario bundles the ROI, the available LiDAR models, how many of each to
place, the mounting-pose box bounds, the colony settings, and the detection
trial settings.  Angles may be written as plain numbers (radians), tagged
objects ``{"deg": 15}`` / ``{"rad": 0.26}``, or suffixed strings ``"15deg"`` /
``"0.26rad"``; the canonical serialized form is always radians.

Parsing failures raise :class:`ScenarioError` carrying a stable machine code
(e.g. ``GRID_NOT_DIVISIBLE``) that the command line surfaces verbatim.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bees import AbcParams
from .cost import decision_bounds
from .geometry import (
    Box,
    GridNotDivisibleError,
    GridTooLargeError,
    LidarModel,
    PoseBounds,
    PoseConfig,
    RoiSpec,
    VoxelGrid,
    build_voxel_grid,
)
from .odr import OdrSettings

__all__ = [
    "ScenarioError",
    "Scenario",
    "parse_angle",
    "parse_pose",
    "pose_dict",
    "parse_scenario",
    "read_json",
    "load_scenario",
    "canonical_dict",
    "scenario_digest",
    "with_seed",
]

SCHEMA_VERSION = 1

# Most sensors one placement may hold: every sensor adds a digit per voxel
# and five decision variables.
MAX_SENSORS = 64


class ScenarioError(ValueError):
    """Scenario validation failure with a stable machine-parsable code."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything a run needs; see the README for the JSON schema."""

    roi: RoiSpec
    models: dict[str, LidarModel]
    lidars: tuple[tuple[str, int], ...]
    bounds: PoseBounds
    abc: AbcParams
    odr: OdrSettings
    grid: VoxelGrid = field(repr=False)  # ``roi`` voxelized once, when parsed

    def model_sequence(self) -> tuple[LidarModel, ...]:
        """One model per placed sensor, expanded in scenario order."""
        out: list[LidarModel] = []
        for name, count in self.lidars:
            out.extend([self.models[name]] * count)
        return tuple(out)


def _number(value, context: str, code: str = "SCHEMA_FIELD") -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(code, f"{context} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(code, f"{context} is out of range: {value!r}") from None


def _integer(value, context: str) -> int:
    if not _number(value, context).is_integer():
        raise ScenarioError("SCHEMA_FIELD", f"{context} must be an integer, got {value!r}")
    return int(value)


def _bool(value, context: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError("SCHEMA_FIELD", f"{context} must be true or false, got {value!r}")
    return value


def _list(value, context: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError("SCHEMA_FIELD", f"{context} must be a list")
    return value


# A grid error keeps its own code, whatever code the caller passes.
_GRID_CODES = {GridNotDivisibleError: "GRID_NOT_DIVISIBLE", GridTooLargeError: "GRID_TOO_LARGE"}


def _build(factory, context: str, *args, code: str = "SCHEMA_INVALID", **kwargs):
    """``factory(*args, **kwargs)``, reporting its ``ValueError`` as ``code``."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(_GRID_CODES.get(type(exc), code), f"{context}: {exc}") from exc


def _fields(data, context: str, parsers: dict, required=()) -> dict:
    """The JSON object ``data``'s fields, each parsed as ``parsers[name](value, path)``.

    A field without a parser is rejected; absent optional fields are left out.
    """
    prefix = f"{context}." if context else ""
    for name in required:
        if not isinstance(data, dict) or name not in data:
            raise ScenarioError("SCHEMA_FIELD", f"missing {prefix}{name}")
    if not isinstance(data, dict):
        raise ScenarioError("SCHEMA_FIELD", f"{context} must be an object")
    for name in data:
        if name not in parsers:
            raise ScenarioError("SCHEMA_FIELD", f"unknown field {prefix}{name}")
    return {name: parse(data[name], prefix + name) for name, parse in parsers.items() if name in data}


def parse_angle(value, context: str = "angle") -> float:
    """Finite angle in radians from a number, ``{"deg"|"rad": x}``, or ``"15deg"``."""
    angle = _angle(value, context)
    if not math.isfinite(angle):
        raise ScenarioError("ANGLE_INVALID", f"{context} must be finite, got {value!r}")
    return angle


def _angle(value, context: str) -> float:
    if isinstance(value, dict):
        if set(value) == {"deg"}:
            return math.radians(_number(value["deg"], f"{context}.deg", "ANGLE_INVALID"))
        if set(value) == {"rad"}:
            return _number(value["rad"], f"{context}.rad", "ANGLE_INVALID")
        raise ScenarioError("ANGLE_INVALID", f"{context} needs a single deg/rad key, got {value!r}")
    if isinstance(value, str):
        text = value.strip().lower()
        for suffix, factor in (("deg", math.pi / 180.0), ("rad", 1.0)):
            # float() would also read "1_5" as 15 and non-ASCII digits
            if text.endswith(suffix) and value.isascii() and "_" not in value:
                try:
                    return float(text[: -len(suffix)]) * factor
                except ValueError:
                    break
        message = f"{context} needs an ASCII number with a deg/rad suffix, got {value!r}"
        raise ScenarioError("ANGLE_INVALID", message)
    return _number(value, context, "ANGLE_INVALID")


def _as_is(value, context: str):
    return value


def _vec(value, context: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioError("SCHEMA_FIELD", f"{context} must be a 3-element list")
    return [_number(v, context) for v in value]


def _box(data, context: str) -> Box:
    box = _fields(data, context, {"min": _vec, "max": _vec}, ("min", "max"))
    return _build(Box, context, minimum=box["min"], maximum=box["max"])


def _boxes(value, context: str) -> tuple[Box, ...]:
    return tuple(_box(box, f"{context}[{i}]") for i, box in enumerate(_list(value, context)))


# Field tables: each JSON field an object takes, with its parser.  The parsed
# object holds each field under the same name, and :func:`canonical_dict` and
# :func:`pose_dict` write the fields back from these tables.  The pose fields
# run in ``PoseConfig.as_vector()`` order.
_POSE_FIELDS = {"position": _vec, "yaw": parse_angle, "pitch": parse_angle, "roll": parse_angle}
_ROI_FIELDS = {"extent": _vec, "resolution": _vec, "excluded_boxes": _boxes}
_ABC_FIELDS = {"num_bees": _integer, "max_iterations": _integer, "abandonment_threshold": _integer,
               "rng_seed": _integer, "mutate_all_dims": _bool}
_ODR_FIELDS = {"object_dims": _vec, "placement_region": _box, "trials": _integer, "threshold": _integer}


def parse_pose(data, context: str = "pose") -> PoseConfig:
    """Pose from ``{"position": [x,y,z], "yaw": a, "pitch": b, "roll": c}``.

    Omitted angles default to zero; angle values take any accepted form.
    """
    return _build(PoseConfig, context, **_fields(data, context, _POSE_FIELDS, ("position",)))


def _parse_bound_vector(value, context: str) -> PoseConfig:
    if not isinstance(value, (list, tuple)) or len(value) != 6:
        raise ScenarioError("SCHEMA_FIELD", f"{context} must list [x, y, z, yaw, pitch, roll]")
    return parse_pose(dict(zip(_POSE_FIELDS, [value[:3], *value[3:]])), context)


def _parse_roi(data, context: str) -> tuple[RoiSpec, VoxelGrid]:
    roi = _build(RoiSpec, context, **_fields(data, context, _ROI_FIELDS, ("extent", "resolution")))
    grid = build_voxel_grid(roi)
    if grid.num_active == 0:
        raise ScenarioError("SCHEMA_INVALID", f"{context}: the excluded boxes cover every voxel center")
    return roi, grid


def _parse_model(data, context: str) -> LidarModel:
    def beam_pitches(value, path):
        pitches = [parse_angle(v, f"{path}[{i}]") for i, v in enumerate(_list(value, path))]
        return _build(LidarModel, context, beam_pitches=np.asarray(pitches, dtype=float))

    def evenly_spaced(value, path):
        parsers = {"count": _integer, "start": parse_angle, "stop": parse_angle}
        spec = _fields(value, path, parsers, ("count", "start", "stop"))
        return _build(LidarModel.evenly_spaced, context, spec["count"], spec["start"], spec["stop"])

    forms = _fields(data, context, {"beam_pitches": beam_pitches, "evenly_spaced": evenly_spaced})
    if len(forms) != 1:
        raise ScenarioError("SCHEMA_FIELD", f"{context} needs exactly one of beam_pitches, evenly_spaced")
    return next(iter(forms.values()))


def _parse_models(data, context: str) -> dict[str, LidarModel]:
    if not isinstance(data, dict) or not data:
        raise ScenarioError("SCHEMA_FIELD", f"{context} must map at least one name to a model")
    return {name: _parse_model(spec, f"{context}.{name}") for name, spec in data.items()}


def _parse_lidars(data, context: str) -> tuple[tuple[str, int], ...]:
    """``(model name, count)`` pairs; :func:`parse_scenario` looks the names up."""
    if not isinstance(data, list) or not data:
        raise ScenarioError("SCHEMA_FIELD", f"{context} must be a non-empty list")
    lidars = []
    for i, entry in enumerate(data):
        lidar = _fields(entry, f"{context}[{i}]", {"model": _as_is, "count": _integer}, ("model",))
        count = lidar.get("count", 1)
        if count < 1:
            raise ScenarioError("SCHEMA_INVALID", f"{context}[{i}].count must be >= 1")
        lidars.append((lidar["model"], count))
    if sum(count for _, count in lidars) > MAX_SENSORS:
        raise ScenarioError("SCHEMA_INVALID", f"{context} place more than {MAX_SENSORS} sensors")
    return tuple(lidars)


def _parse_bounds(data, context: str) -> PoseBounds:
    parsers = {"lower": _parse_bound_vector, "upper": _parse_bound_vector}
    limits = _fields(data, context, parsers, ("lower", "upper"))
    bounds = _build(PoseBounds, context, **limits, code="BOUNDS_INVERTED")
    _build(decision_bounds, context, bounds, 1)
    return bounds


def _parse_abc(data, context: str) -> AbcParams:
    return _build(AbcParams, context, **_fields(data, context, _ABC_FIELDS, ("num_bees", "max_iterations")))


def _parse_odr(data, context: str) -> OdrSettings:
    return _build(OdrSettings, context, **_fields(data, context, _ODR_FIELDS))


def parse_scenario(data: dict) -> Scenario:
    """Validate a scenario dict and build the typed configuration."""
    if not isinstance(data, dict):
        raise ScenarioError("SCHEMA_INVALID", "scenario must be a JSON object")
    version = data.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ScenarioError(
            "SCHEMA_VERSION", f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
        )
    # sections in reading order; an absent odr reads as {}, as every ODR setting has a default
    parsers = {
        "schema_version": _as_is, "roi": _parse_roi, "models": _parse_models,
        "lidars": _parse_lidars, "bounds": _parse_bounds, "abc": _parse_abc, "odr": _parse_odr,
    }
    sections = _fields({"odr": {}, **data}, "", parsers, ("roi", "models", "lidars", "bounds", "abc"))
    del sections["schema_version"]
    sections["roi"], grid = sections["roi"]
    for i, (name, _) in enumerate(sections["lidars"]):
        if not isinstance(name, str) or name not in sections["models"]:
            raise ScenarioError("MODEL_UNKNOWN", f"lidars[{i}] references unknown model {name!r}")
    _build(sections["odr"].corner_region, "odr", sections["roi"].extent)
    return Scenario(**sections, grid=grid)


def read_json(path, code: str):
    """Parsed content of the JSON file at ``path``.

    An unreadable file, or text that is not UTF-8, not JSON, or nested too
    deeply to parse, raises :class:`ScenarioError` with the role's ``code``.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(code, f"cannot read {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(code, f"{path} is not valid JSON: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Parse a scenario JSON file."""
    return parse_scenario(read_json(path, "SCHEMA_INVALID"))


def _json(value):
    """JSON form of a parsed value: arrays as lists of floats, tuples as lists, boxes as min/max."""
    if isinstance(value, Box):
        return {"min": _json(value.minimum), "max": _json(value.maximum)}
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.astype(float).tolist()
    return value


def _record(obj, names) -> dict:
    """``obj``'s fields ``names`` in JSON form; ``None`` left out."""
    values = {name: getattr(obj, name) for name in names}
    return {name: _json(value) for name, value in values.items() if value is not None}


def pose_dict(pose: PoseConfig) -> dict:
    """JSON object of ``pose``, angles in radians; :func:`parse_pose` reads it back exactly."""
    return _record(pose, _POSE_FIELDS)


def canonical_dict(scenario: Scenario) -> dict:
    """Canonical plain-JSON form: radians everywhere, stable field set.

    roi, abc and odr are written from their field tables.  Parsing the canonical
    form reproduces the scenario exactly: parse -> serialize -> parse is the identity.
    """
    bounds, models = scenario.bounds, sorted(scenario.models.items())
    return {
        "schema_version": SCHEMA_VERSION,
        "roi": _record(scenario.roi, _ROI_FIELDS),
        "models": {name: {"beam_pitches": _json(m.beam_pitches)} for name, m in models},
        "lidars": [{"model": name, "count": count} for name, count in scenario.lidars],
        "bounds": {"lower": _json(bounds.lower.as_vector()), "upper": _json(bounds.upper.as_vector())},
        "abc": _record(scenario.abc, _ABC_FIELDS),
        "odr": _record(scenario.odr, _ODR_FIELDS),
    }


def scenario_digest(scenario: Scenario) -> str:
    """SHA-256 of the canonical compact JSON; identifies scenario content.

    The colony seed is part of the content, so a seed override yields a new
    digest while identical scenario+seed runs share one.
    """
    compact = json.dumps(canonical_dict(scenario), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(compact.encode("utf-8")).hexdigest()


def with_seed(scenario: Scenario, seed: int | None) -> Scenario:
    """Scenario with the colony seed overridden (no-op for ``None``)."""
    if seed is None:
        return scenario
    return replace(scenario, abc=replace(scenario.abc, rng_seed=int(seed)))
