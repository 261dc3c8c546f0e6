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
from .odr import ObjectSpec, OdrSettings

__all__ = [
    "ScenarioError",
    "Scenario",
    "parse_angle",
    "parse_pose",
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

    @property
    def num_lidars(self) -> int:
        return sum(count for _, count in self.lidars)

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


def parse_angle(value) -> float:
    """Angle in radians from a number, ``{"deg"|"rad": x}``, or ``"15deg"``."""
    if isinstance(value, dict):
        if set(value) == {"deg"}:
            return math.radians(_number(value["deg"], "angle", "ANGLE_INVALID"))
        if set(value) == {"rad"}:
            return _number(value["rad"], "angle", "ANGLE_INVALID")
        raise ScenarioError("ANGLE_INVALID", f"angle object needs a single deg/rad key: {value!r}")
    if isinstance(value, str):
        text = value.strip().lower()
        for suffix, factor in (("deg", math.pi / 180.0), ("rad", 1.0)):
            if text.endswith(suffix):
                try:
                    return float(text[: -len(suffix)]) * factor
                except ValueError:
                    break
        raise ScenarioError("ANGLE_INVALID", f"angle strings need a deg/rad suffix: {value!r}")
    return _number(value, "angle", "ANGLE_INVALID")


def _require(mapping: dict, key: str, context: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ScenarioError("SCHEMA_FIELD", f"missing {context}.{key}")
    return mapping[key]


def _vec(value, context: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioError("SCHEMA_FIELD", f"{context} must be a 3-element list")
    return [_number(v, context) for v in value]


def _box(data, context: str) -> Box:
    lo = _vec(_require(data, "min", context), f"{context}.min")
    hi = _vec(_require(data, "max", context), f"{context}.max")
    return _build(Box, context, minimum=lo, maximum=hi)


def parse_pose(data, context: str = "pose") -> PoseConfig:
    """Pose from ``{"position": [x,y,z], "yaw": a, "pitch": b, "roll": c}``.

    Omitted angles default to zero; angle values take any accepted form.
    """
    position = _vec(_require(data, "position", context), f"{context}.position")
    angles = {
        name: _build(parse_angle, f"{context}.{name}", data.get(name, 0.0), code="ANGLE_INVALID")
        for name in ("yaw", "pitch", "roll")
    }
    return _build(PoseConfig, context, position=position, **angles)


def _parse_bound_vector(value, context: str) -> PoseConfig:
    if not isinstance(value, (list, tuple)) or len(value) != 6:
        raise ScenarioError(
            "SCHEMA_FIELD", f"{context} must list [x, y, z, yaw, pitch, roll]"
        )
    yaw, pitch, roll = (parse_angle(v) for v in value[3:])
    position = [_number(v, context) for v in value[:3]]
    return _build(PoseConfig, context, position=position, yaw=yaw, pitch=pitch, roll=roll)


def _parse_model(data, name: str) -> LidarModel:
    context = f"models.{name}"
    if not isinstance(data, dict):
        raise ScenarioError("SCHEMA_FIELD", f"{context} must be an object")
    if "beam_pitches" in data:
        pitches = [parse_angle(v) for v in _list(data["beam_pitches"], f"{context}.beam_pitches")]
        return _build(LidarModel, context, beam_pitches=np.asarray(pitches, dtype=float))
    if "evenly_spaced" in data:
        spec = data["evenly_spaced"]
        count = _integer(_require(spec, "count", f"{context}.evenly_spaced"), f"{context}.count")
        start = parse_angle(_require(spec, "start", f"{context}.evenly_spaced"))
        stop = parse_angle(_require(spec, "stop", f"{context}.evenly_spaced"))
        return _build(LidarModel.evenly_spaced, context, count, start, stop)
    raise ScenarioError(
        "SCHEMA_FIELD", f"{context} needs either beam_pitches or evenly_spaced"
    )


def parse_scenario(data: dict) -> Scenario:
    """Validate a scenario dict and build the typed configuration."""
    if not isinstance(data, dict):
        raise ScenarioError("SCHEMA_INVALID", "scenario must be a JSON object")
    version = data.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ScenarioError(
            "SCHEMA_VERSION", f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
        )

    roi_data = _require(data, "roi", "scenario")
    extent = _vec(_require(roi_data, "extent", "roi"), "roi.extent")
    resolution = _vec(_require(roi_data, "resolution", "roi"), "roi.resolution")
    boxes_data = _list(roi_data.get("excluded_boxes", []), "roi.excluded_boxes")
    boxes = tuple(_box(box, f"roi.excluded_boxes[{i}]") for i, box in enumerate(boxes_data))
    roi = _build(RoiSpec, "roi", extent=extent, resolution=resolution, excluded_boxes=boxes)
    grid = build_voxel_grid(roi)
    if grid.num_active == 0:
        raise ScenarioError("SCHEMA_INVALID", "roi: the excluded boxes cover every voxel center")

    models_data = _require(data, "models", "scenario")
    if not isinstance(models_data, dict) or not models_data:
        raise ScenarioError("SCHEMA_FIELD", "models must map at least one name to a model")
    models = {name: _parse_model(spec, name) for name, spec in models_data.items()}

    lidars_data = _require(data, "lidars", "scenario")
    if not isinstance(lidars_data, list) or not lidars_data:
        raise ScenarioError("SCHEMA_FIELD", "lidars must be a non-empty list")
    lidars = []
    for i, entry in enumerate(lidars_data):
        name = _require(entry, "model", f"lidars[{i}]")
        if not isinstance(name, str) or name not in models:
            raise ScenarioError("MODEL_UNKNOWN", f"lidars[{i}] references unknown model {name!r}")
        count = _integer(entry.get("count", 1), f"lidars[{i}].count")
        if count < 1:
            raise ScenarioError("SCHEMA_INVALID", f"lidars[{i}].count must be >= 1")
        lidars.append((name, count))
    if sum(count for _, count in lidars) > MAX_SENSORS:
        raise ScenarioError("SCHEMA_INVALID", f"lidars place more than {MAX_SENSORS} sensors")

    bounds_data = _require(data, "bounds", "scenario")
    lower = _parse_bound_vector(_require(bounds_data, "lower", "bounds"), "bounds.lower")
    upper = _parse_bound_vector(_require(bounds_data, "upper", "bounds"), "bounds.upper")
    bounds = _build(PoseBounds, "bounds", lower=lower, upper=upper, code="BOUNDS_INVERTED")
    _build(decision_bounds, "bounds", bounds, 1)

    abc_data = _require(data, "abc", "scenario")
    abc = _build(
        AbcParams,
        "abc",
        num_bees=_integer(_require(abc_data, "num_bees", "abc"), "abc.num_bees"),
        max_iterations=_integer(_require(abc_data, "max_iterations", "abc"), "abc.max_iterations"),
        abandonment_threshold=_integer(
            abc_data.get("abandonment_threshold", 100), "abc.abandonment_threshold"
        ),
        rng_seed=_integer(abc_data.get("rng_seed", 0), "abc.rng_seed"),
        mutate_all_dims=_bool(abc_data.get("mutate_all_dims", False), "abc.mutate_all_dims"),
    )

    odr_data = data.get("odr", {})
    if not isinstance(odr_data, dict):
        raise ScenarioError("SCHEMA_FIELD", "odr must be an object")
    region = None
    if "placement_region" in odr_data:
        region = _box(odr_data["placement_region"], "odr.placement_region")
    obj = _build(
        ObjectSpec,
        "odr",
        dims=_vec(odr_data.get("object_dims", [0.5, 0.5, 1.7]), "odr.object_dims"),
        placement_region=region,
    )
    _build(obj.corner_region, "odr", roi.extent)
    settings = _build(
        OdrSettings,
        "odr",
        obj=obj,
        trials=_integer(odr_data.get("trials", 1000), "odr.trials"),
        threshold=_integer(odr_data.get("threshold", 1), "odr.threshold"),
    )

    return Scenario(
        roi=roi, models=models, lidars=tuple(lidars), bounds=bounds, abc=abc, odr=settings, grid=grid
    )


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


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values, dtype=float)]


def canonical_dict(scenario: Scenario) -> dict:
    """Canonical plain-JSON form: radians everywhere, stable field set.

    Parsing the canonical form reproduces the scenario exactly, so
    parse -> serialize -> parse is the identity.
    """
    out = {
        "schema_version": SCHEMA_VERSION,
        "roi": {
            "extent": _floats(scenario.roi.extent),
            "resolution": _floats(scenario.roi.resolution),
            "excluded_boxes": [
                {"min": _floats(b.minimum), "max": _floats(b.maximum)}
                for b in scenario.roi.excluded_boxes
            ],
        },
        "models": {
            name: {"beam_pitches": _floats(model.beam_pitches)}
            for name, model in sorted(scenario.models.items())
        },
        "lidars": [{"model": name, "count": count} for name, count in scenario.lidars],
        "bounds": {
            "lower": _floats(scenario.bounds.lower.as_vector()),
            "upper": _floats(scenario.bounds.upper.as_vector()),
        },
        "abc": {
            "num_bees": scenario.abc.num_bees,
            "max_iterations": scenario.abc.max_iterations,
            "abandonment_threshold": scenario.abc.abandonment_threshold,
            "rng_seed": scenario.abc.rng_seed,
            "mutate_all_dims": scenario.abc.mutate_all_dims,
        },
        "odr": {
            "object_dims": _floats(scenario.odr.obj.dims),
            "trials": scenario.odr.trials,
            "threshold": scenario.odr.threshold,
        },
    }
    region = scenario.odr.obj.placement_region
    if region is not None:
        out["odr"]["placement_region"] = {
            "min": _floats(region.minimum),
            "max": _floats(region.maximum),
        }
    return out


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
