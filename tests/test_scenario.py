import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lidarplace as lp
from lidarplace import cli
from lidarplace.geometry import MAX_VOXELS
from lidarplace.scenario import parse_angle, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def minimal_scenario(**overrides):
    data = {
        "schema_version": 1,
        "roi": {"extent": [8.0, 8.0, 4.0], "resolution": [1.0, 1.0, 1.0]},
        "models": {"b2": {"beam_pitches": [{"deg": -15.0}, {"deg": 15.0}]}},
        "lidars": [{"model": "b2", "count": 1}],
        "bounds": {
            "lower": [2.0, 2.0, 2.5, 0.0, 0.0, 0.0],
            "upper": [6.0, 6.0, 3.8, 0.0, 0.6, 0.2],
        },
        "abc": {"num_bees": 8, "max_iterations": 10, "rng_seed": 5},
    }
    data.update(overrides)
    return data


class TestAngles:
    def test_number_is_radians(self):
        assert parse_angle(0.5) == 0.5

    def test_deg_tag(self):
        assert parse_angle({"deg": 180.0}) == pytest.approx(math.pi, rel=1e-12)

    def test_rad_tag(self):
        assert parse_angle({"rad": 0.25}) == 0.25

    def test_string_suffixes(self):
        assert parse_angle("15deg") == pytest.approx(math.radians(15), rel=1e-12)
        assert parse_angle("0.2rad") == pytest.approx(0.2, rel=1e-12)

    def test_bad_angles(self):
        for bad in ("15", {"deg": 1, "rad": 2}, {"grad": 3}, True, [1], {"deg": "15"},
                    {"rad": True}, {"deg": [1]}, 10**400):
            with pytest.raises(lp.ScenarioError) as err:
                parse_angle(bad)
            assert err.value.code == "ANGLE_INVALID"


class TestParsing:
    def test_bundled_full_scale_fixture(self):
        scenario = lp.load_scenario(SCENARIO_DIR / "av_rooftop.json")
        assert scenario.roi.extent.tolist() == [60.0, 20.0, 4.0]
        assert scenario.roi.resolution.tolist() == [1.0, 0.5, 0.2]
        assert scenario.roi.grid_dims == (60, 40, 20)
        assert scenario.num_lidars == 4
        beam16 = scenario.models["beam16"]
        assert beam16.num_beams == 16
        assert beam16.beam_pitches[0] == pytest.approx(math.radians(-15), rel=1e-12)
        assert beam16.beam_pitches[-1] == pytest.approx(math.radians(15), rel=1e-12)
        assert scenario.bounds.lower.position.tolist() == [28.0, 9.0, 2.2]
        assert scenario.bounds.upper.pitch == 3.1415
        assert scenario.abc.num_bees == 200
        assert scenario.abc.max_iterations == 800
        assert scenario.odr.obj.dims.tolist() == [0.5, 0.5, 1.7]

    def test_bundled_scaled_fixture(self):
        scenario = lp.load_scenario(SCENARIO_DIR / "av_rooftop_small.json")
        assert scenario.roi.grid_dims == (30, 20, 10)
        assert scenario.num_lidars == 2
        assert scenario.abc.num_bees == 50
        assert scenario.abc.max_iterations == 100

    def test_round_trip_is_identity(self, tmp_path):
        # through the file writer the commands use and the scenario loader
        scenario = parse_scenario(minimal_scenario())
        cli._write_json(tmp_path / "scenario.json", lp.canonical_dict(scenario))
        again = lp.load_scenario(tmp_path / "scenario.json")
        assert lp.canonical_dict(again) == lp.canonical_dict(scenario)
        assert lp.scenario_digest(again) == lp.scenario_digest(scenario)

    def test_evenly_spaced_model_form(self):
        data = minimal_scenario(
            models={
                "b4": {
                    "evenly_spaced": {"count": 4, "start": {"deg": -15}, "stop": {"deg": 15}}
                }
            },
            lidars=[{"model": "b4", "count": 2}],
        )
        scenario = parse_scenario(data)
        model = scenario.models["b4"]
        assert model.num_beams == 4
        assert np.allclose(np.diff(model.beam_pitches), math.radians(10.0))
        assert scenario.model_sequence() == (model, model)

    def test_odr_defaults(self):
        scenario = parse_scenario(minimal_scenario())
        assert scenario.odr.obj.dims.tolist() == [0.5, 0.5, 1.7]
        assert scenario.odr.trials == 1000
        assert scenario.odr.threshold == 1


class TestNamedErrors:
    def expect(self, data, code):
        with pytest.raises(lp.ScenarioError) as err:
            parse_scenario(data)
        assert err.value.code == code

    def test_schema_version(self):
        self.expect(minimal_scenario(schema_version=99), "SCHEMA_VERSION")

    def test_missing_field(self):
        data = minimal_scenario()
        del data["roi"]
        self.expect(data, "SCHEMA_FIELD")

    def test_grid_not_divisible(self):
        data = minimal_scenario()
        data["roi"] = {"extent": [8.0, 8.0, 4.0], "resolution": [3.0, 1.0, 1.0]}
        self.expect(data, "GRID_NOT_DIVISIBLE")

    def test_grid_size_errors_are_mapped_by_kind(self):
        # RoiSpec raises both kinds; the parser maps each to its own code.
        for extent, resolution, code in (
            ([0.0, 8.0, 4.0], [1.0, 1.0, 1.0], "SCHEMA_INVALID"),
            ([8.0, 8.0, 4.0], [-1.0, 1.0, 1.0], "SCHEMA_INVALID"),
            ([0.5, 8.0, 4.0], [1.0, 1.0, 1.0], "GRID_NOT_DIVISIBLE"),  # zero voxels
        ):
            data = minimal_scenario()
            data["roi"] = {"extent": extent, "resolution": resolution}
            self.expect(data, code)

    def test_grid_over_the_voxel_limit(self):
        # 10^12 voxels: rejected by count, before anything is allocated
        data = minimal_scenario()
        data["roi"] = {"extent": [10000.0, 10000.0, 10000.0], "resolution": [1.0, 1.0, 1.0]}
        self.expect(data, "GRID_TOO_LARGE")
        data["roi"] = {"extent": [1e300, 1e300, 1e300], "resolution": [1.0, 1.0, 1.0]}
        self.expect(data, "GRID_TOO_LARGE")

    def test_parsed_scenario_carries_its_grid(self):
        scenario = parse_scenario(minimal_scenario())
        assert scenario.grid.dims == (8, 8, 4) and scenario.grid.num_active == 256
        # the full-scale fixture sits far below the voxel limit
        full = lp.load_scenario(SCENARIO_DIR / "av_rooftop.json")
        assert full.grid.num_voxels == 48_000 and MAX_VOXELS >= 300 * full.grid.num_voxels

    def test_malformed_box_wins_over_non_divisible_grid(self):
        data = minimal_scenario()
        data["roi"] = {
            "extent": [8.0, 8.0, 4.0],
            "resolution": [3.0, 1.0, 1.0],
            "excluded_boxes": [{"min": [0, 0, 0]}],
        }
        self.expect(data, "SCHEMA_FIELD")

    def test_roi_without_active_voxels(self):
        data = minimal_scenario()
        data["roi"]["excluded_boxes"] = [{"min": [0, 0, 0], "max": [8.0, 8.0, 4.0]}]
        self.expect(data, "SCHEMA_INVALID")
        # one voxel center left outside the box is enough
        data["roi"]["excluded_boxes"] = [{"min": [0, 0, 0], "max": [8.0, 8.0, 3.4]}]
        assert lp.build_voxel_grid(parse_scenario(data).roi).num_active == 64

    def test_bounds_inverted(self):
        data = minimal_scenario()
        data["bounds"] = {
            "lower": [6.0, 2.0, 2.5, 0.0, 0.0, 0.0],
            "upper": [2.0, 6.0, 3.8, 0.0, 0.6, 0.2],
        }
        self.expect(data, "BOUNDS_INVERTED")

    def test_unknown_model(self):
        self.expect(minimal_scenario(lidars=[{"model": "nope"}]), "MODEL_UNKNOWN")

    def test_non_numeric_extent(self):
        data = minimal_scenario()
        data["roi"] = {"extent": [8.0, "wide", 4.0], "resolution": [1.0, 1.0, 1.0]}
        self.expect(data, "SCHEMA_FIELD")

    def test_invalid_beam_order(self):
        data = minimal_scenario(models={"b2": {"beam_pitches": [0.3, -0.3]}})
        self.expect(data, "SCHEMA_INVALID")


    def test_odr_not_an_object(self):
        self.expect(minimal_scenario(odr=[1]), "SCHEMA_FIELD")

    def test_excluded_boxes_not_a_list(self):
        data = minimal_scenario()
        data["roi"]["excluded_boxes"] = 5
        self.expect(data, "SCHEMA_FIELD")

    def test_beam_pitches_not_a_list(self):
        self.expect(minimal_scenario(models={"b2": {"beam_pitches": 3}}), "SCHEMA_FIELD")

    def test_inverted_placement_region(self):
        odr = {"placement_region": {"min": [2.0, 2.0, 1.0], "max": [1.0, 1.0, 0.0]}}
        self.expect(minimal_scenario(odr=odr), "SCHEMA_INVALID")

    def test_mutate_all_dims_must_be_a_bool(self):
        data = minimal_scenario()
        data["abc"]["mutate_all_dims"] = "false"
        self.expect(data, "SCHEMA_FIELD")

    def test_non_integral_counts_rejected(self):
        self.expect(minimal_scenario(lidars=[{"model": "b2", "count": 2.7}]), "SCHEMA_FIELD")
        data = minimal_scenario()
        data["abc"]["num_bees"] = 50.5
        self.expect(data, "SCHEMA_FIELD")
        spaced = {"b2": {"evenly_spaced": {"count": 2.5, "start": -0.2, "stop": 0.2}}}
        self.expect(minimal_scenario(models=spaced), "SCHEMA_FIELD")
        # an integral float is still a count
        scenario = parse_scenario(minimal_scenario(lidars=[{"model": "b2", "count": 2.0}]))
        assert scenario.lidars == (("b2", 2),)

    def test_beam_count_above_limit_rejected_before_allocation(self):
        for count in (256, 10**9, 2**63):
            spaced = {"b2": {"evenly_spaced": {"count": count, "start": -0.2, "stop": 0.2}}}
            self.expect(minimal_scenario(models=spaced), "SCHEMA_INVALID")
        pitches = np.linspace(-0.2, 0.2, 256).tolist()
        self.expect(minimal_scenario(models={"b2": {"beam_pitches": pitches}}), "SCHEMA_INVALID")
        limit = {"b2": {"evenly_spaced": {"count": 255, "start": -0.2, "stop": 0.2}}}
        assert parse_scenario(minimal_scenario(models=limit)).models["b2"].num_beams == 255

    def test_negative_seed(self):
        data = minimal_scenario()
        data["abc"]["rng_seed"] = -1
        self.expect(data, "SCHEMA_INVALID")

    def test_out_of_range_number(self):
        data = minimal_scenario()
        data["roi"]["extent"] = [10**400, 8.0, 4.0]
        self.expect(data, "SCHEMA_FIELD")


SHIPPED = [
    json.loads((SCENARIO_DIR / name).read_text(encoding="utf-8"))
    for name in ("av_rooftop.json", "av_rooftop_small.json")
]
SCHEMA_KEYS = [
    "deg", "rad", "min", "max", "count", "start", "stop", "model", "position", "beam_pitches",
    "evenly_spaced", "extent", "resolution", "excluded_boxes", "placement_region", "object_dims",
]
# The specials cover overflow, non-finite values and beam counts far above the
# model limit (2**63 overflows numpy's int64; 10**9 beams would take
# gigabytes), which must fail before anything is allocated.
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-10**4, 10**4)
    | st.floats(-1e4, 1e4)
    | st.sampled_from(
        [float("inf"), float("-inf"), float("nan"), 10**400, 2**63, 10**9, "15deg", "beam16"]
    )
    | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=4), children, max_size=3),
    max_leaves=10,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


@st.composite
def mutated_scenarios(draw):
    """A shipped scenario with one to three nodes replaced by arbitrary JSON or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(SHIPPED)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(JSON_VALUES)
        else:
            del parent[path[-1]]
    return doc


class TestMutatedScenarios:
    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(mutated_scenarios())
    def test_parse_returns_scenario_or_raises_scenario_error(self, data):
        try:
            scenario = parse_scenario(data)
        except lp.ScenarioError:
            return
        assert isinstance(scenario, lp.Scenario)


class TestDigest:
    def test_digest_tracks_content(self):
        base = parse_scenario(minimal_scenario())
        same = parse_scenario(minimal_scenario())
        assert lp.scenario_digest(base) == lp.scenario_digest(same)

    def test_seed_override_changes_digest(self):
        base = parse_scenario(minimal_scenario())
        reseeded = lp.with_seed(base, 999)
        assert reseeded.abc.rng_seed == 999
        assert lp.scenario_digest(base) != lp.scenario_digest(reseeded)
        assert lp.with_seed(base, None) is base
