import copy
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lidarplace as lp
from lidarplace import cli
from lidarplace import scenario as scenario_module
from lidarplace.bees import MAX_BEES, MAX_ITERATIONS
from lidarplace.geometry import MAX_VOXELS
from lidarplace.odr import MAX_TRIALS
from lidarplace.scenario import MAX_SENSORS, parse_angle, parse_pose, parse_scenario

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

    @pytest.mark.parametrize("text", ["15deg", " 15 deg", "+15DEG", "1.5e1deg", "\t15deg\n"])
    def test_ascii_forms_are_read(self, text):
        assert parse_angle(text) == pytest.approx(math.radians(15), rel=1e-12)

    @pytest.mark.parametrize(
        "text",
        ["1_5deg", "1_5rad", "0.2_5rad", "\u0661\u0665deg", "1\u0665deg", "\uff11\uff15deg",
         "\u00a015deg", "15deg\u2003"],
        ids=["underscore", "underscore-rad", "underscore-fraction", "arabic-indic", "mixed-digits",
             "fullwidth", "nbsp-before", "em-space-after"],
    )
    def test_underscores_and_non_ascii_rejected(self, text):
        with pytest.raises(lp.ScenarioError, match="ASCII number") as err:
            parse_angle(text)
        assert err.value.code == "ANGLE_INVALID"

    def test_bad_angles(self):
        for bad in ("15", "xdeg", {"deg": 1, "rad": 2}, {"grad": 3}, True, [1], {"deg": "15"},
                    {"rad": True}, {"deg": [1]}, 10**400, "infdeg", "nanrad", "1e400deg",
                    {"deg": math.nan}, {"rad": -math.inf}, math.inf, math.nan):
            with pytest.raises(lp.ScenarioError) as err:
                parse_angle(bad)
            assert err.value.code == "ANGLE_INVALID"

    def test_messages_name_the_field(self):
        for bad, path in (("abc", "poses[0].yaw"), ({"deg": "15"}, "poses[0].yaw.deg"),
                          ({"grad": 3}, "poses[0].yaw"), (True, "poses[0].yaw")):
            with pytest.raises(lp.ScenarioError, match=re.escape(path)):
                parse_angle(bad, "poses[0].yaw")


class TestParsing:
    def test_bundled_full_scale_fixture(self):
        scenario = lp.load_scenario(SCENARIO_DIR / "av_rooftop.json")
        assert scenario.roi.extent.tolist() == [60.0, 20.0, 4.0]
        assert scenario.roi.resolution.tolist() == [1.0, 0.5, 0.2]
        assert scenario.roi.grid_dims == (60, 40, 20)
        assert len(scenario.model_sequence()) == 4
        beam16 = scenario.models["beam16"]
        assert beam16.num_beams == 16
        assert beam16.beam_pitches[0] == pytest.approx(math.radians(-15), rel=1e-12)
        assert beam16.beam_pitches[-1] == pytest.approx(math.radians(15), rel=1e-12)
        assert scenario.bounds.lower.position.tolist() == [28.0, 9.0, 2.2]
        assert scenario.bounds.upper.pitch == 3.1415
        assert scenario.abc.num_bees == 200
        assert scenario.abc.max_iterations == 800
        assert scenario.odr.object_dims.tolist() == [0.5, 0.5, 1.7]

    def test_bundled_scaled_fixture(self):
        scenario = lp.load_scenario(SCENARIO_DIR / "av_rooftop_small.json")
        assert scenario.roi.grid_dims == (30, 20, 10)
        assert len(scenario.model_sequence()) == 2
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
        assert scenario.odr.object_dims.tolist() == [0.5, 0.5, 1.7]
        assert scenario.odr.trials == 1000
        assert scenario.odr.threshold == 1

    def test_omitted_fields_take_the_dataclass_defaults(self):
        scenario = parse_scenario(minimal_scenario(abc={"num_bees": 8, "max_iterations": 10}))
        pose = parse_pose({"position": [1.0, 2.0, 3.0]})
        for parsed, spec in ((scenario.abc, lp.AbcParams), (scenario.odr, lp.OdrSettings),
                             (scenario.roi, lp.RoiSpec), (pose, lp.PoseConfig)):
            for f in dataclasses.fields(spec):
                if f.default is not dataclasses.MISSING:
                    assert np.array_equal(getattr(parsed, f.name), f.default), f.name

    def test_single_beam_evenly_spaced_model_sits_at_the_midpoint(self):
        spaced = {"b2": {"evenly_spaced": {"count": 1, "start": -0.2, "stop": 0.4}}}
        model = parse_scenario(minimal_scenario(models=spaced)).models["b2"]
        assert model.beam_pitches.tolist() == [pytest.approx(0.1, rel=1e-12)]


def _set(*path_and_value):
    """A change that sets ``data[path...] = value`` on a scenario dict."""
    *path, key, value = path_and_value

    def change(data):
        for step in path:
            data = data[step]
        data[key] = value

    return change


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

    @pytest.mark.parametrize("yaw", [[0.5, 1.0], [-1.0, -0.5]])
    def test_yaw_range_excluding_zero(self, yaw):
        data = minimal_scenario()
        data["bounds"]["lower"][3], data["bounds"]["upper"][3] = yaw
        self.expect(data, "SCHEMA_INVALID")

    @pytest.mark.parametrize("yaw", [[0, 0], [-0.1, 0.1]])
    def test_yaw_range_including_zero_parses(self, yaw):
        data = minimal_scenario()
        data["bounds"]["lower"][3], data["bounds"]["upper"][3] = yaw
        bounds = parse_scenario(data).bounds
        assert [bounds.lower.yaw, bounds.upper.yaw] == yaw

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

    def test_sensor_count_above_limit_rejected(self):
        for lidars in (
            [{"model": "b2", "count": MAX_SENSORS + 1}],
            [{"model": "b2", "count": MAX_SENSORS}, {"model": "b2", "count": 1}],
            [{"model": "b2", "count": 2**63}],
            [{"model": "b2", "count": 1e300}],
        ):
            self.expect(minimal_scenario(lidars=lidars), "SCHEMA_INVALID")
        limit = [{"model": "b2", "count": MAX_SENSORS - 1}, {"model": "b2", "count": 1}]
        assert len(parse_scenario(minimal_scenario(lidars=limit)).model_sequence()) == MAX_SENSORS

    @pytest.mark.parametrize(
        "section, key, limit",
        [("abc", "num_bees", MAX_BEES), ("abc", "max_iterations", MAX_ITERATIONS),
         ("odr", "trials", MAX_TRIALS)],
        ids=["num_bees", "max_iterations", "odr-trials"],
    )
    def test_count_sizing_an_allocation_above_limit_rejected(self, section, key, limit):
        data = minimal_scenario(odr={"object_dims": [2.0, 2.0, 2.0]})
        for count in (10**12, 1e300, limit + 1):
            data[section][key] = count
            self.expect(data, "SCHEMA_INVALID")
        data[section][key] = limit
        scenario = parse_scenario(data)
        assert getattr(getattr(scenario, section), key) == limit

    def test_negative_seed(self):
        data = minimal_scenario()
        data["abc"]["rng_seed"] = -1
        self.expect(data, "SCHEMA_INVALID")

    def test_out_of_range_number(self):
        data = minimal_scenario()
        data["roi"]["extent"] = [10**400, 8.0, 4.0]
        self.expect(data, "SCHEMA_FIELD")

    @pytest.mark.parametrize(
        "change, code",
        [
            (_set("models", {}), "SCHEMA_FIELD"),
            (_set("lidars", 0, "count", 0), "SCHEMA_INVALID"),
            (_set("models", "b2", "beam_pitches", []), "SCHEMA_INVALID"),
            (_set("models", "b2", "beam_pitches", [float("nan")]), "ANGLE_INVALID"),
        ],
        ids=["no-models", "zero-count", "no-beams", "nan-pitch"],
    )
    def test_empty_or_non_finite_sensor_fields(self, change, code):
        data = minimal_scenario()
        change(data)
        self.expect(data, code)

    @pytest.mark.parametrize(
        "change, path",
        [
            (_set("bounds", "lower", 3, "abc"), "bounds.lower.yaw"),
            (_set("bounds", "upper", 5, {"deg": "1"}), "bounds.upper.roll.deg"),
            (_set("models", "b2", "beam_pitches", 1, "15"), "models.b2.beam_pitches[1]"),
            (_set("models", "b2", {"evenly_spaced": {"count": 2, "start": "x", "stop": 1}}),
             "models.b2.evenly_spaced.start"),
        ],
        ids=["bound-yaw", "bound-roll-deg", "beam-pitch", "evenly-spaced-start"],
    )
    def test_angle_errors_name_their_field(self, change, path):
        data = minimal_scenario()
        change(data)
        with pytest.raises(lp.ScenarioError, match=re.escape(path)) as err:
            parse_scenario(data)
        assert err.value.code == "ANGLE_INVALID"

    def test_bound_vector_position_is_checked_before_its_angles(self):
        data = minimal_scenario()
        data["bounds"]["lower"][1], data["bounds"]["lower"][3] = "wide", "abc"
        with pytest.raises(lp.ScenarioError, match=re.escape("bounds.lower.position")) as err:
            parse_scenario(data)
        assert err.value.code == "SCHEMA_FIELD"


class TestUnknownFields:
    REGION = {"min": [0.0, 0.0, 0.0], "max": [1.0, 1.0, 1.0]}

    @pytest.mark.parametrize(
        "change, message",
        [
            (_set("roi", "exclude_boxes", [REGION]), "unknown field roi.exclude_boxes"),
            (_set("abc", "abandonmnet_threshold", 5), "unknown field abc.abandonmnet_threshold"),
            (_set("lidars", 0, "cout", 3), "unknown field lidars[0].cout"),
            (_set("odr", {"trial": 50}), "unknown field odr.trial"),
            (_set("odr", {"placement_regoin": REGION}), "unknown field odr.placement_regoin"),
            (_set("oddr", {}), "unknown field oddr"),
            (_set("models", "b2", "evenly_spaced", {"count": 2, "start": -0.2, "stop": 0.2}),
             "models.b2 needs exactly one of beam_pitches, evenly_spaced"),
            (_set("roi", "excluded_boxes", [dict(REGION, mx=0)]),
             "unknown field roi.excluded_boxes[0].mx"),
        ],
        ids=["roi-exclude-boxes", "abc-abandonmnet", "lidar-cout", "odr-trial",
             "odr-placement-regoin", "top-level-oddr", "model-with-both-forms", "box-field"],
    )
    def test_rejected_with_its_path(self, change, message):
        data = minimal_scenario()
        change(data)
        with pytest.raises(lp.ScenarioError, match=re.escape(message)) as err:
            parse_scenario(data)
        assert err.value.code == "SCHEMA_FIELD"

    def test_pose_entry_field(self):
        with pytest.raises(lp.ScenarioError, match=re.escape("unknown field poses[0].pich")) as err:
            parse_pose({"position": [1.0, 2.0, 3.0], "pich": 0.5}, "poses[0]")
        assert err.value.code == "SCHEMA_FIELD"

    def test_schema_version_is_checked_first(self):
        with pytest.raises(lp.ScenarioError) as err:
            parse_scenario(minimal_scenario(schema_version=2, oddr={}))
        assert err.value.code == "SCHEMA_VERSION"

    def test_canonical_form_uses_known_fields_only(self):
        # with every optional object present, the canonical form writes each field
        data = minimal_scenario(odr={"placement_region": self.REGION})
        data["roi"]["excluded_boxes"] = [self.REGION]
        canonical = lp.canonical_dict(parse_scenario(data))
        assert lp.canonical_dict(parse_scenario(canonical)) == canonical


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


class TestWriters:
    """``canonical_dict`` and ``pose_dict`` write each object from its field table."""

    FULL = minimal_scenario(
        roi={
            "extent": [8.0, 8.0, 4.0], "resolution": [1.0, 1.0, 1.0],
            "excluded_boxes": [{"min": [0, 0, 0], "max": [1, 1, 1]}],
        },
        abc={"num_bees": 8, "max_iterations": 10, "abandonment_threshold": 3, "rng_seed": 5,
             "mutate_all_dims": True},
        odr={"object_dims": [1, 1, 2], "placement_region": {"min": [0, 0, 0], "max": [2, 2, 1]},
             "trials": 20, "threshold": 2},
    )

    @pytest.mark.parametrize("section, table", [("roi", "_ROI_FIELDS"), ("abc", "_ABC_FIELDS"),
                                                ("odr", "_ODR_FIELDS")])
    def test_every_optional_field_is_written_and_read_back(self, section, table):
        for name in getattr(scenario_module, table):
            assert name in self.FULL[section]
        canonical = lp.canonical_dict(parse_scenario(self.FULL))
        assert set(canonical[section]) == set(getattr(scenario_module, table))
        again = json.loads(json.dumps(canonical))
        assert lp.canonical_dict(parse_scenario(again)) == canonical

    @pytest.mark.parametrize(
        "table, spec",
        [("_POSE_FIELDS", lp.PoseConfig), ("_ROI_FIELDS", lp.RoiSpec), ("_ABC_FIELDS", lp.AbcParams),
         ("_ODR_FIELDS", lp.OdrSettings)],
        ids=["pose", "roi", "abc", "odr"],
    )
    def test_field_table_names_the_dataclass_fields(self, table, spec):
        # the writers read each field by its JSON name, so the names must match
        fields = [f.name for f in dataclasses.fields(spec)]
        assert list(getattr(scenario_module, table)) == fields

    @pytest.mark.parametrize(
        "odr, expected",
        [
            ({}, {"object_dims": [0.5, 0.5, 1.7], "trials": 1000, "threshold": 1}),
            ({"object_dims": [1, 1, 2], "placement_region": {"min": [0, 0, 0], "max": [2, 2, 1]},
              "trials": 20, "threshold": 2},
             {"object_dims": [1.0, 1.0, 2.0],
              "placement_region": {"min": [0.0, 0.0, 0.0], "max": [2.0, 2.0, 1.0]},
              "trials": 20, "threshold": 2}),
        ],
        ids=["defaults", "every-field"],
    )
    def test_canonical_odr_section(self, odr, expected):
        written = lp.canonical_dict(parse_scenario(minimal_scenario(odr=odr)))["odr"]
        assert written == expected
        assert list(written) == list(expected)

    def test_canonical_values(self):
        canonical = lp.canonical_dict(parse_scenario(self.FULL))
        assert canonical["roi"]["excluded_boxes"] == [{"min": [0.0] * 3, "max": [1.0] * 3}]
        assert canonical["abc"] == self.FULL["abc"]
        assert canonical["odr"] == {
            "object_dims": [1.0, 1.0, 2.0],
            "placement_region": {"min": [0.0, 0.0, 0.0], "max": [2.0, 2.0, 1.0]},
            "trials": 20, "threshold": 2,
        }
        # an absent optional value is left out, not written as null
        assert "placement_region" not in lp.canonical_dict(parse_scenario(minimal_scenario()))["odr"]

    @pytest.mark.parametrize(
        "entry",
        [
            {"position": [-0.0, 0.0, -0.0], "yaw": -0.0, "pitch": 0.0, "roll": -0.0},
            {"position": [1, -2, 3], "yaw": {"deg": 15}, "pitch": "-7.5deg", "roll": {"deg": 1e-3}},
            {"position": [0.1, 5e-324, -2.5]},
        ],
        ids=["negative-zero", "degrees-and-integers", "omitted-angles"],
    )
    def test_pose_dict_parses_back_bit_for_bit(self, entry):
        pose = parse_pose(entry)
        written = lp.pose_dict(pose)
        assert list(written) == list(scenario_module._POSE_FIELDS)
        assert all(type(v) is float for v in [*written["position"], *list(written.values())[1:]])
        again = parse_pose(json.loads(json.dumps(written)))
        assert again.as_vector().tobytes() == pose.as_vector().tobytes()

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=6, max_size=6))
    def test_any_finite_pose_parses_back_bit_for_bit(self, values):
        pose = lp.PoseConfig(values[:3], *values[3:])
        again = parse_pose(json.loads(json.dumps(lp.pose_dict(pose))))
        assert again.as_vector().tobytes() == pose.as_vector().tobytes()
