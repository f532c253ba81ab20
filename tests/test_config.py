import json
import math

import pytest

import revolve as rv
from revolve.config import load_job, parse_job, region_doc
from revolve.errors import ConfigError


def minimal_doc():
    return {
        "region": {"type": "normal_x", "x_min": 0, "x_max": 1,
                   "lower": "0", "upper": "1-x"},
        "axis": "OY",
    }


class TestParseJob:
    def test_defaults(self):
        job = parse_job(minimal_doc())
        assert job.method == "double_integral"
        assert job.tolerance == rv.Tolerance()
        assert job.mc == rv.McConfig()
        assert job.out_format == "json"
        assert isinstance(job.region, rv.NormalX)
        assert job.axis == rv.Axis.vertical(0.0)

    def test_scalar_expression_fields(self):
        doc = {
            "region": {"type": "polar", "theta_min": "-pi/3", "theta_max": "pi/4",
                       "rho_min": "0", "rho_max": "1"},
            "axis": {"vertical_at": "sqrt(2)/2"},
        }
        job = parse_job(doc)
        assert job.region.theta_min == -math.pi / 3
        assert job.region.theta_max == math.pi / 4
        assert job.axis == rv.Axis.vertical(math.sqrt(2) / 2)

    def test_axis_forms(self):
        for axis_doc, want in [
            ("OX", rv.Axis.horizontal(0.0)),
            ("OY", rv.Axis.vertical(0.0)),
            ({"horizontal_at": -1}, rv.Axis.horizontal(-1.0)),
            ({"a": 1, "b": 1, "c": -2}, rv.Axis(1.0, 1.0, -2.0)),
        ]:
            doc = minimal_doc()
            doc["axis"] = axis_doc
            assert parse_job(doc).axis == want

    def test_overrides_win(self):
        doc = minimal_doc()
        doc["method"] = "shell"
        doc["mc"] = {"samples": 500, "seed": 1}
        job = parse_job(doc, {"method": "pappus", "seed": 99, "rel_tol": 1e-6})
        assert job.method == "pappus"
        assert job.mc == rv.McConfig(500, 99)
        assert job.tolerance.rel == 1e-6

    @pytest.mark.parametrize("key", ["method", "format"])
    def test_empty_override_is_refused(self, key):
        with pytest.raises(ConfigError) as err:
            parse_job(minimal_doc(), {key: ""})
        assert [path for path, _ in err.value.issues] == [key]
        assert err.value.issues[0][1].endswith("got ''")

    def test_errors_are_aggregated_with_paths(self):
        doc = {
            "region": {"type": "normal_x", "x_min": 0, "x_max": 1,
                       "lower": "0", "upper": "1-x+"},
            "axis": {"a": 0, "b": 0, "c": 1},
            "method": "nope",
            "format": "xml",
        }
        with pytest.raises(ConfigError) as err:
            parse_job(doc)
        paths = {path for path, _ in err.value.issues}
        assert "region.upper" in paths
        assert "axis" in paths
        assert "method" in paths
        assert "format" in paths

    def test_unknown_fields_flagged(self):
        doc = minimal_doc()
        doc["region"]["typo"] = 1
        with pytest.raises(ConfigError) as err:
            parse_job(doc)
        assert any(path == "region.typo" for path, _ in err.value.issues)

    def test_invalid_region_reported_at_path(self):
        doc = {
            "region": {"type": "union", "parts": [
                {"type": "normal_x", "x_min": 1, "x_max": 0,
                 "lower": "0", "upper": "1"},
            ]},
            "axis": "OY",
        }
        with pytest.raises(ConfigError) as err:
            parse_job(doc)
        assert any("region.parts[0]" in path for path, _ in err.value.issues)

    def test_polygon_vertices(self):
        doc = {
            "region": {"type": "polygon",
                       "vertices": [[0, 0], [1, 0], ["1/2", "sqrt(3)/2"]]},
            "axis": {"vertical_at": -2},
        }
        job = parse_job(doc)
        assert job.region.vertices[2] == rv.Point(0.5, math.sqrt(3) / 2)

    def test_integer_beyond_float_range_is_reported_at_its_path(self):
        doc = minimal_doc()
        doc["region"]["x_max"] = 10**400
        with pytest.raises(ConfigError) as err:
            parse_job(doc)
        assert [path for path, _ in err.value.issues] == ["region.x_max"]

    def test_infinite_counts_are_reported_at_their_paths(self):
        doc = minimal_doc()
        doc["tolerance"] = {"max_depth": math.inf}
        doc["mc"] = {"samples": math.inf}
        with pytest.raises(ConfigError) as err:
            parse_job(doc)
        assert [path for path, _ in err.value.issues] == ["tolerance.max_depth", "mc.samples"]

    @pytest.mark.parametrize("samples", [10**30, 2**25 + 1])
    def test_sample_count_is_bounded(self, samples):
        doc = minimal_doc()
        doc["mc"] = {"samples": samples}
        with pytest.raises(ConfigError) as err:
            parse_job(doc)
        assert err.value.issues == [("mc", "need at most 33554432 samples")]
        doc["mc"] = {"samples": 2**25}
        assert parse_job(doc).mc.samples == 2**25

    @pytest.mark.parametrize("section, field, value", [
        ("mc", "seed", 1.5),
        ("mc", "seed", True),
        ("mc", "samples", 250000.9),
        ("tolerance", "max_depth", 7.9),
    ])
    def test_integer_that_int_would_change_is_refused(self, section, field, value):
        doc = minimal_doc()
        doc[section] = {field: value}
        with pytest.raises(ConfigError) as err:
            parse_job(doc)
        assert err.value.issues == [(f"{section}.{field}", f"expected an integer, got {value!r}")]

    def test_integral_floats_and_integer_strings_are_integers(self):
        doc = minimal_doc()
        doc["mc"] = {"samples": 1e6, "seed": "1000"}
        doc["tolerance"] = {"max_depth": 7.0}
        job = parse_job(doc)
        assert (job.mc.samples, job.mc.seed, job.tolerance.max_depth) == (1_000_000, 1000, 7)
        assert type(job.mc.samples) is type(job.mc.seed) is type(job.tolerance.max_depth) is int

    def test_missing_fields(self):
        with pytest.raises(ConfigError) as err:
            parse_job({})
        paths = {path for path, _ in err.value.issues}
        assert paths == {"region", "axis"}



def _region_doc_with(**changes):
    """minimal_doc() with its region's fields changed; a value None drops
    the field."""
    doc = minimal_doc()
    doc["region"].update(changes)
    doc["region"] = {key: value for key, value in doc["region"].items() if value is not None}
    return doc


def _doc_with(key, value):
    doc = minimal_doc()
    doc[key] = value
    return doc


_TYPES = "['normal_x', 'normal_y', 'polar', 'polygon', 'union']"
_TRI = {"type": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]]}
_BAD_OPTIONS = {**_doc_with("tolerance", {"rel": "x", "foo": 1, "max_depth": 0}),
                "mc": {"seed": -1, "bar": 2}}


@pytest.mark.parametrize("doc, issues", [
    (_region_doc_with(x_min=None), [("region.x_min", "missing required field")]),
    (_region_doc_with(lower=None), [("region.lower", "missing required field")]),
    (_region_doc_with(lower=0), [("region.lower", "expected an expression string in 'x'")]),
    (_doc_with("region", {"type": "union", "parts": [
        {"type": "polar", "theta_min": 0, "theta_max": 1, "rho_min": "0", "rho_max": 1}]}),
     [("region.parts[0].rho_max", "expected an expression string in 'theta'")]),
    (_doc_with("region", {"type": "normal_y", "y_max": 1, "left": "0", "right": "y"}),
     [("region.y_min", "missing required field")]),
    (_doc_with("tolerance", [1e-9]), [("tolerance", "expected an object")]),
    (_doc_with("mc", 5), [("mc", "expected an object")]),
    (_doc_with("region", "square"), [("region", "expected a region object")]),
    (_doc_with("region", {"type": "hexagon"}),
     [("region.type", f"expected one of {_TYPES}, got 'hexagon'")]),
    (_doc_with("region", {"type": "union", "parts": {}}),
     [("region.parts", "expected a non-empty list of regions")]),
    (_doc_with("region", {"type": "union", "parts": []}),
     [("region.parts", "expected a non-empty list of regions")]),
    (_doc_with("region", {"type": "polygon", "vertices": "0,0 1,0 0,1"}),
     [("region.vertices", "expected a list of [x, y] pairs")]),
    (_doc_with("region", {"type": "polygon", "vertices": [[0, 0], [1, 0, 0], 5]}),
     [("region.vertices[1]", "expected an [x, y] pair"),
      ("region.vertices[2]", "expected an [x, y] pair")]),
    (_doc_with("axis", "OZ"), [("axis", "expected 'OX', 'OY', or an axis object, got 'OZ'")]),
    (_doc_with("axis", 0), [("axis", "expected an axis object or 'OX'/'OY'")]),
    (_doc_with("axis", {"a": 1, "b": 0}), [("axis.c", "missing required field")]),
    ([], [("$", "top-level config must be an object")]),
    (_doc_with("mc", {"samples": math.nan}), [("mc.samples", "expected an integer, got nan")]),
    (_doc_with("mc", {"seed": math.inf}), [("mc.seed", "expected an integer, got inf")]),
    (_doc_with("tolerance", {"max_depth": -math.inf}),
     [("tolerance.max_depth", "expected an integer, got -inf")]),
    (_doc_with("mc", {"samples": math.inf, "seed": math.nan}),
     [("mc.samples", "expected an integer, got inf"), ("mc.seed", "expected an integer, got nan")]),
    ({**minimal_doc(), "mc": {"samples": "abc", "seed": "1.5"}, "tolerance": {"max_depth": [3]}},
     [("tolerance.max_depth", "expected an integer, got [3]"),
      ("mc.samples", "expected an integer, got 'abc'"), ("mc.seed", "expected an integer, got '1.5'")]),
    ({"region": {"type": "union", "parts": [
        {"type": "normal_x", "x_min": 0, "x_max": "a", "lower": "0", "upper": "1-x+"},
        {"type": "polygon", "vertices": [["b", 0], [1], [1, 1]], "extra": 1}]}, "axis": "OY"},
     [("region.parts[0].x_max",
       "not a number or constant expression: unknown identifier 'a' (at position 0)"),
      ("region.parts[0].upper", "expected a value, found end of input (at position 4)"),
      ("region.parts[1].extra", "unknown field"),
      ("region.parts[1].vertices[0][0]",
       "not a number or constant expression: unknown identifier 'b' (at position 0)"),
      ("region.parts[1].vertices[1]", "expected an [x, y] pair")]),
    ({"region": _TRI, "axis": {"a": "1/0", "b": 1, "d": 2}},
     [("axis.d", "unknown field"),
      ("axis.a", "not a number or constant expression: '/' failed on (1.0, 0.0)"),
      ("axis.c", "missing required field")]),
    ({"region": _TRI, "axis": {"vertical_at": "q", "c": 1}},
     [("axis.c", "unknown field"),
      ("axis.vertical_at",
       "not a number or constant expression: unknown identifier 'q' (at position 0)")]),
    (_BAD_OPTIONS,
     [("tolerance.foo", "unknown field"),
      ("tolerance.rel",
       "not a number or constant expression: unknown identifier 'x' (at position 0)"),
      ("mc.bar", "unknown field"), ("mc", "seed must fit in 64 bits")]),
])
def test_refusal_lists_every_issue(doc, issues):
    with pytest.raises(ConfigError) as err:
        parse_job(doc)
    assert err.value.issues == issues


@pytest.mark.parametrize("doc, overrides, issues", [
    (_BAD_OPTIONS, {"rel_tol": 1e-6, "seed": "7", "mc_samples": 50},
     [("tolerance.foo", "unknown field"), ("tolerance", "max_depth must be >= 1"),
      ("mc.bar", "unknown field"), ("mc", "need at least 100 samples")]),
    (minimal_doc(), {"seed": None}, [("mc.seed", "expected an integer, got None")]),
    (_doc_with("tolerance", {"rel": "x"}), {"rel_tol": None},
     [("tolerance.rel",
       "not a number or constant expression: unknown identifier 'x' (at position 0)")]),
])
def test_overrides_keep_the_refusal_order(doc, overrides, issues):
    """A tolerance override that is not None is Tolerance's to check; an mc
    override is read as the document's value would be."""
    with pytest.raises(ConfigError) as err:
        parse_job(doc, overrides)
    assert err.value.issues == issues


def test_every_config_field_has_a_reader():
    """A record field of a new annotation needs a reader in config._READERS."""
    from revolve import config

    for cls in (*config._REGIONS.values(), rv.Axis, rv.Tolerance, rv.McConfig):
        for name in cls._fields:
            assert cls.__dict__["__annotations__"][name] in config._READERS, (cls, name)


class TestRoundTrip:
    def test_normalized_reparses_to_identical_job(self, fixtures_dir):
        for path in sorted(fixtures_dir.glob("*.json")):
            job = load_job(path)
            again = parse_job(job.normalized())
            assert again == job, path.name
            assert again.normalized() == job.normalized(), path.name

    def test_region_doc_covers_every_variant(self):
        union = rv.UnionRegion((
            rv.NormalX(0.0, 1.0, rv.curve("0", "x"), rv.curve("1", "x")),
            rv.Polygon((rv.Point(2, 0), rv.Point(3, 0), rv.Point(2, 1))),
        ))
        doc = region_doc(union)
        assert doc["type"] == "union"
        assert doc["parts"][0]["type"] == "normal_x"
        assert doc["parts"][1]["vertices"] == [[2.0, 0.0], [3.0, 0.0], [2.0, 1.0]]

    def test_region_doc_refuses_what_is_no_region(self):
        with pytest.raises(TypeError, match="^not a region: <object object at 0x"):
            region_doc(object())


class TestLoadJob:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_job(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_job(bad)

    def test_fixtures_all_load(self, fixtures_dir):
        names = {p.name for p in fixtures_dir.glob("*.json")}
        assert len(names) >= 10
        for path in sorted(fixtures_dir.glob("*.json")):
            job = load_job(path)
            assert job.method in rv.METHODS
