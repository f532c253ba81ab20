import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import revolve as rv
from revolve import expr
from revolve.cli import main
from revolve.config import _MAX_UNION_NESTING, parse_job
from revolve.methods import _CHUNK

from helpers import (DEEP_SHAPES, SECTOR_VOLUME, SQUARE_VOLUME, chain,
                     overflowing_union_doc)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, doc) -> str:
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestVolume:
    def test_sector_polar(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "volume",
                               "--config", str(fixtures_dir / "sector_polar.json"),
                               "--method", "polar")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "volume"
        assert payload["method"] == "polar"
        assert abs(payload["value"] - SECTOR_VOLUME) <= 1e-6
        assert payload["evaluations"] > 0

    def test_unsupported_method_exits_3(self, capsys, fixtures_dir):
        code, _, err = run_cli(capsys, "volume",
                               "--config", str(fixtures_dir / "sector_polar.json"),
                               "--method", "disk")
        assert code == 3
        assert "UnsupportedMethod" in err

    def test_straddling_axis_exits_3(self, capsys, fixtures_dir):
        code, _, err = run_cli(capsys, "volume",
                               "--config", str(fixtures_dir / "straddle.json"))
        assert code == 3
        assert "AxisIntersectsRegion" in err

    @pytest.mark.parametrize("command", [
        ["volume"], ["volume", "--method", "monte_carlo", "--mc-samples", "70000"],
        ["volume", "--method", "pappus"], ["centroid"],
    ], ids=["double_integral", "monte_carlo", "pappus", "centroid"])
    def test_span_beyond_float_range_exits_3(self, capsys, tmp_path, command):
        # x in [-1e308, 1e308]: the first panel's width, the area and the
        # Monte Carlo box all overflow.  Each is a clean error, not a NaN.
        path = write_config(tmp_path, {
            "region": {"type": "normal_x", "x_min": "-1e308", "x_max": "1e308",
                       "lower": "0", "upper": "1+x*0"},
            "axis": {"horizontal_at": -1}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nor a RuntimeWarning
            code, out, err = run_cli(capsys, command[0], "--config", path, *command[1:])
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_method_all_is_config_error(self, capsys, fixtures_dir):
        code, _, err = run_cli(capsys, "volume",
                               "--config", str(fixtures_dir / "sector_polar.json"),
                               "--method", "all")
        assert code == 2
        assert "compare" in err

    def test_csv_format(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "volume",
                               "--config", str(fixtures_dir / "square_normalx.json"),
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "method,value,error_estimate,evaluations,wall_time"
        cells = lines[1].split(",")
        assert cells[0] == "shell"
        assert float(cells[1]) == pytest.approx(SQUARE_VOLUME, abs=1e-9)


class TestCompare:
    def test_square_fixture_agrees(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "compare",
                               "--config", str(fixtures_dir / "unit_square.json"))
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "agree"
        methods = {r["method"] for r in payload["reports"]}
        assert {"double_integral", "shell", "pappus", "monte_carlo"} <= methods
        for report in payload["reports"]:
            assert abs(report["value"] - SQUARE_VOLUME) <= max(
                1e-6, 4.0 * report["error_estimate"])

    def test_sector_forms_agree(self, capsys, fixtures_dir):
        for name in ("sector_polar.json", "sector_disk_union.json",
                     "sector_shell_union.json"):
            code, out, _ = run_cli(capsys, "compare",
                                   "--config", str(fixtures_dir / name),
                                   "--mc-samples", "100000")
            assert code == 0, name
            payload = json.loads(out)
            assert payload["verdict"] == "agree", name

    def test_straddle_exits_3(self, capsys, fixtures_dir):
        code, out, err = run_cli(capsys, "compare",
                                 "--config", str(fixtures_dir / "straddle.json"),
                                 "--mc-samples", "1000")
        assert code == 3
        payload = json.loads(out)
        assert payload["verdict"] == "no data"
        assert "no method" in err

    def test_straddle_failures_repeat_with_a_warm_side_check(self, capsys, fixtures_dir):
        span = "axis meets the region: signed distances span [-1.0, 1.0]"
        expected = [
            {"method": "double_integral", "error": "AxisIntersectsRegion", "message": span},
            {"method": "disk", "error": "UnsupportedMethod",
             "message": "disk method needs a vertical axis with normal-y (or polygon) "
                        "parts, or a horizontal axis with normal-x (or polygon) parts"},
            {"method": "shell", "error": "AxisIntersectsRegion", "message": span},
            {"method": "polar", "error": "UnsupportedMethod",
             "message": "polar method needs polar-sector regions"},
            {"method": "pappus", "error": "AxisIntersectsRegion", "message": span},
            {"method": "monte_carlo", "error": "AxisIntersectsRegion", "message": span},
        ]
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "compare",
                                   "--config", str(fixtures_dir / "straddle.json"),
                                   "--mc-samples", "1000")
            assert code == 3
            assert json.loads(out)["failures"] == expected
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_union_on_both_sides_of_the_axis_is_no_data(self, capsys, tmp_path):
        # The parts sweep the same solid; shell used to add both (twice the
        # volume) while every other route refused, so the verdict was "single".
        square = {"type": "normal_x", "lower": "0", "upper": "1"}
        config = write_config(tmp_path, {
            "region": {"type": "union", "parts": [
                {**square, "x_min": -3, "x_max": -1}, {**square, "x_min": 1, "x_max": 3}]},
            "axis": "OY",
        })
        code, out, err = run_cli(capsys, "compare", "--config", config,
                                 "--mc-samples", "1000")
        assert code == 3
        payload = json.loads(out)
        assert payload["verdict"] == "no data" and not payload["reports"]
        assert "no method" in err

    def test_csv_format(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "compare",
                               "--config", str(fixtures_dir / "unit_square.json"),
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "method,value,error_estimate,evaluations,wall_time,verdict"
        assert len(lines) >= 4
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[-1] == "agree"
            assert float(cells[1]) == pytest.approx(SQUARE_VOLUME, abs=0.05)

    def test_disagreement_exits_4(self, capsys, fixtures_dir, monkeypatch):
        import revolve.methods as methods

        real_shell = methods.volume_shell

        def broken_shell(region, axis, tol=None):
            report = real_shell(region, axis, tol)
            return rv.VolumeReport(report.method, report.value + 1.0,
                                   report.error_estimate, report.evaluations,
                                   report.wall_time)

        monkeypatch.setitem(methods.ROUTES, "shell", broken_shell)
        code, out, _ = run_cli(capsys, "compare",
                               "--config", str(fixtures_dir / "square_normalx.json"),
                               "--mc-samples", "50000")
        assert code == 4
        assert json.loads(out)["verdict"] == "disagree"


class TestVolumeMatchesCompare:
    def test_cli_binds_the_route_table(self):
        # bench/spans.py replaces routes through this name.
        import revolve.cli as cli
        import revolve.methods as methods

        assert cli._METHOD_RUNNERS is methods.ROUTES

    def test_every_fixture(self, capsys, fixtures_dir):
        # Both subcommands go through one route table: a route reports the
        # same numbers alone and within compare, and fails the same way.
        for path in sorted(fixtures_dir.glob("*.json")):
            config = ["--config", str(path), "--mc-samples", "2000"]
            code, out, _ = run_cli(capsys, "compare", *config)
            assert code in (0, 3), path.name
            payload = json.loads(out)
            assert len(payload["reports"]) + len(payload["failures"]) == len(rv.METHODS)
            for report in payload["reports"]:
                code, out, _ = run_cli(capsys, "volume", *config, "--method", report["method"])
                single = json.loads(out)
                assert code == 0
                assert [single[k] for k in ("method", "value", "error_estimate", "evaluations")] == [
                    report[k] for k in ("method", "value", "error_estimate", "evaluations")
                ], (path.name, report["method"])
            for failure in payload["failures"]:
                code, _, err = run_cli(capsys, "volume", *config, "--method", failure["method"])
                assert code == 3
                assert err == f"error: {failure['error']}: {failure['message']}\n"


class TestCentroid:
    def test_square(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "centroid",
                               "--config", str(fixtures_dir / "unit_square.json"))
        assert code == 0
        payload = json.loads(out)
        assert payload["centroid"] == {"x": 1.5, "y": 0.5}
        assert payload["area"] == 1.0

    def test_sector_pappus_identity(self, capsys, fixtures_dir):
        # 2*pi * x_C * area must reproduce the volume (axis is x = 0).
        code, out, _ = run_cli(capsys, "centroid",
                               "--config", str(fixtures_dir / "sector_polar.json"))
        assert code == 0
        payload = json.loads(out)
        pappus = 2.0 * math.pi * payload["centroid"]["x"] * payload["area"]
        assert abs(pappus - SECTOR_VOLUME) <= 1e-8

    def test_zero_area_is_a_computation_error(self, capsys, tmp_path):
        config = write_config(tmp_path, {
            "region": {"type": "normal_x", "x_min": 0, "x_max": 1, "lower": "x", "upper": "x"},
            "axis": {"vertical_at": -1},
        })
        code, out, err = run_cli(capsys, "centroid", "--config", config)
        assert (code, out) == (3, "")
        assert err == "error: InvalidRegionError: region has zero area, so it has no centroid\n"
        code, out, _ = run_cli(capsys, "compare", "--config", config, "--mc-samples", "1000")
        payload = json.loads(out)
        assert (code, payload["verdict"]) == (0, "agree")
        assert {f["method"]: f["error"] for f in payload["failures"]}["pappus"] == "InvalidRegionError"


class TestCheck:
    def test_sector_touching_axis(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "check",
                               "--config", str(fixtures_dir / "sector_polar.json"))
        assert code == 0
        assert json.loads(out)["side"] == 1

    def test_straddle(self, capsys, fixtures_dir):
        code, _, err = run_cli(capsys, "check",
                               "--config", str(fixtures_dir / "straddle.json"))
        assert code == 3
        assert "AxisIntersectsRegion" in err


class TestSample:
    def test_square_grid(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "sample",
                               "--config", str(fixtures_dir / "unit_square.json"),
                               "--grid", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,y,inside,distance"
        assert len(lines) == 5
        job = rv.load_job(fixtures_dir / "unit_square.json")
        for line in lines[1:]:
            x, y, inside, dist = line.split(",")
            p = rv.Point(float(x), float(y))
            assert int(inside) == int(rv.contains(job.region, p))
            assert float(dist) >= 0.0
            assert float(dist) == abs(rv.signed_distance(job.axis, p))
            assert x == format(float(x), ".17g")

    def test_grid_too_small(self, capsys, fixtures_dir):
        code, _, err = run_cli(capsys, "sample",
                               "--config", str(fixtures_dir / "unit_square.json"),
                               "--grid", "1")
        assert code == 2
        assert "--grid" in err

    def test_json_format_is_config_error(self, capsys, fixtures_dir):
        code, out, err = run_cli(capsys, "sample",
                                 "--config", str(fixtures_dir / "unit_square.json"),
                                 "--grid", "2", "--format", "json")
        assert (code, out) == (2, "")
        assert err == "config error: --format: sample always writes CSV\n"

    def test_always_csv(self, capsys, tmp_path, fixtures_dir):
        # An explicit --format csv, or a config file's format field, changes nothing.
        doc = json.loads((fixtures_dir / "unit_square.json").read_text())
        outs = [run_cli(capsys, "sample", "--config", str(fixtures_dir / "unit_square.json"),
                        "--grid", "2", *extra)
                for extra in ([], ["--format", "csv"])]
        outs.append(run_cli(capsys, "sample", "--config",
                            write_config(tmp_path, {**doc, "format": "json"}), "--grid", "2"))
        assert outs[0] == outs[1] == outs[2]
        assert outs[0][0] == 0 and outs[0][1].startswith("x,y,inside,distance\n")

    def test_grid_is_bounded(self, capsys, fixtures_dir):
        # 5793^2 points exceed the Monte Carlo bound of 2^25.
        code, out, err = run_cli(capsys, "sample",
                                 "--config", str(fixtures_dir / "unit_square.json"),
                                 "--grid", "5793")
        assert (code, out) == (2, "")
        assert err == "config error: --grid: need at most 5792 points per side\n"

    # The rows are streamed; the output is the one they printed as a list.
    @pytest.mark.parametrize("fixture, digest", [
        ("unit_square", "149032def06f1143add90281df42bf12f7136cec528f7710542f4fc3705fd674"),
        ("sector_polar", "883d865a67d1b062dd3216e8f9c9aceff004ff1ee26d80c1ba9466482a3dd959"),
    ])
    def test_grid_64_output_is_pinned(self, capsys, fixtures_dir, fixture, digest):
        code, out, _ = run_cli(capsys, "sample",
                               "--config", str(fixtures_dir / f"{fixture}.json"),
                               "--grid", "64")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_blocks_of_rows_match_one_mask(self, capsys, fixtures_dir):
        # 257 points a side: two blocks of whole rows, the second short.
        grid = 257
        assert grid * grid > _CHUNK
        code, out, _ = run_cli(capsys, "sample",
                               "--config", str(fixtures_dir / "sector_polar.json"),
                               "--grid", str(grid))
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == grid * grid
        region = rv.load_job(fixtures_dir / "sector_polar.json").region
        xs = np.array([float(r[0]) for r in rows])
        ys = np.array([float(r[1]) for r in rows])
        assert [int(r[2]) for r in rows] == rv.contains_mask(region, xs, ys).astype(int).tolist()
        assert np.all(np.diff(ys) >= 0.0)

    def test_closed_stdout_ends_silently(self, fixtures_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(fixtures_dir.parent / "src"), *filter(None, [env.get("PYTHONPATH")])])
        with subprocess.Popen(
                [sys.executable, "-m", "revolve.cli", "sample",
                 "--config", str(fixtures_dir / "unit_square.json"), "--grid", "64"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == b"x,y,inside,distance\n"
            proc.stdout.close()
            err = proc.stderr.read()
        assert err == b""


class TestConfigErrors:
    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "volume",
                               "--config", str(tmp_path / "missing.json"))
        assert code == 2
        assert "config error" in err

    def test_all_issues_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "region": {"type": "polar", "theta_min": "oops(", "theta_max": 1,
                       "rho_min": "0", "rho_max": "1"},
            "axis": {"a": 0, "b": 0, "c": 1},
        }), encoding="utf-8")
        code, _, err = run_cli(capsys, "volume", "--config", str(bad))
        assert code == 2
        assert "region.theta_min" in err
        assert "axis" in err

    def test_integer_beyond_float_range(self, capsys, tmp_path):
        config = tmp_path / "huge.json"
        config.write_text(
            '{"region": {"type": "normal_x", "x_min": 0, "x_max": 1' + "0" * 400
            + ', "lower": "0", "upper": "1"}, "axis": "OY"}', encoding="utf-8")
        code, out, err = run_cli(capsys, "volume", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith("config error: region.x_max: ")

    def test_json_infinity_bound(self, capsys, tmp_path):
        config = write_config(tmp_path, {  # json.dumps writes inf as Infinity
            "region": {"type": "normal_x", "x_min": 0, "x_max": math.inf,
                       "lower": "0", "upper": "1"},
            "axis": "OY"})
        code, out, err = run_cli(capsys, "volume", "--config", config)
        assert (code, out) == (2, "")
        assert err == ("config error: region.x_max: not a number or constant expression: "
                       "non-finite scalar inf\n")

    def test_json_nan_sample_count(self, capsys, tmp_path):
        config = write_config(tmp_path, {"region": {"type": "polygon",
                                                    "vertices": [[1, 0], [2, 0], [2, 1], [1, 1]]},
                                         "axis": "OY", "mc": {"samples": math.nan}})
        code, out, err = run_cli(capsys, "volume", "--config", config)
        assert (code, out) == (2, "")
        assert err == "config error: mc.samples: expected an integer, got nan\n"

    def test_axis_that_does_not_normalize(self, capsys, tmp_path):
        config = write_config(tmp_path, {"region": {"type": "polygon",
                                                    "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
                                         "axis": {"a": 1e-300, "b": 0, "c": 1e10}})
        code, out, err = run_cli(capsys, "check", "--config", config)
        assert (code, out) == (2, "")
        assert err == ("config error: axis: coefficients (1e-300, 0.0, 10000000000.0) "
                       "do not normalize to finite values\n")

    def test_integer_too_long_to_read(self, capsys, tmp_path):
        config = tmp_path / "long.json"
        config.write_text('{"axis": 1' + "0" * 5000 + "}", encoding="utf-8")
        code, _, err = run_cli(capsys, "check", "--config", str(config))
        assert code == 2
        assert "invalid JSON" in err

    def test_non_finite_vertex_expression(self, capsys, tmp_path):
        config = write_config(tmp_path, {
            "region": {"type": "polygon", "vertices": [[0, 0], [1, 0], ["1e999", 1]]},
            "axis": "OY",
        })
        code, _, err = run_cli(capsys, "check", "--config", config)
        assert code == 2
        assert err.startswith("config error: region.vertices[2][0]: ")

    @pytest.mark.parametrize("flag", ["--rel-tol", "--abs-tol"])
    def test_infinite_tolerance_is_refused(self, capsys, fixtures_dir, flag):
        # An infinite tolerance stops every quadrature after one panel, and
        # --print-normalized would write a document that does not re-parse.
        for extra in ([], ["--print-normalized"]):
            code, out, err = run_cli(capsys, "check",
                                     "--config", str(fixtures_dir / "torus_circle.json"),
                                     flag, "inf", *extra)
            assert (code, out) == (2, "")
            assert err == "config error: tolerance: tolerances must be finite\n"

    def test_fractional_seed_is_refused(self, capsys, tmp_path):
        config = write_config(tmp_path, {"region": {"type": "polygon",
                                                    "vertices": [[1, 0], [2, 0], [2, 1], [1, 1]]},
                                         "axis": "OY", "mc": {"seed": 1.5}})
        code, out, err = run_cli(capsys, "volume", "--config", config, "--method", "monte_carlo")
        assert (code, out) == (2, "")
        assert err == "config error: mc.seed: expected an integer, got 1.5\n"

    def test_region_type_that_is_not_a_string(self, capsys, tmp_path):
        config = write_config(tmp_path, {"region": {"type": ["polygon"]}, "axis": "OY"})
        code, out, err = run_cli(capsys, "check", "--config", config)
        assert (code, out) == (2, "")
        assert err == ("config error: region.type: expected one of ['normal_x', 'normal_y', "
                       "'polar', 'polygon', 'union'], got ['polygon']\n")

    def test_nesting_past_the_decoder_limit(self, capsys, tmp_path):
        config = tmp_path / "deep.json"
        config.write_text('{"region": ' + "[" * 100_000, encoding="utf-8")
        code, out, err = run_cli(capsys, "check", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: {config}: invalid JSON: maximum recursion depth")

    def test_empty_method_is_refused(self, capsys, fixtures_dir):
        code, out, err = run_cli(capsys, "volume",
                                 "--config", str(fixtures_dir / "unit_square.json"),
                                 "--method", "")
        assert (code, out) == (2, "")
        assert err.startswith("config error: method: expected one of [") and err.endswith(", got ''\n")

    @pytest.mark.parametrize("samples", [str(10**30), str(2**25 + 1)])
    def test_sample_count_is_bounded(self, capsys, fixtures_dir, samples):
        code, out, err = run_cli(capsys, "volume",
                                 "--config", str(fixtures_dir / "unit_square.json"),
                                 "--method", "monte_carlo", "--mc-samples", samples)
        assert (code, out) == (2, "")
        assert err == "config error: mc: need at most 33554432 samples\n"


# Configs near float range: a normal_x box whose distance to the axis
# overflows, a rectangle whose squared edge length and first moments
# overflow, and a thin triangle whose on-edge slack and moments overflow.
_NEAR_FLOAT_RANGE = {
    "far_axis": {"region": {"type": "normal_x", "x_min": "1.5e308", "x_max": "1.6e308",
                            "lower": "0", "upper": "1"},
                 "axis": {"vertical_at": "-1.7e308"}},
    "wide_rectangle": {"region": {"type": "polygon",
                                  "vertices": [[0, 0], [1e155, 0], [1e155, 1], [0, 1]]},
                       "axis": {"horizontal_at": -1}},
    "thin_triangle": {"region": {"type": "polygon",
                                 "vertices": [[1e200, 0], [1.0000000001e200, 0], [1e200, 1]]},
                      "axis": {"horizontal_at": -1}},
}


def _strict_json(text):
    """The document in ``text``, refusing NaN and Infinity, which JSON lacks."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestNearFloatRange:
    @pytest.mark.parametrize("command", [["volume", "--method", "monte_carlo"],
                                         ["volume", "--method", "pappus"], ["centroid"],
                                         ["compare"], ["sample", "--grid", "3"]])
    @pytest.mark.parametrize("name", sorted(_NEAR_FLOAT_RANGE))
    def test_clean_answer_or_refusal(self, capsys, tmp_path, name, command):
        config = write_config(tmp_path, _NEAR_FLOAT_RANGE[name])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *command, "--config", config,
                                     "--mc-samples", "1000")
        assert code in (0, 3)
        if command[0] == "compare":
            report = _strict_json(out)  # printed on exit 3 too, when no route ran
            failures = {f["method"]: f["error"] for f in report["failures"]}
            assert {"monte_carlo", "pappus"} <= set(failures)
        elif code == 3:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        elif command[0] != "sample":
            _strict_json(out)

    @pytest.mark.parametrize("command", [["volume", "--method", "monte_carlo"],
                                         ["sample", "--grid", "3"]])
    def test_distance_beyond_float_range_is_refused(self, capsys, tmp_path, command):
        config = write_config(tmp_path, _NEAR_FLOAT_RANGE["far_axis"])
        code, out, err = run_cli(capsys, *command, "--config", config)
        assert (code, out) == (3, "")
        assert err.startswith("error: InvalidRegionError: ")
        assert "distance" in err

    @pytest.mark.parametrize("name", ["wide_rectangle", "thin_triangle"])
    def test_polygon_failures_are_listed_by_compare(self, capsys, tmp_path, name):
        config = write_config(tmp_path, _NEAR_FLOAT_RANGE[name])
        code, out, _ = run_cli(capsys, "compare", "--config", config, "--mc-samples", "1000")
        assert code == 0
        report = _strict_json(out)
        failures = {f["method"]: f["error"] for f in report["failures"]}
        assert failures["pappus"] == failures["monte_carlo"] == "InvalidRegionError"
        assert "double_integral" in {r["method"] for r in report["reports"]}


def _deep_curve_doc(upper):
    """normal_x on [0, 1] under the curve ``upper`` in x, which is at least
    0 there, about x = -1."""
    return {"region": {"type": "normal_x", "x_min": 0, "x_max": 1, "lower": "0",
                       "upper": upper},
            "axis": {"vertical_at": -1}}


class TestDeepCurves:
    """A curve past the parser's nesting bound is a config error (exit 2),
    not a traceback; one at the bound runs, as does a long chain."""

    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    @pytest.mark.parametrize("past", [1, 98])
    def test_past_the_bound_exits_2(self, capsys, tmp_path, shape, past):
        make, position = DEEP_SHAPES[shape]
        limit = expr._MAX_NESTING
        config = write_config(tmp_path, _deep_curve_doc(make(limit + past)))
        code, out, err = run_cli(capsys, "volume", "--config", config)
        assert (code, out) == (2, "")
        # The parser stops at the first token past the bound.
        assert err == ("config error: region.upper: nesting deeper than 100 levels "
                       f"(at position {position(limit + 1)})\n")

    def _compare_runs(self, capsys, tmp_path, upper):
        config = write_config(tmp_path, _deep_curve_doc(upper))
        code, out, _ = run_cli(capsys, "check", "--config", config)
        assert code == 0 and json.loads(out)["side"] == 1
        code, out, _ = run_cli(capsys, "compare", "--config", config, "--mc-samples", "20000")
        assert code == 0 and json.loads(out)["verdict"] == "agree"

    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_at_the_bound_compare_runs(self, capsys, tmp_path, shape):
        self._compare_runs(capsys, tmp_path, DEEP_SHAPES[shape][0](expr._MAX_NESTING))

    def test_a_long_chain_compare_runs(self, capsys, tmp_path):
        self._compare_runs(capsys, tmp_path, chain(5000))


def _nested_union_doc(n):
    """A normal_x leaf inside n unions, each the one part of the next,
    about x = -1."""
    region = {"type": "normal_x", "x_min": 0, "x_max": 1, "lower": "0", "upper": "1+x"}
    for _ in range(n):
        region = {"type": "union", "parts": [region]}
    return {"region": region, "axis": {"vertical_at": -1}}


class TestDeepUnions:
    """Unions nested past config's bound are a config error (exit 2) at
    the first union past it, not a traceback; at the bound the job runs."""

    def test_at_the_bound_every_subcommand_runs(self, capsys, tmp_path):
        doc = _nested_union_doc(_MAX_UNION_NESTING)
        config = write_config(tmp_path, doc)
        code, out, _ = run_cli(capsys, "check", "--config", config)
        assert code == 0 and json.loads(out)["side"] == 1
        code, out, _ = run_cli(capsys, "compare", "--config", config, "--mc-samples", "20000")
        assert code == 0 and json.loads(out)["verdict"] == "agree"
        code, out, _ = run_cli(capsys, "volume", "--config", config, "--print-normalized")
        assert code == 0 and json.loads(out)["region"] == doc["region"]

    @pytest.mark.parametrize("n", [_MAX_UNION_NESTING + 1, 245])
    def test_past_the_bound_exits_2(self, capsys, tmp_path, n):
        config = write_config(tmp_path, _nested_union_doc(n))
        code, out, err = run_cli(capsys, "check", "--config", config)
        assert (code, out) == (2, "")
        path = "region" + ".parts[0]" * _MAX_UNION_NESTING
        assert err == f"config error: {path}: unions nested deeper than 100 levels\n"


class TestVolumeBeyondFloatRange:
    """A volume that overflows while the area does not: a refusal with exit
    3, never a traceback or an Infinity that JSON lacks."""

    @pytest.mark.parametrize("method", ["double_integral", "disk", "pappus"])
    def test_volume_is_refused(self, capsys, tmp_path, method):
        config = write_config(tmp_path, overflowing_union_doc())
        code, out, err = run_cli(capsys, "volume", "--method", method, "--config", config)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: QuadratureNoConvergence: {method} volume inf ")
        assert err.count("\n") == 1

    def test_compare_has_no_data(self, capsys, tmp_path):
        config = write_config(tmp_path, overflowing_union_doc())
        code, out, _ = run_cli(capsys, "compare", "--config", config, "--mc-samples", "1000")
        assert code == 3
        report = _strict_json(out)
        assert (report["reports"], report["verdict"]) == ([], "no data")

    def test_centroid_is_reported(self, capsys, tmp_path):
        config = write_config(tmp_path, overflowing_union_doc())
        code, out, _ = run_cli(capsys, "centroid", "--config", config)
        assert code == 0
        assert _strict_json(out)["area"] == pytest.approx(1.41e154, rel=1e-12)


class TestPrintNormalized:
    def test_roundtrip(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "volume",
                               "--config", str(fixtures_dir / "sector_polar.json"),
                               "--print-normalized")
        assert code == 0
        doc = json.loads(out)
        job = parse_job(doc)
        assert job == rv.load_job(fixtures_dir / "sector_polar.json")
        assert doc["region"]["theta_min"] == -math.pi / 3


class TestDeterminism:
    def test_identical_runs_byte_identical_without_wall_time(self, fixtures_dir):
        cmd = [sys.executable, "-m", "revolve.cli", "volume",
               "--config", str(fixtures_dir / "unit_square.json"),
               "--method", "monte_carlo", "--mc-samples", "100000",
               "--seed", "77"]
        outs = []
        for _ in range(2):
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            payload = json.loads(proc.stdout)
            payload.pop("wall_time")
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1]



# Every report the CLI writes, pinned by digest: on each fixture, check,
# centroid, compare, sample and volume with every route, in JSON and in
# CSV, and the normalized config.  Regenerate with
# ``PYTHONPATH=src python tests/test_cli.py`` only where a change of the
# output is meant.
GOLDEN = pathlib.Path(__file__).resolve().parent / "cli_outputs.json"
_GOLDEN_COMMANDS = [
    *([*command, "--format", fmt]
      for command in (["check"], ["centroid"], ["compare", "--mc-samples", "20000"],
                      *(["volume", "--method", m, "--mc-samples", "20000"] for m in rv.METHODS),
                      ["sample", "--grid", "8"])
      for fmt in ("json", "csv")),
    ["check", "--print-normalized"],
]


def _mask_wall_time(out: str) -> str:
    """``out`` with each wall_time value, in JSON or in a CSV column, as *."""
    if out.startswith("{"):
        return re.sub(r'("wall_time": )[^,\n]+', r"\1*", out)
    lines = out.split("\n")
    if "wall_time" not in lines[0].split(","):
        return out
    column = lines[0].split(",").index("wall_time")
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        if len(cells) > column:
            cells[column] = "*"
            lines[i] = ",".join(cells)
    return "\n".join(lines)


def golden_outputs(fixtures_dir) -> dict:
    """Run -> [exit code, sha256 of stdout with wall_time masked, sha256 of
    stderr], running ``main`` in-process."""
    runs = {}
    for path in sorted(fixtures_dir.glob("*.json")):
        for command in _GOLDEN_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*command, "--config", str(path)])
            assert str(fixtures_dir) not in err.getvalue()
            runs[" ".join([path.stem, *command])] = [
                code,
                hashlib.sha256(_mask_wall_time(out.getvalue()).encode()).hexdigest(),
                hashlib.sha256(err.getvalue().encode()).hexdigest(),
            ]
    return runs


class TestGoldenOutputs:
    def test_every_report_is_byte_identical(self, fixtures_dir):
        expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
        actual = golden_outputs(fixtures_dir)
        assert len(actual) == 12 * 21
        assert {run: got for run, got in actual.items() if expected.get(run) != got} == {}
        assert actual.keys() == expected.keys()


# Runs CLI jobs in one fresh interpreter and reports, after a bare import
# and after each job, whether numpy has been imported.
_NUMPY_PROBE = """
import contextlib, io, json, sys
import revolve
from revolve.cli import main
seen = [["import revolve", None, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    seen.append([" ".join(argv), code, "numpy" in sys.modules])
print(json.dumps(seen))
"""


def _pappus_csv_job(fixtures_dir):
    return ["volume", "--config", str(fixtures_dir / "torus_disk.json"),
            "--method", "pappus", "--format", "csv"]


def _numpy_after(fixtures_dir, jobs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(fixtures_dir.parent / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, json.dumps(jobs)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


class TestNumpyOnlyWhereArraysAre:
    def test_check_volume_and_centroid_never_import_numpy(self, fixtures_dir):
        jobs = [[command, "--config", str(path)]
                for path in sorted(fixtures_dir.glob("*.json"))
                for command in ("check", "volume", "centroid")]
        seen = _numpy_after(fixtures_dir, jobs)
        assert len(seen) == 1 + 36
        assert [loaded for _, _, loaded in seen] == [False] * 37
        assert {code for job, code, _ in seen[1:] if "straddle" not in job} == {0}

    def test_compare_and_sample_import_numpy_and_work(self, fixtures_dir):
        config = str(fixtures_dir / "torus_circle.json")
        seen = _numpy_after(fixtures_dir, [["check", "--config", config],
                                           ["compare", "--config", config, "--mc-samples", "1000"],
                                           ["sample", "--config", config, "--grid", "4"]])
        assert [(code, loaded) for _, code, loaded in seen] == [
            (None, False), (0, False), (0, True), (0, True)]

    def test_pappus_csv_never_imports_numpy(self, fixtures_dir):
        seen = _numpy_after(fixtures_dir, [_pappus_csv_job(fixtures_dir)])
        assert [(code, loaded) for _, code, loaded in seen] == [(None, False), (0, False)]

    def test_the_array_side_loads_only_where_a_job_masks(self, fixtures_dir):
        # sample masks a few points and reads the box: revolve._cells, and no
        # cell grid, whose build brings in the array interval table.
        config = str(fixtures_dir / "torus_circle.json")
        loaded = _modules_after(fixtures_dir, [["sample", "--config", config, "--grid", "4"]])
        assert "revolve._cells" in loaded and "revolve._intervals" not in loaded
        loaded = _modules_after(fixtures_dir, [["compare", "--config", config]])
        assert {"revolve._cells", "revolve._intervals"} <= loaded


# Runs CLI jobs in one fresh interpreter after ``import revolve`` and prints
# the names of the modules loaded by then.
_MODULES_PROBE = """
import contextlib, io, json, sys
import revolve
from revolve.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
print(json.dumps(sorted(sys.modules)))
"""


def _modules_after(fixtures_dir, jobs) -> set:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(fixtures_dir.parent / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE, json.dumps(jobs)],
                          capture_output=True, text=True, env=env, check=True)
    return set(json.loads(proc.stdout))


class TestNoDataclassesOnTheCliPath:
    # revolve's types are records built without dataclasses, which would
    # also bring in inspect.
    def test_numpy_free_jobs_load_neither_dataclasses_nor_inspect(self, fixtures_dir):
        jobs = [[command, "--config", str(path)]
                for path in sorted(fixtures_dir.glob("*.json"))
                for command in ("check", "volume", "centroid")]
        assert len(jobs) == 36
        loaded = _modules_after(fixtures_dir, jobs)
        assert {"revolve.cli", "revolve.methods", "revolve.region"} <= loaded
        assert not loaded & {"dataclasses", "inspect"}
        # Nor a region's array side.
        assert not loaded & {"revolve._cells", "revolve._intervals"}

    def test_pappus_csv_loads_neither_dataclasses_nor_inspect(self, fixtures_dir):
        loaded = _modules_after(fixtures_dir, [_pappus_csv_job(fixtures_dir)])
        assert "revolve.methods" in loaded
        assert not loaded & {"dataclasses", "inspect", "numpy"}


def _child(fixtures_dir, args, blas_threads=None, check=True):
    """Run ``python *args`` with revolve on its path and
    OPENBLAS_NUM_THREADS set to ``blas_threads``, or unset when None;
    with ``check``, a nonzero exit raises."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(fixtures_dir.parent / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, check=check)


class TestOneBlasThread:
    """A process that imports revolve.cli runs OpenBLAS on one thread,
    unless OPENBLAS_NUM_THREADS says otherwise; the library leaves it be."""

    _PROBE = ("import json, os, sys; import revolve.cli; "
              "print(json.dumps(['numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS')]))")

    def test_importing_the_cli_sets_one_thread_before_numpy(self, fixtures_dir):
        out = _child(fixtures_dir, ["-c", self._PROBE]).stdout
        assert json.loads(out) == [False, "1"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_numpy_then_runs_one_thread(self, fixtures_dir):
        out = _child(fixtures_dir, ["-c", "import os, revolve.cli, numpy; "
                                          "print(len(os.listdir('/proc/self/task')))"]).stdout
        assert out == "1\n"

    def test_a_preset_value_is_kept(self, fixtures_dir):
        out = _child(fixtures_dir, ["-c", self._PROBE], blas_threads="3").stdout
        assert json.loads(out) == [False, "3"]

    def test_the_library_leaves_it_unset(self, fixtures_dir):
        out = _child(fixtures_dir, ["-c", "import os, revolve; "
                                          "print(os.environ.get('OPENBLAS_NUM_THREADS'))"]).stdout
        assert out == "None\n"

    def test_compare_prints_the_same_with_any_thread_count(self, fixtures_dir):
        args = ["-m", "revolve.cli", "compare", "--config",
                str(fixtures_dir / "torus_circle.json"), "--mc-samples", "20000"]
        outs = [_mask_wall_time(_child(fixtures_dir, args, threads).stdout)
                for threads in (None, "2")]
        assert outs[0] == outs[1]
        assert '"verdict": "agree"' in outs[0]


class TestProcessExit:
    """``python -m revolve.cli`` goes through ``run()``, which ends a plain
    process once its report is flushed; its exit code and bytes are those
    of ``main()`` in-process, and an observed process exits normally."""

    @pytest.mark.parametrize("argv, code", [
        (["check", "--config", "unit_square.json"], 0),
        (["check", "--config", "unit_square.json", "--rel-tol", "inf"], 2),
        (["compare", "--config", "straddle.json", "--mc-samples", "1000"], 3),
    ], ids=["ok", "config_error", "no_method"])
    def test_exit_code_and_bytes_are_mains(self, capsys, fixtures_dir, argv, code):
        argv = [str(fixtures_dir / a) if a.endswith(".json") else a for a in argv]
        proc = _child(fixtures_dir, ["-m", "revolve.cli", *argv], check=False)
        expected = run_cli(capsys, *argv)
        assert expected[0] == code
        assert (proc.returncode, _mask_wall_time(proc.stdout), proc.stderr) == (
            code, _mask_wall_time(expected[1]), expected[2])

    def test_sample_through_a_pipe_writes_every_line(self, capsys, fixtures_dir):
        argv = ["sample", "--config", str(fixtures_dir / "sector_polar.json"), "--grid", "300"]
        proc = _child(fixtures_dir, ["-m", "revolve.cli", *argv])
        assert proc.stdout.count("\n") == 300 * 300 + 1
        assert (proc.stdout, proc.stderr) == run_cli(capsys, *argv)[1:]

    def test_a_profiled_process_still_prints_its_table(self, fixtures_dir):
        proc = _child(fixtures_dir, ["-m", "cProfile", "-m", "revolve.cli", "check",
                                     "--config", str(fixtures_dir / "unit_square.json")])
        assert proc.stdout.startswith('{\n  "command": "check",\n  "side": 1\n}\n')
        assert "function calls" in proc.stdout and "ncalls" in proc.stdout

    def test_a_plain_process_skips_exit_handlers(self, fixtures_dir):
        script = ("import atexit, sys; from revolve.cli import run; "
                  "atexit.register(print, 'exit handler ran'); "
                  "sys.argv[1:] = ['check', '--config', sys.argv[1]]; run()")
        proc = _child(fixtures_dir, ["-c", script, str(fixtures_dir / "unit_square.json")])
        assert proc.stdout == '{\n  "command": "check",\n  "side": 1\n}\n'


if __name__ == "__main__":
    from conftest import FIXTURES

    lines = [f"  {json.dumps(run)}: {json.dumps(got)}"
             for run, got in golden_outputs(FIXTURES).items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
