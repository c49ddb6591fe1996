import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import apollonia
from apollonia.cli import run_command
from apollonia.scene import ParseError, SchemaError, parse_scene

SCENE_8 = {
    "circles": [
        {"type": "circle", "center": [0, 0], "radius": 1, "orientation": "ccw"},
        {"type": "circle", "center": [3, 0], "radius": 1, "orientation": "ccw"},
        {"type": "circle", "center": [0, 3], "radius": 1, "orientation": "ccw"},
    ]
}

SCENE_CONCURRENT_LINES = {
    "circles": [
        {"type": "line", "point": [0, 0], "angle": 0.0},
        {"type": "line", "point": [0, 0], "angle": 1.0},
        {"type": "line", "point": [0, 0], "angle": 2.0},
    ]
}

SCENE_DESCARTES = {
    "circles": [
        {"type": "circle", "center": [0, 0], "radius": 1},
        {"type": "circle", "center": [3, 0], "radius": 2},
        {"type": "circle", "center": [0, 4], "radius": 3},
    ]
}

# U computes to exactly 0, yet the classifier finds no common point: the
# generic closed form, which divides by U, is undefined
SCENE_U_ZERO = {
    "circles": [
        {"type": "circle", "center": [8.65005662798805, 128.9797175529594],
         "radius": 551.9726367285646, "orientation": "cw"},
        {"type": "circle", "center": [394.45640726517064, -836.8261494670755],
         "radius": 890.6378769179171, "orientation": "ccw"},
        {"type": "circle", "center": [-806.4406445279399, 486.18062749503423],
         "radius": 931.6553999447236, "orientation": "ccw"},
    ]
}


def write_scene(tmp_path, doc, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseScene:
    def test_three_circles(self):
        scene = parse_scene(json.dumps(SCENE_8))
        assert len(scene.circles) == 3
        assert scene.circles[0].quadruple() == \
            pytest.approx((1.0, 0.0, 0.0, -1.0))

    def test_mixed_line_and_circles(self):
        doc = {"circles": [
            {"type": "line", "point": [0, 0], "angle": 0.0},
            {"type": "circle", "center": [1, 2], "radius": 1},
            {"type": "coeffs", "abcd": [1, 0, 0, -1]},
        ]}
        scene = parse_scene(json.dumps(doc))
        assert scene.circles[0].is_line

    def test_options(self):
        doc = dict(SCENE_8, options={"cos_psi": [1, 0.5], "all": True,
                                     "strict": True})
        scene = parse_scene(json.dumps(doc))
        assert scene.options.cos_psi == [1.0, 0.5]
        assert scene.options.enumerate_all and scene.options.strict

    def test_invalid_radius_names_index(self):
        doc = {"circles": [
            SCENE_8["circles"][0],
            {"type": "circle", "center": [1, 1], "radius": -1},
            SCENE_8["circles"][2],
        ]}
        with pytest.raises(ValueError, match=r"circles\[1\]"):
            parse_scene(json.dumps(doc))

    def test_non_normalizable_coeffs(self):
        doc = {"circles": [
            {"type": "coeffs", "abcd": [1, 0, 0, 1]},
            SCENE_8["circles"][1],
            SCENE_8["circles"][2],
        ]}
        with pytest.raises(ValueError, match=r"circles\[0\]"):
            parse_scene(json.dumps(doc))

    def test_syntax_error(self):
        with pytest.raises(ParseError):
            parse_scene("{not json")

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            parse_scene(json.dumps({"circles": SCENE_8["circles"][:2]}))
        with pytest.raises(SchemaError):
            parse_scene(json.dumps([1, 2, 3]))
        with pytest.raises(SchemaError, match=r"circles\[0\]"):
            parse_scene(json.dumps(
                {"circles": [{"type": "circle", "radius": 1},
                             SCENE_8["circles"][1], SCENE_8["circles"][2]]}))

    def test_round_trip_emission(self, tmp_path, capsys):
        path = write_scene(tmp_path, SCENE_8)
        assert run_command(["solve", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        # re-parse the emitted quadruples: identical coefficients
        doc2 = {"circles": [{"type": "coeffs", "abcd": q}
                            for q in doc["inputs"]]}
        scene = parse_scene(json.dumps(doc2))
        for k, q in zip(scene.circles, doc["inputs"]):
            assert max(abs(u - v) for u, v in zip(k.quadruple(), q)) <= 1e-12


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        path = write_scene(tmp_path, SCENE_8)
        assert run_command(["solve", path]) == 0
        capsys.readouterr()

    def test_missing_scene_file(self, tmp_path):
        assert run_command(["solve", str(tmp_path / "nope.json")]) == 2

    def test_bad_scene(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert run_command(["solve", str(path)]) == 2

    def test_strict_no_solution(self, tmp_path, capsys):
        path = write_scene(tmp_path, SCENE_CONCURRENT_LINES)
        assert run_command(["solve", path]) == 0
        assert run_command(["solve", path, "--strict"]) == 1
        capsys.readouterr()

    def test_descartes_rejects_bad_config(self, tmp_path, capsys):
        path = write_scene(tmp_path, SCENE_8)
        assert run_command(["descartes", path]) == 2
        capsys.readouterr()

    def test_unknown_command(self, tmp_path, capsys):
        assert run_command(["frobnicate", "x.json"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("extra", [[], ["--all"]])
    def test_u_zero_is_an_input_error(self, tmp_path, capsys, extra):
        path = write_scene(tmp_path, SCENE_U_ZERO)
        assert run_command(["solve", path, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "U = 0" in err

    def test_parser_is_reused_across_commands(self, tmp_path, capsys):
        path = write_scene(tmp_path, SCENE_8)
        assert run_command(["solve", path, "--all"]) == 0
        assert len(json.loads(capsys.readouterr().out)["solution_sets"]) == 4
        assert run_command(["solve", path]) == 0
        assert len(json.loads(capsys.readouterr().out)["solution_sets"]) == 1


def test_cli_import_does_not_load_numpy():
    src = str(Path(apollonia.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ
                 else [])))
    code = "import sys, apollonia.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"


class TestDocuments:
    def test_solve_all_eight(self, tmp_path, capsys):
        path = write_scene(tmp_path, SCENE_8)
        assert run_command(["solve", path, "--all"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_solutions"] == 8
        assert len(doc["distinct_unoriented"]) == 8
        for entry in doc["solution_sets"]:
            for sol in entry["solutions"]:
                assert sol["residual"] <= 1e-8

    def test_every_number_is_finite(self, tmp_path, capsys):
        path = write_scene(tmp_path, SCENE_8)
        assert run_command(["solve", path, "--all"]) == 0
        text = capsys.readouterr().out
        assert "NaN" not in text and "Infinity" not in text
        json.loads(text)  # allow_nan=False round trip

    def test_invariants_concurrent_lines(self, tmp_path, capsys):
        path = write_scene(tmp_path, SCENE_CONCURRENT_LINES)
        assert run_command(["invariants", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["class"] == "three_lines"
        assert abs(doc["summary"]["u"]) <= 1e-9
        assert abs(doc["summary"]["d1"]) <= 1e-9

    def test_isogonal_at_one_equals_solve(self, tmp_path, capsys):
        path = write_scene(tmp_path, SCENE_8)
        assert run_command(["solve", path]) == 0
        solve_doc = json.loads(capsys.readouterr().out)
        assert run_command(["isogonal", path, "--cos-psi", "1"]) == 0
        iso_doc = json.loads(capsys.readouterr().out)
        a = [s["coeffs"] for s in solve_doc["solution_sets"][0]["solutions"]]
        b = [s["coeffs"] for s in iso_doc["solution_sets"][0]["solutions"]]
        assert len(a) == len(b) == 2
        for qa, qb in zip(a, b):
            assert max(abs(u - v) for u, v in zip(qa, qb)) <= 1e-10

    def test_isogonal_requires_parameters(self, tmp_path, capsys):
        path = write_scene(tmp_path, SCENE_8)
        assert run_command(["isogonal", path]) == 2
        capsys.readouterr()

    def test_descartes_curvatures(self, tmp_path, capsys):
        path = write_scene(tmp_path, SCENE_DESCARTES)
        assert run_command(["descartes", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        a1, a2, a3 = 1.0, 0.5, 1.0 / 3.0
        root = 2.0 * math.sqrt(a1 * a2 + a2 * a3 + a3 * a1)
        expected = sorted((-(a1 + a2 + a3) + root, -(a1 + a2 + a3) - root))
        assert sorted(doc["curvatures"]) == pytest.approx(expected)

    def test_json_file_output(self, tmp_path, capsys):
        path = write_scene(tmp_path, SCENE_8)
        out = tmp_path / "out.json"
        assert run_command(["solve", path, "--json", str(out)]) == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        assert doc["n_solutions"] == 2


class TestSvg:
    def test_two_solution_scene_has_five_strokes(self, tmp_path, capsys):
        path = write_scene(tmp_path, SCENE_8)
        svg = tmp_path / "out.svg"
        assert run_command(["solve", path, "--svg", str(svg)]) == 0
        capsys.readouterr()
        text = svg.read_text()
        assert text.count("<circle ") == 5
        assert text.count('stroke-width="3"') == 3
        assert text.count('stroke-width="1"') == 2

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_scene(tmp_path, SCENE_8)
        svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run_command(["solve", path, "--all", "--svg", str(svg1)]) == 0
        assert run_command(["solve", path, "--all", "--svg", str(svg2)]) == 0
        capsys.readouterr()
        assert svg1.read_bytes() == svg2.read_bytes()

    def test_lines_are_clipped(self, tmp_path, capsys):
        doc = {"circles": [
            {"type": "line", "point": [0, 0], "angle": 0.0},
            {"type": "line", "point": [0, 0], "angle": 1.57079632679489},
            {"type": "line", "point": [2, 0], "angle": 2.35619449019234},
        ]}
        path = write_scene(tmp_path, doc)
        svg = tmp_path / "out.svg"
        assert run_command(["solve", path, "--svg", str(svg)]) == 0
        capsys.readouterr()
        text = svg.read_text()
        assert text.count("<line ") == 3
        # all endpoints inside the viewBox
        import re
        width = float(re.search(r'width="([\d.]+)"', text).group(1))
        height = float(re.search(r'height="([\d.]+)"', text).group(1))
        for m in re.finditer(r'<line x1="([-\d.e]+)" y1="([-\d.e]+)" '
                             r'x2="([-\d.e]+)" y2="([-\d.e]+)"', text):
            x1, y1, x2, y2 = map(float, m.groups())
            for x, y in ((x1, y1), (x2, y2)):
                assert -1e-6 <= x <= width + 1e-6
                assert -1e-6 <= y <= height + 1e-6
