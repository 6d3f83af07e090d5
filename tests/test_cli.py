"""End-to-end runs of the command-line front end."""

import json
import math
import warnings

import numpy as np
import pytest

from foambounds import (
    CostInput,
    DensityClass,
    DiscProbe,
    DistanceMatrix,
    Domain,
    EvaObjective,
    PressureInput,
    ReducedDistanceMatrix,
    a0,
    compact_foam_bounds,
    kelvin_cell_bound,
    load_instance,
    main_theorem_bound,
    reduce_distance_matrix,
)
from foambounds.cli import main
from foambounds.geometry import THETA_V_PI
from foambounds.meshcheck import save_off
from foambounds.meshes import flat_sheet, icosphere, tetrahedral_cone, triple_wedge

WORKED_INSTANCE = {
    "points": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-2.0, 0.0, 0.0]],
    "domain": {
        "type": "halfspaces",
        "halfspaces": [{"normal": [0.0, 0.0, 1.0], "offset": 4.0}],
    },
    "h": 0.0,
}


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(WORKED_INSTANCE))
    return str(path)


def run(args):
    return main(args)


def read_report(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def test_eva_exact_worked_instance(instance_path, tmp_path):
    out = tmp_path / "report.json"
    assert run(["eva-exact", "--input", instance_path, "--output", str(out)]) == 0
    report = read_report(out)
    assert report["evA_over_theta_v_pi"] == pytest.approx(16.0, rel=1e-12)
    assert report["method"] == "exact"
    assert report["subset"] == [0]
    assert report["evA"] == pytest.approx(16.0 * THETA_V_PI, rel=1e-12)
    assert report["subsets_total"] == 7
    assert 1 <= report["subsets_scored"] <= 7


def test_eva_exact_from_distance_matrix(tmp_path):
    doc = {
        "distance_matrix": [
            [0.0, 1.0, 2.0, 4.0],
            [1.0, 0.0, 3.0, 4.0],
            [2.0, 3.0, 0.0, 4.0],
            [4.0, 4.0, 4.0, 0.0],
        ],
        "h": 0.0,
    }
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert run(["eva-exact", "--input", str(path), "--output", str(out)]) == 0
    assert read_report(out)["evA_over_theta_v_pi"] == pytest.approx(16.0, rel=1e-12)


def test_eva_full_set(instance_path, tmp_path):
    out = tmp_path / "report.json"
    dump = tmp_path / "polytope.json"
    assert run([
        "eva", "--input", instance_path, "--output", str(out),
        "--dump-polytope", str(dump),
    ]) == 0
    report = read_report(out)
    assert report["theta_v_pi_units"] == pytest.approx(5.0, rel=1e-12)
    assert report["convexity_certified"] is True
    assert report["radii"] == [0.0, 1.0, 2.0]
    poly = read_report(dump)
    assert len(poly["polytope"]["M"]) == 6
    assert len(poly["vertices"]["vertices"]) == 6


README_MATRIX = [[0, 1, 2, 4], [1, 0, 3, 4], [2, 3, 0, 4], [4, 4, 4, 0]]


def test_eva_raw_matrix_with_classes(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"distance_matrix": README_MATRIX, "h": 0,
                                "classes": ["vertex", "edge", "face"]}))
    out = tmp_path / "report.json"
    assert run(["eva", "--input", str(path), "--output", str(out)]) == 0
    report = read_report(out)
    # Radii [0, 1, 2] on densities (theta_v, 1.5, 1): 1.5 pi + 4 pi.
    assert report["radii"] == [0.0, 1.0, 2.0]
    assert report["eva"] == pytest.approx(5.5 * math.pi, rel=1e-12)
    path.write_text(json.dumps({"distance_matrix": README_MATRIX, "classes": ["edge", "face"]}))
    assert run(["eva", "--input", str(path)]) == 2
    assert "need one class per distance-matrix point" in capsys.readouterr().err


def periodic_instance(tmp_path, points, h):
    path = tmp_path / f"periodic{len(points)}_{h}.json"
    path.write_text(json.dumps({
        "points": points, "domain": {"type": "periodic", "lengths": [1, 1, 1]}, "h": h,
    }))
    return str(path)


def test_periodic_radii_capped_at_half_the_period(tmp_path):
    # Two Kelvin foam vertices and one alone, in the unit periodic box.
    # Without the cap the lone vertex got r = 1/h = 3.33 (eva 8.62) and the
    # pair [0, 0.866] (eva 4.30), above the foam's area per cube, 3.343;
    # at h = 0 the lone vertex was unbounded (exit 3).
    pair = [[0.0, 0.25, 0.5], [0.5, 0.75, 0.0]]
    cases = (
        ("eva", pair, 0.0, "eva", 2.2009038762142445, [0.3660254037844386, 0.5]),
        ("eva-exact", pair, 0.0, "evA", 2.2009038762142445, [0.3660254037844386, 0.5]),
        ("eva", pair[:1], 0.3, "eva", 1.0615739358400127, [0.5]),
        ("eva", pair[:1], 0.0, "eva", THETA_V_PI / 4.0, [0.5]),
    )
    for command, points, h, key, value, radii in cases:
        out = tmp_path / "report.json"
        assert run([command, "--input", periodic_instance(tmp_path, points, h),
                    "--output", str(out)]) == 0
        report = read_report(out)
        assert report[key] == pytest.approx(value, rel=1e-12), (command, points, h)
        assert report["radii"] == pytest.approx(radii, rel=1e-15)


def test_eva_greedy(instance_path, tmp_path):
    out = tmp_path / "report.json"
    assert run(["eva-greedy", "--input", instance_path, "--output", str(out)]) == 0
    report = read_report(out)
    assert report["method"] == "algorithm1"
    assert report["evA_over_theta_v_pi"] == pytest.approx(16.0, rel=1e-12)


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"points": [[0, 0, 0],')
    assert run(["eva", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_missing_file_exits_2(tmp_path):
    assert run(["eva", "--input", str(tmp_path / "nope.json")]) == 2


def test_unbounded_instance_exits_3(tmp_path):
    doc = {"points": [[0.0, 0.0, 0.0]], "domain": {"type": "all"}, "h": 0.0}
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(doc))
    assert run(["eva", "--input", str(path)]) == 3


def test_unbounded_instance_eva_exact_exits_3(tmp_path):
    doc = {"points": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], "domain": {"type": "all"}, "h": 0.0}
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(doc))
    assert run(["eva-exact", "--input", str(path)]) == 3


def test_bounds_kelvin(tmp_path):
    out = tmp_path / "kelvin.json"
    assert run(["bounds-kelvin", "--edge-length", "1.0", "--output", str(out)]) == 0
    report = read_report(out)
    assert report["total"] == pytest.approx(12.38325, abs=1e-3)
    assert report["total"] < 13.3485
    assert "formulas" in report


def test_bounds_main(tmp_path):
    out = tmp_path / "main.json"
    assert run([
        "bounds-main", "--theta", "face", "--h", "0.0", "--radius", "1.0",
        "--output", str(out),
    ]) == 0
    assert read_report(out)["area_lower_bound"] == pytest.approx(math.pi, rel=1e-12)


def test_bounds_compact(tmp_path):
    out = tmp_path / "compact.json"
    assert run([
        "bounds-compact", "--theta", "edge", "--h", "1.0", "--output", str(out),
    ]) == 0
    report = read_report(out)
    assert report["r_max_lower"] == 1.0
    assert report["area_lower"] == pytest.approx(1.5 * math.pi / math.e ** 2, rel=1e-12)


def test_bounds_compact_h_zero_exits_2(tmp_path):
    assert run(["bounds-compact", "--theta", "edge", "--h", "0.0"]) == 2


def test_bounds_cost(tmp_path):
    out = tmp_path / "cost.json"
    assert run([
        "bounds-cost", "--cells", "1", "--foam-vertices", "1", "--volume", "1.0",
        "--min-distance", "2.0", "--periodic", "--output", str(out),
    ]) == 0
    report = read_report(out)
    assert report["cost_lower_bound"] == pytest.approx(24.0 * THETA_V_PI ** 3, rel=1e-12)


def test_bounds_pressure(tmp_path):
    out = tmp_path / "pressure.json"
    assert run([
        "bounds-pressure", "--sigma", "1.0", "--vertex-density", "1.0",
        "--min-distance", "2.0", "--output", str(out),
    ]) == 0
    report = read_report(out)
    assert report["pressure_lower_bound"] == pytest.approx(1.5 * THETA_V_PI, rel=1e-12)


def test_mesh_verify_and_csv(tmp_path):
    mesh_path = tmp_path / "cone.off"
    save_off(tetrahedral_cone(2.5), mesh_path)
    out = tmp_path / "verify.json"
    csv_path = tmp_path / "curve.csv"
    assert run([
        "mesh-verify", "--input", str(mesh_path), "--center", "0,0,0",
        "--radius", "1.0", "--theta", "vertex", "--h", "0.0",
        "--eps-area", "1e-3", "--csv", str(csv_path), "--curve-points", "4",
        "--output", str(out),
    ]) == 0
    report = read_report(out)
    assert report["ratio"] == pytest.approx(1.0, abs=0.01)
    assert report["rhs"] == pytest.approx(THETA_V_PI, rel=1e-12)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "radius,bound,measured_area"
    assert len(lines) == 5
    for line in lines[1:]:
        r, _, measured = (float(x) for x in line.split(","))
        assert measured == pytest.approx(THETA_V_PI * r * r, abs=1e-12)


def test_mesh_angles(tmp_path):
    mesh_path = tmp_path / "wedge.off"
    save_off(triple_wedge(2.0, azimuths_deg=(0.0, 118.0, 240.0)), mesh_path)
    out = tmp_path / "angles.json"
    assert run([
        "mesh-angles", "--input", str(mesh_path), "--angle-tol", "1.0",
        "--output", str(out),
    ]) == 0
    report = read_report(out)
    assert report["passed"] is False
    assert report["max_deviation_deg"] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_mesh_angles_rejects_bad_angle_tol(tol, tmp_path, capsys):
    mesh_path = tmp_path / "wedge.off"
    save_off(triple_wedge(2.0), mesh_path)
    assert run(["mesh-angles", "--input", str(mesh_path), "--angle-tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--angle-tol" in captured.err


def test_mesh_json_with_coercible_numbers_exits_2(tmp_path, capsys):
    # A string coordinate, a float index and a bool index used to be
    # coerced (to 0.0, 2 and 1) and the mesh accepted.
    path = tmp_path / "mesh.json"
    path.write_text(
        '{"vertices": [[0,0,0],[1,0,0],[0,1,0],["0","0","1"]], '
        '"triangles": [[0,1,2.7],[0,true,3]]}'
    )
    assert run(["mesh-angles", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "vertex 3 must be a list of JSON numbers" in captured.err


@pytest.mark.parametrize(
    "vertices, triangles, message",
    [
        ("[0,0,0],[1,0,0],[0,1,0]", "[0,1,2],[0,1,99999999999999999999999]",
         "triangle 1 holds a number beyond int64"),
        ("[0,0,0],[1,0,0],[0,1,0]", "[0,1,-9223372036854775809]",
         "triangle 0 holds a number beyond int64"),
        (f"[0,0,0],[1,0,0],[0,1,{'9' * 400}]", "[0,1,2]",
         "vertex 2 holds a number beyond the float range"),
    ],
)
def test_mesh_json_number_out_of_range_exits_2(tmp_path, capsys, vertices, triangles, message):
    # numpy's OverflowError used to escape as a traceback.
    path = tmp_path / "big.json"
    path.write_text(f'{{"vertices": [{vertices}], "triangles": [{triangles}]}}')
    assert run(["mesh-angles", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_reports_are_byte_identical(instance_path, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert run(["eva-exact", "--input", instance_path, "--output", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stdout_emission(instance_path, capsys):
    assert run(["bounds-kelvin", "--edge-length", "2.0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["edge_length"] == 2.0


def test_parser_built_once_and_calls_share_no_state(instance_path, tmp_path):
    from foambounds.cli import build_parser

    assert build_parser() is build_parser()
    out = tmp_path / "report.json"
    dump = tmp_path / "polytope.json"
    assert run(["eva", "--input", instance_path, "--h", "3", "--output", str(out),
                "--dump-polytope", str(dump)]) == 0
    assert read_report(out)["h"] == 3.0
    assert dump.exists()
    dump.unlink()
    # The next call on the same file uses the file's h and dumps nothing.
    assert run(["eva", "--input", instance_path, "--output", str(out)]) == 0
    assert read_report(out)["h"] == 0.0
    assert not dump.exists()


def test_usage_errors_exit_2(instance_path, tmp_path, capsys):
    for argv in (["eva"], ["no-such-command"], ["eva", "--input", instance_path, "--h", "x"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
    # A failed parse leaves the shared parser usable.
    out = tmp_path / "report.json"
    assert run(["eva-exact", "--input", instance_path, "--output", str(out)]) == 0
    assert read_report(out)["subset"] == [0]


NAN = float("nan")
COST = ["bounds-cost", "--cells", "1", "--foam-vertices", "24"]
PRESSURE = ["bounds-pressure", "--sigma", "1", "--vertex-density", "1"]
MESH_VERIFY = ["mesh-verify", "--input", "{mesh}", "--center", "0,0,0", "--radius", "1"]


@pytest.mark.parametrize("argv", [
    ["bounds-main", "--radius", "1", "--h", "nan"],
    ["bounds-compact", "--h", "nan"],
    ["bounds-kelvin", "-a", "nan"],
    COST + ["--volume", "1", "--min-distance", "nan"],
    COST + ["--volume", "nan", "--min-distance", "0.5"],
    PRESSURE + ["--min-distance", "nan"],
    ["bounds-pressure", "--sigma", "nan", "--vertex-density", "1", "--min-distance", "1"],
    ["bounds-pressure", "--sigma", "1", "--vertex-density", "nan", "--min-distance", "1"],
    PRESSURE + ["--min-distance", "1", "--p-ext", "nan"],
    MESH_VERIFY + ["--h", "nan"],
    MESH_VERIFY + ["--eps-area", "nan"],
    ["eva", "--input", "{nan_instance}"],
    ["eva-exact", "--input", "{nan_instance}"],
    ["eva-greedy", "--input", "{nan_instance}"],
    ["eva", "--input", "{nan_matrix}"],
    ["eva", "--input", "{instance}", "--h", "nan"],
    ["eva-exact", "--input", "{instance}", "--h", "nan"],
    ["eva-greedy", "--input", "{instance}", "--h", "nan"],
], ids=" ".join)
def test_nan_inputs_exit_2_without_nan_output(argv, instance_path, tmp_path, capsys):
    mesh = tmp_path / "cone.off"
    save_off(tetrahedral_cone(2.5), mesh)
    nan_instance = tmp_path / "nan_h.json"
    nan_instance.write_text(json.dumps({**WORKED_INSTANCE, "h": NAN}))
    nan_matrix = tmp_path / "nan_matrix.json"
    nan_matrix.write_text(json.dumps({"distance_matrix": [[0, 4], [4, 0]], "h": NAN}))
    paths = {"mesh": mesh, "nan_instance": nan_instance, "nan_matrix": nan_matrix,
             "instance": instance_path}
    assert run([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "validation error" in captured.err
    assert "NaN" not in captured.err and "nan" not in captured.err.lower()


@pytest.mark.parametrize("argv", [
    ["eva", "--input", "{instance}", "--h", "inf"],
    ["eva-exact", "--input", "{instance}", "--h", "inf"],
    ["eva-greedy", "--input", "{instance}", "--h", "inf"],
    ["eva", "--input", "{inf_instance}"],
    ["eva-exact", "--input", "{inf_instance}"],
    ["eva-greedy", "--input", "{inf_instance}"],
    ["eva", "--input", "{inf_matrix}"],
    MESH_VERIFY + ["--h", "inf"],
], ids=" ".join)
def test_infinite_h_exits_2(argv, instance_path, tmp_path, capsys):
    # exp(-2 h r) at h = inf and r = 0 is NaN, which is not JSON.
    mesh = tmp_path / "cone.off"
    save_off(tetrahedral_cone(2.5), mesh)
    inf_instance = tmp_path / "inf_h.json"
    inf_instance.write_text(json.dumps({**WORKED_INSTANCE, "h": math.inf}))
    assert "Infinity" in inf_instance.read_text()  # Python's json reads it back
    inf_matrix = tmp_path / "inf_matrix.json"
    inf_matrix.write_text(json.dumps({"distance_matrix": [[0, 4], [4, 0]], "h": math.inf}))
    paths = {"mesh": mesh, "inf_instance": inf_instance, "inf_matrix": inf_matrix,
             "instance": instance_path}
    assert run([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "validation error: curvature bound h must be finite" in captured.err


@pytest.mark.parametrize("func, args", [
    (load_instance, ({**WORKED_INSTANCE, "h": math.inf},)),
    (reduce_distance_matrix, (DistanceMatrix(np.array([[0.0, 4.0], [4.0, 0.0]])), math.inf)),
    (ReducedDistanceMatrix, (np.array([[1.0]]), math.inf)),
    (EvaObjective, (math.inf,)),
    (DiscProbe, ((0.0, 0.0, 0.0), 1.0, DensityClass.FACE, math.inf)),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_infinite_h_raises_value_error(func, args):
    with pytest.raises(ValueError, match="curvature bound h must be finite"):
        func(*args)


def test_mesh_verify_reports_null_ratio_when_the_bound_underflows(tmp_path):
    # exp(-2 * 2000 * 0.3) underflows, so the bound is 0.0 and the ratio
    # area / bound has no value.
    mesh = tmp_path / "sheet.off"
    save_off(flat_sheet(), mesh)
    out = tmp_path / "report.json"
    assert run(["mesh-verify", "--input", str(mesh), "--center", "0,0,0", "--radius", "0.3",
                "--h", "2000", "--output", str(out)]) == 0
    report = read_report(out)
    assert report["rhs"] == 0.0 and report["ratio"] is None
    assert report["passed"] is True
    assert report["clipped_area"] == pytest.approx(math.pi * 0.09, rel=1e-9)
    assert '"ratio": null' in out.read_text()


@pytest.mark.parametrize("points, domain, pair", [
    ([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]],
     {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}, "1 and 2"),
    ([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0]],
     {"type": "periodic", "lengths": [1.0, 1.0, 1.0]}, "0 and 2"),
], ids=["euclidean", "periodic-image"])
@pytest.mark.parametrize("command", ["eva", "eva-exact", "eva-greedy"])
def test_duplicate_points_exit_2(command, points, domain, pair, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"points": points, "domain": domain, "h": 0.3}))
    assert run([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"validation error: points {pair} coincide" in captured.err


@pytest.mark.parametrize("command", ["eva", "eva-exact", "eva-greedy"])
def test_cli_checks_domain_membership_once(command, instance_path, monkeypatch, capsys):
    calls = []
    check = Domain.require_member

    def counted(self, p):
        calls.append(np.shape(p))
        return check(self, p)

    monkeypatch.setattr(Domain, "require_member", counted)
    assert run([command, "--input", instance_path]) == 0
    assert calls == [(3, 3)]


@pytest.mark.parametrize("func, args", [
    (main_theorem_bound, (1.0, NAN, 1.0)),
    (main_theorem_bound, (NAN, 0.0, 1.0)),
    (a0, (NAN,)),
    (a0, (2.0, NAN)),
    (compact_foam_bounds, (1.0, NAN)),
    (compact_foam_bounds, (NAN, 1.0)),
    (kelvin_cell_bound, (NAN,)),
    (CostInput, (1, 24, 1.0, NAN)),
    (CostInput, (1, 24, NAN, 1.0)),
    (PressureInput, (0.0, NAN, 1.0, 1.0)),
    (PressureInput, (0.0, 1.0, NAN, 1.0)),
    (PressureInput, (0.0, 1.0, 1.0, NAN)),
    (PressureInput, (NAN, 1.0, 1.0, 1.0)),
    (EvaObjective, (NAN,)),
    (EvaObjective, (0.0, np.array([1.0, NAN]))),
    (EvaObjective(0.0).value, ([1.0, NAN],)),
    (ReducedDistanceMatrix, (np.array([[1.0]]), NAN)),
    (reduce_distance_matrix, (DistanceMatrix(np.array([[0.0, 4.0], [4.0, 0.0]])), NAN)),
    (DiscProbe, ((0.0, 0.0, 0.0), 1.0, DensityClass.FACE, NAN)),
    (load_instance, ({**WORKED_INSTANCE, "h": NAN},)),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_nan_library_inputs_raise_value_error(func, args):
    with pytest.raises(ValueError):
        func(*args)


@pytest.mark.parametrize("points", ["0", "-3"])
def test_mesh_verify_rejects_curve_points_below_one(points, tmp_path, capsys):
    mesh_path = tmp_path / "cone.off"
    save_off(tetrahedral_cone(2.5), mesh_path)
    csv_path = tmp_path / "curve.csv"
    assert run([
        "mesh-verify", "--input", str(mesh_path), "--center", "0,0,0", "--radius", "1.0",
        "--csv", str(csv_path), "--curve-points", points,
    ]) == 2
    assert "--curve-points" in capsys.readouterr().err
    assert not csv_path.exists()


def test_mesh_verify_rejects_two_coordinate_center(tmp_path, capsys):
    mesh_path = tmp_path / "cone.off"
    save_off(tetrahedral_cone(2.5), mesh_path)
    argv = ["mesh-verify", "--input", str(mesh_path), "--center", "0,0", "--radius", "1.0"]
    assert run(argv) == 2
    assert "--center" in capsys.readouterr().err


def ball_instance(tmp_path, n, gap, h):
    """n points in the unit ball, the last one gap inside the sphere (on it
    when gap = 0), as an instance file."""
    rng = np.random.default_rng(8)
    inner = rng.normal(size=(7, 3))
    inner *= 0.8 * rng.random((7, 1)) / np.linalg.norm(inner, axis=1, keepdims=True)
    path = tmp_path / f"ball{n}_{gap}_{h}.json"
    path.write_text(json.dumps({
        "points": inner[: n - 1].tolist() + [[0.0, 0.0, 1.0 - gap]],
        "domain": {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
        "h": h,
    }))
    return str(path)


def test_eva_point_on_domain_boundary(tmp_path):
    # One point exactly on the sphere zeroes every pair budget: eva is 0,
    # attained by zero radii, instead of a refused enumeration (exit 3).
    for n, h in ((8, 0.0), (7, 0.3)):
        out = tmp_path / f"report{n}.json"
        assert run(["eva", "--input", ball_instance(tmp_path, n, 0.0, h),
                    "--output", str(out)]) == 0
        report = read_report(out)
        assert report["eva"] == 0.0 and report["radii"] == [0.0] * n


def test_eva_point_near_domain_boundary(tmp_path):
    # One point 1e-7 inside the sphere caps every budget at 1e-7.  Eight
    # points need the dual route there (C(36, 8) row subsets are too many
    # to scan), and at 1e-10 inside every vertex lies within 1e-9 ||b||
    # of the origin, so only tolerances relative to each budget keep
    # eva > 0.  Radii of at most 1e-7 put e^(-2hr) within 6e-7 of 1, so
    # h = 3 agrees with h = 0 to 1e-6.
    values = {}
    for n, gap, h in ((8, 1e-7, 0.0), (8, 1e-7, 3.0), (6, 1e-10, 0.0)):
        out = tmp_path / f"report{n}_{h}.json"
        assert run(["eva", "--input", ball_instance(tmp_path, n, gap, h),
                    "--output", str(out)]) == 0
        values[n, h] = read_report(out)["eva"]
    assert values[8, 0.0] == pytest.approx(4.0123e-13, rel=1e-4)
    assert values[8, 3.0] == pytest.approx(values[8, 0.0], rel=1e-6)
    assert values[6, 0.0] > 0.0


@pytest.mark.parametrize("extra", [
    ["--radius", "0.3", "--eps-area", "1e-14"],
    ["--radius", "1e20"],
], ids=["tiny-eps", "huge-radius"])
def test_mesh_verify_reports_rounding_bound_above_eps(extra, tmp_path):
    # The rounding bound beats the error budget, so lhs subtracts it; the
    # report must still serialise, with passed a JSON bool.
    mesh = tmp_path / "sphere.off"
    save_off(icosphere(4), mesh)
    out = tmp_path / "report.json"
    assert run(["mesh-verify", "--input", str(mesh), "--center=1,0,0", *extra,
                "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["uncertainty"] > report["eps"]
    assert isinstance(report["passed"], bool)
    assert report["lhs"] == report["clipped_area"] - report["uncertainty"]


def test_mesh_verify_rejects_infinite_radius(tmp_path, capsys):
    mesh = tmp_path / "sphere.off"
    save_off(icosphere(2), mesh)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["mesh-verify", "--input", str(mesh), "--center=1,0,0",
                    "--radius", "inf"]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "validation error: probe radius must be positive and finite\n"
