"""End-to-end runs of the command-line front end."""

import json
import math

import pytest

from foambounds.cli import main
from foambounds.geometry import THETA_V_PI
from foambounds.meshcheck import save_off
from foambounds.meshes import tetrahedral_cone, triple_wedge

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
