"""Distances, domains, and the distance-matrix constructions."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foambounds import (
    AllSpace,
    Ball,
    Box,
    DensityClass,
    DistanceMatrix,
    DomainMembershipError,
    HalfspaceIntersection,
    PeriodicBox,
    PointSet,
    ReducedDistanceMatrix,
    UnboundedInstanceError,
    build_distance_matrix,
    domain_from_json,
    load_instance,
    reduce_distance_matrix,
)
from foambounds.geometry import THETA_EDGE, THETA_FACE, THETA_VERTEX, _length

from conftest import WORKED_MATRIX, WORKED_REDUCED, random_instance


def test_pairwise_distance_pythagoras():
    assert AllSpace().distance((0, 0, 0), (3, 4, 0)) == 5.0


def test_pairwise_distance_identical_point():
    p = (0.3, -1.2, 7.0)
    assert AllSpace().distance(p, p) == 0.0


def test_pairwise_distance_minimum_image():
    d = PeriodicBox((1, 1, 1)).distance((0.1, 0, 0), (0.9, 0, 0))
    assert d == pytest.approx(0.2, abs=1e-15)


def test_pairwise_distance_outside_domain_rejected():
    with pytest.raises(DomainMembershipError):
        Ball((0, 0, 0), 1.0).distance((0, 0, 0), (5, 0, 0))


def test_boundary_distance_ball_center():
    assert Ball((0, 0, 0), 10.0).boundary_distance((0, 0, 0)) == 10.0


def test_boundary_distance_ball_interior():
    assert Ball((0, 0, 0), 4.0).boundary_distance((1, 0, 0)) == pytest.approx(3.0)


def test_boundary_distance_boundaryless_domains():
    assert PeriodicBox((1, 1, 1)).boundary_distance((0.5, 0.5, 0.5)) == math.inf
    assert AllSpace().boundary_distance((3, 2, 1)) == math.inf


def test_boundary_distance_outside_rejected():
    with pytest.raises(DomainMembershipError):
        Ball((0, 0, 0), 1.0).boundary_distance((5, 0, 0))


def test_boundary_distance_box():
    box = Box((0, 0, 0), (2, 4, 6))
    assert box.boundary_distance((1, 1, 3)) == pytest.approx(1.0)


def test_boundary_distance_halfspaces():
    slab = HalfspaceIntersection(
        np.array([[0, 0, 1.0], [0, 0, -1.0]]), np.array([2.0, 2.0])
    )
    assert slab.boundary_distance((0, 0, 0.5)) == pytest.approx(1.5)


def test_membership_tolerates_boundary_roundtrip():
    ball = Ball((0, 0, 0), 1.0)
    # A point a hair outside from serialization rounding still counts.
    p = (1.0 + 1e-14, 0.0, 0.0)
    assert ball.contains(p)
    assert ball.boundary_distance(p) == 0.0


def test_build_distance_matrix_worked_example(worked_points, worked_domain):
    matrix = build_distance_matrix(worked_points, worked_domain)
    assert np.array_equal(matrix.entries, WORKED_MATRIX)


def test_build_distance_matrix_single_point():
    points = PointSet(np.array([[0.0, 0.0, 0.0]]))
    matrix = build_distance_matrix(points, Ball((0, 0, 0), 4.0))
    assert np.array_equal(matrix.entries, np.array([[0.0, 4.0], [4.0, 0.0]]))


def test_build_distance_matrix_two_points_derived():
    # Mutual distance 2, both 5 away from the boundary plane z = 5.
    points = PointSet(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    domain = HalfspaceIntersection(np.array([[0.0, 0.0, 1.0]]), np.array([5.0]))
    matrix = build_distance_matrix(points, domain)
    expected = np.array([[0.0, 2.0, 5.0], [2.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
    assert np.array_equal(matrix.entries, expected)


def test_distance_matrix_exactly_symmetric_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        points, domain = random_instance(rng, int(rng.integers(2, 7)))
        matrix = build_distance_matrix(points, domain)
        assert np.array_equal(matrix.entries, matrix.entries.T)


def test_reduce_worked_example(worked_matrix):
    reduced = reduce_distance_matrix(worked_matrix, 0.0)
    assert np.array_equal(reduced.entries, WORKED_REDUCED)
    assert reduced.r_max == math.inf


def test_reduce_single_point_with_cap():
    matrix = DistanceMatrix(np.array([[0.0, 4.0], [4.0, 0.0]]))
    reduced = reduce_distance_matrix(matrix, 0.5)
    assert reduced.entries[0, 0] == pytest.approx(2.0)


def test_reduce_single_point_no_cap():
    matrix = DistanceMatrix(np.array([[0.0, 4.0], [4.0, 0.0]]))
    reduced = reduce_distance_matrix(matrix, 0.0)
    assert reduced.entries[0, 0] == 4.0


def test_reduce_unbounded_single_point():
    points = PointSet(np.array([[0.0, 0.0, 0.0]]))
    matrix = build_distance_matrix(points, AllSpace())
    with pytest.raises(UnboundedInstanceError):
        reduce_distance_matrix(matrix, 0.0)


def test_reduce_periodic_uses_pairwise_only():
    points = PointSet(np.array([[0.1, 0.0, 0.0], [0.9, 0.0, 0.0]]))
    matrix = build_distance_matrix(points, PeriodicBox((1, 1, 1)))
    reduced = reduce_distance_matrix(matrix, 0.0)
    assert reduced.entries[0, 1] == pytest.approx(0.2, abs=1e-15)


def test_periodic_radius_cap_reaches_every_budget():
    # A ball wider than half the shortest period overlaps its own image.
    box = PeriodicBox((1.0, 2.0, 3.0))
    assert box.radius_cap == 0.5
    assert all(d.radius_cap == math.inf for d in (Ball((0, 0, 0), 1.0), AllSpace()))
    points = PointSet(np.array([[0.0, 0.25, 0.5], [0.5, 0.75, 0.0], [0.1, 0.0, 0.0]]))
    matrix = build_distance_matrix(points, box)
    assert matrix.radius_cap == 0.5
    assert matrix.submatrix([0, 2]).radius_cap == 0.5
    for h, r_max in ((0.0, 0.5), (0.3, 0.5), (3.0, 1.0 / 3.0)):
        reduced = reduce_distance_matrix(matrix, h)
        assert reduced.radius_cap == 0.5 and reduced.r_max == r_max
        # Pair entries are clipped at 1/h only; the cap rows hold the cap.
        assert reduced.entries[0, 1] == min(matrix.entries[0, 1], 1.0 / h if h else math.inf)
        single = reduce_distance_matrix(matrix.submatrix([0]), h)
        assert single.entries[0, 0] == r_max
    # A raw matrix has no domain, hence no cap.
    assert DistanceMatrix(matrix.entries).radius_cap == math.inf


@pytest.mark.parametrize("cap", [0.0, -1.0, math.nan])
def test_radius_cap_must_be_positive(cap):
    with pytest.raises(ValueError, match="radius cap"):
        DistanceMatrix(WORKED_MATRIX.copy(), cap)
    with pytest.raises(ValueError, match="radius cap"):
        ReducedDistanceMatrix(WORKED_REDUCED.copy(), 0.0, cap)


def test_reduce_monotone_in_h(worked_matrix):
    rng = np.random.default_rng(11)
    hs = np.sort(rng.random(5))
    prev = reduce_distance_matrix(worked_matrix, hs[0]).entries
    for h in hs[1:]:
        cur = reduce_distance_matrix(worked_matrix, h).entries
        assert np.all(cur <= prev + 1e-15)
        prev = cur


def test_reduce_idempotent(worked_matrix):
    h = 0.7
    reduced = reduce_distance_matrix(worked_matrix, h)
    again = np.minimum(reduced.entries, 1.0 / h)
    assert np.array_equal(again, reduced.entries)


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_distance_matrix_scale_covariance(lam):
    rng = np.random.default_rng(42)
    points, domain = random_instance(rng, 4)
    base = build_distance_matrix(points, domain).entries
    scaled = build_distance_matrix(points.scaled(lam), domain.scaled(lam)).entries
    assert np.allclose(scaled, lam * base, rtol=1e-12, atol=0.0)


def test_distance_matrix_rejects_coincident_points():
    points = PointSet(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="points 1 and 2 coincide in the all domain"):
        build_distance_matrix(points, AllSpace())


def test_distance_matrix_rejects_near_coincident_points():
    eps = 1e-12
    points = PointSet(np.array([[0.0, 0.0, 0.0], [eps, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="points 0 and 1 coincide"):
        build_distance_matrix(points, Ball((0, 0, 0), 2.0))
    # Just above the threshold the pair is two points.
    points = PointSet(np.array([[0.0, 0.0, 0.0], [2e-9, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    assert build_distance_matrix(points, Ball((0, 0, 0), 2.0)).entries[0, 1] == 2e-9


def test_distance_matrix_rejects_periodic_images():
    # (0, 0, 0) and (1, 0, 0) are one point of the unit torus, though
    # their coordinates lie a period apart.
    points = PointSet(np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="points 0 and 2 coincide in the periodic domain"):
        build_distance_matrix(points, PeriodicBox((1.0, 1.0, 1.0)))
    assert build_distance_matrix(points, AllSpace()).entries[0, 2] == 1.0


def test_point_set_classes_default_and_thetas():
    ps = PointSet(
        np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]),
        [DensityClass.VERTEX, DensityClass.EDGE, DensityClass.FACE],
    )
    assert np.array_equal(ps.thetas, [THETA_VERTEX, THETA_EDGE, THETA_FACE])
    default = PointSet(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
    assert all(c is DensityClass.VERTEX for c in default.classes)


def test_point_set_rejects_nonfinite():
    with pytest.raises(ValueError):
        PointSet(np.array([[0.0, 0.0, float("nan")]]))


def test_density_class_values():
    assert DensityClass.VERTEX.theta == pytest.approx(
        3.0 * math.acos(-1.0 / 3.0) / math.pi, rel=1e-15
    )
    assert DensityClass.EDGE.theta == 1.5
    assert DensityClass.FACE.theta == 1.0


def test_domain_validation():
    with pytest.raises(ValueError):
        Ball((0, 0, 0), -1.0)
    with pytest.raises(ValueError):
        Box((0, 0, 0), (1, -1, 1))
    with pytest.raises(ValueError):
        HalfspaceIntersection(np.array([[0.0, 0.0, 2.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        PeriodicBox((1.0, 0.0, 1.0))


def test_submatrix_keeps_boundary_column(worked_matrix):
    sub = worked_matrix.submatrix([1, 2])
    expected = np.array([[0.0, 3.0, 4.0], [3.0, 0.0, 4.0], [4.0, 4.0, 0.0]])
    assert np.array_equal(sub.entries, expected)


def test_instance_json_roundtrip(tmp_path):
    doc = {
        "points": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-2.0, 0.0, 0.0]],
        "classes": ["vertex", "vertex", "vertex"],
        "domain": {
            "type": "halfspaces",
            "halfspaces": [{"normal": [0.0, 0.0, 1.0], "offset": 4.0}],
        },
        "h": 0.0,
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    inst = load_instance(path)
    matrix = build_distance_matrix(inst.point_set, inst.domain)
    assert np.array_equal(matrix.entries, WORKED_MATRIX)
    assert np.array_equal(inst.matrix.entries, WORKED_MATRIX)
    # Serialization round-trips through to_json.
    again = load_instance(inst.to_json())
    assert np.array_equal(again.point_set.points, inst.point_set.points)


def test_load_instance_rejects_outside_points():
    doc = {
        "points": [[5.0, 0.0, 0.0]],
        "domain": {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
    }
    with pytest.raises(DomainMembershipError):
        load_instance(doc)
    # One outside point among inside ones is enough.
    doc["points"] = [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 1.5, 0.0], [0.0, 0.0, 0.5]]
    with pytest.raises(DomainMembershipError, match=r"\[0\.0, 1\.5, 0\.0\]"):
        load_instance(doc)


def test_domain_from_json_all_variants():
    for doc in (
        {"type": "ball", "center": [0, 0, 0], "radius": 2.0},
        {"type": "box", "min": [0, 0, 0], "max": [1, 1, 1]},
        {
            "type": "halfspaces",
            "halfspaces": [{"normal": [1.0, 0.0, 0.0], "offset": 1.0}],
        },
        {"type": "periodic", "lengths": [1, 2, 3]},
        {"type": "all"},
    ):
        domain = domain_from_json(doc)
        assert domain.to_json()["type"] == doc["type"]
    with pytest.raises(ValueError):
        domain_from_json({"type": "dodecahedron"})


def test_reduced_matrix_validation():
    with pytest.raises(UnboundedInstanceError):
        ReducedDistanceMatrix(np.array([[math.inf]]), 0.0)
    with pytest.raises(ValueError):
        ReducedDistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]), 0.0)


# ---------------------------------------------------------------------------
# Oracles on arrays of points

FIVE_DOMAINS = (
    Ball((0.5, -0.2, 0.1), 1.3),
    Box((-1.0, -0.5, 0.0), (1.0, 0.75, 2.0)),
    HalfspaceIntersection(
        np.array([[0.0, 0.0, 1.0], [0.6, 0.8, 0.0], [-1.0, 0.0, 0.0]]),
        np.array([1.0, 2.0, 0.5]),
    ),
    PeriodicBox((1.0, 2.0, 0.5)),
    AllSpace(),
)
DOMAIN_IDS = [d.kind for d in FIVE_DOMAINS]


def _probe_points(domain, rng) -> np.ndarray:
    """Random points, plus points within the membership tolerance of the
    boundary (inside and outside it) and just beyond it."""
    pts = rng.uniform(-2.0, 2.0, size=(40, 3))
    tol = 1e-12 * domain.scale
    steps = np.array([-0.5, 0.0, 0.5, 2.0]) * tol
    if isinstance(domain, Ball):
        u = rng.normal(size=(len(steps), 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        edge = domain.center + u * (domain.radius + steps)[:, None]
    elif isinstance(domain, Box):
        edge = rng.uniform(domain.min_corner, domain.max_corner, size=(len(steps), 3))
        edge[:, 1] = domain.max_corner[1] + steps
    elif isinstance(domain, HalfspaceIntersection):
        edge = np.column_stack([rng.uniform(0.0, 0.4, size=(len(steps), 2)), 1.0 + steps])
    else:
        edge = rng.normal(size=(len(steps), 3)) * 1e6
    return np.vstack([pts, edge])


def _reference_distance(domain, p, q) -> float:
    """The per-pair scalar formula the vectorised oracle replaced."""
    delta = p - q
    if isinstance(domain, PeriodicBox):
        delta = np.abs(delta) % domain.lengths
        delta = np.minimum(delta, domain.lengths - delta)
    return float(np.linalg.norm(delta))


def _reference_boundary_distance(domain, p) -> float:
    """The per-point scalar formulas the vectorised oracles replaced."""
    if isinstance(domain, Ball):
        return max(0.0, domain.radius - float(np.linalg.norm(p - domain.center)))
    if isinstance(domain, Box):
        gaps = np.concatenate([p - domain.min_corner, domain.max_corner - p])
        return max(0.0, float(np.min(gaps)))
    if isinstance(domain, HalfspaceIntersection):
        return max(0.0, float(np.min(domain.offsets - domain.normals @ p)))
    return math.inf


@pytest.mark.parametrize("domain", FIVE_DOMAINS, ids=DOMAIN_IDS)
def test_array_oracles_equal_per_point_calls(domain):
    pts = _probe_points(domain, np.random.default_rng(17))
    inside = domain.contains(pts)
    assert inside.shape == (len(pts),)
    assert inside.tolist() == [domain.contains(p) for p in pts]
    if domain.kind in ("periodic", "all"):
        assert inside.all()
    else:
        # Within the tolerance counts as inside, beyond it as outside.
        assert inside[-4:].tolist() == [True, True, True, False]
    members = pts[inside]
    bd = domain.boundary_distance(members)
    assert np.array_equal(bd, [domain.boundary_distance(p) for p in members])
    assert np.array_equal(bd, [_reference_boundary_distance(domain, p) for p in members])
    d = domain.distance(members[:, None], members[None])
    assert np.array_equal(d, [[domain.distance(p, q) for q in members] for p in members])
    assert np.array_equal(
        d, [[_reference_distance(domain, p, q) for q in members] for p in members]
    )


@pytest.mark.parametrize("domain", FIVE_DOMAINS, ids=DOMAIN_IDS)
def test_build_distance_matrix_equals_per_pair_loop(domain):
    pts = _probe_points(domain, np.random.default_rng(23))
    pts = pts[domain.contains(pts)]
    entries = build_distance_matrix(PointSet(pts), domain).entries
    n = len(pts)
    expected = np.zeros((n + 1, n + 1))
    for i in range(n):
        for j in range(i + 1, n):
            expected[i, j] = expected[j, i] = _reference_distance(domain, pts[i], pts[j])
        expected[i, n] = expected[n, i] = _reference_boundary_distance(domain, pts[i])
    assert np.array_equal(entries, expected)
    assert np.array_equal(entries, entries.T)


def test_require_member_names_first_outside_point():
    ball = Ball((0, 0, 0), 1.0)
    pts = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 4.0, 0.0]])
    with pytest.raises(DomainMembershipError, match=r"point \[3\.0, 0\.0, 0\.0\] is outside"):
        ball.require_member(pts)
    with pytest.raises(DomainMembershipError, match=r"\[3\.0, 0\.0, 0\.0\]"):
        ball.distance(pts[:, None], pts[None])
    assert ball.require_member(pts[[0, 2]]).shape == (2, 3)


@pytest.mark.parametrize("domain", FIVE_DOMAINS, ids=DOMAIN_IDS)
def test_single_point_oracles_return_scalars(domain):
    p, q = (0.0, 0.0, 0.25), [0.25, -0.25, 0.0]
    assert type(domain.contains(p)) is bool
    assert type(domain.boundary_distance(p)) is float
    assert type(domain.distance(p, q)) is float
    assert domain.distance(p, q) == _reference_distance(domain, np.array(p), np.array(q))


def test_length_rounds_like_one_dimensional_norm():
    rng = np.random.default_rng(5)
    d = rng.normal(size=(20000, 3)) * 10.0 ** rng.uniform(-3, 3, size=(20000, 1))
    assert np.array_equal(_length(d), [np.linalg.norm(row) for row in d])
    assert np.array_equal(_length(d.reshape(100, 200, 3)), _length(d).reshape(100, 200))
