"""The extrinsic vertex area objective, its maximizer, and subset search."""

import itertools
import math

import numpy as np
import pytest

from foambounds import (
    THETA_EDGE,
    THETA_FACE,
    THETA_VERTEX,
    AllSpace,
    Ball,
    Box,
    DistanceMatrix,
    EvaObjective,
    PointSet,
    ReducedDistanceMatrix,
    SubsetSizeError,
    UnboundedInstanceError,
    build_distance_matrix,
    build_h_polytope,
    convexity_certified,
    enumerate_vertices,
    evA_algorithm1,
    evA_algorithm1_from_matrix,
    evA_exact,
    evA_exact_from_matrix,
    eva_value,
    maximize_eva,
    reduce_distance_matrix,
)
from foambounds.geometry import THETA_V_PI

from conftest import (
    WORKED_REDUCED,
    random_distance_matrix,
    random_instance,
    random_point_set,
)

THETA_PI = THETA_V_PI  # theta_vertex * pi = 3 * arccos(-1/3)


def worked_reduced() -> ReducedDistanceMatrix:
    return ReducedDistanceMatrix(WORKED_REDUCED.copy(), 0.0)


# --- objective --------------------------------------------------------------


def test_eva_value_worked_radii():
    value = eva_value([0.0, 1.0, 2.0], EvaObjective(0.0))
    assert value == pytest.approx(5.0 * THETA_PI, abs=1e-12)
    assert value == pytest.approx(28.65949854373528, abs=1e-6)


def test_eva_value_zero_vector():
    assert eva_value([0.0, 0.0, 0.0], EvaObjective(0.0)) == 0.0


def test_eva_value_with_cap_weight_one():
    value = eva_value([1.0], EvaObjective(0.5, np.array([1.0])))
    assert value == pytest.approx(math.pi * math.exp(-1.0), rel=1e-12)
    assert value == pytest.approx(1.155727, abs=1e-6)


def test_eva_value_rejects_negative_radii():
    with pytest.raises(ValueError):
        eva_value([-0.1, 1.0], EvaObjective(0.0))


def test_theta_v_pi_constant():
    assert THETA_PI == pytest.approx(3.0 * math.acos(-1.0 / 3.0), rel=1e-15)


# --- maximize_eva -----------------------------------------------------------


def test_maximize_worked_example():
    res = maximize_eva(worked_reduced())
    assert res.value == pytest.approx(5.0 * THETA_PI, rel=1e-12)
    assert res.radii == pytest.approx([0.0, 1.0, 2.0])
    assert res.convexity_certified
    assert res.attaining_vertex is not None


def test_maximize_subset_bc():
    reduced = ReducedDistanceMatrix(np.array([[0.0, 3.0], [3.0, 0.0]]), 0.0)
    res = maximize_eva(reduced)
    assert res.value == pytest.approx(9.0 * THETA_PI, rel=1e-12)


def test_maximize_single_point():
    reduced = ReducedDistanceMatrix(np.array([[4.0]]), 0.0)
    res = maximize_eva(reduced)
    assert res.value == pytest.approx(16.0 * THETA_PI, rel=1e-12)
    assert res.radii == pytest.approx([4.0])


def test_maximize_h_mismatch_rejected():
    with pytest.raises(ValueError):
        maximize_eva(worked_reduced(), EvaObjective(0.5))


def test_maximize_recompute_identity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        points, domain = random_instance(rng, int(rng.integers(1, 6)))
        h = float(rng.choice([0.0, 0.3]))
        reduced = reduce_distance_matrix(build_distance_matrix(points, domain), h)
        res = maximize_eva(reduced)
        again = eva_value(res.radii, EvaObjective(h))
        assert abs(res.value - again) <= 1e-12 * max(1.0, abs(again))


def test_certified_vertex_never_beaten_by_sampling():
    rng = np.random.default_rng(9)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        points, domain = random_instance(rng, n)
        h = float(rng.choice([0.0, 0.5]))
        reduced = reduce_distance_matrix(build_distance_matrix(points, domain), h)
        res = maximize_eva(reduced)
        if not res.convexity_certified:
            continue
        poly = build_h_polytope(reduced)
        verts = enumerate_vertices(poly).vertices
        hi = np.max(verts, axis=0)
        obj = EvaObjective(h)
        best_sample = 0.0
        kept = 0
        tries = 0
        while kept < 10_000 and tries < 400_000:
            x = rng.random(n) * hi
            tries += 1
            if poly.contains(x, tol=0.0):
                kept += 1
                best_sample = max(best_sample, obj.value(x))
        assert kept >= 10_000
        assert best_sample <= res.value * (1.0 + 1e-7)


def test_uncertified_instance_uses_ascent_and_stays_feasible():
    # Far-apart points in a big ball with h > 0: reduced entries exceed
    # (2 - sqrt(2))/h, so the convexity certificate must not fire.
    points = PointSet(np.array([[5.0, 0.0, 0.0], [-5.0, 0.0, 0.0], [0.0, 5.0, 0.0]]))
    domain = Ball(np.zeros(3), 10.0)
    h = 0.3
    reduced = reduce_distance_matrix(build_distance_matrix(points, domain), h)
    assert not convexity_certified(reduced)
    res = maximize_eva(reduced)
    assert not res.convexity_certified
    poly = build_h_polytope(reduced)
    assert poly.contains(res.radii)
    # Never below the best vertex.
    verts = enumerate_vertices(poly).vertices
    obj = EvaObjective(h)
    vertex_best = max(obj.value(v) for v in verts)
    assert res.value >= vertex_best - 1e-12 * vertex_best


def test_degenerate_polytope_falls_back_to_vertex_scan():
    # d_12 = 0 pins two radii at zero, so the region is a segment with no
    # interior, and entries of 3 keep the instance outside the certified
    # regime: the ascent cannot start, but the vertex scan must stand.
    d = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 3.0], [3.0, 3.0, 0.0]])
    res = maximize_eva(ReducedDistanceMatrix(d, 0.3))
    assert not res.convexity_certified
    assert res.radii == pytest.approx([0.0, 0.0, 3.0])
    assert res.value == pytest.approx(
        eva_value([0.0, 0.0, 3.0], EvaObjective(0.3)), rel=1e-12
    )


def test_enumerate_dual_falls_back_on_degenerate():
    from foambounds import build_h_polytope, enumerate_vertices

    d = np.array([[0.0, 0.0], [0.0, 0.0]])
    poly = build_h_polytope(ReducedDistanceMatrix(d, 0.0))
    verts = enumerate_vertices(poly, method="dual").vertices
    assert verts.shape == (1, 2)
    assert verts[0] == pytest.approx([0.0, 0.0])


def test_radii_capped_at_r_max_when_h_positive():
    rng = np.random.default_rng(17)
    for _ in range(10):
        points, domain = random_instance(rng, int(rng.integers(1, 6)), ball_radius=10.0)
        h = 0.4
        reduced = reduce_distance_matrix(build_distance_matrix(points, domain), h)
        res = maximize_eva(reduced)
        assert np.all(res.radii <= 1.0 / h + 1e-9)


def test_eva_scale_covariance():
    rng = np.random.default_rng(23)
    for lam in (0.5, 2.0, 10.0):
        for _ in range(5):
            points, domain = random_instance(rng, int(rng.integers(1, 6)))
            h = float(rng.choice([0.0, 0.4]))
            base = maximize_eva(
                reduce_distance_matrix(build_distance_matrix(points, domain), h)
            ).value
            scaled = maximize_eva(
                reduce_distance_matrix(
                    build_distance_matrix(points.scaled(lam), domain.scaled(lam)),
                    h / lam,
                )
            ).value
            assert scaled == pytest.approx(lam * lam * base, rel=1e-6)


# --- exact evA --------------------------------------------------------------


def test_evA_exact_worked_example(worked_points, worked_domain):
    res = evA_exact(worked_points, worked_domain, h=0.0)
    assert res.value == pytest.approx(16.0 * THETA_PI, rel=1e-12)
    assert res.value == pytest.approx(91.71039533995288, abs=1e-6)
    assert res.method == "exact"
    # Smallest-subset, lexicographic tie-break picks the first singleton,
    # and indeed every singleton attains the maximum.
    assert res.surviving_subset == (0,)
    matrix = build_distance_matrix(worked_points, worked_domain)
    for i in range(3):
        single = maximize_eva(reduce_distance_matrix(matrix.submatrix([i]), 0.0))
        assert single.value == pytest.approx(res.value, rel=1e-12)


def test_evA_exact_single_point_equals_eva():
    points = PointSet(np.array([[0.0, 0.0, 0.0]]))
    domain = Ball(np.zeros(3), 4.0)
    res = evA_exact(points, domain, h=0.0)
    eva = maximize_eva(
        reduce_distance_matrix(build_distance_matrix(points, domain), 0.0)
    )
    assert res.value == pytest.approx(eva.value, rel=1e-15)


def test_evA_exact_drops_crowded_point():
    # Two points at mutual distance 1 but 10 from the boundary: using one
    # point alone scores 100 theta_v pi, far above anything the pair can do.
    points = PointSet(np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]]))
    domain = HalfspaceIntersectionFactory()
    res = evA_exact(points, domain, h=0.0)
    assert res.value == pytest.approx(100.0 * THETA_PI, rel=1e-12)
    assert len(res.surviving_subset) == 1


def HalfspaceIntersectionFactory():
    from foambounds import HalfspaceIntersection

    return HalfspaceIntersection(np.array([[0.0, 0.0, 1.0]]), np.array([10.0]))


def test_evA_exact_size_guard():
    rng = np.random.default_rng(1)
    points, domain = random_instance(rng, 9)
    with pytest.raises(SubsetSizeError):
        evA_exact(points, domain, h=0.0)
    matrix = build_distance_matrix(points, domain)
    res = evA_exact_from_matrix(matrix, 0.0, max_n=9)
    assert res.value > 0


def test_evA_exact_value_matches_surviving_subset():
    rng = np.random.default_rng(8)
    for _ in range(10):
        points, domain = random_instance(rng, int(rng.integers(1, 7)))
        h = float(rng.choice([0.0, 0.3]))
        res = evA_exact(points, domain, h=h)
        matrix = build_distance_matrix(points, domain)
        sub = reduce_distance_matrix(matrix.submatrix(res.surviving_subset), h)
        independent = maximize_eva(sub).value
        assert res.value == pytest.approx(independent, rel=1e-9)


def exhaustive_evA(matrix, h, weights=None):
    """Test oracle: solve every subset in (size, lex) order, keep the first max."""
    best = None
    for size in range(1, matrix.n + 1):
        for subset in itertools.combinations(range(matrix.n), size):
            reduced = reduce_distance_matrix(matrix.submatrix(subset), h)
            objective = EvaObjective(
                h, None if weights is None else np.asarray(weights)[list(subset)]
            )
            res = maximize_eva(reduced, objective)
            if best is None or res.value > best[0]:
                best = (res.value, subset, res.radii)
    return best


def assert_matches_oracle(matrix, h, weights=None):
    res = evA_exact_from_matrix(matrix, h, weights)
    value, subset, radii = exhaustive_evA(matrix, h, weights)
    assert res.value == value
    assert res.surviving_subset == subset
    assert np.array_equal(res.radii, radii)
    assert 1 <= res.subsets_scored <= 2 ** matrix.n - 1
    return res


def test_evA_exact_pruned_matches_exhaustive_oracle():
    rng = np.random.default_rng(2024)
    thetas = np.array([THETA_VERTEX, THETA_EDGE, THETA_FACE])
    for h in (0.0, 0.3, 3.0):
        for ball_radius in (1.0, 3.0):
            for _ in range(3):
                n = int(rng.integers(1, 7))
                matrix = random_distance_matrix(rng, n, ball_radius)
                weights = rng.choice(thetas, size=n) if rng.random() < 0.5 else None
                assert_matches_oracle(matrix, h, weights)


def test_evA_exact_tie_prefers_smaller_subset():
    # Mirror pair at distance 1, each 0.5 from the sphere, h = 0: the pair's
    # bound is twice a singleton's, so the pair is solved first, yet both
    # singletons and the pair reach the same value and (0,) must win.
    points = PointSet(np.array([[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]]))
    matrix = build_distance_matrix(points, Ball(np.zeros(3), 1.0))
    res = assert_matches_oracle(matrix, 0.0)
    assert res.surviving_subset == (0,)
    assert maximize_eva(reduce_distance_matrix(matrix, 0.0)).value == res.value
    assert res.subsets_scored == 3


def test_evA_exact_mirror_tie_is_lexicographic():
    # Points i and i + 3 are mirror images in x, so every subset has a
    # mirror subset with a bitwise equal value; the lexicographically
    # first of the tied subsets must win.
    rng = np.random.default_rng(5)
    for h in (0.0, 0.3):
        half = np.abs(random_point_set(rng, 3, ball_radius=3.0).points)
        points = PointSet(np.vstack([half, half * [-1.0, 1.0, 1.0]]))
        matrix = build_distance_matrix(points, Ball(np.zeros(3), 3.0))
        res = assert_matches_oracle(matrix, h)
        mirror = tuple(sorted((i + 3) % 6 for i in res.surviving_subset))
        assert mirror != res.surviving_subset
        assert res.surviving_subset < mirror
        twin = maximize_eva(reduce_distance_matrix(matrix.submatrix(mirror), h))
        assert twin.value == res.value


def test_evA_exact_single_point_value_equals_bound():
    # A lone point's bound is its own value: it is solved, and only it.
    points = PointSet(np.array([[0.2, 0.0, 0.0]]))
    matrix = build_distance_matrix(points, Ball(np.zeros(3), 1.0))
    for h in (0.0, 0.3, 3.0):
        res = assert_matches_oracle(matrix, h)
        assert res.subsets_scored == 1
        budget = min(0.8, math.inf if h == 0.0 else 1.0 / h)
        assert res.radii == pytest.approx([budget], rel=1e-15)


def test_evA_exact_point_on_boundary():
    # Point 0 sits on a box face: its budget and its upper bound are zero.
    points = PointSet(np.array([[0.0, 0.5, 0.5], [0.5, 0.5, 0.5], [0.8, 0.3, 0.6]]))
    matrix = build_distance_matrix(points, Box(np.zeros(3), np.ones(3)))
    assert matrix.boundary_distances[0] == 0.0
    for h in (0.0, 0.3, 3.0):
        res = assert_matches_oracle(matrix, h)
        assert 0 not in res.surviving_subset


def test_evA_exact_unbounded_instance_raises():
    for n in (1, 3):
        points = PointSet(np.eye(3)[:n])
        with pytest.raises(UnboundedInstanceError):
            evA_exact(points, AllSpace(), h=0.0)


def test_evA_exact_prunes_subsets_at_h_zero():
    rng = np.random.default_rng(6)
    matrix = random_distance_matrix(rng, 6)
    res = assert_matches_oracle(matrix, 0.0)
    assert res.subsets_scored < 63


# --- greedy evA -------------------------------------------------------------


def test_algorithm1_worked_example(worked_points, worked_domain):
    res = evA_algorithm1(worked_points, worked_domain, h=0.0)
    assert res.value == pytest.approx(16.0 * THETA_PI, rel=1e-12)
    assert res.method == "algorithm1"
    assert len(res.surviving_subset) == 1


def test_algorithm1_single_point():
    points = PointSet(np.array([[0.0, 0.0, 0.0]]))
    domain = Ball(np.zeros(3), 4.0)
    res = evA_algorithm1(points, domain, h=0.0)
    assert res.value == pytest.approx(16.0 * THETA_PI, rel=1e-12)


def test_algorithm1_never_beats_exact():
    rng = np.random.default_rng(55)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        points, domain = random_instance(rng, n)
        h = float(rng.choice([0.0, 0.3]))
        greedy = evA_algorithm1(points, domain, h=h)
        exact = evA_exact(points, domain, h=h)
        assert greedy.value <= exact.value * (1.0 + 1e-9)
        assert exact.value * (1.0 + 1e-9) >= maximize_eva(
            reduce_distance_matrix(build_distance_matrix(points, domain), h)
        ).value


def test_algorithm1_min_radius_tie_note():
    # Equilateral triple at distance 1, far from the boundary, with
    # h*d = 0.5 > ln(4/3): the all-equal center vertex (0.5, 0.5, 0.5)
    # beats the corners, no radius collapses, and the minimum ties.
    matrix = DistanceMatrix(
        np.array(
            [
                [0.0, 1.0, 1.0, 99.0],
                [1.0, 0.0, 1.0, 99.0],
                [1.0, 1.0, 0.0, 99.0],
                [99.0, 99.0, 99.0, 0.0],
            ]
        )
    )
    res = evA_algorithm1_from_matrix(matrix, h=0.5)
    assert res.notes, "expected a tie-break note"
    assert res.radii == pytest.approx([0.5, 0.5, 0.5])
    assert res.value == pytest.approx(
        0.75 * math.exp(-0.5) * THETA_PI, rel=1e-9
    )


def test_algorithm1_value_matches_surviving_subset():
    rng = np.random.default_rng(99)
    for _ in range(10):
        points, domain = random_instance(rng, int(rng.integers(1, 8)))
        res = evA_algorithm1(points, domain, h=0.0)
        matrix = build_distance_matrix(points, domain)
        sub = reduce_distance_matrix(matrix.submatrix(res.surviving_subset), 0.0)
        best_there = maximize_eva(sub).value
        assert res.value == pytest.approx(best_there, rel=1e-9)


def test_algorithm1_scores_subsets_like_exact_outside_convex_regime():
    # At h = 3 in a radius-3 ball the local ascent runs; greedy must report
    # exactly what maximize_eva gives its surviving subset.
    rng = np.random.default_rng(31)
    for _ in range(4):
        matrix = random_distance_matrix(rng, int(rng.integers(2, 6)), 3.0)
        res = evA_algorithm1_from_matrix(matrix, 3.0)
        sub = reduce_distance_matrix(matrix.submatrix(res.surviving_subset), 3.0)
        assert res.value == maximize_eva(sub).value
        assert res.value <= evA_exact_from_matrix(matrix, 3.0).value
