"""The extrinsic vertex area objective, its maximizer, and subset search."""

import itertools
import logging
import math
import time

import numpy as np
import pytest

from foambounds import (
    THETA_EDGE,
    THETA_FACE,
    THETA_VERTEX,
    AllSpace,
    Ball,
    Box,
    DensityClass,
    DistanceMatrix,
    EvaObjective,
    PeriodicBox,
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
    maximize_eva,
    reduce_distance_matrix,
)
from foambounds.eva import (
    CONVEXITY_COEFF,
    _multistart_ascent,
    _pair_max,
    _subset_upper_bounds,
    _triple_max,
)
from foambounds.geometry import THETA_V_PI

from conftest import (
    WORKED_REDUCED,
    random_distance_matrix,
    random_instance,
    random_point_set,
)

THETA_PI = THETA_V_PI  # theta_vertex * pi = 3 * arccos(-1/3)
MIXED_THETAS = np.array([THETA_VERTEX, THETA_EDGE, THETA_FACE])


def worked_reduced() -> ReducedDistanceMatrix:
    return ReducedDistanceMatrix(WORKED_REDUCED.copy(), 0.0)


# --- objective --------------------------------------------------------------


def test_eva_value_worked_radii():
    value = EvaObjective(0.0).value([0.0, 1.0, 2.0])
    assert value == pytest.approx(5.0 * THETA_PI, abs=1e-12)
    assert value == pytest.approx(28.65949854373528, abs=1e-6)


def test_eva_value_zero_vector():
    assert EvaObjective(0.0).value([0.0, 0.0, 0.0]) == 0.0


def test_eva_value_with_cap_weight_one():
    value = EvaObjective(0.5, np.array([1.0])).value([1.0])
    assert value == pytest.approx(math.pi * math.exp(-1.0), rel=1e-12)
    assert value == pytest.approx(1.155727, abs=1e-6)


def test_eva_value_rejects_negative_radii():
    with pytest.raises(ValueError):
        EvaObjective(0.0).value([-0.1, 1.0])


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


def test_single_point_above_convexity_coefficient_is_certified():
    # 3 > (2 - sqrt(2))/0.3, but r^2 e^(-2hr) increases up to 1/h = 3.33,
    # so the interval end is the proven maximum.
    reduced = ReducedDistanceMatrix(np.array([[3.0]]), 0.3)
    assert convexity_certified(reduced)
    res = maximize_eva(reduced)
    assert res.convexity_certified
    assert np.array_equal(res.radii, [3.0])
    assert res.value == EvaObjective(0.3).value([3.0])
    # A budget beyond 1/h is past the peak: not certified.
    assert not convexity_certified(ReducedDistanceMatrix(np.array([[4.0]]), 0.3))


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
        again = EvaObjective(h).value(res.radii)
        assert abs(res.value - again) <= 1e-12 * max(1.0, abs(again))


def test_certified_vertex_never_beaten_by_sampling():
    rng = np.random.default_rng(9)
    # Mixed densities come from their own stream, so the instances and
    # samples are those of the vertex-density check.
    weight_rng = np.random.default_rng(10)
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
        mixed = EvaObjective(h, weight_rng.choice(MIXED_THETAS, size=n))
        mixed_res = maximize_eva(reduced, mixed)
        assert mixed_res.convexity_certified
        best_sample = 0.0
        mixed_best = 0.0
        kept = 0
        tries = 0
        while kept < 10_000 and tries < 400_000:
            x = rng.random(n) * hi
            tries += 1
            if poly.contains(x, tol=0.0):
                kept += 1
                best_sample = max(best_sample, obj.value(x))
                mixed_best = max(mixed_best, mixed.value(x))
        assert kept >= 10_000
        assert best_sample <= res.value * (1.0 + 1e-7)
        assert mixed_best <= mixed_res.value * (1.0 + 1e-7)


def test_certified_vertex_never_beaten_by_ascent_mixed_weights():
    # Certified polytopes with mixed densities: local ascent from 32 starts
    # never climbs above the best vertex beyond rounding.
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 40:
        n = int(rng.integers(2, 6))
        points, domain = random_instance(rng, n)
        h = float(rng.choice([0.5, 1.0, 3.0]))
        reduced = reduce_distance_matrix(build_distance_matrix(points, domain), h)
        if not convexity_certified(reduced):
            continue
        objective = EvaObjective(h, rng.choice(MIXED_THETAS, size=n))
        res = maximize_eva(reduced, objective)
        assert res.convexity_certified and res.attaining_vertex is not None
        poly = build_h_polytope(reduced)
        ascent, _ = _multistart_ascent(poly, objective, enumerate_vertices(poly).vertices)
        assert ascent <= res.value * (1.0 + 2e-16)
        checked += 1


def test_uncertified_instance_uses_ascent_and_stays_feasible():
    # Far-apart points in a big ball with h > 0: reduced entries exceed
    # (2 - sqrt(2))/h, so the convexity certificate must not fire.  Four
    # points, as three are solved exactly.
    points = PointSet(
        np.array([[5.0, 0.0, 0.0], [-5.0, 0.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 5.0]])
    )
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


def test_ascent_beats_every_vertex():
    # Outside the convex regime (h R up to 0.94) with unequal weights the
    # maximum lies inside a face.  Three points: the face search replaces
    # the vertex and proves the value.  Four points: the local ascent does.
    h = 3.0
    reduced = ReducedDistanceMatrix(
        np.array([[0.0, 0.914, 0.666], [0.914, 0.0, 0.941], [0.666, 0.941, 0.0]]) / h, h
    )
    objective = EvaObjective(h, np.array([THETA_VERTEX, 1.0, 1.0]))
    res = maximize_eva(reduced, objective)
    poly = build_h_polytope(reduced)
    vertex_best = float(np.max(objective.values(enumerate_vertices(poly).vertices)))
    assert res.attaining_vertex is None and res.convexity_certified
    assert res.value == pytest.approx(0.0933346, abs=1e-7)  # vertex: 0.092842
    assert res.value > vertex_best * (1.0 + 1e-3)
    assert poly.contains(res.radii, tol=0.0)

    entries = np.zeros((4, 4))
    entries[np.triu_indices(4, 1)] = [0.903, 0.799, 0.812, 0.914, 0.766, 0.894]
    reduced = ReducedDistanceMatrix((entries + entries.T) / h, h)
    objective = EvaObjective(h, np.ones(4))
    res = maximize_eva(reduced, objective)
    poly = build_h_polytope(reduced)
    vertex_best = float(np.max(objective.values(enumerate_vertices(poly).vertices)))
    assert res.attaining_vertex is None and not res.convexity_certified
    assert res.value > vertex_best * (1.0 + 1e-3)  # 0.097722 against 0.097199
    assert poly.contains(res.radii, tol=0.0)


def test_degenerate_polytope_falls_back_to_vertex_scan():
    # d_12 = 0 pins two radii at zero, so the region has no interior, and
    # entries of 3 keep the instance outside the certified regime: the
    # ascent cannot start, but the vertex scan must stand.  (Four points:
    # three are solved without the ascent.)
    d = np.array([
        [0.0, 0.0, 3.0, 3.0],
        [0.0, 0.0, 3.0, 3.0],
        [3.0, 3.0, 0.0, 3.0],
        [3.0, 3.0, 3.0, 0.0],
    ])
    res = maximize_eva(ReducedDistanceMatrix(d, 0.3))
    assert not res.convexity_certified and res.attaining_vertex is not None
    assert res.radii == pytest.approx([0.0, 0.0, 0.0, 3.0])
    assert res.value == pytest.approx(
        EvaObjective(0.3).value([0.0, 0.0, 0.0, 3.0]), rel=1e-12
    )


def test_enumerate_dual_falls_back_on_degenerate(vertex_route):
    from foambounds import build_h_polytope, enumerate_vertices

    d = np.array([[0.0, 0.0], [0.0, 0.0]])
    poly = build_h_polytope(ReducedDistanceMatrix(d, 0.0))
    vertex_route("dual")
    verts = enumerate_vertices(poly).vertices
    assert verts.shape == (1, 2)
    assert verts[0] == pytest.approx([0.0, 0.0])


# --- certified scan of the maximal vertices ---------------------------------


def test_certified_scan_matches_full_vertex_scan():
    # The certified value is the best over every vertex, with vertex and
    # mixed densities, budgets rounded to a grid (ties) and caps (h = 3).
    rng = np.random.default_rng(23)
    checked = 0
    for n in range(2, 9):
        for h, shrink in ((0.0, 1.0), (0.3, 1.0), (3.0, 0.15)):
            for t in range(3):
                entries = reduce_distance_matrix(random_distance_matrix(rng, n), h).entries
                entries = entries * shrink
                if t == 2:
                    grid = 0.25 * shrink
                    entries = np.round(entries / grid) * grid
                reduced = ReducedDistanceMatrix(entries, h)
                weights = rng.choice(MIXED_THETAS, size=n) if t else None
                objective = EvaObjective(h, weights)
                res = maximize_eva(reduced, objective)
                assert res.convexity_certified and res.attaining_vertex is not None
                poly = build_h_polytope(reduced)
                best = float(np.max(objective.values(enumerate_vertices(poly).vertices)))
                assert res.value == pytest.approx(best, rel=1e-12), (n, h, t)
                # attaining_vertex indexes the maximal vertices, the list scanned.
                scanned = enumerate_vertices(poly, maximal=True).vertices
                assert np.array_equal(scanned[res.attaining_vertex], res.radii)
                checked += 1
    assert checked == 7 * 3 * 3


def test_certified_nine_points_scan_is_fast():
    matrix = random_distance_matrix(np.random.default_rng(90), 9)
    reduced = reduce_distance_matrix(matrix, 0.0)
    scan_s = math.inf
    for _ in range(3):  # best of three: the call is short enough to be noisy
        start = time.perf_counter()
        res = maximize_eva(reduced)
        scan_s = min(scan_s, time.perf_counter() - start)
    start = time.perf_counter()
    full = enumerate_vertices(build_h_polytope(reduced)).vertices
    full_s = time.perf_counter() - start
    assert res.convexity_certified
    assert res.value == pytest.approx(float(np.max(EvaObjective(0.0).values(full))), rel=1e-12)
    # Scanning only the maximal vertices is about seven times faster here.
    assert scan_s < full_s / 3.0, (scan_s, full_s)


def test_vertex_scan_logs_maximal_flag(caplog):
    uncertified = ReducedDistanceMatrix(np.full((4, 4), 3.0) - 3.0 * np.eye(4), 0.3)
    for reduced, certified in ((worked_reduced(), True), (uncertified, False)):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="foambounds.polytope"):
            res = maximize_eva(reduced)
        assert res.convexity_certified is certified
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("enumerate_vertices:")]
        assert len(lines) == 1 and f"maximal={certified}" in lines[0], lines


def boundary_instance(n, gap=0.0):
    """n - 1 random points inside the unit ball and one gap inside its
    sphere (on it when gap = 0)."""
    inner = random_point_set(np.random.default_rng(n), n - 1, margin=0.9).points
    return PointSet(np.vstack([inner, [[1.0 - gap, 0.0, 0.0]]])), Ball(np.zeros(3), 1.0)


def test_point_on_domain_boundary_pins_every_radius():
    # A pair budget is at most either point's boundary distance, so each
    # pair with the boundary point has budget 0 and pins both ends: every
    # radius is 0 at every vertex.  Without pinning the first case is
    # refused (C(36, 8) row subsets) and the second takes over 14 s.
    for n, h in ((8, 0.0), (7, 0.3)):
        points, domain = boundary_instance(n)
        matrix = build_distance_matrix(points, domain)
        assert matrix.boundary_distances[-1] == 0.0
        start = time.perf_counter()
        res = maximize_eva(reduce_distance_matrix(matrix, h))
        assert time.perf_counter() - start < 5.0
        assert res.convexity_certified
        assert np.array_equal(res.radii, np.zeros(n)) and res.value == 0.0


def test_point_near_domain_boundary_needs_no_fallback(caplog, vertex_route):
    # One point a gap inside the sphere caps every pair budget with it at
    # the gap, so every u_i and every radius is at most the gap, while the
    # other pair budgets stay near 1.  Measured against each radius's own
    # budget, such a region is neither thin nor special to either route.
    # As f(r) = r^2 e^(-2hr) lies within e^(-2h gap) of r^2 there, the
    # value at h sits between e^(-2h gap) and 1 times the h = 0 value.
    for n in range(2, 9):
        for gap in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
            matrix = build_distance_matrix(*boundary_instance(n, gap))
            values = {}
            for h in (0.0, 0.3, 3.0):
                reduced = reduce_distance_matrix(matrix, h)
                vertex_route("auto")
                caplog.clear()
                with caplog.at_level(logging.DEBUG, logger="foambounds.polytope"):
                    values[h] = maximize_eva(reduced).value
                assert not [r for r in caplog.records if "falls back" in r.getMessage()]
                if n <= 5:
                    vertex_route("combinatorial")
                    reference = maximize_eva(reduced).value
                    assert values[h] == pytest.approx(reference, rel=1e-9), (n, gap, h)
            bound = matrix.boundary_distances[-1]
            assert 0.0 < values[0.0] and np.all(reduced.entries[-1] <= bound)
            for h in (0.3, 3.0):
                lower = math.exp(-2.0 * h * bound) * values[0.0] * (1.0 - 1e-12)
                assert lower <= values[h] <= values[0.0] * (1.0 + 1e-12), (n, gap, h)
            if gap <= 1e-7:
                assert values[3.0] == pytest.approx(values[0.0], rel=1e-6), (n, gap)


def close_pair_instance(seed, n, sep):
    """n - 1 random points inside the unit ball plus a copy of the first
    one moved sep away."""
    rng = np.random.default_rng(seed)
    points = random_point_set(rng, n - 1).points
    step = rng.normal(size=3)
    step *= sep / np.linalg.norm(step)
    return PointSet(np.vstack([points, points[0] + step])), Ball(np.zeros(3), 1.0)


def assert_vertices_of_closure(poly, verts):
    """Every row of verts is a vertex of the downward closure D: it is
    nonnegative, and n of D's rows are tight, of full rank, each slack
    measured against the largest budget u over the row's coordinates."""
    assert np.all(verts >= 0.0)
    u = np.min(np.where(poly.M == 1.0, poly.b[:, None], np.inf), axis=0)
    pairs = np.count_nonzero(poly.M == 1.0, axis=1) == 2
    rows = np.vstack([poly.M[pairs], np.eye(poly.n)])
    rhs = np.concatenate([poly.b[pairs], u])
    scale = np.max(np.where(rows != 0.0, u, 0.0), axis=1)
    for v in verts:
        tight = np.abs(rhs - rows @ v) <= 1e-9 * scale
        assert np.linalg.matrix_rank(rows[tight]) == poly.n, v


def test_close_point_pair_keeps_every_maximal_vertex(vertex_route):
    # Two points sep apart give their pair row a budget near sep, while the
    # other rows keep budgets near 1: a hull taken in r itself loses that
    # row's small facets (2 of the scan's 8 maximal vertices survive in the
    # first case, three points plus a copy of the first moved 3e-9).  A
    # coordinate of such a vertex can also round below 0 ((4, 1) at 1e-8),
    # and D has no nonneg row to drop it.
    # C(m, n) on D stays below 60k, so the scan is the oracle.
    cases = [(0, 4, 3e-9)] + [
        ((n, k), n, sep)
        for n in (4, 5, 6)
        for sep in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
        for k in range(2)
    ]
    objective = EvaObjective(0.3)
    for seed, n, sep in cases:
        matrix = build_distance_matrix(*close_pair_instance(seed, n, sep))
        reduced = reduce_distance_matrix(matrix, 0.3)
        poly = build_h_polytope(reduced)
        vertex_route("auto")
        res = maximize_eva(reduced, objective)
        assert res.convexity_certified
        assert_vertices_of_closure(poly, enumerate_vertices(poly, maximal=True).vertices)
        vertex_route("combinatorial")
        scan = enumerate_vertices(poly, maximal=True).vertices
        best = float(np.max(objective.values(scan)))
        assert res.value >= best * (1.0 - 1e-12), (seed, n, sep)


def test_scan_and_dual_route_agree_on_close_pairs(vertex_route):
    # Two-sided oracle.  A vertex solved from rows near 1 carries rounding
    # near 1e-16 in every coordinate, more than the budget-frame tolerance
    # of a pair row whose budget is sep; without the rounding allowance
    # the scan dropped real vertices (two of ten at N = 4, sep = 3e-9).
    for n in (4, 5, 6):
        for sep in (1e-6, 1e-7, 1e-8, 3e-9):
            for k in range(2):
                matrix = build_distance_matrix(*close_pair_instance((n, k), n, sep))
                poly = build_h_polytope(reduce_distance_matrix(matrix, 0.3))
                u = np.min(np.where(poly.M == 1.0, poly.b[:, None], np.inf), axis=0)
                # C(m, n) of the full system passes 296k at N = 6.
                for maximal in (True,) if n == 6 else (False, True):
                    vertex_route("combinatorial")
                    scan = enumerate_vertices(poly, maximal=maximal).vertices
                    vertex_route("dual")
                    dual = enumerate_vertices(poly, maximal=maximal).vertices
                    close = np.all(np.abs(scan[:, None] - dual[None]) <= 1e-7 * u, axis=2)
                    case = (n, sep, k, maximal, len(scan), len(dual))
                    assert len(scan) == len(dual), case
                    assert close.any(axis=1).all() and close.any(axis=0).all(), case


def test_radii_capped_at_r_max_when_h_positive():
    rng = np.random.default_rng(17)
    for _ in range(10):
        points, domain = random_instance(rng, int(rng.integers(1, 6)), ball_radius=10.0)
        h = 0.4
        reduced = reduce_distance_matrix(build_distance_matrix(points, domain), h)
        res = maximize_eva(reduced)
        assert np.all(res.radii <= 1.0 / h + 1e-9)


# Area of the Kelvin foam per unit cube: two cells of volume 1/2 with
# S / V^(2/3) = 5.306 (Weaire & Phelan 1994).  Every eva of its vertices is
# a lower bound for it.
KELVIN_AREA_PER_CUBE = 5.306 * 0.5 ** (2.0 / 3.0)


def kelvin_vertices() -> np.ndarray:
    """The 12 Kelvin foam vertices in the unit periodic box: the
    permutations of (0, +-1, +-2) / 4 mod 1."""
    points = {
        tuple(np.mod(np.array(p) / 4.0, 1.0))
        for signs in itertools.product((1, -1), repeat=2)
        for p in itertools.permutations((0, signs[0], 2 * signs[1]))
    }
    return np.array(sorted(points))


def test_periodic_radii_stay_below_half_the_period():
    points = kelvin_vertices()
    assert len(points) == 12
    matrix = build_distance_matrix(PointSet(points), PeriodicBox((1.0, 1.0, 1.0)))
    # Radii meet the cap rows as every other row, to the enumerator's
    # feasibility tolerance.
    cap = 0.5 * (1.0 + 1e-9)
    for h, largest, expect in ((0.0, 4, 2.304), (0.3, 4, 1.773), (3.0, 3, 0.176)):
        best = 0.0
        for size in range(1, largest + 1):
            for subset in itertools.combinations(range(12), size):
                res = maximize_eva(reduce_distance_matrix(matrix.submatrix(subset), h))
                assert np.all(res.radii <= cap), (h, subset, res.radii)
                best = max(best, res.value)
        assert best == pytest.approx(expect, abs=1e-3)
        assert best < KELVIN_AREA_PER_CUBE
    full = maximize_eva(reduce_distance_matrix(matrix, 0.0))
    assert full.convexity_certified and np.all(full.radii <= cap)
    assert full.value == pytest.approx(2.518, abs=1e-3)
    assert full.value < KELVIN_AREA_PER_CUBE
    # Two points outside the convex regime (h R = 0.69) are solved by the
    # exact pair solve, which must keep the cap as well: uncapped, it
    # returned radii [0.866, 0].
    pair = PointSet(np.array([[0.0, 0.25, 0.5], [0.5, 0.75, 0.0]]),
                    [DensityClass.VERTEX, DensityClass.FACE])
    matrix = build_distance_matrix(pair, PeriodicBox((1.0, 1.0, 1.0)))
    res = maximize_eva(reduce_distance_matrix(matrix, 0.8), EvaObjective(0.8, pair.thetas))
    assert res.radii == pytest.approx([0.5, 0.5 * math.sqrt(3.0) - 0.5], rel=1e-15)


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


# --- two-point solve ----------------------------------------------------------


def pair_cases():
    """(theta_i, theta_j, h, budget, cap_i, cap_j): every density pair,
    h = 0 and h > 0, budgets below, at and above the convexity threshold
    and exactly 1/h, caps equal to the budget and cutting into it."""
    rng = np.random.default_rng(41)
    cases = []
    for ti, tj in itertools.product(MIXED_THETAS, repeat=2):
        for h in (0.0, 0.3, 3.0, 6.0):
            r_max = 2.0 if h == 0.0 else 1.0 / h
            fractions = [0.2, CONVEXITY_COEFF, 0.7, 0.95, 1.0 - 1e-12, 1.0]
            for budget in [f * r_max for f in fractions] + [r_max * rng.random()]:
                cases.append((ti, tj, h, budget, budget, budget))
                cap_i, cap_j = budget * rng.random(2)
                cases.append((ti, tj, h, budget, cap_i, budget))
                cases.append((ti, tj, h, budget, cap_i, cap_j))
            if h > 0.0:
                cases.append((ti, tj, h, 1.0 / h, 1.0 / h, 1.0 / h))
    return cases


def pair_objective(ti, tj, h, r_i, r_j):
    return EvaObjective(h, [ti, tj]).values(np.stack([r_i, r_j], axis=-1))


def test_pair_max_matches_dense_grid():
    cases = np.array(pair_cases())
    for h in np.unique(cases[:, 2]):
        group = cases[cases[:, 2] == h]
        ti, tj, _, budget, cap_i, cap_j = group.T
        results = zip(group, *_pair_max(ti, tj, float(h), budget, cap_i, cap_j))
        for (ti, tj, h, budget, cap_i, cap_j), v, a, b in results:
            assert 0.0 <= a <= cap_i and 0.0 <= b <= cap_j
            assert a + b <= budget * (1.0 + 1e-15)
            assert v == pair_objective(ti, tj, h, a, b)
            grid = np.linspace(max(0.0, budget - cap_j), min(cap_i, budget), 20001)
            best = np.max(pair_objective(ti, tj, h, grid, np.minimum(budget - grid, cap_j)))
            if cap_i + cap_j <= budget:
                best = pair_objective(ti, tj, h, cap_i, cap_j)
            assert v >= best * (1.0 - 4e-16)


def test_pair_max_matches_mpmath():
    # 40-digit reference: the segment ends and every stationary point of
    # g(r) = pi (theta_i f(r) + theta_j f(R - r)), each root of g' refined
    # by mpmath from a sign change on a float grid.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40

    def df(h, r):
        return 2 * r * (1 - h * r) * mp.exp(-2 * h * r)

    interior = 0
    for ti, tj, h, budget, cap_i, cap_j in pair_cases():
        if cap_i + cap_j <= budget:
            continue
        v = _pair_max(ti, tj, h, budget, cap_i, cap_j)[0][0]
        ti_, tj_, h_, R = (mp.mpf(float(a)) for a in (ti, tj, h, budget))

        def g(r):
            return mp.pi * (ti_ * r ** 2 * mp.exp(-2 * h_ * r)
                            + tj_ * (R - r) ** 2 * mp.exp(-2 * h_ * (R - r)))

        def dg(r):
            return ti_ * df(h_, r) - tj_ * df(h_, R - r)

        lo, hi = max(0.0, budget - cap_j), min(cap_i, budget)
        best = max(g(mp.mpf(lo)), g(mp.mpf(hi)))
        grid = np.linspace(lo, hi, 2001)
        rest = budget - grid
        slope = (ti * grid * (1 - h * grid) * np.exp(-2 * h * grid)
                 - tj * rest * (1 - h * rest) * np.exp(-2 * h * rest))
        for k in np.flatnonzero((slope[:-1] > 0) & (slope[1:] <= 0)):
            root = mp.findroot(dg, (mp.mpf(grid[k]), mp.mpf(grid[k + 1])), solver="anderson")
            best = max(best, g(root))
            interior += 1
        assert abs(v - best) <= 4e-16 * best
    assert interior > 50


def test_pair_threshold_is_convexity_coefficient():
    # Below hR = 2 - sqrt(2) no density pair has an interior local maximum
    # on the segment r_i + r_j = R, so the best radii are a segment end and
    # the two-point polytope is certified by convexity_certified.  Just
    # above it the midpoint is a strict local maximum for equal densities.
    h = 3.0
    grid = np.linspace(0.0, 1.0, 4001)
    for rho in (0.3, CONVEXITY_COEFF * (1.0 - 1e-9)):
        budget = rho / h
        reduced = ReducedDistanceMatrix(np.array([[0.0, budget], [budget, 0.0]]), h)
        assert convexity_certified(reduced)
        for ti, tj in itertools.product(np.concatenate([MIXED_THETAS, [1e-3, 1e3]]), repeat=2):
            _, r_i, _ = _pair_max(ti, tj, h, budget, budget, budget)
            assert r_i[0] in (0.0, budget)
            g = pair_objective(ti, tj, h, grid * budget, (1.0 - grid) * budget)
            interior_peak = (g[1:-1] > g[:-2]) & (g[1:-1] > g[2:])
            assert not np.any(interior_peak)
    above = CONVEXITY_COEFF * (1.0 + 1e-3) / h
    assert not convexity_certified(
        ReducedDistanceMatrix(np.array([[0.0, above], [above, 0.0]]), h)
    )
    mid = pair_objective(1.0, 1.0, h, above / 2.0, above / 2.0)
    for t in (1e-4, 1e-3):
        assert mid > pair_objective(1.0, 1.0, h, above * (0.5 + t), above * (0.5 - t))
    # Past hR = ln 2 the midpoint also beats the segment ends, and at
    # R = 1/h equal densities split the budget into 1/(2h) each.
    for rho in (0.8, 1.0):
        _, r_i, r_j = _pair_max(THETA_VERTEX, THETA_VERTEX, h, rho / h, rho / h, rho / h)
        assert r_i[0] == pytest.approx(rho / (2.0 * h), rel=1e-12)
        assert r_j[0] == pytest.approx(rho / (2.0 * h), rel=1e-12)
    _, r_i, r_j = _pair_max(THETA_EDGE, THETA_EDGE, h, 1.0 / h, 1.0 / h, 1.0 / h)
    assert r_i[0] == r_j[0] == 1.0 / (2.0 * h)


def test_two_point_solve_is_certified_and_beats_ascent(monkeypatch):
    import foambounds.eva as eva_module

    def forbidden(*args, **kwargs):
        raise AssertionError("local ascent ran on a two-point polytope")

    rng = np.random.default_rng(43)
    for _ in range(12):
        d = float(rng.uniform(0.6, 1.0)) / 3.0
        reduced = ReducedDistanceMatrix(np.array([[0.0, d], [d, 0.0]]), 3.0)
        assert not convexity_certified(reduced)
        objective = EvaObjective(3.0, rng.choice(MIXED_THETAS, size=2))
        with monkeypatch.context() as patch:
            patch.setattr(eva_module, "_multistart_ascent", forbidden)
            res = maximize_eva(reduced, objective)
        assert res.convexity_certified
        poly = build_h_polytope(reduced)
        assert poly.contains(res.radii)
        ascent, _ = _multistart_ascent(poly, objective, enumerate_vertices(poly).vertices)
        assert res.value >= ascent
    # Equal densities past hR = ln 2: the midpoint beats every vertex.
    res = maximize_eva(ReducedDistanceMatrix(np.array([[0.0, 0.3], [0.3, 0.0]]), 3.0))
    assert res.attaining_vertex is None
    assert res.radii == pytest.approx([0.15, 0.15], rel=1e-12)


def assert_bounds_cover_subsets(matrix, h, objective):
    """Every subset's pair-tightened bound is at least its eva, and at
    most the per-point sum with budgets widened past the tolerance."""
    n = matrix.n
    reduced = reduce_distance_matrix(matrix, h)
    subsets = [s for size in range(1, n + 1) for s in itertools.combinations(range(n), size)]
    bounds = _subset_upper_bounds(matrix, reduced, objective, subsets)
    for subset, bound in zip(subsets, bounds):
        sub = reduce_distance_matrix(matrix.submatrix(subset), h)
        assert bound >= maximize_eva(sub, objective.subset(subset)).value
        m = len(subset)
        u = sub.entries[0] if m == 1 else (sub.entries + np.diag(np.full(m, np.inf))).min(axis=1)
        assert bound <= objective.subset(subset).value(np.minimum(u + 1e-6, reduced.r_max))
    return reduced, bounds


def test_pair_tightened_bound_covers_every_subset():
    rng = np.random.default_rng(47)
    for h in (0.0, 0.3, 3.0, 6.0):
        for ball_radius in (1.0, 3.0):
            for _ in range(3):
                n = int(rng.integers(2, 6))
                matrix = random_distance_matrix(rng, n, ball_radius)
                assert_bounds_cover_subsets(
                    matrix, h, EvaObjective(h, rng.choice(MIXED_THETAS, size=n))
                )
    # Far-apart points deep inside a large ball: every budget is exactly
    # 1/h, so every pair row sits at hR = 1, and the pair term must still
    # tighten every bound of two or more points.
    points = PointSet(2.0 * np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]]))
    matrix = build_distance_matrix(points, Ball(np.zeros(3), 10.0))
    objective = EvaObjective(6.0, [THETA_VERTEX, THETA_EDGE, THETA_FACE, THETA_FACE])
    reduced, bounds = assert_bounds_cover_subsets(matrix, 6.0, objective)
    assert np.all(reduced.entries[~np.eye(4, dtype=bool)] == 1.0 / 6.0)
    per_point = [objective.subset(s).value(np.full(len(s), 1.0 / 6.0))
                 for size in range(2, 5) for s in itertools.combinations(range(4), size)]
    assert np.all(bounds[4:] < per_point)


# --- three-point solve --------------------------------------------------------


def triangle_grid_oracle(reduced, objective, size=1201):
    """Best eva over a size x size grid of (r_1, r_2), each in [0, u_i],
    with r_3 as large as the polytope allows.  f(r) = r^2 e^(-2hr)
    increases on [0, 1/h], so f(min(a, b)) = min(f(a), f(b)) and the
    third term is an outer minimum; r_1 + r_2 <= R_12 keeps a prefix of
    each row and masks the rest."""
    R, h, r_max = reduced.entries, reduced.h, reduced.r_max
    theta = objective.thetas(3)

    def disc(k, r):
        return math.pi * theta[k] * np.exp(-2.0 * h * r) * r * r

    r_1 = np.linspace(0.0, min(r_max, R[0, 1], R[0, 2]), size)
    r_2 = np.linspace(0.0, min(r_max, R[0, 1], R[1, 2]), size)
    value = np.minimum.outer(disc(2, np.minimum(r_max, R[0, 2] - r_1)), disc(2, R[1, 2] - r_2))
    value += disc(0, r_1)[:, None]
    value += disc(1, r_2)
    prefix = np.searchsorted(r_2, R[0, 1] - r_1, side="right")
    value[np.arange(size) >= prefix[:, None]] = -np.inf
    return float(np.max(value))


def random_uncertified_triangles(rng, count):
    """Reduced matrices with entries in [0.5, 1]/h, h in {0.3, 1, 3}, half
    of them with a radius cap below the entries (so pair segments count),
    and mixed densities."""
    while count:
        h = float(rng.choice([0.3, 1.0, 3.0]))
        entries = np.zeros((3, 3))
        entries[np.triu_indices(3, 1)] = rng.uniform(0.5, 1.0, size=3) / h
        cap = float(rng.uniform(0.3, 0.6)) / h if rng.random() < 0.5 else math.inf
        reduced = ReducedDistanceMatrix(entries + entries.T, h, cap)
        if convexity_certified(reduced):
            continue
        count -= 1
        yield reduced, EvaObjective(h, rng.choice(MIXED_THETAS, size=3))


def test_three_point_solve_never_below_grid_or_ascent():
    # The face search is certified to a relative 1e-13; the grid points
    # and the ascent's radii are feasible, so neither may beat it by more.
    faces = 0
    for reduced, objective in random_uncertified_triangles(np.random.default_rng(61), 100):
        res = maximize_eva(reduced, objective)
        assert res.convexity_certified
        poly = build_h_polytope(reduced)
        faces += res.attaining_vertex is None
        if res.attaining_vertex is None:
            assert poly.contains(res.radii, tol=0.0)
        oracle = triangle_grid_oracle(reduced, objective)
        assert res.value >= oracle * (1.0 - 1e-13), (reduced.entries, oracle, res.value)
        ascent, _ = _multistart_ascent(poly, objective, enumerate_vertices(poly).vertices)
        assert res.value >= ascent * (1.0 - 1e-13)
        # With no incumbent every searched face returns its best point.
        value, radii = _triple_max(poly, reduced, objective, -math.inf)
        if radii is not None:
            assert poly.contains(radii, tol=0.0)
            assert value == objective.value(radii) <= res.value * (1.0 + 1e-13)
    assert faces >= 5  # the family reaches maxima off the vertices


def test_three_point_worked_values():
    # Equilateral at budget 1/h with unit densities: every pair row tight,
    # every radius 1/(2h), the star's lo end and a vertex.
    h = 3.0
    reduced = ReducedDistanceMatrix((np.ones((3, 3)) - np.eye(3)) / h, h)
    res = maximize_eva(reduced, EvaObjective(h, np.ones(3)))
    assert res.convexity_certified
    assert res.radii == pytest.approx(np.full(3, 0.5 / h), rel=1e-12)
    assert res.value == pytest.approx(0.0963106, abs=1e-7)
    assert res.value == pytest.approx(3.0 * math.pi * math.exp(-1.0) / (4.0 * h * h), rel=1e-12)


def test_star_breaking_the_third_pair_row_never_wins():
    # Centre 0 (face density) with R_01 = R_02 = 1/h: unconstrained, the
    # star r = (x, 1 - x, 1 - x) peaks near x = 0.18, where r_1 + r_2 = 1.64
    # breaks R_12 = 1.2.  The star must stop at x = (1 + 1 - 1.2)/2 = 0.4.
    h = 1.0
    reduced = ReducedDistanceMatrix(
        np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.2], [1.0, 1.2, 0.0]]), h
    )
    objective = EvaObjective(h, np.array([THETA_FACE, THETA_VERTEX, THETA_VERTEX]))
    x = np.linspace(0.0, 1.0, 10_001)
    free = objective.values(np.stack([x, 1.0 - x, 1.0 - x], axis=-1))
    assert x[np.argmax(free)] < 0.3
    res = maximize_eva(reduced, objective)
    poly = build_h_polytope(reduced)
    assert poly.contains(res.radii, tol=0.0)
    assert res.radii == pytest.approx([0.4, 0.6, 0.6], rel=1e-12)
    assert res.value < float(np.max(free)) * (1.0 - 1e-2)
    assert res.value >= triangle_grid_oracle(reduced, objective) * (1.0 - 1e-13)


def test_three_point_pinned_zero_budget():
    # d_12 = 0 pins two radii at zero: the region is the segment
    # r_3 in [0, 3], no interior, and f increases up to 1/h = 3.33.
    d = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 3.0], [3.0, 3.0, 0.0]])
    res = maximize_eva(ReducedDistanceMatrix(d, 0.3))
    assert res.convexity_certified
    assert np.array_equal(res.radii, [0.0, 0.0, 3.0])
    assert res.value == pytest.approx(EvaObjective(0.3).value([0.0, 0.0, 3.0]), rel=1e-12)


def test_three_point_solve_never_runs_ascent(monkeypatch):
    import foambounds.eva as eva_module

    def forbidden(*args, **kwargs):
        raise AssertionError("local ascent ran on a three-point polytope")

    monkeypatch.setattr(eva_module, "_multistart_ascent", forbidden)
    for reduced, objective in random_uncertified_triangles(np.random.default_rng(67), 20):
        assert maximize_eva(reduced, objective).convexity_certified
    # Far-apart points, as in the uncertified four-point instance.
    points = PointSet(np.array([[5.0, 0.0, 0.0], [-5.0, 0.0, 0.0], [0.0, 5.0, 0.0]]))
    matrix = build_distance_matrix(points, Ball(np.zeros(3), 10.0))
    assert maximize_eva(reduce_distance_matrix(matrix, 0.3)).convexity_certified
    assert evA_exact_from_matrix(matrix, 0.3).value > 0.0


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
    for h in (0.0, 0.3, 3.0, 6.0):
        for ball_radius in (1.0, 3.0):
            for _ in range(3):
                n = int(rng.integers(1, 7))
                matrix = random_distance_matrix(rng, n, ball_radius)
                weights = rng.choice(thetas, size=n) if rng.random() < 0.5 else None
                assert_matches_oracle(matrix, h, weights)
    # Budgets capped at 1/h: points spread through a large ball, so most
    # pair rows sit exactly at hR = 1.
    for h in (3.0, 6.0):
        for _ in range(3):
            n = int(rng.integers(3, 7))
            matrix = random_distance_matrix(rng, n, ball_radius=6.0)
            reduced = reduce_distance_matrix(matrix, h)
            assert np.sum(reduced.entries == 1.0 / h) >= 2
            assert_matches_oracle(matrix, h, rng.choice(thetas, size=n))


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
