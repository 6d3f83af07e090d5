"""H-representation construction and vertex enumeration."""

import itertools
import logging
import math

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError, cKDTree

from foambounds import (
    DegeneratePolytopeError,
    DistanceMatrix,
    HPolytope,
    ReducedDistanceMatrix,
    UnboundedInstanceError,
    build_h_polytope,
    enumerate_vertices,
    interior_point,
    reduce_distance_matrix,
)
from foambounds import polytope
from foambounds.polytope import (
    _AUTO_COMBINATORIAL_LIMIT,
    DEDUP_TOL,
    FEASIBILITY_TOL,
    _dedup_lex,
    _dual_transform_vertices,
)

from conftest import WORKED_REDUCED, random_distance_matrix

WORKED_VERTICES = np.array(
    [
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 2.0],
        [0.0, 1.0, 0.0],
        [0.0, 1.0, 2.0],
        [1.0, 0.0, 0.0],
        [1.0, 0.0, 1.0],
    ]
)


def worked_polytope() -> HPolytope:
    return build_h_polytope(ReducedDistanceMatrix(WORKED_REDUCED.copy(), 0.0))


# --- independent oracle -----------------------------------------------------


def brute_force_vertices(M, b, tol=1e-7, frame=None, feas_tol=None):
    """All feasible basic solutions: size-n row subsets, solved and filtered.

    Written from the definition and kept independent of the library's
    enumerators (rank check via matrix_rank, plain solve, list dedup).
    Tolerances are relative to max(1, ||b||_inf), or, given a frame (one
    positive scale per coordinate), to it: a row may exceed its b by
    feas_tol (default tol) times the largest scale of its coordinates,
    and solutions within tol of each other as x / frame are merged.
    """
    m, n = M.shape
    if frame is None:
        frame = np.full(n, max(1.0, float(np.max(np.abs(b)))))
    if feas_tol is None:
        feas_tol = tol
    row_tol = feas_tol * np.max(np.where(M != 0.0, frame, 0.0), axis=1)
    found = []
    for rows in itertools.combinations(range(m), n):
        sub = M[list(rows)]
        if np.linalg.matrix_rank(sub) < n:
            continue
        x = np.linalg.solve(sub, b[list(rows)])
        if np.all(M @ x <= b + row_tol):
            found.append(x)
    unique = []
    for x in found:
        if not any(np.max(np.abs(x - u) / frame) <= tol for u in unique):
            unique.append(x)
    return unique


def budget_frame(poly):
    """u_i, the smallest b over the +1 rows of coordinate i, or 1 where
    that is 0 (such a coordinate is 0 at every vertex)."""
    u = np.min(np.where(poly.M == 1.0, poly.b[:, None], np.inf), axis=0)
    return np.where(u > 0.0, u, 1.0)


def same_vertex_sets(a, b, tol):
    if len(a) != len(b):
        return False
    used = set()
    for x in a:
        hit = None
        for i, y in enumerate(b):
            if i not in used and np.max(np.abs(np.asarray(x) - np.asarray(y))) <= tol:
                hit = i
                break
        if hit is None:
            return False
        used.add(hit)
    return True


# --- construction -----------------------------------------------------------


def test_build_worked_example_rows():
    poly = worked_polytope()
    assert poly.m == 6 and poly.n == 3
    by_tag = dict(zip([t for t in poly.row_tags], range(poly.m)))
    assert ("pair", 0, 1) in by_tag and poly.b[by_tag[("pair", 0, 1)]] == 1.0
    assert ("pair", 0, 2) in by_tag and poly.b[by_tag[("pair", 0, 2)]] == 2.0
    assert ("pair", 1, 2) in by_tag and poly.b[by_tag[("pair", 1, 2)]] == 3.0
    for i in range(3):
        assert ("nonneg", i) in by_tag
        assert poly.b[by_tag[("nonneg", i)]] == 0.0
    # h = 0: no cap rows.
    assert not any(t[0] == "cap" for t in poly.row_tags)


def test_build_single_point_interval():
    poly = build_h_polytope(ReducedDistanceMatrix(np.array([[4.0]]), 0.0))
    verts = enumerate_vertices(poly)
    assert same_vertex_sets(verts.vertices, [[0.0], [4.0]], 1e-12)


def test_build_two_points_with_cap():
    reduced = ReducedDistanceMatrix(np.array([[0.0, 3.0], [3.0, 0.0]]), 1.0)
    poly = build_h_polytope(reduced)
    tags = [t[0] for t in poly.row_tags]
    assert tags.count("pair") == 1 and tags.count("nonneg") == 2 and tags.count("cap") == 2
    cap_rows = [i for i, t in enumerate(poly.row_tags) if t[0] == "cap"]
    assert all(poly.b[i] == 1.0 for i in cap_rows)
    verts = enumerate_vertices(poly)
    square = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    assert same_vertex_sets(verts.vertices, square, 1e-9)


def loop_h_rows(reduced):
    """build_h_polytope's rows, tags and right-hand sides, one row at a time."""
    n = reduced.n
    rows, rhs, tags = [], [], []
    for i, j in itertools.combinations(range(n), 2):
        row = np.zeros(n)
        row[[i, j]] = 1.0
        rows.append(row)
        rhs.append(reduced.entries[i, j])
        tags.append(("pair", i, j))
    for i in range(n):
        row = np.zeros(n)
        row[i] = -1.0
        rows.append(row)
        rhs.append(0.0)
        tags.append(("nonneg", i))
    if reduced.h > 0:
        for i in range(n):
            row = np.zeros(n)
            row[i] = 1.0
            rows.append(row)
            rhs.append(reduced.r_max)
            tags.append(("cap", i))
    return np.array(rows), np.array(rhs), tuple(tags)


def test_build_rows_match_loop_reference():
    rng = np.random.default_rng(11)
    for n in range(2, 8):
        for h in (0.0, 1.0):
            reduced = reduce_distance_matrix(random_distance_matrix(rng, n), h)
            poly = build_h_polytope(reduced)
            m, b, tags = loop_h_rows(reduced)
            assert np.array_equal(poly.M, m)
            # No -0.0 entries: --dump-polytope would print them.
            assert np.array_equal(np.signbit(poly.M), np.signbit(m))
            assert np.array_equal(poly.b, b)
            assert poly.row_tags == tags


def test_hpolytope_rejects_unbounded():
    with pytest.raises(UnboundedInstanceError):
        HPolytope(np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]]),
                  np.array([0.0, 0.0, 1.0]),
                  (("nonneg", 0), ("nonneg", 1), ("cap", 0)))


def test_hpolytope_rejects_bad_entries():
    with pytest.raises(ValueError):
        HPolytope(np.array([[2.0]]), np.array([1.0]), (("cap", 0),))
    # A row whose pattern contradicts its tag; the first such tag is named.
    m = np.array([[1.0, 1.0], [-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tags = (("pair", 0, 1), ("cap", 0), ("nonneg", 1), ("cap", 1))
    with pytest.raises(ValueError, match=r"tag \('cap', 0\)"):
        HPolytope(m, np.ones(4), tags)


# --- enumeration ------------------------------------------------------------


def test_enumerate_worked_example_vertices(vertex_route):
    for route in ("combinatorial", "dual"):
        vertex_route(route)
        verts = enumerate_vertices(worked_polytope())
        assert same_vertex_sets(verts.vertices, WORKED_VERTICES, 1e-9), route
    # Deterministic lexicographic order on the default path.
    vertex_route("auto")
    out = enumerate_vertices(worked_polytope()).vertices
    assert np.array_equal(out, WORKED_VERTICES)


def test_printed_point_is_not_extreme():
    # (0, 1, 1) satisfies only two constraints with equality, so it is the
    # midpoint of an edge of the polytope, not a vertex.
    poly = worked_polytope()
    point = np.array([0.0, 1.0, 1.0])
    assert poly.contains(point)
    active = np.abs(poly.M @ point - poly.b) <= 1e-12
    assert np.linalg.matrix_rank(poly.M[active]) < poly.n
    verts = enumerate_vertices(poly).vertices
    assert not any(np.max(np.abs(point - v)) <= 1e-7 for v in verts)
    # It is the midpoint of two actual vertices.
    assert np.allclose(point, 0.5 * (np.array([0, 1, 0]) + np.array([0, 1, 2])))


def test_enumerate_matches_oracle_random(vertex_route):
    rng = np.random.default_rng(2024)
    for trial in range(25):
        n = int(rng.integers(2, 6))
        h = float(rng.choice([0.0, 0.4, 1.5]))
        matrix = random_distance_matrix(rng, n)
        poly = build_h_polytope(reduce_distance_matrix(matrix, h))
        expected = brute_force_vertices(poly.M, poly.b)
        scale = max(1.0, float(np.max(np.abs(poly.b))))
        for route in ("combinatorial", "dual"):
            vertex_route(route)
            got = enumerate_vertices(poly).vertices
            assert same_vertex_sets(got, expected, 1e-7 * scale), (trial, route)


def test_methods_agree_on_larger_instances(vertex_route):
    rng = np.random.default_rng(5)
    for _ in range(5):
        matrix = random_distance_matrix(rng, 6)
        poly = build_h_polytope(reduce_distance_matrix(matrix, 0.0))
        vertex_route("combinatorial")
        a = enumerate_vertices(poly).vertices
        vertex_route("dual")
        b = enumerate_vertices(poly).vertices
        scale = max(1.0, float(np.max(np.abs(poly.b))))
        assert same_vertex_sets(a, b, 1e-7 * scale)


def test_vertices_have_full_rank_active_sets():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        matrix = random_distance_matrix(rng, n)
        poly = build_h_polytope(reduce_distance_matrix(matrix, 0.0))
        scale = max(1.0, float(np.max(np.abs(poly.b))))
        for v in enumerate_vertices(poly).vertices:
            assert poly.contains(v)
            active = np.abs(poly.M @ v - poly.b) <= 1e-7 * scale
            assert np.linalg.matrix_rank(poly.M[active]) == poly.n


def test_every_vertex_maximizes_some_linear_functional():
    rng = np.random.default_rng(12)
    matrix = random_distance_matrix(rng, 4)
    poly = build_h_polytope(reduce_distance_matrix(matrix, 0.0))
    verts = enumerate_vertices(poly).vertices
    scale = max(1.0, float(np.max(np.abs(poly.b))))
    for _ in range(40):
        c = rng.normal(size=poly.n)
        scan_best = float(np.max(verts @ c))
        res = linprog(-c, A_ub=poly.M, b_ub=poly.b, bounds=[(None, None)] * poly.n,
                      method="highs")
        assert res.success
        assert -res.fun == pytest.approx(scan_best, abs=1e-7 * scale)
        # The LP optimum sits at (or on a face spanned by) enumerated vertices.
        assert np.min(np.max(np.abs(verts - res.x), axis=1)) <= 1e-6 * scale or (
            abs(float(c @ res.x) - scan_best) <= 1e-7 * scale
        )


def test_convex_hull_closure():
    rng = np.random.default_rng(77)
    matrix = random_distance_matrix(rng, 4)
    poly = build_h_polytope(reduce_distance_matrix(matrix, 0.0))
    verts = enumerate_vertices(poly).vertices
    box_hi = np.max(verts, axis=0)
    samples = []
    while len(samples) < 25:
        x = rng.random(poly.n) * box_hi
        if poly.contains(x, tol=0.0):
            samples.append(x)
    a_eq = np.vstack([verts.T, np.ones(len(verts))])
    for x in samples:
        b_eq = np.concatenate([x, [1.0]])
        res = linprog(np.zeros(len(verts)), A_eq=a_eq, b_eq=b_eq,
                      bounds=[(0, None)] * len(verts), method="highs")
        assert res.success, "feasible point is not a convex combination of vertices"
        assert np.max(np.abs(a_eq @ res.x - b_eq)) <= 1e-7


# --- deduplication ----------------------------------------------------------


def greedy_dedup_oracle(verts, tol):
    """Sort rows lexicographically, then keep a row unless some earlier kept
    row is within tol of it in the inf-norm.  O(K^2), from the definition."""
    kept = []
    for row in sorted(map(tuple, np.asarray(verts, dtype=float).tolist())):
        if not any(max(abs(x - y) for x, y in zip(row, k)) <= tol for k in kept):
            kept.append(row)
    return np.array(kept)


def test_dedup_matches_greedy_oracle():
    rng = np.random.default_rng(5)
    tol = 0.25  # a power of two, so the offsets below are exact
    base = rng.integers(0, 5, size=(40, 4)).astype(float)
    a = np.array([0.3, 0.1, 0.7])
    far = np.column_stack([10.0 * np.arange(500), rng.integers(0, 5, size=(500, 2))])
    # Small coordinates keep a 1e-16 jitter above their spacing.
    small = 1e-3 * base[rng.integers(0, 40, 200)]
    cases = {
        "exact duplicates": (base[rng.integers(0, 40, 200)], tol),
        "jittered clusters": (small + rng.normal(scale=1e-16, size=small.shape), 1e-7),
        "exactly tol apart": (np.vstack([base, base + tol, base + 2 * tol]), tol),
        "first coordinate all zero": (
            np.column_stack([np.zeros(400), rng.integers(0, 8, size=(400, 2)) * (0.6 * tol)]),
            tol,
        ),
        "no close pairs": (rng.permutation(base[:, :1] + 10.0 * np.arange(40)[:, None]), tol),
        "interval": (np.array([[3.0], [0.0]]), tol),
        "chain": (np.array([a + 1.2 * tol, a, a + 0.6 * tol, a + 0.6 * tol, a]), tol),
        "long chain": (rng.permutation(a + 0.6 * tol * np.arange(7)[:, None]), tol),
        "single row": (np.array([[1.0, 2.0, 3.0]]), tol),
        "one pair tol apart among far rows": (
            rng.permutation(np.vstack([far, far[123] + [0.0, tol, 0.0]])), tol
        ),
    }
    for name, (verts, t) in cases.items():
        unit = np.ones(verts.shape[1])
        assert np.array_equal(_dedup_lex(verts, t, unit), greedy_dedup_oracle(verts, t)), name
        # In a frame of powers of two, the distances are those of verts / frame
        # exactly, and the rows come back unscaled.
        frame = 2.0 ** rng.integers(-40, 40, size=verts.shape[1])
        kept = greedy_dedup_oracle(verts / frame, t) * frame
        assert np.array_equal(_dedup_lex(verts, t, frame), kept), name
    assert len(np.unique(cases["jittered clusters"][0], axis=0)) > len(np.unique(small, axis=0))
    # The middle of the chain (and its repeat) is dropped, being near a, so
    # it cannot merge a with a + 1.2 tol, which is farther than tol from a:
    # both ends stay.
    chain = _dedup_lex(cases["chain"][0], tol, np.ones(3))
    assert np.array_equal(chain, np.array([a, a + 1.2 * tol]))
    far_rows, t = cases["one pair tol apart among far rows"]
    assert len(_dedup_lex(far_rows, t, np.ones(3))) == 500


# --- maximal vertices -------------------------------------------------------


def pareto_filter(verts, tol):
    """Rows that no other row dominates (>= everywhere, > somewhere), from
    the definition; O(K^2)."""
    verts = np.asarray(verts)
    keep = [
        not np.any(np.all(verts >= v - tol, axis=1) & np.any(verts > v + tol, axis=1))
        for v in verts
    ]
    return verts[keep]


def dominated_by_some_point(poly, v, tol):
    """True when some point of the polytope lies above v with a larger sum:
    max sum(r) over {M r <= b, r >= v}, by LP."""
    res = linprog(-np.ones(poly.n), A_ub=poly.M, b_ub=poly.b,
                  bounds=[(float(x), None) for x in v], method="highs")
    assert res.success
    return -res.fun > float(np.sum(v)) + tol


def tie_heavy_polytopes():
    """build_h_polytope output for N = 2..8, h in {0, 0.3, 3}, with budgets
    drawn from a few values (many ties; zero budgets on some instances)."""
    rng = np.random.default_rng(41)
    for n in range(2, 9):
        for h in (0.0, 0.3, 3.0):
            for t in range(3):
                levels = [0.0, 0.2, 0.5, 1.0] if t == 2 else [0.2, 0.5, 0.5, 1.0, 2.0]
                entries = rng.choice(levels, size=(n, n))
                entries = np.triu(entries, 1) + np.triu(entries, 1).T
                if h > 0.0:
                    entries = np.minimum(entries, 1.0 / h)
                yield build_h_polytope(ReducedDistanceMatrix(entries, h))


def test_maximal_vertices_are_the_pareto_filter(vertex_route):
    routes = {"dual": 0, "combinatorial": 0}
    for poly in tie_heavy_polytopes():
        scale = max(1.0, float(np.max(poly.b)))
        vertex_route("auto")
        full = enumerate_vertices(poly).vertices
        expected = pareto_filter(full, 1e-9 * scale)
        # Every Pareto survivor is maximal in the whole polytope, not just
        # among the vertices.
        assert not any(dominated_by_some_point(poly, v, 1e-9 * scale) for v in expected)
        for route in ["dual"] + (["combinatorial"] if poly.n <= 6 else []):
            vertex_route(route)
            got = enumerate_vertices(poly, maximal=True).vertices
            assert same_point_sets(got, expected, 1e-9 * scale), (poly.n, route)
            routes[route] += 1
        if math.comb(poly.m, poly.n) <= 5_000:  # N <= 4, and N = 5 without caps
            oracle = pareto_filter(np.array(brute_force_vertices(poly.M, poly.b)),
                                   1e-9 * scale)
            assert same_point_sets(got, oracle, 1e-9 * scale), poly.n
    assert routes == {"dual": 63, "combinatorial": 45}


def test_maximal_single_point_is_the_interval_top():
    poly = build_h_polytope(ReducedDistanceMatrix(np.array([[4.0]]), 0.0))
    assert np.array_equal(enumerate_vertices(poly, maximal=True).vertices, [[4.0]])


def test_maximal_needs_nonneg_rows():
    # r_1 + r_2 <= 1 with caps, but nothing bounds the radii below, so no
    # budget bounds |r_i| either: both enumerations refuse it.
    poly = HPolytope(np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]), np.ones(3),
                     (("pair", 0, 1), ("cap", 0), ("cap", 1)))
    for maximal in (False, True):
        with pytest.raises(ValueError, match="nonneg"):
            enumerate_vertices(poly, maximal=maximal)


def test_zero_budget_coordinates_are_pinned(vertex_route):
    pinned_instances = 0
    for poly in spread_polytopes():
        if not has_zero_budget(poly) or poly.n > 4:
            continue
        pinned_instances += 1
        scale = max(1.0, float(np.max(np.abs(poly.b))))
        expected = np.array(brute_force_vertices(poly.M, poly.b))
        for route in ("auto", "dual", "combinatorial"):
            vertex_route(route)
            got = enumerate_vertices(poly).vertices
            assert same_vertex_sets(got, expected, 1e-7 * scale), (poly.n, route)
        zero_rows = (poly.b == 0.0) & (plus_counts(poly) > 0)
        pinned = np.any(poly.M[zero_rows] == 1.0, axis=0)
        assert np.all(got[:, pinned] == 0.0)
    assert pinned_instances == 4 * 3 * 2


def test_all_coordinates_pinned(vertex_route):
    # Every pair budget zero: r = 0 is the only point, on every route.
    poly = build_h_polytope(ReducedDistanceMatrix(np.zeros((4, 4)), 0.3))
    for maximal in (False, True):
        for route in ("auto", "dual", "combinatorial"):
            vertex_route(route)
            verts = enumerate_vertices(poly, maximal=maximal).vertices
            assert np.array_equal(verts, np.zeros((1, 4)))


# --- route logging ----------------------------------------------------------


def fallback_records(caplog):
    return [r for r in caplog.records if "falls back" in r.getMessage()]


def test_dual_fallback_is_logged(caplog, monkeypatch, vertex_route):
    # Budgets of 1e-13 and a region 1e-8 thin stay on the dual route; only
    # a failed hull computation hands over to the combinatorial scan.
    # Either way every returned point is feasible and every vertex of the
    # oracle lies within 1e-7 max(1, ||b||_inf) of one.
    tiny_budget = build_h_polytope(
        ReducedDistanceMatrix(np.array([[0.0, 1e-13], [1e-13, 0.0]]), 0.0)
    )
    thin = build_h_polytope(ReducedDistanceMatrix(
        np.array([[0.0, 1e-8, 1.0], [1e-8, 0.0, 1.0], [1.0, 1.0, 0.0]]), 0.0
    ))
    vertex_route("dual")

    def failing_hull(points):
        raise QhullError("QH6154 Qhull precision error: initial simplex is flat")

    for poly in (tiny_budget, thin):
        scale = max(1.0, float(np.max(poly.b)))
        expected = brute_force_vertices(poly.M, poly.b, frame=budget_frame(poly),
                                        feas_tol=FEASIBILITY_TOL)
        for hull, route in ((ConvexHull, "dual"), (failing_hull, "combinatorial")):
            monkeypatch.setattr(polytope, "ConvexHull", hull)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="foambounds.polytope"):
                got = enumerate_vertices(poly).vertices
            assert all(poly.contains(v) for v in got), route
            assert np.all(cKDTree(got).query(expected, p=np.inf)[0] <= 1e-7 * scale), route
            assert f"route={route}" in caplog.records[-1].getMessage()
            assert len(fallback_records(caplog)) == (route == "combinatorial")
        assert "falls back to the combinatorial scan" in caplog.text
        assert "QhullError: QH6154" in caplog.text


def test_zero_budget_is_pinned_not_a_fallback(caplog, vertex_route):
    zero_budget = build_h_polytope(
        ReducedDistanceMatrix(np.array([[0.0, 0.0], [0.0, 0.0]]), 0.0)
    )
    vertex_route("dual")
    with caplog.at_level(logging.DEBUG, logger="foambounds.polytope"):
        verts = enumerate_vertices(zero_budget)
    assert np.array_equal(verts.vertices, [[0.0, 0.0]])
    assert fallback_records(caplog) == []
    assert [r.getMessage() for r in caplog.records] == [
        "enumerate_vertices: route=combinatorial maximal=False pinned=2 n=0 m=0 vertices=1"
    ]


def test_full_dimensional_instance_stays_on_dual_route(caplog):
    matrix = random_distance_matrix(np.random.default_rng(3), 7)
    poly = build_h_polytope(reduce_distance_matrix(matrix, 0.0))
    assert math.comb(poly.m, poly.n) > _AUTO_COMBINATORIAL_LIMIT  # auto takes the dual route
    with caplog.at_level(logging.DEBUG, logger="foambounds.polytope"):
        verts = enumerate_vertices(poly)
    assert len(verts) > 0
    assert fallback_records(caplog) == []
    assert [r.getMessage() for r in caplog.records] == [
        f"enumerate_vertices: route=dual maximal=False pinned=0 n=7 m={poly.m} "
        f"vertices={len(verts)}"
    ]


# --- interior point ---------------------------------------------------------


def test_interior_point_worked_example():
    poly = worked_polytope()
    x0 = interior_point(poly.M, poly.b)
    assert np.all(poly.M @ x0 < poly.b)


def test_interior_point_interval_midpoint():
    poly = build_h_polytope(ReducedDistanceMatrix(np.array([[4.0]]), 0.0))
    assert interior_point(poly.M, poly.b) == pytest.approx([2.0])


def test_interior_point_unit_square():
    poly = HPolytope(
        np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        np.array([1.0, 1.0, 0.0, 0.0]),
        (("cap", 0), ("cap", 1), ("nonneg", 0), ("nonneg", 1)),
    )
    assert interior_point(poly.M, poly.b) == pytest.approx([0.5, 0.5])


def test_interior_point_degenerate():
    # d_12 = 0 forces r = 0: the region is a single point.
    reduced = ReducedDistanceMatrix(np.array([[0.0, 0.0], [0.0, 0.0]]), 0.0)
    poly = build_h_polytope(reduced)
    with pytest.raises(DegeneratePolytopeError):
        interior_point(poly.M, poly.b)


def spread_polytopes():
    """build_h_polytope output for N = 1..8 and h in {0, 0.3, 3}.

    Points are uniform in a 10-cube and boundary distances spread over 8
    decades (1e-6 to 1e2); every fourth instance gets one zero boundary
    distance, so some of its budgets are zero.
    """
    rng = np.random.default_rng(9)
    for n in range(1, 9):
        for h in (0.0, 0.3, 3.0):
            for t in range(8):
                pts = rng.random((n, 3)) * 10.0
                bd = 10.0 ** rng.uniform(-6.0, 2.0, n)
                if t % 4 == 3:
                    bd[rng.integers(n)] = 0.0
                entries = np.zeros((n + 1, n + 1))
                entries[:n, :n] = np.linalg.norm(pts[:, None] - pts[None], axis=2)
                entries[:n, n] = entries[n, :n] = bd
                yield build_h_polytope(reduce_distance_matrix(DistanceMatrix(entries), h))


def plus_counts(poly):
    return np.count_nonzero(poly.M == 1.0, axis=1)


def has_zero_budget(poly):
    return bool(np.any(poly.b[plus_counts(poly) > 0] == 0.0))


def test_interior_point_closed_form_on_built_polytopes():
    degenerate = 0
    for poly in spread_polytopes():
        if has_zero_budget(poly):
            degenerate += 1
            with pytest.raises(DegeneratePolytopeError):
                interior_point(poly.M, poly.b)
            continue
        x0 = interior_point(poly.M, poly.b)
        slack = poly.b - poly.M @ x0
        assert np.all(slack > 0.0)
        # Each row keeps its share b_k / (1 + p_k), up to the rounding of
        # the shares and of the row sum.
        assert np.all(slack >= poly.b / (1 + plus_counts(poly)) * (1.0 - 1e-15))
    assert degenerate == 8 * 3 * 2


def halfspace_vertices(poly):
    """Vertices from scipy's halfspace intersection about an LP Chebyshev
    centre: independent of the library's interior point and hull setup."""
    norms = np.linalg.norm(poly.M, axis=1)
    res = linprog(np.r_[np.zeros(poly.n), -1.0], A_ub=np.column_stack([poly.M, norms]),
                  b_ub=poly.b, bounds=[(None, None)] * poly.n + [(0.0, None)],
                  method="highs")
    assert res.success
    points = HalfspaceIntersection(np.column_stack([poly.M, -poly.b]), res.x[:-1])
    return points.intersections


def same_point_sets(a, b, tol):
    """Equal sizes and every point of each set within tol (inf-norm) of the
    other set; for sets whose points are farther than 2 tol apart."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    return all(
        np.all(cKDTree(y).query(x, p=np.inf)[0] <= tol) for x, y in ((a, b), (b, a))
    )


def test_dual_route_matches_oracle_on_built_polytopes():
    # Called directly, so no fallback can hide a wrong vertex set.  Every
    # polytope with nonzero budgets stays on the route, thin ones too: a
    # boundary distance far below the pair distances makes every budget
    # it touches small.
    checked = thin = 0
    for poly in spread_polytopes():
        if poly.n == 1 or has_zero_budget(poly):
            continue
        frame = budget_frame(poly)
        feas_tol = FEASIBILITY_TOL * np.max(np.where(poly.M != 0.0, frame, 0.0), axis=1)
        verts = _dual_transform_vertices(poly.M, poly.b, feas_tol)
        verts[np.abs(verts) <= FEASIBILITY_TOL * frame] = 0.0
        got = _dedup_lex(verts, DEDUP_TOL, frame)
        if poly.n <= 4:
            expected = np.array(
                brute_force_vertices(poly.M, poly.b, frame=frame, feas_tol=FEASIBILITY_TOL)
            )
        else:  # C(m, n) row subsets are too many to scan in a test
            expected = _dedup_lex(halfspace_vertices(poly), DEDUP_TOL, frame)
        assert same_point_sets(got / frame, expected / frame, 1e-7), (poly.n, poly.m)
        checked += 1
        # Thin: a slack at the interior point below 1e-6 max(1, ||b||_inf).
        slack = poly.b - poly.M @ interior_point(poly.M, poly.b)
        thin += bool(np.min(slack) < 1e-6 * max(1.0, float(np.max(poly.b))))
    assert (checked, thin) == (7 * 3 * 6, 45)
