"""H-representation construction and vertex enumeration."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from foambounds import (
    DegeneratePolytopeError,
    HPolytope,
    ReducedDistanceMatrix,
    UnboundedInstanceError,
    build_h_polytope,
    enumerate_vertices,
    interior_point,
    reduce_distance_matrix,
)
from foambounds.polytope import _dedup_lex

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


def brute_force_vertices(M, b, tol=1e-7):
    """All feasible basic solutions: size-n row subsets, solved and filtered.

    Written from the definition and kept independent of the library's
    enumerators (rank check via matrix_rank, plain solve, list dedup).
    """
    m, n = M.shape
    scale = max(1.0, float(np.max(np.abs(b))))
    found = []
    for rows in itertools.combinations(range(m), n):
        sub = M[list(rows)]
        if np.linalg.matrix_rank(sub) < n:
            continue
        x = np.linalg.solve(sub, b[list(rows)])
        if np.all(M @ x <= b + tol * scale):
            found.append(x)
    unique = []
    for x in found:
        if not any(np.max(np.abs(x - u)) <= tol * scale for u in unique):
            unique.append(x)
    return unique


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


def test_enumerate_worked_example_vertices():
    for method in ("combinatorial", "dual"):
        verts = enumerate_vertices(worked_polytope(), method=method)
        assert same_vertex_sets(verts.vertices, WORKED_VERTICES, 1e-9), method
    # Deterministic lexicographic order on the default path.
    out = enumerate_vertices(worked_polytope()).vertices
    assert np.array_equal(out, WORKED_VERTICES)
    with pytest.raises(ValueError):
        enumerate_vertices(worked_polytope(), tol=-1e-7)


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


def test_enumerate_matches_oracle_random():
    rng = np.random.default_rng(2024)
    for trial in range(25):
        n = int(rng.integers(2, 6))
        h = float(rng.choice([0.0, 0.4, 1.5]))
        matrix = random_distance_matrix(rng, n)
        poly = build_h_polytope(reduce_distance_matrix(matrix, h))
        expected = brute_force_vertices(poly.M, poly.b)
        scale = max(1.0, float(np.max(np.abs(poly.b))))
        for method in ("combinatorial", "dual"):
            got = enumerate_vertices(poly, method=method).vertices
            assert same_vertex_sets(got, expected, 1e-7 * scale), (trial, method)


def test_methods_agree_on_larger_instances():
    rng = np.random.default_rng(5)
    for _ in range(5):
        matrix = random_distance_matrix(rng, 6)
        poly = build_h_polytope(reduce_distance_matrix(matrix, 0.0))
        a = enumerate_vertices(poly, method="combinatorial").vertices
        b = enumerate_vertices(poly, method="dual").vertices
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
    }
    for name, (verts, t) in cases.items():
        assert np.array_equal(_dedup_lex(verts, t), greedy_dedup_oracle(verts, t)), name
    assert len(np.unique(cases["jittered clusters"][0], axis=0)) > len(np.unique(small, axis=0))
    # The middle of the chain (and its repeat) is dropped, being near a, so
    # it cannot merge a with a + 1.2 tol, which is farther than tol from a:
    # both ends stay.
    assert np.array_equal(_dedup_lex(cases["chain"][0], tol), np.array([a, a + 1.2 * tol]))


# --- interior point ---------------------------------------------------------


def test_interior_point_worked_example():
    poly = worked_polytope()
    x0 = interior_point(poly)
    assert np.all(poly.M @ x0 < poly.b)


def test_interior_point_interval_midpoint():
    poly = build_h_polytope(ReducedDistanceMatrix(np.array([[4.0]]), 0.0))
    assert interior_point(poly) == pytest.approx([2.0])


def test_interior_point_unit_square():
    poly = HPolytope(
        np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        np.array([1.0, 1.0, 0.0, 0.0]),
        (("cap", 0), ("cap", 1), ("nonneg", 0), ("nonneg", 1)),
    )
    assert interior_point(poly) == pytest.approx([0.5, 0.5])


def test_interior_point_degenerate():
    # d_12 = 0 forces r = 0: the region is a single point.
    reduced = ReducedDistanceMatrix(np.array([[0.0, 0.0], [0.0, 0.0]]), 0.0)
    poly = build_h_polytope(reduced)
    with pytest.raises(DegeneratePolytopeError):
        interior_point(poly)
