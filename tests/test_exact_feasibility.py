"""Every vertex and every reported radii vector meets its rows in floats.

The contract is M r <= b with no tolerance: for each vertex that
enumerate_vertices returns, maximal or not, and for the radii of
maximize_eva and of both subset searches.  The reported radii also meet
the raw pair and boundary distances, again with no tolerance.
"""

import itertools

import numpy as np

from foambounds import (
    ReducedDistanceMatrix,
    build_distance_matrix,
    build_h_polytope,
    convexity_certified,
    enumerate_vertices,
    evA_algorithm1_from_matrix,
    evA_exact_from_matrix,
    maximize_eva,
    reduce_distance_matrix,
)

from conftest import random_distance_matrix
from test_eva import close_pair_instance


def assert_radii_exact(matrix, h, subset, radii):
    """radii, one per point of subset, meet the subset's polytope rows and
    the raw distances in floats: r >= 0, r_i <= boundary distance and
    r_i + r_j <= d_ij."""
    sub = matrix.submatrix(subset)
    r = np.asarray(radii, dtype=float)
    assert build_h_polytope(reduce_distance_matrix(sub, h)).contains(r)
    assert np.all(r >= 0.0)
    assert np.all(r <= sub.boundary_distances)
    iu, ju = np.triu_indices(len(r), 1)
    assert np.all(r[iu] + r[ju] <= sub.entries[iu, ju])


def assert_exact(matrix, h):
    """Vertices, eva radii and evA radii of one instance."""
    reduced = reduce_distance_matrix(matrix, h)
    poly = build_h_polytope(reduced)
    for maximal in (False, True):
        for v in enumerate_vertices(poly, maximal=maximal):
            assert poly.contains(v), (maximal, v)
    everyone = tuple(range(matrix.n))
    assert_radii_exact(matrix, h, everyone, maximize_eva(reduced).radii)
    for res in (evA_exact_from_matrix(matrix, h), evA_algorithm1_from_matrix(matrix, h)):
        assert_radii_exact(matrix, h, res.surviving_subset, res.radii)


def test_pull_inside_lowers_only_the_failing_rows():
    budgets = np.array([[0.0, 0.3, 0.7], [0.3, 0.0, 0.5], [0.7, 0.5, 0.0]])
    poly = build_h_polytope(ReducedDistanceMatrix(budgets, 1.0))
    inside = np.array([0.1, 0.15, 0.3])
    assert np.array_equal(poly.pull_inside(inside), inside)
    # r_0 + r_1 <= 0.3 broken by rounding (0.1 + 0.2 rounds above 0.3),
    # a radius below 0, and the same row broken by a factor 2, as a batch.
    assert 0.1 + 0.2 > 0.3
    batch = np.array([[0.1, 0.2, 0.3], [0.1, 0.15, -1e-17], [0.3, 0.3, 0.0]])
    pulled = poly.pull_inside(batch)
    assert all(poly.contains(r) for r in pulled)
    assert np.all(pulled <= np.maximum(batch, 0.0))
    assert np.allclose(pulled[0], batch[0], rtol=1e-15, atol=0.0) and pulled[0, 2] == 0.3
    assert np.array_equal(pulled[1], [0.1, 0.15, 0.0])
    assert np.allclose(pulled[2], [0.15, 0.15, 0.0], rtol=1e-15, atol=0.0)


def test_random_families_hold_with_no_tolerance():
    rng = np.random.default_rng(19)
    for n in range(2, 9):
        for h in (0.0, 0.3, 3.0):
            for ball_radius in (1.0, 4.0):
                assert_exact(random_distance_matrix(rng, n, ball_radius), h)


def test_uncertified_triangles_hold_with_no_tolerance():
    # The family in which a reported vertex once broke a row by rounding
    # (2 of these 300): random triangles that leave the certified regime.
    rng = np.random.default_rng(5)
    settings = list(itertools.product((0.5, 1.0, 4.0), (0.3, 1.0, 3.0)))
    kept = 0
    while kept < 300:
        for ball_radius, h in settings:
            matrix = random_distance_matrix(rng, 3, ball_radius)
            reduced = reduce_distance_matrix(matrix, h)
            if not convexity_certified(reduced):
                kept += 1
                assert_radii_exact(matrix, h, (0, 1, 2), maximize_eva(reduced).radii)


def test_close_pairs_hold_with_no_tolerance():
    # Two points sep apart give one pair row a budget near sep while the
    # others stay near 1: the vertices carry rounding from the large rows.
    for seed, n in ((0, 4), (1, 5), (2, 6), (3, 7)):
        for sep in (1e-6, 1e-7, 1e-8, 3e-9):
            matrix = build_distance_matrix(*close_pair_instance(seed, n, sep))
            for h in (0.0, 0.3, 3.0):
                assert_exact(matrix, h)
