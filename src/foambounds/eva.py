"""Extrinsic vertex area: objective, maximization, and subset search.

Each point i contributes pi * theta_i * exp(-2 h r_i) * r_i^2 when given
a ball of radius r_i; eva is the maximum of that sum over the admissible
radii polytope, and evA is the maximum of eva over all nonempty subsets
of the point set.  Both are certified lower bounds for foam area, so any
feasible radii vector is safe to report; optimality only sharpens the
bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .errors import DegeneratePolytopeError, SubsetSizeError
from .geometry import (
    THETA_VERTEX,
    DistanceMatrix,
    Domain,
    PointSet,
    ReducedDistanceMatrix,
    build_distance_matrix,
    reduce_distance_matrix,
)
from .polytope import (
    HPolytope,
    build_h_polytope,
    enumerate_vertices,
    feasibility_tol_for,
    interior_point,
)

# The objective is convex on the whole polytope whenever every entry of
# the reduced matrix is at most this constant over h; in that regime the
# maximum is guaranteed to sit on a polytope vertex.
CONVEXITY_COEFF = 2.0 - math.sqrt(2.0)

# Multi-start count for the local-ascent fallback outside the certified
# regime.  Seeds are deterministic; no global RNG state is touched.
ASCENT_STARTS = 32

_ZERO_RADIUS_RTOL = 1e-9

# Relative margin by which a subset's upper bound must fall below the best
# value before the exact search prunes it; covers the rounding of the two
# sums being compared, so subsets that tie the best value are still solved.
_PRUNE_RTOL = 1e-12


@dataclass(eq=False)
class EvaObjective:
    """Sum of per-point disc bounds pi * theta_i * exp(-2 h r_i) * r_i^2.

    weights holds the per-point densities theta_i; None means the vertex
    density for every point.
    """

    h: float
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.h = float(self.h)
        if self.h < 0:
            raise ValueError("curvature bound h must be >= 0")
        if self.weights is not None:
            w = np.atleast_1d(np.asarray(self.weights, dtype=float))
            if np.any(w <= 0):
                raise ValueError("weights must be positive")
            self.weights = w

    def thetas(self, n: int) -> np.ndarray:
        if self.weights is None:
            return np.full(n, THETA_VERTEX)
        if len(self.weights) != n:
            raise ValueError(f"objective has {len(self.weights)} weights, needs {n}")
        return self.weights

    def values(self, radii) -> np.ndarray:
        """Objective of each row of a radii array; the last axis indexes points.

        This is the one place the formula is written out: the single-vector
        value, the vertex scan and the subset upper bounds all use it.
        """
        r = np.asarray(radii, dtype=float)
        theta = self.thetas(r.shape[-1])
        return np.sum(math.pi * theta * np.exp(-2.0 * self.h * r) * r * r, axis=-1)

    def value(self, radii) -> float:
        r = np.atleast_1d(np.asarray(radii, dtype=float))
        if np.any(r < 0):
            raise ValueError("radii must be nonnegative")
        return float(self.values(r))

    def gradient(self, radii) -> np.ndarray:
        r = np.atleast_1d(np.asarray(radii, dtype=float))
        theta = self.thetas(len(r))
        return math.pi * theta * np.exp(-2.0 * self.h * r) * (2.0 * r - 2.0 * self.h * r * r)

    def subset(self, indices) -> "EvaObjective":
        if self.weights is None:
            return EvaObjective(self.h)
        return EvaObjective(self.h, self.weights[list(indices)])


def eva_value(radii, objective: EvaObjective) -> float:
    """Evaluate the objective at a nonnegative radii vector."""
    return objective.value(radii)


@dataclass(eq=False)
class EvaResult:
    """Outcome of maximizing eva over one radii polytope."""

    value: float
    radii: np.ndarray
    attaining_vertex: int | None
    convexity_certified: bool


@dataclass(eq=False)
class EvaAResult:
    """Outcome of the subset search (exact or greedy)."""

    value: float
    surviving_subset: tuple
    radii: np.ndarray
    method: str
    notes: tuple = ()
    # Subsets whose eva was computed (maximize_eva calls); deterministic.
    subsets_scored: int = 0


def convexity_certified(reduced: ReducedDistanceMatrix) -> bool:
    """True when the best polytope vertex is certifiably the maximum.

    For N >= 2 this holds when the objective is convex on the polytope:
    h = 0, or every off-diagonal budget is at most (2 - sqrt(2))/h.  A
    single point needs no convexity: its region is the interval
    [0, d_11], and f(r) = r^2 e^(-2hr) increases on [0, 1/h], so the
    interval end is the maximum whenever d_11 <= 1/h (which
    reduce_distance_matrix guarantees by capping every entry at r_max).
    """
    if reduced.h == 0.0:
        return True
    if reduced.n == 1:
        return float(reduced.entries[0, 0]) <= reduced.r_max
    off = ~np.eye(reduced.n, dtype=bool)
    return float(np.max(reduced.entries[off])) <= CONVEXITY_COEFF / reduced.h


def maximize_eva(
    reduced: ReducedDistanceMatrix, objective: EvaObjective | None = None
) -> EvaResult:
    """Maximize eva over the admissible-radii polytope.

    In the certified regime (h = 0, every reduced entry at most
    (2 - sqrt(2))/h, or a single point; see convexity_certified) the best
    polytope vertex is the exact maximum.
    Otherwise the vertex scan is augmented with deterministic multi-start
    local ascent and the better of the two is returned; either way the
    value is attained by feasible radii, hence a valid area bound.
    """
    if objective is None:
        objective = EvaObjective(reduced.h)
    if objective.h != reduced.h:
        raise ValueError(
            f"objective h={objective.h} disagrees with reduced matrix h={reduced.h}"
        )
    poly = build_h_polytope(reduced)
    verts = enumerate_vertices(poly)
    values = objective.values(verts.vertices)
    best = int(np.argmax(values))  # first max in lex order: smallest radii win ties
    best_value = float(values[best])
    best_radii = verts.vertices[best].copy()
    certified = convexity_certified(reduced)
    attaining: int | None = best
    if not certified:
        try:
            asc_value, asc_radii = _multistart_ascent(poly, objective, verts.vertices)
        except DegeneratePolytopeError:
            # Lower-dimensional region: no interior to start the ascent
            # from; the vertex scan result stands (still a valid bound).
            asc_value, asc_radii = best_value, best_radii
        if asc_value > best_value:
            best_value, best_radii, attaining = asc_value, asc_radii, None
    # Report the exact objective value of the returned radii.
    best_value = objective.value(best_radii)
    return EvaResult(best_value, best_radii, attaining, certified)


def _multistart_ascent(
    poly: HPolytope, objective: EvaObjective, vertices: np.ndarray
) -> tuple[float, np.ndarray]:
    """Deterministic multi-start local ascent inside the polytope."""
    x0 = interior_point(poly)
    seeds = [x0]
    for t in (0.5, 0.9):
        for v in vertices:
            seeds.append(x0 + t * (v - x0))
            if len(seeds) >= ASCENT_STARTS:
                break
        if len(seeds) >= ASCENT_STARTS:
            break
    constraints = [
        {
            "type": "ineq",
            "fun": lambda r, M=poly.M, b=poly.b: b - M @ r,
            "jac": lambda r, M=poly.M: -M,
        }
    ]
    bounds = [(0.0, None)] * poly.n
    best_value, best_point = -math.inf, x0
    for seed in seeds:
        res = minimize(
            lambda r: -objective.value(np.maximum(r, 0.0)),
            seed,
            jac=lambda r: -objective.gradient(np.maximum(r, 0.0)),
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": 200, "ftol": 1e-12},
        )
        point = _pull_feasible(poly, x0, np.maximum(res.x, 0.0))
        value = objective.value(point)
        if value > best_value:
            best_value, best_point = value, point
    return best_value, best_point


def _pull_feasible(poly: HPolytope, anchor: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Shrink a point toward a strictly feasible anchor until feasible."""
    if poly.contains(point, tol=0.0):
        return point
    direction = poly.M @ (point - anchor)
    slack = poly.b - poly.M @ anchor
    positive = direction > 0
    if not np.any(positive):
        return point
    s = float(np.min(slack[positive] / direction[positive]))
    s = max(0.0, min(1.0, s * (1.0 - 1e-12)))
    return anchor + s * (point - anchor)


def evA_exact_from_matrix(
    matrix: DistanceMatrix,
    h: float,
    weights: np.ndarray | None = None,
    max_n: int = 8,
) -> EvaAResult:
    """Exact evA: maximize eva over every nonempty subset of the points.

    Bound and prune: every subset S gets a cheap upper bound first.  The
    polytope of S has r_i + r_j <= R_ij and r_j >= 0, so each radius obeys
    r_i <= u_i(S) = min over members j != i of R_ij; a singleton's
    budget is min(boundary distance, 1/h).  R is the reduced matrix of
    the full set, reduced once: a reduced entry depends only on its own
    pair of points, so it equals the entry of the subset's polytope.
    f(r) = r^2 exp(-2 h r) increases on [0, 1/h], so
    UB(S) = sum_i pi theta_i f(u_i(S)) bounds eva(S), also when the local
    ascent runs outside the convex regime.  Subsets are solved in order
    of decreasing UB, and the search stops at the first subset whose UB
    is below the best value found by more than a 1e-12 relative rounding
    margin; all later subsets have smaller bounds.  The budgets are
    widened by the vertex enumerator's feasibility tolerance, so radii
    that meet the constraints only to within it stay under the bound.

    Pruning changes no result: ties are broken toward the smallest
    subset, then lexicographically, exactly as a scan of every subset in
    that order would; among equal-value vertices the lexicographically
    smallest radii win.  subsets_scored counts the subsets solved.

    Raises:
        SubsetSizeError: when the point count exceeds max_n; use the
            greedy search (evA_algorithm1) for larger instances.
        UnboundedInstanceError: when some point has no boundary and h = 0.
    """
    n = matrix.n
    if n > max_n:
        raise SubsetSizeError(
            f"{n} points would need {2 ** n - 1} subsets (max_n={max_n}); "
            "use evA_algorithm1 for larger instances"
        )
    objective = EvaObjective(h, weights)
    reduced = reduce_distance_matrix(matrix, h)
    subsets = [
        subset
        for size in range(1, n + 1)
        for subset in itertools.combinations(range(n), size)
    ]
    bounds = _subset_upper_bounds(matrix, reduced, objective, subsets)
    best_k, best, scored = -1, None, 0
    for k in np.argsort(-bounds, kind="stable"):
        if best is not None and bounds[k] * (1.0 + _PRUNE_RTOL) < best.value:
            break
        subset = subsets[k]
        sub_reduced = reduce_distance_matrix(matrix.submatrix(subset), h)
        res = maximize_eva(sub_reduced, objective.subset(subset))
        scored += 1
        # Subsets are indexed smallest first, then lexicographically.
        if best is None or res.value > best.value or (
            res.value == best.value and k < best_k
        ):
            best_k, best = k, res
    assert best is not None
    return EvaAResult(
        best.value, subsets[best_k], best.radii, "exact", subsets_scored=scored
    )


def _subset_upper_bounds(
    matrix: DistanceMatrix,
    reduced: ReducedDistanceMatrix,
    objective: EvaObjective,
    subsets: list,
) -> np.ndarray:
    """UB(S) = sum over i in S of pi theta_i f(u_i(S)) for every subset.

    +inf for a subset holding a point with an infinite budget (no
    boundary and h = 0); solving that singleton raises the unbounded
    instance error, as the full scan would.
    """
    n = matrix.n
    r_max = reduced.r_max
    members = np.zeros((len(subsets), n), dtype=bool)
    for k, subset in enumerate(subsets):
        members[k, list(subset)] = True
    pair = np.where(np.eye(n, dtype=bool), np.inf, reduced.entries)
    budgets = np.min(np.where(members[:, None, :], pair[None], np.inf), axis=2)
    single = np.minimum(matrix.boundary_distances, r_max)
    budgets = np.where(members.sum(axis=1)[:, None] == 1, single, budgets)
    # A vertex meets r_i + r_j <= R_ij and r_j >= 0 only to within the
    # enumerator's feasibility tolerance, so r_i can exceed u_i by twice it.
    # The tolerance scales with the largest right-hand side of any subset
    # polytope, which is among these values.
    rhs = np.concatenate([reduced.entries.ravel(), single, [r_max]])
    widen = 2.0 * feasibility_tol_for(np.max(rhs[np.isfinite(rhs)]))
    budgets = np.where(members, np.minimum(budgets + widen, r_max), 0.0)
    unbounded = np.any(np.isinf(budgets), axis=1)
    bounds = objective.values(np.where(np.isinf(budgets), 0.0, budgets))
    bounds[unbounded] = np.inf
    return bounds


def evA_exact(
    points: PointSet, domain: Domain, h: float, max_n: int = 8
) -> EvaAResult:
    """Exact evA for a point set inside a domain."""
    matrix = build_distance_matrix(points, domain)
    return evA_exact_from_matrix(matrix, h, points.thetas, max_n=max_n)


def evA_algorithm1_from_matrix(
    matrix: DistanceMatrix, h: float, weights: np.ndarray | None = None
) -> EvaAResult:
    """Greedy evA search that repeatedly discards collapsed points.

    Each round maximizes eva over the current point set with maximize_eva,
    so every visited subset is scored exactly as the exact search scores
    it (including the local ascent outside the convex regime).  If the
    value fails to improve on the best seen so far the search stops;
    otherwise all points with zero radius at the optimum are dropped (or,
    if none collapsed, the single point with the smallest radius).  The
    result never exceeds exact evA, since every visited subset is also a
    candidate of the exact search.
    """
    objective = EvaObjective(h, weights)
    active = list(range(matrix.n))
    best: EvaAResult | None = None
    notes: list[str] = []
    while active:
        reduced = reduce_distance_matrix(matrix.submatrix(active), h)
        res = maximize_eva(reduced, objective.subset(active))
        radii = res.radii
        if best is not None and res.value <= best.value:
            break
        best = EvaAResult(res.value, tuple(active), radii, "algorithm1")
        zero_tol = _ZERO_RADIUS_RTOL * max(1.0, float(np.max(reduced.entries)))
        collapsed = [i for i, ri in enumerate(radii) if ri <= zero_tol]
        if collapsed:
            removed = set(collapsed)
        else:
            min_r = float(np.min(radii))
            ties = [i for i, ri in enumerate(radii) if ri == min_r]
            if len(ties) > 1:
                notes.append(
                    f"minimum-radius tie among local indices {ties}; removed the "
                    "lowest-index point"
                )
            removed = {ties[0]}
        active = [p for i, p in enumerate(active) if i not in removed]
    assert best is not None
    best.notes = tuple(notes)
    return best


def evA_algorithm1(points: PointSet, domain: Domain, h: float) -> EvaAResult:
    """Greedy evA search for a point set inside a domain."""
    matrix = build_distance_matrix(points, domain)
    return evA_algorithm1_from_matrix(matrix, h, points.thetas)
