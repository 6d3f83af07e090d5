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
from dataclasses import dataclass

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

# Bisection steps for the two-point stationary point.  The bracket is
# shorter than 1 in units of 1/h, so it ends below 6e-20; the objective is
# stationary at the root, so its value there is exact to rounding.
_PAIR_BISECT_STEPS = 64

# Relative margin by which a bound on a face of a 3-point polytope must
# beat the best value found for the face search to go on (see
# _segment_max); below _PRUNE_RTOL, so the subset search cannot tell a
# triangle's value from its maximum.
_FACE_RTOL = 1e-13

# Cells per refined cell in the face search.
_FACE_SPLIT = 16


def _disc_area(theta, h: float, r):
    """pi theta exp(-2 h r) r^2, elementwise: the one copy of the formula."""
    return math.pi * theta * np.exp(-2.0 * h * r) * r * r


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
        if not self.h >= 0:
            raise ValueError("curvature bound h must be >= 0")
        if self.weights is not None:
            w = np.atleast_1d(np.asarray(self.weights, dtype=float))
            if not np.all(w > 0):
                raise ValueError("weights must be positive")
            self.weights = w

    def thetas(self, n: int) -> np.ndarray:
        if self.weights is None:
            return np.full(n, THETA_VERTEX)
        if len(self.weights) != n:
            raise ValueError(f"objective has {len(self.weights)} weights, needs {n}")
        return self.weights

    def terms(self, radii) -> np.ndarray:
        """Per-point disc bounds of a radii array; the last axis indexes points."""
        r = np.asarray(radii, dtype=float)
        return _disc_area(self.thetas(r.shape[-1]), self.h, r)

    def values(self, radii) -> np.ndarray:
        """Objective of each row of a radii array; the last axis indexes points.

        The single-vector value, the vertex scan and the subset upper
        bounds all use it (or terms, its summands).
        """
        return np.sum(self.terms(radii), axis=-1)

    def value(self, radii) -> float:
        r = np.atleast_1d(np.asarray(radii, dtype=float))
        if not np.all(r >= 0):
            raise ValueError("radii must be nonnegative")
        return float(self.values(r))

    def gradient(self, radii) -> np.ndarray:
        r = np.atleast_1d(np.asarray(radii, dtype=float))
        theta = self.thetas(r.shape[-1])
        return math.pi * theta * np.exp(-2.0 * self.h * r) * (2.0 * r - 2.0 * self.h * r * r)

    def subset(self, indices) -> "EvaObjective":
        if self.weights is None:
            return EvaObjective(self.h)
        return EvaObjective(self.h, self.weights[list(indices)])


@dataclass(eq=False)
class EvaResult:
    """Outcome of maximizing eva over one radii polytope."""

    value: float
    radii: np.ndarray
    # Index of the best vertex in the scanned list (the maximal vertices
    # when the convex regime is certified, every vertex otherwise), or
    # None when another solve (the two- or three-point solve or the local
    # ascent) beat every vertex.
    attaining_vertex: int | None
    # True when value is a proven maximum: the convex regime or a single
    # point (see convexity_certified), or two or three points (exact pair
    # solve; face search, to a relative 1e-13).  False means only a local
    # ascent ran, so value is attained but may fall short of the maximum.
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
    h = 0, or every off-diagonal budget is at most (2 - sqrt(2))/h.  For
    two points the threshold is sharp and holds for every pair of
    weights: along r_1 + r_2 = d the slope has the sign of
    log theta_1 psi(x) - log theta_2 psi(hd - x), x = h r_1, whose
    derivative does not involve the weights and stays >= 0 exactly when
    hd <= 2 - sqrt(2) (see _pair_max), so no point inside the segment
    is a local maximum.  A single point needs no convexity: its region
    is the interval [0, d_11], and f(r) = r^2 e^(-2hr) increases on
    [0, 1/h], so the interval end is the maximum whenever d_11 <= 1/h
    (which reduce_distance_matrix guarantees by capping every entry at
    r_max).

    maximize_eva's flag of the same name means "proven maximum": these
    cases, plus every two- or three-point polytope, which it solves
    exactly.
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
    polytope vertex is the exact maximum, and only the maximal vertices
    are scanned (enumerate_vertices with maximal=True): every theta_i > 0
    and r^2 exp(-2hr) strictly increases on [0, 1/h], so a vertex that
    another feasible point dominates coordinate-wise neither attains nor
    ties the maximum, and the lexicographically first best vertex is the
    same in both lists.  Outside that regime every vertex is scanned.  Two
    points are then solved exactly by _pair_max and three by the face
    search of _triple_max, each replacing the vertex only when strictly
    better, and the result is certified.  For four or more points the
    vertex scan is augmented with deterministic multi-start local ascent,
    seeded from the vertices, and the better of the two is returned.
    Either way the value is attained by feasible radii, hence a valid
    area bound.
    """
    if objective is None:
        objective = EvaObjective(reduced.h)
    if objective.h != reduced.h:
        raise ValueError(
            f"objective h={objective.h} disagrees with reduced matrix h={reduced.h}"
        )
    certified = convexity_certified(reduced)
    poly = build_h_polytope(reduced)
    verts = enumerate_vertices(poly, maximal=certified)
    values = objective.values(verts.vertices)
    best = int(np.argmax(values))  # first max in lex order: smallest radii win ties
    best_value = float(values[best])
    best_radii = verts.vertices[best].copy()
    attaining: int | None = best
    if reduced.n == 2 and not certified:
        budget = reduced.entries[0, 1]
        cap = min(budget, reduced.r_max)  # a periodic cap can be the smaller
        value, r_1, r_2 = _pair_max(*objective.thetas(2), reduced.h, budget, cap, cap)
        if value[0] > best_value:
            best_value, best_radii, attaining = value[0], np.array([r_1[0], r_2[0]]), None
        certified = True
    elif reduced.n == 3 and not certified:
        value, radii = _triple_max(poly, reduced, objective, best_value)
        if value > best_value:
            best_value, best_radii, attaining = value, radii, None
        certified = True
    elif not certified:
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


def _pair_max(theta_i, theta_j, h: float, budget, cap_i, cap_j):
    """Exact maximum of pi theta_i f(r_i) + pi theta_j f(r_j), elementwise.

    f(r) = r^2 exp(-2 h r), over r_i + r_j <= budget, 0 <= r_i <= cap_i
    and 0 <= r_j <= cap_j, where cap_i, cap_j <= budget <= 1/h (any
    budget when h = 0).  The array arguments broadcast together; returns
    (value, r_i, r_j) as 1-d arrays of the broadcast size.

    f increases on [0, 1/h], so when cap_i + cap_j <= budget the corner
    (cap_i, cap_j) is the maximum; otherwise the maximum lies on the
    segment r_i + r_j = budget, r_i in [budget - cap_j, cap_i].  At h = 0
    f is convex and only the segment ends count.  For h > 0 put
    x = h r_i, rho = h budget <= 1 and psi(z) = z (1 - z) e^(-2z), so
    f'(r) = 2 psi(h r) / h and the slope along the segment has the sign
    of H(x) = log theta_i psi(x) - log theta_j psi(rho - x).  Its
    derivative H' = L(x) + L(rho - x), with L = (log psi)' =
    1/z - 1/(1 - z) - 2, does not involve the weights.  H' is symmetric
    about rho/2, convex (H''' = L''(x) + L''(rho - x) >= 0 when
    rho <= 1) and +inf at both ends, so H falls only on [x1, rho - x1]
    between the roots of H', and the segment has at most one interior
    local maximum: the root of H there.  That stretch is empty, i.e.
    H'(rho/2) >= 0, exactly when rho <= 2 - sqrt(2) = CONVEXITY_COEFF.
    The candidates are the two segment ends and that root (clipped into
    the segment); the largest wins, the lower end first on ties.
    """
    theta_i, theta_j, budget, cap_i, cap_j = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(a, dtype=float))
          for a in (theta_i, theta_j, budget, cap_i, cap_j))
    )
    lo = np.maximum(budget - cap_j, 0.0)
    hi = np.minimum(cap_i, budget)
    candidates = [lo, hi]
    if h > 0.0:
        rho = np.minimum(h * budget, 1.0)
        curved = rho > CONVEXITY_COEFF
        x = np.zeros_like(rho)
        x[curved] = _pair_stationary(
            np.log(theta_i[curved] / theta_j[curved]), rho[curved]
        )
        candidates.append(np.where(curved, np.clip(x / h, lo, hi), lo))
    r_i = np.stack(candidates)
    r_j = np.clip(budget - r_i, 0.0, cap_j)
    k = np.argmax(_disc_area(theta_i, h, r_i) + _disc_area(theta_j, h, r_j), axis=0)
    r_i = np.take_along_axis(r_i, k[None], axis=0)[0]
    r_j = np.take_along_axis(r_j, k[None], axis=0)[0]
    corner = cap_i + cap_j <= budget
    r_i = np.where(corner, cap_i, r_i)
    r_j = np.where(corner, cap_j, r_j)
    return _disc_area(theta_i, h, r_i) + _disc_area(theta_j, h, r_j), r_i, r_j


def _pair_stationary(log_ratio: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Root of H on [x1, rho - x1] (see _pair_max), for 2 - sqrt(2) < rho <= 1.

    log_ratio is log(theta_i / theta_j).  Where H keeps one sign on that
    stretch the result is one of its ends, still a feasible candidate.
    With q = x (rho - x), H' = rho/q - (2 - rho)/(1 - rho + q) - 4, so
    x1 follows from the positive root of
    4 q^2 + 6 (1 - rho) q - rho (1 - rho) = 0.  At rho = 1 (a budget of
    exactly 1/h) psi(x)/psi(1 - x) = e^(2 - 4x), with a removable 0/0 at
    the segment ends, so there H = log_ratio + 2 - 4x, root written out.
    """
    x = 0.5 + 0.25 * log_ratio
    inner = rho < 1.0
    if np.any(inner):
        c, p = log_ratio[inner], rho[inner]
        gap = 1.0 - p
        q = 2.0 * p * gap / (6.0 * gap + np.sqrt(36.0 * gap * gap + 16.0 * p * gap))
        lo = 2.0 * q / (p + np.sqrt(np.maximum(p * p - 4.0 * q, 0.0)))
        step = p - 2.0 * lo
        # H falls on [lo, lo + step]: bisect, moving lo up while H > 0.
        offset = c + 2.0 * p
        for _ in range(_PAIR_BISECT_STEPS):
            step *= 0.5
            mid = lo + step
            rising = np.log(mid * (1.0 - mid) / ((p - mid) * (gap + mid))) > 4.0 * mid - offset
            np.add(lo, step, out=lo, where=rising)
        x[inner] = lo + 0.5 * step
    return x


def _triple_max(
    poly: HPolytope, reduced: ReducedDistanceMatrix, objective: EvaObjective, best: float
) -> tuple[float, np.ndarray | None]:
    """Best radii of a 3-point polytope off its vertices, by the face lemma.

    Face lemma.  f(r) = r^2 e^(-2hr) strictly increases on [0, 1/h] and
    r_max <= 1/h.  At a maximum every radius is at r_max or in a tight
    pair row: otherwise every row through it is slack, and raising it a
    little stays feasible and, as theta_i > 0, raises the sum.  So the
    maximum lies among
      (a) the vertices, which maximize_eva has scanned; best is their
          best value;
      (b) pair segments: one tight pair row {i, j} and the third radius
          k at r_max.  Putting k at u_k = min(r_max, R_ik, R_jk) instead
          keeps every candidate feasible (the case is empty when
          u_k < r_max).  The pair is solved exactly by _pair_max at
          budget R_ij with caps min(u_i, R_ik - u_k) and
          min(u_j, R_jk - u_k), all pairs in one call.  A pair is
          skipped when its corner, both radii at their caps, is feasible
          (it is then a vertex and the pair's maximum) or cannot beat best;
      (c) stars: the two pair rows through a centre c tight, r_c = x,
          r_a = R_ca - x and r_b = R_cb - x, feasible for x in [lo, hi]
          with lo = max(0, R_ca - r_max, R_cb - r_max,
          (R_ca + R_cb - R_ab)/2) and hi = min(r_max, R_ca, R_cb); all
          three rows tight is the lo end.  _segment_max searches them.
    u_i is the smallest budget of radius i.  A candidate counts only if
    M r <= b holds with no tolerance; rounding can put one an ulp
    outside a row, so a failing candidate is shrunk by 16 eps once (a
    relative loss below 4e-15) and dropped if it still fails.

    Returns the value and radii of the best feasible candidate, or
    (-inf, None) when there is none: no face point beats best by more
    than _FACE_RTOL, relative.
    """
    h, r_max, R = reduced.h, reduced.r_max, reduced.entries
    theta = objective.thetas(3)
    u = np.minimum(np.min(np.where(np.eye(3, dtype=bool), np.inf, R), axis=1), r_max)
    eye = np.eye(3)
    # One rotation per point c: the pair segment {a, b} with c at u_c,
    # and the star with centre c.
    c, a, b = np.array([0, 1, 2]), np.array([1, 0, 0]), np.array([2, 2, 1])
    found = []
    cap_a = np.minimum(u[a], R[a, c] - u[c])
    cap_b = np.minimum(u[b], R[b, c] - u[c])
    corner = eye[a] * cap_a[:, None] + eye[b] * cap_b[:, None] + eye[c] * u[c, None]
    live = (cap_a + cap_b > R[a, b]) & (objective.values(corner) > best * (1.0 + _FACE_RTOL))
    if np.any(live):
        a_, b_, c_ = a[live], b[live], c[live]
        _, r_a, r_b = _pair_max(theta[a_], theta[b_], h, R[a_, b_], cap_a[live], cap_b[live])
        found.extend(eye[a_] * r_a[:, None] + eye[b_] * r_b[:, None] + eye[c_] * u[c_, None])
    lo = np.maximum.reduce([
        np.zeros(3), R[c, a] - r_max, R[c, b] - r_max, 0.5 * (R[c, a] + R[c, b] - R[a, b])
    ])
    hi = np.minimum.reduce([np.full(3, r_max), R[c, a], R[c, b]])
    star = lo <= hi
    off = eye[a] * R[c, a, None] + eye[b] * R[c, b, None]
    point = _segment_max(
        objective, off[star], (eye[c] - eye[a] - eye[b])[star], lo[star], hi[star], best
    )
    if point is not None:
        found.append(point)
    value, radii = -math.inf, None
    for r in found:
        if not poly.contains(r, tol=0.0):
            r = r * (1.0 - 16.0 * np.finfo(float).eps)
        if not poly.contains(r, tol=0.0):
            continue
        v = objective.value(r)
        if v > value:
            value, radii = v, r
    return value, radii


def _segment_max(
    objective: EvaObjective,
    off: np.ndarray,
    direction: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    best: float,
) -> np.ndarray | None:
    """Best point of eva on the segments off + x direction, x in [lo, hi].

    Returns the radii of the best point found that beats best, or None;
    either way no point of any segment beats the larger of best and its
    value by more than _FACE_RTOL, relative.  Every radius stays in
    [0, 1/h] on a segment and direction has entries in {-1, 0, 1}, so
    g(x) = eva(off + x direction) has |g''| <= K = 2 pi sum(theta): on
    [0, 1/h], |f''(r)| = |2 - 8hr + 4h^2 r^2| e^(-2hr) <= 2.  Each step
    drops what cannot beat the best value so far by more than the
    margin:
      - the ends: g(lo + t) <= g(lo) + g'(lo) t + K t^2 / 2 <= g(lo) for
        0 <= t <= -2 g'(lo) / K, so where g'(lo) < 0 that stretch is cut,
        and likewise at hi.  An end is a vertex, so it beats best by
        more than the margin only if the vertex scan lost it, and then
        it is the best point;
      - cells, after Shubert (1972): on a cell of width w,
        g <= max(g at its ends) + K w^2 / 8.  A cell whose bound beats
        the best value is split into _FACE_SPLIT cells and the new
        points are evaluated, until no cell is left or a cell holds no
        float strictly between its ends.
    """
    if len(lo) == 0:
        return None
    K = 2.0 * math.pi * float(np.sum(objective.thetas(3)))
    ends = off + np.stack([lo, hi])[..., None] * direction
    g_ends = objective.values(ends)
    point = None
    m = int(np.argmax(g_ends))
    if g_ends.flat[m] > best * (1.0 + _FACE_RTOL):
        best, point = float(g_ends.flat[m]), ends.reshape(-1, 3)[m]
    slope = np.sum(objective.gradient(ends) * direction, axis=-1)
    xl = lo - 2.0 * np.minimum(slope[0], 0.0) / K
    xr = hi - 2.0 * np.maximum(slope[1], 0.0) / K
    seg = np.flatnonzero(xl < xr)
    xl, xr = xl[seg], xr[seg]
    gl, gr = objective.values(off[seg] + np.stack([xl, xr])[..., None] * direction[seg])
    t = np.arange(1, _FACE_SPLIT) / _FACE_SPLIT
    while len(seg):
        w = xr - xl
        split = (np.maximum(gl, gr) + 0.125 * K * w * w > best * (1.0 + _FACE_RTOL)) & (
            xr > np.nextafter(xl, np.inf)
        )
        if not np.any(split):
            break
        seg, xl, xr, gl, gr, w = seg[split], xl[split], xr[split], gl[split], gr[split], w[split]
        x = xl[:, None] + w[:, None] * t
        rows = np.repeat(seg, _FACE_SPLIT - 1)
        r = off[rows] + x.reshape(-1, 1) * direction[rows]
        g = objective.values(r)
        m = int(np.argmax(g))
        if g[m] > best:
            best, point = float(g[m]), r[m]
        xs = np.column_stack([xl, x, xr])
        gs = np.column_stack([gl, g.reshape(x.shape), gr])
        xl, xr, gl, gr = xs[:, :-1].ravel(), xs[:, 1:].ravel(), gs[:, :-1].ravel(), gs[:, 1:].ravel()
        seg = np.repeat(seg, _FACE_SPLIT)
    return point


def _multistart_ascent(
    poly: HPolytope, objective: EvaObjective, vertices: np.ndarray
) -> tuple[float, np.ndarray]:
    """Deterministic multi-start local ascent inside the polytope."""
    x0 = interior_point(poly.M, poly.b)
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
    r_i <= u_i(S) = min over members j != i of R_ij, and the radius cap
    r_max = min(1/h, the domain's radius cap) as well; a singleton's
    budget is min(boundary distance, r_max).  R is the reduced matrix of
    the full set, reduced once: a reduced entry depends only on its own
    pair of points, so it equals the entry of the subset's polytope.
    f(r) = r^2 exp(-2 h r) increases on [0, 1/h], so
    UB(S) = sum_i pi theta_i f(u_i(S)) bounds eva(S), also when the local
    ascent runs outside the convex regime.  For |S| >= 2 the bound is
    tightened by keeping one pair row: relaxing S to r_i + r_j <= R_ij
    plus the per-point budgets gives, for every pair {i, j} in S,
    UB(S) - s_i - s_j + E_ij(S), where s_i = pi theta_i f(u_i(S)) and
    E_ij(S) is the exact two-point maximum (_pair_max) with budget R_ij
    and caps u_i(S), u_j(S); the smallest over the pairs is used.
    Subsets are solved in order of decreasing bound, and the search stops
    at the first subset whose bound is below the best value found by
    more than a 1e-12 relative rounding margin; all later subsets have
    smaller bounds.  The bounds allow for the vertex enumerator's
    feasibility tolerance, so radii that meet the constraints only to
    within it stay under them (see _subset_upper_bounds).

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
    """UB(S) tightened by the best pair row (see evA_exact_from_matrix).

    +inf for a subset holding a point with an infinite budget (no
    boundary and h = 0); solving that singleton raises the unbounded
    instance error, as the full scan would.  Only singletons can have an
    infinite budget, so the pair terms never meet one.
    """
    n = matrix.n
    h, r_max = reduced.h, reduced.r_max
    members = np.zeros((len(subsets), n), dtype=bool)
    for k, subset in enumerate(subsets):
        members[k, list(subset)] = True
    pair = np.where(np.eye(n, dtype=bool), np.inf, reduced.entries)
    budgets = np.min(np.where(members[:, None, :], pair[None], np.inf), axis=2)
    single = np.minimum(matrix.boundary_distances, r_max)
    budgets = np.where(members.sum(axis=1)[:, None] == 1, single, budgets)
    # A radius cap below 1/h (periodic domains) bounds every radius too.
    budgets = np.minimum(budgets, r_max)
    # A vertex meets r_i + r_j <= R_ij and r_j >= 0 only to within the
    # enumerator's per-row feasibility tolerance, so r_i can exceed u_i by
    # twice that.  Each row's tolerance is FEASIBILITY_TOL times a budget
    # of the subset polytope plus ROUNDING_TOL times its largest budget,
    # hence at most t = feasibility_tol_for(its largest right-hand side),
    # which is among these values; widening by
    # 2t keeps the bound sound.  f increases up to 1/h, not just up to a
    # smaller radius cap, so the widened radii are clipped at 1/h.
    rhs = np.concatenate([reduced.entries.ravel(), single, [r_max]])
    widen = 2.0 * feasibility_tol_for(np.max(rhs[np.isfinite(rhs)]))
    unbounded = np.any(members & np.isinf(budgets), axis=1)
    top = math.inf if h == 0.0 else 1.0 / h
    wide = np.where(members & ~unbounded[:, None], np.minimum(budgets + widen, top), 0.0)
    terms = objective.terms(wide)
    bounds = terms.sum(axis=1)

    # Pair rows: one entry per (subset, pair inside it), |S| >= 2 only.
    iu, ju = np.triu_indices(n, 1)
    k, p = np.nonzero(members[:, iu] & members[:, ju])
    i, j = iu[p], ju[p]
    theta = objective.thetas(n)
    budget = reduced.entries[i, j]
    pair_max, _, _ = _pair_max(
        theta[i], theta[j], h, budget, budgets[k, i], budgets[k, j]
    )
    # Widened radii lie within 2 * widen (1-norm) of the exact pair
    # region, inside [-widen, budget + widen], where
    # |f'(r)| <= 2 |r| (1 + h |r|) e^(2 h max(0, -r)); that Lipschitz
    # slack keeps the pair term an upper bound without pushing its budget
    # past 1/h, where _pair_max does not apply.
    reach = budget + widen
    slope = 2.0 * reach * (1.0 + h * reach) * math.exp(2.0 * h * widen)
    pair_max = pair_max + 2.0 * widen * math.pi * np.maximum(theta[i], theta[j]) * slope
    gain = np.zeros(len(subsets))
    np.minimum.at(gain, k, pair_max - terms[k, i] - terms[k, j])
    bounds = bounds + gain
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
