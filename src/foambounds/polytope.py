"""H-representation of the admissible-radii region and its vertex set.

The feasible radii for N points form the polytope

    P = { r >= 0 : r_i + r_j <= d_ij for i != j, r_i <= r_max }

described here by rows of a {-1, 0, +1} matrix M with M r <= b.  A
row's kind is its pattern (two +1 entries: pair row, one +1: cap row,
one -1: nonneg row), and HPolytope checks the shape once.  Two vertex
enumerators are provided: a combinatorial active-set scan (the
reference: every size-N row subset is solved and feasibility-filtered)
and a polar-dual route (in the budget frame below, shift by an interior
point, scale rows by slack, take the convex hull of the scaled rows and
the origin; each hull facet away from the origin maps back to a
vertex).  The dual route is the default beyond a hundred row subsets
and must agree with the reference to 1e-7.

The interior point needs no LP.  Every row is a pair, cap or nonneg row,
so x0_i = min over rows k with M[k, i] = +1 of b_k / (1 + p_k), with p_k
the number of +1 entries in row k, leaves every row with p_k > 0 a slack
of at least b_k / (1 + p_k) and -r_i <= 0 a slack of x0_i.

Budget frame.  With u_i the smallest b over the +1 rows of coordinate i,
0 <= r_i <= u_i on P, so each radius is measured against its own budget:
both routes accept row k when (M r)_k <= b_k plus FEASIBILITY_TOL times
the largest u over the row's coordinates plus ROUNDING_TOL max(b) (a
vertex solved from rows near max(b) carries that much rounding in every
coordinate, more than the first term of a row with a tiny budget),
r_i <= FEASIBILITY_TOL u_i (rounding below 0 included) is snapped to 0,
the dedup compares r_i / u_i, and the dual route takes its hull in
y = r / u.  A point near the domain boundary, or two points much closer
together than the domain size, make some u_i small while other budgets
stay near the domain size; in the budget frame neither is a special
case.

Maximal vertices.  An objective that strictly increases in every radius
(eva in its certified regime) peaks at a vertex that no other point of
P dominates coordinate-wise.  Those maximal vertices are exactly the
vertices of the downward closure

    D = P - R^N_+ = { r_i + r_j <= d_ij, r_i <= u_i },

u_i being the smallest b over the +1 rows of coordinate i.  Every row of
D is implied by P and has no negative entry, so D holds P - R^N_+;
conversely r in D lies below p = max(r, 0), which is in P (a pair row
with one negative end is covered by the u row of the other end).  A
vertex of D has no negative coordinate, since every row through one is
slack (its other end is at most u <= d) and the vertex could move both
ways along it; so it lies in P.  It is maximal there: p >= v in P puts v
midway between p and 2v - p, both in D.  A maximal vertex v of P is a
vertex of D: were it the midpoint of a != b in D, the midpoint of their
positive parts would be a point of P above v, hence v itself, which
forces a, b >= 0 and makes v a midpoint in P.  D holds no line, as a
line in it would leave some coordinate unbounded above against its u
row, so the same two enumerators apply; the dual route's hull
gains facets through the origin for D's unbounded faces, and the facet
cut in _dual_transform_vertices drops them.  D has the same u as P, so
the same budget frame.

Zero budgets.  A +1 row with b = 0 pins every coordinate in it to 0 at
every vertex, and such a region has no interior for the dual route.
enumerate_vertices drops the pinned columns from (M, b) and the rows
left with no entry (a pair row with one pinned end becomes a cap row of
the other end), enumerates the rest and puts the zeros back: the pinned
system and D are plain array slices on the same path as P.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import DegeneratePolytopeError, NumericalError, UnboundedInstanceError
from .geometry import ReducedDistanceMatrix

_log = logging.getLogger(__name__)

# Feasibility and dedup tolerances, relative to the budgets u_i (see the
# module docstring).  These match the conditioning of {-1, 0, 1}
# constraint matrices in doubles.
FEASIBILITY_TOL = 1e-9
DEDUP_TOL = 1e-7
# Rounding allowance on every row, relative to the largest budget.
ROUNDING_TOL = 4.0 * np.finfo(float).eps


def feasibility_tol_for(b_max: float) -> float:
    """Absolute feasibility tolerance for a system whose largest |b| is b_max:
    at least every per-row tolerance of enumerate_vertices."""
    return FEASIBILITY_TOL * max(1.0, float(b_max)) + ROUNDING_TOL * float(b_max)


# Row-subset count above which enumerate_vertices takes the dual-transform
# route instead of the combinatorial scan: the measured crossover, the two
# being even at C(9, 3) = 84 and the dual route faster from C(10, 4) = 210.
_AUTO_COMBINATORIAL_LIMIT = 100
_COMBINATORIAL_HARD_LIMIT = 20_000_000
_CHUNK = 65_536


@dataclass(eq=False)
class HPolytope:
    """Inequality system M r <= b, nothing but its arrays.

    Every row is a pair row r_i + r_j <= b_k, a cap row r_i <= b_k or a
    nonneg row -r_i <= 0, and every coordinate has a +1 row and a nonneg
    row: the shape that interior_point and enumerate_vertices rely on.
    """

    M: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.M = np.asarray(self.M, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.M.ndim != 2 or self.M.shape[0] != len(self.b):
            raise ValueError("M must be (m, n) with one b entry per row")
        if not np.all(np.isin(self.M, (-1.0, 0.0, 1.0))):
            raise ValueError("M entries must be in {-1, 0, +1}")
        plus = np.count_nonzero(self.M == 1.0, axis=1)
        minus = np.count_nonzero(self.M == -1.0, axis=1)
        bad = np.flatnonzero(np.where(minus, (minus > 1) | (plus > 0), (plus < 1) | (plus > 2)))
        if bad.size:
            raise ValueError(f"row {bad[0]} is not a pair, cap or nonneg row")
        if np.any(self.b < 0):
            raise ValueError("b must be nonnegative (0 must be feasible)")
        # Bounded iff every coordinate is capped above by some row.
        free = np.flatnonzero(~np.any(self.M == 1.0, axis=0)).tolist()
        if free:
            raise UnboundedInstanceError(
                f"no upper constraint on radii {free}; region is unbounded"
            )
        if not np.all(np.any(self.M == -1.0, axis=0)):
            raise ValueError("every coordinate needs a nonneg row")

    @property
    def n(self) -> int:
        return self.M.shape[1]

    @property
    def m(self) -> int:
        return self.M.shape[0]

    @property
    def row_tags(self) -> tuple:
        """Each row's kind read off M: ("pair", i, j) with i < j for
        r_i + r_j <= b, ("cap", i) for r_i <= b, ("nonneg", i) for -r_i <= 0."""
        tags = []
        for row in self.M:
            cols = np.flatnonzero(row).tolist()
            kind = "nonneg" if row[cols[0]] < 0 else ("cap", "pair")[len(cols) - 1]
            tags.append((kind, *cols))
        return tuple(tags)

    def contains(self, r, tol: float | None = None) -> bool:
        if tol is None:
            tol = feasibility_tol_for(np.max(np.abs(self.b)))
        return bool(np.all(self.M @ np.asarray(r, dtype=float) <= self.b + tol))

    def to_json(self) -> dict:
        return {
            "M": self.M.tolist(),
            "b": self.b.tolist(),
            "row_tags": [list(t) for t in self.row_tags],
        }


@dataclass(eq=False)
class VertexSet:
    """Extreme points of an HPolytope, lexicographically sorted."""

    vertices: np.ndarray

    def __post_init__(self):
        self.vertices = np.atleast_2d(np.asarray(self.vertices, dtype=float))

    def __len__(self) -> int:
        return len(self.vertices)

    def to_json(self) -> dict:
        return {"vertices": self.vertices.tolist(), "dedup_tol": DEDUP_TOL}


def build_h_polytope(reduced: ReducedDistanceMatrix) -> HPolytope:
    """Turn a reduced distance matrix into the radii inequality system.

    Rows, in order: r_i + r_j <= d_ij for i < j, then -r_i <= 0 for all i,
    then r_i <= r_max for all i when r_max is finite.  A single point
    yields the interval [0, d_11].
    """
    n = reduced.n
    if n == 1:
        d11 = float(reduced.entries[0, 0])
        return HPolytope(np.array([[1.0], [-1.0]]), np.array([d11, 0.0]))
    pairs = list(itertools.combinations(range(n), 2))
    iu, ju = np.array(pairs).T
    eye = np.eye(n)
    rows = [eye[iu] + eye[ju], np.diag(np.full(n, -1.0))]
    rhs = [reduced.entries[iu, ju], np.zeros(n)]
    if math.isfinite(reduced.r_max):
        rows.append(eye)
        rhs.append(np.full(n, reduced.r_max))
    return HPolytope(np.vstack(rows), np.concatenate(rhs))


def interior_point(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A strictly feasible point of M r <= b, in closed form.

    x0_i = min over rows k with M[k, i] = +1 of b_k / (1 + p_k), where p_k
    is the number of +1 entries in row k.  Every coordinate needs such a
    row and every row must be a pair, cap or nonneg row: HPolytope checks
    both, and the pinned system and D of enumerate_vertices keep them.
    So a row with p_k > 0 sums at most p_k shares of b_k / (1 + p_k)
    and keeps slack >= b_k / (1 + p_k), while -r_i <= 0 keeps slack x0_i.
    So x0 > 0 however small the budgets, unless one is 0: then the region
    is lower-dimensional and DegeneratePolytopeError is raised.
    """
    plus = M == 1.0
    share = b / (1.0 + np.count_nonzero(plus, axis=1))
    x0 = np.min(np.where(plus, share[:, None], np.inf), axis=0)
    if not float(np.min(x0)) > 0.0:
        raise DegeneratePolytopeError(
            "no strictly feasible point: the region is lower-dimensional"
        )
    return x0


def enumerate_vertices(poly: HPolytope, maximal: bool = False) -> VertexSet:
    """All extreme points of the polytope, deduplicated and lex-sorted.

    Args:
        poly: the inequality system; HPolytope has checked its shape.
        maximal: return only the maximal vertices, those no other point
            of the polytope dominates coordinate-wise: the vertices of
            the downward closure D = {r_i + r_j <= d_ij, r_i <= u_i}
            (see the module docstring), enumerated in place of the
            polytope itself, with C(m, n) counted on D's rows.  An
            objective that strictly increases in every radius attains
            its maximum over the polytope at one of them.

    One path over the arrays (M, b): the columns of coordinates pinned
    to 0 by a zero budget are dropped, and so are the rows left with no
    entry (see the module docstring); for maximal, D's rows replace the
    rest.  The combinatorial scan runs while n <= 1 or C(m, n) stays
    small, the dual transform beyond; if its hull computation fails, the
    scan takes over and the fallback is logged at debug level with its
    cause.  If every coordinate is pinned, the scan's one empty subset
    gives the origin.  The pinned zeros are put back, and every
    tolerance is measured in the budget frame.  Each call logs its
    route, maximal flag, pinned count, the n and m of the system
    enumerated, and the vertex count at debug level on foambounds.polytope.
    """
    # With r >= 0 on every coordinate, a +1 row with b = 0 pins each of
    # its coordinates: exactly those whose smallest +1 budget is 0.
    u = _smallest_budgets(poly.M, poly.b)
    pinned = u == 0.0
    M = poly.M[:, ~pinned]
    rows = np.any(M != 0.0, axis=1)
    M, b, u_free = M[rows], poly.b[rows], u[~pinned]
    if maximal:
        pairs = np.count_nonzero(M == 1.0, axis=1) == 2
        M = np.vstack([M[pairs], np.eye(len(u_free))])
        b = np.concatenate([b[pairs], u_free])
    m, n = M.shape
    # Row k's tolerance is measured against the largest budget of its
    # coordinates, plus the rounding allowance, so it never exceeds
    # feasibility_tol_for(max b).
    feas_tol = FEASIBILITY_TOL * np.max(np.where(M != 0.0, u_free, 0.0), axis=1, initial=0.0)
    feas_tol += ROUNDING_TOL * np.max(b, initial=0.0)
    route = "combinatorial"
    # Qhull needs two dimensions or more; the scan also covers n = 0.
    if n <= 1 or math.comb(m, n) <= _AUTO_COMBINATORIAL_LIMIT:
        free = _combinatorial_vertices(M, b, feas_tol)
    else:
        try:
            free = _dual_transform_vertices(M, b, feas_tol)
            route = "dual"
        except QhullError as exc:
            cause = (str(exc).strip().splitlines() or [""])[0]
            _log.debug(
                "dual route falls back to the combinatorial scan (n=%d, m=%d): %s: %s",
                n, m, type(exc).__name__, cause,
            )
            free = _combinatorial_vertices(M, b, feas_tol)
    if len(free) == 0:
        raise NumericalError("vertex enumeration produced no feasible points")
    verts = np.zeros((len(free), poly.n))
    verts[:, ~pinned] = free
    # Pinned coordinates are exact zeros; a unit frame leaves them so.
    # Every vertex of P and of D is nonnegative, so a rounding error below
    # zero is snapped too: D has no nonneg row to filter it out.
    frame = np.where(pinned, 1.0, u)
    verts[verts <= FEASIBILITY_TOL * frame] = 0.0
    out = VertexSet(_dedup_lex(verts, DEDUP_TOL, frame))
    _log.debug(
        "enumerate_vertices: route=%s maximal=%s pinned=%d n=%d m=%d vertices=%d",
        route, maximal, np.count_nonzero(pinned), n, m, len(out),
    )
    return out


def _smallest_budgets(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """u_i: the smallest b over the +1 rows of coordinate i."""
    return np.min(np.where(M == 1.0, b[:, None], np.inf), axis=0)


def _combinatorial_vertices(M: np.ndarray, b: np.ndarray, feas_tol: np.ndarray) -> np.ndarray:
    """Reference enumerator: solve every size-n active row subset of M r <= b.

    M has integer entries, so a subset is nonsingular exactly when its
    determinant is at least 1 in magnitude; the 0.5 threshold below is an
    exact rank test, not a tolerance.  feas_tol holds one tolerance per
    row.  With n = 0 the one empty subset gives the empty point.
    """
    m, n = M.shape
    total = math.comb(m, n)
    if total > _COMBINATORIAL_HARD_LIMIT:
        raise NumericalError(
            f"combinatorial enumeration would scan {total} row subsets; "
            "instance is too large for the reference method"
        )
    found = []
    combo_iter = itertools.combinations(range(m), n)
    while True:
        chunk = list(itertools.islice(combo_iter, _CHUNK))
        if not chunk:
            break
        idx = np.array(chunk, dtype=np.intp)
        sub_m = M[idx]
        sub_b = b[idx]
        keep = np.abs(np.linalg.det(sub_m)) > 0.5
        if not np.any(keep):
            continue
        sols = np.linalg.solve(sub_m[keep], sub_b[keep][..., None])[..., 0]
        feasible = np.all(sols @ M.T <= b + feas_tol, axis=1)
        if np.any(feasible):
            found.append(sols[feasible])
    if not found:
        return np.empty((0, n))
    return np.vstack(found)


def _dual_transform_vertices(M: np.ndarray, b: np.ndarray, feas_tol: np.ndarray) -> np.ndarray:
    """Polar-dual enumerator, for a polytope or a pointed region like D.

    Works in the budget frame y = r / u, where the region reads
    M diag(u) y <= b and every vertex, like the interior point y0 = x0 / u,
    lies in [0, 1]^n; in r itself a close point pair's tiny pair budget
    makes Qhull lose that row's small facets.  Shift by y0 so 0 is
    strictly inside, scale each row by its slack to get {y : A y <= 1},
    and take the convex hull of the rows of A and the origin.  Every
    hull facet {z : w.z = -d} with d > 0 maps to the vertex
    u (y0 + w / d); redundant rows land strictly inside the hull.
    Facets through the origin belong to unbounded faces of the region
    and are cut: a vertex lies within sqrt(n) of y0, so its facet has
    d >= 1 / sqrt(n), and only facets with d above half that are kept.
    For a polytope the origin is strictly inside the hull and changes no
    facet.  The origin goes first in the point list: for D Qhull then
    finishes in about two thirds of the time it takes with the origin
    last.  feas_tol holds one tolerance per row.
    """
    n = M.shape[1]
    u = _smallest_budgets(M, b)
    x0 = interior_point(M, b)
    slack = b - M @ x0
    hull = ConvexHull(np.vstack([np.zeros(n), M * u / slack[:, None]]))
    facets = hull.equations[hull.equations[:, -1] < -0.5 / math.sqrt(n)]
    verts = u * (x0 / u + facets[:, :-1] / (-facets[:, -1:]))
    feasible = np.all(verts @ M.T <= b + feas_tol, axis=1)
    return verts[feasible]


def _dedup_lex(verts: np.ndarray, dedup_tol: float, frame: np.ndarray) -> np.ndarray:
    """Lex-sort rows and drop near-duplicates, greedily in sorted order.

    A row is dropped iff, divided by the frame, it lies within dedup_tol
    (inf-norm, inclusive) of an earlier kept row of the sorted order; kept
    rows are returned unscaled.  An exact repeat of the row before it
    always shares that row's fate, so repeats are cut first.  One k-d
    tree query then lists every close pair of the distinct rows (i < j
    in sorted order); visiting the pairs by increasing j settles each
    row's fate before any later row asks about it, so only close pairs
    are ever looked at.  Needs dedup_tol >= 0 and frame > 0.
    """
    verts = verts[np.lexsort(verts.T[::-1])]
    scaled = verts / frame
    distinct = np.ones(len(verts), dtype=bool)
    distinct[1:] = np.any(scaled[1:] != scaled[:-1], axis=1)
    verts, scaled = verts[distinct], scaled[distinct]
    pairs = cKDTree(scaled).query_pairs(dedup_tol, p=np.inf, output_type="ndarray")
    pairs = pairs[np.argsort(pairs[:, 1])]
    keep = [True] * len(verts)
    for i, j in zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()):
        if keep[i]:
            keep[j] = False
    return verts[np.array(keep, dtype=bool)]
