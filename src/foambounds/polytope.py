"""H-representation of the admissible-radii region and its vertex set.

The feasible radii for N points form the polytope

    P = { r >= 0 : r_i + r_j <= d_ij for i != j, r_i <= r_max }

described here by rows of a {-1, 0, +1} matrix M with M r <= b.  A
row's kind is its pattern (two +1 entries: pair row, one +1: cap row,
one -1: nonneg row), and HPolytope checks the shape of outside arrays
(build_h_polytope's rows have it by construction).  Two vertex
enumerators are provided: a combinatorial active-set scan (the
reference: every size-N row subset is solved and feasibility-filtered)
and a polar-dual route (in the budget frame below, shift by an interior
point, scale rows by slack, take the convex hull of the scaled rows and
the origin; each hull facet away from the origin maps back to a
vertex).  Qhull builds that hull without pre-merging facets, where
most of its time went; the result is checked to be a closed complex
that supports every point, and a hull that fails the check or raises
is retaken with Qhull's merging defaults.  The dual route is the
default beyond a hundred row subsets and must agree with the reference
to 1e-7.

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

Exact feasibility.  Those tolerances only pick the vertices.  Each one
is then pulled inside: every row it breaks in floats scales that row's
coordinates by b / (M r), and by at least one ulp, until none fails.
Lowering a coordinate keeps every other row (only nonneg rows hold a -1
entry), so each vertex returned meets M r <= b with no tolerance.  For
r >= 0, D's rows imply P's and pinned coordinates are exact zeros, so
pulling in the system enumerated pulls in P.

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

import functools
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePolytopeError, NumericalError, UnboundedInstanceError
from .geometry import ReducedDistanceMatrix, _unchecked, pair_indices

_log = logging.getLogger(__name__)

# Feasibility and dedup tolerances, relative to the budgets u_i (see the
# module docstring).  These match the conditioning of {-1, 0, 1}
# constraint matrices in doubles.
FEASIBILITY_TOL = 1e-9
DEDUP_TOL = 1e-7
# Rounding allowance on every row, relative to the largest budget.
ROUNDING_TOL = 4.0 * np.finfo(float).eps


# Row-subset count above which enumerate_vertices takes the dual-transform
# route instead of the combinatorial scan: the measured crossover, the two
# being even at C(9, 3) = 84 and the dual route faster from C(10, 4) = 210.
_AUTO_COMBINATORIAL_LIMIT = 100
# Largest scan, solved as one batch: its (subsets, n, n) stack stays
# below 34 MB up to n = 8.  The route rule sends at most
# _AUTO_COMBINATORIAL_LIMIT subsets (one per row when n <= 1); larger
# scans come from the fallback after a failed hull, which raises
# NumericalError beyond this, and from test oracles (54,264 at most).
_COMBINATORIAL_HARD_LIMIT = 65_536


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

    def contains(self, r) -> bool:
        """M r <= b in floats, with no tolerance."""
        return bool(np.all(self.M @ np.asarray(r, dtype=float) <= self.b))

    def pull_inside(self, radii) -> np.ndarray:
        """A copy of radii (a vector or one per row), clamped at 0 and
        lowered until contained; a vector already inside is unchanged."""
        r = np.asarray(radii, dtype=float)
        return _pull_inside(self.M, self.b, np.atleast_2d(np.where(r > 0.0, r, 0.0))).reshape(r.shape)

    def to_json(self) -> dict:
        return {
            "M": self.M.tolist(),
            "b": self.b.tolist(),
            "row_tags": [list(t) for t in self.row_tags],
        }


def build_h_polytope(reduced: ReducedDistanceMatrix) -> HPolytope:
    """Turn a reduced distance matrix into the radii inequality system.

    Rows, in order: r_i + r_j <= d_ij for i < j, then -r_i <= 0 for all i,
    then r_i <= r_max for all i when r_max is finite.  A single point
    yields the interval [0, min(d_11, r_max)]: r_11 <= d_11 and the cap
    in one row (reduce_distance_matrix gives d_11 <= r_max, a matrix
    made by hand need not).  Every row has one of the three
    shapes, every coordinate has a pair or cap row (n >= 2 gives each a
    pair row) and a nonneg row, and the reduced entries are nonnegative,
    so the system passes HPolytope's checks without running them.
    """
    n = reduced.n
    if n == 1:
        top = min(float(reduced.entries[0, 0]), reduced.r_max)
        return _unchecked(HPolytope, M=np.array([[1.0], [-1.0]]), b=np.array([top, 0.0]))
    iu, ju = pair_indices(n)
    eye = np.eye(n)
    rows = [eye[iu] + eye[ju], np.diag(np.full(n, -1.0))]
    rhs = [reduced.entries[iu, ju], np.zeros(n)]
    if math.isfinite(reduced.r_max):
        rows.append(eye)
        rhs.append(np.full(n, reduced.r_max))
    return _unchecked(HPolytope, M=np.vstack(rows), b=np.concatenate(rhs))


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


def enumerate_vertices(poly: HPolytope, maximal: bool = False) -> np.ndarray:
    """All extreme points of the polytope, deduplicated and lex-sorted,
    as a (k, n) array of rows that meet M r <= b with no tolerance.

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
    gives the origin.  The vertices are pulled inside and the pinned
    zeros put back before the dedup.  Each call logs its route, maximal
    flag, pinned count, the n and m of the system enumerated, and the
    vertex count at debug level on foambounds.polytope.
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
    # coordinates, plus the rounding allowance.
    feas_tol = FEASIBILITY_TOL * np.max(np.where(M != 0.0, u_free, 0.0), axis=1, initial=0.0)
    feas_tol += ROUNDING_TOL * np.max(b, initial=0.0)
    route = "combinatorial"
    # Qhull needs two dimensions or more; the scan also covers n = 0.
    if n <= 1 or math.comb(m, n) <= _AUTO_COMBINATORIAL_LIMIT:
        free = _combinatorial_vertices(M, b, feas_tol)
    else:
        from scipy.spatial import QhullError

        try:
            free = _dual_transform_vertices(M, b, feas_tol)
            route = "dual"
        except QhullError as exc:
            _log.debug(
                "dual route falls back to the combinatorial scan (n=%d, m=%d): %s: %s",
                n, m, type(exc).__name__, _first_line(exc),
            )
            free = _combinatorial_vertices(M, b, feas_tol)
    if len(free) == 0:
        raise NumericalError("vertex enumeration produced no feasible points")
    # Every vertex of P and of D is nonnegative, so a rounding error below
    # zero is snapped too: D has no nonneg row to filter it out.
    free[free <= FEASIBILITY_TOL * u_free] = 0.0
    verts = np.zeros((len(free), poly.n))
    verts[:, ~pinned] = _pull_inside(M, b, free)
    # Pinned coordinates are exact zeros; a unit frame leaves them so.
    verts = _dedup_lex(verts, DEDUP_TOL, np.where(pinned, 1.0, u))
    _log.debug(
        "enumerate_vertices: route=%s maximal=%s pinned=%d n=%d m=%d vertices=%d",
        route, maximal, np.count_nonzero(pinned), n, m, len(verts),
    )
    return verts


def _pull_inside(M: np.ndarray, b: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Lower the rows of r (k, n), nonnegative, in place until r M^T <= b.

    Each coordinate of a failing row drops by the smallest ratio b / load
    over its failing rows, and by at least one ulp (module docstring).
    """
    load = r @ M.T
    over = load > b
    while over.any():
        v, k = np.divmod(np.flatnonzero(over), len(b))
        i, c = np.nonzero(M[k] == 1.0)
        v, k = v[i], k[i]
        x = r[v, c]
        np.minimum.at(r, (v, c), np.minimum(x * (b[k] / load[v, k]), np.nextafter(x, 0.0)))
        load = r @ M.T
        over = load > b
    return r


def _smallest_budgets(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """u_i: the smallest b over the +1 rows of coordinate i."""
    return np.min(np.where(M == 1.0, b[:, None], np.inf), axis=0)


def _combinatorial_vertices(M: np.ndarray, b: np.ndarray, feas_tol: np.ndarray) -> np.ndarray:
    """Reference enumerator: solve every size-n active row subset of M r <= b.

    M has integer entries, so a subset is nonsingular exactly when its
    determinant is at least 1 in magnitude; the 0.5 threshold below is an
    exact rank test, not a tolerance.  feas_tol holds one tolerance per
    row.  With n = 0 the one empty subset gives the empty point.  All
    C(m, n) subsets are solved as one batch, at most
    _COMBINATORIAL_HARD_LIMIT of them.
    """
    m, n = M.shape
    total = math.comb(m, n)
    if total > _COMBINATORIAL_HARD_LIMIT:
        raise NumericalError(
            f"combinatorial enumeration would scan {total} row subsets; "
            "instance is too large for the reference method"
        )
    idx = _row_subsets(m, n)
    sub_m = M[idx]
    keep = np.abs(np.linalg.det(sub_m)) > 0.5
    sols = np.linalg.solve(sub_m[keep], b[idx[keep], None])[..., 0]
    return sols[np.all(sols @ M.T <= b + feas_tol, axis=1)]


@functools.cache
def _row_subsets(m: int, n: int) -> np.ndarray:
    """The size-n subsets of m rows as a read-only (C(m, n), n) index array,
    in the order of itertools.combinations."""
    idx = np.array(list(itertools.combinations(range(m), n)), dtype=np.intp)
    idx = idx.reshape(math.comb(m, n), n)
    idx.flags.writeable = False
    return idx


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
    facet.  The hull is unmerged and checked, merged on failure
    (_convex_hull).  The origin goes first in the point list: Qhull then
    finishes in about half the time it takes with the origin last (on a
    2-vCPU VM, 0.93 against 1.89 s over three passes of the 722 hulls of
    the benchmark's seed 1 and 2 workloads, 0.10 against 0.21 s for D of
    Kelvin's 12 vertices).  feas_tol holds one tolerance per row.
    """
    n = M.shape[1]
    u = _smallest_budgets(M, b)
    x0 = interior_point(M, b)
    slack = b - M @ x0
    hull = _convex_hull(np.vstack([np.zeros(n), M * u / slack[:, None]]))
    facets = hull.equations[hull.equations[:, -1] < -0.5 / math.sqrt(n)]
    verts = u * (x0 / u + facets[:, :-1] / (-facets[:, -1:]))
    feasible = np.all(verts @ M.T <= b + feas_tol, axis=1)
    return verts[feasible]


def _convex_hull(points: np.ndarray):
    """Qhull's hull of points without facet pre-merging, checked; merged
    on failure.

    By default Qhull pre-merges coplanar and nearly coplanar facets
    (options Qx, C-0; Barber, Dobkin & Huhdanpaa, ACM TOMS 22(4), 1996).
    D's hull has n exactly coplanar faces {z_i = 0} through the origin,
    each holding every row that does not touch coordinate i, and merging
    them is most of Qhull's time; the vertices never need it, as each is
    feasibility-filtered, pulled inside and deduplicated afterwards.  So
    the hull is taken with Q0 (no pre-merging) and accepted only if no
    facet lacks a neighbour and every point lies on or beneath every
    facet, w.p + d <= tol for the unit normal w.  A closed complex whose
    facets all support the point set covers the boundary of its hull, so
    no facet, and no vertex of the region, is lost.

    tol = 8 n eps R, R the largest point norm: w.p + d sums n + 1 terms
    of total size at most |p| + |d| <= 2R (the facet passes through a
    point, so |d| <= R), so it rounds by about 2 n eps R, and the
    hyperplane Qhull solves from n points carries rounding of the same
    order; the factor 8 covers both.  The largest excess seen over the
    benchmark's hulls and 542 random systems was 0.19 n eps R.  If Qhull
    raises (a precision error such as QH6115, a concave ridge, which thin
    systems give) or the check fails, the hull is retaken with Qhull's
    defaults and the retry logged at debug level with its cause; a
    QhullError of the retry propagates.
    """
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(points, qhull_options="Q0")
    except QhullError as exc:
        cause = f"{type(exc).__name__}: {_first_line(exc)}"
    else:
        tol = 8.0 * points.shape[1] * np.finfo(float).eps * np.max(np.linalg.norm(points, axis=1))
        dist = points @ hull.equations[:, :-1].T
        dist += hull.equations[:, -1]
        excess = float(np.max(dist))
        if excess <= tol and np.all(hull.neighbors >= 0):
            return hull
        cause = (f"largest excess over a facet {excess:.3g} > tol {tol:.3g}" if excess > tol
                 else "a facet has a missing neighbour")
    _log.debug("unmerged hull retried with pre-merging (n=%d, points=%d): %s",
               points.shape[1], len(points), cause)
    return ConvexHull(points)


def _first_line(exc: Exception) -> str:
    return (str(exc).strip().splitlines() or [""])[0]


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
    from scipy.spatial import cKDTree

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
