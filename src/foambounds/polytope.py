"""H-representation of the admissible-radii region and its vertex set.

The feasible radii for N points form the polytope

    P = { r >= 0 : r_i + r_j <= d_ij for i != j, r_i <= r_max }

described here by rows of a {-1, 0, +1} matrix M with M r <= b.  Two
vertex enumerators are provided: a combinatorial active-set scan (the
reference: every size-N row subset is solved and feasibility-filtered)
and a polar-dual route (shift by an interior point, scale rows by slack,
take the convex hull of the scaled rows and the origin; each hull facet
away from the origin maps back to a vertex).  The dual route is the
default beyond a hundred row subsets and must agree with the reference
to 1e-7.

The interior point needs no LP.  Every row is a pair, cap or nonneg row,
so x0_i = min over rows k with M[k, i] = +1 of b_k / (1 + p_k), with p_k
the number of +1 entries in row k, leaves every row with p_k > 0 a slack
of at least b_k / (1 + p_k) and -r_i <= 0 a slack of x0_i.

Budget frame.  With u_i the smallest b over the +1 rows of coordinate i,
0 <= r_i <= u_i on P, so each radius is measured against its own budget:
both routes accept row k when (M r)_k <= b_k plus FEASIBILITY_TOL times
the largest u over the row's coordinates, |r_i| <= FEASIBILITY_TOL u_i
is snapped to 0, and the dedup compares r_i / u_i.  A point near the
domain boundary makes every u_i small, while pair rows elsewhere keep
budgets near the domain size; in the budget frame it is no special case.

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
enumerate_vertices enumerates the other coordinates instead (a pair row
with one pinned end becomes a cap row of the other end) and puts the
zeros back.
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


def feasibility_tol_for(b_max: float) -> float:
    """Absolute feasibility tolerance for a system whose largest |b| is b_max:
    at least every per-row tolerance of enumerate_vertices."""
    return FEASIBILITY_TOL * max(1.0, float(b_max))


# Row-subset count above which enumerate_vertices takes the dual-transform
# route instead of the combinatorial scan: the measured crossover, the two
# being even at C(9, 3) = 84 and the dual route faster from C(10, 4) = 210.
_AUTO_COMBINATORIAL_LIMIT = 100
_COMBINATORIAL_HARD_LIMIT = 20_000_000
_CHUNK = 65_536


# Per tag kind: how many +1 and -1 entries (in that order) its row holds.
_ROW_PATTERN = {"pair": (2, 0), "nonneg": (0, 1), "cap": (1, 0)}


@dataclass(eq=False)
class HPolytope:
    """Inequality system M r <= b with per-row provenance tags.

    Tags are tuples: ("pair", i, j) for r_i + r_j <= d_ij,
    ("nonneg", i) for -r_i <= 0, and ("cap", i) for r_i <= r_max.
    """

    M: np.ndarray
    b: np.ndarray
    row_tags: tuple

    def __post_init__(self):
        self.M = np.asarray(self.M, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.M.ndim != 2 or self.M.shape[0] != len(self.b):
            raise ValueError("M must be (m, n) with one b entry per row")
        if len(self.row_tags) != self.M.shape[0]:
            raise ValueError("need one tag per row")
        if not np.all(np.isin(self.M, (-1.0, 0.0, 1.0))):
            raise ValueError("M entries must be in {-1, 0, +1}")
        want = np.array(
            [_ROW_PATTERN.get(tag[0], (-1, -1)) for tag in self.row_tags], dtype=int
        ).reshape(-1, 2)
        have = np.sum(self.M[:, :, None] == np.array([1.0, -1.0]), axis=1)
        bad = np.flatnonzero(np.any(have != want, axis=1))
        if bad.size:
            raise ValueError(f"row pattern does not match tag {self.row_tags[bad[0]]}")
        if np.any(self.b < 0):
            raise ValueError("b must be nonnegative (0 must be feasible)")
        # Bounded iff every coordinate is capped above by some row.
        upper = np.any(self.M == 1.0, axis=0)
        if not np.all(upper):
            free = [i for i, u in enumerate(upper) if not u]
            raise UnboundedInstanceError(
                f"no upper constraint on radii {free}; region is unbounded"
            )

    @property
    def n(self) -> int:
        return self.M.shape[1]

    @property
    def m(self) -> int:
        return self.M.shape[0]

    def feasibility_tol(self) -> float:
        return feasibility_tol_for(np.max(np.abs(self.b)))

    def contains(self, r, tol: float | None = None) -> bool:
        if tol is None:
            tol = self.feasibility_tol()
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
    dedup_tol: float

    def __post_init__(self):
        self.vertices = np.atleast_2d(np.asarray(self.vertices, dtype=float))

    def __len__(self) -> int:
        return len(self.vertices)

    def to_json(self) -> dict:
        return {"vertices": self.vertices.tolist(), "dedup_tol": self.dedup_tol}


def build_h_polytope(reduced: ReducedDistanceMatrix) -> HPolytope:
    """Turn a reduced distance matrix into the radii inequality system.

    Rows, in order: r_i + r_j <= d_ij for i < j, then -r_i <= 0 for all i,
    then r_i <= r_max for all i when r_max is finite.  A single point
    yields the interval [0, d_11].
    """
    n = reduced.n
    if n == 1:
        d11 = float(reduced.entries[0, 0])
        return HPolytope(
            np.array([[1.0], [-1.0]]),
            np.array([d11, 0.0]),
            (("cap", 0), ("nonneg", 0)),
        )
    pairs = list(itertools.combinations(range(n), 2))
    iu, ju = np.array(pairs).T
    eye = np.eye(n)
    rows = [eye[iu] + eye[ju], np.diag(np.full(n, -1.0))]
    rhs = [reduced.entries[iu, ju], np.zeros(n)]
    tags = [("pair", i, j) for i, j in pairs]
    tags += [("nonneg", i) for i in range(n)]
    if math.isfinite(reduced.r_max):
        rows.append(eye)
        rhs.append(np.full(n, reduced.r_max))
        tags += [("cap", i) for i in range(n)]
    return HPolytope(np.vstack(rows), np.concatenate(rhs), tuple(tags))


def interior_point(poly: HPolytope) -> np.ndarray:
    """A strictly feasible point, in closed form.

    x0_i = min over rows k with M[k, i] = +1 of b_k / (1 + p_k), where p_k
    is the number of +1 entries in row k.  Every coordinate has such a row
    (HPolytope checks it) and every row is a pair, cap or nonneg row, so a
    row with p_k > 0 sums at most p_k shares of b_k / (1 + p_k) and keeps
    slack >= b_k / (1 + p_k), while -r_i <= 0 keeps slack x0_i.  So x0 > 0
    however small the budgets, unless one is 0: then the region is
    lower-dimensional and DegeneratePolytopeError is raised.
    """
    plus = poly.M == 1.0
    share = poly.b / (1.0 + np.count_nonzero(plus, axis=1))
    x0 = np.min(np.where(plus, share[:, None], np.inf), axis=0)
    if not float(np.min(x0)) > 0.0:
        raise DegeneratePolytopeError(
            "no strictly feasible point: the region is lower-dimensional"
        )
    return x0


def enumerate_vertices(
    poly: HPolytope, tol: float = DEDUP_TOL, maximal: bool = False
) -> VertexSet:
    """All extreme points of the polytope, deduplicated and lex-sorted.

    Args:
        poly: bounded, feasible inequality system with a nonneg row on
            every coordinate (ValueError otherwise).
        tol: dedup tolerance, relative to each radius's budget u_i (see
            the module docstring).
        maximal: return only the maximal vertices, those no other point
            of the polytope dominates coordinate-wise: the vertices of
            the downward closure D = {r_i + r_j <= d_ij, r_i <= u_i}
            (see the module docstring), enumerated in place of the
            polytope itself, with C(m, n) counted on D's rows.  An
            objective that strictly increases in every radius attains
            its maximum over the polytope at one of them.

    The combinatorial scan runs while C(m, n) stays small, the dual
    transform beyond; if its hull computation fails, the scan takes over
    and the fallback is logged at debug level with its cause.  Every
    tolerance is measured in the budget frame.  Coordinates pinned to 0
    by a zero budget are set aside before the route is chosen (see the
    module docstring); if every coordinate is pinned, the origin is the
    only vertex.  Each call logs its route, maximal flag, pinned count,
    the n and m of the system enumerated, and the vertex count at debug
    level on foambounds.polytope.
    """
    if not tol >= 0.0:
        raise ValueError(f"dedup tolerance must be >= 0, got {tol!r}")
    if not np.all(np.any(poly.M == -1.0, axis=0)):
        raise ValueError("vertex enumeration needs a nonneg row on every coordinate")

    # With r >= 0 on every coordinate, a +1 row with b = 0 pins each of
    # its coordinates: exactly those whose smallest +1 budget is 0.
    budgets = _smallest_budgets(poly)
    pinned = budgets == 0.0
    n_pinned = int(np.count_nonzero(pinned))
    system = _without_pinned(poly, pinned) if n_pinned else poly

    if system is None:
        route, free = "pinned", np.zeros((1, 0))
    elif system.n == 1:
        route = "interval"
        top = float(budgets[~pinned][0])
        free = np.array([[top]]) if maximal else np.array([[0.0], [top]])
    else:
        if maximal:
            system = _downward_closure(system, budgets[~pinned])
        # Row k's tolerance is measured against the largest budget of its
        # coordinates, so it never exceeds feasibility_tol_for(max b).
        row_budget = np.where(system.M != 0.0, budgets[~pinned], 0.0)
        feas_tol = FEASIBILITY_TOL * np.max(row_budget, axis=1)
        if math.comb(system.m, system.n) <= _AUTO_COMBINATORIAL_LIMIT:
            route = "combinatorial"
            free = _combinatorial_vertices(system, feas_tol)
        else:
            route = "dual"
            try:
                free = _dual_transform_vertices(system, feas_tol)
            except QhullError as exc:
                cause = (str(exc).strip().splitlines() or [""])[0]
                _log.debug(
                    "dual route falls back to the combinatorial scan (n=%d, m=%d): %s: %s",
                    system.n, system.m, type(exc).__name__, cause,
                )
                route = "combinatorial"
                free = _combinatorial_vertices(system, feas_tol)
        if len(free) == 0:
            raise NumericalError("vertex enumeration produced no feasible points")
    verts = free
    if n_pinned:
        verts = np.zeros((len(free), poly.n))
        verts[:, ~pinned] = free
    # Pinned coordinates are exact zeros; a unit frame leaves them so.
    frame = np.where(pinned, 1.0, budgets)
    verts[np.abs(verts) <= FEASIBILITY_TOL * frame] = 0.0
    out = VertexSet(_dedup_lex(verts, tol, frame), tol)
    _log.debug(
        "enumerate_vertices: route=%s maximal=%s pinned=%d n=%d m=%d vertices=%d",
        route, maximal, n_pinned,
        0 if system is None else system.n, 0 if system is None else system.m, len(out),
    )
    return out


def _without_pinned(poly: HPolytope, pinned: np.ndarray) -> HPolytope | None:
    """The system over the unpinned coordinates, or None if none is left.

    Rows lose their pinned entries: a pair row with one pinned end
    becomes a cap row of the other end, and rows left with no entry (the
    pinned coordinates' own rows, pair rows with both ends pinned) go.
    """
    free = np.flatnonzero(~pinned)
    if free.size == 0:
        return None
    sub = poly.M[:, free]
    keep = np.any(sub != 0.0, axis=1)
    tags = []
    for row in np.flatnonzero(keep).tolist():
        coords = np.flatnonzero(sub[row]).tolist()
        kind = poly.row_tags[row][0]
        if kind == "pair" and len(coords) == 1:
            kind = "cap"
        tags.append((kind, *coords))
    return _checked_already(sub[keep], poly.b[keep], tuple(tags))


def _downward_closure(poly: HPolytope, u: np.ndarray) -> HPolytope:
    """D = {pair rows of poly, r_i <= u_i}: see the module docstring."""
    pairs = np.flatnonzero(np.count_nonzero(poly.M == 1.0, axis=1) == 2)
    tags = tuple(poly.row_tags[k] for k in pairs.tolist())
    tags += tuple(("cap", i) for i in range(poly.n))
    return _checked_already(
        np.vstack([poly.M[pairs], np.eye(poly.n)]), np.concatenate([poly.b[pairs], u]), tags
    )


def _smallest_budgets(poly: HPolytope) -> np.ndarray:
    """u_i: the smallest b over the +1 rows of coordinate i."""
    return np.min(np.where(poly.M == 1.0, poly.b[:, None], np.inf), axis=0)


def _checked_already(M: np.ndarray, b: np.ndarray, row_tags: tuple) -> HPolytope:
    """An HPolytope built from rows of one that passed HPolytope's checks.

    Dropping pinned coordinates and taking the downward closure keep
    every row a valid pair, cap or nonneg row with b >= 0 and every
    coordinate bounded above, so the checks would only cost time.
    """
    poly = object.__new__(HPolytope)
    poly.M, poly.b, poly.row_tags = M, b, row_tags
    return poly


def _combinatorial_vertices(poly: HPolytope, feas_tol: np.ndarray) -> np.ndarray:
    """Reference enumerator: solve every size-n active row subset.

    M has integer entries, so a subset is nonsingular exactly when its
    determinant is at least 1 in magnitude; the 0.5 threshold below is an
    exact rank test, not a tolerance.
    """
    m, n = poly.m, poly.n
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
        idx = np.array(chunk)
        sub_m = poly.M[idx]
        sub_b = poly.b[idx]
        keep = np.abs(np.linalg.det(sub_m)) > 0.5
        if not np.any(keep):
            continue
        sols = np.linalg.solve(sub_m[keep], sub_b[keep][..., None])[..., 0]
        feasible = np.all(sols @ poly.M.T <= poly.b + feas_tol, axis=1)
        if np.any(feasible):
            found.append(sols[feasible])
    if not found:
        return np.empty((0, n))
    return np.vstack(found)


def _dual_transform_vertices(poly: HPolytope, feas_tol: np.ndarray) -> np.ndarray:
    """Polar-dual enumerator, for a polytope or a pointed region like D.

    Shift the region by an interior point x0 so 0 is strictly inside,
    scale each row by its slack to get {y : A y <= 1}, and take the
    convex hull of the rows of A and the origin.  Every hull facet
    {z : u.z <= -d} with d > 0 maps to the vertex x0 + u / (-d); rows of
    redundant constraints land strictly inside the hull and drop out
    automatically.  Facets through the origin belong to unbounded faces
    of the region and are cut: a vertex lies within sqrt(n) max(b) of x0
    (both sit in [0, max(b)]^n), so its facet has d >= 1 / (sqrt(n) max(b)),
    and only facets with d above half that are kept.  For a polytope the
    origin is strictly inside the hull, so it changes no facet and the
    cut keeps every one.  The origin goes first in the point list: for D
    Qhull then finishes in about two thirds of the time it takes with
    the origin last.  feas_tol holds one tolerance per row.
    """
    x0 = interior_point(poly)
    slack = poly.b - poly.M @ x0
    dual_points = np.vstack([np.zeros(poly.n), poly.M / slack[:, None]])
    hull = ConvexHull(dual_points)
    cut = -0.5 / (math.sqrt(poly.n) * float(np.max(poly.b)))
    facets = hull.equations[hull.equations[:, -1] < cut]
    verts = x0[None, :] + facets[:, :-1] / (-facets[:, -1:])
    feasible = np.all(verts @ poly.M.T <= poly.b + feas_tol, axis=1)
    return verts[feasible]


def _dedup_lex(verts: np.ndarray, dedup_tol: float, frame: np.ndarray) -> np.ndarray:
    """Lex-sort rows and drop near-duplicates, greedily in sorted order.

    A row is dropped iff, divided by the frame, it lies within dedup_tol
    (inf-norm, inclusive) of an earlier kept row of the sorted order; kept
    rows are returned unscaled.  An exact repeat of the row before it
    always shares that row's fate, so repeats are cut first.  A
    nearest-other-row query then screens out the rows with no other row
    within dedup_tol: they are in no close pair, and usually that is
    every row.  One k-d tree query lists every close pair of the rows
    left (i < j in sorted order); visiting the pairs by increasing j
    settles each row's fate before any later row asks about it, so only
    close pairs are ever looked at.  Needs dedup_tol >= 0 and frame > 0.
    """
    verts = verts[np.lexsort(verts.T[::-1])]
    scaled = verts / frame
    distinct = np.ones(len(verts), dtype=bool)
    distinct[1:] = np.any(scaled[1:] != scaled[:-1], axis=1)
    verts, scaled = verts[distinct], scaled[distinct]
    # Rows are distinct, so each row's nearest hit is itself and the second
    # is its nearest other row (inf when none lies within the bound, which
    # cKDTree treats as strict, hence the nextafter).
    nearest, _ = cKDTree(scaled).query(
        scaled, k=2, p=np.inf, distance_upper_bound=np.nextafter(dedup_tol, np.inf)
    )
    close = np.flatnonzero(nearest[:, 1] <= dedup_tol)
    if close.size == 0:
        return verts
    pairs = cKDTree(scaled[close]).query_pairs(dedup_tol, p=np.inf, output_type="ndarray")
    pairs = close[pairs[np.argsort(pairs[:, 1])]]
    keep = [True] * len(verts)
    for i, j in zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()):
        if keep[i]:
            keep[j] = False
    return verts[np.array(keep, dtype=bool)]
