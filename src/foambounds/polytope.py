"""H-representation of the admissible-radii region and its vertex set.

The feasible radii for N points form the polytope

    { r >= 0 : r_i + r_j <= d_ij for i != j, r_i <= r_max }

described here by rows of a {-1, 0, +1} matrix M with M r <= b.  Two
vertex enumerators are provided: a combinatorial active-set scan (the
reference: every size-N row subset is solved and feasibility-filtered)
and a polar-dual route (shift by an interior point, scale rows by slack,
take the convex hull of the scaled rows; each hull facet maps back to a
vertex).  The dual route is the default for larger instances and must
agree with the reference to 1e-7.

The interior point needs no LP.  Every row is a pair, cap or nonneg row,
so x0_i = min over rows k with M[k, i] = +1 of b_k / (1 + p_k), with p_k
the number of +1 entries in row k, leaves every row with p_k > 0 a slack
of at least b_k / (1 + p_k) and -r_i <= 0 a slack of x0_i.
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

# Feasibility tolerance, absolute on b scaled to unit max (i.e. multiply by
# ||b||_inf for the raw scale); dedup tolerance, relative to ||b||_inf.
# These match the conditioning of {-1, 0, 1} constraint matrices in doubles.
FEASIBILITY_TOL = 1e-9
DEDUP_TOL = 1e-7


def feasibility_tol_for(b_max: float) -> float:
    """Absolute feasibility tolerance for a system whose largest |b| is b_max."""
    return FEASIBILITY_TOL * max(1.0, float(b_max))

# Row-subset count above which the combinatorial scan hands over to the
# dual-transform route (or refuses, if used as a forced fallback).
_AUTO_COMBINATORIAL_LIMIT = 20_000
_COMBINATORIAL_HARD_LIMIT = 20_000_000
_CHUNK = 65_536

# Minimum inradius (relative to ||b||_inf) for the dual transform to be
# trusted; thinner regions blow up the slack-scaled dual points beyond
# what the hull computation resolves, so they take the exact route.
_DUAL_MIN_INRADIUS = 1e-6


# Per tag kind: how many +1 and -1 entries (in that order) its row holds.
_ROW_PATTERN = {"pair": (2, 0), "nonneg": (0, 1), "cap": (1, 0)}


class _DualUntrusted(Exception):
    """Internal: the dual transform would be numerically unreliable."""


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
    slack >= b_k / (1 + p_k), while -r_i <= 0 keeps slack x0_i.  Raises
    DegeneratePolytopeError when min(x0) is (numerically) zero, i.e. some
    budget is zero and the region is lower-dimensional.
    """
    plus = poly.M == 1.0
    share = poly.b / (1.0 + np.count_nonzero(plus, axis=1))
    x0 = np.min(np.where(plus, share[:, None], np.inf), axis=0)
    if not float(np.min(x0)) > 1e-11 * max(1.0, float(np.max(np.abs(poly.b)))):
        raise DegeneratePolytopeError(
            "no strictly feasible point: the region is lower-dimensional"
        )
    return x0


def enumerate_vertices(
    poly: HPolytope, tol: float = DEDUP_TOL, method: str = "auto"
) -> VertexSet:
    """All extreme points of the polytope, deduplicated and lex-sorted.

    Args:
        poly: bounded, feasible inequality system.
        tol: dedup tolerance, relative to ||b||_inf.
        method: "auto", "combinatorial", or "dual".  Auto uses the
            combinatorial scan while C(m, n) stays small and the dual
            transform beyond, falling back to combinatorial if the hull
            computation fails; each fallback is logged at debug level
            with its cause.
    """
    if method not in ("auto", "combinatorial", "dual"):
        raise ValueError(f"unknown method {method!r}")
    if not tol >= 0.0:
        raise ValueError(f"dedup tolerance must be >= 0, got {tol!r}")
    b_scale = max(1.0, float(np.max(np.abs(poly.b))))
    feas_tol = feasibility_tol_for(b_scale)
    dedup = tol * b_scale

    if poly.n == 1:
        verts = np.array([[0.0], [float(np.min(poly.b[poly.M[:, 0] == 1.0]))]])
        return VertexSet(_dedup_lex(verts, dedup), tol)

    if method == "auto":
        method = (
            "combinatorial"
            if math.comb(poly.m, poly.n) <= _AUTO_COMBINATORIAL_LIMIT
            else "dual"
        )
    if method == "dual":
        try:
            verts = _dual_transform_vertices(poly, feas_tol)
            if len(verts) == 0:
                raise _DualUntrusted("dual transform kept no feasible point")
        except (QhullError, DegeneratePolytopeError, _DualUntrusted) as exc:
            cause = (str(exc).strip().splitlines() or [""])[0]
            _log.debug(
                "dual route falls back to the combinatorial scan (n=%d, m=%d): %s: %s",
                poly.n, poly.m, type(exc).__name__, cause,
            )
            verts = _combinatorial_vertices(poly, feas_tol)
    else:
        verts = _combinatorial_vertices(poly, feas_tol)
    if len(verts) == 0:
        raise NumericalError("vertex enumeration produced no feasible points")
    verts[np.abs(verts) <= feas_tol] = 0.0
    return VertexSet(_dedup_lex(verts, dedup), tol)


def _combinatorial_vertices(poly: HPolytope, feas_tol: float) -> np.ndarray:
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


def _dual_transform_vertices(poly: HPolytope, feas_tol: float) -> np.ndarray:
    """Polar-dual enumerator.

    Shift the region by an interior point x0 so 0 is strictly inside,
    scale each row by its slack to get {y : D y <= 1}, and take the
    convex hull of the rows of D.  Every hull facet {z : u.z <= -d} maps
    to the vertex x0 + u / (-d); rows of redundant constraints land
    strictly inside the hull and drop out automatically.
    """
    x0 = interior_point(poly)
    slack = poly.b - poly.M @ x0
    if float(np.min(slack)) < _DUAL_MIN_INRADIUS * max(1.0, float(np.max(np.abs(poly.b)))):
        raise _DualUntrusted("region is too thin for the slack scaling")
    dual_points = poly.M / slack[:, None]
    hull = ConvexHull(dual_points)
    normals = hull.equations[:, :-1]
    offsets = hull.equations[:, -1]
    # 0 is strictly interior to the hull, so every facet offset is < 0.
    verts = x0[None, :] + normals / (-offsets[:, None])
    feasible = np.all(verts @ poly.M.T <= poly.b + feas_tol, axis=1)
    return verts[feasible]


def _dedup_lex(verts: np.ndarray, dedup_tol: float) -> np.ndarray:
    """Lex-sort rows and drop near-duplicates, greedily in sorted order.

    A row is dropped iff it lies within dedup_tol (inf-norm, inclusive) of
    an earlier row of the sorted order that was itself kept.  An exact
    repeat of the row before it always shares that row's fate, so repeats
    are cut first.  A nearest-other-row query then screens out the rows
    with no other row within dedup_tol: they are in no close pair, and
    usually that is every row.  One k-d tree query lists every close pair
    of the rows left (i < j in sorted order); visiting the pairs by
    increasing j settles each row's fate before any later row asks about
    it, so only close pairs are ever looked at.  Needs dedup_tol >= 0.
    """
    verts = verts[np.lexsort(verts.T[::-1])]
    distinct = np.ones(len(verts), dtype=bool)
    distinct[1:] = np.any(verts[1:] != verts[:-1], axis=1)
    verts = verts[distinct]
    # Rows are distinct, so each row's nearest hit is itself and the second
    # is its nearest other row (inf when none lies within the bound, which
    # cKDTree treats as strict, hence the nextafter).
    nearest, _ = cKDTree(verts).query(
        verts, k=2, p=np.inf, distance_upper_bound=np.nextafter(dedup_tol, np.inf)
    )
    close = np.flatnonzero(nearest[:, 1] <= dedup_tol)
    if close.size == 0:
        return verts
    pairs = cKDTree(verts[close]).query_pairs(dedup_tol, p=np.inf, output_type="ndarray")
    pairs = close[pairs[np.argsort(pairs[:, 1])]]
    keep = [True] * len(verts)
    for i, j in zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()):
        if keep[i]:
            keep[j] = False
    return verts[np.array(keep, dtype=bool)]
