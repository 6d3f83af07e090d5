"""Points, domains, and the distance matrices behind the radius constraints.

The central objects are a labeled point set, a domain of 3-space with a
distance-to-boundary oracle, the (N+1) x (N+1) distance matrix whose last
row/column holds boundary distances, and its N x N reduction where every
entry is clipped by both boundary distances and the curvature cap 1/h.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainMembershipError, UnboundedInstanceError

# Tetrahedral angle arccos(-1/3), the angle between edges at a foam vertex.
ARCCOS_THIRD = math.acos(-1.0 / 3.0)

# Local density of a foam around the three kinds of points. THETA_V_PI is
# theta_vertex * pi = 3 * arccos(-1/3), kept as a single product to avoid a
# needless divide-multiply round trip.
THETA_V_PI = 3.0 * ARCCOS_THIRD
THETA_VERTEX = THETA_V_PI / math.pi
THETA_EDGE = 1.5
THETA_FACE = 1.0

# Relative tolerance for "is this point inside the domain" checks, applied
# to the domain's characteristic scale so file round-trips of boundary
# points survive.
MEMBERSHIP_RTOL = 1e-12

# build_distance_matrix rejects point sets whose minimum pairwise distance
# is at most this fraction of their diameter, both in the domain's metric.
COINCIDENCE_RTOL = 1e-9


class DensityClass(enum.Enum):
    """Which stratum of a foam a point sits on: vertex, edge, or face."""

    VERTEX = "vertex"
    EDGE = "edge"
    FACE = "face"

    @property
    def theta(self) -> float:
        """Area density of the foam at this kind of point."""
        return _THETA_BY_CLASS[self]


_THETA_BY_CLASS = {
    DensityClass.VERTEX: THETA_VERTEX,
    DensityClass.EDGE: THETA_EDGE,
    DensityClass.FACE: THETA_FACE,
}


def _unchecked(cls, **fields):
    """An instance of the dataclass cls holding fields as given, without
    running its __post_init__ checks.

    Only for results built from arrays that have passed those checks
    already; each builder that uses it says why its result would pass
    them, and the tests hold every such result to the public constructor.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@functools.cache
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), read-only: the pairs i < j of n points in
    row order, built once per n (numpy's takes about 25 us a call)."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def require_curvature(h) -> float:
    """h as a float; raises ValueError unless it is finite and >= 0."""
    h = float(h)
    if not 0.0 <= h < math.inf:
        raise ValueError("curvature bound h must be finite and >= 0")
    return h


def as_points(p) -> np.ndarray:
    """Coerce to a finite float array of 3D points, shape (..., 3)."""
    a = np.asarray(p, dtype=float)
    if a.ndim == 0 or a.shape[-1] != 3:
        raise ValueError(f"expected 3D points, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"point has non-finite coordinates: {a}")
    return a


def as_point(p) -> np.ndarray:
    """Coerce to a finite float (3,) array."""
    a = as_points(p)
    if a.ndim != 1:
        raise ValueError(f"expected a 3D point, got shape {a.shape}")
    return a


def _length(d: np.ndarray) -> np.ndarray:
    """Euclidean length over the last axis, rounded like a 1-D np.linalg.norm.

    np.linalg.norm(d, axis=-1) sums in another order and can differ in the last bit.
    """
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


def _answer(x):
    """A Python scalar for a single point, else the per-point array."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


class Domain:
    """A region of 3-space with membership and boundary-distance oracles.

    Every oracle takes one point or an (..., 3) array and answers per
    point by broadcasting (a Python scalar for one point).  Subclasses
    implement the five supported variants: ball, axis-aligned box,
    half-space intersection, periodic box, and all of space.  The defaults
    are all of space's: no boundary (distance +inf), Euclidean distance,
    no radius cap.
    """

    kind = "abstract"

    @property
    def radius_cap(self) -> float:
        """Largest ball radius the domain admits around any point (+inf: none)."""
        return math.inf

    @property
    def scale(self) -> float:
        """Characteristic length used for membership tolerances."""
        raise NotImplementedError

    def contains(self, p):
        """Whether each point lies in the domain (within the tolerance)."""
        return _answer(self._contains(as_points(p)))

    def _contains(self, a: np.ndarray) -> np.ndarray:
        """contains of an (..., 3) array of finite points."""
        return np.ones(a.shape[:-1], dtype=bool)

    def boundary_distance(self, p):
        """Distance from each member point to the domain boundary."""
        return _answer(self._boundary_distance(self.require_member(p)))

    def _boundary_distance(self, a: np.ndarray) -> np.ndarray:
        """boundary_distance of an (..., 3) array of checked members."""
        return np.full(a.shape[:-1], math.inf)

    def distance(self, p, q):
        """Distance between member points, pair by pair after broadcasting."""
        return _answer(_length(self._delta(self.require_member(p), self.require_member(q))))

    def _delta(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Displacement between points whose length is their distance."""
        return a - b

    def scaled(self, factor: float) -> "Domain":
        """The domain dilated about the origin by ``factor`` > 0."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def require_member(self, p) -> np.ndarray:
        """The points as an (..., 3) array; raises naming the first outsider."""
        a = as_points(p)
        outside = ~self._contains(a)
        if np.any(outside):
            raise DomainMembershipError(
                f"point {a[outside][0].tolist()} is outside the {self.kind} domain"
            )
        return a

    def _tol(self) -> float:
        return MEMBERSHIP_RTOL * self.scale


@dataclass(eq=False)
class Ball(Domain):
    center: np.ndarray
    radius: float

    kind = "ball"

    def __post_init__(self):
        self.center = as_point(self.center)
        self.radius = float(self.radius)
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")

    @property
    def scale(self) -> float:
        return self.radius

    def _contains(self, a: np.ndarray) -> np.ndarray:
        return _length(a - self.center) <= self.radius + self._tol()

    def _boundary_distance(self, a: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, self.radius - _length(a - self.center))

    def scaled(self, factor: float) -> "Ball":
        return Ball(self.center * factor, self.radius * factor)

    def to_json(self) -> dict:
        return {"type": "ball", "center": self.center.tolist(), "radius": self.radius}


@dataclass(eq=False)
class Box(Domain):
    min_corner: np.ndarray
    max_corner: np.ndarray

    kind = "box"

    def __post_init__(self):
        self.min_corner = as_point(self.min_corner)
        self.max_corner = as_point(self.max_corner)
        if not np.all(self.min_corner < self.max_corner):
            raise ValueError("box min corner must be strictly below max corner")

    @property
    def scale(self) -> float:
        return float(np.max(self.max_corner - self.min_corner))

    def _contains(self, a: np.ndarray) -> np.ndarray:
        tol = self._tol()
        inside = (a >= self.min_corner - tol) & (a <= self.max_corner + tol)
        return np.all(inside, axis=-1)

    def _boundary_distance(self, a: np.ndarray) -> np.ndarray:
        gaps = np.concatenate([a - self.min_corner, self.max_corner - a], axis=-1)
        return np.maximum(0.0, np.min(gaps, axis=-1))

    def scaled(self, factor: float) -> "Box":
        return Box(self.min_corner * factor, self.max_corner * factor)

    def to_json(self) -> dict:
        return {
            "type": "box",
            "min": self.min_corner.tolist(),
            "max": self.max_corner.tolist(),
        }


@dataclass(eq=False)
class HalfspaceIntersection(Domain):
    """Intersection of half-spaces {x : n.x <= c} with unit normals n."""

    normals: np.ndarray
    offsets: np.ndarray

    kind = "halfspaces"

    def __post_init__(self):
        self.normals = np.atleast_2d(np.asarray(self.normals, dtype=float))
        self.offsets = np.atleast_1d(np.asarray(self.offsets, dtype=float))
        if self.normals.shape[1] != 3 or len(self.normals) != len(self.offsets):
            raise ValueError("need one 3D normal per offset")
        if len(self.normals) == 0:
            raise ValueError("need at least one half-space")
        norms = np.linalg.norm(self.normals, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("half-space normals must be unit length")
        self.normals = self.normals / norms[:, None]

    @property
    def scale(self) -> float:
        return max(1.0, float(np.max(np.abs(self.offsets))))

    def _heights(self, a: np.ndarray) -> np.ndarray:
        """n.x for every normal, last axis; rounds like normals @ x for one x."""
        return (self.normals @ a[..., None])[..., 0]

    def _contains(self, a: np.ndarray) -> np.ndarray:
        return np.all(self._heights(a) <= self.offsets + self._tol(), axis=-1)

    def _boundary_distance(self, a: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, np.min(self.offsets - self._heights(a), axis=-1))

    def scaled(self, factor: float) -> "HalfspaceIntersection":
        return HalfspaceIntersection(self.normals.copy(), self.offsets * factor)

    def to_json(self) -> dict:
        return {
            "type": "halfspaces",
            "halfspaces": [
                {"normal": n.tolist(), "offset": float(c)}
                for n, c in zip(self.normals, self.offsets)
            ],
        }


@dataclass(eq=False)
class PeriodicBox(Domain):
    """Flat torus: a box with opposite faces identified.  No boundary.

    Coordinates may be any finite reals; distances use the minimum image
    convention.  A ball wider than half the shortest period overlaps its
    own image, so radii are capped there (radius_cap) instead of at a
    boundary.
    """

    lengths: np.ndarray

    kind = "periodic"

    def __post_init__(self):
        self.lengths = as_point(self.lengths)
        if not np.all(self.lengths > 0):
            raise ValueError("periodic box edge lengths must be positive")

    @property
    def scale(self) -> float:
        return float(np.max(self.lengths))

    @property
    def radius_cap(self) -> float:
        return float(np.min(self.lengths)) / 2.0

    def _delta(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Minimum-image displacement."""
        delta = np.abs(a - b) % self.lengths
        return np.minimum(delta, self.lengths - delta)

    def scaled(self, factor: float) -> "PeriodicBox":
        return PeriodicBox(self.lengths * factor)

    def to_json(self) -> dict:
        return {"type": "periodic", "lengths": self.lengths.tolist()}


@dataclass(eq=False)
class AllSpace(Domain):
    """All of 3-space.  No boundary; boundary distance is +inf."""

    kind = "all"

    @property
    def scale(self) -> float:
        return 1.0

    def scaled(self, factor: float) -> "AllSpace":
        return AllSpace()

    def to_json(self) -> dict:
        return {"type": "all"}


@dataclass(eq=False)
class PointSet:
    """Ordered candidate foam vertices, with one density class per point.

    Coincident points are rejected by build_distance_matrix, which
    measures them in the domain's metric (on a torus two coordinates a
    period apart are one point).
    """

    points: np.ndarray
    classes: list[DensityClass] = field(default_factory=list)
    labels: list[str] | None = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
            raise ValueError("points must be a nonempty (N, 3) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must have finite coordinates")
        self.points = pts
        if not self.classes:
            self.classes = [DensityClass.VERTEX] * len(pts)
        if len(self.classes) != len(pts):
            raise ValueError("need one density class per point")
        if self.labels is not None and len(self.labels) != len(pts):
            raise ValueError("need one label per point when labels are given")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def thetas(self) -> np.ndarray:
        """Per-point density weights."""
        return np.array([c.theta for c in self.classes])

    def scaled(self, factor: float) -> "PointSet":
        return PointSet(self.points * factor, list(self.classes), self.labels)


@dataclass(eq=False)
class DistanceMatrix:
    """(N+1) x (N+1) symmetric matrix of distances.

    The leading N x N block holds pairwise point distances; the last
    row/column holds each point's distance to the domain boundary (+inf
    for boundaryless domains) and entry (N+1, N+1) is zero.  radius_cap
    bounds every radius (the domain's radius_cap; +inf for none).
    """

    entries: np.ndarray
    radius_cap: float = math.inf

    def __post_init__(self):
        self.radius_cap = float(self.radius_cap)
        if not self.radius_cap > 0:
            raise ValueError(f"radius cap must be positive, got {self.radius_cap}")
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] < 2:
            raise ValueError("distance matrix must be square with N >= 1 points")
        if np.any(np.isnan(e)):
            raise ValueError("distance matrix entries must not be NaN")
        if not np.array_equal(e, e.T):
            raise ValueError("distance matrix must be exactly symmetric")
        n = e.shape[0] - 1
        if np.any(np.diag(e)[:n] != 0.0) or e[n, n] != 0.0:
            raise ValueError("distance matrix diagonal must be zero")
        if np.any(e < 0):
            raise ValueError("distances must be nonnegative")
        self.entries = e

    @property
    def n(self) -> int:
        """Number of points (matrix order minus the boundary slot)."""
        return self.entries.shape[0] - 1

    @property
    def boundary_distances(self) -> np.ndarray:
        return self.entries[: self.n, self.n]

    def submatrix(self, indices) -> "DistanceMatrix":
        """Matrix for a subset of points, keeping the boundary row/column.

        A principal submatrix of a checked matrix passes every check of
        the constructor, so only the subset itself is checked.
        """
        idx = list(indices)
        if not idx:
            raise ValueError("a submatrix needs at least one point")
        idx.append(self.n)
        return _unchecked(
            DistanceMatrix, entries=self.entries[np.ix_(idx, idx)], radius_cap=self.radius_cap
        )


@dataclass(eq=False)
class ReducedDistanceMatrix:
    """N x N matrix of per-pair radius budgets.

    Off-diagonal entry (i, j) is the smallest of: the distance between
    points i and j, either point's boundary distance, and 1/h.  Every
    radius is capped at r_max = min(1/h, radius_cap).  For a single point
    the lone entry is min(boundary distance, r_max).  All entries must be
    finite.
    """

    entries: np.ndarray
    h: float
    radius_cap: float = math.inf

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] < 1:
            raise ValueError("reduced matrix must be square, N >= 1")
        if not np.array_equal(e, e.T):
            raise ValueError("reduced matrix must be exactly symmetric")
        if not np.all(e >= 0):
            raise ValueError("reduced entries must be nonnegative")
        if not np.all(np.isfinite(e)):
            raise UnboundedInstanceError(
                "reduced matrix has infinite entries; the area bound is +inf"
            )
        self.h = require_curvature(self.h)
        self.radius_cap = float(self.radius_cap)
        if not self.radius_cap > 0:
            raise ValueError(f"radius cap must be positive, got {self.radius_cap}")
        self.entries = e

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def r_max(self) -> float:
        """Radius cap min(1/h, radius_cap); +inf when h = 0 and the domain
        sets no cap (a true infinity, not a sentinel)."""
        return min(math.inf if self.h == 0.0 else 1.0 / self.h, self.radius_cap)


def build_distance_matrix(point_set: PointSet, domain: Domain) -> DistanceMatrix:
    """Assemble the (N+1) x (N+1) distance matrix for a point set.

    Membership in the domain is checked once, and the points must be
    pairwise distinct in the domain's metric: a minimum pairwise distance
    at most COINCIDENCE_RTOL times the largest one names the pair and
    raises ValueError (coincident points force zero radii and degenerate
    polytopes downstream).  The result is exactly symmetric: swapping two
    points only flips the signs of their displacement, which leaves its
    rounded length alone.  Its diagonal is zero, its entries are lengths
    or boundary distances (nonnegative, no NaN for finite members) and the
    domain's radius cap is positive, so it passes DistanceMatrix's checks.
    """
    pts = domain.require_member(point_set.points)
    n = len(pts)
    entries = np.zeros((n + 1, n + 1))
    pair = entries[:n, :n]
    pair[...] = _length(domain._delta(pts[:, None], pts[None]))
    # The first minimum in row order has i < j; one point has none (+inf).
    i, j = divmod(int(np.argmin(np.where(np.eye(n, dtype=bool), np.inf, pair))), n)
    diameter = float(np.max(pair))
    if i != j and pair[i, j] <= COINCIDENCE_RTOL * diameter:
        raise ValueError(
            f"points {i} and {j} coincide in the {domain.kind} domain: distance "
            f"{pair[i, j]:g} is at most {COINCIDENCE_RTOL:g} of the diameter {diameter:g}"
        )
    entries[:n, n] = entries[n, :n] = domain._boundary_distance(pts)
    return _unchecked(DistanceMatrix, entries=entries, radius_cap=float(domain.radius_cap))


def reduce_distance_matrix(matrix: DistanceMatrix, h: float) -> ReducedDistanceMatrix:
    """Clip the distance matrix into per-pair radius budgets.

    Args:
        matrix: full distance matrix including the boundary row/column.
        h: curvature bound, finite and >= 0.  h = 0 means no curvature
            cap 1/h.

    Pair entries are clipped at 1/h only: clipping them at the matrix's
    radius_cap too would be sound but weaker, and the cap rows of the
    radii polytope (ReducedDistanceMatrix.r_max) already enforce it.  A
    single point's entry is min(boundary distance, 1/h, radius_cap).
    The minima of a symmetric nonnegative matrix are symmetric and
    nonnegative, so only finiteness is left to check.

    Raises:
        UnboundedInstanceError: if some budget comes out infinite (no
            boundary or radius cap anywhere and h = 0 for a single
            point), which means the extrinsic vertex area is +inf.
    """
    h = require_curvature(h)
    r_max = math.inf if h == 0.0 else 1.0 / h
    n = matrix.n
    bd = matrix.boundary_distances
    if n == 1:
        e = min(bd[0], r_max, matrix.radius_cap)
        if not math.isfinite(e):
            raise UnboundedInstanceError(
                "single point with no boundary and h = 0: eva is +inf"
            )
        reduced = np.array([[e]])
    else:
        pair = matrix.entries[:n, :n]
        caps = np.minimum(bd[:, None], bd[None, :])
        reduced = np.minimum(np.minimum(pair, caps), r_max)
        np.fill_diagonal(reduced, 0.0)
        if not np.all(np.isfinite(reduced)):
            raise UnboundedInstanceError(
                "reduced matrix has infinite entries; the area bound is +inf"
            )
    return _unchecked(
        ReducedDistanceMatrix, entries=reduced, h=h, radius_cap=matrix.radius_cap
    )


# ---------------------------------------------------------------------------
# JSON instance interface


@dataclass(eq=False)
class Instance:
    """A problem instance: points, their domain, and the curvature bound.

    Construction checks h (finite, >= 0) and builds the distance matrix,
    which checks that every point lies in the domain and that no two
    coincide; the matrix is kept for the instance's users.
    """

    point_set: PointSet
    domain: Domain
    h: float = 0.0
    matrix: DistanceMatrix = field(init=False, repr=False)

    def __post_init__(self):
        self.h = require_curvature(self.h)
        self.matrix = build_distance_matrix(self.point_set, self.domain)

    def to_json(self) -> dict:
        obj = {
            "points": self.point_set.points.tolist(),
            "classes": [c.value for c in self.point_set.classes],
            "domain": self.domain.to_json(),
            "h": self.h,
        }
        if self.point_set.labels is not None:
            obj["labels"] = list(self.point_set.labels)
        return obj


def domain_from_json(obj: dict) -> Domain:
    """Build a domain from its JSON description."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("domain must be an object with a 'type' field")
    kind = obj["type"]
    if kind == "ball":
        return Ball(obj["center"], obj["radius"])
    if kind == "box":
        return Box(obj["min"], obj["max"])
    if kind == "halfspaces":
        hs = obj["halfspaces"]
        normals = [h["normal"] for h in hs]
        offsets = [h["offset"] for h in hs]
        return HalfspaceIntersection(np.array(normals), np.array(offsets))
    if kind == "periodic":
        return PeriodicBox(obj["lengths"])
    if kind == "all":
        return AllSpace()
    raise ValueError(f"unknown domain type {kind!r}")


def load_instance(source) -> Instance:
    """Read an instance from a JSON file path or an already parsed dict.

    Schema: {"points": [[x,y,z], ...], "classes": ["vertex", ...]
    (optional), "labels": [...] (optional), "domain": {"type": ...},
    "h": number (optional, default 0, finite)}.  The Instance built
    checks h, domain membership and distinct points.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as f:
            obj = json.load(f)
    else:
        obj = source
    if "points" not in obj or "domain" not in obj:
        raise ValueError("instance needs 'points' and 'domain' fields")
    classes = [DensityClass(c) for c in obj["classes"]] if "classes" in obj else []
    point_set = PointSet(np.array(obj["points"], dtype=float), classes, obj.get("labels"))
    domain = domain_from_json(obj["domain"])
    return Instance(point_set, domain, obj.get("h", 0.0))
