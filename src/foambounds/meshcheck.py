"""Triangulated foam surfaces: loading, ball-clipped areas, angle checks.

clipped_area computes the area of mesh-intersect-ball in closed form: the
ball cuts each triangle's plane in a disc, and the disc-triangle area is
the standard circle-polygon sum of sector and triangle terms over the
edges.  The result is exact up to floating-point rounding, for which a
first-order bound is reported as the uncertainty.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import main_theorem_bound
from .errors import MeshFormatError, MeshInvariantError
from .geometry import ARCCOS_THIRD, DensityClass, as_point, require_curvature

_DEGENERATE_AREA_RTOL = 1e-12
# Generous count of the roundings between the input coordinates and one
# triangle's clipped area; scales the reported rounding bound.
_ROUNDING_OPS = 64


def pairwise_sum(values) -> float:
    """Tree-shaped float summation: deterministic and schedule-free."""
    x = np.asarray(values, dtype=float).ravel().copy()
    if x.size == 0:
        return 0.0
    while x.size > 1:
        if x.size % 2:
            x = np.append(x, 0.0)
        x = x[0::2] + x[1::2]
    return float(x[0])


def _triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Half the norm of (B - A) x (C - A) for each triangle (A, B, C).

    Each coordinate of the corners is gathered into one (3, n) array, and
    the cross product and the sum of squares are written out on those in
    the operation order of np.cross and np.linalg.norm(axis=1): the areas
    are bit-identical to theirs, without their per-call overhead or the
    strided (n, 3, 3) gather.
    """
    x, y, z = (c[triangles.T] for c in vertices.T)
    a0, b0 = x[1] - x[0], x[2] - x[0]
    a1, b1 = y[1] - y[0], y[2] - y[0]
    a2, b2 = z[1] - z[0], z[2] - z[0]
    c0 = a1 * b2 - a2 * b1
    c1 = a2 * b0 - a0 * b2
    c2 = a0 * b1 - a1 * b0
    return 0.5 * np.sqrt((c0 * c0 + c1 * c1) + c2 * c2)


@dataclass(eq=False)
class FoamMesh:
    """Triangle mesh of a foam piece.

    Undirected edges may be used by one triangle (mesh boundary), two
    (ordinary interface), or three (Plateau border candidate); heavier
    sharing is rejected as non-manifold beyond foam structure.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    patches: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3 or len(v) < 3:
            raise MeshInvariantError("mesh needs at least 3 vertices of dimension 3")
        if not np.all(np.isfinite(v)):
            raise MeshInvariantError("mesh vertices must be finite")
        t = np.asarray(self.triangles, dtype=int)
        if t.size == 0:
            raise MeshInvariantError("mesh has no triangles")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshInvariantError("triangles must be index triples")
        if np.any(t < 0) or np.any(t >= len(v)):
            bad = int(np.argmax(np.any((t < 0) | (t >= len(v)), axis=1)))
            raise MeshInvariantError(f"triangle {bad} has out-of-range vertex index")
        repeated = (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])
        if np.any(repeated):
            raise MeshInvariantError(
                f"triangle {int(np.argmax(repeated))} repeats a vertex index"
            )
        self.vertices = v
        self.triangles = t
        if self.patches is not None:
            p = np.asarray(self.patches)
            if len(p) != len(t):
                raise MeshInvariantError("need one patch label per triangle")
            self.patches = p
        areas = _triangle_areas(v, t)
        floor = _DEGENERATE_AREA_RTOL * self.scale ** 2
        if np.any(areas <= floor):
            raise MeshInvariantError(
                f"triangle {int(np.argmin(areas))} is degenerate "
                f"(area {float(np.min(areas)):g})"
            )
        nv = len(v)
        keys, counts = np.unique(self._edge_keys(), return_counts=True)
        lo, hi = np.divmod(keys, nv)
        edges = np.stack([lo, hi], axis=1)
        if np.any(counts > 3):
            e = edges[int(np.argmax(counts))]
            raise MeshInvariantError(
                f"edge ({e[0]}, {e[1]}) is used {int(np.max(counts))} times; "
                "at most 3 (a Plateau border) is allowed"
            )
        edges.flags.writeable = False
        counts.flags.writeable = False
        self._edge_counts = (edges, counts)
        x, y, z = (c[hi] - c[lo] for c in v.T)
        self._longest_edge = math.sqrt(float(np.max((x * x + y * y) + z * z)))

    @property
    def scale(self) -> float:
        """Bounding-box diagonal."""
        return float(np.linalg.norm([c.max() - c.min() for c in self.vertices.T]))

    def edge_use_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique undirected edges and how many triangles use each.

        Edges come in lexicographic order.  Each sorted pair is keyed as
        lo * n_vertices + hi, so one 1-D unique replaces a row-wise one.
        Both arrays are counted once, when the mesh is validated, and are
        read-only.
        """
        return self._edge_counts

    @property
    def longest_edge(self) -> float:
        """Length of the longest edge, measured once when the mesh is validated."""
        return self._longest_edge

    def _edge_keys(self) -> np.ndarray:
        """int64 key of each triangle's edges (0-1, 1-2, 2-0), triangle-major."""
        t = self.triangles.astype(np.int64, copy=False)
        following = t[:, [1, 2, 0]]
        lo = np.minimum(t, following).ravel()
        return lo * len(self.vertices) + np.maximum(t, following).ravel()

    def total_area(self) -> float:
        return pairwise_sum(_triangle_areas(self.vertices, self.triangles))


@dataclass(eq=False)
class DiscProbe:
    """Where and how to cut a spherical scoop out of a mesh."""

    center: np.ndarray
    radius: float
    density_class: DensityClass = DensityClass.FACE
    h: float = 0.0

    def __post_init__(self):
        self.center = as_point(self.center)
        self.radius = float(self.radius)
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("probe radius must be positive and finite")
        self.h = require_curvature(self.h)


# ---------------------------------------------------------------------------
# Mesh I/O


def load_mesh(path) -> FoamMesh:
    """Read a triangle mesh from an OFF file or the JSON mesh schema."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
        if "vertices" not in obj or "triangles" not in obj:
            raise MeshFormatError("mesh JSON needs 'vertices' and 'triangles'")
        return FoamMesh(
            _json_table(obj["vertices"], "vertex", integers=False),
            _json_table(obj["triangles"], "triangle", integers=True),
            _json_patches(obj["patches"]) if "patches" in obj else None,
        )
    return _load_off(path)


def _json_table(rows, what: str, integers: bool) -> np.ndarray:
    """A JSON mesh table as an array of rows of 3 JSON integers or numbers.

    Types are matched exactly: a bool (an int subclass in Python) is no
    number, a float such as 2.7 or 2.0 is no index, and a string is
    neither.  A row of another length, an index beyond int64 or a
    coordinate beyond the float range is rejected too, naming its row.
    """
    if not isinstance(rows, list):
        raise MeshFormatError(f"mesh JSON needs a list of {what} rows")
    types, kind = ((int,), "integers") if integers else ((int, float), "numbers")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or any(type(x) not in types for x in row):
            raise MeshFormatError(f"{what} {i} must be a list of JSON {kind}")
        if len(row) != 3:
            raise MeshFormatError(f"{what} {i} must hold 3 {kind}, not {len(row)}")
    dtype, limit = (np.int64, "int64") if integers else (float, "the float range")
    try:
        return np.array(rows, dtype=dtype)
    except OverflowError:
        for i, row in enumerate(rows):
            try:
                np.array(row, dtype=dtype)
            except OverflowError:
                raise MeshFormatError(f"{what} {i} holds a number beyond {limit}") from None
        raise


def _json_patches(labels) -> np.ndarray:
    """The JSON patch labels: a list of scalars (string, number, bool or
    null), one per triangle; FoamMesh checks the count."""
    if not isinstance(labels, list):
        raise MeshFormatError("mesh JSON 'patches' must be a list")
    for i, label in enumerate(labels):
        if isinstance(label, (list, dict)):
            raise MeshFormatError(f"patch {i} must be a JSON scalar")
    return np.array(labels)


_COMMENT = re.compile(r"#[^\n]*")


class _BadLine(Exception):
    """A rejected content line: (message, index among the content lines)."""


def _load_off(path: Path) -> FoamMesh:
    r"""Parse an OFF file; each block of numbers is one numpy text read.

    Numbers follow numpy's text grammar: ASCII only, no ``_`` separators;
    integers are an optional sign and digits that fit in int64, floats are
    decimal (inf and nan included).

    The text is read once.  Comments go in one regex pass, and the content
    lines (stripped, not blank) are collected without their line numbers.
    Only when a line is rejected are the raw lines walked again, to name
    its 1-based file line; only when a block fails to parse are its lines
    walked one by one, to find the first bad one.  Lines are split on
    "\n" alone: the text-mode read already maps "\r" and "\r\n", while
    str.splitlines would also split on characters such as "\f" and "\x85"
    that are whitespace inside a line.
    """
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    if "#" in text:
        text = _COMMENT.sub("", text)
    lines = [s for line in text.split("\n") if (s := line.strip())]
    try:
        vertices, triangles = _parse_off(lines)
    except _BadLine as bad:
        message, index = bad.args
        raise MeshFormatError(message, _file_line(text, index)) from None
    return FoamMesh(vertices, triangles)


def _file_line(text: str, index: int) -> int:
    """1-based file line of content line `index` of comment-free text."""
    return [k for k, line in enumerate(text.split("\n"), start=1) if line.strip()][index]


def _parse_off(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and triangles of the content lines of an OFF file."""
    if not lines:
        raise MeshFormatError("file ended before the OFF header")
    if lines[0] != "OFF":
        raise _BadLine(f"expected 'OFF' header, found {lines[0]!r}", 0)
    if len(lines) < 2:
        raise MeshFormatError("file ended before the counts line")
    if len(lines[1].split()) != 3:
        raise _BadLine("counts line must be 'nv nf ne'", 1)
    counts = _parse_line(lines[1], int)
    if counts is None:
        raise _BadLine("counts must be integers", 1)
    nv, nf = int(counts[0]), int(counts[1])
    if nv < 0 or nf < 0:
        raise _BadLine("counts must be nonnegative", 1)

    vertices = _vertex_block(lines, 2, nv)
    if len(vertices) < nv:
        raise MeshFormatError(f"file ended before vertex {len(vertices)}")
    triangles = _face_block(lines, 2 + nv, nf)
    if len(triangles) < nf:
        raise MeshFormatError(f"file ended before face {len(triangles)}")
    return vertices, triangles


def _loadtxt(lines: list[str], dtype, **kwargs) -> np.ndarray:
    """np.loadtxt of whole lines; an integer read never accepts a float token.

    Some numpy releases read a token such as ``2.7`` or ``nan`` for an
    integer dtype as a float and cast it, with only a DeprecationWarning.
    As an error, that warning becomes the ValueError that later releases
    raise outright, whatever warning filters the caller has set.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "error", message=".*integer via a float", category=DeprecationWarning
        )
        return np.loadtxt(lines, dtype=dtype, comments=None, **kwargs)


def _parse_line(text: str, dtype) -> np.ndarray | None:
    """The numbers on one line, or None if one of them does not parse."""
    try:
        return _loadtxt([text], dtype, ndmin=1)
    except ValueError:
        return None


def _vertex_block(lines: list[str], first: int, n: int) -> np.ndarray:
    """(n, 3) coordinates of the n vertex lines from content line `first`."""
    block = lines[first:first + n]
    if not block:
        return np.zeros((0, 3))
    try:
        table = _loadtxt(block, float, ndmin=2)
    except ValueError:
        _raise_first_bad_vertex(block, first)
        raise
    if table.shape[1] != 3:
        _raise_first_bad_vertex(block, first)
    return table


def _raise_first_bad_vertex(block: list[str], first: int) -> None:
    for index, text in enumerate(block, start=first):
        if len(text.split()) != 3:
            raise _BadLine("vertex line needs 3 coordinates", index)
        if _parse_line(text, float) is None:
            raise _BadLine("vertex coordinates must be numbers", index)


def _face_block(lines: list[str], first: int, n: int) -> np.ndarray:
    """(n, 3) vertex indices of the n face lines from content line `first`.

    Tokens after the fourth on a line are ignored.
    """
    block = lines[first:first + n]
    if not block:
        return np.zeros((0, 3), dtype=int)
    try:
        table = _loadtxt(block, int, usecols=range(4), ndmin=2)
    except ValueError:
        _raise_first_bad_face(block, first)
        raise
    if np.any(table[:, 0] != 3):
        _raise_first_bad_face(block, first)
    return np.ascontiguousarray(table[:, 1:])


def _raise_first_bad_face(block: list[str], first: int) -> None:
    for index, text in enumerate(block, start=first):
        parts = text.split()
        k = _parse_line(parts[0], int)
        if k is None:
            raise _BadLine("face line must start with a vertex count", index)
        if k[0] != 3:
            raise _BadLine(f"only triangular faces are supported, got {k[0]}", index)
        if len(parts) < 4:
            raise _BadLine("face line needs 3 vertex indices", index)
        if _parse_line(" ".join(parts[1:4]), int) is None:
            raise _BadLine("face indices must be integers", index)


def save_off(mesh: FoamMesh, path) -> None:
    """Write a mesh as an OFF file (full float precision).

    Each block is one %-format over all of its numbers.
    """
    v, t = mesh.vertices, mesh.triangles
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"OFF\n{len(v)} {len(t)} 0\n")
        f.write(("%.17g %.17g %.17g\n" * len(v)) % tuple(v.ravel().tolist()))
        f.write(("3 %d %d %d\n" * len(t)) % tuple(t.ravel().tolist()))


# ---------------------------------------------------------------------------
# Clipped area


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("...k,...k->...", u, v)


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.cross over the last axis, in its operation order (so bit-identical)
    without its axis handling."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack((u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0), axis=-1)


def _near_triangles(mesh: FoamMesh, probe: DiscProbe) -> np.ndarray:
    """Mask of the triangles with a vertex within (R + 2L)(1 + 1e-9) of the
    centre, L the longest edge: one norm per mesh vertex.  A superset of
    the bounding-sphere test's rows; see _clipped_area_detail."""
    reach = (probe.radius + 2.0 * mesh.longest_edge) * (1.0 + 1e-9)
    near = np.linalg.norm(mesh.vertices - probe.center, axis=1) <= reach
    t = mesh.triangles
    return near[t[:, 0]] | near[t[:, 1]] | near[t[:, 2]]


def _clipped_area_detail(
    mesh: FoamMesh, probe: DiscProbe, eps: float
) -> tuple[float, float]:
    """Returns (area of the mesh inside the closed ball, rounding bound).

    Closed form, one vectorised pass over the triangles.  A triangle whose
    plane lies at signed distance delta from the probe centre, |delta| < R,
    meets the ball in the disc of radius rho = sqrt(R^2 - delta^2) about
    the centre's projection c'.  The disc-triangle area is the
    circle-polygon sum over the edges A->B, taken relative to c' and
    oriented by the unit normal n: with P1 and P2 the points where the
    edge enters and leaves the disc (line parameters clipped to [0, 1];
    both are the point nearest c' when the line misses the disc),
    the edge adds the sector 1/2 rho^2 angle(A, P1) if it starts outside
    the disc, the triangle 1/2 (P1 x P2).n, and the sector
    1/2 rho^2 angle(P2, B) if it ends outside.  The sector terms are gated
    on the edge really being outside there: with the centre on a vertex, A
    is a near-zero vector whose atan2 angle is arbitrary.

    Only triangles near the ball are clipped.  With w_k a triangle's
    corners relative to the centre, c their centroid and
    s = max_k |w_k - c|, the bounding-sphere test keeps the triangle iff
    |c| <= R + s.  It runs only on the triangles _near_triangles keeps,
    those with a corner within (R + 2L)(1 + 1e-9) of the centre, L the
    mesh's longest edge.  That is a superset: the centroid lies in the
    triangle, so s <= L, and each corner of a kept triangle has
    |w_k| <= |c| + s <= R + 2s <= R + 2L; the factor 1 + 1e-9 covers the
    rounding of the norms, a few ulps of R + 2L.  So the test keeps the
    same rows, in the same order, as on the whole mesh, and the value and
    its bound are the same to the bit.

    The second value is a first-order bound on floating-point rounding.
    Shifting a vertex, the centre or a crossing point by s moves the area
    by at most (6 + 2 pi) R s, and changing rho^2 by s moves it by at most
    pi s.  Per triangle the shifts are at most _ROUNDING_OPS roundings of
    the vertex distances from the centre, times 1/sin of a corner angle
    (through the normal).  The bound sums this over the triangles near the
    ball and adds the pairwise summation error.  It does not depend on eps,
    which only has to be positive: a budget below it shows in the report
    as uncertainty > eps.
    """
    if not eps > 0:
        raise ValueError("area error budget eps must be positive")
    r = probe.radius
    near = _near_triangles(mesh, probe)
    w = mesh.vertices[mesh.triangles[near]] - probe.center
    # Triangles whose bounding sphere misses the ball contribute nothing.
    centroid = w.mean(axis=1)
    spread = np.linalg.norm(w - centroid[:, None], axis=2).max(axis=1)
    w = w[np.linalg.norm(centroid, axis=1) <= r + spread]
    if len(w) == 0:
        return 0.0, 0.0
    e1 = w[:, 1] - w[:, 0]
    e2 = w[:, 2] - w[:, 0]
    cross = _cross(e1, e2)
    twice_area = np.linalg.norm(cross, axis=1)
    n = cross / twice_area[:, None]
    delta = _dot(w[:, 0], n)
    rho2 = r * r - delta * delta

    a = w - delta[:, None, None] * n[:, None, :]
    b = np.roll(a, -1, axis=1)
    n = n[:, None, :]
    d = b - a
    dd = _dot(d, d)
    ad = _dot(a, d)
    root = np.sqrt(np.maximum(ad * ad - dd * (_dot(a, a) - rho2[:, None]), 0.0))
    t1 = np.clip((-ad - root) / dd, 0.0, 1.0)
    t2 = np.clip((-ad + root) / dd, 0.0, 1.0)
    p1 = a + t1[..., None] * d
    p2 = a + t2[..., None] * d

    def sector(u, v, outside):
        angle = np.arctan2(_dot(_cross(u, v), n), _dot(u, v))
        return np.where(outside, 0.5 * rho2[:, None] * angle, 0.0)

    edge = sector(a, p1, t1 > 0.0) + 0.5 * _dot(_cross(p1, p2), n) + sector(p2, b, t2 < 1.0)
    areas = np.where(np.abs(delta) < r, np.abs(edge.sum(axis=1)), 0.0)
    value = pairwise_sum(areas)

    ulp = np.finfo(float).eps
    kappa = np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1) / twice_area
    reach = np.linalg.norm(w, axis=2).max(axis=1)
    per_triangle = _ROUNDING_OPS * ulp * (r * r + kappa * r * reach)
    summation = math.ceil(math.log2(len(w))) * ulp * value
    return value, pairwise_sum(per_triangle) + summation


def clipped_area(mesh: FoamMesh, probe: DiscProbe, eps: float) -> float:
    """Area of the mesh inside the closed ball of the probe.

    Exact up to floating-point rounding, which stays far below any
    practical eps; eps must be positive.
    """
    value, _ = _clipped_area_detail(mesh, probe, eps)
    return value


# ---------------------------------------------------------------------------
# Inequality and angle reports


@dataclass(eq=False)
class InequalityReport:
    """Measured scoop area against its certified lower bound."""

    clipped_area: float
    uncertainty: float
    lhs: float
    rhs: float
    passed: bool
    # clipped_area / rhs; None (JSON null) when rhs underflows to 0.0, as
    # it does once 2 h R is beyond about 745.
    ratio: float | None
    eps: float

    def to_json(self) -> dict:
        return {
            "clipped_area": self.clipped_area,
            "uncertainty": self.uncertainty,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "passed": self.passed,
            "ratio": self.ratio,
            "eps": self.eps,
        }


def verify_main_inequality(
    mesh: FoamMesh, probe: DiscProbe, eps: float
) -> InequalityReport:
    """Check measured disc area >= theta * exp(-2hR) * pi * R^2.

    The area is the closed-form clipped area; its uncertainty bounds the
    floating-point rounding.  The left side subtracts the larger of the
    error budget and that bound, so a pass is a certified numerical
    verification, not a point estimate.  The ratio is clipped_area / rhs,
    or None when rhs underflows to 0.0.
    """
    # Plain floats throughout, so passed is a plain bool and the report
    # serialises whichever of eps and the rounding bound is larger.
    eps = float(eps)
    value, uncertainty = map(float, _clipped_area_detail(mesh, probe, eps))
    rhs = main_theorem_bound(probe.density_class.theta, probe.h, probe.radius)
    lhs = value - max(eps, uncertainty)
    return InequalityReport(
        clipped_area=value,
        uncertainty=uncertainty,
        lhs=lhs,
        rhs=rhs,
        passed=lhs >= rhs,
        ratio=value / rhs if rhs else None,
        eps=eps,
    )


@dataclass(eq=False)
class AngleReport:
    """Deviations of border and vertex angles from the Plateau values."""

    triple_edge_count: int
    checked_edge_count: int
    edge_max_deviation_deg: float
    checked_vertex_count: int
    vertex_max_deviation_deg: float
    max_deviation_deg: float
    angle_tol_deg: float
    passed: bool
    warnings: tuple = ()

    def to_json(self) -> dict:
        return {
            "triple_edge_count": self.triple_edge_count,
            "checked_edge_count": self.checked_edge_count,
            "edge_max_deviation_deg": self.edge_max_deviation_deg,
            "checked_vertex_count": self.checked_vertex_count,
            "vertex_max_deviation_deg": self.vertex_max_deviation_deg,
            "max_deviation_deg": self.max_deviation_deg,
            "angle_tol_deg": self.angle_tol_deg,
            "passed": self.passed,
            "warnings": list(self.warnings),
        }


def _angle_deg(u: np.ndarray, v: np.ndarray) -> float:
    cos = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
    return math.degrees(math.acos(max(-1.0, min(1.0, cos))))


def plateau_angle_check(mesh: FoamMesh, angle_tol_degrees: float = 1.0) -> AngleReport:
    """Verify 120-degree borders and tetrahedral vertex angles.

    Triple edges (used by exactly three triangles) must have their three
    wings pairwise at 120 degrees; mesh vertices where exactly four
    triple edges meet must have all six pairwise edge angles equal to
    arccos(-1/3), about 109.4712 degrees.  Vertices whose neighborhood is
    incomplete (touching the mesh boundary) are skipped silently;
    ambiguous incidences are skipped with a warning.  The tolerance must
    be finite and >= 0 degrees.
    """
    if not 0.0 <= angle_tol_degrees < math.inf:
        raise ValueError(
            f"angle tolerance must be finite and >= 0 degrees, got {angle_tol_degrees!r}"
        )
    edges, counts = mesh.edge_use_counts()
    triple = edges[counts == 3]
    triple_edges = [tuple(e) for e in triple.tolist()]
    # Triangles using each triple edge, in triangle order; only triple
    # edges are mapped, so a mesh without any skips the scan entirely.
    edge_tris: dict[tuple[int, int], list[int]] = {}
    if triple_edges:
        nv = len(mesh.vertices)
        keys = mesh._edge_keys()
        slots = np.flatnonzero(np.isin(keys, triple[:, 0] * nv + triple[:, 1]))
        for slot, key in zip(slots.tolist(), keys[slots].tolist()):
            edge_tris.setdefault(divmod(key, nv), []).append(slot // 3)

    warnings: list[str] = []
    edge_devs: list[float] = []
    for (u, v) in triple_edges:
        axis = mesh.vertices[v] - mesh.vertices[u]
        axis = axis / np.linalg.norm(axis)
        # No wing is parallel to the edge: its triangle would be thinner
        # than the area floor at which FoamMesh rejects a triangle.
        wings = []
        for t_idx in edge_tris[(u, v)]:
            tri = mesh.triangles[t_idx]
            opposite = [k for k in tri if k != u and k != v][0]
            w = mesh.vertices[opposite] - mesh.vertices[u]
            w = w - np.dot(w, axis) * axis
            wings.append(w / np.linalg.norm(w))
        for i in range(3):
            for j in range(i + 1, 3):
                edge_devs.append(abs(_angle_deg(wings[i], wings[j]) - 120.0))

    # Vertex incidence of triple edges, plus boundary contact for skipping.
    incident: dict[int, list[int]] = {}
    for (u, v) in triple_edges:
        incident.setdefault(u, []).append(v)
        incident.setdefault(v, []).append(u)
    boundary_vertices = set(edges[counts == 1].ravel().tolist())

    tetra_deg = math.degrees(ARCCOS_THIRD)
    vertex_devs: list[float] = []
    checked_vertices = 0
    for vtx, neighbors in sorted(incident.items()):
        k = len(neighbors)
        if k == 2 or vtx in boundary_vertices:
            continue
        if k != 4:
            warnings.append(
                f"vertex {vtx}: {k} incident Plateau borders (need 4); skipped"
            )
            continue
        checked_vertices += 1
        dirs = [mesh.vertices[n] - mesh.vertices[vtx] for n in neighbors]
        for i in range(4):
            for j in range(i + 1, 4):
                vertex_devs.append(abs(_angle_deg(dirs[i], dirs[j]) - tetra_deg))

    edge_max = max(edge_devs) if edge_devs else 0.0
    vertex_max = max(vertex_devs) if vertex_devs else 0.0
    max_dev = max(edge_max, vertex_max)
    return AngleReport(
        triple_edge_count=len(triple_edges),
        checked_edge_count=len(triple_edges),
        edge_max_deviation_deg=edge_max,
        checked_vertex_count=checked_vertices,
        vertex_max_deviation_deg=vertex_max,
        max_deviation_deg=max_dev,
        angle_tol_deg=float(angle_tol_degrees),
        passed=max_dev <= float(angle_tol_degrees),
        warnings=tuple(warnings),
    )
