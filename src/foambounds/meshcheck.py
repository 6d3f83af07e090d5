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
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import main_theorem_bound
from .errors import MeshFormatError, MeshInvariantError
from .geometry import ARCCOS_THIRD, DensityClass, as_point

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


def _triangle_areas(tris: np.ndarray) -> np.ndarray:
    cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    return 0.5 * np.linalg.norm(cross, axis=1)


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
        areas = _triangle_areas(v[t])
        floor = _DEGENERATE_AREA_RTOL * self.scale ** 2
        if np.any(areas <= floor):
            raise MeshInvariantError(
                f"triangle {int(np.argmin(areas))} is degenerate "
                f"(area {float(np.min(areas)):g})"
            )
        nv = len(v)
        keys, counts = np.unique(self._edge_keys(), return_counts=True)
        edges = np.stack([keys // nv, keys % nv], axis=1)
        if np.any(counts > 3):
            e = edges[int(np.argmax(counts))]
            raise MeshInvariantError(
                f"edge ({e[0]}, {e[1]}) is used {int(np.max(counts))} times; "
                "at most 3 (a Plateau border) is allowed"
            )
        edges.flags.writeable = False
        counts.flags.writeable = False
        self._edge_counts = (edges, counts)

    @property
    def scale(self) -> float:
        """Bounding-box diagonal."""
        return float(
            np.linalg.norm(self.vertices.max(axis=0) - self.vertices.min(axis=0))
        )

    def edge_use_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique undirected edges and how many triangles use each.

        Edges come in lexicographic order.  Each sorted pair is keyed as
        lo * n_vertices + hi, so one 1-D unique replaces a row-wise one.
        Both arrays are counted once, when the mesh is validated, and are
        read-only.
        """
        return self._edge_counts

    def _edge_keys(self) -> np.ndarray:
        """int64 key of each triangle's edges (0-1, 1-2, 2-0), triangle-major."""
        e = np.sort(self.triangles[:, [(0, 1), (1, 2), (2, 0)]].reshape(-1, 2), axis=1)
        return e[:, 0].astype(np.int64) * len(self.vertices) + e[:, 1]

    def total_area(self) -> float:
        return pairwise_sum(_triangle_areas(self.vertices[self.triangles]))

    def to_json(self) -> dict:
        obj = {
            "vertices": self.vertices.tolist(),
            "triangles": self.triangles.tolist(),
        }
        if self.patches is not None:
            obj["patches"] = self.patches.tolist()
        return obj


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
        if not self.radius > 0:
            raise ValueError("probe radius must be positive")
        self.h = float(self.h)
        if not self.h >= 0:
            raise ValueError("curvature bound h must be >= 0")


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
            np.array(obj["vertices"], dtype=float),
            np.array(obj["triangles"], dtype=int),
            np.array(obj["patches"]) if "patches" in obj else None,
        )
    return _load_off(path)


def _load_off(path: Path) -> FoamMesh:
    """Parse an OFF file; each block of numbers is one numpy text read.

    Numbers follow numpy's text grammar: ASCII only, no ``_`` separators;
    integers are an optional sign and digits that fit in int64, floats are
    decimal (inf and nan included).  Only when a block fails to parse are
    its lines walked one by one, to name the first bad line.
    """
    with open(path, "r", encoding="utf-8") as f:
        raw = f.read().split("\n")
    linenos: list[int] = []
    lines: list[str] = []
    for lineno, line in enumerate(raw, start=1):
        text = line.split("#", 1)[0].strip()
        if text:
            linenos.append(lineno)
            lines.append(text)

    if not lines:
        raise MeshFormatError("file ended before the OFF header")
    if lines[0] != "OFF":
        raise MeshFormatError(f"expected 'OFF' header, found {lines[0]!r}", linenos[0])
    if len(lines) < 2:
        raise MeshFormatError("file ended before the counts line")
    if len(lines[1].split()) != 3:
        raise MeshFormatError("counts line must be 'nv nf ne'", linenos[1])
    counts = _parse_line(lines[1], int)
    if counts is None:
        raise MeshFormatError("counts must be integers", linenos[1])
    nv, nf = int(counts[0]), int(counts[1])
    if nv < 0 or nf < 0:
        raise MeshFormatError("counts must be nonnegative", linenos[1])

    first = 2
    vertices = _vertex_block(lines[first:first + nv], linenos[first:first + nv])
    if len(vertices) < nv:
        raise MeshFormatError(f"file ended before vertex {len(vertices)}")
    first += nv
    triangles = _face_block(lines[first:first + nf], linenos[first:first + nf])
    if len(triangles) < nf:
        raise MeshFormatError(f"file ended before face {len(triangles)}")
    return FoamMesh(vertices, triangles)


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


def _vertex_block(lines: list[str], linenos: list[int]) -> np.ndarray:
    """(n, 3) coordinates of the vertex lines."""
    if not lines:
        return np.zeros((0, 3))
    try:
        table = _loadtxt(lines, float, ndmin=2)
    except ValueError:
        _raise_first_bad_vertex(lines, linenos)
        raise
    if table.shape[1] != 3:
        _raise_first_bad_vertex(lines, linenos)
    return table


def _raise_first_bad_vertex(lines: list[str], linenos: list[int]) -> None:
    for lineno, text in zip(linenos, lines):
        if len(text.split()) != 3:
            raise MeshFormatError("vertex line needs 3 coordinates", lineno)
        if _parse_line(text, float) is None:
            raise MeshFormatError("vertex coordinates must be numbers", lineno)


def _face_block(lines: list[str], linenos: list[int]) -> np.ndarray:
    """(n, 3) vertex indices of the face lines; tokens after the fourth are ignored."""
    if not lines:
        return np.zeros((0, 3), dtype=int)
    try:
        table = _loadtxt(lines, int, usecols=range(4), ndmin=2)
    except ValueError:
        _raise_first_bad_face(lines, linenos)
        raise
    if np.any(table[:, 0] != 3):
        _raise_first_bad_face(lines, linenos)
    return np.ascontiguousarray(table[:, 1:])


def _raise_first_bad_face(lines: list[str], linenos: list[int]) -> None:
    for lineno, text in zip(linenos, lines):
        parts = text.split()
        k = _parse_line(parts[0], int)
        if k is None:
            raise MeshFormatError("face line must start with a vertex count", lineno)
        if k[0] != 3:
            raise MeshFormatError(f"only triangular faces are supported, got {k[0]}", lineno)
        if len(parts) < 4:
            raise MeshFormatError("face line needs 3 vertex indices", lineno)
        if _parse_line(" ".join(parts[1:4]), int) is None:
            raise MeshFormatError("face indices must be integers", lineno)


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
    w = mesh.vertices[mesh.triangles] - probe.center
    # Triangles whose bounding sphere misses the ball contribute nothing.
    centroid = w.mean(axis=1)
    spread = np.linalg.norm(w - centroid[:, None], axis=2).max(axis=1)
    w = w[np.linalg.norm(centroid, axis=1) <= r + spread]
    if len(w) == 0:
        return 0.0, 0.0
    e1 = w[:, 1] - w[:, 0]
    e2 = w[:, 2] - w[:, 0]
    cross = np.cross(e1, e2)
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
        angle = np.arctan2(_dot(np.cross(u, v), n), _dot(u, v))
        return np.where(outside, 0.5 * rho2[:, None] * angle, 0.0)

    edge = sector(a, p1, t1 > 0.0) + 0.5 * _dot(np.cross(p1, p2), n) + sector(p2, b, t2 < 1.0)
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
    ratio: float
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
    verification, not a point estimate.
    """
    value, uncertainty = _clipped_area_detail(mesh, probe, eps)
    rhs = main_theorem_bound(probe.density_class.theta, probe.h, probe.radius)
    lhs = value - max(eps, uncertainty)
    return InequalityReport(
        clipped_area=value,
        uncertainty=uncertainty,
        lhs=lhs,
        rhs=rhs,
        passed=lhs >= rhs,
        ratio=value / rhs,
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
    ambiguous incidences are skipped with a warning.
    """
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
    checked_edges = 0
    for (u, v) in triple_edges:
        axis = mesh.vertices[v] - mesh.vertices[u]
        axis = axis / np.linalg.norm(axis)
        wings = []
        degenerate = False
        for t_idx in edge_tris[(u, v)]:
            tri = mesh.triangles[t_idx]
            opposite = [k for k in tri if k != u and k != v][0]
            w = mesh.vertices[opposite] - mesh.vertices[u]
            w = w - np.dot(w, axis) * axis
            norm = np.linalg.norm(w)
            if norm <= 1e-12 * mesh.scale:
                degenerate = True
                break
            wings.append(w / norm)
        if degenerate:
            warnings.append(
                f"triple edge ({u}, {v}): a wing is parallel to the edge; skipped"
            )
            continue
        checked_edges += 1
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
        checked_edge_count=checked_edges,
        edge_max_deviation_deg=edge_max,
        checked_vertex_count=checked_vertices,
        vertex_max_deviation_deg=vertex_max,
        max_deviation_deg=max_dev,
        angle_tol_deg=float(angle_tol_degrees),
        passed=max_dev <= float(angle_tol_degrees),
        warnings=tuple(warnings),
    )
