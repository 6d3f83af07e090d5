"""Closed-form lower bounds for foam areas, cost, and pressure.

All formulas are elementary; this module pins the constants and the
exact counting used by each bound so they can be reported and tested as
fixed reference values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .geometry import ARCCOS_THIRD, THETA_VERTEX


def main_theorem_bound(theta: float, h: float, radius: float) -> float:
    """Lower bound theta * exp(-2 h R) * pi * R^2 for a spherical scoop.

    theta is the density of the probe point (vertex, edge, or face), h
    the mean-curvature bound of the foam faces, and radius the scoop
    radius.  Increasing in R up to R = 1/h, decreasing beyond.
    """
    theta = float(theta)
    h = float(h)
    radius = float(radius)
    if not theta > 0:
        raise ValueError("theta must be positive")
    if not h >= 0:
        raise ValueError("curvature bound h must be >= 0")
    if not radius > 0 or not math.isfinite(radius):
        raise ValueError("radius must be positive and finite")
    return theta * math.exp(-2.0 * h * radius) * math.pi * radius * radius


def a0(d: float, theta: float = THETA_VERTEX) -> float:
    """Guaranteed area theta * pi * (d/2)^2 of one vertex at separation d."""
    d = float(d)
    theta = float(theta)
    if not d > 0:
        raise ValueError("separation d must be positive")
    if not theta > 0:
        raise ValueError("theta must be positive")
    return theta * math.pi * (d / 2.0) ** 2


class CompactFoamBounds(NamedTuple):
    r_max_lower: float
    area_lower: float


def compact_foam_bounds(theta: float, h: float) -> CompactFoamBounds:
    """Bounds for a compact foam with curvature bound h > 0.

    The largest extrinsic radius is at least 1/h and the total area at
    least theta * pi / (e^2 h^2).  A compact foam cannot be minimal, so
    h = 0 is rejected as not applicable.
    """
    theta = float(theta)
    h = float(h)
    if not theta > 0:
        raise ValueError("theta must be positive")
    if not h > 0:
        raise ValueError(
            "compact foam bounds need h > 0 (no compact foam is minimal)"
        )
    return CompactFoamBounds(1.0 / h, theta * math.pi / (math.e ** 2 * h * h))


class KelvinCellBound(NamedTuple):
    """Per-cell area contributions; total is about 12.3832 a^2."""

    hex_face_discs: float
    vertex_discs: float
    square_face_rest: float
    total: float


def kelvin_cell_bound(a: float) -> KelvinCellBound:
    """Lower bound for the area one Kelvin cell contributes to its foam.

    a is the distance between adjacent vertices.  The counting is fixed
    by the cell: 8 hexagonal faces shared by two cells each carrying a
    disc of radius a/2 about the face center, 24 vertices shared by four
    cells each carrying a vertex disc of radius a/2, and 6 square faces
    shared by two cells whose flat area a^2 exceeds the already counted
    vertex discs.
    """
    a = float(a)
    if not a > 0:
        raise ValueError("edge length a must be positive")
    a2 = a * a
    hex_discs = 8 * 0.5 * math.pi * a2 / 4.0
    vertex_discs = 24 * 0.25 * 3.0 * ARCCOS_THIRD * a2 / 4.0
    square_rest = 6 * 0.5 * (a2 - math.pi * a2 / 4.0)
    return KelvinCellBound(
        hex_discs, vertex_discs, square_rest, hex_discs + vertex_discs + square_rest
    )


@dataclass(frozen=True)
class CostInput:
    """Counting data for the cost bound of a foam piece.

    n: cells inside the region; v: vertices inside; volume: region
    volume; d: minimal extrinsic distance between vertices.
    """

    n: int
    v: int
    volume: float
    d: float

    def __post_init__(self):
        if not (self.n >= 1 and self.v >= 1):
            raise ValueError("need at least one cell and one vertex")
        if not (self.volume > 0 and self.d > 0):
            raise ValueError("volume and minimal distance must be positive")

    @property
    def vertices_per_cell(self) -> float:
        return self.v / self.n

    @property
    def vertex_density(self) -> float:
        return self.v / self.volume


def cost_lower_bound(data: CostInput, periodic: bool = False) -> float:
    """Lower bound v_bar * nu^2 * A0(d)^3 for the scale-invariant cost.

    With periodic=True the caller asserts the foam is a periodic minimal
    partition, where the average vertex count per cell is known to be at
    least 24; the bound then uses max(v_bar, 24).
    """
    v_bar = data.vertices_per_cell
    if periodic:
        v_bar = max(v_bar, 24.0)
    return v_bar * data.vertex_density ** 2 * a0(data.d) ** 3


@dataclass(frozen=True)
class PressureInput:
    """Inputs for the cell-pressure bound of a minimal foam in a region."""

    p_ext: float
    sigma: float
    vertex_density: float
    d: float

    def __post_init__(self):
        if not math.isfinite(self.p_ext):
            raise ValueError("external pressure must be finite")
        if not self.sigma > 0:
            raise ValueError("surface tension must be positive")
        if not (self.vertex_density >= 0 and self.d > 0):
            raise ValueError("vertex density must be >= 0 and d > 0")


def pressure_lower_bound(data: PressureInput) -> float:
    """Lower bound p_ext + (3/2) sigma nu A0(d) for the cell pressure."""
    return data.p_ext + 1.5 * data.sigma * data.vertex_density * a0(data.d)
