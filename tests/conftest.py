"""Shared fixtures: the worked 3-point configuration, random instances and
the vertex enumeration route."""

from __future__ import annotations

import math

import numpy as np
import pytest

from foambounds import (
    Ball,
    DistanceMatrix,
    HalfspaceIntersection,
    PointSet,
    build_distance_matrix,
    polytope,
)

# Collinear points at mutual distances 1, 2, 3, all at distance 4 from the
# boundary plane z = 4.  Reproduces the reference distance matrix exactly
# (integer entries).
WORKED_POINTS = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
WORKED_MATRIX = np.array(
    [
        [0.0, 1.0, 2.0, 4.0],
        [1.0, 0.0, 3.0, 4.0],
        [2.0, 3.0, 0.0, 4.0],
        [4.0, 4.0, 4.0, 0.0],
    ]
)
WORKED_REDUCED = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])


@pytest.fixture
def vertex_route(monkeypatch):
    """Call vertex_route("dual") or vertex_route("combinatorial") to make
    enumerate_vertices take that route for the rest of the test, and
    vertex_route("auto") to restore its size rule."""
    limits = {"auto": polytope._AUTO_COMBINATORIAL_LIMIT, "dual": 0,
              "combinatorial": math.inf}

    def choose(route: str) -> None:
        monkeypatch.setattr(polytope, "_AUTO_COMBINATORIAL_LIMIT", limits[route])

    return choose


@pytest.fixture
def worked_domain() -> HalfspaceIntersection:
    return HalfspaceIntersection(np.array([[0.0, 0.0, 1.0]]), np.array([4.0]))


@pytest.fixture
def worked_points() -> PointSet:
    return PointSet(WORKED_POINTS.copy())


@pytest.fixture
def worked_matrix() -> DistanceMatrix:
    return DistanceMatrix(WORKED_MATRIX.copy())


def random_point_set(rng: np.random.Generator, n: int, ball_radius: float = 1.0,
                     margin: float = 0.95) -> PointSet:
    """Points uniform in a ball, kept strictly away from the boundary."""
    directions = rng.normal(size=(n, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = ball_radius * margin * rng.random(n) ** (1.0 / 3.0)
    return PointSet(directions * radii[:, None])


def random_instance(rng: np.random.Generator, n: int, ball_radius: float = 1.0):
    points = random_point_set(rng, n, ball_radius)
    domain = Ball(np.zeros(3), ball_radius)
    return points, domain


def random_distance_matrix(rng: np.random.Generator, n: int,
                           ball_radius: float = 1.0) -> DistanceMatrix:
    points, domain = random_instance(rng, n, ball_radius)
    return build_distance_matrix(points, domain)
