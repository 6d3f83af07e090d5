"""Command-line front end: ingestion, subcommand dispatch, JSON reports.

Exit codes: 0 on success, 2 on validation errors (bad input files,
malformed JSON, contract violations), 3 on numerical failures
(unbounded or degenerate instances, solver breakdowns).  Reports are
emitted with sorted keys so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .bounds import (
    CostInput,
    PressureInput,
    compact_foam_bounds,
    cost_lower_bound,
    kelvin_cell_bound,
    main_theorem_bound,
    pressure_lower_bound,
)
from .errors import (
    DegeneratePolytopeError,
    FoamBoundsError,
    NumericalError,
    UnboundedInstanceError,
)
from .eva import (
    EvaObjective,
    evA_algorithm1_from_matrix,
    evA_exact_from_matrix,
    maximize_eva,
)
from .geometry import (
    THETA_V_PI,
    DensityClass,
    DistanceMatrix,
    build_distance_matrix,
    load_instance,
    reduce_distance_matrix,
)
from .meshcheck import (
    DiscProbe,
    clipped_area,
    load_mesh,
    plateau_angle_check,
    verify_main_inequality,
)
from .polytope import build_h_polytope, enumerate_vertices

_EVA_FORMULA = "max over admissible radii of sum_i pi*theta_i*exp(-2*h*r_i)*r_i^2"


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _load_eva_input(path: str, h_override: float | None):
    """Read an instance file; points+domain or a raw distance matrix."""
    with open(path, "r", encoding="utf-8") as f:
        obj = json.load(f)
    if "distance_matrix" in obj:
        matrix = DistanceMatrix(np.array(obj["distance_matrix"], dtype=float))
        h = float(obj.get("h", 0.0))
        weights = None
        if "classes" in obj:
            classes = [DensityClass(c) for c in obj["classes"]]
            if len(classes) != matrix.n:
                raise ValueError("need one class per distance-matrix point")
            weights = np.array([c.theta for c in classes])
    else:
        instance = load_instance(obj)
        matrix = build_distance_matrix(instance.point_set, instance.domain)
        h = instance.h
        weights = instance.point_set.thetas
    if h_override is not None:
        h = h_override
    return matrix, h, weights


def _parse_center(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("--center must be 'x,y,z'")
    return [float(p) for p in parts]


def _eva_report(args, h: float, matrix: DistanceMatrix, result, formula: str) -> dict:
    """The fields that the eva, eva-exact and eva-greedy reports share."""
    return {
        "command": args.subcommand,
        "input": args.input,
        "h": h,
        "n_points": matrix.n,
        "radii": result.radii.tolist(),
        "theta_v_pi_units": result.value / THETA_V_PI,
        "formula": formula,
    }


def cmd_eva(args) -> dict:
    matrix, h, weights = _load_eva_input(args.input, args.h)
    reduced = reduce_distance_matrix(matrix, h)
    result = maximize_eva(reduced, EvaObjective(h, weights))
    if args.dump_polytope:
        poly = build_h_polytope(reduced)
        verts = enumerate_vertices(poly)
        _emit({"polytope": poly.to_json(), "vertices": verts.to_json()}, args.dump_polytope)
    return {
        **_eva_report(args, h, matrix, result, _EVA_FORMULA),
        "eva": result.value,
        "convexity_certified": result.convexity_certified,
    }


def cmd_eva_exact(args) -> dict:
    matrix, h, weights = _load_eva_input(args.input, args.h)
    result = evA_exact_from_matrix(matrix, h, weights, max_n=args.max_exact_n)
    formula = "max over nonempty point subsets of " + _EVA_FORMULA
    return {
        **_eva_report(args, h, matrix, result, formula),
        "evA": result.value,
        "method": result.method,
        "subset": list(result.surviving_subset),
        "subsets_scored": result.subsets_scored,
        "subsets_total": 2 ** matrix.n - 1,
        "evA_over_theta_v_pi": result.value / THETA_V_PI,
    }


def cmd_eva_greedy(args) -> dict:
    matrix, h, weights = _load_eva_input(args.input, args.h)
    result = evA_algorithm1_from_matrix(matrix, h, weights)
    formula = "greedy descent over point subsets of " + _EVA_FORMULA
    return {
        **_eva_report(args, h, matrix, result, formula),
        "evA": result.value,
        "method": result.method,
        "subset": list(result.surviving_subset),
        "notes": list(result.notes),
        "evA_over_theta_v_pi": result.value / THETA_V_PI,
    }


def cmd_bounds_main(args) -> dict:
    theta = DensityClass(args.theta).theta
    value = main_theorem_bound(theta, args.h, args.radius)
    return {
        "command": "bounds-main",
        "theta_class": args.theta,
        "theta": theta,
        "h": args.h,
        "radius": args.radius,
        "area_lower_bound": value,
        "theta_v_pi_units": value / THETA_V_PI,
        "formula": "theta*exp(-2*h*R)*pi*R^2",
    }


def cmd_bounds_compact(args) -> dict:
    theta = DensityClass(args.theta).theta
    result = compact_foam_bounds(theta, args.h)
    return {
        "command": "bounds-compact",
        "theta_class": args.theta,
        "theta": theta,
        "h": args.h,
        "r_max_lower": result.r_max_lower,
        "area_lower": result.area_lower,
        "formulas": {
            "r_max_lower": "1/h",
            "area_lower": "theta*pi/(e^2*h^2)",
        },
    }


def cmd_bounds_kelvin(args) -> dict:
    result = kelvin_cell_bound(args.edge_length)
    return {
        "command": "bounds-kelvin",
        "edge_length": args.edge_length,
        "hex_face_discs": result.hex_face_discs,
        "vertex_discs": result.vertex_discs,
        "square_face_rest": result.square_face_rest,
        "total": result.total,
        "formulas": {
            "hex_face_discs": "8 * 1/2 * pi*(a/2)^2",
            "vertex_discs": "24 * 1/4 * 3*arccos(-1/3)*(a/2)^2",
            "square_face_rest": "6 * 1/2 * (a^2 - pi*(a/2)^2)",
        },
    }


def cmd_bounds_cost(args) -> dict:
    data = CostInput(args.cells, args.foam_vertices, args.volume, args.min_distance)
    value = cost_lower_bound(data, periodic=args.periodic)
    return {
        "command": "bounds-cost",
        "cells": args.cells,
        "foam_vertices": args.foam_vertices,
        "volume": args.volume,
        "min_distance": args.min_distance,
        "periodic": args.periodic,
        "vertices_per_cell": data.vertices_per_cell,
        "vertex_density": data.vertex_density,
        "cost_lower_bound": value,
        "formula": "v_bar * nu^2 * (theta_v*pi*(d/2)^2)^3, v_bar >= 24 if periodic",
    }


def cmd_bounds_pressure(args) -> dict:
    data = PressureInput(args.p_ext, args.sigma, args.vertex_density, args.min_distance)
    value = pressure_lower_bound(data)
    return {
        "command": "bounds-pressure",
        "p_ext": args.p_ext,
        "sigma": args.sigma,
        "vertex_density": args.vertex_density,
        "min_distance": args.min_distance,
        "pressure_lower_bound": value,
        "formula": "p_ext + (3/2)*sigma*nu*theta_v*pi*(d/2)^2",
    }


def cmd_mesh_verify(args) -> dict:
    mesh = load_mesh(args.input)
    center = _parse_center(args.center)
    probe = DiscProbe(center, args.radius, DensityClass(args.theta), args.h)
    report = verify_main_inequality(mesh, probe, args.eps_area)
    if args.csv:
        _write_curve_csv(args, mesh, center)
    out = {
        "command": "mesh-verify",
        "input": args.input,
        "center": center,
        "radius": args.radius,
        "theta_class": args.theta,
        "h": args.h,
        "formula": "clipped_area - eps >= theta*exp(-2*h*R)*pi*R^2",
    }
    out.update(report.to_json())
    return out


def _write_curve_csv(args, mesh, center) -> None:
    if args.curve_points < 1:
        raise ValueError("--curve-points must be at least 1")
    theta = DensityClass(args.theta).theta
    radii = np.linspace(args.radius / args.curve_points, args.radius, args.curve_points)
    rows = ["radius,bound,measured_area"]
    for r in radii:
        probe = DiscProbe(center, float(r), DensityClass(args.theta), args.h)
        measured = clipped_area(mesh, probe, args.eps_area)
        bound = main_theorem_bound(theta, args.h, float(r))
        rows.append(f"{float(r):.17g},{bound:.17g},{measured:.17g}")
    with open(args.csv, "w", encoding="utf-8") as f:
        f.write("\n".join(rows) + "\n")


def cmd_mesh_angles(args) -> dict:
    if not 0.0 <= args.angle_tol < math.inf:
        raise ValueError(f"--angle-tol must be finite and >= 0, got {args.angle_tol}")
    mesh = load_mesh(args.input)
    report = plateau_angle_check(mesh, args.angle_tol)
    out = {"command": "mesh-angles", "input": args.input}
    out.update(report.to_json())
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    parse_args returns a fresh namespace filled from the defaults on every
    call, so one parser serves any number of main() calls.
    """
    parser = argparse.ArgumentParser(
        prog="foambounds",
        description="Certified lower bounds for the surface area of Plateau foams.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--output", help="write the JSON report here (default stdout)")
        return p

    for name, func, help_text in (
        ("eva", cmd_eva, "maximize eva over the full point set"),
        ("eva-exact", cmd_eva_exact, "exact evA over all point subsets"),
        ("eva-greedy", cmd_eva_greedy, "greedy evA search (drops collapsed points)"),
    ):
        p = add(name, func, help_text)
        p.add_argument("--input", required=True, help="instance JSON path")
        p.add_argument("--h", type=float, default=None, help="override the curvature bound")
        if name == "eva":
            p.add_argument("--dump-polytope", help="also dump the H-representation and vertices")
        if name == "eva-exact":
            p.add_argument("--max-exact-n", type=int, default=8, help="subset enumeration size cap")

    p = add("bounds-main", cmd_bounds_main, "disc area bound theta*exp(-2hR)*pi*R^2")
    p.add_argument("--theta", choices=["vertex", "edge", "face"], default="vertex")
    p.add_argument("--h", type=float, default=0.0)
    p.add_argument("--radius", type=float, required=True)

    p = add("bounds-compact", cmd_bounds_compact, "compact foam area bound")
    p.add_argument("--theta", choices=["vertex", "edge", "face"], default="vertex")
    p.add_argument("--h", type=float, required=True)

    p = add("bounds-kelvin", cmd_bounds_kelvin, "Kelvin cell area bound")
    p.add_argument("--edge-length", "-a", type=float, required=True)

    p = add("bounds-cost", cmd_bounds_cost, "cost function lower bound")
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--foam-vertices", type=int, required=True)
    p.add_argument("--volume", type=float, required=True)
    p.add_argument("--min-distance", type=float, required=True)
    p.add_argument("--periodic", action="store_true")

    p = add("bounds-pressure", cmd_bounds_pressure, "cell pressure lower bound")
    p.add_argument("--p-ext", type=float, default=0.0)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--vertex-density", type=float, required=True)
    p.add_argument("--min-distance", type=float, required=True)

    p = add("mesh-verify", cmd_mesh_verify, "verify the disc inequality on a mesh")
    p.add_argument("--input", required=True, help="OFF or JSON mesh path")
    p.add_argument("--center", required=True, help="probe center as 'x,y,z'")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--theta", choices=["vertex", "edge", "face"], default="face")
    p.add_argument("--h", type=float, default=0.0)
    p.add_argument("--eps-area", type=float, default=1e-3)
    p.add_argument("--csv", help="also write a (radius, bound, measured) curve CSV")
    p.add_argument("--curve-points", type=int, default=16)

    p = add("mesh-angles", cmd_mesh_angles, "check Plateau border and vertex angles")
    p.add_argument("--input", required=True, help="OFF or JSON mesh path")
    p.add_argument("--angle-tol", type=float, default=1.0, help="degrees")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except (UnboundedInstanceError, DegeneratePolytopeError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except (ValueError, KeyError, OSError, FoamBoundsError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.output)
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
