"""Seeded inputs, operation lists and per-operation checks for the benchmark.

Every operation is one ``foambounds`` CLI invocation (an argv list).  The
seed fixes the instances and their order.  Ops come in rounds: a round
holds one op of every stratum (kind, size, curvature, domain or fixture),
so runs on different seeds do the same amount of work of the same shape.

The checks recompute what a report claims from the generated instance,
independently of the library: radii feasibility from the raw points and
domain, the objective sum from the reported radii, closed-form scoop areas
on the flat fixtures, and known Plateau-border counts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Seed with reference values recorded in reference.json; another seed
# (HOLDOUT_SEED by convention) checks that a claim does not depend on it.
DEFAULT_SEED = 1
HOLDOUT_SEED = 2

THETA = {
    "vertex": 3.0 * math.acos(-1.0 / 3.0) / math.pi,
    "edge": 1.5,
    "face": 1.0,
}
CONVEXITY_COEFF = 2.0 - math.sqrt(2.0)

FEASIBILITY_TOL = 1e-9
VALUE_RTOL = 1e-12
REFERENCE_RTOL = 1e-9

# Octahedron |x| + |y| + |z| <= 1.5 as a half-space intersection.
_OCTA_NORMALS = [
    [sx / math.sqrt(3.0), sy / math.sqrt(3.0), sz / math.sqrt(3.0)]
    for sx in (1.0, -1.0)
    for sy in (1.0, -1.0)
    for sz in (1.0, -1.0)
]
DOMAINS = {
    "ball": {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
    "box": {"type": "box", "min": [-1.0, -1.0, -1.0], "max": [1.0, 1.0, 1.0]},
    "halfspaces": {
        "type": "halfspaces",
        "halfspaces": [{"normal": n, "offset": 1.5 / math.sqrt(3.0)} for n in _OCTA_NORMALS],
    },
}

# Mesh fixtures: (builder arguments, curvature bound h, density class of
# the probe centre, closed-form scoop area factor times R^2 or None,
# triple-edge count).  Flat fixtures are equality cases of the disc
# inequality, so their verify reports pass=false by design.
MESH_FIXTURES = {
    "icosphere": ({"subdivisions": 4}, 1.0, "face", None, 0),
    "cylinder": ({}, 0.5, "face", None, 0),
    "wedge": ({}, 0.0, "edge", 1.5 * math.pi, 1),
    "cone": ({}, 0.0, "vertex", 3.0 * math.acos(-1.0 / 3.0), 4),
    "sheet": ({}, 0.0, "face", math.pi, 0),
}
# (radius, eps) probes per fixture and round; the 1e-4 budget only at the
# small radius.  The cheap probe runs at three centres so that a run holds
# 100+ ops and the slowest tenth of them is the 1e-4 probes.
MESH_PROBES = ((0.3, 1e-3), (0.3, 1e-3), (0.3, 1e-3), (0.3, 1e-4), (0.6, 1e-3))

# Rounds of distinct instances generated per seed; a run cycles through them.
ROUNDS = 8


class WrongResult(Exception):
    """A report that parsed but contradicts the instance."""


@dataclass(eq=False)
class Op:
    """One CLI call and what its report must satisfy."""

    key: str
    kind: str
    argv: list
    spec: dict = field(default_factory=dict)
    stratum: int = 0


# ---------------------------------------------------------------------------
# Instance generation


def _points(rng: np.random.Generator, domain: dict, n_boundary: int, n_interior: int) -> np.ndarray:
    """Points near the boundary first, then well-separated interior points.

    Boundary points (distance 0.03-0.15 to the boundary) cap every radius
    budget they touch below (2 - sqrt(2))/3, so at h = 3 only subsets with
    two or more interior points, or a lone interior point, leave the
    certified-convex regime.  The mix fixes how many subsets need the local
    ascent, and with it the cost of an instance, for every seed.
    """
    half = 1.5 if domain["type"] == "halfspaces" else 1.0
    pts: list[np.ndarray] = []
    while len(pts) < n_boundary + n_interior:
        p = rng.uniform(-half, half, size=3)
        bd = _boundary_distance(p, domain)
        gap = min((float(np.linalg.norm(p - q)) for q in pts), default=math.inf)
        if len(pts) < n_boundary:
            ok = 0.03 <= bd <= 0.15 and gap > 0.1
        else:
            ok = bd >= 0.25 and gap > 0.25
        if ok:
            pts.append(p)
    return np.array(pts)


def _instance(rng: np.random.Generator, domain_name: str, mix: tuple, h: float) -> dict:
    domain = DOMAINS[domain_name]
    classes = [str(c) for c in rng.choice(["vertex", "edge", "face"], size=sum(mix))]
    return {
        "points": _points(rng, domain, *mix).tolist(),
        "classes": classes,
        "domain": domain,
        "h": h,
    }


def _eva_rounds(rng, strata, workdir: Path, prefix: str) -> list[list[Op]]:
    """ROUNDS rounds, each one fresh instance per stratum in shuffled order."""
    rounds = []
    for r in range(ROUNDS):
        ops = []
        for i in rng.permutation(len(strata)):
            kind, domain_name, mix, h = strata[i]
            inst = _instance(rng, domain_name, mix, h)
            key = f"{prefix}{r:02d}-{len(ops):02d}"
            path = workdir / f"{key}.json"
            path.write_text(json.dumps(inst), encoding="utf-8")
            ops.append(Op(key, kind, [kind, "--input", str(path)], {"instance": inst}, int(i)))
        rounds.append(ops)
    return rounds


def exact_subsets_rounds(rng, workdir: Path) -> list[list[Op]]:
    strata = [
        ("eva-exact", d, mix, h)
        for d in DOMAINS
        for mix in ((2, 3), (3, 3))
        for h in (0.0, 0.3, 3.0)
    ]
    return _eva_rounds(rng, strata, workdir, "x")


def large_polytope_rounds(rng, workdir: Path) -> list[list[Op]]:
    # h = 0.3 keeps every budget (at most 1 here) inside the certified
    # regime, (2 - sqrt(2))/0.3 = 1.95, so no op runs the local ascent.
    strata = [
        (kind, d, mix, h)
        for kind in ("eva", "eva-greedy")
        for d in DOMAINS
        for mix in ((0, 7), (1, 7))
        for h in (0.0, 0.3)
    ]
    return _eva_rounds(rng, strata, workdir, "p")


def _probe_center(rng: np.random.Generator, fixture: str) -> list[float]:
    if fixture == "icosphere":
        v = rng.normal(size=3)
        return (v / np.linalg.norm(v)).tolist()
    if fixture == "cylinder":
        t = rng.uniform(0.0, 2.0 * math.pi)
        return [math.cos(t), math.sin(t), float(rng.uniform(-1.0, 1.0))]
    if fixture == "wedge":
        return [0.0, 0.0, float(rng.uniform(-1.0, 1.0))]
    if fixture == "cone":
        return [0.0, 0.0, 0.0]
    return [float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)), 0.0]


def mesh_probe_rounds(rng, workdir: Path) -> list[list[Op]]:
    from foambounds import meshes
    from foambounds.meshcheck import save_off

    builders = {
        "icosphere": meshes.icosphere,
        "cylinder": meshes.cylinder_tube,
        "wedge": meshes.triple_wedge,
        "cone": meshes.tetrahedral_cone,
        "sheet": meshes.flat_sheet,
    }
    paths = {}
    for name, (kwargs, *_rest) in MESH_FIXTURES.items():
        paths[name] = workdir / f"{name}.off"
        save_off(builders[name](**kwargs), paths[name])
    jobs = [(name, probe) for name in MESH_FIXTURES for probe in MESH_PROBES + (None,)]
    rounds = []
    for r in range(ROUNDS):
        ops = []
        for i in rng.permutation(len(jobs)):
            name, probe = jobs[i]
            _, h, theta, closed, triple = MESH_FIXTURES[name]
            key = f"m{r:02d}-{len(ops):02d}"
            if probe is None:
                argv = ["mesh-angles", "--input", str(paths[name])]
                ops.append(Op(key, "mesh-angles", argv, {"fixture": name, "triple": triple}, int(i)))
                continue
            radius, eps = probe
            center = _probe_center(rng, name)
            argv = [
                "mesh-verify", "--input", str(paths[name]),
                "--center=" + ",".join(repr(c) for c in center),
                "--radius", repr(radius), "--theta", theta, "--h", repr(h),
                "--eps-area", repr(eps),
            ]
            spec = {"fixture": name, "radius": radius, "eps": eps, "h": h, "theta": theta,
                    "closed": None if closed is None else closed * radius ** 2}
            ops.append(Op(key, "mesh-verify", argv, spec, int(i)))
        rounds.append(ops)
    return rounds


BUILDERS = {
    "exact-subsets": exact_subsets_rounds,
    "large-polytope": large_polytope_rounds,
    "mesh-probe": mesh_probe_rounds,
}


def build_rounds(workload: str, seed: int, workdir: Path) -> list[list[Op]]:
    """Generate the workload's inputs into workdir; return its rounds of ops."""
    rng = np.random.default_rng([seed, list(BUILDERS).index(workload)])
    return BUILDERS[workload](rng, workdir)


# ---------------------------------------------------------------------------
# Checks


def _boundary_distance(p: np.ndarray, domain: dict) -> float:
    kind = domain["type"]
    if kind == "ball":
        return domain["radius"] - float(np.linalg.norm(p - np.array(domain["center"])))
    if kind == "box":
        return float(min(np.min(p - domain["min"]), np.min(np.array(domain["max"]) - p)))
    return float(min(hs["offset"] - float(np.dot(hs["normal"], p)) for hs in domain["halfspaces"]))


def _budgets(inst: dict):
    """Pairwise distances, boundary distances and the radius cap 1/h."""
    pts = np.array(inst["points"])
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    bd = np.array([_boundary_distance(p, inst["domain"]) for p in pts])
    cap = math.inf if inst["h"] == 0.0 else 1.0 / inst["h"]
    return dist, bd, cap


def certified(inst: dict) -> bool:
    """True when every radius budget lies in the certified-convex regime."""
    h = inst["h"]
    if h == 0.0:
        return True
    dist, bd, cap = _budgets(inst)
    pair = np.minimum(np.minimum(dist, np.minimum(bd[:, None], bd[None, :])), cap)
    np.fill_diagonal(pair, np.minimum(bd, cap))
    return float(np.max(pair)) <= CONVEXITY_COEFF / h


def objective(radii, thetas, h: float) -> float:
    return math.fsum(
        math.pi * t * math.exp(-2.0 * h * r) * r * r for r, t in zip(radii, thetas)
    )


def _check_eva(op: Op, report: dict) -> float:
    inst = op.spec["instance"]
    h = inst["h"]
    value = report["eva"] if op.kind == "eva" else report["evA"]
    subset = list(range(len(inst["points"]))) if op.kind == "eva" else report["subset"]
    radii = np.array(report["radii"], dtype=float)
    if len(radii) != len(subset) or not subset:
        raise WrongResult(f"{len(radii)} radii for subset {subset}")
    dist, bd, cap = _budgets(inst)
    tol = FEASIBILITY_TOL
    if np.any(radii < -tol):
        raise WrongResult("negative radius")
    if np.any(radii > bd[subset] + tol) or np.any(radii > cap + tol):
        raise WrongResult("radius exceeds its boundary distance or 1/h")
    sums = radii[:, None] + radii[None, :]
    sub = dist[np.ix_(subset, subset)]
    off = ~np.eye(len(subset), dtype=bool)
    if np.any(sums[off] > sub[off] + tol):
        raise WrongResult("two discs overlap: r_i + r_j > d_ij")
    thetas = [THETA[inst["classes"][i]] for i in subset]
    expect = objective(radii, thetas, h)
    if abs(value - expect) > VALUE_RTOL * max(1.0, abs(expect)):
        raise WrongResult(f"reported value {value!r} != objective {expect!r} of its radii")
    return value


def _check_mesh_verify(op: Op, report: dict) -> float:
    s = op.spec
    area, unc, eps = report["clipped_area"], report["uncertainty"], s["eps"]
    if not unc <= eps:
        raise WrongResult(f"uncertainty {unc!r} above eps {eps!r}")
    rhs = THETA[s["theta"]] * math.exp(-2.0 * s["h"] * s["radius"]) * math.pi * s["radius"] ** 2
    if abs(report["rhs"] - rhs) > VALUE_RTOL * rhs:
        raise WrongResult(f"rhs {report['rhs']!r} != bound {rhs!r}")
    if s["closed"] is not None:
        if abs(area - s["closed"]) > max(eps, unc):
            raise WrongResult(f"area {area!r} off closed form {s['closed']!r}")
    elif report["passed"] is not True:
        raise WrongResult("curved fixture failed the disc inequality")
    return area


def _check_mesh_angles(op: Op, report: dict) -> float:
    if report["triple_edge_count"] != op.spec["triple"]:
        raise WrongResult(
            f"{report['triple_edge_count']} triple edges, expected {op.spec['triple']}"
        )
    if report["passed"] is not True:
        raise WrongResult("Plateau angle check failed")
    return report["max_deviation_deg"]


_CHECKS = {
    "eva": _check_eva,
    "eva-exact": _check_eva,
    "eva-greedy": _check_eva,
    "mesh-verify": _check_mesh_verify,
    "mesh-angles": _check_mesh_angles,
}


def check(op: Op, report: dict, reference: dict | None) -> float:
    """Raise WrongResult unless the report is right; return its headline value.

    With a reference (the default seed), certified eva values must match it
    to REFERENCE_RTOL and uncertified ones (local ascent outside the convex
    regime) must not fall below it.  Clipped areas are estimates within eps
    of the true area, so two of them agree to within 2 eps.
    """
    value = _CHECKS[op.kind](op, report)
    if reference is None:
        return value
    ref = reference[op.key]["value"]
    if op.kind == "mesh-verify":
        ok = abs(value - ref) <= 2.0 * op.spec["eps"]
    elif "instance" in op.spec and not certified(op.spec["instance"]):
        ok = value >= ref - REFERENCE_RTOL * abs(ref)
    else:
        ok = abs(value - ref) <= REFERENCE_RTOL * abs(ref) + 1e-12
    if not ok:
        raise WrongResult(f"value {value!r} disagrees with reference {ref!r}")
    return value
