"""Mesh loading, ball-clipped areas, and the numerical inequality checks."""

import itertools
import json
import math
import types
import warnings

import numpy as np
import pytest

from foambounds import (
    DensityClass,
    DiscProbe,
    FoamMesh,
    MeshFormatError,
    MeshInvariantError,
    clipped_area,
    load_mesh,
    plateau_angle_check,
    save_off,
    verify_main_inequality,
)
from foambounds import meshcheck
from foambounds.geometry import THETA_V_PI
from foambounds.meshcheck import _clipped_area_detail, pairwise_sum
from foambounds.meshes import (
    cylinder_tube,
    flat_sheet,
    icosphere,
    tetrahedral_cone,
    triple_wedge,
)


@pytest.fixture(scope="module")
def unit_sphere() -> FoamMesh:
    return icosphere(4, 1.0)


ALL_FIXTURES = (
    lambda: icosphere(4, 1.0), cylinder_tube, triple_wedge, tetrahedral_cone, flat_sheet,
)


# --- loading and validation -------------------------------------------------


def test_off_roundtrip_icosphere(tmp_path, unit_sphere):
    path = tmp_path / "sphere.off"
    save_off(unit_sphere, path)
    mesh = load_mesh(path)
    assert len(mesh.triangles) == 5120  # 20 * 4^4
    assert np.allclose(mesh.vertices, unit_sphere.vertices)
    assert np.array_equal(mesh.triangles, unit_sphere.triangles)


def test_off_requires_header(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("PLY\n3 1 0\n")
    with pytest.raises(MeshFormatError, match="line 1"):
        load_mesh(path)


def test_off_reports_bad_vertex_line(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n")
    with pytest.raises(MeshFormatError, match="line 4"):
        load_mesh(path)


def test_off_rejects_non_triangles(tmp_path):
    path = tmp_path / "quad.off"
    path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(MeshFormatError, match="triangular"):
        load_mesh(path)


def test_off_truncated_file(tmp_path):
    path = tmp_path / "short.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n")
    with pytest.raises(MeshFormatError, match="ended"):
        load_mesh(path)


def test_off_comments_ignored(tmp_path):
    path = tmp_path / "comments.off"
    path.write_text(
        "# a comment\nOFF\n# counts\n3 1 0\n0 0 0 # origin\n1 0 0\n0 1 0\n3 0 1 2\n"
    )
    mesh = load_mesh(path)
    assert len(mesh.triangles) == 1


def test_empty_face_list_rejected(tmp_path):
    path = tmp_path / "empty.off"
    path.write_text("OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n")
    with pytest.raises(MeshInvariantError, match="no triangles"):
        load_mesh(path)


# --- OFF parsing against the line-by-line reference -------------------------


def reference_load_off(path) -> FoamMesh:
    """The former line-by-line OFF parser, kept as an oracle for `load_mesh`.

    Numbers go through Python's int() and float(), which also accept `_`
    separators and non-ASCII digits; `load_mesh` rejects both, so the
    corpus below has neither.  The nonnegative-counts check matches
    `load_mesh` (before it, a negative count reached np.zeros).
    """

    def content_lines():
        with open(path, "r", encoding="utf-8") as f:
            for lineno, raw in enumerate(f, start=1):
                text = raw.split("#", 1)[0].strip()
                if text:
                    yield lineno, text

    lines = content_lines()

    def next_line(what: str):
        try:
            return next(lines)
        except StopIteration:
            raise MeshFormatError(f"file ended before {what}") from None

    lineno, header = next_line("the OFF header")
    if header != "OFF":
        raise MeshFormatError(f"expected 'OFF' header, found {header!r}", lineno)
    lineno, counts = next_line("the counts line")
    parts = counts.split()
    if len(parts) != 3:
        raise MeshFormatError("counts line must be 'nv nf ne'", lineno)
    try:
        nv, nf, _ = (int(p) for p in parts)
    except ValueError:
        raise MeshFormatError("counts must be integers", lineno) from None
    if nv < 0 or nf < 0:
        raise MeshFormatError("counts must be nonnegative", lineno)
    vertices = np.zeros((nv, 3))
    for i in range(nv):
        lineno, text = next_line(f"vertex {i}")
        parts = text.split()
        if len(parts) != 3:
            raise MeshFormatError("vertex line needs 3 coordinates", lineno)
        try:
            vertices[i] = [float(p) for p in parts]
        except ValueError:
            raise MeshFormatError("vertex coordinates must be numbers", lineno) from None
    triangles = np.zeros((nf, 3), dtype=int)
    for i in range(nf):
        lineno, text = next_line(f"face {i}")
        parts = text.split()
        try:
            k = int(parts[0])
        except (ValueError, IndexError):
            raise MeshFormatError("face line must start with a vertex count", lineno) from None
        if k != 3:
            raise MeshFormatError(f"only triangular faces are supported, got {k}", lineno)
        if len(parts) < 4:
            raise MeshFormatError("face line needs 3 vertex indices", lineno)
        try:
            triangles[i] = [int(p) for p in parts[1:4]]
        except ValueError:
            raise MeshFormatError("face indices must be integers", lineno) from None
    return FoamMesh(vertices, triangles)


def _parse_outcome(load, path):
    """The arrays a parser returns, or the type and message of its error."""
    try:
        mesh = load(path)
    except (MeshFormatError, MeshInvariantError) as exc:
        return type(exc).__name__, str(exc)
    return (
        "ok",
        mesh.vertices.dtype,
        mesh.vertices.shape,
        mesh.vertices.tobytes(),
        mesh.triangles.dtype,
        mesh.triangles.shape,
        mesh.triangles.tobytes(),
    )


_CORPUS_BASES = (
    "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
    "OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2 255 0 0\n3 0 1 3\n",
)
_CORPUS_TOKENS = (
    "0", "1", "2", "3", "4", "-1", "+2", "007", "-0", "1.5", "-0.0", ".5", "5.",
    "1e3", "1E-2", "1e400", "nan", "-inf", "Infinity", "3.0", "x", "OFF",
    "1,0", "0x1", "--1", "1e", "+", "#", "#c",
)


def _mutated_off(rng: np.random.Generator, base: str) -> str:
    """`base` with 1-3 token or line edits, odd spacing and a random line ending."""
    lines = base.splitlines()
    for _ in range(rng.integers(1, 4)):
        i = int(rng.integers(len(lines) + 1))
        kind = rng.integers(9)
        if kind == 0:
            lines.insert(i, "")
        elif kind == 1:
            lines.insert(i, "# comment 3 0 1")
        elif kind == 2:
            del lines[i:]
        elif i == len(lines):
            continue
        elif kind == 3:
            del lines[i]
        elif kind == 8:
            lines[i] += " # note"
        else:
            tokens = lines[i].split()
            j = int(rng.integers(len(tokens) + 1))
            if kind in (4, 5):
                tokens.insert(j, str(rng.choice(_CORPUS_TOKENS)))
            elif j < len(tokens) and kind == 6:
                del tokens[j]
            elif j < len(tokens):
                tokens[j] = str(rng.choice(_CORPUS_TOKENS))
            # \f and \u2028 separate tokens but, in a file, not lines.
            lines[i] = str(rng.choice([" ", "\t", "  ", "\f", "\u2028"])).join(tokens)
    ending = str(rng.choice(["\n", "\n", "\r\n", "\r"]))
    return ending.join(lines) + ending * int(rng.integers(2))


def test_off_parser_matches_line_by_line_reference(tmp_path):
    rng = np.random.default_rng(20261018)
    bases = list(_CORPUS_BASES)
    for mesh in (triple_wedge(1.0), tetrahedral_cone(1.0), flat_sheet(1.0)):
        save_off(mesh, tmp_path / "base.off")
        bases.append((tmp_path / "base.off").read_text())
    kinds = set()
    for n in range(1500):
        path = tmp_path / f"m{n}.off"
        path.write_bytes(_mutated_off(rng, bases[n % len(bases)]).encode())
        outcome = _parse_outcome(load_mesh, path)
        assert outcome == _parse_outcome(reference_load_off, path), path.read_bytes()
        kinds.add(outcome[0] if outcome[0] == "ok" else outcome[1].split(": ")[-1].split(",")[0])
    # The corpus reaches a valid mesh and every parse error.
    assert {
        "ok",
        "expected 'OFF' header",
        "counts line must be 'nv nf ne'",
        "counts must be integers",
        "counts must be nonnegative",
        "vertex line needs 3 coordinates",
        "vertex coordinates must be numbers",
        "face line must start with a vertex count",
        "only triangular faces are supported",
        "face line needs 3 vertex indices",
        "face indices must be integers",
    } <= kinds
    for before in ("the OFF header", "the counts line", "vertex", "face"):
        assert any(k.startswith(f"file ended before {before}") for k in kinds)


def _off_with_noise(counts, vertices, faces) -> str:
    """An OFF file with a comment and a blank line before every content
    line, trailing comments and CRLF endings: content line k (0-based)
    is file line 3k + 3."""
    rows = []
    for text in ("OFF", counts, *vertices, *faces):
        rows += ["# note", "", f"{text}  # trailing"]
    return "\r\n".join(rows) + "\r\n"


_GOOD_VERTICES = ("0 0 0", "1 0 0", "0 1 0", "0 0 1")
_GOOD_FACES = ("3 0 1 2", "3 0 1 3")


def _replaced(rows, i, text):
    return rows[:i] + (text,) + rows[i + 1:]


@pytest.mark.parametrize(
    "counts, vertices, faces, line, message",
    [
        ("3 1", _GOOD_VERTICES, _GOOD_FACES, 6, "counts line must be 'nv nf ne'"),
        ("4 x 0", _GOOD_VERTICES, _GOOD_FACES, 6, "counts must be integers"),
        ("-1 1 0", _GOOD_VERTICES, _GOOD_FACES, 6, "counts must be nonnegative"),
        ("3 -1 0", _GOOD_VERTICES, _GOOD_FACES, 6, "counts must be nonnegative"),
        ("4 2 0", _replaced(_GOOD_VERTICES, 1, "1 0"), _GOOD_FACES, 12,
         "vertex line needs 3 coordinates"),
        ("4 2 0", _replaced(_GOOD_VERTICES, 3, "0 0 1 1"), _GOOD_FACES, 18,
         "vertex line needs 3 coordinates"),
        ("4 2 0", _replaced(_GOOD_VERTICES, 2, "0 y 0"), _GOOD_FACES, 15,
         "vertex coordinates must be numbers"),
        ("4 2 0", _GOOD_VERTICES, _replaced(_GOOD_FACES, 1, "x 0 1 3"), 24,
         "face line must start with a vertex count"),
        ("4 2 0", _GOOD_VERTICES, _replaced(_GOOD_FACES, 1, "4 0 1 2 3"), 24,
         "only triangular faces are supported, got 4"),
        ("4 2 0", _GOOD_VERTICES, _replaced(_GOOD_FACES, 0, "3 0 1"), 21,
         "face line needs 3 vertex indices"),
        ("4 2 0", _GOOD_VERTICES, _replaced(_GOOD_FACES, 1, "3 0 1 3.0"), 24,
         "face indices must be integers"),
    ],
)
def test_off_error_line_numbers(tmp_path, counts, vertices, faces, line, message):
    path = tmp_path / "bad.off"
    path.write_bytes(_off_with_noise(counts, vertices, faces).encode())
    with pytest.raises(MeshFormatError) as info:
        load_mesh(path)
    assert str(info.value) == f"line {line}: {message}"
    assert info.value.line == line


@pytest.mark.parametrize(
    "keep, message",
    [(4, "file ended before vertex 2"), (7, "file ended before face 1")],
)
def test_off_truncation_has_no_line(tmp_path, keep, message):
    text = _off_with_noise("4 2 0", _GOOD_VERTICES, _GOOD_FACES)
    path = tmp_path / "short.off"
    path.write_bytes("\r\n".join(text.split("\r\n")[: 3 * keep]).encode())
    with pytest.raises(MeshFormatError) as info:
        load_mesh(path)
    assert str(info.value) == message and info.value.line is None


def test_off_header_error_line(tmp_path):
    path = tmp_path / "bad.off"
    path.write_bytes(_off_with_noise("4 2 0", _GOOD_VERTICES, _GOOD_FACES)
                     .replace("OFF ", "PLY ").encode())
    with pytest.raises(MeshFormatError, match=r"^line 3: expected 'OFF' header, found 'PLY'$"):
        load_mesh(path)


def test_off_ignores_face_colour_tokens(tmp_path):
    faces = ("3 0 1 2 255 0 0", "3 0 1 3 0.5 red")
    path = tmp_path / "colour.off"
    path.write_bytes(_off_with_noise("4 2 0", _GOOD_VERTICES, faces).encode())
    assert load_mesh(path).triangles.tolist() == [[0, 1, 2], [0, 1, 3]]


@pytest.mark.parametrize(
    "counts, vertices, faces, line, message",
    [
        ("4 2 0", _replaced(_GOOD_VERTICES, 1, "1_0 0 0"), _GOOD_FACES, 12,
         "vertex coordinates must be numbers"),
        ("4 2 0", _replaced(_GOOD_VERTICES, 1, "١ 0 0"), _GOOD_FACES, 12,
         "vertex coordinates must be numbers"),
        ("4 2 0", _GOOD_VERTICES, _replaced(_GOOD_FACES, 1, "3 0 1 0_3"), 24,
         "face indices must be integers"),
        ("4 0_2 0", _GOOD_VERTICES, _GOOD_FACES, 6, "counts must be integers"),
    ],
)
def test_off_rejects_python_only_number_syntax(tmp_path, counts, vertices, faces, line, message):
    # Python's int() and float() accept `_` separators and non-ASCII
    # digits (so the line-by-line reference reads these files); the numpy
    # grammar of load_mesh does not.
    path = tmp_path / "odd.off"
    path.write_bytes(_off_with_noise(counts, vertices, faces).encode())
    reference_load_off(path)
    with pytest.raises(MeshFormatError) as info:
        load_mesh(path)
    assert str(info.value) == f"line {line}: {message}"


def _loadtxt_with_float_fallback(loadtxt):
    """np.loadtxt as numpy releases with the deprecated float fallback read
    integers: a float token warns, then is cast; the warning raised as an
    error surfaces as ValueError."""

    def fallback(lines, dtype=float, **kwargs):
        if dtype is not int:
            return loadtxt(lines, dtype=dtype, **kwargs)
        rows = []
        for line in lines:
            tokens = line.split()
            for k, token in enumerate(tokens):
                if token.lstrip("+-").isdigit():
                    continue
                try:
                    warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                                  DeprecationWarning)
                except DeprecationWarning as exc:
                    raise ValueError(f"could not convert string {token!r} to int64") from exc
                tokens[k] = str(int(float(token)))
            rows.append(" ".join(tokens))
        return loadtxt(rows, dtype=dtype, **kwargs)

    return fallback


@pytest.mark.parametrize("float_fallback", [False, True])
@pytest.mark.parametrize(
    "counts, faces, line, message",
    [
        ("4.0 2 0", _GOOD_FACES, 6, "counts must be integers"),
        ("4 2 0", _replaced(_GOOD_FACES, 1, "3.0 0 1 3"), 24,
         "face line must start with a vertex count"),
        ("4 2 0", _replaced(_GOOD_FACES, 1, "3 0 1 2.7"), 24, "face indices must be integers"),
    ],
)
def test_off_integers_reject_floats_under_any_warning_filter(
    tmp_path, monkeypatch, float_fallback, counts, faces, line, message
):
    # The CLI runs with DeprecationWarning ignored, unlike this suite; the
    # parser must reject a float token for an integer there too, also on
    # numpy releases that would otherwise read it as a float.
    if float_fallback:
        monkeypatch.setattr(np, "loadtxt", _loadtxt_with_float_fallback(np.loadtxt))
    path = tmp_path / "float.off"
    path.write_bytes(_off_with_noise(counts, _GOOD_VERTICES, faces).encode())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        with pytest.raises(MeshFormatError) as info:
            load_mesh(path)
    assert str(info.value) == f"line {line}: {message}"


@pytest.mark.parametrize("make", [lambda: icosphere(4, 1.0), cylinder_tube])
def test_off_roundtrip_bit_exact(tmp_path, make):
    mesh = make()
    path = tmp_path / "mesh.off"
    save_off(mesh, path)
    loaded = load_mesh(path)
    assert loaded.vertices.tobytes() == mesh.vertices.tobytes()
    assert loaded.triangles.tobytes() == mesh.triangles.tobytes()


def _noisy_icosphere_off(faces=None) -> tuple[FoamMesh, str]:
    """icosphere(4) as an OFF file with every kind of noise the reader skips:
    a comment and a blank line before each content line, trailing comments,
    CRLF endings, tab and form-feed separators, and colour tokens after
    each face."""
    mesh = icosphere(4, 1.0)
    vertices = [f"{x:.17g}\t{y:.17g}\f{z:.17g}" for x, y, z in mesh.vertices.tolist()]
    if faces is None:
        faces = [f"3\t{i} {j}\f{k} 255 0 0" for i, j, k in mesh.triangles.tolist()]
    return mesh, _off_with_noise(f"{len(vertices)} {len(faces)} 0", vertices, faces)


def test_off_noise_at_scale_loads_bit_identically(tmp_path):
    mesh, text = _noisy_icosphere_off()
    clean, noisy = tmp_path / "clean.off", tmp_path / "noisy.off"
    save_off(mesh, clean)
    noisy.write_bytes(text.encode())
    a, b = load_mesh(clean), load_mesh(noisy)
    assert a.vertices.tobytes() == b.vertices.tobytes() == mesh.vertices.tobytes()
    assert a.triangles.tobytes() == b.triangles.tobytes() == mesh.triangles.tobytes()


def test_off_error_on_last_face_line_names_its_file_line(tmp_path):
    mesh = icosphere(4, 1.0)
    faces = [f"3 {i} {j} {k}" for i, j, k in mesh.triangles.tolist()]
    faces[-1] = "3 0 1 x"
    _, text = _noisy_icosphere_off(faces)
    path = tmp_path / "bad.off"
    path.write_bytes(text.encode())
    # Content line k is file line 3k + 3; the last face is content line
    # 1 + nv + nf.
    line = 3 * (1 + len(mesh.vertices) + len(faces)) + 3
    with pytest.raises(MeshFormatError) as info:
        load_mesh(path)
    assert str(info.value) == f"line {line}: face indices must be integers"
    assert text.split("\r\n")[line - 1].startswith("3 0 1 x")


def test_valid_off_never_walks_lines(tmp_path, monkeypatch):
    # Line numbers and the one-by-one walks are for error messages only.
    mesh, text = _noisy_icosphere_off()
    clean, noisy = tmp_path / "clean.off", tmp_path / "noisy.off"
    save_off(mesh, clean)
    noisy.write_bytes(text.encode())

    def forbidden(*args):
        raise AssertionError("error-path helper called on a valid file")

    for name in ("_file_line", "_raise_first_bad_vertex", "_raise_first_bad_face"):
        monkeypatch.setattr(meshcheck, name, forbidden)
    for path in (clean, noisy):
        assert len(load_mesh(path).triangles) == 5120


def test_save_off_matches_per_row_format(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.standard_normal(21000) * 10.0 ** rng.integers(-300, 300, 21000)
    values[:12] = [0.0, -0.0, 5e-324, -2.2e-310, 1.7976931348623157e308, 1.0,
                   0.1, 1e16, -1e-5, 123456789012345678.0, 2.0 ** -1074, 1 / 3]
    vertices = values.reshape(-1, 3)
    triangles = cylinder_tube().triangles
    path = tmp_path / "rows.off"
    save_off(types.SimpleNamespace(vertices=vertices, triangles=triangles), path)
    rows = ["OFF\n", f"{len(vertices)} {len(triangles)} 0\n"]
    rows += [f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n" for v in vertices]
    rows += [f"3 {t[0]} {t[1]} {t[2]}\n" for t in triangles]
    assert path.read_text() == "".join(rows)


def test_non_manifold_edge_named():
    # Four triangles share the edge (0, 1).
    verts = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
        ]
    )
    tris = np.array([(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5)])
    with pytest.raises(MeshInvariantError, match=r"\(0, 1\).*4 times"):
        FoamMesh(verts, tris)


def test_degenerate_triangle_rejected():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [0.0, 1, 0]])
    with pytest.raises(MeshInvariantError, match="degenerate"):
        FoamMesh(verts, np.array([(0, 1, 2), (0, 1, 3)]))


def test_out_of_range_index_rejected():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
    with pytest.raises(MeshInvariantError, match="out-of-range"):
        FoamMesh(verts, np.array([(0, 1, 5)]))


def test_json_mesh_schema(tmp_path):
    doc = {
        "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
        "triangles": [[0, 1, 2]],
        "patches": ["face-a"],
    }
    path = tmp_path / "mesh.json"
    import json

    path.write_text(json.dumps(doc))
    mesh = load_mesh(path)
    assert mesh.patches is not None and mesh.patches[0] == "face-a"


@pytest.mark.parametrize(
    "vertices, triangles, message",
    [
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2.7], [0, 1, 3]],
         "triangle 0 must be a list of JSON integers"),
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2], [0, True, 3]],
         "triangle 1 must be a list of JSON integers"),
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0], ["0", "0", "1"]], [[0, 1, 2], [0, 1, 3]],
         "vertex 3 must be a list of JSON numbers"),
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, False, 1]], [[0, 1, 2], [0, 1, 3]],
         "vertex 3 must be a list of JSON numbers"),
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2.0]],
         "triangle 0 must be a list of JSON integers"),
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], {"0": [0, 1, 2]},
         "mesh JSON needs a list of triangle rows"),
        # Ragged rows: numpy alone names no row ("inhomogeneous shape").
        ([[0, 0, 0], [1, 0], [0, 1, 0]], [[0, 1, 2]],
         "vertex 1 must hold 3 numbers, not 2"),
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2], [0, 1, 3, 2]],
         "triangle 1 must hold 3 integers, not 4"),
    ],
)
def test_json_mesh_rejects_coerced_numbers(tmp_path, vertices, triangles, message):
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({"vertices": vertices, "triangles": triangles}))
    with pytest.raises(MeshFormatError) as info:
        load_mesh(path)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "patches, message",
    [
        (["a", ["b", "c"]], "patch 1 must be a JSON scalar"),
        ({"0": "a", "1": "b"}, "mesh JSON 'patches' must be a list"),
    ],
)
def test_json_mesh_rejects_ragged_patches(tmp_path, patches, message):
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                "triangles": [[0, 1, 2], [0, 1, 3]], "patches": patches}))
    with pytest.raises(MeshFormatError) as info:
        load_mesh(path)
    assert str(info.value) == message


def test_json_mesh_accepts_integer_coordinates(tmp_path):
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({"vertices": [[0, 0, 0], [1.5, 0, 0], [0, 1, -0.0]],
                                "triangles": [[0, 1, 2]]}))
    mesh = load_mesh(path)
    assert mesh.vertices.dtype == float and mesh.triangles.tolist() == [[0, 1, 2]]


def test_plateau_border_edges_accepted():
    wedge = triple_wedge(1.0)
    _, counts = wedge.edge_use_counts()
    assert counts.max() == 3  # the axis is a legal triple edge


def test_edge_keys_match_row_unique():
    for mesh in (make() for make in ALL_FIXTURES):
        pairs = np.sort(mesh.triangles[:, [(0, 1), (1, 2), (2, 0)]].reshape(-1, 2), axis=1)
        assert np.array_equal(mesh._edge_keys(), pairs[:, 0] * len(mesh.vertices) + pairs[:, 1])
        want_edges, want_counts = np.unique(pairs, axis=0, return_counts=True)
        edges, counts = mesh.edge_use_counts()
        assert np.array_equal(edges, want_edges)
        assert np.array_equal(counts, want_counts)


@pytest.mark.parametrize("make", ALL_FIXTURES)
def test_validation_matches_the_library_formulas(make):
    # The hand-written areas and bounding box agree bit for bit with
    # np.cross + np.linalg.norm and an axis-0 max/min.
    mesh = make()
    v, t = mesh.vertices, mesh.triangles
    tris = v[t]
    cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    want = 0.5 * np.linalg.norm(cross, axis=1)
    assert meshcheck._triangle_areas(v, t).tobytes() == want.tobytes()
    assert mesh.scale == float(np.linalg.norm(v.max(axis=0) - v.min(axis=0)))
    lengths = np.linalg.norm(tris - tris[:, [1, 2, 0]], axis=2)
    assert mesh.longest_edge == pytest.approx(lengths.max(), rel=1e-15)


def test_written_out_cross_products_are_bit_identical():
    rng = np.random.default_rng(12)
    for exponent in range(-75, 76, 5):
        v = rng.standard_normal((60, 3)) * 10.0 ** exponent
        t = np.array([rng.choice(60, 3, replace=False) for _ in range(80)])
        tris = v[t]
        cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
        want = 0.5 * np.linalg.norm(cross, axis=1)
        assert meshcheck._triangle_areas(v, t).tobytes() == want.tobytes()
        for u, w in ((tris[:, 0], tris[:, 1]), (tris, tris[:, [1, 2, 0]])):
            assert meshcheck._cross(u, w).tobytes() == np.cross(u, w).tobytes()


def test_longest_edge_is_read_only(unit_sphere):
    with pytest.raises(AttributeError):
        unit_sphere.longest_edge = 1.0


# --- clipped area -----------------------------------------------------------


def test_sphere_cap_area(unit_sphere):
    o = unit_sphere.vertices[0]
    area = clipped_area(unit_sphere, DiscProbe(o, 1.0), eps=1e-3)
    assert area == pytest.approx(math.pi, rel=0.01)


def test_whole_sphere_area(unit_sphere):
    o = unit_sphere.vertices[0]
    area = clipped_area(unit_sphere, DiscProbe(o, 3.0), eps=1e-3)
    assert area == pytest.approx(unit_sphere.total_area(), abs=1e-3)
    assert area == pytest.approx(4.0 * math.pi, rel=2e-3)


def test_flat_plane_small_radius_density():
    # Density of a face point: area/(pi R^2) -> 1 as R -> 0.
    sheet = flat_sheet(1.0)
    for r in (0.25, 0.1, 0.04):
        eps = 1e-3 * math.pi * r * r
        area = clipped_area(sheet, DiscProbe([0, 0, 0], r), eps=eps)
        assert area / (math.pi * r * r) == pytest.approx(1.0, rel=2e-3)


def test_clipped_area_monotone_in_radius(unit_sphere):
    o = unit_sphere.vertices[0]
    radii = np.linspace(0.2, 2.2, 9)
    areas = [clipped_area(unit_sphere, DiscProbe(o, float(r)), eps=1e-4) for r in radii]
    diffs = np.diff(areas)
    assert np.all(diffs >= -2e-4)  # monotone up to the error budget


def test_clipped_area_matches_closed_forms():
    # Flat pieces through the centre: the disc area is exactly theta*pi*R^2.
    cases = [
        (triple_wedge(2.5), [0.0, 0.0, 0.0], 1.5 * math.pi),
        (triple_wedge(2.5), [0.0, 0.0, 0.7], 1.5 * math.pi),
        (tetrahedral_cone(2.5), [0.0, 0.0, 0.0], THETA_V_PI),
        (flat_sheet(2.0), [0.0, 0.0, 0.0], math.pi),
        (flat_sheet(2.0), [0.4, -0.3, 0.0], math.pi),
    ]
    for (mesh, center, theta_pi), radius in itertools.product(cases, (0.3, 1.0)):
        for eps in (1e-5, 1e-8):
            value, uncertainty = _clipped_area_detail(mesh, DiscProbe(center, radius), eps)
            assert value == pytest.approx(theta_pi * radius ** 2, abs=1e-12)
            assert uncertainty <= eps


def test_clipped_area_within_rounding_bound():
    # The same formula evaluated with 40 significant digits: the float
    # result must sit inside its reported rounding bound, also for
    # coordinates far from the origin and for slivers.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    sliver = FoamMesh(
        np.array([[0, 0, 0], [1, 0, 0], [0.5, 1e-5, 0], [0.5, -1e-5, 1e-6]], dtype=float),
        np.array([(0, 1, 2), (0, 3, 1)]),
    )
    sphere = icosphere(2, 1.0)
    far = triple_wedge(2.5)
    far = FoamMesh(far.vertices + 1e6, far.triangles)
    cases = [
        (tetrahedral_cone(2.5), [0.2, -0.1, 0.3], 0.9),
        (sliver, [0.4, 2e-6, -1e-6], 0.35),
        (sphere, sphere.vertices[7] + 1e-3, 1.3),
        (far, [1e6 + 0.3, 1e6 - 0.2, 1e6 + 0.1], 1.1),
    ]
    for mesh, center, radius in cases:
        value, uncertainty = _clipped_area_detail(mesh, DiscProbe(center, radius), 1e-3)
        reference = _clipped_area_mp(mp, mesh, center, radius)
        assert 0.0 < uncertainty < 1e-8
        assert abs(mp.mpf(value) - reference) <= uncertainty


def _clipped_area_mp(mp, mesh, center, radius):
    """Scalar high-precision evaluation of the circle-polygon sum."""

    def dot(p, q):
        return sum(x * y for x, y in zip(p, q))

    def cross(p, q):
        return [p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0]]

    def axpy(t, d, p):
        return [t * x + y for x, y in zip(d, p)]

    c = [mp.mpf(float(x)) for x in center]
    r = mp.mpf(radius)
    total = mp.mpf(0)
    for tri in mesh.triangles:
        w = [[mp.mpf(float(x)) - y for x, y in zip(mesh.vertices[k], c)] for k in tri]
        normal = cross(axpy(-1, w[0], w[1]), axpy(-1, w[0], w[2]))
        n = [x / mp.sqrt(dot(normal, normal)) for x in normal]
        delta = dot(w[0], n)
        if abs(delta) >= r:
            continue
        rho2 = r * r - delta * delta
        a = [axpy(-delta, n, p) for p in w]
        signed = mp.mpf(0)
        for k in range(3):
            start, end = a[k], a[(k + 1) % 3]
            d = axpy(-1, start, end)
            dd, ad = dot(d, d), dot(start, d)
            disc = ad * ad - dd * (dot(start, start) - rho2)
            t1 = t2 = mp.mpf(0)
            if disc > 0:
                t1 = min(max((-ad - mp.sqrt(disc)) / dd, 0), 1)
                t2 = min(max((-ad + mp.sqrt(disc)) / dd, 0), 1)
            p1, p2 = axpy(t1, d, start), axpy(t2, d, start)
            if t1 > 0:
                signed += rho2 * mp.atan2(dot(cross(start, p1), n), dot(start, p1)) / 2
            signed += dot(cross(p1, p2), n) / 2
            if t2 < 1:
                signed += rho2 * mp.atan2(dot(cross(p2, end), n), dot(p2, end)) / 2
        total += abs(signed)
    return total


def test_clipped_area_deterministic(unit_sphere):
    o = unit_sphere.vertices[0]
    a = clipped_area(unit_sphere, DiscProbe(o, 1.0), eps=1e-3)
    b = clipped_area(unit_sphere, DiscProbe(o, 1.0), eps=1e-3)
    assert a == b


# --- clipped area on degenerate geometry ------------------------------------


def test_probe_on_icosphere_vertex(unit_sphere):
    # The edges leaving the centre vertex start at a near-zero vector.
    o = unit_sphere.vertices[0]
    for radius in (0.05, 0.3, 1.0):
        on = clipped_area(unit_sphere, DiscProbe(o, radius), eps=1e-3)
        off = clipped_area(unit_sphere, DiscProbe(o + 1e-14, radius), eps=1e-3)
        assert on > 0.0
        assert on == pytest.approx(off, abs=1e-12)


def test_probe_on_icosphere_edge(unit_sphere):
    a, b = unit_sphere.vertices[unit_sphere.triangles[0][:2]]
    mid = 0.5 * (a + b)
    for radius in (0.01, 0.3):
        area = clipped_area(unit_sphere, DiscProbe(mid, radius), eps=1e-3)
        assert math.isfinite(area) and area > 0.0
        for shift in ([1e-12, 0, 0], [0, 1e-12, 0], [0, 0, 1e-12]):
            moved = clipped_area(unit_sphere, DiscProbe(mid + shift, radius), eps=1e-3)
            assert moved == pytest.approx(area, abs=1e-10)


@pytest.mark.parametrize("radius", [0.3, 1.0])
def test_probe_at_cone_apex(radius):
    cone = tetrahedral_cone(2.5)
    for center in ([0.0, 0.0, 0.0], [1e-12, 0.0, 0.0], [0.0, -1e-12, 1e-12]):
        area = clipped_area(cone, DiscProbe(center, radius), eps=1e-3)
        assert area == pytest.approx(THETA_V_PI * radius ** 2, abs=1e-12)


def test_ball_tangent_to_sheet():
    sheet = flat_sheet(2.0)
    assert clipped_area(sheet, DiscProbe([0.0, 0.0, 0.5], 0.5), eps=1e-3) == 0.0
    assert clipped_area(sheet, DiscProbe([0.3, -0.2, -0.25], 0.25), eps=1e-3) == 0.0


def test_ball_missing_the_mesh():
    # Centre 5 above the sheet: the ball misses every triangle's bounding
    # sphere, so no triangle is clipped and no rounding is charged.
    sheet = flat_sheet(2.0)
    assert _clipped_area_detail(sheet, DiscProbe([0.0, 0.0, 5.0], 0.5), 1e-3) == (0.0, 0.0)


def test_ball_containing_whole_mesh(unit_sphere):
    for mesh in (unit_sphere, triple_wedge(2.5), tetrahedral_cone(2.5)):
        area = clipped_area(mesh, DiscProbe([0.1, 0.0, -0.1], 10.0), eps=1e-3)
        assert area == pytest.approx(mesh.total_area(), abs=1e-12)


def _bounding_spheres(mesh, centre) -> tuple[np.ndarray, np.ndarray]:
    """|c| and s of every triangle, c its centroid relative to the centre and
    s its largest corner distance from c: the clip's bounding-sphere test,
    keep iff |c| <= R + s, run on the whole mesh as its former filter did.
    The oracle of the vertex prefilter."""
    w = mesh.vertices[mesh.triangles] - centre
    centroid = w.mean(axis=1)
    spread = np.linalg.norm(w - centroid[:, None], axis=2).max(axis=1)
    return np.linalg.norm(centroid, axis=1), spread


def _prefilter_cases():
    """(mesh, centre, radii) at 50 random centres, on a vertex and on an
    edge midpoint, plus a ball that misses each mesh and one that holds it."""
    rng = np.random.default_rng(21)
    for mesh in (icosphere(4, 1.0), cylinder_tube()):
        v, t = mesh.vertices, mesh.triangles
        lo, hi = v.min(axis=0) - 0.5, v.max(axis=0) + 0.5
        centres = [rng.uniform(lo, hi) for _ in range(50)]
        centres += [v[17], 0.5 * (v[t[5, 0]] + v[t[5, 1]])]
        for centre in centres:
            yield mesh, centre, (1e-3, 0.3, 0.6, 3.0)
        yield mesh, hi + 1.0, (0.5,)
        yield mesh, 0.5 * (lo + hi), (10.0,)


def test_clip_prefilter_matches_the_bounding_sphere_test(monkeypatch):
    everything = lambda mesh, probe: np.ones(len(mesh.triangles), dtype=bool)  # noqa: E731
    seen = []
    for mesh, centre, radii in _prefilter_cases():
        dist, spread = _bounding_spheres(mesh, centre)
        for radius in radii:
            probe = DiscProbe(centre, radius)
            near = meshcheck._near_triangles(mesh, probe)
            rows = np.flatnonzero(dist <= radius + spread)
            assert near[rows].all()
            seen.append("all" if near.all() else "some" if len(rows) else "none")
            if near.all():
                continue  # the prefilter drops nothing: both runs are one computation
            fast = _clipped_area_detail(mesh, probe, 1e-3)
            with monkeypatch.context() as patch:
                patch.setattr(meshcheck, "_near_triangles", everything)
                full = _clipped_area_detail(mesh, probe, 1e-3)
            assert [x.hex() for x in fast] == [float(x).hex() for x in full], (radius, centre)
    assert len(seen) == 2 * (52 * 4 + 2)
    assert set(seen) == {"all", "some", "none"}


@pytest.mark.parametrize("make", [lambda: icosphere(4, 1.0), cylinder_tube])
def test_clip_closed_form_runs_on_the_bounding_sphere_rows(make, monkeypatch):
    # Deterministic cost guard: the prefilter gathers a small part of the
    # mesh, and the closed form runs on exactly the bounding-sphere rows.
    mesh = make()
    summed = []
    monkeypatch.setattr(meshcheck, "pairwise_sum", lambda x: summed.append(len(x)) or 1.0)
    for vertex in (0, 100, 1000):
        probe = DiscProbe(mesh.vertices[vertex], 0.3)
        summed.clear()
        _clipped_area_detail(mesh, probe, 1e-3)
        dist, spread = _bounding_spheres(mesh, probe.center)
        rows = int(np.count_nonzero(dist <= probe.radius + spread))
        assert summed == [rows, rows]
        gathered = int(np.count_nonzero(meshcheck._near_triangles(mesh, probe)))
        assert rows <= gathered <= len(mesh.triangles) // 8


def test_clipped_area_validates_eps(unit_sphere):
    with pytest.raises(ValueError):
        clipped_area(unit_sphere, DiscProbe([0, 0, 0], 1.0), eps=0.0)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan])
def test_probe_radius_must_be_positive_and_finite(radius):
    with pytest.raises(ValueError, match="probe radius must be positive and finite"):
        DiscProbe([0.0, 0.0, 0.0], radius)


def test_pairwise_sum_matches_fsum():
    rng = np.random.default_rng(4)
    x = rng.normal(size=1000) * 10.0 ** rng.integers(-6, 6, size=1000)
    assert pairwise_sum(x) == pytest.approx(math.fsum(x), rel=1e-12)
    assert pairwise_sum([]) == 0.0


# --- the inequality ---------------------------------------------------------


def test_inequality_on_sphere(unit_sphere):
    o = unit_sphere.vertices[0]
    probe = DiscProbe(o, 1.0, DensityClass.FACE, h=1.0)
    report = verify_main_inequality(unit_sphere, probe, eps=1e-3)
    assert report.passed
    assert report.rhs == pytest.approx(math.pi * math.exp(-2.0), rel=1e-12)
    assert report.lhs >= report.rhs
    assert report.clipped_area == pytest.approx(math.pi, rel=0.01)


def test_inequality_equality_case_wedge():
    # Flat wings through the probe center: the bound is exactly attained.
    wedge = triple_wedge(2.5)
    probe = DiscProbe([0, 0, 0], 1.0, DensityClass.EDGE, h=0.0)
    report = verify_main_inequality(wedge, probe, eps=1e-3)
    assert report.ratio == pytest.approx(1.0, abs=5e-3)
    assert report.rhs == pytest.approx(1.5 * math.pi, rel=1e-12)


def test_inequality_equality_case_cone():
    cone = tetrahedral_cone(2.5)
    probe = DiscProbe([0, 0, 0], 1.0, DensityClass.VERTEX, h=0.0)
    report = verify_main_inequality(cone, probe, eps=1e-3)
    assert report.ratio == pytest.approx(1.0, abs=5e-3)
    assert report.rhs == pytest.approx(THETA_V_PI, rel=1e-12)


def test_inequality_on_cylinder():
    rho = 1.0
    tube = cylinder_tube(rho, height=6.0)
    o = tube.vertices[0]
    probe = DiscProbe(o, 1.5, DensityClass.FACE, h=1.0 / rho)
    report = verify_main_inequality(tube, probe, eps=1e-3)
    assert report.passed


def test_inequality_fixture_sweep(unit_sphere):
    # The numerical embodiment of the area bound on all fixture meshes.
    # Sphere and cylinder are strict cases and must certify; the wedge and
    # cone attain equality (flat pieces through the center), where the
    # certificate can only come within the error budget, so those verify
    # through the ratio.
    tube = cylinder_tube(1.0, 6.0)
    strict = [
        (unit_sphere, unit_sphere.vertices[0], DensityClass.FACE, 1.0, 0.8),
        (tube, tube.vertices[0], DensityClass.FACE, 1.0, 1.2),
    ]
    for mesh, center, cls, h, radius in strict:
        report = verify_main_inequality(
            mesh, DiscProbe(center, radius, cls, h), eps=1e-3
        )
        assert report.passed, (cls, h, radius)
    equality = [
        (triple_wedge(2.5), DensityClass.EDGE),
        (tetrahedral_cone(2.5), DensityClass.VERTEX),
    ]
    for mesh, cls in equality:
        report = verify_main_inequality(
            mesh, DiscProbe(np.zeros(3), 1.0, cls, 0.0), eps=1e-3
        )
        assert report.ratio == pytest.approx(1.0, abs=0.01)
        assert report.lhs >= report.rhs - 2e-3


# --- Plateau angles ---------------------------------------------------------


def test_exact_wedge_angles():
    report = plateau_angle_check(triple_wedge(2.0), angle_tol_degrees=1.0)
    assert report.passed
    assert report.max_deviation_deg == pytest.approx(0.0, abs=1e-9)
    assert report.checked_edge_count == 1


def test_wedge_at_118_degrees_fails():
    report = plateau_angle_check(
        triple_wedge(2.0, azimuths_deg=(0.0, 118.0, 240.0)), angle_tol_degrees=1.0
    )
    assert not report.passed
    assert report.max_deviation_deg == pytest.approx(2.0, abs=1e-9)


def test_tetrahedral_cone_vertex_angles():
    report = plateau_angle_check(tetrahedral_cone(2.0), angle_tol_degrees=1.0)
    assert report.passed
    assert report.checked_vertex_count == 1
    assert report.checked_edge_count == 4
    # All pairwise edge angles hit arccos(-1/3) = 109.4712... degrees.
    assert report.vertex_max_deviation_deg == pytest.approx(0.0, abs=1e-9)
    assert math.degrees(math.acos(-1.0 / 3.0)) == pytest.approx(109.4712, abs=1e-4)


@pytest.mark.parametrize("tol", [float("nan"), math.inf, -1.0])
def test_angle_tolerance_must_be_finite_and_nonnegative(tol):
    with pytest.raises(ValueError, match="angle tolerance"):
        plateau_angle_check(triple_wedge(2.0), angle_tol_degrees=tol)


def test_zero_angle_tolerance_is_accepted():
    assert plateau_angle_check(triple_wedge(2.0), angle_tol_degrees=0.0).angle_tol_deg == 0.0


def test_mesh_without_borders_reports_nothing(unit_sphere):
    report = plateau_angle_check(unit_sphere, angle_tol_degrees=1.0)
    assert report.triple_edge_count == 0
    assert report.passed
    assert report.max_deviation_deg == 0.0


def test_ambiguous_vertex_warns():
    # Three wings around each of two edges that meet at an interior vertex
    # with only 2+2 borders: gluing two wedges tip to tip gives a vertex
    # with two borders (skipped) but bending one arm creates a 3-border
    # vertex that cannot be a foam vertex.
    wedge = triple_wedge(2.0)
    verts = wedge.vertices.copy()
    tris = wedge.triangles.copy()
    # Attach three extra wings around the edge from the top axis vertex
    # (index 1) upward at a bend, creating vertex 1 with 2 borders: fine.
    top = np.array([0.5, 0.0, 4.0])
    base = len(verts)
    extra_verts = [top]
    extra_tris = []
    for az in (10.0, 130.0, 250.0):
        rad = math.radians(az)
        out = top + 2.0 * np.array([math.cos(rad), math.sin(rad), 0.0])
        extra_verts.append(out)
        k = base + len(extra_verts) - 1
        extra_tris.append((1, base, k))
    mesh = FoamMesh(np.vstack([verts, extra_verts]), np.vstack([tris, extra_tris]))
    report = plateau_angle_check(mesh, angle_tol_degrees=180.0)
    assert report.triple_edge_count == 2
    # Vertex 1 sits between two borders: skipped silently, no warning needed.
    assert report.checked_vertex_count == 0


def test_vertex_with_six_borders_warns():
    # A cone over the triangular prism graph: one triangle (apex, a, b) per
    # prism edge a-b.  Each prism vertex has degree 3, so every apex edge is
    # a Plateau border and the apex meets 6 of them; the ring edges are
    # boundary edges, so the ring points are skipped silently.
    angles = np.radians([0.0, 120.0, 240.0, 60.0, 180.0, 300.0])
    ring = np.stack([np.cos(angles), np.sin(angles), [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]], axis=1)
    prism_edges = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)]
    apex = [[0.0, 0.0, 3.0]]
    mesh = FoamMesh(np.vstack([apex, ring]), np.array([(0, a, b) for a, b in prism_edges]))
    report = plateau_angle_check(mesh, angle_tol_degrees=180.0)
    assert report.triple_edge_count == 6
    assert report.warnings == ("vertex 0: 6 incident Plateau borders (need 4); skipped",)
    assert report.checked_vertex_count == 0


def test_edge_counts_are_computed_once_and_read_only(unit_sphere):
    edges, counts = unit_sphere.edge_use_counts()
    again = unit_sphere.edge_use_counts()
    assert again[0] is edges and again[1] is counts
    for array in (edges, counts):
        with pytest.raises(ValueError):
            array[0] = 0
