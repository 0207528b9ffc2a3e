"""Output writers (legacy VTK, CSV, run manifests) and config parsing.

All emission is deterministic: no timestamps, fixed field order, floats at
17 significant digits.
"""

from __future__ import annotations

import os

import numpy as np

from .mesh import SamplePoints


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def emit_csv(path, header, rows):
    """Write a CSV table: header row, one row per record, full precision."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    try:
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"could not write CSV {path!r}: {exc}") from exc


def read_csv(path):
    """Read back a CSV written by :func:`emit_csv` (header + float-ish rows)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        vals = []
        for tok in ln.split(","):
            try:
                vals.append(float(tok))
            except ValueError:
                vals.append(tok)
        rows.append(vals)
    return header, rows


def write_manifest(path, mapping):
    """Plain-text run manifest: sorted key=value lines."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    try:
        with open(path, "w") as fh:
            for key in sorted(mapping):
                fh.write(f"{key}={_fmt(mapping[key])}\n")
    except OSError as exc:
        raise OSError(f"could not write manifest {path!r}: {exc}") from exc


def read_config(path):
    """Flat key=value config file; '#' starts a comment, blanks ignored."""
    out = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, val = line.split("=", 1)
                out[key.strip()] = val.strip()
    except OSError as exc:
        raise OSError(f"could not read config {path!r}: {exc}") from exc
    return out


def vtk_nodes(patch):
    """The :class:`levelset.mesh.SamplePoints` at the nodes of the grid that
    :func:`emit_vtk` writes for ``patch``: the element-corner lattice,
    direction 0 fastest (a triangulated patch's nodes), each in the element
    that ``element_of_param`` names, or in the first triangle that lists it.
    A run that writes several files of one patch builds them once and passes
    them to every call."""
    lattice = np.meshgrid(
        *[np.arange(n + 1, dtype=np.float64) for n in patch.n_elems], indexing="ij"
    )
    pts = np.stack([g.ravel(order="F") for g in lattice], axis=-1)
    if patch.family == "tensor":
        elements = patch.element_of_param(pts)
    else:
        elements = np.unique(patch.conn, return_index=True)[1] // 3
    return SamplePoints(patch, elements, pts)


def emit_vtk(path, nodes, point_fields):
    """Legacy-text VTK grid with named nodal scalar fields.

    ``nodes`` are the :func:`vtk_nodes` of the patch. Tensor patches emit
    STRUCTURED_GRID over the element-corner lattice; simplex patches emit
    UNSTRUCTURED_GRID with triangle cells. Field values are sampled at the
    nodes: each entry of ``point_fields`` is an array of nodal values, or a
    callable (such as a field's ``eval_values``) of ``nodes``.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    patch = nodes.patch
    x = nodes.x
    dims = tuple(n + 1 for n in patch.n_elems) if patch.family == "tensor" else None
    npts = len(x)
    coords = np.zeros((npts, 3))
    coords[:, : patch.dim] = x
    try:
        with open(path, "w") as fh:
            fh.write("# vtk DataFile Version 3.0\n")
            fh.write("levelset fields\n")
            fh.write("ASCII\n")
            if dims is not None:
                full = dims + (1,) * (3 - len(dims))
                fh.write("DATASET STRUCTURED_GRID\n")
                fh.write("DIMENSIONS %d %d %d\n" % full)
                fh.write(f"POINTS {npts} double\n")
            else:
                fh.write("DATASET UNSTRUCTURED_GRID\n")
                fh.write(f"POINTS {npts} double\n")
            for p in coords:
                fh.write("%.17g %.17g %.17g\n" % tuple(p))
            if dims is None:
                ncell = patch.n_elements
                fh.write(f"CELLS {ncell} {4 * ncell}\n")
                for tri in patch.conn:
                    fh.write("3 %d %d %d\n" % tuple(tri))
                fh.write(f"CELL_TYPES {ncell}\n")
                fh.write("5\n" * ncell)
            fh.write(f"POINT_DATA {npts}\n")
            for name, field in point_fields.items():
                vals = field(nodes) if callable(field) else np.asarray(field)
                fh.write(f"SCALARS {name} double 1\n")
                fh.write("LOOKUP_TABLE default\n")
                for v in vals:
                    fh.write("%.17g\n" % v)
    except OSError as exc:
        raise OSError(f"could not write VTK {path!r}: {exc}") from exc


def read_vtk_points_and_scalars(path):
    """Minimal reader for files written by :func:`emit_vtk` (round-trip checks)."""
    with open(path) as fh:
        tokens = fh.read().split("\n")
    points = []
    scalars = {}
    i = 0
    while i < len(tokens):
        line = tokens[i].split()
        if line[:1] == ["POINTS"]:
            n = int(line[1])
            for k in range(n):
                points.append([float(v) for v in tokens[i + 1 + k].split()])
            i += n + 1
        elif line[:1] == ["SCALARS"]:
            name = line[1]
            n = len(points)
            vals = [float(tokens[i + 2 + k]) for k in range(n)]
            scalars[name] = np.array(vals)
            i += n + 2
        else:
            i += 1
    return np.array(points), scalars
