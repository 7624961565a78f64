"""CSV, VTK and config-echo output.

Everything here is deterministic: identical inputs produce identical
bytes, floats are written in shortest round-trip form via repr().

:func:`read_csv` and :func:`read_vtk` are strict readers of the two
formats this module writes.  No run reads its output back; they stay
next to the writers because the round-trip tests check every written
file through them, so a format change must change both sides here.
"""

from __future__ import annotations

import os
from dataclasses import fields as dc_fields
from typing import Iterable, Optional, Sequence

import numpy as np

from .material import MaterialParams
from .mesh import Mesh
from .qoi import QoiRecord

CSV_HEADER = (
    "step,time,newton_iters,itl_iters,active_set_size,"
    "residual,tcv,tcv_error,crack_energy,load_x,load_y"
)

_CSV_COLUMNS = CSV_HEADER.split(",")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(records: Sequence[QoiRecord], path: str) -> None:
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(",".join(_fmt(getattr(rec, col)) for col in _CSV_COLUMNS))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str) -> list[dict]:
    """Parse a file written by write_csv back into one dict per row."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            row = {}
            for key, raw in zip(header, parts):
                if key in ("step", "newton_iters", "itl_iters", "active_set_size"):
                    row[key] = int(raw)
                else:
                    row[key] = float(raw)
            rows.append(row)
    return rows


def write_vtk(
    mesh: Mesh,
    u: np.ndarray,
    phi: np.ndarray,
    lambda_mult: Optional[np.ndarray],
    active_mask: Optional[np.ndarray],
    path: str,
    title: str = "phasefrac fields",
) -> None:
    """Legacy ASCII unstructured-grid file with the four nodal fields."""
    n = mesh.n_nodes
    m = mesh.n_cells
    ux = np.asarray(u[0::2], dtype=float)
    uy = np.asarray(u[1::2], dtype=float)
    lam = np.zeros(n) if lambda_mult is None else np.asarray(lambda_mult, dtype=float)
    act = np.zeros(n, dtype=int)
    if active_mask is not None:
        act = np.asarray(active_mask).astype(int)

    out = []
    out.append("# vtk DataFile Version 3.0")
    out.append(title)
    out.append("ASCII")
    out.append("DATASET UNSTRUCTURED_GRID")
    out.append(f"POINTS {n} double")
    for i in range(n):
        out.append(f"{float(mesh.nodes[i, 0])!r} {float(mesh.nodes[i, 1])!r} 0.0")
    out.append(f"CELLS {m} {5 * m}")
    for c in range(m):
        a, b, cc, d = mesh.cells[c]
        out.append(f"4 {a} {b} {cc} {d}")
    out.append(f"CELL_TYPES {m}")
    out.extend(["9"] * m)
    out.append(f"POINT_DATA {n}")
    out.append("VECTORS displacement double")
    for i in range(n):
        out.append(f"{float(ux[i])!r} {float(uy[i])!r} 0.0")
    for name, data in (("phasefield", phi), ("multiplier", lam)):
        out.append(f"SCALARS {name} double 1")
        out.append("LOOKUP_TABLE default")
        out.extend(repr(float(v)) for v in data)
    out.append("SCALARS active int 1")
    out.append("LOOKUP_TABLE default")
    out.extend(str(v) for v in act)
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def read_vtk(path: str) -> dict:
    """Strict reader for the subset of legacy VTK that write_vtk emits.

    Returns points, cells and the point-data arrays; raises ValueError on
    anything malformed so tests can use it as a format check.
    """
    with open(path) as fh:
        tokens_lines = fh.read().splitlines()
    if not tokens_lines or not tokens_lines[0].startswith("# vtk DataFile"):
        raise ValueError("missing vtk header")
    if tokens_lines[2] != "ASCII":
        raise ValueError("not an ASCII file")
    if tokens_lines[3] != "DATASET UNSTRUCTURED_GRID":
        raise ValueError("not an unstructured grid")
    pos = 4
    kw, n_str, _ = tokens_lines[pos].split()
    if kw != "POINTS":
        raise ValueError("expected POINTS")
    n = int(n_str)
    pos += 1
    points = np.array(
        [[float(v) for v in tokens_lines[pos + i].split()] for i in range(n)]
    )
    pos += n
    kw, m_str, total = tokens_lines[pos].split()
    if kw != "CELLS":
        raise ValueError("expected CELLS")
    m = int(m_str)
    if int(total) != 5 * m:
        raise ValueError("bad CELLS size field")
    pos += 1
    cells = []
    for i in range(m):
        parts = tokens_lines[pos + i].split()
        if parts[0] != "4":
            raise ValueError("non-quad cell")
        cells.append([int(v) for v in parts[1:]])
    pos += m
    if tokens_lines[pos].split() != ["CELL_TYPES", str(m)]:
        raise ValueError("expected CELL_TYPES")
    pos += 1
    for i in range(m):
        if tokens_lines[pos + i] != "9":
            raise ValueError("cell type is not quad")
    pos += m
    if tokens_lines[pos].split() != ["POINT_DATA", str(n)]:
        raise ValueError("expected POINT_DATA")
    pos += 1
    data: dict = {"points": points, "cells": np.array(cells, dtype=int)}
    while pos < len(tokens_lines):
        parts = tokens_lines[pos].split()
        if parts[0] == "VECTORS":
            name = parts[1]
            pos += 1
            arr = np.array(
                [[float(v) for v in tokens_lines[pos + i].split()] for i in range(n)]
            )
            pos += n
        elif parts[0] == "SCALARS":
            name = parts[1]
            pos += 2  # LOOKUP_TABLE line
            conv = int if parts[2] == "int" else float
            arr = np.array([conv(tokens_lines[pos + i]) for i in range(n)])
            pos += n
        else:
            raise ValueError(f"unexpected section {parts[0]}")
        data[name] = arr
    return data


def config_echo_lines(config, params: Optional[MaterialParams] = None,
                      mesh: Optional[Mesh] = None,
                      notes: Iterable[str] = ()) -> list[str]:
    """Flat key = value lines covering every effective parameter."""
    lines = []
    for f in dc_fields(config):
        val = getattr(config, f.name)
        lines.append(f"{f.name} = {_fmt(val) if val is not None else 'none'}")
    if params is not None:
        for f in dc_fields(params):
            lines.append(f"material.{f.name} = {_fmt(getattr(params, f.name))}")
        lines.append(f"material.youngs = {_fmt(params.youngs)}")
        lines.append(f"material.poisson = {_fmt(params.poisson)}")
    if mesh is not None:
        lines.append(f"mesh.nodes = {mesh.n_nodes}")
        lines.append(f"mesh.cells = {mesh.n_cells}")
        lines.append(f"mesh.h_min = {_fmt(mesh.h_min)}")
        lines.append(f"mesh.h_max = {_fmt(mesh.h_max)}")
    for note in notes:
        lines.append(f"# {note}")
    return lines


def write_config_echo(path: str, config, params=None, mesh=None,
                      notes: Iterable[str] = ()) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(config_echo_lines(config, params, mesh, notes)) + "\n")


def parse_flat_config(path: str) -> dict:
    """Flat TOML-style key = value file; '#' starts a comment.

    A key given twice is an error, not a silent override.
    """
    out: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if not key:
                raise ValueError(f"{path}:{lineno}: empty key")
            if key in out:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = _parse_scalar(val)
    return out


def _parse_scalar(text: str):
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    if text.lower() in ("none", "null"):
        return None
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
