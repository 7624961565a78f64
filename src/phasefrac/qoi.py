"""Quantities of interest: crack volume, crack energy, boundary loads.

Evaluated once per increment; plain vectorized numpy, not performance
critical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import DofMap
from .kernels import _fields_at_qp, _N_TAB
from .material import MaterialParams
from .mesh import EDGE_CORNERS, EDGE_NORMALS, Mesh


@dataclass
class QoiRecord:
    step: int
    time: float
    newton_iters: int
    itl_iters: int
    active_set_size: int
    residual: float
    tcv: float
    tcv_error: float
    crack_energy: float
    load_x: float
    load_y: float


def _split_state(dofmap: DofMap, state: np.ndarray):
    n = dofmap.n_nodes
    return state[: 2 * n], state[2 * n:]


def total_crack_volume(mesh: Mesh, dofmap: DofMap, state: np.ndarray) -> float:
    """TCV = integral of u . grad(phi); positive for an opening crack."""
    u, phi = _split_state(dofmap, state)
    conn = mesh.cells
    dnx, dny, *_ , gpx, gpy = _fields_at_qp(
        np.ascontiguousarray(mesh.cell_size[:, 0]),
        np.ascontiguousarray(mesh.cell_size[:, 1]),
        conn, u, phi, phi,
    )
    uxq = np.einsum("qa,na->nq", _N_TAB, u[2 * conn])
    uyq = np.einsum("qa,na->nq", _N_TAB, u[2 * conn + 1])
    w = 0.25 * mesh.cell_size[:, 0] * mesh.cell_size[:, 1]
    return float(np.einsum("n,nq->", w, uxq * gpx + uyq * gpy))


def analytic_sneddon_tcv(p: float, l0: float, youngs: float, poisson: float) -> float:
    """Reference crack volume 2 pi p l0^2 / E' of a pressurized line crack,
    with the plane-strain modulus E' = E / (1 - nu^2) the assembly uses."""
    eprime = youngs / (1.0 - poisson**2)
    return 2.0 * np.pi * p * l0**2 / eprime


def crack_energy(mesh: Mesh, dofmap: DofMap, state: np.ndarray,
                 params: MaterialParams) -> float:
    """Regularized surface energy (G_c / 2) * integral (phi - 1)^2 / eps."""
    _, phi = _split_state(dofmap, state)
    phiq = np.einsum("qa,na->nq", _N_TAB, phi[mesh.cells])
    w = 0.25 * mesh.cell_size[:, 0] * mesh.cell_size[:, 1]
    return float(0.5 * params.gc / params.eps * np.einsum("n,nq->", w, (phiq - 1.0) ** 2))


# 2-point Gauss positions along a facet, in the cell reference square.
_EDGE_QP = 1.0 / np.sqrt(3.0)


def _edge_points(edge: int):
    """Reference coordinates of the two Gauss points on a cell edge."""
    t = np.array([-_EDGE_QP, _EDGE_QP])
    if edge == 0:  # south
        return np.column_stack([t, -np.ones(2)])
    if edge == 1:  # east
        return np.column_stack([np.ones(2), t])
    if edge == 2:  # north
        return np.column_stack([t, np.ones(2)])
    return np.column_stack([-np.ones(2), t])  # west


def boundary_load(
    mesh: Mesh,
    dofmap: DofMap,
    state: np.ndarray,
    params: MaterialParams,
    marker: str,
) -> tuple:
    """Traction resultant integral of sigma(u) . eta over a marked boundary,
    with the full undegraded Hooke stress."""
    cells, edges = mesh.marked_facets(marker)
    u, _ = _split_state(dofmap, state)
    fx = fy = 0.0
    for cell, edge in zip(cells, edges):
        conn = mesh.cells[cell]
        hx, hy = mesh.cell_size[cell]
        normal = EDGE_NORMALS[edge]
        ds = 0.5 * (hx if edge in (0, 2) else hy)  # half-length per Gauss weight
        for xi, eta in _edge_points(edge):
            dn_xi = 0.25 * np.array([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)])
            dn_eta = 0.25 * np.array([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)])
            dnx = dn_xi * (2.0 / hx)
            dny = dn_eta * (2.0 / hy)
            ux = u[2 * conn]
            uy = u[2 * conn + 1]
            e11 = dnx @ ux
            e22 = dny @ uy
            e12 = 0.5 * (dny @ ux + dnx @ uy)
            tr = e11 + e22
            s11 = float(2.0 * params.mu * e11 + params.lam * tr)
            s22 = float(2.0 * params.mu * e22 + params.lam * tr)
            s12 = float(2.0 * params.mu * e12)
            tx = s11 * normal[0] + s12 * normal[1]
            ty = s12 * normal[0] + s22 * normal[1]
            fx += ds * tx
            fy += ds * ty
    return float(fx), float(fy)
