"""Quantities of interest: crack volume, crack energy, boundary loads.

Evaluated once per increment with array operations over cells and
boundary facets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import DofMap
from .kernels import _G, _fields_at_qp, _N_TAB, _split_stress
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
    *_, gpx, gpy = _fields_at_qp(mesh, u, phi, phi)
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


# Reference coordinates (xi, eta) of the two Gauss points on each local
# edge (south, east, north, west) of the cell reference square.
_EDGE_QP = np.array(
    [
        [[-_G, -1.0], [_G, -1.0]],
        [[1.0, -_G], [1.0, _G]],
        [[-_G, 1.0], [_G, 1.0]],
        [[-1.0, -_G], [-1.0, _G]],
    ]
)


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
    conn = mesh.cells[cells]
    hx, hy = mesh.cell_size[cells, 0], mesh.cell_size[cells, 1]
    xi, eta = _EDGE_QP[edges, :, 0], _EDGE_QP[edges, :, 1]  # (facet, qp)
    # Q1 shape derivatives at the facet Gauss points: (facet, qp, corner).
    dnx = 0.25 * np.stack([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)], axis=-1)
    dny = 0.25 * np.stack([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)], axis=-1)
    dnx *= (2.0 / hx)[:, None, None]
    dny *= (2.0 / hy)[:, None, None]
    ux, uy = u[2 * conn], u[2 * conn + 1]
    e11 = np.einsum("fqa,fa->fq", dnx, ux)
    e22 = np.einsum("fqa,fa->fq", dny, uy)
    e12 = 0.5 * (np.einsum("fqa,fa->fq", dny, ux) + np.einsum("fqa,fa->fq", dnx, uy))
    s11, s22, s12 = _split_stress(e11, e22, e12, params.mu, params.lam, None)[:3]
    nx, ny = EDGE_NORMALS[edges, 0][:, None], EDGE_NORMALS[edges, 1][:, None]
    # half the facet length per Gauss weight
    ds = 0.5 * np.where(edges % 2 == 0, hx, hy)[:, None]
    fx = np.sum(ds * (s11 * nx + s12 * ny))
    fy = np.sum(ds * (s12 * nx + s22 * ny))
    return float(fx), float(fy)
