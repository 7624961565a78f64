"""Q1 finite element infrastructure.

Degrees of freedom are ordered displacement-first: for a mesh with n
nodes, dof ``2*i`` is u_x at node i, dof ``2*i + 1`` is u_y at node i,
and dof ``2*n + i`` is the phase field at node i.  All solvers work on
this monolithic vector; the phase-field block can be sliced off the end.

Hanging-node constraints are held as one sparse node-level interpolation
matrix H (``hanging_interpolation``), built once per ConstraintSet with
chains resolved.  Projection of a state is ``H @ v`` per field, the
constraint operator P is H expanded to dofs with the fixed columns
dropped, and the lumped mass fold is ``H^T m``.

Constraint handling (hanging nodes, Dirichlet dofs, active-set dofs)
keeps the full system size: ``condense_system`` folds constrained rows
and columns through P and sets a unit diagonal with a zero right-hand
side on eliminated dofs.  A residual is reduced by ``P^T @`` and a
solved update expanded by ``P @``, so the update is identically zero on
eliminated dofs and interpolated on hanging dofs.  The Newton solver
builds P once per linearization and eliminates an active set by
dropping its columns (see ``newton.pdas_loop``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import ConstraintSet, Mesh


@dataclass
class DofMap:
    """Monolithic dof layout for one displacement vector + phase field."""

    n_nodes: int
    cell_dofs: np.ndarray  # (n_cells, 12): ux0,uy0,...,ux3,uy3,phi0..phi3

    @property
    def n_u(self) -> int:
        return 2 * self.n_nodes

    @property
    def n_phi(self) -> int:
        return self.n_nodes

    @property
    def n_dofs(self) -> int:
        return 3 * self.n_nodes

    @property
    def u_slice(self) -> slice:
        return slice(0, 2 * self.n_nodes)

    @property
    def phi_slice(self) -> slice:
        return slice(2 * self.n_nodes, 3 * self.n_nodes)

    def u_dof(self, node, component):
        return 2 * np.asarray(node) + component

    def phi_dof(self, node):
        return 2 * self.n_nodes + np.asarray(node)


def build_dof_map(mesh: Mesh) -> DofMap:
    """Number dofs displacement-first, node-major within each field."""
    cells = mesh.cells
    n = mesh.n_nodes
    cd = np.empty((len(cells), 12), dtype=np.int64)
    cd[:, 0:8:2] = 2 * cells
    cd[:, 1:8:2] = 2 * cells + 1
    cd[:, 8:12] = 2 * n + cells
    return DofMap(n_nodes=n, cell_dofs=cd)


def hanging_interpolation(constraints: ConstraintSet, n_nodes: int) -> sp.csr_matrix:
    """Node-level interpolation matrix H of the hanging-node constraints.

    Row i of H gives node i's value from unconstrained nodes: a unit
    diagonal entry for an unconstrained node, the interpolation weights
    for a hanging one.  Chains (a master that is itself hanging) are
    resolved here, by multiplying with the one-link matrix until no
    hanging column is left; they are finite because every link moves to a
    coarser edge.  H is built once per ConstraintSet and node count.
    """
    H = constraints._interpolation.get(n_nodes)
    if H is not None:
        return H
    nodes, masters = constraints.nodes, constraints.masters
    free = np.ones(n_nodes, dtype=bool)
    free[nodes] = False
    (free_ids,) = np.nonzero(free)
    rows = np.concatenate([free_ids, np.repeat(nodes, masters.shape[1])])
    cols = np.concatenate([free_ids, masters.ravel()])
    vals = np.concatenate([np.ones(len(free_ids)), constraints.weights.ravel()])
    link = sp.csr_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes))
    H = link
    for _ in range(len(nodes) + 1):
        if free[H.indices].all():
            break
        H = (H @ link).tocsr()
    else:
        raise ValueError("hanging-node constraints form a cycle")
    H.sum_duplicates()
    H.sort_indices()
    constraints._interpolation[n_nodes] = H
    return H


def assemble_mass_diagonal(mesh: Mesh, dofmap: DofMap, constraints: ConstraintSet | None = None) -> np.ndarray:
    """Row-sum lumped phase-field mass diagonal.

    On a rectangle the row sum of the Q1 mass matrix is area/4 at each
    corner.  Hanging rows are folded into their masters, ``H^T m``, so the
    diagonal matches the constrained basis; hanging entries are set to 1.0
    (they are never used as free dofs).
    """
    area4 = 0.25 * mesh.cell_size[:, 0] * mesh.cell_size[:, 1]
    diag = np.zeros(dofmap.n_phi)
    np.add.at(diag, mesh.cells.ravel(), np.repeat(area4, 4))
    if constraints is None:
        constraints = mesh.hanging
    if len(constraints):
        H = hanging_interpolation(constraints, dofmap.n_nodes).tocoo()
        # Identity rows leave the mass in place; each hanging row adds its
        # mass to its masters, row after row in node order.
        fold = np.isin(H.row, constraints.nodes)
        np.add.at(diag, H.col[fold], H.data[fold] * diag[H.row[fold]])
        diag[constraints.nodes] = 1.0
    return diag


def constraint_operator(dofmap: DofMap, constraints: ConstraintSet, fixed: np.ndarray) -> sp.csr_matrix:
    """Square operator P mapping free-dof updates to full-vector updates.

    P is H expanded to dofs (u_x, u_y and phi of a node share its row of
    H) with the columns of fixed dofs dropped: a unit diagonal on free
    unconstrained dofs, interpolation weights on hanging rows (into
    master columns), and empty rows and columns for fixed dofs.
    ``P^T M P`` with a unit diagonal restored on eliminated dofs is the
    condensed system.
    """
    n = dofmap.n_dofs
    fixed = np.asarray(fixed, dtype=bool)
    if fixed.shape != (n,):
        raise ValueError("fixed mask must cover all dofs")
    H = hanging_interpolation(constraints, dofmap.n_nodes).tocoo()
    n_u = dofmap.n_u
    rows = np.concatenate([2 * H.row, 2 * H.row + 1, n_u + H.row])
    cols = np.concatenate([2 * H.col, 2 * H.col + 1, n_u + H.col])
    keep = ~fixed[cols]
    P = sp.csr_matrix((np.tile(H.data, 3)[keep], (rows[keep], cols[keep])), shape=(n, n))
    P.sum_duplicates()
    P.sort_indices()
    return P


def drop_columns(P: sp.csr_matrix, dofs: np.ndarray) -> sp.csr_matrix:
    """P with the columns of ``dofs`` emptied.

    Equal, array for array, to the constraint operator built with
    ``dofs`` added to the fixed mask: the solver eliminates an active set
    this way without rebuilding P.
    """
    drop = np.zeros(P.shape[1], dtype=bool)
    drop[dofs] = True
    out = P.copy()
    out.data[drop[out.indices]] = 0.0
    out.eliminate_zeros()
    return out


def eliminated_dofs(P: sp.csr_matrix) -> np.ndarray:
    """Dofs with an empty column in P (fixed dofs and hanging dofs)."""
    col_counts = np.bincount(P.indices, minlength=P.shape[1])
    return col_counts == 0


def condense_system(matrix: sp.csr_matrix, rhs: np.ndarray, P: sp.csr_matrix):
    """Fold constraints into the system; eliminated dofs get identity rows.

    Returns (condensed matrix, condensed rhs).  The condensed matrix is
    P^T M P plus a unit diagonal on eliminated dofs, so it is square,
    nonsingular where M is, and a solve yields zero on eliminated dofs.
    """
    Mt = (P.T @ matrix @ P).tocsr()
    elim = eliminated_dofs(P)
    Mt = Mt + sp.diags(elim.astype(float), format="csr")
    Mt.sum_duplicates()
    Mt.sort_indices()
    rt = P.T @ rhs
    return Mt, rt


def apply_hanging_to_vector(vec: np.ndarray, dofmap: DofMap, constraints: ConstraintSet) -> None:
    """Overwrite hanging entries of a full state vector by interpolation.

    Acts in place: the hanging entries of each field (u_x, u_y, phi)
    become those of ``H @ field``.
    """
    if not len(constraints):
        return
    n = dofmap.n_nodes
    H = hanging_interpolation(constraints, n)
    nodes = constraints.nodes
    for field in (vec[0:2 * n:2], vec[1:2 * n:2], vec[2 * n:]):
        field[nodes] = (H @ field)[nodes]
