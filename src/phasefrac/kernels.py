"""Element kernels for residual and Jacobian assembly.

One implementation of the per-cell math: vectorized numpy over all cells
at once, reading the geometry from a :class:`~phasefrac.mesh.Mesh` and the
constants from a :class:`~phasefrac.material.MaterialParams`.  The
residual and the Jacobian are separate assemblies; each computes its
quantity once.  The weak form is assembled per cell into dense
12x12 / 12-entry blocks (dof order ux0,uy0,...,ux3,uy3,phi0..phi3) which
an :class:`AssemblyPlan` scatters into one fixed CSR pattern.  Stress
uses Voigt triples (s11, s22, s12) acting on strain triples
(e11, e22, 2*e12).

Sign conventions of the assembled right-hand side F (the Newton residual):

    F_u   = -(g(phit) sigma+(u) + sigma-(u), e(chi)) - (phit^2 p, div chi)
    F_phi = -(1-kappa)(phi sigma+(u):e(u), chi) - 2(phi p div u, chi)
            + (G_c/eps)(1 - phi, chi) - G_c eps (grad phi, grad chi)

and the Jacobian is the exact derivative of F at the current state with
the phase-field linearization phit and the strain eigenprojections held
fixed (for the spectral split, eigenvector rotation enters through the
frozen cross coefficient, so the block matrix remains the derivative of
the assembled residual wherever the principal strains are distinct).

Uniform fields must give residual rows that are exactly zero, not
rounding noise: the active-set classification tests a strict inequality,
so an intact, unloaded cell with sign noise in its phase-field rows
would flip dofs in and out of the active set.  Two devices keep those
rows exact.  The last column of every shape-function table is stored as
the complement of the first three, so a uniform value sums to exactly 1
and a uniform gradient to exactly 0; and :func:`_seq_dot` contracts
nodal values in the same left-to-right order the complements assume.

The tests compare the vectorized stress split and tangent against scalar
references for one quadrature point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:
    from .material import MaterialParams
    from .mesh import Mesh

# Relative spread below which principal strains count as repeated and the
# split degenerates to the trace-sign rule.
ISO_TOL = 1.0e-12


# 2x2 Gauss tables on [-1, 1]^2, qp-major: N[q, a], dN/dxi, dN/deta.
_G = 1.0 / np.sqrt(3.0)
_QP = np.array([[-_G, -_G], [_G, -_G], [_G, _G], [-_G, _G]])
_N_TAB = np.array(
    [
        [
            0.25 * (1 - x) * (1 - y),
            0.25 * (1 + x) * (1 - y),
            0.25 * (1 + x) * (1 + y),
            0.25 * (1 - x) * (1 + y),
        ]
        for x, y in _QP
    ]
)
_DXI_TAB = np.array(
    [
        [-0.25 * (1 - y), 0.25 * (1 - y), 0.25 * (1 + y), -0.25 * (1 + y)]
        for x, y in _QP
    ]
)
_DETA_TAB = np.array(
    [
        [-0.25 * (1 - x), -0.25 * (1 + x), 0.25 * (1 + x), 0.25 * (1 - x)]
        for x, y in _QP
    ]
)
# Last column as the complement of the first three, so that left-to-right
# accumulation of a uniform field gives exactly 1 (values) / 0 (gradients).
# Uniform states then produce exact zero residual rows, which the strict
# active-set inequality relies on.
_N_TAB[:, 3] = 1.0 - ((_N_TAB[:, 0] + _N_TAB[:, 1]) + _N_TAB[:, 2])
_DXI_TAB[:, 3] = -((_DXI_TAB[:, 0] + _DXI_TAB[:, 1]) + _DXI_TAB[:, 2])
_DETA_TAB[:, 3] = -((_DETA_TAB[:, 0] + _DETA_TAB[:, 1]) + _DETA_TAB[:, 2])


class AssemblyPlan:
    """Fixed sparsity pattern and scatter slots for one mesh.

    Precomputes the CSR pattern of the union of all 12x12 cell blocks and
    the slot of every flat block entry, so each assembly reduces to one
    ``np.bincount`` over kernel output.
    """

    def __init__(self, cell_dofs: np.ndarray, n_dofs: int):
        n_cells = cell_dofs.shape[0]
        # one int64 key row * n_dofs + col per block entry, so sorted keys
        # are in CSR order
        keys = (cell_dofs[:, :, None] * n_dofs + cell_dofs[:, None, :]).ravel()
        order = np.argsort(keys, kind="stable")
        ks = keys[order]
        new = np.empty(len(ks), dtype=bool)
        new[0] = True
        new[1:] = ks[1:] != ks[:-1]
        slot_sorted = np.cumsum(new) - 1
        slots = np.empty(len(keys), dtype=np.int64)
        slots[order] = slot_sorted
        nnz = int(slot_sorted[-1]) + 1
        entries = ks[new]
        indices = entries % n_dofs
        indptr = np.zeros(n_dofs + 1, dtype=np.int64)
        np.add.at(indptr, entries // n_dofs + 1, 1)
        indptr = np.cumsum(indptr)

        self.n_dofs = n_dofs
        self.n_cells = n_cells
        self.cell_dofs = cell_dofs
        self.slots = slots
        self.indices = indices.astype(np.int32)
        self.indptr = indptr.astype(np.int32)
        self.nnz = nnz

    def matrix_from_blocks(self, blocks: np.ndarray) -> sp.csr_matrix:
        data = np.bincount(self.slots, weights=blocks.ravel(), minlength=self.nnz)
        return sp.csr_matrix(
            (data, self.indices, self.indptr), shape=(self.n_dofs, self.n_dofs)
        )

    def vector_from_blocks(self, blocks: np.ndarray) -> np.ndarray:
        return np.bincount(
            self.cell_dofs.ravel(), weights=blocks.ravel(), minlength=self.n_dofs
        )


# ----------------------------------------------------------------------
# Vectorized kernels over all cells
# ----------------------------------------------------------------------


def _principal_strains(e11, e22, e12):
    """Principal decomposition of the strain, shared by stress and tangent.

    Returns (iso, htr, l1, l2, lp1, lp2, c2, s2, cs): ``iso`` flags
    repeated principal strains (relative spread below ISO_TOL, or zero
    strain), ``htr`` is 1 where the trace is positive, l1 >= l2 are the
    principal strains and lp1, lp2 their positive parts, and c2, s2, cs
    are cos^2, sin^2 and sin*cos of the principal angle (taken with a
    unit radius where ``iso``).
    """
    m = 0.5 * (e11 + e22)
    d = 0.5 * (e11 - e22)
    r = np.hypot(d, e12)
    frob = np.sqrt(e11**2 + e22**2 + 2.0 * e12**2)
    iso = (2.0 * r <= ISO_TOL * frob) | (frob == 0.0)
    htr = (e11 + e22 > 0.0).astype(float)
    rsafe = np.where(iso, 1.0, r)
    l1 = m + r
    l2 = m - r
    ct = d / rsafe  # cos(2 theta)
    st = e12 / rsafe  # sin(2 theta)
    return (
        iso, htr, l1, l2, np.maximum(l1, 0.0), np.maximum(l2, 0.0),
        0.5 * (1.0 + ct), 0.5 * (1.0 - ct), 0.5 * st,
    )


def _split_stress(e11, e22, e12, mu, lam, principal):
    """Stress split; ``principal`` is :func:`_principal_strains` of the
    same strains, or None for no split (sigma+ is the Hooke stress)."""
    tr = e11 + e22
    s11 = 2.0 * mu * e11 + lam * tr
    s22 = 2.0 * mu * e22 + lam * tr
    s12 = 2.0 * mu * e12
    if principal is None:
        psi = s11 * e11 + s22 * e22 + 2.0 * s12 * e12
        z = np.zeros_like(s11)
        return s11, s22, s12, z, z, z, psi

    iso, htr, l1, l2, lp1, lp2, c2, s2, cs = principal
    trp = np.maximum(tr, 0.0)
    ep11 = lp1 * c2 + lp2 * s2
    ep22 = lp1 * s2 + lp2 * c2
    ep12 = (lp1 - lp2) * cs
    sp11 = np.where(iso, htr * s11, 2.0 * mu * ep11 + lam * trp)
    sp22 = np.where(iso, htr * s22, 2.0 * mu * ep22 + lam * trp)
    sp12 = np.where(iso, htr * s12, 2.0 * mu * ep12)
    psi = np.where(
        iso,
        htr * (s11 * e11 + s22 * e22 + 2.0 * s12 * e12),
        2.0 * mu * (lp1 * l1 + lp2 * l2) + lam * trp * tr,
    )
    return sp11, sp22, sp12, s11 - sp11, s22 - sp22, s12 - sp12, psi


def _split_tangent(mu, lam, gdeg, principal):
    """Frozen-split tangent, shape gdeg.shape + (3, 3); ``principal`` as
    for :func:`_split_stress`."""
    shape = np.shape(gdeg)
    c_full = np.zeros(shape + (3, 3))
    c_full[..., 0, 0] = lam + 2.0 * mu
    c_full[..., 1, 1] = lam + 2.0 * mu
    c_full[..., 0, 1] = lam
    c_full[..., 1, 0] = lam
    c_full[..., 2, 2] = mu
    if principal is None:
        return gdeg[..., None, None] * c_full

    iso, htr, l1, l2, lp1, lp2, c2, s2, cs = principal
    h1 = (l1 > 0.0).astype(float)
    h2 = (l2 > 0.0).astype(float)
    cc = np.where(iso, 0.0, (lp1 - lp2) / np.where(iso, 1.0, l1 - l2))

    p1 = np.stack([c2, s2, cs], axis=-1)
    p2 = np.stack([s2, c2, -cs], axis=-1)
    qv = np.stack([-2.0 * cs, 2.0 * cs, c2 - s2], axis=-1)
    lam_blk = np.zeros(shape + (3, 3))
    lam_blk[..., :2, :2] = lam
    plus = (
        2.0 * mu * (h1[..., None, None] * p1[..., :, None] * p1[..., None, :]
                    + h2[..., None, None] * p2[..., :, None] * p2[..., None, :])
        + mu * cc[..., None, None] * qv[..., :, None] * qv[..., None, :]
        + htr[..., None, None] * lam_blk
    )
    plus = np.where(iso[..., None, None], htr[..., None, None] * c_full, plus)
    return gdeg[..., None, None] * plus + (c_full - plus)


def _seq_dot(tab, vals):
    """Left-to-right 4-term contraction over the node axis.

    The order matches the complement columns of the shape-function
    tables, so uniform fields give exactly 1 (values) and 0 (gradients).
    """
    return (
        (tab[..., 0] * vals[..., 0] + tab[..., 1] * vals[..., 1])
        + tab[..., 2] * vals[..., 2]
    ) + tab[..., 3] * vals[..., 3]


def _fields_at_qp(mesh: Mesh, u, phi, phit):
    """Per-cell, per-qp strains and phase-field values (vectorized)."""
    conn = mesh.cells
    ux = u[2 * conn]  # (n, 4)
    uy = u[2 * conn + 1]
    ph = phi[conn]
    pt = phit[conn]
    jx = (2.0 / mesh.cell_size[:, 0])[:, None]
    jy = (2.0 / mesh.cell_size[:, 1])[:, None]
    # dnx/dny: (n, q, a); last column zero-sum by construction
    dnx = _DXI_TAB[None, :, :] * jx[:, :, None]
    dny = _DETA_TAB[None, :, :] * jy[:, :, None]
    dnx[:, :, 3] = -((dnx[:, :, 0] + dnx[:, :, 1]) + dnx[:, :, 2])
    dny[:, :, 3] = -((dny[:, :, 0] + dny[:, :, 1]) + dny[:, :, 2])
    e11 = np.einsum("nqa,na->nq", dnx, ux)
    e22 = np.einsum("nqa,na->nq", dny, uy)
    e12 = 0.5 * (np.einsum("nqa,na->nq", dny, ux) + np.einsum("nqa,na->nq", dnx, uy))
    ph_q = ph[:, None, :]
    pt_q = pt[:, None, :]
    ntab = np.broadcast_to(_N_TAB, (1, 4, 4))
    phiq = _seq_dot(ntab, ph_q)
    phitq = _seq_dot(ntab, pt_q)
    gpx = _seq_dot(dnx, ph_q)
    gpy = _seq_dot(dny, ph_q)
    return dnx, dny, e11, e22, e12, phiq, phitq, gpx, gpy


def residual_blocks(mesh: Mesh, params: MaterialParams, u, phi, phit):
    """Per-cell residual blocks (n_cells, 12)."""
    dnx, dny, e11, e22, e12, phiq, phitq, gpx, gpy = _fields_at_qp(mesh, u, phi, phit)
    mu, lam, gc, eps = params.mu, params.lam, params.gc, params.eps
    kappa, pres = params.kappa, params.pressure
    principal = None if params.split == "none" else _principal_strains(e11, e22, e12)
    sp11, sp22, sp12, sm11, sm22, sm12, psi = _split_stress(e11, e22, e12, mu, lam, principal)
    det = (0.25 * mesh.cell_size[:, 0] * mesh.cell_size[:, 1])[:, None]
    div_u = e11 + e22
    gdeg = (1.0 - kappa) * phitq**2 + kappa
    st11 = gdeg * sp11 + sm11
    st22 = gdeg * sp22 + sm22
    st12 = gdeg * sp12 + sm12
    pterm = phitq**2 * pres
    bulk = -(1.0 - kappa) * phiq * psi - 2.0 * phiq * pres * div_u + gc / eps * (1.0 - phiq)

    F = np.zeros((mesh.n_cells, 12))
    F[:, 0:8:2] = -np.einsum("nq,nqa->na", det * (st11 + pterm), dnx) - np.einsum(
        "nq,nqa->na", det * st12, dny
    )
    F[:, 1:8:2] = -np.einsum("nq,nqa->na", det * st12, dnx) - np.einsum(
        "nq,nqa->na", det * (st22 + pterm), dny
    )
    F[:, 8:12] = (
        np.einsum("nq,qa->na", det * bulk, _N_TAB)
        - gc * eps * (np.einsum("nq,nqa->na", det * gpx, dnx) + np.einsum("nq,nqa->na", det * gpy, dny))
    )
    return F


def system_blocks(mesh: Mesh, params: MaterialParams, u, phi, phit):
    """Per-cell Jacobian blocks (n_cells, 144)."""
    dnx, dny, e11, e22, e12, phiq, phitq, gpx, gpy = _fields_at_qp(mesh, u, phi, phit)
    mu, lam, gc, eps = params.mu, params.lam, params.gc, params.eps
    kappa, pres = params.kappa, params.pressure
    # decomposed once, shared by the stress split and its tangent
    principal = None if params.split == "none" else _principal_strains(e11, e22, e12)
    sp11, sp22, sp12, _, _, _, psi = _split_stress(e11, e22, e12, mu, lam, principal)
    # constant over the four unit-weight Gauss points
    w = 0.25 * mesh.cell_size[:, 0] * mesh.cell_size[:, 1]
    div_u = e11 + e22
    gdeg = (1.0 - kappa) * phitq**2 + kappa
    D = _split_tangent(mu, lam, gdeg, principal)  # (n,q,3,3)

    n = mesh.n_cells
    # Displacement basis in Voigt form: (n, q, 8, 3)
    bv = np.zeros((n, 4, 8, 3))
    bv[:, :, 0:8:2, 0] = dnx
    bv[:, :, 0:8:2, 2] = dny
    bv[:, :, 1:8:2, 1] = dny
    bv[:, :, 1:8:2, 2] = dnx

    K = np.zeros((n, 12, 12))
    Db = np.einsum("nqst,nqjt->nqjs", D, bv)
    K[:, :8, :8] = np.einsum("n,nqis,nqjs->nij", w, bv, Db)

    splus = np.stack([sp11, sp22, sp12], axis=-1)  # (n,q,3)
    sb = np.einsum("nqs,nqjs->nqj", splus, bv)
    divb = bv[:, :, :, 0] + bv[:, :, :, 1]
    fac_u = 2.0 * (1.0 - kappa) * phiq
    fac_p = 2.0 * pres * phiq
    K[:, 8:, :8] = np.einsum(
        "n,qi,nqj->nij", w, _N_TAB, fac_u[:, :, None] * sb + fac_p[:, :, None] * divb
    )

    react = (1.0 - kappa) * psi + 2.0 * pres * div_u + gc / eps
    K[:, 8:, 8:] = np.einsum("nq,qi,qj->nij", w[:, None] * react, _N_TAB, _N_TAB) + gc * eps * (
        np.einsum("n,nqi,nqj->nij", w, dnx, dnx)
        + np.einsum("n,nqi,nqj->nij", w, dny, dny)
    )
    return K.reshape(n, 144)
