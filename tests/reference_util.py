"""Scalar references that the tests compare the vectorized package code with.

The stress split and tangent at one quadrature point, written branch by
branch, and the hanging-node constraints recomputed from a mesh's lattice.
"""

import numpy as np

from phasefrac.kernels import ISO_TOL
from phasefrac.mesh import ConstraintSet, Mesh, _hanging_constraints


def split_stress(e11, e22, e12, mu, lam, split):
    """Tension/compression stress split at one quadrature point.

    Returns (sp11, sp22, sp12, sm11, sm22, sm12, psi) where sigma+ and
    sigma- add up to the full stress exactly and psi = sigma+ : e.
    ``split`` is "none" or "spectral", as in ``MaterialParams.split``.
    Reference for ``kernels._split_stress``.
    """
    tr = e11 + e22
    s11 = 2.0 * mu * e11 + lam * tr
    s22 = 2.0 * mu * e22 + lam * tr
    s12 = 2.0 * mu * e12
    if split == "none":
        psi = s11 * e11 + s22 * e22 + 2.0 * s12 * e12
        return s11, s22, s12, 0.0, 0.0, 0.0, psi

    m = 0.5 * (e11 + e22)
    d = 0.5 * (e11 - e22)
    r = np.sqrt(d * d + e12 * e12)
    frob = np.sqrt(e11 * e11 + e22 * e22 + 2.0 * e12 * e12)
    trp = tr if tr > 0.0 else 0.0
    if 2.0 * r <= ISO_TOL * frob or frob == 0.0:
        # Repeated principal strains: split by the sign of the trace.
        h = 1.0 if tr > 0.0 else 0.0
        sp11 = h * s11
        sp22 = h * s22
        sp12 = h * s12
        psi = sp11 * e11 + sp22 * e22 + 2.0 * sp12 * e12
        return sp11, sp22, sp12, s11 - sp11, s22 - sp22, s12 - sp12, psi

    l1 = m + r
    l2 = m - r
    ct = d / r  # cos(2 theta)
    st = e12 / r  # sin(2 theta)
    c2 = 0.5 * (1.0 + ct)  # cos^2(theta)
    s2 = 0.5 * (1.0 - ct)
    cs = 0.5 * st
    lp1 = l1 if l1 > 0.0 else 0.0
    lp2 = l2 if l2 > 0.0 else 0.0
    ep11 = lp1 * c2 + lp2 * s2
    ep22 = lp1 * s2 + lp2 * c2
    ep12 = (lp1 - lp2) * cs
    sp11 = 2.0 * mu * ep11 + lam * trp
    sp22 = 2.0 * mu * ep22 + lam * trp
    sp12 = 2.0 * mu * ep12
    psi = 2.0 * mu * (lp1 * l1 + lp2 * l2) + lam * trp * tr
    return sp11, sp22, sp12, s11 - sp11, s22 - sp22, s12 - sp12, psi


def split_tangent(e11, e22, e12, mu, lam, gdeg, split, D):
    """Fill D (3x3 Voigt) with gdeg * dsigma+/de + dsigma-/de.

    The eigenstructure is evaluated at the given strain and then frozen,
    so D is constant during one Newton step.  dsigma- is formed as the
    exact complement of dsigma+ within the full isotropic tangent.
    Reference for ``kernels._split_tangent``.
    """
    c_full00 = lam + 2.0 * mu
    c_full01 = lam
    for i in range(3):
        for j in range(3):
            D[i, j] = 0.0
    if split == "none":
        D[0, 0] = gdeg * c_full00
        D[0, 1] = gdeg * c_full01
        D[1, 0] = gdeg * c_full01
        D[1, 1] = gdeg * c_full00
        D[2, 2] = gdeg * mu
        return

    m = 0.5 * (e11 + e22)
    d = 0.5 * (e11 - e22)
    r = np.sqrt(d * d + e12 * e12)
    frob = np.sqrt(e11 * e11 + e22 * e22 + 2.0 * e12 * e12)
    tr = e11 + e22
    htr = 1.0 if tr > 0.0 else 0.0

    if 2.0 * r <= ISO_TOL * frob or frob == 0.0:
        w = gdeg * htr + (1.0 - htr)
        D[0, 0] = w * c_full00
        D[0, 1] = w * c_full01
        D[1, 0] = w * c_full01
        D[1, 1] = w * c_full00
        D[2, 2] = w * mu
        return

    l1 = m + r
    l2 = m - r
    ct = d / r
    st = e12 / r
    c2 = 0.5 * (1.0 + ct)
    s2 = 0.5 * (1.0 - ct)
    cs = 0.5 * st
    h1 = 1.0 if l1 > 0.0 else 0.0
    h2 = 1.0 if l2 > 0.0 else 0.0
    lp1 = l1 if l1 > 0.0 else 0.0
    lp2 = l2 if l2 > 0.0 else 0.0
    cc = (lp1 - lp2) / (l1 - l2)

    p1 = (c2, s2, cs)
    p2 = (s2, c2, -cs)
    q = (-2.0 * cs, 2.0 * cs, c2 - s2)
    for i in range(3):
        for j in range(3):
            plus = 2.0 * mu * (h1 * p1[i] * p1[j] + h2 * p2[i] * p2[j]) + mu * cc * q[i] * q[j]
            if i < 2 and j < 2:
                plus += lam * htr
            full = 0.0
            if i < 2 and j < 2:
                full = c_full01
                if i == j:
                    full = c_full00
            elif i == 2 and j == 2:
                full = mu
            D[i, j] = gdeg * plus + (full - plus)


def compute_hanging_constraints(mesh: Mesh) -> ConstraintSet:
    """Recompute the hanging-node constraints of a mesh."""
    lat = mesh._lattice
    return _hanging_constraints(lat["ix"], lat["iy"], lat["s"], lat["node_keys"], mesh.cells)
