"""Material model, phase-field linearization, and global assembly.

The solid is isotropic linear elastic with an AT2-type quadratic
degradation acting on the tensile part of the stress.  ``phi`` is 1 in
intact material and 0 on the fully developed crack; the constraint
``phi_n <= phi_{n-1}`` enforces irreversibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import kernels
from .fem import DofMap
from .mesh import Mesh

LINEARIZE_EXTRAPOLATE = "extrapolate"
LINEARIZE_PREVIOUS = "previous"


@dataclass
class MaterialParams:
    """Elastic and fracture parameters.

    ``mu``/``lam`` are the Lame constants, the primary inputs; ``youngs``
    and ``poisson`` are derived conveniences.  ``kappa`` is the bulk
    regularization of the degradation, ``eps`` the phase-field length.
    """

    mu: float
    lam: float
    gc: float
    eps: float
    kappa: float
    pressure: float = 0.0
    split: str = "none"

    def __post_init__(self):
        if self.mu <= 0.0 or self.eps <= 0.0 or self.gc <= 0.0:
            raise ValueError("mu, eps, gc must be positive")
        if self.split not in ("none", "spectral"):
            raise ValueError(f"unknown split {self.split!r}")

    @property
    def split_code(self) -> int:
        return kernels.SPLIT_NONE if self.split == "none" else kernels.SPLIT_SPECTRAL

    @property
    def youngs(self) -> float:
        return self.mu * (3.0 * self.lam + 2.0 * self.mu) / (self.lam + self.mu)

    @property
    def poisson(self) -> float:
        return 0.5 * self.lam / (self.lam + self.mu)

    @staticmethod
    def from_youngs(youngs: float, poisson: float, **kw) -> "MaterialParams":
        mu = youngs / (2.0 * (1.0 + poisson))
        lam = youngs * poisson / ((1.0 + poisson) * (1.0 - 2.0 * poisson))
        return MaterialParams(mu=mu, lam=lam, **kw)


def degradation(phi: np.ndarray, kappa: float) -> np.ndarray:
    """g(phi) = (1 - kappa) phi^2 + kappa."""
    return (1.0 - kappa) * phi**2 + kappa


def extrapolate_phase(
    phi_prev: np.ndarray,
    phi_prev2: np.ndarray,
    t_now: float,
    t_prev: float,
    t_prev2: float,
) -> np.ndarray:
    """Linear-in-time extrapolation of the phase field to ``t_now``.

    Built from the two previous iterates at ``t_prev`` and ``t_prev2``;
    the weights sum to one, so a stationary history is reproduced
    exactly.  For uniform steps this is ``2 phi_prev - phi_prev2``.
    """
    if t_prev2 == t_prev:
        raise ValueError("extrapolation needs two distinct history times")
    w2 = (t_now - t_prev) / (t_prev2 - t_prev)
    w1 = (t_now - t_prev2) / (t_prev - t_prev2)
    return w2 * phi_prev2 + w1 * phi_prev


@dataclass
class Assembler:
    """Residual/Jacobian assembly for one mesh and parameter set.

    Holds the kernel input arrays and the scatter plan; the heavy work
    happens in :mod:`phasefrac.kernels`.
    """

    mesh: Mesh
    dofmap: DofMap
    params: MaterialParams
    plan: kernels.AssemblyPlan = field(init=False)
    _dx: np.ndarray = field(init=False)
    _dy: np.ndarray = field(init=False)
    _conn: np.ndarray = field(init=False)

    def __post_init__(self):
        self.plan = kernels.AssemblyPlan(self.dofmap.cell_dofs, self.dofmap.n_dofs)
        self._dx = np.ascontiguousarray(self.mesh.cell_size[:, 0])
        self._dy = np.ascontiguousarray(self.mesh.cell_size[:, 1])
        self._conn = np.ascontiguousarray(self.mesh.cells)

    def _fields(self, state: np.ndarray, phi_lin: np.ndarray):
        n = self.dofmap.n_nodes
        u = np.ascontiguousarray(state[: 2 * n])
        phi = np.ascontiguousarray(state[2 * n:])
        return u, phi, np.ascontiguousarray(phi_lin)

    def residual(self, state: np.ndarray, phi_lin: np.ndarray) -> np.ndarray:
        """Assembled right-hand side F at the given state."""
        p = self.params
        u, phi, phit = self._fields(state, phi_lin)
        blocks = kernels.residual_blocks(
            self._dx, self._dy, self._conn, u, phi, phit,
            p.mu, p.lam, p.gc, p.eps, p.kappa, p.pressure, p.split_code,
        )
        return self.plan.vector_from_blocks(blocks)

    def system(self, state: np.ndarray, phi_lin: np.ndarray):
        """Jacobian matrix and residual vector at the given state."""
        p = self.params
        u, phi, phit = self._fields(state, phi_lin)
        kblocks, fblocks = kernels.system_blocks(
            self._dx, self._dy, self._conn, u, phi, phit,
            p.mu, p.lam, p.gc, p.eps, p.kappa, p.pressure, p.split_code,
        )
        matrix = self.plan.matrix_from_blocks(kblocks)
        rhs = self.plan.vector_from_blocks(fblocks)
        return matrix, rhs
