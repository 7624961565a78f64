"""Restarted GMRES with right preconditioning, and the two-stage solve.

Modified Gram-Schmidt Arnoldi with Givens rotations; the least-squares
residual is updated rotation by rotation, so convergence is detected
without extra matvecs.  Right preconditioning keeps the monitored
residual equal to the true unpreconditioned residual.  The relative
tolerance, restart length and iteration cap are the module constants
``REL_TOL``, ``RESTART`` and ``MAX_ITERS``; no run sets them.

The Newton solver slices the condensed system into its two diagonal
blocks and the coupling block and hands each stage of
:func:`solve_block_triangular` a sparse LU factorization of that stage's
diagonal block as its preconditioner (see ``newton.factor_block``); with
the exact phase-field factor the second stage converges in one or two
iterations.  Both blocks are symmetric positive definite, so SuperLU
factors them in symmetric mode, with a minimum-degree ordering of
A^T + A and no pivoting (LU without pivoting is backward stable on SPD
matrices), which halves nnz(L+U) against the COLAMD default.  GMRES
stays around the LU because its absolute stopping target fixes how
exactly each Newton direction is solved, and the spectral-split Newton
counts of the SENS benchmark are chaotic in that accuracy.  On its
ten-increment run, solving both stages directly takes the fifth
increment from 4 Newton steps to 8; solving only the phase-field stage
directly raises one perturbed load step size from 77 steps in total to
85, 17 of them in one increment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

REL_TOL = 1.0e-8
RESTART = 100
# beyond a few restart cycles the Krylov solve is stalling, and the
# caller's direct fallback is cheaper than more cycles
MAX_ITERS = 400


@dataclass
class GmresResult:
    x: np.ndarray
    converged: bool
    n_iters: int
    stage_iters: Optional[tuple] = None  # per-stage counts for block solves


def gmres(
    matrix: sp.csr_matrix,
    rhs: np.ndarray,
    precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    tol: Optional[float] = None,
) -> GmresResult:
    """Solve matrix @ x = rhs from a zero start until the 2-norm residual
    is at most ``tol`` (default ``REL_TOL * |rhs|``).

    ``precond`` applies M^{-1} (right preconditioning); without one the
    iteration is unpreconditioned.
    """
    n = len(rhs)
    x = np.zeros(n)
    if precond is None:
        precond = lambda y: y

    norm_b = np.linalg.norm(rhs)
    if tol is None:
        tol = REL_TOL * norm_b
    total = 0

    r = rhs - matrix @ x
    beta = np.linalg.norm(r)
    if beta <= tol or norm_b == 0.0:
        return GmresResult(x, True, 0)

    m = RESTART
    while total < MAX_ITERS:
        V = np.zeros((m + 1, n))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        V[0] = r / beta
        g[0] = beta

        k_used = 0
        for k in range(m):
            if total >= MAX_ITERS:
                break
            w = matrix @ precond(V[k])
            for i in range(k + 1):
                H[i, k] = w @ V[i]
                w -= H[i, k] * V[i]
            h_next = np.linalg.norm(w)
            H[k + 1, k] = h_next
            if h_next > 0.0:
                V[k + 1] = w / h_next

            # apply stored rotations, then create the new one
            for i in range(k):
                t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                H[i + 1, k] = -sn[i] * H[i, k] + cs[i] * H[i + 1, k]
                H[i, k] = t
            denom = np.hypot(H[k, k], H[k + 1, k])
            if denom == 0.0:
                cs[k], sn[k] = 1.0, 0.0
            else:
                cs[k] = H[k, k] / denom
                sn[k] = H[k + 1, k] / denom
            H[k, k] = cs[k] * H[k, k] + sn[k] * H[k + 1, k]
            H[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]

            total += 1
            k_used = k + 1
            if abs(g[k + 1]) <= tol:
                break
            if h_next == 0.0:  # invariant subspace reached
                break

        if k_used > 0:
            y = np.zeros(k_used)
            for i in range(k_used - 1, -1, -1):
                y[i] = (g[i] - H[i, i + 1: k_used] @ y[i + 1: k_used]) / H[i, i]
            x = x + precond(V[:k_used].T @ y)

        r = rhs - matrix @ x
        beta = np.linalg.norm(r)
        if beta <= tol:
            return GmresResult(x, True, total)
        if k_used == 0:
            break

    return GmresResult(x, False, total)


def solve_block_triangular(
    lead: sp.csr_matrix,
    coupling: sp.csr_matrix,
    trail: sp.csr_matrix,
    rhs: np.ndarray,
    stage_preconds: tuple = (None, None),
) -> GmresResult:
    """Two-stage solve of a block lower-triangular system.

    The system is [[lead, 0], [coupling, trail]]: the leading block is
    solved first, and the trailing block sees its solution through the
    coupling block.  Each stage runs GMRES with its own preconditioner
    applier from ``stage_preconds`` (``None`` runs that stage
    unpreconditioned), which keeps badly scaled blocks from polluting
    each other.  An empty (0 x 0) leading block makes the whole system
    one stage.
    """
    split = lead.shape[0]
    # One absolute target from the full right-hand side, so a stage whose
    # own rhs is already below it returns immediately instead of chasing
    # a relative tolerance on a negligible block.  The stages contribute
    # orthogonal residual blocks, hence the 1/sqrt(2) to keep the combined
    # residual within the requested tolerance.
    tol = REL_TOL * float(np.linalg.norm(rhs)) / np.sqrt(2.0)
    first = gmres(lead, rhs[:split], stage_preconds[0], tol)
    second = gmres(trail, rhs[split:] - coupling @ first.x, stage_preconds[1], tol)
    return GmresResult(
        np.concatenate([first.x, second.x]),
        first.converged and second.converged,
        first.n_iters + second.n_iters,
        stage_iters=(first.n_iters, second.n_iters),
    )
