"""Small bound-constrained toy problems shared by solver tests.

A 1-D screened Laplacian quadratic with an upper bound: minimize
(1/2) phi^T A phi - b^T phi subject to phi <= ub, with unit "mass"
scaling so the recovered multiplier is simply the residual on the
active set.  Brute-force enumeration of active subsets provides the
reference solution.
"""

import numpy as np
import scipy.sparse as sp

from phasefrac.newton import BoundSystem


def screened_laplacian(n, shift=1.0, h=1.0):
    main = np.full(n, shift + 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


def obstacle_system(A, b, ub):
    """Wrap the quadratic obstacle problem as a BoundSystem."""
    A = sp.csr_matrix(A)
    n = A.shape[0]

    def residual(state):
        return b - A @ state

    def system(state):
        return A.copy(), b - A @ state

    return BoundSystem(
        phi_dofs=np.arange(n),
        phi_upper=ub.astype(float).copy(),
        mass_diag=np.ones(n),
        P=sp.identity(n, format="csr"),
        residual=residual,
        system=system,
    )


def qp_enumerate(A, b, ub, tol=1e-10):
    """Exact solution by trying every active subset; unique for SPD A."""
    A = np.asarray(A.toarray() if sp.issparse(A) else A)
    n = len(b)
    best = None
    for bits in range(2**n):
        act = np.array([(bits >> i) & 1 == 1 for i in range(n)])
        phi = np.empty(n)
        phi[act] = ub[act]
        free = ~act
        if free.any():
            rhs = b[free] - A[np.ix_(free, act)] @ ub[act]
            phi[free] = np.linalg.solve(A[np.ix_(free, free)], rhs)
        lam = np.zeros(n)
        lam[act] = (b - A @ phi)[act]
        feasible = np.all(phi <= ub + tol)
        dual_ok = np.all(lam[act] >= -tol)
        if feasible and dual_ok:
            candidate = (phi, lam)
            if best is None:
                best = candidate
            else:
                # SPD: the KKT point is unique; keep the first
                pass
    return best
