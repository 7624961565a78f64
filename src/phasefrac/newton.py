"""Primal-dual active set Newton solver with backtracking line search.

One Newton iteration classifies the active set from the fresh residual,
projects the phase field onto its bound there, removes the active rows
and columns, and solves the reduced linearized system.  Four strategies
for the active-set constant c govern classification and stopping:

    case 1: constant c, stop when the mask repeats and the reduced
            residual is small
    case 2: per-dof adaptive c = 2|lambda_i / dphi_i|, same stopping
    case 3: constant c, residual-only convergence, then a fixed number
            of additional iterations
    case 4: constant c, residual-only stopping

Cases 1 and 2 also stop on a small reduced residual when the mask has
cycled with period two for two periods (A, B, A, B): grazing dofs whose
multiplier and bound gap both sit at rounding level can toggle forever
without changing the solution.

The engine is algebraic: it sees a :class:`BoundSystem` (residual and
Jacobian callbacks, the bound, a mass diagonal and one static constraint
operator P) and knows nothing of the mesh.  It eliminates an active set
by dropping its phase-field columns from P and condensing with the
result, so the FEM problem and the small test problems share one
elimination.  The FEM wiring lives in :mod:`phasefrac.driver`, which
builds P once per run and one :class:`BoundSystem` per linearization.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sps

from .fem import condense_system, drop_columns, eliminated_dofs
from .linsolve import GmresResult, solve_block_triangular

CASE_CHOICES = (1, 2, 3, 4)


@dataclass
class SolverSettings:
    case: int = 2
    c_constant: float = 10.0
    tol_newton: float = 1.0e-7
    max_iterations: int = 500
    l_max: int = 10
    omega: float = 0.6
    case3_extra_iterations: int = 10

    def __post_init__(self):
        if self.case not in CASE_CHOICES:
            raise ValueError(f"case must be one of {CASE_CHOICES}")
        if not 0.0 < self.omega <= 1.0:
            raise ValueError("omega must satisfy 0 < omega <= 1")
        if self.c_constant <= 0.0:
            raise ValueError("c_constant must be positive")


@dataclass
class NewtonReport:
    iterations: int = 0
    residual_history: list = field(default_factory=list)
    active_set_sizes: list = field(default_factory=list)
    line_search_steps: list = field(default_factory=list)
    gmres_iterations: list = field(default_factory=list)  # both stages, per step
    stage_iterations: list = field(default_factory=list)  # (lead, trail) per step
    linear_fallbacks: int = 0  # steps whose Krylov solve fell back to spsolve
    # (lead, trail) nnz(L+U) of the factors built per step; 0 where the
    # lagged lead factor was reused
    factor_fill: list = field(default_factory=list)
    converged: bool = False
    termination_reason: str = ""
    final_residual: float = 0.0
    case3_first_hit: Optional[int] = None
    lambda_mult: Optional[np.ndarray] = None
    active: Optional[np.ndarray] = None


def classify_active_set(
    residual_phi: np.ndarray,
    mass_diag: np.ndarray,
    phi: np.ndarray,
    phi_old: np.ndarray,
    settings: SolverSettings,
    classifiable: Optional[np.ndarray] = None,
    previous: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Active set {i : B_ii^-1 R_i + c (phi_i - phi_old_i) > 0}.

    Returns one boolean flag per constrained dof; true means active
    (projected onto the bound).

    ``residual_phi`` holds the phase-field rows of the full (unreduced)
    residual.  For case 2 the constant is the per-dof adaptive value.

    Dofs whose criterion sits within rounding of zero (relative to the
    largest decisive criterion) are ties: they keep the label from
    ``previous`` when given, so sign noise on a grazing dof cannot toggle
    the set between sweeps.  Without a previous mask ties stay inactive,
    which is the strict reading of "> 0".
    """
    lam = residual_phi / mass_diag
    dphi = phi - phi_old
    if settings.case == 2:
        cvec = np.full(len(lam), settings.c_constant)
        # a multiplier at rounding noise must not shrink c to zero, or a
        # genuine bound violation on that dof would classify as a tie
        lam_scale = np.abs(lam).max(initial=0.0)
        nontrivial = np.abs(lam) > 1.0e-12 * lam_scale
        formula_ok = nontrivial & (
            np.abs(dphi) > 1.0e-14 * np.maximum(1.0, np.abs(lam))
        )
        cvec[formula_ok] = 2.0 * np.abs(lam[formula_ok] / dphi[formula_ok])
    else:
        cvec = settings.c_constant
    crit = lam + cvec * dphi
    if classifiable is not None:
        scale = np.abs(crit[classifiable]).max(initial=0.0)
    else:
        scale = np.abs(crit).max(initial=0.0)
    floor = 1.0e-12 * scale
    flags = crit > floor
    if previous is not None:
        tied = np.abs(crit) <= floor
        flags[tied] = previous[tied]
    if classifiable is not None:
        flags &= classifiable
    return flags


def kkt_check(
    phi: np.ndarray,
    phi_old: np.ndarray,
    lambda_mult: np.ndarray,
    tol: float,
    mask: Optional[np.ndarray] = None,
) -> dict:
    """Componentwise KKT violations of the bound-constrained system.

    Returns max violations of feasibility (phi <= phi_old), multiplier
    sign (lambda >= 0), and complementarity (lambda * dphi = 0).
    """
    dphi = phi - phi_old
    lam = lambda_mult
    if mask is not None:
        dphi = dphi[mask]
        lam = lam[mask]
    feas = float(max(dphi.max(initial=0.0), 0.0))
    sign = float(max((-lam).max(initial=0.0), 0.0))
    comp = float(np.abs(lam * dphi).max(initial=0.0))
    return {
        "feasibility": feas,
        "multiplier_sign": sign,
        "complementarity": comp,
        "passed": feas <= tol and sign <= tol and comp <= tol,
    }


def factor_block(block: sp.spmatrix) -> sps.SuperLU:
    """Sparse LU of one diagonal block of the condensed Newton system.

    Both blocks are symmetric positive definite: the displacement block
    is B^T D B with the residual stiffness kappa > 0, the phase-field
    block a reaction mass plus a Laplacian, and each has unit rows on
    eliminated dofs.  So SuperLU runs in symmetric mode: a minimum-degree
    ordering of A^T + A, and diagonal pivots taken without a threshold
    test (``diag_pivot_thresh=0``), since LU without pivoting is backward
    stable on SPD matrices.  Against the default COLAMD ordering this
    roughly halves nnz(L+U) and the factor time on the preset blocks.
    A singular block still raises.
    """
    # looked up as ``sps.splu`` at call time, where the benchmark's
    # factor probe wraps it
    return sps.splu(
        block.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )


@dataclass
class BoundSystem:
    """A bound-constrained nonlinear system the PDAS engine can solve.

    ``residual`` evaluates the full-size right-hand side and ``jacobian``
    the full-size Jacobian matrix alone: the engine condenses the
    Jacobian with the residual it already holds for the same state (see
    :func:`pdas_solve`).  ``P`` is the static constraint operator: the
    hanging-node interpolation with the columns of Dirichlet dofs dropped
    (the identity for a system without either).  Bound-constrained dofs with
    an empty column of P are never classified.
    """

    phi_dofs: np.ndarray  # indices of constrained dofs in the state
    phi_upper: np.ndarray  # bound values, same length
    mass_diag: np.ndarray
    P: sp.csr_matrix
    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], sp.spmatrix]
    project: Optional[Callable[[np.ndarray], None]] = None  # post-update hook
    block_split: int = 0  # leading-block size of the two-stage solve


def pdas_solve(
    system: BoundSystem,
    state: np.ndarray,
    settings: SolverSettings,
) -> NewtonReport:
    """PDAS Newton solve of ``system``, in place on ``state``.

    One iteration = one reduced linear solve.  Stopping is evaluated at
    the top of each pass on the freshly classified, projected state.

    The active set is eliminated through the constraint operator: for
    each new mask, ``Pa`` is ``system.P`` with the active phase-field
    columns dropped, the Jacobian is condensed to ``Pa^T J Pa`` (unit
    diagonal on eliminated dofs), residuals are reduced by ``Pa^T`` and
    updates expanded by ``Pa``.

    The right-hand side of each linear solve is the held residual ``raw``
    that also classified the active set, not a second assembly.  This is
    exact: ``raw`` is always the residual at ``state``.  It is evaluated
    on entry, again after moved bound dofs are projected, and by the line
    search for the trial that then becomes ``state``.

    The reduced system is block lower triangular (the displacement rows
    see the frozen linearization, not the phase field), so it is solved
    in two GMRES stages, each preconditioned by a sparse LU of its
    diagonal block from :func:`factor_block`: a lagged factor of the
    displacement block, and a fresh factor of the phase-field block
    every step.  ``report.factor_fill`` records nnz(L+U) of the factors
    each step built.  GMRES around the exact factors keeps the absolute
    stopping target of :func:`solve_block_triangular`, so a negligible
    stage is skipped and every direction meets the same residual target;
    see :mod:`phasefrac.linsolve` for why a plain direct solve is not
    used.
    """
    report = NewtonReport()
    pdofs = system.phi_dofs
    upper = system.phi_upper
    classifiable = ~eliminated_dofs(system.P)[pdofs]

    # masks of the last three passes, newest last
    recent: deque = deque(maxlen=3)
    case3_hit: Optional[int] = None
    split = system.block_split
    # Lagged factorization of the leading block: the displacement block
    # drifts only through the refrozen stress split, so one factor serves
    # many Newton steps as a near-exact GMRES preconditioner.
    lead_lu: Optional[sps.SuperLU] = None
    Pa: Optional[sp.csr_matrix] = None

    # full residual of the current state; later passes take the one the
    # line search computed for the accepted trial
    raw = system.residual(state)
    while True:
        prev = recent[-1] if recent else None
        act = classify_active_set(
            raw[pdofs], system.mass_diag, state[pdofs], upper, settings,
            classifiable, previous=prev,
        )
        same = prev is not None and np.array_equal(act, prev)
        if Pa is None or not same:
            Pa = drop_columns(system.P, pdofs[act])
        moved = act & (state[pdofs] != upper)
        if moved.any():
            state[pdofs[moved]] = upper[moved]
            if system.project is not None:
                system.project(state)
            raw = system.residual(state)
        lam = np.zeros(len(pdofs))
        lam[act] = raw[pdofs[act]] / system.mass_diag[act]

        rnorm = float(np.linalg.norm(Pa.T @ raw))
        small = rnorm <= settings.tol_newton
        if settings.case in (1, 2):
            # At entry (no previous mask) the classification of a warm
            # state counts as stable; a converged state is left untouched
            # instead of being jittered by noise-sized updates.
            stable = prev is None or same
            # Two full periods of a two-mask cycle: the toggling dofs have
            # multipliers and bound gaps at rounding level, and neither
            # mask is left by further steps.
            cycling = (
                len(recent) == 3
                and np.array_equal(act, recent[-2])
                and np.array_equal(recent[-1], recent[0])
            )
            done = small and (stable or cycling)
            reason = "converged" if stable else "active_set_cycle"
        elif settings.case == 3:
            if case3_hit is None and small:
                case3_hit = report.iterations
            done = case3_hit is not None and report.iterations >= case3_hit + settings.case3_extra_iterations
            reason = "case3_extra_done"
        else:
            done = small
            reason = "converged"
        if done:
            report.converged = True
            report.termination_reason = reason
            report.final_residual = rnorm
            break
        if report.iterations >= settings.max_iterations:
            report.converged = False
            report.termination_reason = "max_iterations"
            report.final_residual = rnorm
            break

        mat_red, rhs_red = condense_system(system.jacobian(state), raw, Pa)
        lead = mat_red[:split, :split]
        coupling = mat_red[split:, :split]
        trail = mat_red[split:, split:]
        lead_fill = 0
        if split and lead_lu is None:
            lead_lu = factor_block(lead)
            lead_fill = lead_lu.nnz
        trail_lu = factor_block(trail)
        fill = (lead_fill, trail_lu.nnz)
        sol = solve_block_triangular(
            lead, coupling, trail, rhs_red,
            stage_preconds=(
                lead_lu.solve if lead_lu is not None else None, trail_lu.solve
            ),
        )
        # the trailing factor lives only for this solve, so two of them
        # never coexist in memory
        del trail_lu
        stage_iters = sol.stage_iters
        if stage_iters[0] > 30:
            lead_lu = None  # block drifted too far; refactor next pass
        if not sol.converged:
            # a stagnated Krylov solve would feed the line search a junk
            # direction; fall back to a sparse direct solve for this step
            sol = GmresResult(
                sps.spsolve(mat_red.tocsc(), rhs_red), True, sol.n_iters
            )
            lead_lu = None
            report.linear_fallbacks += 1
        delta = Pa @ sol.x

        step = 1.0
        for l in range(settings.l_max + 1):
            trial = state + step * delta
            if system.project is not None:
                system.project(trial)
            raw = system.residual(trial)
            tnorm = float(np.linalg.norm(Pa.T @ raw))
            if tnorm < rnorm:
                break
            step *= settings.omega
        # without a decrease the last, shortest trial is taken; either way
        # ``raw`` is its full residual and seeds the next pass
        report.line_search_steps.append(l)
        state[:] = trial

        report.iterations += 1
        report.residual_history.append(tnorm)
        report.active_set_sizes.append(int(act.sum()))
        report.gmres_iterations.append(sol.n_iters)
        report.stage_iterations.append(stage_iters)
        report.factor_fill.append(fill)
        recent.append(act)

    report.lambda_mult = lam
    report.active = act.copy()
    report.case3_first_hit = case3_hit
    return report
