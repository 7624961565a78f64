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

The engine is generic over a :class:`BoundSystem`; adapters exist for
the assembled FEM problem and for small obstacle-type test problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .fem import (
    DofMap,
    apply_hanging_to_vector,
    condense_system,
    constraint_operator,
    expand_update,
    reduce_residual,
)
import scipy.sparse.linalg as sps

from .linsolve import GmresResult, GmresSettings, solve_block_triangular
from .material import Assembler
from .mesh import ConstraintSet

CASE_CHOICES = (1, 2, 3, 4)


@dataclass(frozen=True)
class ActiveSetMask:
    """Boolean flag per constrained dof; true means active (projected)."""

    flags: np.ndarray

    @property
    def size(self) -> int:
        return int(self.flags.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ActiveSetMask):
            return NotImplemented
        return np.array_equal(self.flags, other.flags)


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
    converged: bool = False
    termination_reason: str = ""
    final_residual: float = 0.0
    case3_first_hit: Optional[int] = None
    lambda_mult: Optional[np.ndarray] = None
    active: Optional[np.ndarray] = None


def complementarity_residual(lam: float, dphi: float, c: float) -> float:
    """C(lambda, dphi; c) = lambda - max(0, lambda + c*dphi).

    Zero exactly when (dphi <= 0, lambda >= 0, lambda*dphi = 0).
    """
    return lam - max(0.0, lam + c * dphi)


def adaptive_c(lam: float, dphi: float, fallback: float) -> float:
    """Per-dof active-set constant 2|lambda/dphi| with guarded fallback."""
    if lam != 0.0 and abs(dphi) > 1.0e-14 * max(1.0, abs(lam)):
        return 2.0 * abs(lam / dphi)
    return fallback


def classify_active_set(
    residual_phi: np.ndarray,
    mass_diag: np.ndarray,
    phi: np.ndarray,
    phi_old: np.ndarray,
    settings: SolverSettings,
    classifiable: Optional[np.ndarray] = None,
    previous: Optional[np.ndarray] = None,
) -> ActiveSetMask:
    """Active set {i : B_ii^-1 R_i + c (phi_i - phi_old_i) > 0}.

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
    return ActiveSetMask(flags)


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


@dataclass
class BoundSystem:
    """A bound-constrained nonlinear system the PDAS engine can solve.

    ``residual``/``system`` evaluate the full-size right-hand side and
    Jacobian; ``reduce``/``condense``/``expand`` map between the full
    and reduced (active + fixed dofs removed) representations for a
    given active mask over the constrained dofs.
    """

    n_dofs: int
    phi_dofs: np.ndarray  # indices of constrained dofs in the state
    phi_upper: np.ndarray  # bound values, same length
    mass_diag: np.ndarray
    classifiable: np.ndarray
    residual: Callable[[np.ndarray], np.ndarray]
    system: Callable[[np.ndarray], tuple]
    reduce: Callable[[np.ndarray, np.ndarray], np.ndarray]
    condense: Callable
    expand: Callable[[np.ndarray, np.ndarray], np.ndarray]
    project: Optional[Callable[[np.ndarray], None]] = None  # post-update hook
    block_split: int = 0  # leading-block size of the two-stage solve


def pdas_loop(
    system: BoundSystem,
    state: np.ndarray,
    settings: SolverSettings,
    gmres_settings: Optional[GmresSettings] = None,
) -> NewtonReport:
    """Run the PDAS Newton iteration in place on ``state``.

    One iteration = one reduced linear solve.  Stopping is evaluated at
    the top of each pass on the freshly classified, projected state.

    The reduced system is block lower triangular (the displacement rows
    see the frozen linearization, not the phase field), so it is solved
    in two GMRES stages, each preconditioned by a sparse LU of its
    diagonal block: a lagged factor of the displacement block, and a
    fresh factor of the phase-field block every step.  GMRES around the
    exact factors keeps the absolute stopping target of
    :func:`solve_block_triangular`, so a negligible stage is skipped and
    every direction meets the same residual target; see
    :mod:`phasefrac.linsolve` for why a plain direct solve is not used.
    """
    gmres_settings = gmres_settings or GmresSettings()
    report = NewtonReport()
    pdofs = system.phi_dofs
    upper = system.phi_upper

    prev_mask: Optional[ActiveSetMask] = None
    case3_hit: Optional[int] = None
    split = system.block_split
    # Lagged factorization of the leading block: the displacement block
    # drifts only through the refrozen stress split, so one factor serves
    # many Newton steps as a near-exact GMRES preconditioner.
    lead_precond: Optional[Callable[[np.ndarray], np.ndarray]] = None

    # full residual of the current state; later passes take the one the
    # line search computed for the accepted trial
    raw = system.residual(state)
    while True:
        mask = classify_active_set(
            raw[pdofs], system.mass_diag, state[pdofs], upper, settings,
            system.classifiable,
            previous=prev_mask.flags if prev_mask is not None else None,
        )
        act = mask.flags
        moved = act & (state[pdofs] != upper)
        if moved.any():
            state[pdofs[moved]] = upper[moved]
            if system.project is not None:
                system.project(state)
            raw = system.residual(state)
        lam = np.zeros(len(pdofs))
        lam[act] = raw[pdofs[act]] / system.mass_diag[act]

        reduced = system.reduce(raw, act)
        rnorm = float(np.linalg.norm(reduced))
        small = rnorm <= settings.tol_newton
        if settings.case in (1, 2):
            # At entry (no previous mask) the classification of a warm
            # state counts as stable; a converged state is left untouched
            # instead of being jittered by noise-sized updates.
            stable = prev_mask is None or mask == prev_mask
            done = small and stable
        elif settings.case == 3:
            if case3_hit is None and small:
                case3_hit = report.iterations
            done = case3_hit is not None and report.iterations >= case3_hit + settings.case3_extra_iterations
        else:
            done = small
        if done:
            report.converged = True
            report.termination_reason = (
                "case3_extra_done" if settings.case == 3 else "converged"
            )
            report.final_residual = rnorm
            break
        if report.iterations >= settings.max_iterations:
            report.converged = False
            report.termination_reason = "max_iterations"
            report.final_residual = rnorm
            break

        matrix, rhs = system.system(state)
        mat_red, rhs_red = system.condense(matrix, rhs, act)
        mat_red = mat_red.tocsr()
        if split and lead_precond is None:
            lead_precond = sps.splu(mat_red[:split, :split].tocsc()).solve
        # the trailing factor lives only for this solve, so two of them
        # never coexist in memory
        sol = solve_block_triangular(
            mat_red, rhs_red, split, gmres_settings,
            stage_preconds=(
                lead_precond, sps.splu(mat_red[split:, split:].tocsc()).solve,
            ),
        )
        stage_iters = sol.stage_iters
        if stage_iters[0] > 30:
            lead_precond = None  # block drifted too far; refactor next pass
        if not sol.converged:
            # a stagnated Krylov solve would feed the line search a junk
            # direction; fall back to a sparse direct solve for this step
            sol = GmresResult(
                sps.spsolve(mat_red.tocsc(), rhs_red), True, sol.n_iters
            )
            lead_precond = None
            report.linear_fallbacks += 1
        delta = system.expand(sol.x, act)

        step = 1.0
        for l in range(settings.l_max + 1):
            trial = state + step * delta
            if system.project is not None:
                system.project(trial)
            raw = system.residual(trial)
            tnorm = float(np.linalg.norm(system.reduce(raw, act)))
            if tnorm < rnorm:
                break
            step *= settings.omega
        # without a decrease the last, shortest trial is taken; either way
        # ``raw`` is its full residual and seeds the next pass
        report.line_search_steps.append(l)
        state[:] = trial

        report.iterations += 1
        report.residual_history.append(tnorm)
        report.active_set_sizes.append(mask.size)
        report.gmres_iterations.append(sol.n_iters)
        report.stage_iterations.append(stage_iters)
        prev_mask = mask

    report.lambda_mult = lam
    report.active = act.copy()
    report.case3_first_hit = case3_hit
    return report


# ----------------------------------------------------------------------
# FEM adapter
# ----------------------------------------------------------------------


def fem_bound_system(
    assembler: Assembler,
    dofmap: DofMap,
    constraints: ConstraintSet,
    fixed: np.ndarray,
    phi_old: np.ndarray,
    phi_lin: np.ndarray,
    mass_diag: np.ndarray,
) -> BoundSystem:
    """Wrap the assembled phase-field problem for the PDAS engine.

    ``fixed`` is the boolean Dirichlet mask over all dofs (values
    already written into the state; updates vanish there).  Hanging
    phase-field dofs and Dirichlet phase-field dofs are not classified.
    """
    n_nodes = dofmap.n_nodes
    phi_dofs = 2 * n_nodes + np.arange(n_nodes)
    classifiable = ~fixed[phi_dofs]
    classifiable[constraints.nodes] = False

    op_cache = {}

    def make_operator(active):
        key = active.tobytes()
        if key not in op_cache:
            full_fixed = fixed.copy()
            full_fixed[phi_dofs[active]] = True
            op_cache.clear()  # one entry is enough: masks repeat only back to back
            op_cache[key] = constraint_operator(dofmap, constraints, full_fixed)
        return op_cache[key]

    def _residual(state):
        return assembler.residual(state, phi_lin)

    def _system(state):
        return assembler.system(state, phi_lin)

    def _reduce(rhs, active):
        return reduce_residual(rhs, make_operator(active))

    def _condense(matrix, rhs, active):
        return condense_system(matrix, rhs, make_operator(active))

    def _expand(delta_red, active):
        return expand_update(delta_red, make_operator(active))

    def _project(state):
        if len(constraints):
            apply_hanging_to_vector(state, dofmap, constraints)

    return BoundSystem(
        n_dofs=dofmap.n_dofs,
        phi_dofs=phi_dofs,
        phi_upper=phi_old.astype(float).copy(),
        mass_diag=mass_diag,
        classifiable=classifiable,
        residual=_residual,
        system=_system,
        reduce=_reduce,
        condense=_condense,
        expand=_expand,
        project=_project,
        block_split=2 * n_nodes,
    )


def pdas_solve(
    state: np.ndarray,
    assembler: Assembler,
    dofmap: DofMap,
    constraints: ConstraintSet,
    fixed: np.ndarray,
    phi_old: np.ndarray,
    phi_lin: np.ndarray,
    mass_diag: np.ndarray,
    settings: SolverSettings,
    gmres_settings: Optional[GmresSettings] = None,
) -> NewtonReport:
    """PDAS Newton solve of one linearized increment, in place.

    ``phi_lin`` stays frozen for the whole call; the irreversibility
    bound is ``phi_old``.
    """
    system = fem_bound_system(
        assembler, dofmap, constraints, fixed, phi_old, phi_lin, mass_diag
    )
    return pdas_loop(system, state, settings, gmres_settings)
