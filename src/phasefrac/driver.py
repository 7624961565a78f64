"""Incremental quasi-static loop with iteration on the linearization.

Each increment applies the load step, then repeatedly solves the PDAS
problem while updating the phase-field linearization from the most
recent inner iterates until consecutive iterates agree (ItL), or just
once when ItL is off.  The irreversibility bound for every solve of an
increment is the converged phase field of the previous increment.

The driver also wires the finite-element problem to the algebraic PDAS
engine of :mod:`phasefrac.newton`: it builds the constraint operator P
(hanging-node interpolation with the Dirichlet columns dropped) once per
run, and for each linearization a :class:`~phasefrac.newton.BoundSystem`
whose residual and Jacobian close over the frozen phase field.  ItL
stops as not converged after ``MAX_ITL_ITERATIONS`` solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .fem import (
    apply_hanging_to_vector,
    assemble_mass_diagonal,
    build_dof_map,
    constraint_operator,
    eliminated_dofs,
)
from .material import (
    LINEARIZE_EXTRAPOLATE,
    LINEARIZE_PREVIOUS,
    Assembler,
    MaterialParams,
    extrapolate_phase,
)
from .mesh import ConstraintSet, Mesh
from .newton import (
    CASE_CHOICES,
    BoundSystem,
    NewtonReport,
    SolverSettings,
    kkt_check,
    pdas_solve,
)
from .qoi import QoiRecord, boundary_load, crack_energy, total_crack_volume

ITL_MODES = ("none", "ite", "itots")
# ItL solves per increment before it counts as not converged
MAX_ITL_ITERATIONS = 200


@dataclass
class RunConfig:
    benchmark: str = "custom"
    case: int = 2
    itl_mode: str = "none"
    linearization: str = LINEARIZE_EXTRAPOLATE  # used when itl_mode == "none"
    tol_itl: float = 1.0e-1
    # None means "let the benchmark preset pick its default".
    k_n: Optional[float] = None
    n_increments: Optional[int] = None
    global_refines: Optional[int] = None
    local_refines: Optional[int] = None
    split: Optional[str] = None
    tol_newton: float = 1.0e-7
    case_c_constant: Optional[float] = None  # default 10 * E
    max_newton_iterations: int = 500
    out_dir: Optional[str] = None
    vtk_every: int = 0
    abort_on_nonconvergence: bool = False

    def __post_init__(self):
        if self.itl_mode not in ITL_MODES:
            raise ValueError(f"itl_mode must be one of {ITL_MODES}")
        if self.linearization not in (LINEARIZE_EXTRAPOLATE, LINEARIZE_PREVIOUS):
            raise ValueError("linearization must be 'extrapolate' or 'previous'")
        if self.k_n is not None and self.k_n <= 0.0:
            raise ValueError("k_n must be positive")
        if self.itl_mode != "none" and self.tol_itl <= 0.0:
            raise ValueError("tol_itl must be positive when ItL is enabled")
        if self.n_increments is not None and self.n_increments < 1:
            raise ValueError("n_increments must be at least 1")
        for key in ("global_refines", "local_refines"):
            val = getattr(self, key)
            if val is not None and val < 0:
                raise ValueError(f"{key} must be >= 0")
        if self.split is not None and self.split not in ("none", "spectral"):
            raise ValueError("split must be 'none' or 'spectral'")
        if self.case not in CASE_CHOICES:
            raise ValueError(f"case must be one of {CASE_CHOICES}")
        if not self.tol_newton > 0.0:
            raise ValueError("tol_newton must be positive")
        if self.case_c_constant is not None and not self.case_c_constant > 0.0:
            raise ValueError("case_c_constant must be positive")
        if self.max_newton_iterations < 1:
            raise ValueError("max_newton_iterations must be at least 1")
        if self.vtk_every < 0:
            raise ValueError("vtk_every must be >= 0")


@dataclass
class Problem:
    """A fully prepared benchmark instance the driver can march in time."""

    mesh: Mesh
    constraints: ConstraintSet
    params: MaterialParams
    initial_phi: np.ndarray
    fixed: np.ndarray  # static Dirichlet mask over all dofs
    apply_values: Callable[[np.ndarray, float], None]  # write BC values at t
    load_marker: Optional[str] = None
    tcv_reference: Optional[float] = None
    name: str = "custom"


@dataclass
class IncrementResult:
    record: QoiRecord
    report: NewtonReport
    converged: bool
    itl_diffs: List[float]
    kkt: dict
    irreversibility: float  # min over nodes of phi_old - phi_new


@dataclass
class RunResult:
    records: List[QoiRecord]
    increments: List[IncrementResult]
    state: np.ndarray
    all_converged: bool


def run_incremental_loop(
    problem: Problem,
    config: RunConfig,
    settings: SolverSettings,
    on_increment: Optional[Callable[[int, np.ndarray, IncrementResult], None]] = None,
) -> RunResult:
    if config.k_n is None or config.n_increments is None:
        raise ValueError(
            "run configuration still has unset fields; resolve it through "
            "a benchmark preset first"
        )
    mesh, constraints = problem.mesh, problem.constraints
    dofmap = build_dof_map(mesh)
    assembler = Assembler(mesh, dofmap, problem.params)
    mass_diag = assemble_mass_diagonal(mesh, dofmap, constraints)
    n = dofmap.n_nodes
    # hanging-node interpolation with the Dirichlet columns dropped, built
    # once per run; every PDAS solve eliminates its active set from it
    P = constraint_operator(dofmap, constraints, problem.fixed)
    phi_dofs = 2 * n + np.arange(n)
    # the phase-field dofs the solver classifies: those with a non-empty
    # column of P (neither hanging nor Dirichlet)
    classifiable = ~eliminated_dofs(P)[phi_dofs]

    def project(vec: np.ndarray) -> None:
        if len(constraints):
            apply_hanging_to_vector(vec, dofmap, constraints)

    state = np.zeros(dofmap.n_dofs)
    state[2 * n:] = problem.initial_phi
    apply_hanging_to_vector(state, dofmap, constraints)

    phi_prev = problem.initial_phi.astype(float).copy()  # phi^{n-1}
    phi_prev2: Optional[np.ndarray] = None  # phi^{n-2}
    t_prev = 0.0
    t_prev2: Optional[float] = None

    records: List[QoiRecord] = []
    increments: List[IncrementResult] = []
    all_converged = True

    for step in range(1, config.n_increments + 1):
        t = step * config.k_n
        problem.apply_values(state, t)
        apply_hanging_to_vector(state, dofmap, constraints)
        phi_old = phi_prev.copy()

        # Inner iterates, seeded with [phi^{n,-1}, phi^{n,0}].
        seed_prev2 = phi_prev2 if phi_prev2 is not None else phi_prev
        iterates = [seed_prev2, phi_prev.copy()]
        have_history = phi_prev2 is not None

        def linearize(mode: str) -> np.ndarray:
            latest, second = iterates[-1], iterates[-2]
            if mode == "copy" or not have_history:
                return latest.copy()
            return extrapolate_phase(latest, second, t, t_prev, t_prev2)

        total_newton = 0
        itl_diffs: List[float] = []
        report: NewtonReport = NewtonReport()
        converged = True
        j = 0
        while True:
            if config.itl_mode == "none":
                mode = "copy" if config.linearization == LINEARIZE_PREVIOUS else "ext"
            elif config.itl_mode == "itots":
                mode = "copy"
            else:
                mode = "ext"
            phi_lin = linearize(mode)
            system = BoundSystem(
                phi_dofs=phi_dofs,
                phi_upper=phi_old,
                mass_diag=mass_diag,
                P=P,
                residual=lambda vec: assembler.residual(vec, phi_lin),
                jacobian=lambda vec: assembler.system(vec, phi_lin),
                project=project,
                block_split=2 * n,
            )
            report = pdas_solve(system, state, settings)
            total_newton += report.iterations
            converged = converged and report.converged
            j += 1
            iterates.append(state[2 * n:].copy())
            diff = float(np.linalg.norm(iterates[-1] - iterates[-2]))
            itl_diffs.append(diff)
            if config.itl_mode == "none":
                break
            # Two solves minimum: the first inner solve may move the field,
            # the second confirms it.  A warm state therefore reports j = 2.
            if diff < config.tol_itl and j >= 2:
                break
            if j >= MAX_ITL_ITERATIONS:
                converged = False
                break

        phi_new = state[2 * n:].copy()
        irrev = float((phi_old - phi_new).min())
        kkt = kkt_check(
            phi_new, phi_old, report.lambda_mult, 10.0 * settings.tol_newton,
            mask=classifiable,
        )

        tcv = total_crack_volume(mesh, dofmap, state)
        ec = crack_energy(mesh, dofmap, state, problem.params)
        if problem.load_marker is not None:
            lx, ly = boundary_load(
                mesh, dofmap, state, problem.params, problem.load_marker
            )
        else:
            lx = ly = 0.0

        record = QoiRecord(
            step=step,
            time=t,
            newton_iters=total_newton,
            itl_iters=j,
            active_set_size=int(report.active.sum()) if report.active is not None else 0,
            residual=report.final_residual,
            tcv=tcv,
            tcv_error=(
                abs(tcv - problem.tcv_reference)
                if problem.tcv_reference is not None
                else float("nan")
            ),
            crack_energy=ec,
            load_x=lx,
            load_y=ly,
        )
        inc = IncrementResult(record, report, converged, itl_diffs, kkt, irrev)
        records.append(record)
        increments.append(inc)
        all_converged = all_converged and converged
        if on_increment is not None:
            on_increment(step, state, inc)

        phi_prev2 = phi_prev
        phi_prev = phi_new
        t_prev2 = t_prev
        t_prev = t

        if not converged and config.abort_on_nonconvergence:
            break

    return RunResult(records, increments, state, all_converged)


def solver_settings_for(config: RunConfig, params) -> SolverSettings:
    """Per-run PDAS settings; the active-set constant defaults to 10 E."""
    c = config.case_c_constant
    if c is None:
        c = 10.0 * params.youngs
    return SolverSettings(
        case=config.case,
        c_constant=c,
        tol_newton=config.tol_newton,
        max_iterations=config.max_newton_iterations,
    )
