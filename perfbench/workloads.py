"""Workloads of the solver benchmark, their seeded inputs and their checks.

Every workload goes through the package's public path only:
``presets.build_problem`` -> ``driver.solver_settings_for`` ->
``driver.run_incremental_loop``, and reads ``RunResult`` fields.  Case 2
throughout.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass

# Reference QoI are compared within REL_TOL_PER_TOL_NEWTON times the Newton
# tolerance, relative to the largest magnitude the quantity takes over the
# run.  Converged states are only as close as the Newton tolerance allows:
# swapping the linear solve (GMRES at 1e-8, at 1e-11, or a direct solve)
# moves the elastic-range crack volume and crack energy by up to 1.2e-3
# relative, so 1e5 x tol_newton (1e-2 at the default) leaves margin while
# still catching the extrapolation drift ItL removes (a factor of 2.5).
REL_TOL_PER_TOL_NEWTON = 1.0e5
# KKT, irreversibility: the same 10 x tol_newton the driver's KKT check uses.
KKT_TOL_PER_TOL_NEWTON = 10.0
QOI_FIELDS = ("tcv", "crack_energy", "load_x", "load_y")
# Shared RunConfig fields.  Normal increments take at most about 25 Newton
# steps; a PDAS active-set 2-cycle (sneddon-itl at pressure x 1.0456, seed 2)
# would otherwise run to the preset's 500 iterations, several minutes.  The
# cap and the abort end such a run within the time limit and count the
# increment as failed.
SOLVER = dict(max_newton_iterations=60, abort_on_nonconvergence=True)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # RunConfig fields
    scaled: str  # "pressure" or "k_n": what a non-zero seed perturbs
    # Allowed drift of a per-increment Newton count from its seed-0
    # reference, as a share of it; one step is always allowed, since a
    # tighter linear solve can save the last step of an increment.
    count_slack: float = 0.0
    # RunConfig overrides for an untimed coarse run that loads every code
    # path (lazy scipy imports, first allocations) before timing starts.
    warmup: dict = dataclasses.field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sneddon-itl",
            "stationary pressurised crack with 288 hanging nodes and ItL: the "
            "most mesh building, hanging-node constraint work and ItL re-solves",
            dict(benchmark="sneddon2d", local_refines=4, split="none",
                 itl_mode="ite", n_increments=5),
            "pressure",
            warmup=dict(local_refines=1, n_increments=2),
        ),
        Workload(
            "sens-shear",
            "ten SENS increments with spectral split on the uniform 1,089-node "
            "mesh: Newton-heavy, so Jacobian, linear solve and line search dominate",
            dict(benchmark="sens", local_refines=0, n_increments=10),
            "k_n",
            # The spectral-split Newton count of one increment is chaotic: a
            # 0.5% change of k_n, or of the GMRES tolerance or BLAS thread
            # count, moves it by several steps; ten increments average that.
            count_slack=0.5,
            warmup=dict(global_refines=1, n_increments=2),
        ),
        Workload(
            "lpanel-elastic",
            "20 elastic L-panel increments of one Newton step, no hanging "
            "nodes: per-increment fixed costs (new factorisation, boundary-load QoI)",
            dict(benchmark="lpanel", global_refines=5, n_increments=20),
            "k_n",
            warmup=dict(global_refines=2, n_increments=2),
        ),
    )
}


def seed_factor(seed: int) -> float:
    """1 at seed 0 (the preset as shipped), else a draw from [0.95, 1.05]."""
    if seed == 0:
        return 1.0
    return random.Random(seed).uniform(0.95, 1.05)


def build(api, workload: Workload, seed: int, overrides: dict | None = None):
    """Build the seeded problem; returns (problem, config, settings)."""
    fields = {**SOLVER, **workload.config, **(overrides or {})}
    problem, config = api.presets.build_problem(api.driver.RunConfig(**fields))
    factor = seed_factor(seed)
    if factor != 1.0:
        if workload.scaled == "pressure":
            params = dataclasses.replace(problem.params, pressure=problem.params.pressure * factor)
            # the analytic crack volume is linear in the pressure
            ref = problem.tcv_reference
            problem = dataclasses.replace(
                problem, params=params, tcv_reference=None if ref is None else ref * factor
            )
        else:
            config = dataclasses.replace(config, k_n=config.k_n * factor)
    settings = api.driver.solver_settings_for(config, problem.params)
    return problem, config, settings


@dataclass
class Outcome:
    """What the checks need from one run, taken from RunResult fields."""

    newton_iters: list
    qoi: dict  # field -> per-increment values
    converged: list
    kkt_passed: list
    irreversibility: list
    itl_nonconverged: int
    tcv_reference: float | None

    @property
    def newton_steps(self) -> int:
        return sum(self.newton_iters)

    @property
    def increments(self) -> int:
        return len(self.newton_iters)

    def as_reference(self) -> dict:
        return {"newton_iters": self.newton_iters, **self.qoi}


def outcome(result, problem, config) -> Outcome:
    records = result.records
    itl_bad = 0
    if config.itl_mode != "none":
        for inc in result.increments:
            diffs = inc.itl_diffs
            if not (len(diffs) >= 2 and diffs[-1] < config.tol_itl):
                itl_bad += 1
    return Outcome(
        newton_iters=[int(r.newton_iters) for r in records],
        qoi={f: [float(getattr(r, f)) for r in records] for f in QOI_FIELDS},
        converged=[bool(inc.converged) for inc in result.increments],
        kkt_passed=[bool(inc.kkt["passed"]) for inc in result.increments],
        irreversibility=[float(inc.irreversibility) for inc in result.increments],
        itl_nonconverged=itl_bad,
        tcv_reference=problem.tcv_reference,
    )


def _close(values, expected, tol_newton) -> list:
    """Indices where two per-increment series differ beyond the tolerance."""
    scale = max((abs(v) for v in expected), default=0.0)
    tol = REL_TOL_PER_TOL_NEWTON * tol_newton * scale
    if len(values) != len(expected):
        return list(range(max(len(values), len(expected))))
    return [i for i, (a, b) in enumerate(zip(values, expected)) if not abs(a - b) <= tol]


def compare(out: Outcome, expected: dict, tol_newton: float, count_slack: float) -> dict:
    """Increment index -> reasons where ``out`` departs from ``expected``."""
    bad: dict = {}
    for f in QOI_FIELDS:
        for i in _close(out.qoi[f], expected[f], tol_newton):
            bad.setdefault(i, []).append(f"{f} off reference")
    ref_iters = expected["newton_iters"]
    for i, got in enumerate(out.newton_iters):
        ref = ref_iters[i] if i < len(ref_iters) else -1
        if abs(got - ref) > max(count_slack * ref, 1):
            bad.setdefault(i, []).append(f"newton_iters {got} vs reference {ref}")
    return bad


def identical(out: Outcome, other: Outcome) -> dict:
    """Increment index -> reasons where two runs of one input differ at all."""
    bad: dict = {}
    if out.increments != other.increments:
        return {i: ["increment count differs"] for i in range(out.increments)}
    for i in range(out.increments):
        if out.newton_iters[i] != other.newton_iters[i]:
            bad.setdefault(i, []).append("newton_iters differ between repetitions")
        if any(out.qoi[f][i] != other.qoi[f][i] for f in QOI_FIELDS):
            bad.setdefault(i, []).append("QoI differ between repetitions")
    return bad


def invariants(workload: Workload, out: Outcome, tol_newton: float) -> dict:
    """Increment index -> reasons for checks that hold at every seed."""
    bad: dict = {}
    tol = KKT_TOL_PER_TOL_NEWTON * tol_newton
    for i in range(out.increments):
        if not out.converged[i]:
            bad.setdefault(i, []).append("not converged")
        if not out.kkt_passed[i]:
            bad.setdefault(i, []).append("KKT check failed")
        if not out.irreversibility[i] >= -tol:
            bad.setdefault(i, []).append(f"irreversibility {out.irreversibility[i]:.3e}")
        for f in QOI_FIELDS:
            if not math.isfinite(out.qoi[f][i]):
                bad.setdefault(i, []).append(f"{f} not finite")
    if workload.config.get("itl_mode", "none") != "none":
        # ItL removes the extrapolation drift: on a stationary crack the
        # crack volume must not move from increment to increment.
        tcv = out.qoi["tcv"]
        for i in _close(tcv, [tcv[0]] * len(tcv), tol_newton):
            bad.setdefault(i, []).append("TCV drifts under ItL")
    return bad


def merge(*failures: dict) -> dict:
    merged: dict = {}
    for f in failures:
        for i, reasons in f.items():
            merged.setdefault(i, []).extend(reasons)
    return merged
