"""Primal-dual active set solver on scalar identities and toy obstacles."""

import numpy as np
import pytest

from phasefrac.newton import (
    ActiveSetMask,
    SolverSettings,
    classify_active_set,
    kkt_check,
    pdas_solve,
)
from phasefrac import linsolve

from obstacle_util import obstacle_system, qp_enumerate, screened_laplacian


@pytest.fixture(autouse=True)
def tight_gmres(monkeypatch):
    """Solve the toy Newton systems to 1e-12 relative."""
    monkeypatch.setattr(linsolve, "REL_TOL", 1e-12)


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------


def classify(res, mass, phi, old, case=1, c=1.0, previous=None):
    settings = SolverSettings(case=case, c_constant=c)
    return classify_active_set(
        np.asarray(res, float), np.asarray(mass, float),
        np.asarray(phi, float), np.asarray(old, float), settings,
        previous=previous,
    )


def test_classification_positive_criterion_is_active():
    # B_ii = 2, R_i = 4 gives lambda = 2; with c = 1 and dphi = -1 the
    # criterion is 2 - 1 = 1 > 0, so the dof is active
    mask = classify([4.0], [2.0], [0.0], [1.0], case=1, c=1.0)
    assert mask.flags.tolist() == [True]


def test_classification_negative_criterion_is_inactive():
    mask = classify([0.5], [1.0], [0.0], [1.0], case=1, c=1.0)
    assert mask.flags.tolist() == [False]


def test_classification_tie_keeps_previous_label():
    prev = np.array([True, False])
    mask = classify(
        [0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [0.5, 0.5],
        case=1, c=1.0, previous=prev,
    )
    assert mask.flags.tolist() == [True, False]


def test_classification_tie_without_history_stays_inactive():
    mask = classify([0.0], [1.0], [0.5], [0.5], case=1, c=1.0)
    assert mask.flags.tolist() == [False]


def test_classification_case2_releases_feasible_positive_multiplier():
    # adaptive c = 2|lam/dphi| turns lam + c*dphi into -lam < 0
    mask = classify([2.0], [1.0], [0.0], [1.0], case=2, c=1.0)
    assert mask.flags.tolist() == [False]


# The semismooth complementarity function the classification applies is
# C(lam, dphi; c) = lam - max(0, lam + c dphi): lam on the inactive set and
# -c dphi on the active set, zero exactly on the KKT triples.


def complementarity_from_mask(lam, dphi, c, active):
    return np.where(active, -c * dphi, lam)


def test_complementarity_inactive_point():
    # feasible, zero multiplier: inactive with C = lam = 0
    mask = classify([0.0], [1.0], [-0.3], [0.0], case=1, c=1.0)
    assert mask.flags.tolist() == [False]


def test_complementarity_active_point():
    # on the bound with a positive multiplier: active with C = -c dphi = 0
    mask = classify([2.0], [1.0], [0.0], [0.0], case=1, c=5.0)
    assert mask.flags.tolist() == [True]


def test_complementarity_infeasible_multiplier():
    # on the bound with a negative multiplier: released, C = lam = -1
    mask = classify([-1.0], [1.0], [0.0], [0.0], case=1, c=5.0)
    assert mask.flags.tolist() == [False]
    assert complementarity_from_mask(-1.0, 0.0, 5.0, mask.flags)[0] == -1.0


def kkt_triple(lam, dphi):
    return (dphi <= 0.0) & (lam >= 0.0) & (lam * dphi == 0.0)


def test_complementarity_equals_kkt_on_grid():
    # with the mask classify_active_set returns, C(lam, dphi; c) = 0
    # exactly on KKT triples and nonzero elsewhere, for every positive c
    grid = np.linspace(-2.0, 2.0, 50)
    grid[25] = 0.0
    lam, dphi = (a.ravel() for a in np.meshgrid(grid, grid))
    for c in (0.1, 0.5, 1.0, 10.0, 1e4):
        mask = classify(lam, np.ones_like(lam), dphi, np.zeros_like(dphi), case=1, c=c)
        zero = complementarity_from_mask(lam, dphi, c, mask.flags) == 0.0
        assert np.array_equal(zero, kkt_triple(lam, dphi)), c


def test_adaptive_c_formula_and_fallback():
    # infeasible dof with lam = -3, dphi = 1.5: the adaptive c = 2|lam/dphi|
    # = 4 gives -3 + 6 > 0 (active), where the constant c = 1 gives -1.5
    assert classify([-3.0], [1.0], [1.5], [0.0], case=2, c=1.0).flags.tolist() == [True]
    assert classify([-3.0], [1.0], [1.5], [0.0], case=1, c=1.0).flags.tolist() == [False]
    # a multiplier at rounding level next to a large one falls back to the
    # constant c: 1e-14 + 1 * 0.5 > 0 keeps the violated bound active,
    # where 2|lam/dphi| = 4e-14 would leave it a tie, hence inactive
    mask = classify([1.0, 1e-14], [1.0, 1.0], [-1.0, 0.5], [0.0, 0.0], case=2, c=1.0)
    assert mask.flags.tolist() == [False, True]
    # on the bound (dphi = 0) the formula is undefined; the criterion is lam
    mask = classify([3.0, -3.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0], case=2, c=99.0)
    assert mask.flags.tolist() == [True, False]


def test_active_set_mask_equality_and_size():
    a = ActiveSetMask(np.array([True, False, True]))
    b = ActiveSetMask(np.array([True, False, True]))
    assert a == b and a.size == 2
    assert a != ActiveSetMask(np.array([False, False, True]))


# ----------------------------------------------------------------------
# settings validation
# ----------------------------------------------------------------------


def test_settings_reject_bad_case():
    with pytest.raises(ValueError, match="case"):
        SolverSettings(case=7)


def test_settings_reject_bad_omega():
    with pytest.raises(ValueError, match="omega"):
        SolverSettings(omega=0.0)


def test_settings_reject_bad_c():
    with pytest.raises(ValueError, match="c_constant"):
        SolverSettings(c_constant=-1.0)


# ----------------------------------------------------------------------
# kkt certificate
# ----------------------------------------------------------------------


def test_kkt_check_passes_at_solution():
    out = kkt_check(
        np.array([0.3, 1.0]), np.array([0.5, 1.0]),
        np.array([0.0, 2.0]), tol=1e-12,
    )
    assert out["passed"]
    assert out["feasibility"] == 0.0
    assert out["multiplier_sign"] == 0.0


def test_kkt_check_flags_violations():
    out = kkt_check(
        np.array([0.7]), np.array([0.5]), np.array([-0.2]), tol=1e-12
    )
    assert not out["passed"]
    assert out["feasibility"] == pytest.approx(0.2)
    assert out["multiplier_sign"] == pytest.approx(0.2)
    assert out["complementarity"] == pytest.approx(0.04)


# ----------------------------------------------------------------------
# PDAS on toy obstacle problems
# ----------------------------------------------------------------------


def run_case(A, b, ub, case, x0=None, **kw):
    system = obstacle_system(A, b, ub)
    state = np.zeros(len(b)) if x0 is None else x0.copy()
    settings = SolverSettings(case=case, c_constant=1.0, tol_newton=1e-12, **kw)
    report = pdas_solve(system, state, settings)
    return state, report


def test_unconstrained_linear_problem_one_iteration():
    A = screened_laplacian(6)
    ref = np.full(6, -1.0)  # far below the bound
    b = A @ ref
    state, report = run_case(A, b, np.ones(6), case=1)
    assert report.converged
    assert report.iterations == 1
    assert np.allclose(state, ref, atol=1e-10)
    assert report.active[...].sum() == 0


def test_pdas_matches_qp_enumeration():
    rng = np.random.default_rng(41)
    for trial in range(25):
        n = int(rng.integers(4, 9))
        A = screened_laplacian(n, shift=rng.uniform(0.5, 2.0))
        b = rng.standard_normal(n) * 2.0
        ub = rng.uniform(-0.5, 0.5, n)
        ref = qp_enumerate(A, b, ub)
        assert ref is not None
        phi_ref, lam_ref = ref
        for case in (1, 2):
            state, report = run_case(A, b, ub, case=case)
            assert report.converged, f"case {case} trial {trial}"
            assert report.iterations <= 12
            assert np.allclose(state, phi_ref, atol=1e-8)
            lam = np.zeros(n)
            lam[report.active] = report.lambda_mult[report.active]
            assert np.allclose(lam, lam_ref, atol=1e-8)


def test_pdas_solution_satisfies_kkt():
    rng = np.random.default_rng(42)
    A = screened_laplacian(10)
    b = rng.standard_normal(10) * 3.0
    ub = np.zeros(10)
    state, report = run_case(A, b, ub, case=2)
    assert report.converged
    out = kkt_check(state, ub, report.lambda_mult, tol=1e-9)
    assert out["passed"]


def test_case3_runs_exactly_ten_extra_iterations():
    rng = np.random.default_rng(43)
    A = screened_laplacian(8)
    b = rng.standard_normal(8)
    ub = np.zeros(8)
    state, report = run_case(A, b, ub, case=3)
    assert report.converged
    assert report.case3_first_hit is not None
    assert report.iterations == report.case3_first_hit + 10
    assert report.termination_reason == "case3_extra_done"


def test_case3_extra_iterations_configurable():
    rng = np.random.default_rng(44)
    A = screened_laplacian(5)
    b = rng.standard_normal(5)
    state, report = run_case(A, b, np.zeros(5), case=3, case3_extra_iterations=4)
    assert report.iterations == report.case3_first_hit + 4


def test_case4_stops_on_residual_alone():
    rng = np.random.default_rng(45)
    A = screened_laplacian(8)
    b = rng.standard_normal(8) * 2.0
    ub = np.zeros(8)
    s1, r1 = run_case(A, b, ub, case=1)
    s4, r4 = run_case(A, b, ub, case=4)
    assert r4.converged
    assert r4.iterations <= r1.iterations
    assert np.allclose(s4, s1, atol=1e-6)


def test_warm_entry_converges_in_zero_iterations():
    rng = np.random.default_rng(46)
    A = screened_laplacian(6)
    b = rng.standard_normal(6)
    ub = np.zeros(6)
    state, first = run_case(A, b, ub, case=2)
    assert first.converged
    system = obstacle_system(A, b, ub)
    settings = SolverSettings(case=2, c_constant=1.0, tol_newton=1e-12)
    again = pdas_solve(system, state, settings)
    assert again.converged
    assert again.iterations == 0


def test_nonconvergence_reported_not_raised():
    rng = np.random.default_rng(47)
    A = screened_laplacian(8)
    b = rng.standard_normal(8) * 5.0
    system = obstacle_system(A, b, np.zeros(8))
    state = np.zeros(8)
    settings = SolverSettings(case=1, c_constant=1.0, tol_newton=1e-14,
                              max_iterations=0)
    report = pdas_solve(system, state, settings)
    assert not report.converged
    assert report.termination_reason == "max_iterations"


def test_residual_history_matches_iterations():
    rng = np.random.default_rng(48)
    A = screened_laplacian(7)
    b = rng.standard_normal(7)
    state, report = run_case(A, b, np.zeros(7), case=1)
    assert len(report.residual_history) == report.iterations
    assert len(report.active_set_sizes) == report.iterations
    assert len(report.gmres_iterations) == report.iterations
    assert len(report.stage_iterations) == report.iterations
    assert len(report.factor_fill) == report.iterations
    # no leading block: the whole system is the LU-preconditioned stage
    assert all(lead == 0 and trail <= 2 for lead, trail in report.stage_iterations)
    assert report.linear_fallbacks == 0


def test_krylov_fallback_is_counted(monkeypatch):
    rng = np.random.default_rng(49)
    A = screened_laplacian(7)
    b = rng.standard_normal(7)
    ref, _ = run_case(A, b, np.zeros(7), case=1)
    # no Krylov iteration allowed: every step falls back to spsolve
    monkeypatch.setattr(linsolve, "REL_TOL", 1e-8)
    monkeypatch.setattr(linsolve, "MAX_ITERS", 0)
    state, report = run_case(A, b, np.zeros(7), case=1)
    assert report.converged
    assert report.linear_fallbacks == report.iterations > 0
    assert np.allclose(state, ref, atol=1e-10)


@pytest.mark.parametrize("case", [1, 2])
def test_two_period_active_set_cycle_stops_below_tolerance(case):
    # One dof of a concave quadratic, R(x) = b - a x with a = -1: every
    # Newton step jumps to the stationary point b/a = 1e-9 above the bound,
    # where the dof classifies active; projected back onto the bound its
    # multiplier b = -1e-9 releases it again.  Both masks have a reduced
    # residual below tol_newton, so the solve stops after two periods.
    system = obstacle_system(np.array([[-1.0]]), np.array([-1e-9]), np.zeros(1))
    state = np.array([-1.0])
    settings = SolverSettings(case=case, c_constant=1.0, tol_newton=1e-7)
    report = pdas_solve(system, state, settings)
    assert report.converged
    assert report.termination_reason == "active_set_cycle"
    # masks inactive, active, inactive, active: the fourth pass stops
    assert report.iterations == 3
    assert report.active.tolist() == [True]
    assert report.final_residual <= settings.tol_newton
