"""Preset wiring that the driver relies on."""

import math

import pytest

from phasefrac.driver import RunConfig, run_incremental_loop, solver_settings_for
from phasefrac.presets import build_problem


def test_sneddon_reference_uses_the_preset_material():
    problem, _ = build_problem(RunConfig(benchmark="sneddon2d", local_refines=0))
    p = problem.params
    half_length = 0.25
    expected = (
        2.0 * math.pi * p.pressure * half_length**2 * (1.0 - p.poisson**2) / p.youngs
    )
    assert problem.tcv_reference == pytest.approx(expected, rel=1e-14)
    # E = 1.008 and nu = 0.2 follow from the preset's Lame constants
    assert problem.tcv_reference == pytest.approx(3.740e-4, rel=1e-3)


def test_sneddon2d_itl_run_converges_with_constant_crack_volume():
    problem, config = build_problem(
        RunConfig(benchmark="sneddon2d", local_refines=2, itl_mode="ite", n_increments=2)
    )
    result = run_incremental_loop(problem, config, solver_settings_for(config, problem.params))
    assert result.all_converged
    assert all(inc.kkt["passed"] for inc in result.increments)
    assert all(inc.irreversibility >= -10.0 * config.tol_newton for inc in result.increments)
    # ItL removes the extrapolation drift: on the stationary crack the
    # volume stays put (without ItL it more than triples here)
    tcv = [rec.tcv for rec in result.records]
    assert tcv[0] > 0.0
    assert tcv[1] == pytest.approx(tcv[0], rel=1e-4)
