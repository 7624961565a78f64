"""The driver's wiring of the PDAS solve."""

import sys

import scipy.sparse.linalg as sps

from phasefrac import fem, newton
from phasefrac.driver import RunConfig, run_incremental_loop, solver_settings_for
from phasefrac.presets import build_problem


def test_constraint_operator_built_once_per_run(monkeypatch):
    problem, config = build_problem(
        RunConfig(benchmark="sneddon2d", local_refines=1, itl_mode="ite", n_increments=2)
    )
    assert len(problem.constraints) > 0
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fem.constraint_operator(*args, **kwargs)

    # every package module that imports constraint_operator by name
    for name, module in list(sys.modules.items()):
        imported = getattr(module, "constraint_operator", None) is fem.constraint_operator
        if name.startswith("phasefrac.") and module is not fem and imported:
            monkeypatch.setattr(module, "constraint_operator", counted)

    result = run_incremental_loop(problem, config, solver_settings_for(config, problem.params))
    assert result.all_converged
    # ItL takes at least two PDAS solves per increment
    assert sum(rec.itl_iters for rec in result.records) >= 4
    assert len(calls) == 1


def test_factor_fill_recorded_per_step_and_below_colamd(monkeypatch):
    problem, config = build_problem(
        RunConfig(benchmark="sneddon2d", local_refines=1, n_increments=1)
    )
    factored = []
    factor = newton.factor_block

    def recorded(block):
        factored.append(block)
        return factor(block)

    monkeypatch.setattr(newton, "factor_block", recorded)
    result = run_incremental_loop(problem, config, solver_settings_for(config, problem.params))
    assert result.all_converged
    report = result.increments[-1].report
    assert report.iterations >= 2
    assert len(report.factor_fill) == report.iterations
    # the lead factor is built on the first step and reused after it
    assert report.factor_fill[0][0] > 0
    assert all(lead == 0 for lead, _ in report.factor_fill[1:])
    n_phi = problem.mesh.nodes.shape[0]
    trails = [block for block in factored if block.shape[0] == n_phi]
    assert len(trails) == report.iterations
    for (_, fill), trail in zip(report.factor_fill, trails):
        assert 0 < fill < sps.splu(trail.tocsc()).nnz
