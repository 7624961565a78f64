"""The driver's wiring of the PDAS solve."""

import sys

from phasefrac import fem
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
