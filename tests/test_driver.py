"""The driver's wiring of the PDAS solve."""

import sys

import pytest
import scipy.sparse.linalg as sps

from phasefrac import fem, material, newton
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


@pytest.mark.parametrize(
    "config",
    [
        RunConfig(benchmark="sneddon2d", local_refines=1, itl_mode="ite", n_increments=2),
        RunConfig(benchmark="sens", global_refines=0, local_refines=0, n_increments=2),
    ],
    ids=["none", "spectral"],
)
def test_condensed_rhs_is_held_residual(monkeypatch, request, config):
    # The engine condenses each Jacobian with the residual it holds rather
    # than a second assembly.  That residual must be, bit for bit, the last
    # one it evaluated and the residual at the state of the Jacobian.
    problem, config = build_problem(config)
    split = request.node.callspec.id
    assert problem.params.split == split
    assert (len(problem.constraints) > 0) == (split == "none")
    residual, jacobian = material.Assembler.residual, material.Assembler.system
    condense = newton.condense_system
    last = {}

    def recorded_residual(self, state, phi_lin):
        last["evaluated"] = residual(self, state, phi_lin)
        return last["evaluated"]

    def recorded_jacobian(self, state, phi_lin):
        last["at_jacobian"] = residual(self, state, phi_lin)
        return jacobian(self, state, phi_lin)

    rhs_bytes = []

    def checked_condense(matrix, rhs, P):
        rhs_bytes.append(
            (rhs.tobytes(), last["evaluated"].tobytes(), last["at_jacobian"].tobytes())
        )
        return condense(matrix, rhs, P)

    monkeypatch.setattr(material.Assembler, "residual", recorded_residual)
    monkeypatch.setattr(material.Assembler, "system", recorded_jacobian)
    monkeypatch.setattr(newton, "condense_system", checked_condense)
    result = run_incremental_loop(problem, config, solver_settings_for(config, problem.params))
    assert result.all_converged
    assert len(rhs_bytes) == sum(rec.newton_iters for rec in result.records) > 0
    for rhs, evaluated, at_jacobian in rhs_bytes:
        assert rhs == evaluated == at_jacobian
