"""Gates for the paper's claims on small preset runs."""

import numpy as np

from phasefrac.driver import RunConfig, run_incremental_loop, solver_settings_for
from phasefrac.presets import build_problem


def test_cases_differ_in_newton_counts_and_agree_on_qoi():
    # Sneddon crack with ItL: the four active-set strategies take different
    # numbers of Newton steps to the same solution.
    counts, qoi = {}, {}
    for case in (1, 2, 3, 4):
        problem, config = build_problem(
            RunConfig(benchmark="sneddon2d", local_refines=2, itl_mode="ite",
                      n_increments=2, case=case)
        )
        result = run_incremental_loop(problem, config, solver_settings_for(config, problem.params))
        assert result.all_converged
        assert [rec.itl_iters for rec in result.records] == [2, 2]
        counts[case] = [rec.newton_iters for rec in result.records]
        qoi[case] = np.array([[rec.tcv, rec.crack_energy] for rec in result.records])
    assert counts == {1: [5, 6], 2: [6, 7], 3: [22, 24], 4: [2, 4]}
    total = {case: sum(steps) for case, steps in counts.items()}
    assert total[4] < total[1] < total[2] < total[3]
    for case in (1, 3, 4):
        assert np.all(np.abs(qoi[case] - qoi[2]) <= 1e-6 * np.abs(qoi[2]))
