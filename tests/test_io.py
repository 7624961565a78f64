"""Round trips of the output writers through their readers."""

import math

import numpy as np
import pytest

from phasefrac import io as pio
from phasefrac.driver import RunConfig, run_incremental_loop, solver_settings_for
from phasefrac.presets import build_problem
from phasefrac.qoi import QoiRecord


@pytest.fixture(scope="module")
def lpanel_run():
    problem, config = build_problem(
        RunConfig(benchmark="lpanel", global_refines=1, n_increments=2)
    )
    result = run_incremental_loop(
        problem, config, solver_settings_for(config, problem.params)
    )
    assert result.all_converged
    return problem, result


def test_vtk_round_trip(lpanel_run, tmp_path):
    problem, result = lpanel_run
    mesh = problem.mesh
    n = mesh.n_nodes
    u, phi = result.state[: 2 * n], result.state[2 * n:]
    report = result.increments[-1].report
    path = str(tmp_path / "fields.vtk")
    pio.write_vtk(mesh, u, phi, report.lambda_mult, report.active, path)

    data = pio.read_vtk(path)
    assert np.array_equal(data["points"][:, :2], mesh.nodes)
    assert np.array_equal(data["cells"], mesh.cells)
    assert np.array_equal(data["displacement"][:, :2], u.reshape(n, 2))
    assert np.array_equal(data["phasefield"], phi)
    assert np.array_equal(data["multiplier"], report.lambda_mult)
    assert np.array_equal(data["active"], report.active.astype(int))


def test_csv_round_trip(lpanel_run, tmp_path):
    _, result = lpanel_run
    path = str(tmp_path / "qoi.csv")
    pio.write_csv(result.records, path)

    rows = pio.read_csv(path)
    assert len(rows) == len(result.records) == 2
    for row, rec in zip(rows, result.records):
        assert list(row) == pio.CSV_HEADER.split(",")
        for key, value in row.items():
            expected = getattr(rec, key)
            if isinstance(expected, float) and math.isnan(expected):
                assert math.isnan(value)
            else:
                assert value == expected and type(value) is type(expected), key


def test_csv_header_matches_record_fields():
    names = [f for f in QoiRecord.__dataclass_fields__]
    assert pio.CSV_HEADER.split(",") == names


def test_parse_flat_config_scalar_types(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "case = 3\n"
        "tol_newton = 1e-8   # trailing comment\n"
        "k_n = 0.5\n"
        "abort_on_nonconvergence = true\n"
        "vtk_every = -2\n"
        "itl_mode = \"ite\"\n"
        "split = 'spectral'\n"
        "benchmark = sens\n"
        "out_dir = none\n"
        "\n"
    )
    values = pio.parse_flat_config(str(path))
    assert values == {
        "case": 3,
        "tol_newton": 1e-8,
        "k_n": 0.5,
        "abort_on_nonconvergence": True,
        "vtk_every": -2,
        "itl_mode": "ite",
        "split": "spectral",
        "benchmark": "sens",
        "out_dir": None,
    }
    assert type(values["case"]) is int
    assert type(values["k_n"]) is float
    assert type(values["abort_on_nonconvergence"]) is bool


def test_parse_flat_config_rejects_line_without_equals(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("case 3\n")
    with pytest.raises(ValueError, match="key = value"):
        pio.parse_flat_config(str(path))
