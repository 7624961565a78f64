"""Command-line front end: exit codes and the files a run writes."""

import os

import pytest

from phasefrac import cli
from phasefrac import io as pio

COARSE_LPANEL = ["--benchmark", "lpanel", "--global-refines", "1", "--increments", "2"]


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_coarse_run_exits_zero_and_writes_qoi_csv(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["run", *COARSE_LPANEL, "--out", str(out)])
    assert code == cli.EXIT_OK
    rows = pio.read_csv(os.path.join(out, "qoi.csv"))
    assert [row["step"] for row in rows] == [1, 2]
    assert all(row["newton_iters"] >= 1 for row in rows)
    echo = (out / "config.echo").read_text().splitlines()
    keys = {line.split(" = ")[0] for line in echo if " = " in line}
    assert {"tol_newton", "max_newton_iterations"} <= keys
    assert not any(key.startswith("gmres.") for key in keys)


def test_newton_iteration_cap_exits_nonconvergence(tmp_path):
    cfg = write_config(
        tmp_path, 'benchmark = "sens"\nmax_newton_iterations = 1\n'
    )
    code = cli.main([
        "run", "--config", cfg, "--global-refines", "0", "--local-refines", "0",
        "--increments", "2",
    ])
    assert code == cli.EXIT_NOCONV


@pytest.mark.parametrize(
    "line",
    [
        "itl_literal_indexing = true",
        "plane = \"stress\"",
        "no_such_key = 1",
        "gmres.preconditioner = \"ilu0\"",
        "gmres.method = \"monolithic\"",
        "gmres.abs_tol = 0.0",
        "gmres.rel_tol = 1e-10",
        "gmres.restart = 50",
        "gmres.max_iters = 100",
        "max_itl_iterations = 10",
    ],
)
def test_unknown_config_key_exits_config_error(tmp_path, line):
    cfg = write_config(tmp_path, line + "\n")
    assert cli.main(["run", "--config", cfg, *COARSE_LPANEL]) == cli.EXIT_CONFIG


@pytest.mark.parametrize(
    "line",
    [
        "case_c_constant = -1.0",
        "case_c_constant = 0.0",
        "tol_newton = -1.0",
        "tol_newton = 0.0",
        "max_newton_iterations = 0",
        "case = 5",
        "vtk_every = -3",
    ],
)
def test_invalid_solver_value_exits_config_error(tmp_path, caplog, line):
    cfg = write_config(tmp_path, line + "\n")
    assert cli.main(["run", "--config", cfg, *COARSE_LPANEL]) == cli.EXIT_CONFIG
    assert line.split(" = ")[0] in caplog.text


@pytest.mark.parametrize(
    "argv", [["bench"], ["run", *COARSE_LPANEL, "--plane", "stress"]]
)
def test_removed_subcommand_and_flag_exit_config_error(argv):
    assert cli.main(argv) == cli.EXIT_CONFIG


@pytest.mark.parametrize(
    "key, value",
    [("tol_newton", "abc"), ("n_increments", "2.5")],
)
def test_config_value_of_wrong_type_exits_config_error(tmp_path, caplog, key, value):
    cfg = write_config(tmp_path, f"{key} = {value}\n")
    assert cli.main(["run", "--config", cfg, *COARSE_LPANEL]) == cli.EXIT_CONFIG
    assert repr(key) in caplog.text


def test_config_int_widens_to_float_field():
    config = cli.build_config({"tol_newton": 1, "case_c_constant": 20}, {})
    assert type(config.tol_newton) is float and config.tol_newton == 1.0
    assert type(config.case_c_constant) is float and config.case_c_constant == 20.0
    with pytest.raises(ValueError, match="'n_increments'"):
        cli.build_config({"n_increments": True}, {})


def test_missing_config_file_exits_config_error(tmp_path):
    code = cli.main(["run", "--config", str(tmp_path / "absent.cfg")])
    assert code == cli.EXIT_CONFIG
