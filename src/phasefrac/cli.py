"""Command line front end.

`phasefrac run ...` marches one benchmark preset and, with ``--out``,
writes qoi.csv, config.echo and optional VTK snapshots into the output
directory.  Options come from a flat ``key = value`` file (``--config``)
with command-line flags taking precedence.  The keys are the fields of
:class:`~phasefrac.driver.RunConfig`; the linear-solve parameters are
constants of :mod:`phasefrac.linsolve` and have no key.  Out-of-range
values are rejected when the configuration is built.  Solver benchmarks
live in ``perfbench/``, outside the package.

Exit codes: 0 all increments converged, 2 configuration error,
3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import typing
from typing import Optional, Sequence

from . import io as pio
from .driver import RunConfig, run_incremental_loop, solver_settings_for
from .newton import CASE_CHOICES
from .presets import PRESET_NAMES, build_problem

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOCONV = 3

log = logging.getLogger("phasefrac")

# field name -> type, with the string annotations resolved
_CONFIG_FIELDS = typing.get_type_hints(RunConfig)

# CLI flag -> RunConfig field (only where the names differ)
_FLAG_ALIASES = {
    "itl": "itl_mode",
    "increments": "n_increments",
    "out": "out_dir",
}


def _setup_logging() -> None:
    level_name = os.environ.get("PHASEFRAC_LOG", "info").lower()
    level = {
        "quiet": logging.ERROR,
        "error": logging.ERROR,
        "warning": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }.get(level_name, logging.INFO)
    logging.basicConfig(level=level, format="%(levelname)s %(message)s")


def _checked(key: str, value, hint):
    """``value`` if it has the field type ``hint``; an int widens to float.

    bool is not accepted where an int or float is expected.
    """
    allowed = typing.get_args(hint) if typing.get_origin(hint) is typing.Union else (hint,)
    if type(value) is int and float in allowed:
        return float(value)
    if any(type(value) is t for t in allowed):
        return value
    names = " or ".join("none" if t is type(None) else t.__name__ for t in allowed)
    raise ValueError(f"config key {key!r} must be {names}, got {value!r}")


def build_config(file_values: dict, cli_values: dict) -> RunConfig:
    """Merge config-file values and CLI overrides into a RunConfig.

    CLI wins over the file.  Unknown keys and values of the wrong type
    are rejected by name.
    """
    merged: dict = {}
    for key, val in file_values.items():
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        merged[key] = _checked(key, val, _CONFIG_FIELDS[key])
    for key, val in cli_values.items():
        if val is None:
            continue
        merged[key] = val
    try:
        return RunConfig(**merged)
    except TypeError as exc:
        raise ValueError(str(exc)) from exc


def _add_run_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--benchmark", choices=PRESET_NAMES)
    p.add_argument("--case", type=int, choices=CASE_CHOICES)
    p.add_argument("--itl", choices=("none", "ite", "itots"))
    p.add_argument("--global-refines", type=int, dest="global_refines")
    p.add_argument("--local-refines", type=int, dest="local_refines")
    p.add_argument("--tol-newton", type=float, dest="tol_newton")
    p.add_argument("--tol-itl", type=float, dest="tol_itl")
    p.add_argument("--increments", type=int)
    p.add_argument("--out", help="output directory")
    p.add_argument("--split", choices=("none", "spectral"))
    p.add_argument("--k-n", type=float, dest="k_n", help="increment size")
    p.add_argument("--vtk-every", type=int, dest="vtk_every")
    p.add_argument("--linearization", choices=("extrapolate", "previous"))


def run_command(args: argparse.Namespace) -> int:
    file_values: dict = {}
    if args.config:
        try:
            file_values = pio.parse_flat_config(args.config)
        except (OSError, ValueError) as exc:
            log.error("config file: %s", exc)
            return EXIT_CONFIG

    cli_values = {
        _FLAG_ALIASES.get(dest, dest): value
        for dest, value in vars(args).items()
        if dest not in ("config", "command", "func")
    }

    try:
        config = build_config(file_values, cli_values)
        problem, config = build_problem(config)
    except ValueError as exc:
        log.error("invalid configuration: %s", exc)
        return EXIT_CONFIG

    out_dir = config.out_dir
    if out_dir:
        pio.ensure_dir(out_dir)

    settings = solver_settings_for(config, problem.params)
    log.info(
        "benchmark %s: %d nodes, %d cells, h_min %.6g",
        problem.name, problem.mesh.n_nodes, problem.mesh.n_cells,
        problem.mesh.h_min,
    )

    notes = []
    if problem.name == "lpanel":
        notes.append(
            "elastic constants: (mu, lam) taken as authoritative; the "
            "tabulated E=10.677333 is inconsistent with them and was not used"
        )
    if out_dir:
        pio.write_config_echo(
            os.path.join(out_dir, "config.echo"), config, problem.params,
            problem.mesh, notes,
        )

    n = problem.mesh.n_nodes

    def on_increment(step, state, inc):
        log.info(
            "step %d t=%.6g newton=%d itl=%d E=%.6g%s",
            step, inc.record.time, inc.record.newton_iters,
            inc.record.itl_iters, inc.record.crack_energy,
            "" if inc.converged else "  NOT CONVERGED",
        )
        if out_dir and config.vtk_every > 0 and step % config.vtk_every == 0:
            pio.write_vtk(
                problem.mesh, state[: 2 * n], state[2 * n:],
                inc.report.lambda_mult, inc.report.active,
                os.path.join(out_dir, f"fields_{step}.vtk"),
            )

    result = run_incremental_loop(
        problem, config, settings,
        on_increment=on_increment if out_dir or log.isEnabledFor(logging.INFO) else None,
    )

    if out_dir:
        pio.write_csv(result.records, os.path.join(out_dir, "qoi.csv"))

    if not result.all_converged:
        log.error("one or more increments did not converge")
        return EXIT_NOCONV
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="phasefrac")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="march one benchmark")
    _add_run_arguments(run_p)
    run_p.set_defaults(func=run_command)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches EXIT_CONFIG
        return int(exc.code) if exc.code else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
