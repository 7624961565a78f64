"""End-to-end benchmark of the phasefrac solver.

Runs one workload in this process through the package's public API
(``presets.build_problem`` -> ``driver.solver_settings_for`` ->
``driver.run_incremental_loop``), checks every increment, and prints every
metric by name and unit.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the metrics are the ``end_to_end`` ones of BENCHMARK.json
with ``--trace 0`` and its ``per_layer`` ones with ``--trace 1``.

Run from the repository root:

    python3 perfbench/run.py --workload sens-shear --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all    # every workload, each in a fresh process

The untraced run repeats build + solve, at least twice and then until
``--seconds`` have passed, and reports medians in seconds at a reference
machine speed (see ``Pace``).  The traced run does one untraced
repetition, then traced ones, wrapping the public functions of each
package module (see ``layers.py``); its spans go to ``perfbench/out/``.
Seed 0 runs each workload unperturbed and is also checked against
``reference.json``; other seeds scale k_n or the pressure (see
``workloads.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import types
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# An untraced run makes at least MIN_REPS repetitions, then more until
# --seconds have passed, and reports medians over them; it stops early
# after a repetition with a non-converged increment.
MIN_REPS = 2
# Each repetition builds the problem at least BUILDS_PER_REP times, and
# cheap builds until SETUP_BUDGET_S of build time (at most MAX_BUILDS_PER_REP),
# so that the setup_s median draws on samples spread over the whole run.
BUILDS_PER_REP = 3
SETUP_BUDGET_S = 0.5
MAX_BUILDS_PER_REP = 25

# Machine-speed probe (see Pace): every PACE_INTERVAL_S a fixed loop of
# PACE_LOOP iterations is timed; PACE_REF_S is its time at the reference
# speed, the usual speed of the two-core VM the benchmark was defined on.
PACE_INTERVAL_S = 0.05
PACE_LOOP = 3000
PACE_REF_S = 1.5e-4

# Every end-to-end metric the benchmark measures, with its unit; the
# JSON line carries the ones BENCHMARK.json names.
E2E_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "s_per_newton_step": "s",
    "newton_steps": "count",
    "increments_failed": "count",
    "peak_rss_mb": "MiB",
}


def parse_args(argv, workload_names, run_seconds):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*workload_names, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=run_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--write-reference", action="store_true",
        help="record the seed-0 QoI and Newton counts of the workload in reference.json",
    )
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.write_reference and (args.seed != 0 or args.workload == "all"):
        p.error("--write-reference needs one workload at --seed 0")
    return args


def load_package():
    """Import phasefrac from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "phasefrac" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no phasefrac package under {src}")
    sys.path.insert(0, str(src))
    import phasefrac.driver
    import phasefrac.presets

    if Path(phasefrac.__file__).resolve().parent != src / "phasefrac":
        raise SystemExit(f"perfbench: imported phasefrac from {phasefrac.__file__}, not {src}")
    # Looked up as attributes at call time, so traced probes are seen.
    return types.SimpleNamespace(driver=phasefrac.driver, presets=phasefrac.presets)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "blas": blas_name,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Pace:
    """Samples the speed of the machine while a repetition runs.

    On a shared VM the speed of a core swings by up to 2x within seconds,
    which no number of repetitions in a 15 s run averages out.  A SIGALRM
    handler times a fixed pure-Python loop that touches nothing of the
    package; ``scale`` converts wall times to seconds at the reference
    speed.  On a two-core VM this cut the spread of repeated solves in one
    process from about 20% to under 5%.  The handler costs about 0.3% of
    the run.
    """

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PACE_LOOP):
            acc += i % 7
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PACE_INTERVAL_S, PACE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: int = 0) -> float:
        """Mean speed relative to the reference, from sample ``start`` on.

        Work done is the integral of speed over time, so the mean is taken
        of reference / measured loop time, not of the loop times.
        """
        samples = self.samples[start:] or self.samples
        return statistics.mean(PACE_REF_S / t for t in samples) if samples else 1.0


class Rep:
    """One repetition: repeated builds of the workload, then one solve.

    ``setup_samples`` and ``solve_s`` are in seconds at the reference
    speed; ``wall_solve_s`` is the solve's plain wall time.
    """

    def __init__(self, api, workloads, workload, seed, builds=BUILDS_PER_REP, budget_s=SETUP_BUDGET_S):
        builds_s = []
        with Pace() as pace:
            while len(builds_s) < builds or (
                sum(builds_s) < budget_s and len(builds_s) < MAX_BUILDS_PER_REP
            ):
                gc.collect()
                t0 = time.perf_counter()
                problem, config, settings = workloads.build(api, workload, seed)
                builds_s.append(time.perf_counter() - t0)
            setup_scale = pace.scale()
            solve_start = len(pace.samples)
            gc.collect()
            t0 = time.perf_counter()
            result = api.driver.run_incremental_loop(problem, config, settings)
            self.wall_solve_s = time.perf_counter() - t0
        # each phase is scaled by the speed measured while it ran
        self.scale = pace.scale(solve_start)
        self.pace_samples = len(pace.samples)
        self.setup_samples = [t * setup_scale for t in builds_s]
        self.solve_s = self.wall_solve_s * self.scale
        self.config = config
        self.l_max = settings.l_max
        self.outcome = workloads.outcome(result, problem, config)


def check_reps(workloads, workload, seed, reps, reference) -> list:
    """Per rep, increment index -> reasons it failed a check."""
    failures = []
    first = reps[0].outcome
    for k, rep in enumerate(reps):
        out, tol = rep.outcome, rep.config.tol_newton
        found = [workloads.invariants(workload, out, tol)]
        if seed == 0 and reference is not None:
            found.append(workloads.compare(out, reference, tol, workload.count_slack))
        if k > 0:
            # the same inputs in the same process must give the same run
            found.append(workloads.identical(out, first))
        failures.append(workloads.merge(*found))
    return failures


def run_workload(args, api, workloads, layers) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    reference = None
    if REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text())["workloads"].get(workload.name)
    if args.seed == 0 and reference is None and not args.write_reference:
        raise SystemExit(f"perfbench: no seed-0 reference for {workload.name} in {REFERENCE}")

    api.driver.run_incremental_loop(*workloads.build(api, workload, 0, workload.warmup))
    start = time.perf_counter()
    reps = [Rep(api, workloads, workload, args.seed)]
    traced, tracer, installed, spans = [], None, None, []
    if args.trace:
        tracer = layers.Tracer(uuid.uuid4().hex)
        installed = layers.Installed(tracer)
        try:
            while not traced or time.perf_counter() - start < args.seconds:
                tracer.reset()
                # one build per traced repetition, so mesh spans count it once
                traced.append(Rep(api, workloads, workload, args.seed, builds=1, budget_s=0.0))
                spans.append(list(tracer.spans))
                rep = traced[-1]
                rep.layer_values = layers.rep_metrics(
                    tracer, rep.outcome.increments, rep.outcome.itl_nonconverged, rep.l_max,
                )
                for name in layers.TIME_METRICS:
                    rep.layer_values[name] *= rep.scale  # reference-speed seconds
        finally:
            installed.remove()
    else:
        while all(reps[-1].outcome.converged) and (
            len(reps) < MIN_REPS or time.perf_counter() - start < args.seconds
        ):
            # a repetition with a failed solve is not timed again
            reps.append(Rep(api, workloads, workload, args.seed))

    all_reps = reps + traced
    failures = check_reps(workloads, workload, args.seed, all_reps, reference)
    if traced and "newton.pdas_solve" in installed.present:
        for rep, found in zip(traced, failures[len(reps):]):
            # every inner ItL solve's report must add up to the QoI records
            steps = rep.layer_values["newton.steps"]
            if steps != rep.outcome.newton_steps:
                found.setdefault(0, []).append(
                    f"pdas_solve reports {steps} Newton steps, records {rep.outcome.newton_steps}"
                )
    attempted = sum(r.outcome.increments for r in all_reps)
    failed = sum(len(f) for f in failures)

    first = reps[0]
    solve_s = statistics.median(r.solve_s for r in reps)
    values = {
        "solve_s": solve_s,
        "newton_steps": first.outcome.newton_steps,
        "s_per_newton_step": solve_s / max(first.outcome.newton_steps, 1),
        "increments_failed": failed,
    }
    setups = [t for r in reps for t in r.setup_samples]
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    absent = []
    if args.trace:
        absent = layers.absent_metrics(installed)
        for name in layers.PER_LAYER:
            if name == "trace_overhead":
                continue
            samples = [r.layer_values[name] for r in traced]
            values[name] = statistics.median(samples) if name in layers.TIME_METRICS else samples[0]
        values["trace_overhead"] = statistics.median(r.solve_s for r in traced) / solve_s
        for name in absent:
            values[name] = 0

    return {
        "workload": workload.name,
        "seed": args.seed,
        "factor": workloads.seed_factor(args.seed),
        "scaled": workload.scaled,
        "trace": args.trace,
        "reps": len(reps),
        "traced_reps": len(traced),
        "setup_samples": len(setups),
        "speed": [
            {"scale": r.scale, "pace_samples": r.pace_samples, "wall_solve_s": r.wall_solve_s}
            for r in reps + traced
        ],
        "attempted": attempted,
        "failed": failed,
        "failures": [
            {"rep": k, "increment": i + 1, "reasons": reasons}
            for k, f in enumerate(failures) for i, reasons in sorted(f.items())
        ],
        "outcome": first.outcome,
        "values": values,
        "absent": absent,
        "absent_probes": sorted(installed.absent) if installed else [],
        "trace_id": tracer.trace_id if tracer else None,
        "spans": spans,
    }


def report(run: dict, env: dict, benchmark: dict, layers) -> dict:
    """Print the human-readable report; return the JSON result line."""
    out = run["outcome"]
    print(f"workload {run['workload']}  seed {run['seed']}  {run['scaled']} x {run['factor']:.6f}  "
          f"trace {run['trace']}  reps {run['reps']}+{run['traced_reps']} traced  "
          f"setup samples {run['setup_samples']}")
    print(f"env nproc={env['nproc']} blas={env['blas']} "
          + " ".join(f"{k}={v}" for k, v in env["threads"].items())
          + f" python={env['python']} numpy={env['numpy']} scipy={env['scipy']}")
    print("speed scale per repetition (reference / measured loop time): "
          + "  ".join(f"{r['scale']:.3f} ({r['wall_solve_s']:.2f} s wall)" for r in run["speed"]))
    for i in range(out.increments):
        qoi = "  ".join(f"{f} {out.qoi[f][i]:.9e}" for f in out.qoi)
        print(f"increment {i + 1:3d}  newton {out.newton_iters[i]:3d}  {qoi}")
    if out.tcv_reference:
        err = abs(out.qoi["tcv"][-1] - out.tcv_reference) / out.tcv_reference
        print(f"tcv {out.qoi['tcv'][-1]:.9e} vs analytic Sneddon {out.tcv_reference:.9e}: "
              f"relative error {err:.4f}")
    for f in run["failures"]:
        print(f"FAILED rep {f['rep']} increment {f['increment']}: {'; '.join(f['reasons'])}")
    print(f"check {run['failed']} of {run['attempted']} increments failed")

    units = dict(E2E_UNITS)
    if run["trace"]:
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        for row in layers.span_table(run["spans"][0]):
            print("span {:<28s} {:<9s} calls {:7d}  incl {:10.4f} s  self {:10.4f} s".format(*row))
    for name, value in run["values"].items():
        if name in units:
            shown = "absent" if name in run["absent"] else repr(value)
            print(f"metric {name} = {shown} {units[name]}")

    key = "per_layer" if run["trace"] else "end_to_end"
    metrics = {
        m["name"]: {"value": run["values"][m["name"]], "unit": m["unit"]}
        for m in benchmark[key]
    }
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def write_outputs(run: dict, env: dict, result: dict) -> None:
    """BENCH_<workload>_seed<n>_trace<t>.json, and the spans of a traced run."""
    OUT.mkdir(exist_ok=True)
    stem = f"{run['workload']}_seed{run['seed']}_trace{run['trace']}"
    summary = {k: v for k, v in run.items() if k not in ("outcome", "spans")}
    summary.update(env=env, result=result, newton_iters=run["outcome"].newton_iters,
                   qoi=run["outcome"].qoi)
    (OUT / f"BENCH_{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
    if not run["trace"]:
        return
    with open(OUT / f"trace_{stem}.jsonl", "w") as fh:
        fh.write(json.dumps({"trace_id": run["trace_id"], "workload": run["workload"],
                             "seed": run["seed"], "absent": run["absent"],
                             "absent_probes": run["absent_probes"], "env": env}) + "\n")
        for rep, spans in enumerate(run["spans"]):
            t0 = spans[0].start if spans else 0.0
            for s in spans:
                fh.write(json.dumps({
                    "trace_id": run["trace_id"], "rep": rep, "span": s.ident,
                    "parent": s.parent, "name": s.name, "layer": s.layer,
                    "start": s.start - t0, "end": s.end - t0,
                }) + "\n")


def write_reference(run: dict, env: dict) -> None:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {"workloads": {}}
    data["recorded_with"] = env
    data["workloads"][run["workload"]] = run["outcome"].as_reference()
    REFERENCE.write_text(json.dumps(data, indent=1) + "\n")


def run_all(args, names) -> int:
    """Each workload in its own fresh process; a summary table at the end."""
    rows, status = [], 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status = status or (0 if result["correct"] else 1)
        rows.append((name, result))
    for name, result in rows:
        shown = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{name:<16s} correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}  {shown}")
    return status


def main(argv=None) -> int:
    # Pin the BLAS/OpenMP pools before numpy loads: one thread keeps runs
    # on a shared two-core machine steady and the Newton counts repeatable.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    import workloads

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, list(workloads.WORKLOADS), benchmark["run_seconds"])
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))

    api = load_package()
    import layers

    env = environment()
    run = run_workload(args, api, workloads, layers)
    result = report(run, env, benchmark, layers)
    write_outputs(run, env, result)
    if args.write_reference:
        write_reference(run, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
