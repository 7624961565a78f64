"""Per-layer tracing of a phasefrac run, from outside the package.

Each probe wraps one public function at the place where its caller looks
it up (``phasefrac.newton.condense_system``, ``phasefrac.driver.pdas_solve``,
...), so the package itself is never edited and a probe whose name has
gone from the package is simply reported absent.  A wrapper records a
span (name, layer, start, end, parent) in memory and may inspect the
result; the spans are turned into per-layer calls, inclusive and self
seconds, and the counts the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Optional

# Layers in the order the report lists them: the package modules, with
# ``kernels`` under ``material`` and ``presets`` covering the BC wiring.
LAYERS = (
    "mesh", "presets", "material", "kernels", "fem", "linsolve", "newton",
    "driver", "qoi",
)


@dataclass
class Span:
    ident: int
    parent: Optional[int]
    name: str
    layer: str
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """In-memory span recorder for one workload run (one trace id)."""

    trace_id: str
    spans: list = field(default_factory=list)
    observed: dict = field(default_factory=dict)  # probe name -> results
    _stack: list = field(default_factory=list)

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].ident if self._stack else None
        span = Span(len(self.spans), parent, name, layer, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def observe(self, name: str, value) -> None:
        self.observed.setdefault(name, []).append(value)

    def reset(self) -> None:
        self.spans.clear()
        self.observed.clear()


@dataclass(frozen=True)
class Probe:
    """Wrap ``<module>.<path>`` as a span ``name`` in ``layer``.

    ``keep`` maps the wrapped call's result to a value stored under the
    span name (for example a NewtonReport, or the nnz of a matrix).
    """

    layer: str
    name: str
    module: str
    path: str
    keep: Optional[Callable] = None


def _solve_outcome(result):
    return bool(getattr(result, "converged", True))


def _condensed_nnz(result):
    return int(result[0].nnz)


def _hanging_nodes(result):
    problem = result[0]
    return len(problem.constraints)


PROBES = (
    Probe("presets", "presets.build_problem", "phasefrac.presets", "build_problem", _hanging_nodes),
    Probe("mesh", "mesh.build_rectangle_mesh", "phasefrac.presets", "build_rectangle_mesh"),
    Probe("mesh", "mesh.build_lshape_mesh", "phasefrac.presets", "build_lshape_mesh"),
    Probe("mesh", "mesh.refine_cells", "phasefrac.presets", "refine_cells"),
    Probe("mesh", "mesh.mark_lshape_boundaries", "phasefrac.presets", "mark_lshape_boundaries"),
    Probe("driver", "driver.run_incremental_loop", "phasefrac.driver", "run_incremental_loop"),
    Probe("material", "material.assembler_init", "phasefrac.driver", "Assembler.__post_init__"),
    Probe("material", "material.residual", "phasefrac.driver", "Assembler.residual"),
    Probe("material", "material.system", "phasefrac.driver", "Assembler.system"),
    Probe("kernels", "kernels.residual_blocks", "phasefrac.material", "kernels.residual_blocks"),
    Probe("kernels", "kernels.system_blocks", "phasefrac.material", "kernels.system_blocks"),
    Probe("kernels", "kernels.matrix_from_blocks", "phasefrac.material", "kernels.AssemblyPlan.matrix_from_blocks"),
    Probe("kernels", "kernels.vector_from_blocks", "phasefrac.material", "kernels.AssemblyPlan.vector_from_blocks"),
    Probe("fem", "fem.build_dof_map", "phasefrac.driver", "build_dof_map"),
    Probe("fem", "fem.mass_diag", "phasefrac.driver", "assemble_mass_diagonal"),
    Probe("fem", "fem.project", "phasefrac.driver", "apply_hanging_to_vector"),
    Probe("fem", "fem.project", "phasefrac.newton", "apply_hanging_to_vector"),
    Probe("fem", "fem.constraint_operator", "phasefrac.newton", "constraint_operator"),
    Probe("fem", "fem.condense", "phasefrac.newton", "condense_system", _condensed_nnz),
    Probe("fem", "fem.reduce", "phasefrac.newton", "reduce_residual"),
    Probe("fem", "fem.expand", "phasefrac.newton", "expand_update"),
    Probe("linsolve", "linsolve.solve", "phasefrac.newton", "solve_block_triangular", _solve_outcome),
    Probe("linsolve", "linsolve.solve", "phasefrac.newton", "gmres", _solve_outcome),
    Probe("linsolve", "linsolve.gmres", "phasefrac.linsolve", "gmres"),
    Probe("linsolve", "linsolve.preconditioner", "phasefrac.linsolve", "build_preconditioner"),
    Probe("linsolve", "linsolve.ilu0_factor", "phasefrac.linsolve", "ilu0_factor"),
    Probe("linsolve", "linsolve.ilu0_apply", "phasefrac.linsolve", "ilu0_apply"),
    Probe("linsolve", "linsolve.factor", "phasefrac.newton", "sps.splu"),
    Probe("linsolve", "linsolve.factor", "phasefrac.newton", "sps.spsolve"),
    Probe("linsolve", "linsolve.factor", "phasefrac.newton", "sps.factorized"),
    Probe("linsolve", "linsolve.factor", "phasefrac.newton", "splu"),
    Probe("linsolve", "linsolve.factor", "phasefrac.newton", "spsolve"),
    Probe("linsolve", "linsolve.factor", "phasefrac.newton", "factorized"),
    Probe("newton", "newton.pdas_solve", "phasefrac.driver", "pdas_solve", lambda report: report),
    Probe("newton", "newton.kkt_check", "phasefrac.driver", "kkt_check"),
    Probe("qoi", "qoi.total_crack_volume", "phasefrac.driver", "total_crack_volume"),
    Probe("qoi", "qoi.crack_energy", "phasefrac.driver", "crack_energy"),
    Probe("qoi", "qoi.boundary_load", "phasefrac.driver", "boundary_load"),
)


class _Namespace:
    """Stand-in for a foreign module (e.g. ``scipy.sparse.linalg``) seen
    through one package module, so that wrapping ``newton.sps.splu``
    leaves every other user of scipy untouched."""

    def __init__(self, target):
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


def _is_package_module(obj) -> bool:
    return isinstance(obj, types.ModuleType) and obj.__name__.split(".")[0] == "phasefrac"


def _wrap(func, tracer: Tracer, probe: Probe):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = tracer.open(probe.name, probe.layer)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(span)
        if probe.keep is not None:
            tracer.observe(probe.name, probe.keep(result))
        return result

    return wrapper


class Installed:
    """Probes wrapped into the live package; ``remove`` undoes them all."""

    def __init__(self, tracer: Tracer, probes=PROBES):
        self.present: set = set()
        self.absent: set = set()
        self._undo: list = []
        for probe in probes:
            if self._install(tracer, probe):
                self.present.add(probe.name)
            else:
                self.absent.add(probe.name)
        self.absent -= self.present  # a name is absent only if no probe of it resolved

    def _install(self, tracer: Tracer, probe: Probe) -> bool:
        try:
            owner = importlib.import_module(probe.module)
        except ImportError:
            return False
        *parents, attr = probe.path.split(".")
        for name in parents:
            child = getattr(owner, name, None)
            if child is None:
                return False
            if isinstance(child, types.ModuleType) and not _is_package_module(child):
                proxy = _Namespace(child)
                setattr(owner, name, proxy)
                self._undo.append((owner, name, child))
                child = proxy
            owner = child
        func = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(func):
            return False
        setattr(owner, attr, _wrap(func, tracer, probe))
        self._undo.append((owner, attr, func))
        return True

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


@dataclass
class LayerTimes:
    calls: dict  # span name -> calls
    inclusive: dict  # span name -> seconds, outermost spans of that name
    self_time: dict  # span name -> seconds not covered by child spans
    layer_name: dict  # span name -> layer
    layer_inclusive: dict  # layer -> seconds, outermost spans of the layer
    layer_self: dict  # layer -> seconds not covered by child spans


def layer_times(spans) -> LayerTimes:
    """Calls and times per span name and per layer.

    A span's self time is its duration minus its children's; recursion
    into the same name or layer is counted once for inclusive time.
    """
    by_id = {s.ident: s for s in spans}
    child_time: dict = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    lt = LayerTimes({}, {}, {}, {}, dict.fromkeys(LAYERS, 0.0), dict.fromkeys(LAYERS, 0.0))
    for s in spans:
        dur = s.end - s.start
        own = dur - child_time.get(s.ident, 0.0)
        lt.calls[s.name] = lt.calls.get(s.name, 0) + 1
        lt.self_time[s.name] = lt.self_time.get(s.name, 0.0) + own
        lt.layer_name[s.name] = s.layer
        lt.layer_self[s.layer] += own
        ancestors = []
        p = s.parent
        while p is not None:
            ancestors.append(by_id[p])
            p = by_id[p].parent
        if all(a.name != s.name for a in ancestors):
            lt.inclusive[s.name] = lt.inclusive.get(s.name, 0.0) + dur
        if all(a.layer != s.layer for a in ancestors):
            lt.layer_inclusive[s.layer] += dur
    return lt


def span_table(spans) -> list:
    """Rows (name, layer, calls, inclusive s, self s), largest self time first."""
    lt = layer_times(spans)
    rows = [
        (name, lt.layer_name[name], lt.calls[name], lt.inclusive[name], lt.self_time[name])
        for name in lt.calls
    ]
    return sorted(rows, key=lambda row: -row[4])


QOI_SPANS = ("qoi.total_crack_volume", "qoi.crack_energy", "qoi.boundary_load")

# Per-layer metrics: name -> (unit, probe names it needs).  A metric is
# absent when none of the probes it needs resolved in the package.
PER_LAYER = {
    "mesh.build_s": ("s", ("mesh.build_rectangle_mesh", "mesh.build_lshape_mesh")),
    "mesh.hanging_nodes": ("count", ("presets.build_problem",)),
    "material.residual_s": ("s", ("material.residual",)),
    "material.residual_calls": ("count", ("material.residual",)),
    "material.system_s": ("s", ("material.system",)),
    "material.system_calls": ("count", ("material.system",)),
    "fem.constraint_operator_s": ("s", ("fem.constraint_operator",)),
    "fem.constraint_operator_calls": ("count", ("fem.constraint_operator",)),
    "fem.project_s": ("s", ("fem.project",)),
    "fem.project_calls": ("count", ("fem.project",)),
    "fem.condense_s": ("s", ("fem.condense",)),
    "fem.mass_diag_s": ("s", ("fem.mass_diag",)),
    "fem.condensed_nnz": ("count", ("fem.condense",)),
    "linsolve.solve_s": ("s", ("linsolve.solve",)),
    "linsolve.calls": ("count", ("linsolve.solve",)),
    "linsolve.krylov_iters": ("count", ("newton.pdas_solve",)),
    "linsolve.fallbacks": ("count", ("linsolve.solve",)),
    "linsolve.factor_s": ("s", ("linsolve.factor",)),
    "linsolve.factor_calls": ("count", ("linsolve.factor",)),
    "linsolve.solves_per_factor": ("ratio", ("linsolve.solve", "linsolve.factor")),
    "newton.pdas_solves": ("count", ("newton.pdas_solve",)),
    "newton.steps": ("count", ("newton.pdas_solve",)),
    "newton.ls_trials": ("count", ("newton.pdas_solve",)),
    "newton.ls_first_try_ratio": ("ratio", ("newton.pdas_solve",)),
    "newton.ls_last_trial": ("count", ("newton.pdas_solve",)),
    "newton.max_iter_hits": ("count", ("newton.pdas_solve",)),
    "driver.pdas_solves_per_increment": ("ratio", ("newton.pdas_solve",)),
    "driver.itl_nonconverged": ("count", ("driver.run_incremental_loop",)),
    "qoi.s": ("s", QOI_SPANS),
    "qoi.calls": ("count", QOI_SPANS),
}
PER_LAYER.update({f"{layer}.self_s": ("s", ()) for layer in LAYERS})
PER_LAYER["trace_overhead"] = ("ratio", ())

TIME_METRICS = tuple(name for name, (unit, _) in PER_LAYER.items() if unit == "s")


def absent_metrics(installed: Installed) -> list:
    return sorted(
        name for name, (_, needs) in PER_LAYER.items()
        if needs and all(n in installed.absent for n in needs)
    )


def rep_metrics(tracer: Tracer, n_increments: int, itl_nonconverged: int, l_max: int) -> dict:
    """Per-layer values of one traced repetition (trace_overhead excluded)."""
    lt = layer_times(tracer.spans)
    obs = tracer.observed
    reports = obs.get("newton.pdas_solve", [])
    ls_steps = [l for r in reports for l in getattr(r, "line_search_steps", [])]
    steps = sum(getattr(r, "iterations", 0) for r in reports)
    solves = obs.get("linsolve.solve", [])
    nnz = obs.get("fem.condense", [])

    def t(name):
        return lt.inclusive.get(name, 0.0)

    def c(name):
        return lt.calls.get(name, 0)

    values = {
        "mesh.build_s": lt.layer_inclusive["mesh"],
        "mesh.hanging_nodes": obs.get("presets.build_problem", [0])[0],
        "material.residual_s": t("material.residual"),
        "material.residual_calls": c("material.residual"),
        "material.system_s": t("material.system"),
        "material.system_calls": c("material.system"),
        "fem.constraint_operator_s": t("fem.constraint_operator"),
        "fem.constraint_operator_calls": c("fem.constraint_operator"),
        "fem.project_s": t("fem.project"),
        "fem.project_calls": c("fem.project"),
        "fem.condense_s": t("fem.condense"),
        "fem.mass_diag_s": t("fem.mass_diag"),
        "fem.condensed_nnz": statistics.mean(nnz) if nnz else 0,
        "linsolve.solve_s": t("linsolve.solve"),
        "linsolve.calls": c("linsolve.solve"),
        "linsolve.krylov_iters": sum(sum(getattr(r, "gmres_iterations", [])) for r in reports),
        "linsolve.fallbacks": sum(1 for ok in solves if not ok),
        "linsolve.factor_s": t("linsolve.factor"),
        "linsolve.factor_calls": c("linsolve.factor"),
        "linsolve.solves_per_factor": (
            c("linsolve.solve") / c("linsolve.factor") if c("linsolve.factor") else 0.0
        ),
        "newton.pdas_solves": len(reports),
        "newton.steps": steps,
        "newton.ls_trials": sum(ls_steps),
        "newton.ls_first_try_ratio": (
            sum(1 for l in ls_steps if l == 0) / len(ls_steps) if ls_steps else 1.0
        ),
        "newton.ls_last_trial": sum(1 for l in ls_steps if l >= l_max),
        "newton.max_iter_hits": sum(
            1 for r in reports if getattr(r, "termination_reason", "") == "max_iterations"
        ),
        "driver.pdas_solves_per_increment": len(reports) / max(n_increments, 1),
        "driver.itl_nonconverged": itl_nonconverged,
        "qoi.s": sum(t(n) for n in QOI_SPANS),
        "qoi.calls": sum(c(n) for n in QOI_SPANS),
    }
    values.update({f"{layer}.self_s": lt.layer_self[layer] for layer in LAYERS})
    return values

