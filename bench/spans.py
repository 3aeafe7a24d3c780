"""Span tracing of the dpdbayes layers, driven from outside the package.

``Tracer.install`` replaces every public callable of the package's layer
modules by a wrapper, at each place a caller looks it up: the defining
module's attribute, every other module that imported it by name, and the
class dictionary for methods.  A wrapper records a span (name, start, end,
parent) only when the call enters a new group, so calls inside a layer stay
unrecorded and a layer's ``calls`` counts crossings into it.  Spans are kept
in flat arrays, reduced to per-layer numbers by ``summarize`` and written
out by ``save``; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = (
    "models",
    "alpha_likelihood",
    "mdpde",
    "posterior",
    "laplace",
    "diagnostics",
    "robustness",
    "cli",
)

#: Groups recorded even when called from their own layer: priors, the
#: per-point contamination scores and the importance proposal.
_PRIOR_CLASSES = {"GaussianPrior", "UniformBoxPrior", "FlatPrior"}
_PROBE_FUNCTIONS = {("robustness", "_summed_scores"): "robustness.scores"}
_PROBE_METHODS = {("robustness", "_TwoScaleProposal", "sample_batch"): "robustness.proposal"}
_THETA_PARAMS = ("thetas", "theta")
_GRID_CALLS = {"robustness.influence_curve", "robustness.pseudo_influence"}
_FUNCTIONAL = {
    "alpha_likelihood.alpha_likelihood_functional",
    "alpha_likelihood.alpha_likelihood_functional_batch",
}


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest properly, so children never overlap
    and the difference is the time spent in the span's own code.
    """
    duration = end - start
    child = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    return duration - child


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._group_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("d")
        self.cells = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.current = -1
        self.group = -1
        self.job = ""
        self._patches: list[tuple[object, str, object]] = []
        self._quad_types: dict[type, bool] = {}

    # ---- recording ------------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def group_id(self, group: str) -> int:
        return self._group_ids.setdefault(group, len(self._group_ids))

    def _open(self, nid: int, gid: int, rows: float, cells: float):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.current)
        self.start.append(0.0)
        self.end.append(0.0)
        self.rows.append(rows)
        self.cells.append(cells)
        saved = (self.current, self.group)
        self.current, self.group = idx, gid
        return idx, saved

    def _close(self, idx: int, saved, t0: float, t1: float) -> None:
        self.start[idx] = t0
        self.end[idx] = t1
        self.current, self.group = saved

    @contextmanager
    def span(self, name: str, job: bool = False):
        """A span opened by the benchmark itself; ``job`` labels its subtree."""
        idx, saved = self._open(self.intern(name), self.group_id(name), 0.0, 0.0)
        outer_job = self.job
        if job:
            self.job = name
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, saved, t0, perf_counter())
            self.job = outer_job

    def _is_quadrature(self, obj) -> bool:
        kind = type(obj)
        if kind not in self._quad_types:
            self._quad_types[kind] = any(b.__name__ == "QuadratureFamily" for b in kind.__mro__)
        return self._quad_types[kind]

    # ---- wrapping -------------------------------------------------------

    def _wrap(self, fn, name: str, group: str, hook=None, theta_at=None):
        tracer = self
        gid = self.group_id(group)
        nid = self.intern(name)
        quad_nid = self.intern(name + "[quad]") if group == "models" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.group == gid:
                result = fn(*args, **kwargs)
            else:
                rows = cells = 0.0
                span_nid = nid
                if theta_at is not None:
                    pos, key = theta_at
                    theta = args[pos] if len(args) > pos else kwargs.get(key)
                    rows = float(theta.shape[0]) if getattr(theta, "ndim", 1) == 2 else 1.0
                    design = getattr(args[0], "design", None) if args else None
                    if design is not None:
                        cells = rows * design.shape[0]
                if quad_nid is not None and args and tracer._is_quadrature(args[0]):
                    span_nid = quad_nid
                idx, saved = tracer._open(span_nid, gid, rows, cells)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx, saved, t0, perf_counter())
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the public callables of every layer module of ``package``."""
        modules = {
            layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS
        }
        everywhere = [package, *modules.values()]
        for layer, module in modules.items():
            names = list(getattr(module, "__all__", ["main"]))
            names += [fn for (mod, fn) in _PROBE_FUNCTIONS if mod == layer]
            for name in names:
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    group = "posterior.prior" if name in _PRIOR_CLASSES else layer
                    for attr in list(obj.__dict__):
                        if not attr.startswith("_"):
                            self._wrap_method(layer, obj, attr, group)
                elif inspect.isfunction(obj):
                    wrapped = self._wrap(
                        obj,
                        f"{layer}.{name}",
                        _PROBE_FUNCTIONS.get((layer, name), layer),
                        _HOOKS.get(f"{layer}.{name}"),
                        _theta_position(obj) if layer in ("models", "alpha_likelihood") else None,
                    )
                    for mod in everywhere:
                        if mod.__dict__.get(name) is obj:
                            self._patch(mod, name, wrapped)
        for (layer, cls_name, attr), group in _PROBE_METHODS.items():
            self._wrap_method(layer, getattr(modules[layer], cls_name), attr, group)

    def _wrap_method(self, layer: str, cls, attr: str, group: str) -> None:
        raw = cls.__dict__[attr]
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if binder else raw
        if not inspect.isfunction(fn) or getattr(fn, "__isabstractmethod__", False):
            return
        theta_at = _theta_position(fn) if layer == "models" and binder is None else None
        wrapped = self._wrap(fn, f"{layer}.{cls.__name__}.{attr}", group, None, theta_at)
        self._patch(cls, attr, binder(wrapped) if binder else wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- output ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "rows": np.array(self.rows, dtype=np.float64),
            "cells": np.array(self.cells, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


def _theta_position(fn):
    """(positional index, keyword) of a function's parameter-row argument."""
    params = list(inspect.signature(fn).parameters)
    for key in _THETA_PARAMS:
        if key in params:
            return params.index(key), key
    return None


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _fit_hook(tr, args, kwargs, result):
    tr.counters["mdpde.newton_iters"] += result.iterations
    tr.counters["mdpde.nonconverged"] += 0 if result.converged else 1


def _sample_hook(tr, args, kwargs, result):
    config = _arg(args, kwargs, 4, "config")
    steps = config.burn_in + config.chain_length
    tr.counters["posterior.steps"] += steps
    tr.counters[f"posterior.steps@{tr.job}"] += steps
    tr.counters["posterior.accepted"] += result.acceptance_rate * config.chain_length
    tr.counters["posterior.kept_steps"] += config.chain_length


def _importance_hook(tr, args, kwargs, result):
    tr.counters["posterior.is_ess"] += result.effective_sample_size
    tr.counters["posterior.is_draws"] += _arg(args, kwargs, 6, "m")


def _functional_sample_hook(tr, args, kwargs, result):
    tr.counters["robustness.samples"] += 1
    tr.counters["robustness.is_ess"] += result.effective_sample_size
    tr.counters["robustness.is_draws"] += result.draws.shape[0]


def _grid_hook(position: int):
    def hook(tr, args, kwargs, result):
        grid = np.asarray(_arg(args, kwargs, position, "t_grid"))
        tr.counters["robustness.t_points"] += grid.size

    return hook


_HOOKS = {
    "mdpde.fit": _fit_hook,
    "posterior.sample": _sample_hook,
    "posterior.importance_expectation": _importance_hook,
    "robustness.functional_posterior_sample": _functional_sample_hook,
    "robustness.influence_curve": _grid_hook(4),
    "robustness.pseudo_influence": _grid_hook(5),
}

N25_JOB = "bench.c4-n25"


def summarize(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass, from the spans and counters."""
    a = tracer.arrays()
    parent = a["parent"]
    table = np.array(tracer.names + [""], dtype=object)
    names = table[a["name"]]
    parent_names = table[np.where(parent >= 0, a["name"][np.maximum(parent, 0)], -1)]
    layers = np.array([n.split(".", 1)[0] for n in names], dtype=object)
    parent_layers = np.array([n.split(".", 1)[0] for n in parent_names], dtype=object)
    own = self_times(parent, a["start"], a["end"])
    duration = a["end"] - a["start"]
    job, in_grid = _ancestry(parent, names)
    c = tracer.counters
    per = 1.0 / max(passes, 1)

    def count(mask) -> float:
        return float(np.count_nonzero(mask)) * per

    def total(values, mask) -> float:
        return float(values[mask].sum()) * per

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    models = layers == "models"
    with_theta = models & (a["rows"] > 0)
    prior = np.array([n.split(".")[1] in _PRIOR_CLASSES for n in names], dtype=bool)
    sample = names == "posterior.sample"
    n25 = job == N25_JOB
    steps = c["posterior.steps"] * per
    steps_n25 = c[f"posterior.steps@{N25_JOB}"] * per
    evals = count((layers == "alpha_likelihood") & (parent_names == "mdpde.fit"))
    t_points = c["robustness.t_points"]

    out = {f"{layer}.self_s": total(own, layers == layer) for layer in LAYERS}
    out.update({
        "models.calls": count(models),
        "models.rows_per_call": ratio(float(a["rows"][with_theta].sum()), float(np.count_nonzero(with_theta))),
        "models.computed_mb": total(a["cells"], models) * 8.0 / 1e6,
        "models.quad_self_s": total(own, np.array([n.endswith("[quad]") for n in names], dtype=bool)),
        "alpha_likelihood.calls": count(layers == "alpha_likelihood"),
        "mdpde.fits": count(names == "mdpde.fit"),
        "mdpde.newton_iters": c["mdpde.newton_iters"] * per,
        "mdpde.objective_evals": evals,
        "mdpde.step_accept_ratio": ratio(c["mdpde.newton_iters"] * per, evals),
        "mdpde.nonconverged": c["mdpde.nonconverged"] * per,
        "posterior.steps": steps,
        "posterior.us_per_step": 1e6 * ratio(total(duration, sample), steps),
        "posterior.us_per_step_n25": 1e6 * ratio(total(duration, sample & n25), steps_n25),
        "posterior.prior_s": total(duration, prior),
        "posterior.prior_us_per_step_n25": 1e6 * ratio(total(duration, prior & n25), steps_n25),
        "posterior.accept_ratio": ratio(c["posterior.accepted"], c["posterior.kept_steps"]),
        "posterior.is_ess_ratio": ratio(c["posterior.is_ess"], c["posterior.is_draws"]),
        "laplace.calls": count(layers == "laplace"),
        "diagnostics.calls": count(layers == "diagnostics"),
        "robustness.t_points": t_points * per,
        "robustness.model_calls_per_point": ratio(float(np.count_nonzero(models & in_grid)), t_points),
        "robustness.scores_ms_per_point": 1e3 * ratio(float(duration[names == "robustness._summed_scores"].sum()), t_points),
        "robustness.is_ess_ratio": ratio(c["robustness.is_ess"], c["robustness.is_draws"]),
        "robustness.is_retries": count(names == "robustness._TwoScaleProposal.sample_batch") - c["robustness.samples"] * per,
        "robustness.optimizer_evals": count(np.isin(names, list(_FUNCTIONAL)) & (a["rows"] == 1) & (parent_layers == "robustness")),
        "cli.runs": count(names == "cli.main"),
        "cli.bytes_written": c["cli.bytes_written"] * per,
    })
    return out


def _ancestry(parent: np.ndarray, names: np.ndarray):
    """Per span: the enclosing benchmark job, and whether it runs inside an
    influence-curve or pseudo-influence call.  Parents precede children."""
    job = np.empty(parent.size, dtype=object)
    in_grid = np.zeros(parent.size, dtype=bool)
    for i in range(parent.size):
        p = parent[i]
        if names[i].startswith("bench.") and names[i] != "bench.pass":
            job[i] = names[i]
        else:
            job[i] = job[p] if p >= 0 else ""
        in_grid[i] = p >= 0 and (in_grid[p] or names[p] in _GRID_CALLS)
    return job, in_grid
