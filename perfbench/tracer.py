"""Per-module call counts and self times, taken by wrapping jacobi_heat's functions.

Nothing in the package changes.  While a Tracer is installed, each public
function of the layer modules (plus sde's `_normals` and
`_diffusion_increment`) is replaced, in every jacobi_heat namespace that
holds it, by a wrapper that counts calls and records self time: the
inclusive time minus the time spent in wrapped callees.  Generator functions
(validate's `check_*` groups) are timed per resume, because their work runs
while the caller iterates them.  A function that no longer exists is simply
not wrapped, so its metrics are absent rather than zero.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYER_MODULES = (
    "special",
    "quadrature",
    "simplex_jacobi",
    "heat_kernel",
    "coefficients",
    "polynomials",
    "operators",
    "sde",
    "validate",
    "cli",
)
PRIVATE_WRAPPED = {"sde": ("_normals", "_diffusion_increment")}
LAYER_OF = {"polynomials": "operators"}  # operators.s includes polynomials


def short_name(module, func):
    """Metric stem of a wrapped function: 'validate.check_laplace' -> 'validate.laplace'."""
    func = func.lstrip("_")
    if module == "validate" and func.startswith("check_"):
        func = func[len("check_"):]
    return f"{module}.{func}"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_jacobi_values(tracer, args, kwargs, result, dur):
    n_max = _arg(args, kwargs, 0, "n_max")
    x = _arg(args, kwargs, 3, "x")
    tracer.counters["special.jacobi_table.values"] += (int(n_max) + 1) * int(np.size(x))


def _count_n_max(tracer, args, kwargs, result, dur):
    tracer.counters["heat_kernel.n_max_sum"] += result.n_max


def _count_path_steps(tracer, args, kwargs, result, dur):
    cfg = _arg(args, kwargs, 0, "cfg")
    steps = cfg.paths * int(round(cfg.t_final / cfg.dt))
    tracer.counters["sde.path_steps"] += steps
    tracer.path_steps_by_k[cfg.k] += steps
    tracer.simulate_s_by_k[cfg.k] += dur


# run after a wrapped call returns, with (tracer, args, kwargs, result, inclusive
# seconds); the second entry names the counters the hook feeds
HOOKS = {
    "special.jacobi_table": (_count_jacobi_values, ("special.jacobi_table.values",)),
    "heat_kernel.auto_truncation": (_count_n_max, ("heat_kernel.n_max_sum",)),
    "heat_kernel.auto_truncation_2d": (_count_n_max, ("heat_kernel.n_max_sum",)),
    "sde.simulate": (_count_path_steps, ("sde.path_steps",)),
}


class Tracer:
    """Call counts, self times and work counters of the wrapped functions."""

    def __init__(self):
        self.calls = {}  # short name -> calls; holds every wrapped function
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.layer_of = {}  # short name -> layer
        self.counters = defaultdict(float)
        self.path_steps_by_k = defaultdict(int)
        self.simulate_s_by_k = defaultdict(float)
        self._children = []  # wrapped-callee seconds of each open span
        self._installed = []  # (namespace, attribute, original)

    def reset_stack(self):
        """Drop open spans; a deadline can interrupt a wrapper between push and pop."""
        self._children.clear()

    def _close(self, name, t0):
        dur = time.perf_counter() - t0
        child = self._children.pop()
        if self._children:
            self._children[-1] += dur
        self.self_s[name] += dur - child
        self.incl_s[name] += dur
        return dur

    def _wrap(self, name, fn):
        hook = HOOKS.get(name, (None, ()))[0]
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    tracer._children.append(0.0)
                    t0 = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(name, t0)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            tracer._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._close(name, t0)
            if hook is not None:
                hook(tracer, args, kwargs, result, dur)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        modules = {m: importlib.import_module(f"jacobi_heat.{m}") for m in LAYER_MODULES}
        namespaces = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "jacobi_heat" or key.startswith("jacobi_heat.")
        ]
        try:
            for mod_name, mod in modules.items():
                public = getattr(mod, "__all__", None) or [
                    n for n in vars(mod) if not n.startswith("_")
                ]
                for attr in (*public, *PRIVATE_WRAPPED.get(mod_name, ())):
                    fn = getattr(mod, attr, None)
                    if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                        continue
                    name = short_name(mod_name, attr)
                    self.calls.setdefault(name, 0)
                    self.layer_of[name] = LAYER_OF.get(mod_name, mod_name)
                    for counter in HOOKS.get(name, (None, ()))[1]:
                        self.counters.setdefault(counter, 0.0)
                    wrapper = self._wrap(name, fn)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is fn:
                                setattr(ns, key, wrapper)
                                self._installed.append((ns, key, fn))
            yield self
        finally:
            for ns, key, fn in reversed(self._installed):
                setattr(ns, key, fn)
            self._installed.clear()
            self.reset_stack()

    def layer_metrics(self, rounds):
        """Per-round metric values keyed by their names in BENCHMARK.json."""
        out = {}
        layer_s = defaultdict(float)
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls / rounds
            out[f"{name}.s"] = self.self_s[name] / rounds
            out[f"{name}.incl_s"] = self.incl_s[name] / rounds
            layer_s[self.layer_of[name]] += self.self_s[name]
        for layer, s in layer_s.items():
            out[f"{layer}.s"] = s / rounds
        for name, value in self.counters.items():
            out[name] = value / rounds
        if "sde.simulate" in self.calls:
            for k in (1, 2, 3):  # 0 where no ensemble of that k ran
                steps = self.path_steps_by_k.get(k, 0)
                out[f"sde.ns_per_path_step.k{k}"] = (
                    1e9 * self.simulate_s_by_k[k] / steps if steps else 0.0
                )
        return out
