"""In-memory span tracer for the zetafree layers.

`Tracer.install()` wraps the public functions of each layer module and
replaces every binding of them in every loaded ``zetafree.*`` module,
including names imported with ``from .x import f`` and the package
namespace, so calls made inside the package are seen too.
`Tracer.uninstall()` puts every original binding back.

A span is (name, start, end, parent, job): nanosecond `perf_counter`
stamps, the index of the enclosing span (-1 at top level) and the job
the span belongs to.  Spans stay in memory until `write_spans`.  A few
counters are kept at the same boundaries (points evaluated, rejections,
quadrature stopping short of its tolerance).
"""

import functools
import importlib
import inspect
import sys
import time

import numpy as np

PACKAGE = "zetafree"
LAYERS = ("trigpoly", "mollifier", "asymptotics", "optimizer", "zetanum", "quadrature", "cli")


def public_functions(module):
    """Functions defined in `module` whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


# ---------------------------------------------------------------------------
# Counters kept at the wrapped boundaries.  Each hook receives the tracer,
# the original function and the call's arguments, and returns its result.
# ---------------------------------------------------------------------------

def _count_eval_points(tracer, fn, args, kwargs):
    theta = kwargs["theta"] if "theta" in kwargs else args[1]
    tracer.count("trigpoly.eval_poly.points", int(np.size(theta)))
    return fn(*args, **kwargs)


def _count_rejections(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    if type(result).__name__ == "Rejection":
        tracer.count("optimizer.evaluate_candidate.rejections")
    return result


def _count_quadrature(tracer, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    integrand = bound.arguments["f"]

    def counted(u):
        tracer.count("quadrature.adaptive_quad.integrand_points", int(np.size(u)))
        return integrand(u)

    bound.arguments["f"] = counted
    value, err = fn(*bound.args, **bound.kwargs)
    if err > bound.arguments["tol"]:
        tracer.count("quadrature.adaptive_quad.short_of_tol")
    return value, err


HOOKS = {
    "trigpoly.eval_poly": _count_eval_points,
    "optimizer.evaluate_candidate": _count_rejections,
    "quadrature.adaptive_quad": _count_quadrature,
}

COUNTERS = (
    "trigpoly.eval_poly.points",
    "optimizer.evaluate_candidate.rejections",
    "quadrature.adaptive_quad.integrand_points",
    "quadrature.adaptive_quad.short_of_tol",
)


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.jobs = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.job = -1
        self._stack = []
        self._patched = []

    # -- recording ---------------------------------------------------------

    def count(self, name, n=1):
        self.counters[name] += n

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        names, starts, ends = self.names, self.starts, self.ends
        parents, jobs, stack = self.parents, self.jobs, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, fn, args, kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every zetafree.* binding of each layer's public functions."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for fname, fn in public_functions(module).items():
                wrappers[fn] = self._wrap(f"{layer}.{fname}", fn)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        """Restore every binding replaced by `install`."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- merging and output ------------------------------------------------

    def extend(self, spans, counters, job):
        """Append spans recorded by another process (for example a traced CLI child)."""
        base = len(self.starts)
        for name, start, end, parent in spans:
            self.names.append(name)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent + base if parent >= 0 else -1)
            self.jobs.append(job)
        for name, n in counters.items():
            self.counters[name] = self.counters.get(name, 0) + n

    def spans(self):
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def write_spans(self, path):
        """Write one tab-separated line per span: id, parent, job, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tjob\tname\tstart_ns\tend_ns\n")
            for i, (name, start, end, parent, job) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.jobs)
            ):
                fh.write(f"{i}\t{parent}\t{job}\t{name}\t{start}\t{end}\n")

    def stats(self):
        """Per span name: calls, total and self time in ns.

        Self time is the span's duration minus the time its child spans
        cover; spans nest strictly (one thread), so children never overlap.
        """
        child_ns = [0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        out = {}
        for i, name in enumerate(self.names):
            calls, total, self_ns = out.get(name, (0, 0, 0))
            dur = self.ends[i] - self.starts[i]
            out[name] = (calls + 1, total + dur, self_ns + dur - child_ns[i])
        return out
