"""Outside-in tracer for the univcert benchmark.

The tracer replaces functions in module and class namespaces with wrappers
that record one span per call: name, layer, start, end, parent span and the
identifier of the scenario run it belongs to. Nothing under ``src/`` is
edited; the wrappers are installed at run time by ``install_univcert``.

Span times are process CPU time, like the benchmark's pass times. Spans stay
in memory until the run ends. A span's self time is its duration minus the
durations of its direct children; spans are strictly nested because the
program is single-threaded, so the children never overlap and their sum is
exactly the covered part of the parent.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import statistics
import time
from collections import defaultdict

LAYERS = ("spaces", "numlin", "opbuild", "analytic", "certify", "cli")

# span fields
NAME, LAYER, START, END, PARENT, RUN, SIZE = range(7)

# Golub & Van Loan, Matrix Computations (3rd ed.), section 5.4.5: real flop
# counts of the Golub-Kahan-Reinsch SVD of an m x n matrix with m >= n.
# Complex input costs four real flops per complex flop.
def svd_flops(m: int, n: int, complex_input: bool, compute_uv: bool,
              full_matrices: bool) -> int:
    """Computed operation count of one dense SVD (not measured)."""
    m, n = max(m, n), min(m, n)
    if not compute_uv:
        flops = 4 * m * n**2 - 4 * n**3 / 3
    elif full_matrices:
        flops = 4 * m**2 * n + 8 * m * n**2 + 9 * n**3
    else:
        flops = 14 * m * n**2 + 8 * n**3
    return round(4 * flops if complex_input else flops)


class Tracer:
    """Span recorder; wrappers created by ``wrap`` report into it."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0
        self.active = False
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.seen: dict[int, set] = defaultdict(set)
        self._wrappers: dict = {}

    def count(self, key: str, amount: float = 1.0):
        self.counters[self.run_id][key] += amount

    def first_time(self, key) -> bool:
        """True the first time ``key`` is offered within the current run."""
        seen = self.seen[self.run_id]
        if key in seen:
            return False
        seen.add(key)
        return True

    def _open(self, name: str, layer: str, size) -> list:
        span = [name, layer, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                self.run_id, size]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = self.clock()
        return span

    def _close(self, span: list):
        span[END] = self.clock()
        self.stack.pop()

    def wrap(self, fn, name: str, layer: str, hook=None, size=None):
        """Wrapper recording a span per call of ``fn`` while the tracer is active.

        ``size(args, kwargs)`` labels the span with a problem size. ``hook(tracer,
        args, kwargs, result)`` runs after the call, inside a sibling span of
        layer "trace" with recording paused, so its cost lands in no layer.
        """
        if fn in self._wrappers:
            return self._wrappers[fn]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._open(name, layer, size(args, kwargs) if size else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                hook_span = tracer._open("trace.hook", "trace", None)
                tracer.active = False
                try:
                    hook(tracer, args, kwargs, result)
                finally:
                    tracer.active = True
                    tracer._close(hook_span)
            return result

        self._wrappers[fn] = traced
        return traced

    def instrument_module(self, module, package: str, hooks=None, sizes=None):
        """Wrap every function and class method that ``package`` defines and
        ``module`` binds; the layer is the defining module's last name."""
        hooks, sizes = hooks or {}, sizes or {}

        def wrapped(fn):
            layer = fn.__module__.rsplit(".", 1)[-1]
            name = f"{layer}.{fn.__qualname__}"
            return self.wrap(fn, name, layer, hooks.get(name), sizes.get(name))

        for attr, obj in list(vars(module).items()):
            owner = getattr(obj, "__module__", "") or ""
            if not owner.startswith(package + "."):
                continue
            if inspect.isfunction(obj):
                setattr(module, attr, wrapped(obj))
            elif inspect.isclass(obj) and owner == module.__name__:
                for meth_name, meth in list(vars(obj).items()):
                    if inspect.isfunction(meth) and (
                            not meth_name.startswith("__") or meth_name == "__post_init__"):
                        setattr(obj, meth_name, wrapped(meth))

    def patch(self, namespace, attr: str, name: str, layer: str, hook=None, size=None):
        setattr(namespace, attr,
                self.wrap(getattr(namespace, attr), name, layer, hook, size))


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def loglog_slope(spans, name: str) -> float:
    """Least-squares slope of log(median per-call time) against log(size)
    over the distinct sizes of spans called ``name``; 0 when fewer than two."""
    by_size = defaultdict(list)
    for s in spans:
        if s[NAME] == name and s[SIZE]:
            by_size[s[SIZE]].append(s[END] - s[START])
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(n) for n in by_size]
    ys = [math.log(max(statistics.median(ts), 1e-12)) for ts in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def run_metrics(tracer: Tracer, run_ids) -> dict[str, float]:
    """Per-layer metrics of the scenario runs ``run_ids`` (one pass, or one part).

    Layer times are shares of the traced time, the summed duration of the
    top-level spans: a layer a workload never enters reads 0, which as a
    share is a measurement and not a stuck clock.
    """
    run_ids = set(run_ids)
    index = [i for i, s in enumerate(tracer.spans) if s[RUN] in run_ids]
    own = self_times(tracer.spans)
    spans = [tracer.spans[i] for i in index]
    counters = defaultdict(float)
    for rid in run_ids:
        for key, val in tracer.counters[rid].items():
            counters[key] += val

    def calls(name):
        return sum(1 for s in spans if s[NAME] == name)

    def total(name):
        return sum(s[END] - s[START] for s in spans if s[NAME] == name)

    def ratio(num, den):
        return num / den if den else 0.0

    traced = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    m = {f"{layer}.self_frac":
         ratio(sum(own[i] for i in index if tracer.spans[i][LAYER] == layer), traced)
         for layer in LAYERS}
    witness = "certify.adjoint_multiplicity_witnesses"
    m["certify.witness_family.calls"] = calls(witness)
    m["certify.witness_family.frac"] = ratio(total(witness), traced)
    m["certify.witness_family.exponent"] = loglog_slope(spans, witness)
    m["certify.witness.useful_ratio"] = ratio(counters["witness.passing"],
                                              counters["witness.built"])
    comp = calls("opbuild.composition_matrix")
    m["opbuild.composition_matrix.calls"] = comp
    m["opbuild.composition_matrix.distinct_ratio"] = ratio(
        counters["composition_matrix.distinct"], comp)
    m["opbuild.hs.bytes"] = counters["hs.bytes"]
    m["linalg.kron.calls"] = calls("linalg.kron")
    m["linalg.kron.bytes"] = counters["kron.bytes"]
    svd = calls("linalg.svd")
    m["linalg.svd.calls"] = svd
    m["linalg.svd.s"] = total("linalg.svd")
    m["linalg.svd.flops"] = counters["svd.flops"]
    m["linalg.svd.repeat_frac"] = ratio(counters["svd.repeats"], svd)
    m["linalg.svd.exponent"] = loglog_slope(spans, "linalg.svd")
    m["numlin.calls"] = sum(1 for s in spans if s[LAYER] == "numlin" and (
        s[PARENT] < 0 or tracer.spans[s[PARENT]][LAYER] != "numlin"))
    m["analytic.covering_value.calls"] = calls("analytic.covering_value")
    m["spaces.spec.calls"] = calls("spaces.SpaceSpec.__post_init__")
    return m


# -- univcert wiring ----------------------------------------------------------

def _arg(args, kwargs, pos: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _svd_hook(tracer, args, kwargs, result):
    import numpy as np

    a = np.asarray(_arg(args, kwargs, 0, "a"))
    m, n = a.shape[-2:]
    tracer.count("svd.flops", svd_flops(
        m, n, np.iscomplexobj(a), bool(_arg(args, kwargs, 2, "compute_uv", True)),
        bool(_arg(args, kwargs, 1, "full_matrices", True))))
    digest = hashlib.blake2b(np.ascontiguousarray(a).data, digest_size=16)
    digest.update(repr((a.shape, a.dtype.str)).encode())
    if not tracer.first_time(("svd", digest.digest())):
        tracer.count("svd.repeats")


def _svd_size(args, kwargs):
    return max(getattr(_arg(args, kwargs, 0, "a"), "shape", (0,))[-2:])


def _kron_hook(tracer, args, kwargs, result):
    tracer.count("kron.bytes", result.nbytes)


def _composition_hook(tracer, args, kwargs, result):
    if tracer.first_time(("composition_matrix", repr(args), repr(sorted(kwargs.items())))):
        tracer.count("composition_matrix.distinct")


def _hs_hook(tracer, args, kwargs, result):
    tracer.count("hs.bytes", args[0].matrix.nbytes)


def _witness_hook(tracer, args, kwargs, result):
    tracer.count("witness.built", len(result.indices))
    tracer.count("witness.passing", result.count())


def _witness_size(args, kwargs):
    return _arg(args, kwargs, 2, "trunc")


def install_univcert(tracer: Tracer, modules) -> None:
    """Wrap the univcert layers and numpy's dense SVD and Kronecker product.

    The numpy spans are children of the calling layer's span, so that
    layer's self time excludes them.
    """
    import numpy as np

    hooks = {
        "opbuild.composition_matrix": _composition_hook,
        "opbuild.HSOperator.__post_init__": _hs_hook,
        "certify.adjoint_multiplicity_witnesses": _witness_hook,
    }
    sizes = {"certify.adjoint_multiplicity_witnesses": _witness_size}
    for module in modules:
        tracer.instrument_module(module, "univcert", hooks, sizes)
    tracer.patch(np.linalg, "svd", "linalg.svd", "linalg", _svd_hook, _svd_size)
    tracer.patch(np, "kron", "linalg.kron", "linalg", _kron_hook)
