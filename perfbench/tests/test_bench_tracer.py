"""Self-time arithmetic and repeat detection of the outside-in tracer.

Run with: python3 -m pytest perfbench/tests
"""

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import tracer as tr  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _module(name, **functions):
    mod = types.ModuleType(name)
    for attr, fn in functions.items():
        fn.__module__, fn.__qualname__ = name, attr
        setattr(mod, attr, fn)
    return mod


def test_self_time_of_a_synthetic_nested_call():
    clock = FakeClock()
    t = tr.Tracer(clock=clock)

    def inner():
        clock.advance(3.0)

    def outer():
        clock.advance(2.0)
        beta.inner()
        clock.advance(1.0)
        beta.inner()
        clock.advance(4.0)

    beta = _module("pkg.beta", inner=inner)
    alpha = _module("pkg.alpha", outer=outer)
    for mod in (alpha, beta):
        t.instrument_module(mod, "pkg")
    t.active = True
    alpha.outer()

    names = [s[tr.NAME] for s in t.spans]
    assert names == ["alpha.outer", "beta.inner", "beta.inner"]
    assert [s[tr.PARENT] for s in t.spans] == [-1, 0, 0]
    assert [s[tr.END] - s[tr.START] for s in t.spans] == [13.0, 3.0, 3.0]
    assert tr.self_times(t.spans) == [7.0, 3.0, 3.0]


def test_hook_cost_lands_in_no_layer():
    clock = FakeClock()
    t = tr.Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)
        return 5

    def slow_hook(tracer, args, kwargs, result):
        clock.advance(10.0)
        tracer.count("seen", result)

    wrapped_leaf = t.wrap(leaf, "beta.leaf", "beta", hook=slow_hook)

    def root():
        clock.advance(2.0)
        wrapped_leaf()

    wrapped_root = t.wrap(root, "alpha.root", "alpha")
    t.active = True
    wrapped_root()

    own = dict(zip((s[tr.NAME] for s in t.spans), tr.self_times(t.spans)))
    assert own == {"alpha.root": 2.0, "beta.leaf": 1.0, "trace.hook": 10.0}
    assert t.counters[0]["seen"] == 5


def test_inactive_tracer_records_nothing():
    t = tr.Tracer()
    f = t.wrap(lambda x: x + 1, "alpha.f", "alpha")
    assert f(1) == 2
    assert t.spans == []


def test_svd_flops_formula():
    # values only, square n: 4 n^3 - 4 n^3 / 3 = 8 n^3 / 3
    assert tr.svd_flops(3, 3, False, False, True) == 72
    assert tr.svd_flops(30, 10, True, True, True) == 4 * tr.svd_flops(10, 30, False, True, True)
    assert tr.svd_flops(30, 10, False, True, True) == 4 * 900 * 10 + 8 * 30 * 100 + 9 * 1000


@pytest.fixture(scope="module")
def univcert_tracer():
    from univcert import analytic, certify, cli, numlin, opbuild, spaces

    t = tr.Tracer()
    tr.install_univcert(t, (spaces, numlin, opbuild, analytic, certify, cli))
    return t, certify


def test_svd_repeats_are_detected_by_input_digest(univcert_tracer):
    t, certify = univcert_tracer
    fam = certify.family_composition(0.5, beta=1.0, variant="derivative")
    t.run_id = 7
    t.active = True
    try:
        certify.spectral_falsifier(fam, [1.0, 1.0, 0.5j], (8, 16, 24))
    finally:
        t.active = False
    m = tr.run_metrics(t, [7])
    # lambda = 1 appears twice on the grid, so each rung repeats one SVD
    assert m["linalg.svd.calls"] == 9
    assert m["linalg.svd.repeat_frac"] == pytest.approx(3 / 9)
    assert m["opbuild.composition_matrix.calls"] == 3
    assert m["opbuild.composition_matrix.distinct_ratio"] == 1.0
    assert m["linalg.svd.flops"] == 3 * sum(
        tr.svd_flops(n, n, True, False, True) for n in (8, 16, 24))
    assert 0.0 < m["certify.self_frac"] < 1.0
    assert m["numlin.self_frac"] == 0.0
