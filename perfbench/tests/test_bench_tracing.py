"""Span arithmetic and the wiring of the traced run."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import tracing  # noqa: E402
from invlab import cli, core, inversion  # noqa: E402
from invlab.inversion import InverseMethod  # noqa: E402


def test_self_time_of_synthetic_spans():
    # parent [0, 10] holds a [1, 4] and b [5, 8]; b holds c [6, 7]; d [9, 12]
    # overruns the parent and only its covered part counts against it.
    spans = [
        ["p", -1, 0.0, 10.0, 0.0],
        ["a", 0, 1.0, 4.0, 0.0],
        ["b", 0, 5.0, 8.0, 0.0],
        ["c", 2, 6.0, 7.0, 0.0],
        ["d", 0, 9.0, 12.0, 0.0],
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 2.0, 1.0, 3.0]


def test_self_time_of_a_traced_nested_call():
    ticks = iter(range(100))
    rec = tracing.Recorder(clock=lambda: float(next(ticks)))

    inner = rec.wrap("m.inner", lambda: None)

    def outer_body():
        inner()
        inner()

    outer = rec.wrap("m.outer", outer_body)
    outer()
    # clock reads: outer start 0, inner 1-2, inner 3-4, outer end 5
    stats = tracing.aggregate(rec.spans)
    assert stats["m.outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0, "work": 0.0}
    assert stats["m.inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0, "work": 0.0}


def test_recursive_span_total_counts_the_outer_call_once():
    spans = [["f", -1, 0.0, 4.0, 0.0], ["f", 0, 1.0, 3.0, 0.0]]
    assert tracing.aggregate(spans)["f"]["total_s"] == 4.0


def _counted_run(fn):
    """Run fn traced; also count entries into each original function's code
    with a profiler, which sees every call whatever name it was made by."""
    codes = {f.__code__: name for name, f in tracing._targets()}
    for layer, cls, meth, name in tracing.METHODS:
        codes[getattr(getattr(sys.modules[f"invlab.{layer}"], cls), meth).__code__] = name
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    seen = {}

    def prof(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] = seen.get(codes[frame.f_code], 0) + 1

    sys.setprofile(prof)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
        undo()
    return out, tracing.aggregate(rec.spans), seen


def _accuracy(n):
    return lambda: cli.run_accuracy(cli.ExperimentConfig(n=n, seed=1))


@pytest.mark.parametrize("n", [16, 72])
def test_every_call_is_traced_accuracy(n):
    _, stats, seen = _counted_run(_accuracy(n))
    assert {k: int(v["calls"]) for k, v in stats.items()} == seen
    # norm2 takes the Jacobi SVD at n <= 64 and power iteration above.
    assert stats.get("core.svd_jacobi", {"calls": 0})["calls"] == (12 if n <= 64 else 0)


@pytest.mark.parametrize("method", list(InverseMethod))
def test_every_call_is_traced_invert(method):
    a = core.Matrix(np.random.default_rng(3).standard_normal((16, 16)) + 8 * np.eye(16))
    result, stats, seen = _counted_run(lambda: inversion.invert(a, method))
    assert {k: int(v["calls"]) for k, v in stats.items()} == seen
    if method is InverseMethod.ROWS_GEPP:
        assert stats["core.solve_lu_transposed"]["calls"] == 16
    if result.iterations:
        side = "left" if method is InverseMethod.NEWTON_LEFT else "right"
        assert stats[f"inversion.newton_{side}"]["work"] == result.iterations
        assert stats["inversion.invert"]["work"] == result.iterations


def test_undo_restores_the_package():
    before = dict(vars(inversion)), dict(inversion._DISPATCH), core.Matrix.__init__
    undo = tracing.install(tracing.Recorder())
    assert inversion.norm2 is not before[0]["norm2"]
    assert inversion._DISPATCH[InverseMethod.ROWS_GEPP] is not before[1][InverseMethod.ROWS_GEPP]
    undo()
    assert (dict(vars(inversion)), dict(inversion._DISPATCH), core.Matrix.__init__) == before


def test_a_function_held_in_a_tuple_is_reported():
    inversion._probe = (inversion.invert_rows_gepp,)
    try:
        with pytest.raises(tracing.WiringError):
            tracing.install(tracing.Recorder())
    finally:
        del inversion._probe
