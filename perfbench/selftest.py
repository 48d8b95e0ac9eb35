"""Quick self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Checks the span self-time arithmetic, that traced per-layer self times add
up to the traced operation time, and that the correctness gate counts
failures without stopping the run.
"""

import math
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (pins BLAS threads before numpy loads)

sys.path.insert(0, run.SRC)

import numpy as np  # noqa: E402

from layers import layer_metrics  # noqa: E402
from tracer import Tracer, aggregate, patched  # noqa: E402
from workloads import ObjectDepth, ReproShort, SceneSemantics  # noqa: E402
from drc import fitter  # noqa: E402

TINY_OBJECT = ObjectDepth(dims=8, views=2, size=16, iterations=3, rays=200, iou_floor=0.0)
TINY_SCENE = SceneSemantics(dims=8, width=16, height=12, iterations=2, rays=150, iou_floor=0.0)


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_is_span_minus_children():
    tr = Tracer(clock=_fake_clock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]))
    with tr.span("root"):
        with tr.span("a"):
            with tr.span("b") as b:
                b.counts["rays"] = 7
        with tr.span("c"):
            pass
    agg = aggregate(tr.spans)["root"]
    assert agg.roots == 1 and tr.spans[0].duration == 10.0
    assert dict(agg.self_s) == {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}
    assert sum(agg.self_s.values()) == tr.spans[0].duration
    assert agg.counts["b"]["rays"] == 7 and agg.child_counts["a"]["rays"] == 7


def test_wrap_records_counts_and_patch_restores():
    class Owner:
        @staticmethod
        def work(n):
            return list(range(n))

    original = Owner.work
    tr = Tracer()
    wrapped = tr.wrap(original, lambda a, k: f"work.{a[0]}", lambda a, k, out: {"items": len(out)})
    with patched([(Owner, "work", wrapped)]):
        with tr.span("bench.op"):
            assert Owner.work(3) == [0, 1, 2]
    assert Owner.work is original
    agg = aggregate(tr.spans)["bench.op"]
    assert agg.counts["work.3"]["items"] == 3


def _op_self_ms(values):
    """Sum of the per-operation self times the traced run reports."""
    return sum(v for k, v in values.items() if k.endswith(".self_ms") and not k.startswith("setup."))


def _check_traced_accounting(wl):
    tr = Tracer()
    m = run.measure(wl, seed=3, seconds=0.01, tracer=tr)
    assert m["failed"] == 0 and m["attempted"] == 2
    values = layer_metrics(aggregate(tr.spans), m["op_s"][False], m["op_s"][True])
    assert math.isclose(_op_self_ms(values), values["span.self_sum_ms"], rel_tol=1e-9)
    # the span tree covers the whole traced operation except patching it in
    assert abs(values["span.self_sum_ms"] - values["run.traced_ms"]) < 0.05 * values["run.traced_ms"]
    assert 0.0 < values["traversal.hit_fraction"] <= 1.0
    assert values["traversal.cells"] <= values["traversal.slots"]
    return values


def test_object_trace_adds_up_and_counts_repeat():
    first = _check_traced_accounting(TINY_OBJECT)
    second = _check_traced_accounting(TINY_OBJECT)
    for key in ("traversal.rays", "traversal.hits", "traversal.cells", "traversal.slots"):
        assert first[key] == second[key], key
    assert first["consistency.view_loss.depth.us_per_ray"] > 0.0
    assert first["traversal.frustum.self_ms"] == 0.0
    assert first["fitter.iterations"] == TINY_OBJECT.iterations


def test_scene_trace_uses_frustum_and_payload_path():
    values = _check_traced_accounting(TINY_SCENE)
    assert values["traversal.uniform.self_ms"] == 0.0
    assert values["consistency.view_loss.depth_semantics.us_per_ray"] > 0.0
    assert values["setup.traversal.frustum.self_ms"] > 0.0


def test_repro_tiny_passes_gate():
    root = tempfile.mkdtemp()
    try:
        wl = ReproShort(views=2, size=16, iterations=2, iou_floor=0.0,
                        extra_args=("--dims", "8", "--rays", "64"),
                        scratch_root=root, src_dir=run.SRC)
        tr = Tracer()
        m = run.measure(wl, seed=5, seconds=0.01, tracer=tr)
        assert m["failed"] == 0, m
        values = layer_metrics(aggregate(tr.spans), m["op_s"][False], m["op_s"][True])
        assert math.isclose(_op_self_ms(values), values["span.self_sum_ms"], rel_tol=1e-9)
        assert values["grid.save_grid.bytes"] > 0 and values["renderer.render.pixels"] == 2 * 2 * 2 * 16 * 16
        assert os.listdir(root) == []  # outputs removed
    finally:
        shutil.rmtree(root)


def test_timings_are_scaled_by_the_bracketing_reference():
    from reference import REFERENCE_S

    m = run.measure(TINY_OBJECT, 3, 0.01)
    # one reference before the first set-up, one after each set-up and operation
    assert len(m["reference_s"]) == 1 + run.N_SETUPS + m["attempted"]
    refs = m["reference_s"]
    assert math.isclose(m["setup_ref_s"][0], (refs[0] + refs[1]) / 2.0)
    assert math.isclose(m["op_ref_s"][False][0], (refs[run.N_SETUPS] + refs[run.N_SETUPS + 1]) / 2.0)

    outcome = m["outcomes"][0][0]
    fake = {**m, "setup_s": [1.0, 2.0, 3.0], "setup_ref_s": [REFERENCE_S, 2 * REFERENCE_S, REFERENCE_S],
            "op_s": {False: [4.0], True: []}, "op_ref_s": {False: [2 * REFERENCE_S], True: []},
            "outcomes": [(outcome, 2 * REFERENCE_S)]}
    scaled = run.end_to_end(fake)
    unscaled = run.end_to_end(fake, scale=lambda s, r: s)
    assert scaled["setup_s"] == 1.0 and unscaled["setup_s"] == 2.0  # medians of 1, 1, 3 and 1, 2, 3
    assert scaled["run_s"] == 2.0 and unscaled["run_s"] == 4.0
    assert math.isclose(2.0 * scaled["ms_per_iter"], unscaled["ms_per_iter"])


def test_stopwatch_scales_each_piece_by_its_own_references():
    from reference import Stopwatch

    kernel_times = iter([1.0, 3.0, 1.0])
    watch = Stopwatch(kernel=lambda: next(kernel_times))
    watch.start()
    watch._t0 -= 2.0  # a 2 s piece between references of 1 and 3 s (mean 2)
    watch.checkpoint()
    watch._t0 -= 1.0  # a 1 s piece between references of 3 and 1 s (mean 2)
    wall_s, ref_s = watch.stop()
    assert math.isclose(wall_s, 3.0, rel_tol=1e-3) and math.isclose(ref_s, 2.0, rel_tol=1e-3)
    assert watch.refs == [1.0, 3.0, 1.0]


def test_gate_counts_failures_and_keeps_going():
    m = run.measure(ObjectDepth(**{**vars(TINY_OBJECT), "iou_floor": 1.01}), 3, 0.01)
    assert m["attempted"] >= 1 and m["failed"] == m["attempted"]

    class FlakyOp(ObjectDepth):
        calls = []

        def op(self, inputs, checkpoint=None):
            self.calls.append(1)
            if len(self.calls) == 2:
                raise ValueError("injected")
            return super().op(inputs, checkpoint)

    m = run.measure(FlakyOp(**vars(TINY_OBJECT)), 3, 0.5)
    assert m["attempted"] >= 3 and m["failed"] == 1
    assert len(m["outcomes"]) == m["attempted"] - 1


def test_gate_flags_nonidentical_repeat_and_bad_values():
    wl = TINY_OBJECT
    inputs = wl.setup(3)
    occ, aux, report = wl.op(inputs)
    memo = {}
    assert wl.check(inputs, (occ, aux, report), memo).problems == []
    nudged = occ.x.copy()
    nudged.flat[0] = np.nextafter(nudged.flat[0], 0.0)
    other = type(occ)(occ.geometry, nudged)
    assert any("bitwise" in p for p in wl.check(inputs, (other, aux, report), memo).problems)
    bad = fitter.FitReport(np.array([1.0, np.nan]), report.rays_per_loss, report.wall_time_s)
    assert any("loss" in p for p in wl.check(inputs, (occ, aux, bad), memo).problems)


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except Exception as exc:  # report every test, then fail the run
            failures += 1
            print(f"FAIL  {name}: {exc!r}")
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
