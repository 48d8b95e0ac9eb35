"""drc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Imports drc from the checkout's ``src``,
makes the workload's inputs from the seed, times its set-up several times,
then repeats the workload's operation in a closed loop (one caller, one
operation at a time) until ``--seconds`` have passed, checking every
operation's output.  A fixed reference kernel is timed before and after
every set-up and operation (and between pieces of a long operation), and
the end-to-end timings are scaled by it to a common machine speed (see
``reference.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it records the machine and environment.
"""

import os

# one BLAS thread, set before numpy loads: fits run single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH_DIR = ".perfbench_tmp"
N_SETUPS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds positive")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "cpu": cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "fit_threads": 1, "seed": seed}


def measure(wl, seed: int, seconds: float, tracer=None) -> dict:
    """Set up N_SETUPS times, then run operations until ``seconds`` pass.

    Set-ups and operations are timed by a ``Stopwatch``, which runs the
    reference kernel before the first and after each one; untraced
    operations may also call its checkpoint inside.  Each gets its effective
    reference time (``*_ref_s``).  With a tracer, operations alternate
    untraced and traced (starting untraced) so the two share the same
    conditions; set-ups are all traced.
    """
    from layers import replacements
    from reference import Stopwatch
    from tracer import patched

    def traced(active, root):
        if active is None:
            return contextlib.nullcontext()
        stack = contextlib.ExitStack()
        stack.enter_context(patched(replacements(active)))
        stack.enter_context(active.span(root))
        return stack

    watch = Stopwatch()
    setup_s, setup_ref_s = [], []
    inputs = None
    for _ in range(N_SETUPS):
        if inputs is not None:
            wl.teardown(inputs)
        watch.start()
        with traced(tracer, "bench.setup"):
            inputs = wl.setup(seed)
        wall_s, ref_s = watch.stop()
        setup_s.append(wall_s)
        setup_ref_s.append(ref_s)

    memo = {}
    op_s = {False: [], True: []}
    op_ref_s = {False: [], True: []}
    outcomes = []
    failed = 0
    try:
        deadline = time.perf_counter() + seconds
        while True:
            is_traced = tracer is not None and len(op_s[False]) > len(op_s[True])
            watch.start()
            try:
                with traced(tracer if is_traced else None, "bench.op"):
                    result = wl.op(inputs, None if is_traced else watch.checkpoint)
                error = None
            except Exception as exc:  # counted as a failed operation; the run goes on
                error = exc
            wall_s, ref_s = watch.stop()
            op_s[is_traced].append(wall_s)
            op_ref_s[is_traced].append(ref_s)
            if error is None:
                try:
                    outcome = wl.check(inputs, result, memo)
                    problems = outcome.problems
                    if not is_traced:
                        outcomes.append((outcome, op_ref_s[False][-1]))
                except Exception as exc:
                    problems = [f"check raised {exc!r}"]
            else:
                problems = [f"operation raised {error!r}"]
            if problems:
                failed += 1
                print(f"operation {sum(map(len, op_s.values()))} failed: {'; '.join(problems)}",
                      file=sys.stderr)
            if time.perf_counter() >= deadline and op_s[False] and (tracer is None or op_s[True]):
                break
    finally:
        wl.teardown(inputs)
    return {"setup_s": setup_s, "setup_ref_s": setup_ref_s, "op_s": op_s, "op_ref_s": op_ref_s,
            "reference_s": watch.refs, "outcomes": outcomes,
            "attempted": len(op_s[False]) + len(op_s[True]), "failed": failed}


def _scaled(seconds: float, ref_s: float) -> float:
    """``seconds`` at the speed where the reference kernel takes REFERENCE_S."""
    from reference import REFERENCE_S

    return seconds * REFERENCE_S / ref_s


def end_to_end(m: dict, scale=_scaled) -> dict:
    """End-to-end values; ``scale=lambda s, r: s`` gives unscaled timings."""
    outcomes = m["outcomes"]
    nan = float("nan")
    return {
        "setup_s": statistics.median(map(scale, m["setup_s"], m["setup_ref_s"])),
        "run_s": statistics.median(map(scale, m["op_s"][False], m["op_ref_s"][False])),
        "ms_per_iter": statistics.median(1e3 * scale(o.fit_s, r) / o.iterations for o, r in outcomes)
        if outcomes else nan,
        "iou": statistics.median(o.iou for o, _ in outcomes) if outcomes else nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (m["attempted"] - m["failed"]) / m["attempted"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "drc", "__init__.py")):
        print(f"error: no drc package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import drc

    if os.path.dirname(os.path.abspath(drc.__file__)) != os.path.join(SRC, "drc"):
        print(f"error: imported drc from {drc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from layers import layer_metrics
    from tracer import Tracer, aggregate
    from workloads import WORKLOAD_NAMES, make_workload

    if args.workload not in WORKLOAD_NAMES:
        print(f"error: unknown workload {args.workload!r}, want one of {WORKLOAD_NAMES}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    wl = make_workload(args.workload, ROOT, SCRATCH_DIR)
    tracer = Tracer() if args.trace else None
    try:
        m = measure(wl, args.seed, args.seconds, tracer)
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(ROOT, SCRATCH_DIR))  # only if empty
    info = {"env": environment(args.seed),
            "workload": {k: v for k, v in vars(wl).items() if k not in ("scratch_root", "src_dir")},
            "operations": {"untraced": len(m["op_s"][False]), "traced": len(m["op_s"][True])},
            "reference_ms": 1e3 * statistics.median(m["reference_s"])}
    if tracer is None:
        values = end_to_end(m)
        unscaled = end_to_end(m, scale=lambda s, r: s)
        info["unscaled"] = {k: unscaled[k] for k in ("setup_s", "run_s", "ms_per_iter")}
    else:
        aggs = aggregate(tracer.spans)
        values = layer_metrics(aggs, m["op_s"][False], m["op_s"][True])
        values["machine.reference_ms"] = info["reference_ms"]
        # time per operation (per set-up) including children, for reading the trace
        info["inclusive_ms"] = {root: {name: 1e3 * agg.per_root(s) for name, s in agg.total_s.items()}
                                for root, agg in aggs.items()}
    names = [s["name"] for s in spec]
    if set(values) != set(names):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json")

    print("env " + json.dumps(info))
    print(json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
