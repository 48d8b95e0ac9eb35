"""Byte digests of the outputs drc promises to keep.

    PYTHONPATH=src python tests/golden.py --write   # record tests/golden/digests.txt
    PYTHONPATH=src python tests/golden.py --check   # compare with it, list what changed

Covers every output of ``drc repro --iters 40 --seed 10`` except
``manifest.txt`` (it holds wall times), the trace tables that run builds,
and for each fit workload of ``perfbench/workloads.py`` at seeds 0 and 1 the
fitted grid, payload and loss trace, each rendered observation (its depth
and, for the scene, its class ids) and the ``image_traces`` rows of every
view.  Each camera's rows of a table are hashed as a table of their own
(``camera_rows``): its five arrays (start, rebased to 0, n, t0, cells,
t_exit).

The digests are SHA-256 of raw bytes, which may differ across numpy builds
and CPUs (``exp``, ``log`` and the BLAS dot products take other SIMD paths),
so the file records the numpy version and platform, and Tier-1 runs
``--check`` (``tests/test_golden.py``) only where that line is this
machine's ``environment()``; elsewhere it checks run-to-run determinism
and the golden ``table.tsv``.  A change that breaks the bytes on purpose
runs ``--write`` and lists the changed files.  Takes a few seconds.
"""

import os

# one BLAS thread before numpy loads, as the benchmark runs (not when a test
# imports this module for its environment line)
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import platform
import sys
import tempfile
from unittest import mock

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from drc import cli, fitter, renderer  # noqa: E402
from workloads import make_workload  # noqa: E402

DIGESTS = os.path.join(ROOT, "tests", "golden", "digests.txt")
REPRO_ARGS = ["--iters", "40", "--seed", "10"]
FIT_WORKLOADS = ("object_depth", "scene_semantics")
FIT_SEEDS = (0, 1)
TABLE_FIELDS = ("start", "n", "t0", "cells", "t_exit")


def sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def camera_digests(table) -> list:
    """Per camera of an ``image_traces`` table, the digest of its rows."""
    return [sha256(*(getattr(table.camera_rows(i), name) for name in TABLE_FIELDS))
            for i in range(len(table.cameras))]


def repro_digests() -> dict:
    """Every repro output but manifest.txt, and each trace table it built."""
    digests = {}
    tables = []

    def recording_image_traces(geometry, cameras, build=cli.image_traces):
        table = build(geometry, cameras)
        tables.append(table)
        return table

    with tempfile.TemporaryDirectory() as out:
        argv = ["repro", "--out", out, *REPRO_ARGS]
        with mock.patch.object(cli, "image_traces", recording_image_traces), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"drc {' '.join(argv)} exited {code}")
        for dirpath, dirnames, filenames in os.walk(out):
            dirnames.sort()
            for fname in sorted(filenames):
                if fname == "manifest.txt":
                    continue
                path = os.path.join(dirpath, fname)
                with open(path, "rb") as fh:
                    digests[f"repro/{os.path.relpath(path, out)}"] = hashlib.sha256(fh.read()).hexdigest()
    rows = [d for table in tables for d in camera_digests(table)]
    for i, digest in enumerate(rows):
        digests[f"repro/traces/{i}"] = digest
    return digests


def fit_digests() -> dict:
    """Each fit workload's fit, rendered observations and view tables at each seed."""
    digests = {}
    for name in FIT_WORKLOADS:
        workload = make_workload(name, ROOT, "")
        for seed in FIT_SEEDS:
            inputs = workload.setup(seed)
            occ, aux, report = workload.op(inputs)
            key = f"{name}/seed{seed}"
            digests[f"{key}/x"] = sha256(occ.x)
            if aux is not None:
                digests[f"{key}/payload"] = sha256(aux.payload)
            digests[f"{key}/losses"] = sha256(report.losses)
            for v, obs in enumerate(inputs.observations):
                digests[f"{key}/render/{v}"] = sha256(*(a for a in (obs.depth, obs.classid) if a is not None))
            table = renderer.image_traces(inputs.gt.geometry, [obs.camera for obs in inputs.observations])
            for v, digest in enumerate(camera_digests(table)):
                digests[f"{key}/traces/{v}"] = digest
    return digests


def color_fit_digests() -> dict:
    """A 40-iteration colour fit of chair_like at 16^3 from four 32 px
    views at each seed: its grid, payload and loss trace."""
    digests = {}
    gt, aux = renderer.make_test_shape("chair_like", (16, 16, 16))
    for seed in FIT_SEEDS:
        cams = renderer.sample_view_ring(4, seed=seed, width=32, height=32)
        obs = [renderer.render(gt, c, "color", aux) for c in cams]
        occ, fit_aux, report = fitter.fit(obs, gt.geometry, "color", fitter.FitConfig(iterations=40, seed=seed))
        key = f"color_fit/seed{seed}"
        digests[f"{key}/x"] = sha256(occ.x)
        digests[f"{key}/payload"] = sha256(fit_aux.payload)
        digests[f"{key}/losses"] = sha256(report.losses)
    return digests


def environment() -> str:
    return f"numpy {np.__version__}, Python {platform.python_version()}, {platform.platform()}"


def read_digests() -> tuple[str, dict]:
    with open(DIGESTS, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].removeprefix("# ")
    return header, dict(line.split("  ", 1)[::-1] for line in lines[1:])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record the digests")
    mode.add_argument("--check", action="store_true", help="compare with the recorded digests")
    args = p.parse_args(argv)

    digests = {**repro_digests(), **fit_digests(), **color_fit_digests()}
    if args.write:
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            fh.write(f"# {environment()}\n")
            fh.writelines(f"{digests[k]}  {k}\n" for k in sorted(digests))
        print(f"wrote {len(digests)} digests to {os.path.relpath(DIGESTS, ROOT)}")
        return 0

    recorded_env, recorded = read_digests()
    if recorded_env != environment():
        print(f"note: digests were written under {recorded_env}, checked under {environment()}")
    changed = sorted(k for k in recorded.keys() & digests.keys() if recorded[k] != digests[k])
    missing = sorted(recorded.keys() - digests.keys())
    new = sorted(digests.keys() - recorded.keys())
    for label, keys in (("changed", changed), ("missing", missing), ("not recorded", new)):
        for k in keys:
            print(f"{label}: {k}")
    same = len(recorded) - len(changed) - len(missing)
    print(f"{same} of {len(recorded)} byte-identical")
    return 0 if same == len(recorded) and not new else 1


if __name__ == "__main__":
    sys.exit(main())
