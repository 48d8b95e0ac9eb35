"""The three workloads: inputs made from the seed, the timed operation, and
the correctness gate applied to every operation's output.

drc receives only the generated shapes, cameras and observations (or, for
``repro_short``, command-line arguments).  Every call into drc goes through
a module attribute (``fitter.fit``, ``renderer.render``, ``cli.main``) so
the traced run can wrap it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from drc import cameras, cli, fitter, grid, metrics, renderer

from tracer import patched


@dataclass
class Outcome:
    """What the gate found for one operation."""

    problems: list
    iou: float
    fit_s: float  # summed FitReport wall times
    iterations: int


@dataclass
class FitInputs:
    gt: object  # BinaryGrid
    observations: list
    kind: str
    config: object  # FitConfig


class _FitWorkload:
    """One ``fitter.fit`` call per operation; subclasses make the inputs."""

    iou_floor: float

    def op(self, inputs: FitInputs, checkpoint=None):
        return fitter.fit(inputs.observations, inputs.gt.geometry, inputs.kind, inputs.config)

    def check(self, inputs: FitInputs, result, memo: dict) -> Outcome:
        occ, aux, report = result
        problems = []
        if not np.all(np.isfinite(report.losses)) or np.any(report.losses < 0.0):
            problems.append("loss trace not finite and non-negative")
        if not (np.all(np.isfinite(occ.x)) and occ.x.min() >= 0.0 and occ.x.max() <= 1.0):
            problems.append("fitted x not finite in [0, 1]")
        if aux is not None and not np.all(np.isfinite(aux.payload)):
            problems.append("fitted payload not finite")
        digest = hashlib.sha256(occ.x.tobytes())
        if aux is not None:
            digest.update(aux.payload.tobytes())
        _same_as_first(memo, digest.hexdigest(), problems)
        iou = metrics.best_threshold(occ, inputs.gt).best_iou
        if not iou >= self.iou_floor:
            problems.append(f"iou {iou:.4f} below floor {self.iou_floor}")
        return Outcome(problems, iou, report.wall_time_s, len(report.losses))

    def teardown(self, inputs) -> None:
        pass


def _same_as_first(memo: dict, digest: str, problems: list) -> None:
    """Repeated operations in one run must give bitwise-identical output."""
    first = memo.setdefault("digest", digest)
    if digest != first:
        problems.append("output differs bitwise from the run's first operation")


ELEVATION_PATTERN = (-12.0, 22.0, 2.0, 26.0, -4.0)  # degrees, inside drc's default ring range


@dataclass(frozen=True)
class ObjectDepth(_FitWorkload):
    """chair_like on a 32^3 unit cube, 5 ring views, depth supervision."""

    name: str = "object_depth"
    dims: int = 32
    views: int = 5
    size: int = 128
    iterations: int = 40
    rays: int = 3000
    iou_floor: float = 0.80

    def setup(self, seed: int) -> FitInputs:
        rng = np.random.default_rng([seed, 1])
        gt, _ = renderer.make_test_shape("chair_like", (self.dims,) * 3)
        # evenly spaced azimuths under a seeded rotation and jittered fixed
        # elevations keep coverage, and so the reconstruction quality,
        # comparable across seeds
        step = 360.0 / self.views
        azimuths = rng.uniform(0.0, step) + step * np.arange(self.views)
        elevations = np.resize(ELEVATION_PATTERN, self.views) + rng.uniform(-4.0, 4.0, self.views)
        cams = renderer.sample_view_ring(self.views, azimuths=azimuths, elevations=elevations,
                                         width=self.size, height=self.size)
        observations = [renderer.render(gt, cam, "depth") for cam in cams]
        config = fitter.FitConfig(iterations=self.iterations, rays_per_iteration=self.rays,
                                  seed=int(rng.integers(0, 2**31)), threads=1)
        return FitInputs(gt, observations, "depth", config)


@dataclass(frozen=True)
class SceneSemantics(_FitWorkload):
    """A frustum grid over 0.5-60 m with a floor and two boxes, seen by three
    cameras near the apex, depth + semantics supervision with K classes."""

    name: str = "scene_semantics"
    dims: int = 32
    z_min: float = 0.5
    z_max: float = 60.0
    hfov: float = 60.0
    n_cameras: int = 3
    width: int = 64
    height: int = 48
    camera_hfov: float = 48.0  # inside the grid's 60 deg, so every ray enters it
    classes: int = 4
    iterations: int = 6
    rays: int = 3000
    iou_floor: float = 0.22

    def scene(self):
        """(BinaryGrid, semantic AuxGrid): floor class 0, boxes 1 and 2; class
        K-1 is what the renderer gives escaping rays.  The scene is fixed, as
        chair_like is for object_depth; the seed moves the cameras."""
        geom = grid.make_frustum_geometry((self.dims,) * 3, self.z_min, self.z_max, self.hfov)
        idx = np.arange(geom.ncells)
        centre = geom.cell_center_world(idx)
        _, iy, _ = geom.unravel(idx)
        # y points down: the floor is the one cell per (x, z) column that
        # holds world height floor_y at the cell centre's depth
        floor_y = 1.6
        floor = iy == np.floor(floor_y / (geom.f * centre[:, 2]) + self.dims / 2.0)
        boxes = [((-2.5, 0.0, 5.0), (-0.5, floor_y, 8.0)),
                 ((1.0, -1.5, 12.0), (4.0, floor_y, 18.0))]
        label = np.full(geom.ncells, -1)
        label[floor] = 0
        for cls, (lo, hi) in enumerate(boxes, start=1):
            inside = np.all((centre >= lo) & (centre <= hi), axis=1)
            label[inside] = cls
        occupied = label >= 0
        payload = np.full((geom.ncells, self.classes), 1.0 / self.classes)
        payload[occupied] = np.eye(self.classes)[label[occupied]]
        gt = grid.BinaryGrid(geom, occupied.reshape(geom.shape))
        aux = grid.AuxGrid(geom, "semantics", payload.reshape(*geom.shape, self.classes))
        return gt, aux

    def setup(self, seed: int) -> FitInputs:
        rng = np.random.default_rng([seed, 2])
        gt, aux = self.scene()
        # cameras spread across the apex, jittered by the seed; near cells
        # are small, so larger moves change which cells are seen, and the
        # IoU, more than a benchmark's bound allows
        cams = []
        for x in np.linspace(-0.1, 0.1, self.n_cameras):
            pos = np.array([x, 0.0, 0.1]) + rng.uniform(-0.02, 0.02, 3)
            target = (rng.uniform(-0.15, 0.15), rng.uniform(0.72, 0.78), 20.0)
            cams.append(cameras.perspective_camera(pos, target, self.camera_hfov,
                                                   self.width, self.height))
        observations = [renderer.render(gt, cam, "depth_semantics", aux) for cam in cams]
        config = fitter.FitConfig(iterations=self.iterations, rays_per_iteration=self.rays,
                                  seed=int(rng.integers(0, 2**31)), threads=1)
        return FitInputs(gt, observations, "depth_semantics", config)


TABLE_COLUMNS = ("shape", "mask_drc", "depth_fusion", "depth_drc", "noisy_fusion", "noisy_drc")


@dataclass
class ReproInputs:
    workdir: str
    seed: int


@dataclass(frozen=True)
class ReproShort:
    """``drc repro`` in-process with the default shapes and a short fit."""

    name: str = "repro_short"
    views: int = 5
    size: int = 128
    iterations: int = 20
    extra_args: tuple = ()  # shrinks the run in the self-test
    iou_floor: float = 0.40
    scratch_root: str = ""  # directory inside the checkout for outputs
    src_dir: str = ""  # the package source the import timing loads

    def setup(self, seed: int) -> ReproInputs:
        # what a user pays before the pipeline starts: a fresh interpreter
        # importing drc, and the output directory
        env = dict(os.environ, PYTHONPATH=self.src_dir)
        subprocess.run([sys.executable, "-c", "import drc.cli"], env=env, check=True)
        os.makedirs(self.scratch_root, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="repro_", dir=self.scratch_root)
        rng = np.random.default_rng([seed, 3])
        return ReproInputs(workdir, int(rng.integers(0, 2**31)))

    def op(self, inputs: ReproInputs, checkpoint=None):
        """One ``drc repro``; ``checkpoint``, if given, is called before each
        of its fits, fusions and carvings, splitting the 10 s operation into
        pieces of about a second for the speed reference."""
        out = tempfile.mkdtemp(prefix="out_", dir=inputs.workdir)
        reports = []

        def recording_fit(*args, fit=cli.fit, **kwargs):
            result = fit(*args, **kwargs)
            reports.append(result[2])
            return result

        def after_checkpoint(fn):
            def call(*args, **kwargs):
                checkpoint()
                return fn(*args, **kwargs)
            return call

        replaced = [(cli, "fit", recording_fit)]
        if checkpoint is not None:
            replaced = [(cli, name, after_checkpoint(fn)) for name, fn in
                        (("fit", recording_fit), ("fuse_depth", cli.fuse_depth),
                         ("carve_masks", cli.carve_masks))]

        argv = ["repro", "--out", out, "--views", str(self.views), "--size", str(self.size),
                "--iters", str(self.iterations), "--seed", str(inputs.seed), "--threads", "1",
                *self.extra_args]
        with patched(replaced), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return out, code, reports

    def check(self, inputs: ReproInputs, result, memo: dict) -> Outcome:
        out, code, reports = result
        try:
            return self._check(out, code, reports, memo)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out, code, reports, memo) -> Outcome:
        fit_s = sum(r.wall_time_s for r in reports)
        iterations = sum(len(r.losses) for r in reports)
        if code != 0:
            return Outcome([f"drc repro exited {code}"], float("nan"), fit_s, iterations)
        problems = []
        with open(os.path.join(out, "table.tsv"), encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split("\t") for line in fh]
        values = []
        if not rows or tuple(rows[0]) != TABLE_COLUMNS:
            problems.append(f"table.tsv header {rows[:1]!r}")
        for row in rows[1:]:
            if len(row) != len(TABLE_COLUMNS):
                problems.append(f"table.tsv row {row!r} lacks columns")
                continue
            values += [float(v) for v in row[1:]]
        if len(rows) < 2:
            problems.append("table.tsv has no rows")
        iou = float(np.mean(values)) if values else float("nan")
        if not iou >= self.iou_floor:
            problems.append(f"mean table iou {iou:.4f} below floor {self.iou_floor}")
        for r in reports:
            if not np.all(np.isfinite(r.losses)) or np.any(r.losses < 0.0):
                problems.append("loss trace not finite and non-negative")
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(out):
            dirnames.sort()
            for fname in sorted(filenames):
                path = os.path.join(dirpath, fname)
                if fname == "manifest.txt":  # records the output path
                    continue
                with open(path, "rb") as fh:
                    digest.update(os.path.relpath(path, out).encode() + b"\0" + fh.read())
                if fname.endswith(".grid") and fname != "gt.grid":
                    fitted, _, _ = grid.load_grid(path)
                    x = getattr(fitted, "x", None)
                    if x is not None and not (np.all(np.isfinite(x)) and x.min() >= 0.0 and x.max() <= 1.0):
                        problems.append(f"{fname}: x not finite in [0, 1]")
        _same_as_first(memo, digest.hexdigest(), problems)
        return Outcome(problems, iou, fit_s, iterations)

    def teardown(self, inputs: ReproInputs) -> None:
        shutil.rmtree(inputs.workdir, ignore_errors=True)


WORKLOAD_NAMES = ("object_depth", "scene_semantics", "repro_short")


def make_workload(name: str, root: str, scratch_dir: str):
    """The named workload at its benchmark size; ``root`` is the checkout."""
    if name == "repro_short":
        return ReproShort(scratch_root=os.path.join(root, scratch_dir),
                          src_dir=os.path.join(root, "src"))
    return {"object_depth": ObjectDepth, "scene_semantics": SceneSemantics}[name]()
