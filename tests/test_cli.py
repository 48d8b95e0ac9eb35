import platform

import numpy as np
import pytest

from drc import cli
from drc.cli import main
from drc.grid import load_grid


def run(*argv):
    return main(list(argv))


def manifest(out_dir):
    """A manifest.txt's entries, key -> value."""
    return dict(line.split(" ", 1) for line in (out_dir / "manifest.txt").read_text().splitlines())


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A small shape -> render -> fit -> fuse pipeline shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    assert run("shape", "--name", "sphere", "--dims", "16", "--out", str(root / "gt")) == 0
    assert run("render", "--grid", str(root / "gt" / "shape.grid"), "--views", "2",
               "--kind", "depth", "--size", "24", "--seed", "3",
               "--out", str(root / "obs")) == 0
    assert run("fit", "--obs", str(root / "obs"), "--dims", "16", "--iters", "15",
               "--rays", "300", "--out", str(root / "fit")) == 0
    assert run("fuse", "--obs", str(root / "obs"), "--dims", "16",
               "--out", str(root / "fuse")) == 0
    return root


class TestPipeline:
    def test_outputs_exist_with_manifests(self, pipeline):
        for sub, name in (("gt", "shape.grid"), ("fit", "fitted.grid"), ("fuse", "fused.grid")):
            assert (pipeline / sub / name).exists()
            assert (pipeline / sub / "manifest.txt").exists()
        assert (pipeline / "fit" / "loss_log.tsv").exists()
        assert (pipeline / "obs" / "view_000" / "depth.pfm").exists()

    def test_fit_manifest_records_versions(self, pipeline):
        entries = manifest(pipeline / "fit")
        assert entries["python"] == platform.python_version() and entries["numpy"] == np.__version__
        assert float(entries["wall-time-s"]) > 0.0

    def test_repro_manifest_records_wall_time_and_versions(self, tmp_path):
        assert run("repro", "--shapes", "sphere", "--dims", "8", "--views", "2", "--size", "8",
                   "--iters", "1", "--out", str(tmp_path / "r")) == 0
        entries = manifest(tmp_path / "r")
        assert entries["python"] == platform.python_version() and entries["numpy"] == np.__version__
        assert float(entries["wall-time-s"]) > 0.0

    def test_eval_reports_iou(self, pipeline, capsys):
        assert run("eval", "--pred", str(pipeline / "fit" / "fitted.grid"),
                   "--gt", str(pipeline / "gt" / "shape.grid"),
                   "--out", str(pipeline / "eval")) == 0
        out = capsys.readouterr().out
        assert "best_iou" in out and "best_threshold" in out
        curve = (pipeline / "eval" / "iou_curve.tsv").read_text().splitlines()
        assert curve[0] == "threshold\tiou"
        assert len(curve) == 102

    def test_fused_grid_header_records_transform(self, pipeline):
        _, _, notes = load_grid(pipeline / "fuse" / "fused.grid")
        assert notes.get("xform") == "one-minus-soft-occupancy"

    def test_fit_rerun_is_bitwise_identical(self, pipeline, tmp_path):
        assert run("fit", "--obs", str(pipeline / "obs"), "--dims", "16", "--iters", "15",
                   "--rays", "300", "--out", str(tmp_path / "a")) == 0
        assert run("fit", "--obs", str(pipeline / "obs"), "--dims", "16", "--iters", "15",
                   "--rays", "300", "--out", str(tmp_path / "b")) == 0
        assert (tmp_path / "a" / "fitted.grid").read_bytes() == \
               (tmp_path / "b" / "fitted.grid").read_bytes()
        assert (tmp_path / "a" / "loss_log.tsv").read_bytes() == \
               (tmp_path / "b" / "loss_log.tsv").read_bytes()


class TestExitCodes:
    def test_unknown_shape_name_is_usage_error(self, tmp_path, capsys):
        assert run("shape", "--name", "torus", "--dims", "16",
                   "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err != ""

    def test_missing_bundle_dir_is_data_error(self, tmp_path):
        assert run("fit", "--obs", str(tmp_path / "nope"), "--dims", "8",
                   "--out", str(tmp_path / "out")) == 2

    def test_nan_depth_bundle_is_data_error(self, pipeline, tmp_path):
        import shutil
        from drc.images import read_pfm, write_pfm
        shutil.copytree(pipeline / "obs", tmp_path / "obs")
        path = tmp_path / "obs" / "view_001" / "depth.pfm"
        depth = read_pfm(path)
        depth[2, 3] = np.nan
        write_pfm(path, depth)
        assert run("fit", "--obs", str(tmp_path / "obs"), "--dims", "16", "--iters", "2",
                   "--out", str(tmp_path / "fit")) == 2
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("size, scale", [(b"24 24", b"nan"), (b"24 24", b"inf"), (b"-24 24", b"-1.0"),
                                             (b"24 twenty", b"-1.0")])
    def test_malformed_depth_header_is_data_error(self, pipeline, tmp_path, size, scale):
        import shutil
        shutil.copytree(pipeline / "obs", tmp_path / "obs")
        path = tmp_path / "obs" / "view_001" / "depth.pfm"
        tag, _, _, body = path.read_bytes().split(b"\n", 3)
        path.write_bytes(b"\n".join([tag, size, scale, body]))
        assert run("fit", "--obs", str(tmp_path / "obs"), "--dims", "16", "--iters", "2",
                   "--out", str(tmp_path / "fit")) == 2
        assert not (tmp_path / "fit").exists()

    def test_malformed_class_count_is_data_error(self, tmp_path):
        assert run("shape", "--name", "sphere", "--dims", "16", "--aux", "semantics",
                   "--out", str(tmp_path / "semgt")) == 0
        assert run("render", "--grid", str(tmp_path / "semgt" / "shape.grid"), "--views", "1",
                   "--kind", "depth_semantics", "--size", "8", "--out", str(tmp_path / "obs")) == 0
        (tmp_path / "obs" / "view_000" / "kind.txt").write_text("depth_semantics four\n")
        assert run("fit", "--obs", str(tmp_path / "obs"), "--dims", "16", "--iters", "1",
                   "--out", str(tmp_path / "fit")) == 2
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("count", ["257", "1000000000"])
    def test_class_count_past_8_bits_is_data_error(self, tmp_path, capsys, count):
        """Labels are 8-bit, so a bundle cannot name more than 256 classes;
        10^9 once made the fit allocate a payload of terabytes."""
        assert run("shape", "--name", "sphere", "--dims", "8", "--aux", "semantics",
                   "--out", str(tmp_path / "semgt")) == 0
        assert run("render", "--grid", str(tmp_path / "semgt" / "shape.grid"), "--views", "1",
                   "--kind", "depth_semantics", "--size", "8", "--out", str(tmp_path / "obs")) == 0
        (tmp_path / "obs" / "view_000" / "kind.txt").write_text(f"depth_semantics {count}\n")
        capsys.readouterr()
        assert run("fit", "--obs", str(tmp_path / "obs"), "--dims", "8", "--iters", "1",
                   "--out", str(tmp_path / "fit")) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and f"2 to 256 classes, got {count}" in err
        assert not (tmp_path / "fit").exists()

    def test_mixed_class_counts_are_data_error(self, tmp_path, capsys):
        import shutil
        for k in (3, 4):
            assert run("shape", "--name", "sphere", "--dims", "8", "--aux", "semantics", "--classes", str(k),
                       "--out", str(tmp_path / f"gt{k}")) == 0
            assert run("render", "--grid", str(tmp_path / f"gt{k}" / "shape.grid"), "--views", "1",
                       "--kind", "depth_semantics", "--size", "8", "--out", str(tmp_path / f"r{k}")) == 0
            shutil.copytree(tmp_path / f"r{k}" / "view_000", tmp_path / "obs" / f"k{k}")
        assert run("fit", "--obs", str(tmp_path / "obs"), "--dims", "8", "--iters", "1",
                   "--out", str(tmp_path / "fit")) == 2
        assert "disagree on class count: [3, 4]" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    def test_negative_seed_is_usage_error(self, pipeline, tmp_path, capsys):
        assert run("fit", "--obs", str(pipeline / "obs"), "--dims", "16", "--iters", "0",
                   "--seed", "-1", "--out", str(tmp_path / "fit")) == 1
        assert capsys.readouterr().err.startswith("error: seed must be")
        assert not (tmp_path / "fit").exists()

    def test_render_of_more_than_256_classes_is_error(self, tmp_path, capsys):
        assert run("shape", "--name", "sphere", "--dims", "8", "--aux", "semantics", "--classes", "300",
                   "--out", str(tmp_path / "gt")) == 0
        capsys.readouterr()
        assert run("render", "--grid", str(tmp_path / "gt" / "shape.grid"), "--views", "1",
                   "--kind", "depth_semantics", "--size", "8", "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "256 classes" in err and "Traceback" not in err
        assert not (tmp_path / "o" / "view_000").exists()

    @pytest.mark.parametrize("line", ["width 24 9", "intrinsics 20.0 20.0 nan 12.0"])
    def test_malformed_camera_file_is_data_error(self, pipeline, tmp_path, line):
        import shutil
        shutil.copytree(pipeline / "obs", tmp_path / "obs")
        path = tmp_path / "obs" / "view_001" / "camera.txt"
        key = line.split()[0]
        path.write_text("".join(f"{line}\n" if l.startswith(key) else l
                                for l in path.read_text().splitlines(keepends=True)))
        assert run("fit", "--obs", str(tmp_path / "obs"), "--dims", "16", "--iters", "2",
                   "--out", str(tmp_path / "fit")) == 2
        assert not (tmp_path / "fit").exists()

    def test_malformed_semantic_aux_tag_is_data_error(self, pipeline, tmp_path):
        data = (pipeline / "gt" / "shape.grid").read_bytes()
        header, body = data.split(b"\n", 1)
        tokens = header.split(b" ")
        tokens[-1] = b"sem:x"  # the aux tag; the shape grid has no annotations
        (tmp_path / "bad.grid").write_bytes(b" ".join(tokens) + b"\n" + body)
        assert run("eval", "--pred", str(pipeline / "fit" / "fitted.grid"),
                   "--gt", str(tmp_path / "bad.grid")) == 2

    def test_threads_other_than_one_is_usage_error(self, pipeline, tmp_path):
        for command in (["fit", "--obs", str(pipeline / "obs"), "--dims", "16"],
                        ["repro", "--shapes", "sphere", "--dims", "16"]):
            assert run(*command, "--iters", "1", "--threads", "2",
                       "--out", str(tmp_path / command[0])) == 1
            assert not (tmp_path / command[0]).exists()

    def test_deterministic_flag_is_usage_error(self, pipeline, tmp_path):
        assert run("fit", "--obs", str(pipeline / "obs"), "--dims", "16", "--iters", "1",
                   "--deterministic", "--out", str(tmp_path / "fit")) == 1
        assert not (tmp_path / "fit").exists()

    def test_non_finite_fit_weight_is_usage_error(self, pipeline, tmp_path):
        assert run("fit", "--obs", str(pipeline / "obs"), "--dims", "16", "--iters", "2",
                   "--fg-weight", "nan", "--out", str(tmp_path / "fit")) == 1
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("flag", ["--aabb=-inf,-0.5,-0.5,0.5,0.5,0.5", "--frustum=0.4,inf,50"])
    def test_non_finite_geometry_is_usage_error(self, pipeline, tmp_path, flag):
        assert run("fit", "--obs", str(pipeline / "obs"), "--dims", "16", "--iters", "1", flag,
                   "--out", str(tmp_path / "fit")) == 1
        assert not (tmp_path / "fit").exists()

    def test_mask_input_to_fuse_is_data_error(self, pipeline, tmp_path):
        assert run("render", "--grid", str(pipeline / "gt" / "shape.grid"), "--views", "1",
                   "--kind", "mask", "--size", "16", "--out", str(tmp_path / "masks")) == 0
        assert run("fuse", "--obs", str(tmp_path / "masks"), "--dims", "16",
                   "--out", str(tmp_path / "fused")) == 2

    def test_eval_geometry_mismatch_is_data_error(self, pipeline, tmp_path):
        assert run("shape", "--name", "sphere", "--dims", "8",
                   "--out", str(tmp_path / "small")) == 0
        assert run("eval", "--pred", str(pipeline / "fit" / "fitted.grid"),
                   "--gt", str(tmp_path / "small" / "shape.grid")) == 2

    def test_oversized_grid_header_is_data_error(self, pipeline, tmp_path, capsys):
        (tmp_path / "big.grid").write_bytes(b"DRC-GRID v1 uniform 100000 100000 100000 0 0 0 1 1 1 none\n"
                                            + b"\x00" * 16)
        assert run("eval", "--pred", str(tmp_path / "big.grid"),
                   "--gt", str(pipeline / "gt" / "shape.grid")) == 2
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["inf", "nan", "1e308", "-0.1"])
    def test_negative_or_non_finite_render_noise_is_error(self, pipeline, tmp_path, capsys, noise):
        assert run("render", "--grid", str(pipeline / "gt" / "shape.grid"), "--views", "1",
                   "--kind", "depth", "--noise", noise, "--size", "8",
                   "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err.startswith("error: max_noise")

    def test_non_finite_repro_noise_is_error(self, tmp_path, capsys):
        assert run("repro", "--shapes", "sphere", "--dims", "8", "--views", "2", "--size", "8",
                   "--iters", "1", "--noise", "inf", "--out", str(tmp_path / "r")) == 1
        assert capsys.readouterr().err.startswith("error: max_noise")

    @pytest.mark.parametrize("command", ["fit", "render"])
    def test_size_too_large_for_memory_is_usage_error(self, monkeypatch, tmp_path, capsys, command):
        # as numpy raises it for an array of --rays, --dims or --size cells
        def too_large(args):
            raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")
        monkeypatch.setattr(cli, f"cmd_{command}", too_large)
        argv = {"fit": ["--obs", str(tmp_path), "--rays", "100000000000"],
                "render": ["--grid", str(tmp_path / "g.grid"), "--size", "1000000"]}[command]
        assert run(command, *argv, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "745. GiB" in err[0]

    @pytest.mark.parametrize("flag, value, form", [("--elevation", "10", "LO,HI"),
                                                   ("--frustum", "1,2", "z_min,z_max,hfov"),
                                                   ("--aabb", "0,0,0,1,1", "x0,y0,z0,x1,y1,z1")])
    def test_wrong_number_count_is_usage_error(self, pipeline, tmp_path, capsys, flag, value, form):
        command = ["render", "--grid", str(pipeline / "gt" / "shape.grid"), "--size", "8"] \
            if flag == "--elevation" else ["fit", "--obs", str(pipeline / "obs"), "--dims", "16", "--iters", "1"]
        assert run(*command, f"{flag}={value}", "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err.strip() == f"usage error: {flag} wants {form}, got {value!r}"
        assert not (tmp_path / "out").exists()

    def test_gradcheck_zero_trials_is_usage_error(self):
        assert run("gradcheck", "--kind", "depth", "--trials", "0") == 1

    def test_gradcheck_passes(self, capsys):
        assert run("gradcheck", "--kind", "depth_semantics", "--trials", "5") == 0
        assert "PASS" in capsys.readouterr().out

    def test_gradcheck_failure_exits_3(self, monkeypatch, capsys):
        from drc.metrics import GradcheckReport
        import drc.cli as cli_mod

        def broken(kind, trials, seed):
            return GradcheckReport(kind, trials, 0.37, float("nan"), 1e-3, float("nan"), False)

        monkeypatch.setattr(cli_mod, "run_gradcheck", broken)
        assert run("gradcheck", "--kind", "depth", "--trials", "5") == 3
        assert "FAIL" in capsys.readouterr().out

    def test_color_render_without_aux_is_data_error(self, tmp_path):
        # write a bin grid without an aux field
        from drc.grid import BinaryGrid, save_grid, unit_cube_geometry
        geom = unit_cube_geometry((8, 8, 8))
        save_grid(tmp_path / "bare.grid",
                  BinaryGrid(geom, np.ones(geom.shape, dtype=bool)))
        assert run("render", "--grid", str(tmp_path / "bare.grid"), "--views", "1",
                   "--kind", "color", "--size", "8", "--out", str(tmp_path / "o")) == 2

    def test_semantic_render_of_color_grid_is_data_error(self, pipeline, tmp_path):
        # gt shape in the shared pipeline carries a color aux field
        assert run("render", "--grid", str(pipeline / "gt" / "shape.grid"), "--views", "1",
                   "--kind", "depth_semantics", "--size", "8",
                   "--out", str(tmp_path / "o")) == 2

    def test_noise_on_mask_render_is_usage_error(self, pipeline, tmp_path):
        assert run("render", "--grid", str(pipeline / "gt" / "shape.grid"), "--views", "1",
                   "--kind", "mask", "--noise", "0.1", "--size", "8",
                   "--out", str(tmp_path / "o")) == 1

    def test_unknown_flag_is_usage_error(self):
        assert run("shape", "--name", "sphere", "--wat", "1") == 1


class TestRenderKinds:
    @pytest.mark.parametrize("kind", ["mask", "depth_semantics", "color"])
    def test_render_all_kinds(self, pipeline, tmp_path, kind):
        out = tmp_path / kind
        if kind == "depth_semantics":
            assert run("shape", "--name", "sphere", "--dims", "16", "--aux", "semantics",
                       "--out", str(tmp_path / "gt_sem")) == 0
            grid = str(tmp_path / "gt_sem" / "shape.grid")
        else:
            grid = str(pipeline / "gt" / "shape.grid")
        assert run("render", "--grid", grid, "--views", "1",
                   "--kind", kind, "--size", "16", "--out", str(out)) == 0
        assert (out / "view_000" / "kind.txt").read_text().split()[0] == kind

    def test_semantic_fit_runs(self, pipeline, tmp_path):
        out = tmp_path / "semobs"
        assert run("shape", "--name", "sphere", "--dims", "16", "--aux", "semantics",
                   "--out", str(tmp_path / "semgt")) == 0
        assert run("render", "--grid", str(tmp_path / "semgt" / "shape.grid"), "--views", "2",
                   "--kind", "depth_semantics", "--size", "16", "--out", str(out)) == 0
        assert run("fit", "--obs", str(out), "--dims", "16", "--iters", "3",
                   "--rays", "200", "--out", str(tmp_path / "semfit")) == 0
        grid, aux, _ = load_grid(tmp_path / "semfit" / "fitted.grid")
        assert aux is not None and aux.kind == "semantics"


def test_repro_traces_each_camera_once(monkeypatch, tmp_path):
    """Both renders, three fits, two fusions and the carve of every shape
    share one trace table of every camera's pixels, traced in one call."""
    from drc import consistency, fusion, renderer

    calls = []

    def counting(trace_batch):
        def call(geometry, origins, directions):
            calls.append(len(origins))
            return trace_batch(geometry, origins, directions)
        return call

    for module in (renderer, fusion, consistency):
        monkeypatch.setattr(module, "trace_batch", counting(module.trace_batch))
    assert run("repro", "--shapes", "sphere", "--views", "2", "--size", "16", "--iters", "1",
               "--out", str(tmp_path / "repro")) == 0
    assert calls == [512]
    calls.clear()
    assert run("repro", "--shapes", "sphere,chair_like", "--views", "2", "--size", "16",
               "--iters", "1", "--out", str(tmp_path / "repro2")) == 0
    assert calls == [512]
