import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relaxdiff
import relaxdiff.cli as cli_mod
from relaxdiff.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    _build_parser,
    build_config,
    load_image,
    main,
    parse_config_file,
    psnr,
    save_image,
)
from relaxdiff.errors import (
    MalformedHeaderError,
    MissingFileError,
    ParameterError,
    TruncatedPayloadError,
)

from conftest import disk_image


class TestLoadImage:
    def test_white_2x2_p6(self, tmp_path):
        path = tmp_path / "white.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\xff" * 12)
        img = load_image(str(path))
        assert img.shape == (2, 2, 3) and img.dtype == np.uint8
        np.testing.assert_array_equal(img, 255)

    def test_p5_byte_mapping(self, tmp_path):
        path = tmp_path / "gray.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        img = load_image(str(path))
        assert img.dtype == np.uint8 and not img.flags.writeable
        np.testing.assert_array_equal(img, np.array([0, 128, 255, 64]).reshape(2, 2, 1))

    def test_header_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5 # magic\n# a comment line\n2 1 # size\n255\n" + bytes([7, 9]))
        img = load_image(str(path))
        assert img.shape == (1, 2, 1)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + b"\x00" * 9)  # 3 pixels instead of 16
        with pytest.raises(TruncatedPayloadError):
            load_image(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_image(str(tmp_path / "absent.ppm"))

    def test_malformed_header(self, tmp_path):
        bad_magic = tmp_path / "bad.ppm"
        bad_magic.write_bytes(b"P7\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(MalformedHeaderError):
            load_image(str(bad_magic))
        bad_maxval = tmp_path / "max.ppm"
        bad_maxval.write_bytes(b"P6\n2 2\n65535\n" + b"\x00" * 24)
        with pytest.raises(MalformedHeaderError):
            load_image(str(bad_maxval))


class TestSaveImage:
    def test_half_rounds_up(self, tmp_path):
        path = tmp_path / "half.pgm"
        save_image(np.full((2, 2, 1), 0.5), str(path))
        payload = path.read_bytes().split(b"255\n", 1)[1]
        assert payload == bytes([128] * 4)  # round(127.5) half-up

    def test_clamps_out_of_range(self, tmp_path):
        path = tmp_path / "clamp.pgm"
        save_image(np.array([[[1.2], [-0.3]]]), str(path))
        payload = path.read_bytes().split(b"255\n", 1)[1]
        assert payload == bytes([255, 0])

    def test_roundtrip_idempotent(self, tmp_path, rng):
        first = tmp_path / "a.ppm"
        second = tmp_path / "b.ppm"
        save_image(rng.uniform(0, 1, size=(7, 5, 3)), str(first))
        save_image(load_image(str(first)) / 255.0, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_rejects_nonfinite(self, tmp_path):
        field = np.full((2, 2, 1), np.nan)
        with pytest.raises(ParameterError):
            save_image(field, str(tmp_path / "nan.pgm"))


class TestPsnr:
    def test_identical_cap(self, rng):
        a = rng.uniform(0, 1, size=(4, 4, 3))
        assert psnr(a, a) == 99.0

    def test_uniform_difference(self):
        a = np.zeros((8, 8, 1))
        b = np.full((8, 8, 1), 0.1)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-12)

    def test_symmetric(self, rng):
        a = rng.uniform(0, 1, size=(5, 5, 3))
        b = rng.uniform(0, 1, size=(5, 5, 3))
        assert psnr(a, b) == psnr(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            psnr(np.zeros((2, 2, 1)), np.zeros((2, 3, 1)))


class TestConfig:
    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("tau = 0.9\nseed = 4  # comment\nmode = catte\nkernel = bump\n")
        cfg = build_config(
            ["--config", str(cfg_file), "--tau", "0.25", "--input", "a.ppm", "--output", "b.ppm"]
        )
        assert cfg.tau == 0.25  # flag wins
        assert cfg.seed == 4
        assert cfg.mode == "catte"
        assert cfg.kernel == "bump"

    def test_keys_are_flag_names(self, tmp_path):
        img, _ = disk_image(n=16, radius=5.0)
        save_image(img, str(tmp_path / "in.ppm"))
        cfg_file = tmp_path / "run.cfg"
        # comment-only and blank lines are skipped
        cfg_file.write_text(
            f"# a comment-only line\n\n   \ninput = {tmp_path / 'in.ppm'}\n  # indented\n"
            f"output = {tmp_path / 'out.ppm'}\ntrace = {tmp_path / 'trace.csv'}\nt-end = 0.2\n"
        )
        assert main(["--config", str(cfg_file)]) == EXIT_OK
        assert (tmp_path / "out.ppm").exists() and (tmp_path / "trace.csv").exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        for key in ("bogus", "config", "help"):
            cfg_file.write_text(f"tau = 1\n{key} = 1\n")
            with pytest.raises(ParameterError, match=f"run.cfg:2: unknown config key '{key}'"):
                parse_config_file(str(cfg_file))

    def test_bad_line_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("tau 0.5\n")
        with pytest.raises(ParameterError):
            parse_config_file(str(cfg_file))


class TestMainPipeline:
    def write_disk(self, tmp_path, noisy=False):
        img, _ = disk_image(n=32, radius=10.0)
        path = tmp_path / "disk.ppm"
        save_image(img, str(path))
        return path

    def test_identity_pipeline_byte_exact(self, tmp_path, capsys):
        # Every 8-bit level, RGB and grey, goes to [-1, 1] and back with no
        # filter step in between.
        for magic, channels in ((b"P6", 3), (b"P5", 1)):
            inp = tmp_path / f"levels{channels}.pnm"
            levels = (np.arange(16 * 16 * channels) % 256).astype(np.uint8)
            inp.write_bytes(magic + b"\n16 16\n255\n" + levels.tobytes())
            out = tmp_path / f"out{channels}.pnm"
            code = main([
                "--input", str(inp), "--output", str(out),
                "--noise-std", "0", "--t-end", "0",
            ])
            assert code == EXIT_OK
            assert out.read_bytes() == inp.read_bytes()
            assert capsys.readouterr().out == "psnr_vs_input=99.000000\n"

    def test_determinism_byte_identical(self, tmp_path):
        inp = self.write_disk(tmp_path)
        args = lambda tag: [
            "--input", str(inp), "--output", str(tmp_path / f"o{tag}.ppm"),
            "--trace", str(tmp_path / f"t{tag}.csv"),
            "--noise-std", "0.1", "--seed", "11",
            "--dt", "0.25", "--t-end", "1.0",
        ]
        assert main(args("a")) == EXIT_OK
        assert main(args("b")) == EXIT_OK
        assert (tmp_path / "oa.ppm").read_bytes() == (tmp_path / "ob.ppm").read_bytes()
        assert (tmp_path / "ta.csv").read_bytes() == (tmp_path / "tb.csv").read_bytes()

    def test_denoises_and_reports_psnr(self, tmp_path, capsys):
        img, _ = disk_image(n=32, radius=10.0)
        clean = tmp_path / "clean.ppm"
        save_image(img, str(clean))
        out = tmp_path / "out.ppm"
        code = main([
            "--input", str(clean), "--output", str(out), "--reference", str(clean),
            "--noise-std", "0.1", "--seed", "2", "--dt", "0.2", "--t-end", "1.0",
        ])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert any(l.startswith("psnr_vs_input=") for l in lines)
        ref = [l for l in lines if l.startswith("psnr_vs_reference=")]
        assert ref and float(ref[0].split("=")[1]) > 20.0

    def test_loads_each_image_file_once(self, tmp_path, monkeypatch):
        # The images stay 8-bit samples through the run; the pipeline forms
        # v / 255 where it needs floats instead of reading a file again.
        img, _ = disk_image(n=16, radius=5.0)
        clean, noisy = tmp_path / "clean.ppm", tmp_path / "noisy.ppm"
        save_image(img, str(clean))
        save_image(img + 0.05 * np.random.default_rng(4).standard_normal(img.shape), str(noisy))
        loads = []
        monkeypatch.setattr(cli_mod, "load_image", lambda path: loads.append(path) or load_image(path))
        argv = ["--input", str(noisy), "--reference", str(clean), "--output", str(tmp_path / "o.ppm"), "--t-end", "0.2"]
        assert main(argv) == EXIT_OK
        assert loads == [str(noisy), str(clean)]

    @pytest.mark.filterwarnings("ignore:unmollified scalar")
    def test_modes_catte_and_pm(self, tmp_path):
        inp = self.write_disk(tmp_path)
        for mode in ("catte", "pm"):
            out = tmp_path / f"{mode}.ppm"
            code = main([
                "--input", str(inp), "--output", str(out), "--mode", mode,
                "--dt", "0.1", "--t-end", "0.3",
            ])
            assert code == EXIT_OK and out.exists()

    @pytest.mark.filterwarnings("ignore:unmollified scalar")
    def test_pm_runs_unmollified(self, tmp_path):
        # pm mode drops the mollifier after the flags are checked, so any
        # valid --sigma gives the bytes of the default one.
        inp = self.write_disk(tmp_path)
        for tag, flags in (("default", []), ("sigma3", ["--sigma", "3"]), ("bump", ["--kernel", "bump", "--sigma", "2"])):
            assert main([
                "--input", str(inp), "--output", str(tmp_path / f"{tag}.ppm"), "--trace", str(tmp_path / f"{tag}.csv"),
                "--mode", "pm", "--noise-std", "0.1", "--t-end", "0.3", *flags,
            ]) == EXIT_OK
        for tag in ("sigma3", "bump"):
            for ext in ("ppm", "csv"):
                assert (tmp_path / f"{tag}.{ext}").read_bytes() == (tmp_path / f"default.{ext}").read_bytes(), (tag, ext)

    def test_floor_checks_hold_at_large_scale(self, tmp_path, capsys):
        # The floor checks allow the rounding of eigenvalues at H's scale.
        # With an absolute slack alone these runs exited 2 (min eig 3000 <
        # alpha 3000, on the CLI's own init_H0) and 5 (min eig
        # 1.81269246922e+19 < predicted 1.81269246922e+19), on 12 x 12 images
        # of uniform random pixels.
        for seed, flags in (
            (1, ["--alpha", "3000", "--noise-std", "0"]),
            (0, ["--noise-std", "0.5", "--omega", "1e20"]),
            (0, ["--noise-std", "0.5", "--omega", "1e15", "--dt", "2"]),
        ):
            inp = tmp_path / f"uniform{seed}.ppm"
            save_image(np.random.default_rng(seed).uniform(0, 1, (12, 12, 3)), str(inp))
            assert main(["--input", str(inp), "--output", str(tmp_path / "o.ppm"), *flags]) == EXIT_OK, flags
            assert capsys.readouterr().err == ""

    def test_solver_and_invariant_exit_codes(self, tmp_path, monkeypatch):
        import relaxdiff.cli as cli_mod
        from relaxdiff.errors import InvariantViolation, SolverError

        inp = self.write_disk(tmp_path)
        out = tmp_path / "o.ppm"
        args = ["--input", str(inp), "--output", str(out)]

        def raise_solver(*a, **kw):
            raise SolverError("stalled", residual=0.5)

        monkeypatch.setattr(cli_mod, "run", raise_solver)
        assert main(args) == 4

        def raise_invariant(*a, **kw):
            raise InvariantViolation("floor broken")

        monkeypatch.setattr(cli_mod, "run", raise_invariant)
        assert main(args) == EXIT_INVARIANT

    def test_exit_codes(self, tmp_path, capsys):
        inp = self.write_disk(tmp_path)
        out = tmp_path / "o.ppm"
        # config error: tau = 0 in relax mode
        assert main(["--input", str(inp), "--output", str(out), "--tau", "0"]) == EXIT_CONFIG
        # config error: catte without mollification, or with a sub-pixel
        # bandwidth whose kernel is the identity; the baseline rejects it
        for sigma in ("0", "0.3"):
            assert main([
                "--input", str(inp), "--output", str(out), "--mode", "catte", "--sigma", sigma,
            ]) == EXIT_CONFIG
            assert "error [filtering]: the mollified baseline requires sigma >= 0.5" in capsys.readouterr().err
        # config error: a config file that is not ASCII or holds a value that
        # does not parse, a negative noise seed (with or without noise) or
        # std, a step count that overflows or exceeds the cap, a baseline
        # tau <= 0, a bump kernel that is the identity, flags that do not
        # parse, and the removed intensity-range flags and config key
        cfg_file = tmp_path / "accent.cfg"
        cfg_file.write_bytes("tau = 0.5  # r\u00e9glage\n".encode("utf-8"))
        bad_value = tmp_path / "bad-value.cfg"
        bad_value.write_text("dt = 0.1\ntau = abc\n")
        bad_mode = tmp_path / "bad-mode.cfg"
        bad_mode.write_text("mode = bogus\n")
        range_key = tmp_path / "range.cfg"
        range_key.write_text("lo = 0\n")
        for flags, message in (
            (["--config", str(cfg_file)], "accent.cfg"),
            (["--config", str(bad_value)], f"config file {bad_value}: argument --tau: invalid float value: 'abc'"),
            (["--config", str(bad_mode)], f"config file {bad_mode}: argument --mode: invalid choice: 'bogus'"),
            (["--seed", "-1", "--noise-std", "0.1"], "seed"),
            (["--seed", "-1"], "error [configuration]: noise seed must be >= 0"),
            (["--noise-std", "-0.1"], "error [configuration]: noise std must be finite and >= 0"),
            (["--dt", "1e-320"], "t_end / dt"),
            (["--dt", "1e-300"], "t_end / dt"),
            (["--omega", "-1e-05"], "error [configuration]: omega must be >= 0"),
            (["--t-end", "-inf"], "error [configuration]: t_end must be finite"),
            (["--tau", "-1E+2"], "error [configuration]: tau must be > 0"),
            (["--sigma", "1e300"], "error [configuration]: kernel sigma must lie in [0.5, 10000]"),
            (["--mode", "catte", "--tau", "-3", "--t-end", "0.2"], "error [configuration]: tau must be > 0"),
            (["--mode", "pm", "--tau", "0"], "error [configuration]: tau must be > 0"),
            (["--mode", "pm", "--sigma", "-1"], "error [configuration]: sigma must be >= 0"),
            (["--mode", "pm", "--kernel", "bump"], "error [configuration]: the compact_bump kernel needs sigma > 1"),
            (["--mode", "catte", "--kernel", "bump", "--sigma", "1"], "error [configuration]: the compact_bump kernel needs sigma > 1"),
            (["--tau", "abc"], "error [configuration]: argument --tau: invalid float value: 'abc'"),
            (["--mode", "bogus"], "argument --mode: invalid choice: 'bogus'"),
            (["--bogus-flag", "1"], "unrecognized arguments: --bogus-flag 1"),
            (["--lo", "0"], "error [configuration]: unrecognized arguments: --lo 0"),
            (["--hi=1"], "error [configuration]: unrecognized arguments: --hi=1"),
            (["--config", str(range_key)], f"{range_key}:1: unknown config key 'lo'"),
        ):
            assert main(["--input", str(inp), "--output", str(out), *flags]) == EXIT_CONFIG, flags
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err, err
            assert not out.exists(), flags
        # io error: missing input
        assert main(["--input", str(tmp_path / "nope.ppm"), "--output", str(out)]) == EXIT_IO
        # io error: truncated payload
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\n4 4\n255\n" + b"\x00" * 9)
        assert main(["--input", str(bad), "--output", str(out)]) == EXIT_IO
        # io error: a trace file that cannot be written, which leaves no image
        trace = tmp_path / "no-such-dir" / "t.csv"
        assert main(["--input", str(inp), "--output", str(out), "--trace", str(trace), "--t-end", "0.1"]) == EXIT_IO
        err = capsys.readouterr().err
        assert "error [output]: cannot write trace file" in err and "Traceback" not in err, err
        assert not out.exists()
        # io error: a directory as the input image
        assert main(["--input", str(tmp_path), "--output", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"error [image loading]: cannot read image file: {tmp_path}" in err and "Traceback" not in err, err
        # io error: an output image in a missing directory, or one that is a
        # directory; the trace, written first, is there
        (tmp_path / "out-dir").mkdir()
        for bad_out in (tmp_path / "no-such-dir" / "o.ppm", tmp_path / "out-dir"):
            trace = tmp_path / f"{bad_out.name}.csv"
            assert main(["--input", str(inp), "--output", str(bad_out), "--trace", str(trace), "--t-end", "0.1"]) == EXIT_IO
            err = capsys.readouterr().err
            assert f"error [output]: cannot write image file: {bad_out}" in err and "Traceback" not in err, err
            assert len(trace.read_text().splitlines()) == 2
        # missing required flags
        assert main(["--output", str(out)]) == EXIT_CONFIG
        # config error: non-finite parameters
        for flag in ("--sigma", "--t-end", "--threshold-s"):
            assert main(["--input", str(inp), "--output", str(out), flag, "nan"]) == EXIT_CONFIG
        # --help prints the usage and exits 0
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == EXIT_OK and "--input" in capsys.readouterr().out

    def test_image_errors_stop_before_the_filter(self, tmp_path, capsys):
        inp = self.write_disk(tmp_path)
        one_row = tmp_path / "row.ppm"
        save_image(np.full((1, 8, 3), 0.5), str(one_row))
        grey = tmp_path / "grey.pgm"
        save_image(np.full((32, 32, 1), 0.5), str(grey))
        out = tmp_path / "o.ppm"
        for flags, message in (
            (["--input", str(one_row)], "all grid dims must be >= 2"),
            (["--input", str(inp), "--reference", str(grey)], "reference shape (32, 32, 1) != input shape (32, 32, 3)"),
        ):
            assert main([*flags, "--output", str(out)]) == EXIT_CONFIG, flags
            assert f"error [image loading]: {message}" in capsys.readouterr().err
            assert not out.exists()

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(relaxdiff.__file__).resolve().parent.parent))
        argv = [sys.executable, "-m", "relaxdiff", "--input", str(tmp_path / "nope.ppm"), "--output", str(tmp_path / "o.ppm")]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_IO and "no such image file" in proc.stderr

    def test_huge_noise_baseline_prints_nothing(self, tmp_path):
        # Noise of 1e154 squares past the largest float over the 24^2 image.
        # The run once exited 0 having filtered nothing: the CG's stop test
        # passed at once against an infinite norm. Now it is rejected before
        # the filter runs, with one line on stderr and nothing from numpy.
        img, _ = disk_image(n=24, radius=8.0)
        inp, out = tmp_path / "disk.pgm", tmp_path / "o.pgm"
        save_image(img[..., :1], str(inp))
        env = dict(os.environ, PYTHONPATH=str(Path(relaxdiff.__file__).resolve().parent.parent))
        # Noise of 1.7e308 overflows the draws themselves to inf.
        for std, error in (
            ("1e154", "u0 is too large: its squared L2 norm overflows"),
            ("1.7e308", "u0 contains NaN or inf"),
        ):
            argv = [
                sys.executable, "-m", "relaxdiff", "--input", str(inp), "--output", str(out),
                "--mode", "catte", "--noise-std", std, "--t-end", "0.3",
            ]
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
            assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_CONFIG, "", f"error [filtering]: {error}\n")
            assert not out.exists()

    def test_import_loads_numpy_only(self):
        env = dict(os.environ, PYTHONPATH=str(Path(relaxdiff.__file__).resolve().parent.parent))
        code = "import sys, relaxdiff.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc/self/task")
    @pytest.mark.parametrize("case", ["fresh", "preset", "numpy first"])
    def test_import_starts_no_blas_thread_and_keeps_the_environment(self, case):
        # A fresh import loads numpy with one OpenBLAS thread and leaves
        # os.environ as it found it; a preset thread count, or numpy loaded
        # before the package, is left alone: the environment is not written.
        code = """
import json, os, sys
if sys.argv[1] != "fresh":
    writes = []
    class Recording(dict):
        def __setitem__(self, key, value):
            writes.append(key)
            super().__setitem__(key, value)
        def __delitem__(self, key):
            writes.append(key)
            super().__delitem__(key)
    os.environ = Recording(os.environ)
if sys.argv[1] == "numpy first":
    import numpy
before = dict(os.environ)
import relaxdiff.cli
after = dict(os.environ)
print(json.dumps({"threads": len(os.listdir("/proc/self/task")), "kept": after == before,
                  "writes": writes if sys.argv[1] != "fresh" else None, "blas": after.get("OPENBLAS_NUM_THREADS")}))
"""
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(relaxdiff.__file__).resolve().parent.parent)
        if case == "preset":
            env["OPENBLAS_NUM_THREADS"] = "2"
        proc = subprocess.run([sys.executable, "-c", code, case], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert seen["kept"]
        if case == "fresh":
            assert seen["threads"] == 1 and seen["blas"] is None
        else:
            assert seen["writes"] == [] and seen["blas"] == ("2" if case == "preset" else None)

    def test_bump_kernel_mode(self, tmp_path):
        inp = self.write_disk(tmp_path)
        out = tmp_path / "bump.ppm"
        code = main([
            "--input", str(inp), "--output", str(out),
            "--kernel", "bump", "--sigma", "2.0", "--dt", "0.2", "--t-end", "0.4",
        ])
        assert code == EXIT_OK and out.exists()


def test_readme_flags_paragraph_names_every_flag():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.search(r"^Flags: (.*?)\.\s", readme, re.M | re.S).group(1)
    named = set(re.findall(r"`(--[\w-]+)", listed))
    options = {opt for action in _build_parser()._actions for opt in action.option_strings}
    assert named == options - {"-h", "--help"}
