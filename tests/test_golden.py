"""Golden outputs of the CLI: a refactor of the filter must not move a bit.

Each case runs ``cli.main`` on a small seeded scene and compares the sha256
of the output image, the trace CSV and stdout with digests recorded before a
refactor of the code they cover: the first four before the relax filter and
its tau -> 0 baselines shared one step loop, bump-omega (bump kernel weights,
omega shift) before the response's two branches became one closed form. A
mismatch names the mode and the file that changed. The same cases spelled
as a ``--config`` file must give the same digests. The digests hold for the
numpy build the suite runs on; a numpy or BLAS upgrade that changes
rounding shows up here first.

The five trace digests were re-recorded once, with every image and stdout
digest unchanged, when the field-sized reductions (the trace's l2 norm and
energy columns, and CG's dot products) moved from BLAS to numpy's einsum
loop. OpenBLAS splits a dot product longer than about 10,000 elements over
its threads, so the summation order, and with it the last digits of the
trace, depended on the number of CPUs; einsum sums in one fixed order.
``test_outputs_do_not_depend_on_cpu_count`` keeps it that way.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relaxdiff
from relaxdiff.cli import EXIT_OK, main, save_image

from conftest import disk_image

# case -> (grey scene?, CLI flags)
CASES = {
    "relax": (False, ["--dt", "0.1", "--t-end", "0.3"]),
    "sharp-dt2": (False, ["--sigma", "0", "--dt", "2", "--t-end", "4"]),
    "catte": (True, ["--mode", "catte", "--dt", "0.1", "--t-end", "0.3"]),
    "pm": (False, ["--mode", "pm", "--dt", "0.1", "--t-end", "0.2"]),
    "bump-omega": (False, ["--kernel", "bump", "--sigma", "2", "--omega", "0.05", "--dt", "0.1", "--t-end", "0.3"]),
}

DIGESTS = {
    "relax": {
        "image": "78c4132a655024c11d413d6eda600d20fe402de00adf1005023afb40f0257165",
        "trace": "e3274d853950f84e8c6875f849759c0d724434e42f3fa78038e5af7c218ed13a",
        "stdout": "1d9f252147d64307ecb0abbcadd7ec9efeb14f94408f7a58ca7c15e4a33f8104",
    },
    "sharp-dt2": {
        "image": "03007b532ed45cc1d5620af2bfb141de3227e53a110f0b6751c06a906ba3dbf3",
        "trace": "bc9e9c375aad605d82510de9c97bda10105378f033a4914ac0d0960c225bf477",
        "stdout": "9a09a2214f11e2272adf2e56856d908cb59d4949a008b51307098f29ba032265",
    },
    "catte": {
        "image": "9fe890d2bbac139de7157647eea2b8026f2366b41bb3e0afa9ca1f9fac57daf4",
        "trace": "4f8c85ed73aebe97c97b291f368556dddf7f60ce88f4f8a7b05c575156b6ebc8",
        "stdout": "36d67ef96385744201fc4bb6f1d88028f488cf591a63499055c0fd2c8868c611",
    },
    "pm": {
        "image": "617322be36d03341579c49fa6b624315acd8f86624b05c46b2cb889f419a8d4c",
        "trace": "ed7f31dd9fc3f2a2aa836131aed99b7070e023872eeba4ff890704c191a0e2a3",
        "stdout": "07ce0b99d9c1aa31df3b9c5c8b4cd2728df41d5e5ccb8bbc6cf71e1c6ab6c0a4",
    },
    "bump-omega": {
        "image": "4420e4b71891d9f2a6f1e2e08c036e9dd93a63e9404901ad4abd6d3c87cc471d",
        "trace": "5a8acc8f388a5cfc8ba154021b85c1f5fd9c855075baa762f2db9370c0e9986f",
        "stdout": "d63082d6a8446a76261cd641e6c1efc9a56472a10e5dfb4e44e6ea96b1af5975",
    },
}


def _scene(tmp_path, grey: bool):
    clean, _ = disk_image(n=20, radius=6.0)
    if grey:
        clean = clean[..., :1]
    noisy = clean + 0.05 * np.random.default_rng(17).standard_normal(clean.shape)
    ext = ".pgm" if grey else ".ppm"
    save_image(noisy, str(tmp_path / f"noisy{ext}"))
    save_image(clean, str(tmp_path / f"clean{ext}"))
    return tmp_path / f"noisy{ext}", tmp_path / f"clean{ext}", ext


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(case: str, tmp_path: Path, as_config: bool = False) -> dict:
    """sha256 of the image, trace CSV and stdout of one case run in-process.

    With as_config every flag goes into a `--config` file instead.
    """
    grey, flags = CASES[case]
    noisy, clean, ext = _scene(tmp_path, grey)
    out, trace = tmp_path / f"out{ext}", tmp_path / "trace.csv"
    argv = [
        "--input", str(noisy), "--reference", str(clean),
        "--output", str(out), "--trace", str(trace), *flags,
    ]
    if as_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{flag[2:]} = {value}\n" for flag, value in zip(argv[::2], argv[1::2])))
        argv = ["--config", str(cfg)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == EXIT_OK, f"{case}: exit code {code}"
    return {
        "image": _sha(out.read_bytes()),
        "trace": _sha(trace.read_bytes()),
        "stdout": _sha(stdout.getvalue().encode()),
    }


@pytest.mark.filterwarnings("ignore:unmollified scalar")
@pytest.mark.parametrize("case", list(CASES))
def test_cli_outputs_unchanged(case, tmp_path):
    got = digests(case, tmp_path)
    for name, digest in DIGESTS[case].items():
        assert got[name] == digest, f"mode {case}: {name} changed"


@pytest.mark.filterwarnings("ignore:unmollified scalar")
@pytest.mark.parametrize("case", list(CASES))
def test_config_file_gives_the_flags_outputs(case, tmp_path):
    got = digests(case, tmp_path, as_config=True)
    for name, digest in DIGESTS[case].items():
        assert got[name] == digest, f"mode {case} from a config file: {name} differs"


# Runs every case in a fresh interpreter; argv[1] == "1" pins the process to
# one CPU before relaxdiff (and so the band pool) is imported.
_CHILD = """
import json, os, sys, tempfile
from pathlib import Path
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path[:0] = sys.argv[2:]
import test_golden
with tempfile.TemporaryDirectory() as tmp:
    result = {}
    for case in test_golden.CASES:
        (Path(tmp) / case).mkdir()
        result[case] = test_golden.digests(case, Path(tmp) / case)
print(json.dumps(result))
"""


def _child_digests(one_cpu: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if one_cpu:
        env["OPENBLAS_NUM_THREADS"] = "1"
    src = str(Path(relaxdiff.__file__).resolve().parent.parent)
    argv = [sys.executable, "-c", _CHILD, "1" if one_cpu else "0", str(Path(__file__).resolve().parent), src]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_outputs_do_not_depend_on_cpu_count():
    """One CPU and one BLAS thread give the bits of the unrestricted process."""
    pinned, free = _child_digests(one_cpu=True), _child_digests(one_cpu=False)
    for case in CASES:
        for name in ("image", "trace", "stdout"):
            assert pinned[case][name] == free[case][name], f"mode {case}: {name} depends on the CPU count"
