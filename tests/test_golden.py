"""Golden outputs of the CLI: a refactor of the filter must not move a bit.

Each case runs ``cli.main`` on a small seeded scene and compares the sha256
of the output image, the trace CSV and stdout with digests recorded before a
refactor of the code they cover: the first four before the relax filter and
its tau -> 0 baselines shared one step loop, bump-omega (bump kernel weights,
omega shift) before the response's two branches became one closed form. A
mismatch names the mode and the file that changed. The digests
hold for the numpy build the suite runs on; a numpy or BLAS upgrade that
changes rounding shows up here first.
"""

import hashlib

import numpy as np
import pytest

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
        "trace": "ee0e247dd48c3efff71fc43097c842a77961d9507fe9c0a949f84695dc47d8ef",
        "stdout": "1d9f252147d64307ecb0abbcadd7ec9efeb14f94408f7a58ca7c15e4a33f8104",
    },
    "sharp-dt2": {
        "image": "03007b532ed45cc1d5620af2bfb141de3227e53a110f0b6751c06a906ba3dbf3",
        "trace": "223f70e64b43eded1729c00833c8be92119f6c55777329de7cba6398acce7d6e",
        "stdout": "9a09a2214f11e2272adf2e56856d908cb59d4949a008b51307098f29ba032265",
    },
    "catte": {
        "image": "9fe890d2bbac139de7157647eea2b8026f2366b41bb3e0afa9ca1f9fac57daf4",
        "trace": "67bff14ec4fccab6ca26390656ddfe741dd375230457b081e65565510fff2e1e",
        "stdout": "36d67ef96385744201fc4bb6f1d88028f488cf591a63499055c0fd2c8868c611",
    },
    "pm": {
        "image": "617322be36d03341579c49fa6b624315acd8f86624b05c46b2cb889f419a8d4c",
        "trace": "c44676c50c5f570ebcb4108357a82a5ff5b305affdb692d1ceee65a38a7763c9",
        "stdout": "07ce0b99d9c1aa31df3b9c5c8b4cd2728df41d5e5ccb8bbc6cf71e1c6ab6c0a4",
    },
    "bump-omega": {
        "image": "4420e4b71891d9f2a6f1e2e08c036e9dd93a63e9404901ad4abd6d3c87cc471d",
        "trace": "1cf6872ac6a56960278bf2a87dcd525fb488a3d77c9e18dac79ac865e1539083",
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


@pytest.mark.filterwarnings("ignore:unmollified scalar")
@pytest.mark.parametrize("case", list(CASES))
def test_cli_outputs_unchanged(case, tmp_path, capsys):
    grey, flags = CASES[case]
    noisy, clean, ext = _scene(tmp_path, grey)
    out, trace = tmp_path / f"out{ext}", tmp_path / "trace.csv"
    capsys.readouterr()
    code = main([
        "--input", str(noisy), "--reference", str(clean),
        "--output", str(out), "--trace", str(trace), *flags,
    ])
    assert code == EXIT_OK, f"{case}: exit code {code}"
    got = {
        "image": _sha(out.read_bytes()),
        "trace": _sha(trace.read_bytes()),
        "stdout": _sha(capsys.readouterr().out.encode()),
    }
    for name, digest in DIGESTS[case].items():
        assert got[name] == digest, f"mode {case}: {name} changed"
