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

A second re-record changed the scheme on purpose, with two changes that
were measured one at a time:
- every CG solve now ends by putting back the channel means its updates
  lost to rounding. That moved the trace digest of all five cases (the mass
  columns' last digits, and what follows from them) and no image or stdout
  digest;
- the half-step solve stops at a relative residual of 1e-4 dt^2 (capped at
  1e-3) instead of cg_tol. That moved the trace digests of relax, sharp-dt2
  and bump-omega, and the image and stdout digests of sharp-dt2, whose
  psnr_vs_reference went 26.550024 -> 26.550110. catte and pm have no half
  solve and did not move with it.

A third re-record moved the five trace digests and no image or stdout
digest, when the sums went into the order the component-first storage
gives them. Its two changes were measured one at a time:
- the energy sums ||H - F(0)||^2 one entry plane of H at a time instead of
  one cell at a time. That moved the energy column, and so the trace digest,
  of all five cases;
- the operator apply and D:D sum their terms in index order instead of the
  even terms, then the odd ones, then the two sums. That moved the last
  digits of the l2 norm, mass, energy and min_eig_H columns of relax,
  sharp-dt2 and bump-omega. catte, whose grey 2 x 2 tensors sum two terms
  the same way in either order, and pm did not move with it.

A fourth re-record followed the default cg_tol of the main and baseline
solves, which went from 1e-10 to 1e-8. It moved the five trace digests and
no image or stdout digest, so DIGESTS takes its image and stdout digests
from DIGESTS_1E10. Per case, the cg_iters column fell and the l2 norm,
energy and min_eig_H columns moved in their last digits (relative 4e-9 or
less), the mass columns in the last bit or two:
- relax: cg_iters 9, 9, 10 -> 7, 7, 7;
- sharp-dt2: 43, 50 -> 34, 40 (its half solves stop at 4e-4 either way);
- catte: 12, 12, 12 -> 10, 10, 9; its min_eig_H column then held
  rounding around the response's zero eigenvalue, about -1e-16, and moved
  there (the fifth re-record below made it exact); grey mass is summed
  pairwise and did not move;
- pm: 10, 10 -> 8, 8;
- bump-omega: 9, 9, 10 -> 7, 7, 8.
The digests of before, DIGESTS_1E10 and H_DIGESTS_1E10, stay as the record
of ``--cg-tol 1e-10``: rerun with it, as a flag or in a config file, every
case gives them back bit for bit, which pins that only the default moved.

A fifth re-record moved catte's trace digest alone, in TRACE_DIGESTS and in
DIGESTS_1E10, when the no-relaxation baselines took the smallest eigenvalue
of H from the response's closed form instead of diagonalising it. Only the
min_eig_H column moved: at the default cg_tol from -1.32e-16, -1.47e-16 and
-1.94e-16, at 1e-10 from -1.32e-16, -1.94e-16 and -1.39e-16, to exactly 0
in every row, the projection response's zero eigenvalue. pm's closed form
gives the diagonal's own bits, so its digests did not move, and no image or
stdout digest moved.

The CLI never returns H, so ``test_H_unchanged`` pins it apart: the sha256
of ``run()``'s final H and of its history of H (H0, then H at every step
node of ``trajectory()``), both unpacked to the full-square layout, and the
exact value of ``memory_form_check``, on the 64 x 64 RGB scene of the
memory tests. They were recorded before H was held as its packed triangle
inside the step loop; H_DIGESTS is their re-record at the default cg_tol of
1e-8, where all three moved, and H_DIGESTS_1E10 holds them at 1e-10.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import relaxdiff
from relaxdiff.cli import EXIT_OK, main, save_image
from relaxdiff.initial import init_H0
from relaxdiff.integrate import FilterParams, memory_form_check, run
from relaxdiff.tensors import unpack

from conftest import disk_image, rgb_scene, step_nodes

# case -> (grey scene?, CLI flags)
CASES = {
    "relax": (False, ["--dt", "0.1", "--t-end", "0.3"]),
    "sharp-dt2": (False, ["--sigma", "0", "--dt", "2", "--t-end", "4"]),
    "catte": (True, ["--mode", "catte", "--dt", "0.1", "--t-end", "0.3"]),
    "pm": (False, ["--mode", "pm", "--dt", "0.1", "--t-end", "0.2"]),
    "bump-omega": (False, ["--kernel", "bump", "--sigma", "2", "--omega", "0.05", "--dt", "0.1", "--t-end", "0.3"]),
}

# At cg_tol 1e-10, the default before 1e-8.
DIGESTS_1E10 = {
    "relax": {
        "image": "78c4132a655024c11d413d6eda600d20fe402de00adf1005023afb40f0257165",
        "trace": "a4469d903a323eb23de8255685eba83d8c997bf106269d7bdd70f313e757de2b",
        "stdout": "1d9f252147d64307ecb0abbcadd7ec9efeb14f94408f7a58ca7c15e4a33f8104",
    },
    "sharp-dt2": {
        "image": "7e9ddf04f3b4d01e57433a544379ba0c6fcc8910c4ee78d1ccf7f84a33e54385",
        "trace": "bc8c74c108dbe084f9487a464f2d31cb290e514c2ec5aedb28321101c71bbebb",
        "stdout": "b171aafaf7170b0143ab2224b084c2f89a81f8f135b5c3d330ec362a46c94d75",
    },
    "catte": {
        "image": "9fe890d2bbac139de7157647eea2b8026f2366b41bb3e0afa9ca1f9fac57daf4",
        "trace": "14e566823fe9563cd82297e881182bd21cdbf7d1f59f5fee3bc6710f6c85c6b2",
        "stdout": "36d67ef96385744201fc4bb6f1d88028f488cf591a63499055c0fd2c8868c611",
    },
    "pm": {
        "image": "617322be36d03341579c49fa6b624315acd8f86624b05c46b2cb889f419a8d4c",
        "trace": "ca30517aa8e29af84a708d8d41c5c2d424187e05e697a68155efc87972b2dc42",
        "stdout": "07ce0b99d9c1aa31df3b9c5c8b4cd2728df41d5e5ccb8bbc6cf71e1c6ab6c0a4",
    },
    "bump-omega": {
        "image": "4420e4b71891d9f2a6f1e2e08c036e9dd93a63e9404901ad4abd6d3c87cc471d",
        "trace": "8032cded4aee7705fbac793396587781269c3291c53bbea0f3ee23f32dbfc72a",
        "stdout": "d63082d6a8446a76261cd641e6c1efc9a56472a10e5dfb4e44e6ea96b1af5975",
    },
}

# The default cg_tol moved only the trace digests.
TRACE_DIGESTS = {
    "relax": "fd52108b9ade8792543c3bc2ca638b47a8e0716fb1c0e67282481d96375acafd",
    "sharp-dt2": "1cdc923118d9e3a5e8cbb3e534a5b93c632535e20bbdfe1dc6ea97f3da30b41c",
    "catte": "ab54960e8f33281b481bc550c4fedfa73c79e65c5c127bb31a6e14f3e008e276",
    "pm": "3519134755f632ac806b64f27eb91c3801e8c12e357905859b008698e146c8e1",
    "bump-omega": "4adfb8d059acea1bd5f498e8edc35c740ddf061a79d0df0965db49b3166dec19",
}
DIGESTS = {case: dict(old, trace=TRACE_DIGESTS[case]) for case, old in DIGESTS_1E10.items()}

# run() on rgb_scene(), t_end 0.3 at the default dt 0.1 (three steps).
H_DIGESTS = {
    "final": "bd9485733e51d1436a093b600f2f4722fbde136fcb8dbbb17634eb3d78ac42c8",
    "history": "5eca105fc3c6432496028ada158803ecbdc1ad0f20e7f115bd3f1c1d7b069a31",
    "memory_form_check": "0x1.c272328a94459p-6",
}
H_DIGESTS_1E10 = {
    "final": "0bdd8f1730d5d3c5d584c37168e20cc2b0f85d9b675d025e2f235bcb3237e253",
    "history": "f003b09002f357a56c4eb887d974359a988ebc97889844525e0a187bf1edfdbc",
    "memory_form_check": "0x1.c272328cc1ebdp-6",
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


def digests(case: str, tmp_path: Path, as_config: bool = False, extra: tuple[str, ...] = ()) -> dict:
    """sha256 of the image, trace CSV and stdout of one case run in-process.

    extra holds more flag/value pairs. With as_config every flag goes into a
    `--config` file instead.
    """
    grey, flags = CASES[case]
    noisy, clean, ext = _scene(tmp_path, grey)
    out, trace = tmp_path / f"out{ext}", tmp_path / "trace.csv"
    argv = [
        "--input", str(noisy), "--reference", str(clean),
        "--output", str(out), "--trace", str(trace), *flags, *extra,
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


@pytest.mark.filterwarnings("ignore:unmollified scalar")
@pytest.mark.parametrize("as_config", [False, True], ids=["flags", "config"])
@pytest.mark.parametrize("case", list(CASES))
def test_cg_tol_1e10_gives_the_former_digests(case, as_config, tmp_path):
    got = digests(case, tmp_path, as_config=as_config, extra=("--cg-tol", "1e-10"))
    for name, digest in DIGESTS_1E10[case].items():
        assert got[name] == digest, f"mode {case} at --cg-tol 1e-10: {name} changed"


def _check_H(p: FilterParams, expected: dict) -> None:
    u0, grid = rgb_scene()
    h0 = init_H0(u0, grid, window=5, alpha=0.1)
    state, _ = run(u0, h0, p, grid)
    _, _, hs = step_nodes(u0, h0, p, grid)
    kd = grid.channels * grid.ndim
    final = unpack(state.H)
    assert final.shape == (kd, kd) + grid.dims and len(hs) == 4
    assert _sha(final.tobytes()) == expected["final"], "final H changed"
    history = hashlib.sha256()
    for h in hs:
        h = unpack(h)
        assert h.shape == final.shape
        history.update(h.tobytes())
    assert history.hexdigest() == expected["history"], "history of H changed"
    assert memory_form_check(u0, h0, replace(p, t_end=3 * p.dt), grid).hex() == expected["memory_form_check"]


def test_H_unchanged():
    _check_H(FilterParams(t_end=0.3), H_DIGESTS)


def test_H_unchanged_at_cg_tol_1e10():
    _check_H(FilterParams(t_end=0.3, cg_tol=1e-10), H_DIGESTS_1E10)


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
