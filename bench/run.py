"""End-to-end and per-layer benchmark of the relaxdiff CLI.

Usage:
    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

For one workload and seed the harness generates a noisy and a clean scene,
then invokes the CLI (through ``child.py``) in a child process again and
again, one invocation at a time, for about S seconds. Every invocation is
checked; a failed check counts the invocation as failed instead of
aborting. With ``--trace 0`` the end-to-end metrics are printed, with
``--trace 1`` the per-layer metrics from traced invocations, interleaved
with untraced ones for the byte-identity check. The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See README.md next to this file.
"""

import argparse
import csv
import io
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
# A workload's invocations all end within this many seconds, hung ones
# killed, so that one run stays inside a 180 s limit.
RUN_LIMIT_S = 150.0
STEPS = 5  # filter steps per invocation, so that one run holds 10 to 20 invocations
MIN_UNTRACED = 3
MIN_TRACED = 2
NOISE_STD = 0.05  # on [0, 1]; the CLI's --noise-std 0.1 in its [-1, 1] units
MASS_DRIFT_TOL = 1e-9
FLOOR_SLACK = 1e-8
# CLI defaults that every workload keeps; they fix the relax-mode floor
# alpha e^(-t/tau) (omega = 0).
CLI_TAU, CLI_ALPHA, CLI_DT = 0.5, 0.1, 0.1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "filter_mcell_steps_per_s": "Mcell-step/s",
    "peak_rss_mb": "MiB",
    "cpu_s": "s",
    "psnr_db": "dB",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "tensors.eigvalsh_s": "s",
    "tensors.eigvalsh_calls": "count",
    "tensors.eigvalsh_mcells_per_s": "Mcell/s",
    "integrate.run_s": "s",
    "integrate.self_s": "s",
    "integrate.cg_half_s": "s",
    "integrate.cg_main_s": "s",
    "integrate.diag_s": "s",
    "integrate.cg_iters_half": "count",
    "integrate.cg_iters_main": "count",
    "integrate.mass_drift_rel": "ratio",
    "integrate.floor_margin_min": "eigval",
    "grid.gradient_s": "s",
    "grid.divergence_s": "s",
    "grid.face_average_s": "s",
    "grid.operator_applies": "count",
    "grid.gradient_gbps_computed": "GB/s",
    "grid.divergence_gbps_computed": "GB/s",
    "grid.face_average_gbps_computed": "GB/s",
    "response.field_s": "s",
    "response.field_gbps_computed": "GB/s",
    "mollifier.grad_sigma_s": "s",
    "mollifier.convolve_s": "s",
    "initial.init_H0_s": "s",
    "baselines.run_s": "s",
    "baselines.self_s": "s",
    "baselines.cg_s": "s",
    "baselines.cg_iters": "count",
    "cli.load_s": "s",
    "cli.save_s": "s",
    "trace.overhead_s": "s",
}
# Counts that must repeat exactly between invocations of one scene.
EXACT_COUNTS = (
    "integrate.cg_iters_half",
    "integrate.cg_iters_main",
    "baselines.cg_iters",
    "grid.operator_applies",
    "tensors.eigvalsh_calls",
)


@dataclass(frozen=True)
class Workload:
    size: int
    channels: int
    mode: str = "relax"
    sigma: float | None = None  # None keeps the CLI default
    dt: float | None = None

    def cli_flags(self, steps: int) -> list[str]:
        flags = [] if self.mode == "relax" else ["--mode", self.mode]
        if self.sigma is not None:
            flags += ["--sigma", repr(self.sigma)]
        if self.dt is not None:
            flags += ["--dt", repr(self.dt)]
        return flags + ["--t-end", repr(steps * (self.dt or CLI_DT))]


WORKLOADS = {
    "rgb256-default": Workload(size=256, channels=3),
    "rgb128-bigstep": Workload(size=128, channels=3, sigma=0.0, dt=2.0),
    "gray512-catte": Workload(size=512, channels=1, mode="catte"),
}


# ---------------------------------------------------------------------------
# Scenes and PNM files


def make_scene(size: int, channels: int, seed: int):
    """Seeded piecewise-constant colour scene and its noisy copy, on [0, 1].

    The image is an 8x8 grid of tiles. Each tile holds a disk, a rotated
    square or a half-plane at a random angle, so there are edges in every
    orientation. Every shape differs from its tile by 0.2 per channel, and
    edge density is the same for every seed, so seeds differ in layout and
    colour, not in difficulty.
    """
    tiles = 8
    rng = np.random.default_rng(seed)
    coord = np.arange(size) * (tiles / size)  # pixel position in tile units
    bounds = np.searchsorted(np.floor(coord), np.arange(tiles + 1))
    clean = np.empty((size, size, channels))
    for i in range(tiles * tiles):
        ty, tx = divmod(i, tiles)
        rows, cols = slice(bounds[ty], bounds[ty + 1]), slice(bounds[tx], bounds[tx + 1])
        y, x = np.meshgrid(coord[rows], coord[cols], indexing="ij")
        base = rng.uniform(0.25, 0.75, channels)
        colour = base + 0.2 * rng.choice([-1.0, 1.0], channels)
        cx, cy = tx + rng.uniform(0.4, 0.6), ty + rng.uniform(0.4, 0.6)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        along = (x - cx) * np.cos(angle) + (y - cy) * np.sin(angle)
        across = (y - cy) * np.cos(angle) - (x - cx) * np.sin(angle)
        if i % 3 == 0:
            shape = along**2 + across**2 < 0.3**2
        elif i % 3 == 1:
            shape = (np.abs(along) < 0.25) & (np.abs(across) < 0.25)
        else:
            shape = along > 0.0
        clean[rows, cols] = np.where(shape[..., None], colour, base)
    noisy = clean + NOISE_STD * rng.standard_normal(clean.shape)
    return noisy, clean


def read_pnm(data: bytes):
    """uint8 pixels of a binary P5/P6 file with maxval 255 and no comments."""
    tokens = data.split(maxsplit=4)
    if len(tokens) < 5 or tokens[0] not in (b"P5", b"P6") or tokens[3] != b"255":
        raise ValueError("not a binary 8-bit PNM")
    width, height = int(tokens[1]), int(tokens[2])
    channels = 3 if tokens[0] == b"P6" else 1
    payload = data[len(data) - width * height * channels :]
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)


# ---------------------------------------------------------------------------
# One invocation


@dataclass
class Sample:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: float = 0.0
    filter_s: float = 0.0
    psnr_db: float = 0.0
    layers: dict = field(default_factory=dict)
    failure: str = ""


@dataclass
class Scene:
    workload: Workload
    steps: int
    noisy: Path
    clean: Path
    shape: tuple
    mass0: np.ndarray  # per-channel mass of the rescaled input
    l1: np.ndarray  # per-channel sum of |rescaled input|, the drift scale


def run_child(argv: list[str], stdout_path: Path, stderr_path: Path, timeout: float):
    """Run argv to completion or kill it after `timeout` seconds.

    Returns (exit code, wall seconds, start, rusage of the child).
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(timeout, _kill, (proc.pid,))
        timer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, start, rusage


def _kill(pid: int) -> None:
    try:
        os.kill(pid, 9)
    except ProcessLookupError:
        pass


def invoke(scene: Scene, work: Path, index: int, traced: bool, timeout: float) -> tuple[Sample, bytes]:
    """One CLI invocation; returns the sample and its output + trace bytes."""
    ext = scene.noisy.suffix
    out, trace_csv, report = (work / f"out{index}{ext}", work / f"trace{index}.csv", work / f"report{index}.json")
    argv = [
        sys.executable, str(CHILD), str(report), "1" if traced else "0",
        "--input", str(scene.noisy), "--reference", str(scene.clean),
        "--output", str(out), "--trace", str(trace_csv),
        *scene.workload.cli_flags(scene.steps),
    ]
    stdout_path, stderr_path = work / f"stdout{index}.txt", work / f"stderr{index}.txt"
    code, wall, start, rusage = run_child(argv, stdout_path, stderr_path, timeout)
    sample = Sample(
        traced=traced,
        wall_s=wall,
        cpu_s=rusage.ru_utime + rusage.ru_stime,
        peak_rss_mb=rusage.ru_maxrss / 1024.0,
    )
    if code != 0:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
        sample.failure = f"exit code {code}: {' '.join(tail)}"
        return sample, b""
    try:
        report_data = json.loads(report.read_text())
        spans, wrapper_s = report_data["spans"], report_data["wrapper_s"]
        output, trace_text = out.read_bytes(), trace_csv.read_bytes()
    except (OSError, ValueError, KeyError) as exc:
        sample.failure = f"missing result files: {exc}"
        return sample, b""
    sample.failure = _check(scene, output, trace_text, stdout_path.read_text(errors="replace"), sample)
    if not sample.failure:
        filter_span = next(s for s in spans if s[1] == -1 and s[0] in ("integrate.run", "baselines.run"))
        sample.setup_s = filter_span[2] - start
        sample.filter_s = filter_span[3] - filter_span[2]
        if traced:
            sample.layers.update(layer_values(spans))
            sample.layers["trace.overhead_s"] = wrapper_s
    for path in (out, trace_csv, report, stdout_path, stderr_path):
        path.unlink(missing_ok=True)
    return sample, output + b"\0" + trace_text


def _check(scene: Scene, output: bytes, trace_text: bytes, stdout: str, sample: Sample) -> str:
    """Failure reason for one invocation, or "" if every check holds."""
    try:
        pixels = read_pnm(output)
    except ValueError as exc:
        return f"output does not decode: {exc}"
    if pixels.shape != scene.shape:
        return f"output shape {pixels.shape} != input shape {scene.shape}"
    psnr = re.search(r"^psnr_vs_reference=([-+0-9.eE]+)$", stdout, re.M)
    if psnr is None:
        return "psnr_vs_reference missing from stdout"
    sample.psnr_db = float(psnr.group(1))

    relax = scene.workload.mode == "relax"
    try:
        rows = list(csv.DictReader(io.StringIO(trace_text.decode("ascii"))))
        drift = max(
            abs(float(row[f"mass_c{c}"]) - scene.mass0[c]) / scene.l1[c]
            for row in rows
            for c in range(scene.shape[-1])
        )
        margins = [
            float(row["min_eig_H"]) - (CLI_ALPHA * math.exp(-float(row["t"]) / CLI_TAU) if relax else 0.0)
            for row in rows
        ]
    except (UnicodeDecodeError, KeyError, ValueError) as exc:
        return f"trace CSV malformed: {exc!r}"
    if len(rows) != scene.steps:
        return f"trace has {len(rows)} rows, expected {scene.steps}"
    if drift > MASS_DRIFT_TOL:
        return f"mass drift {drift:.3g} > {MASS_DRIFT_TOL:g} relative"
    if min(margins) < -FLOOR_SLACK:
        return f"min_eig_H below the floor by {-min(margins):.3g}"
    sample.layers["integrate.mass_drift_rel"] = drift
    sample.layers["integrate.floor_margin_min"] = min(margins)
    return ""


def layer_values(spans: list) -> dict:
    """Per-layer totals of one traced invocation (see README.md)."""
    duration = [end - start for _, _, start, end, _ in spans]
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[1] >= 0:
            covered[span[1]] += duration[i]
    busy, self_time, nbytes, counts = defaultdict(float), defaultdict(float), Counter(), Counter()
    for i, (name, parent, _, _, info) in enumerate(spans):
        info = info or {}
        parent_span = spans[parent] if parent >= 0 else None
        parent_name = parent_span[0] if parent_span else None
        if name == "cg":
            if parent_name == "integrate.run":
                name = "integrate.cg_half" if info["dt"] < parent_span[4]["dt"] else "integrate.cg_main"
            else:
                name = "baselines.cg"
            counts[name + "_iters"] += info["iters"]
        elif name.startswith("diag.") and parent_name == "integrate.run":
            name = "integrate.diag"
        elif name == "grid.divergence" and parent_name == "cg":
            counts["grid.operator_applies"] += 1
        elif name == "tensors.eigvalsh":
            counts["tensors.eigvalsh_calls"] += 1
            counts["tensors.eigvalsh_cells"] += info["cells"]
        busy[name] += duration[i]
        self_time[name] += duration[i] - covered[i]
        nbytes[name] += info.get("bytes", 0)

    def rate(total, seconds):
        return total / seconds if seconds > 0 else 0.0

    values = {
        "tensors.eigvalsh_s": busy["tensors.eigvalsh"],
        "tensors.eigvalsh_calls": counts["tensors.eigvalsh_calls"],
        "tensors.eigvalsh_mcells_per_s": rate(counts["tensors.eigvalsh_cells"] / 1e6, busy["tensors.eigvalsh"]),
        "integrate.run_s": busy["integrate.run"],
        "integrate.self_s": self_time["integrate.run"],
        "integrate.cg_half_s": busy["integrate.cg_half"],
        "integrate.cg_main_s": busy["integrate.cg_main"],
        "integrate.diag_s": busy["integrate.diag"],
        "integrate.cg_iters_half": counts["integrate.cg_half_iters"],
        "integrate.cg_iters_main": counts["integrate.cg_main_iters"],
        "grid.operator_applies": counts["grid.operator_applies"],
        "response.field_s": busy["response.field"],
        "response.field_gbps_computed": rate(nbytes["response.field"] / 1e9, busy["response.field"]),
        "mollifier.grad_sigma_s": busy["mollifier.grad_sigma"],
        "mollifier.convolve_s": busy["mollifier.convolve"],
        "initial.init_H0_s": busy["initial.init_H0"],
        "baselines.run_s": busy["baselines.run"],
        "baselines.self_s": self_time["baselines.run"],
        "baselines.cg_s": busy["baselines.cg"],
        "baselines.cg_iters": counts["baselines.cg_iters"],
        "cli.load_s": busy["cli.load"],
        "cli.save_s": busy["cli.save_image"] + busy["cli.write_trace"],
    }
    for op in ("gradient", "divergence", "face_average"):
        values[f"grid.{op}_s"] = busy[f"grid.{op}"]
        values[f"grid.{op}_gbps_computed"] = rate(nbytes[f"grid.{op}"] / 1e9, busy[f"grid.{op}"])
    return values


# ---------------------------------------------------------------------------
# One workload


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(name: str, seed: int, seconds: float, trace: bool, work_root: Path,
            size: int | None = None, steps: int | None = None) -> dict:
    """Run one workload for about `seconds`; returns the result record.

    `size` and `steps` shrink the workload (the smoke test uses them).
    """
    workload = WORKLOADS[name]
    size = size or workload.size
    steps = steps or STEPS
    work = work_root / name
    work.mkdir(parents=True)
    noisy, clean = make_scene(size, workload.channels, seed)
    ext = ".ppm" if workload.channels == 3 else ".pgm"
    save_image = _cli().save_image
    save_image(noisy, str(work / f"noisy{ext}"))
    save_image(clean, str(work / f"clean{ext}"))
    # the CLI's rescale of the pixels it reads, v/255 to [-1, 1]
    u0 = read_pnm((work / f"noisy{ext}").read_bytes()).astype(float) * (2.0 / 255.0) - 1.0
    scene = Scene(
        workload, steps, work / f"noisy{ext}", work / f"clean{ext}", noisy.shape,
        mass0=u0.reshape(-1, workload.channels).sum(axis=0),
        l1=np.abs(u0).reshape(-1, workload.channels).sum(axis=0),
    )

    samples: list[Sample] = []
    reference = None
    first_counts = None
    begin = time.monotonic()
    while True:
        # samples[0] is an untimed warm-up (the first invocation of a run is
        # reliably slower); then untraced, or untraced, traced, traced, ...
        traced = trace and len(samples) > 0 and len(samples) % 3 != 1
        untraced_n = sum(not s.traced for s in samples[1:])
        traced_n = len(samples) - 1 - untraced_n
        enough = untraced_n >= (1 if trace else MIN_UNTRACED) and traced_n >= (MIN_TRACED if trace else 0)
        elapsed = time.monotonic() - begin
        if elapsed >= RUN_LIMIT_S or (enough and elapsed + _median([s.wall_s for s in samples]) > seconds):
            break
        sample, outputs = invoke(scene, work, len(samples), traced, RUN_LIMIT_S - elapsed)
        if not sample.failure:
            reference = reference or outputs
            if outputs != reference:
                sample.failure = "output image or trace CSV differs from the first invocation"
        if not sample.failure and traced:
            counts = tuple(sample.layers[k] for k in EXACT_COUNTS)
            first_counts = first_counts or counts
            if counts != first_counts:
                sample.failure = f"counts {counts} differ from the first traced run's {first_counts}"
        if sample.failure:
            print(f"[{name}] invocation {len(samples)} failed: {sample.failure}", file=sys.stderr)
        samples.append(sample)
    shutil.rmtree(work)

    failed = sum(bool(s.failure) for s in samples)
    ok = [s for s in samples[1:] if not s.failure]
    if trace:
        traced_ok = [s for s in ok if s.traced]
        values = {k: _median([s.layers[k] for s in traced_ok]) for k in PER_LAYER}
        units, n = PER_LAYER, len(traced_ok)
    else:
        cells = size * size
        values = {
            "wall_s": _median([s.wall_s for s in ok]),
            "setup_s": _median([s.setup_s for s in ok]),
            "filter_mcell_steps_per_s": _median([cells * steps / 1e6 / s.filter_s for s in ok]),
            "peak_rss_mb": _median([s.peak_rss_mb for s in ok]),
            "cpu_s": _median([s.cpu_s for s in ok]),
            "psnr_db": _median([s.psnr_db for s in ok]),
            "ok_frac": 1.0 - failed / len(samples),
        }
        units, n = END_TO_END, len(ok)
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k], "samples": n} for k in units},
    }


def _cli():
    """relaxdiff.cli, imported from the checkout's src/ as child.py does."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import relaxdiff.cli

    return relaxdiff.cli


# ---------------------------------------------------------------------------
# Environment record and entry point


def environment(seed: int) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "relaxdiff" / "__init__.py").is_file():
        print(f"no relaxdiff sources under {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    work_root = ROOT / ".bench_work" / str(os.getpid())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [measure(n, args.seed, args.seconds, bool(args.trace), work_root) for n in names]
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass

    for name, result in zip(names, results):
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:34s} {m['value']:14.6g} {m['unit']:13s} (median of {m['samples']})")
    print("env " + json.dumps(env))

    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{name}/{k}" if prefix else k): {"value": m["value"], "unit": m["unit"]}
            for name, r in zip(names, results)
            for k, m in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
