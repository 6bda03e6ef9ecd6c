"""Command-line front end: PNM image I/O, configuration, and the pipeline.

The pipeline is: load -> rescale to [-1, 1] -> optional noise -> initial
diffusivity -> filter run -> undo rescaling -> clamp -> save. Binary PPM
(P6, 8-bit RGB) and PGM (P5, 8-bit gray) are the supported formats; they are
simple enough to make byte-identical reproducibility a testable contract.
Values are mapped to [0, 1] by v/255 on load; quantization on save rounds
half up, and clamping happens only at save time so the interior of the
pipeline stays unclamped.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 solver error,
5 invariant violation.
"""

import argparse
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .baselines import CATTE_REGULARIZED, PERONA_MALIK, run_baseline
from .errors import (
    ImageIOError,
    InvariantViolation,
    MalformedHeaderError,
    MissingFileError,
    ParameterError,
    RelaxdiffError,
    SolverError,
    TruncatedPayloadError,
)
from .grid import GridSpec
from .initial import NoiseSpec, add_noise, init_H0, rescale, unrescale
from .integrate import FilterParams, run, write_trace_csv
from .mollifier import COMPACT_BUMP, DELTA_SIGMA, GAUSSIAN
from .response import PERONA_MALIK_SCALAR, THRESHOLDED_PROJECTION, ResponseParams

Array = np.ndarray

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SOLVER = 4
EXIT_INVARIANT = 5

PSNR_CAP = 99.0  # returned for (near-)identical images

MODE_RELAX = "relax"
MODE_CATTE = "catte"
MODE_PM = "pm"


# ---------------------------------------------------------------------------
# PNM reading and writing


def _read_tokens(data: bytes, count: int):
    """First `count` whitespace-separated header tokens, honoring # comments.

    Returns (tokens, offset of the byte right after the single whitespace
    that terminates the last token).
    """
    tokens = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
            continue
        start = i
        while i < n and not data[i : i + 1].isspace() and data[i : i + 1] != b"#":
            i += 1
        if i == start:
            raise MalformedHeaderError("incomplete PNM header")
        tokens.append(data[start:i])
    if i >= n or not data[i : i + 1].isspace():
        raise MalformedHeaderError("PNM header not terminated by whitespace")
    return tokens, i + 1


def load_image(path: str) -> Array:
    """Read a binary PGM (P5) or PPM (P6) with maxval 255 into [0, 1] floats.

    The result has shape (height, width, channels) with channels 1 or 3.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError as exc:
        raise MissingFileError(f"no such image file: {path}") from exc
    except OSError as exc:
        raise ImageIOError(f"cannot read image file: {path}: {exc}") from exc

    tokens, offset = _read_tokens(data, 4)
    magic, w_tok, h_tok, maxval_tok = tokens
    if magic == b"P6":
        channels = 3
    elif magic == b"P5":
        channels = 1
    else:
        raise MalformedHeaderError(f"unsupported PNM magic {magic!r}")
    try:
        width = int(w_tok)
        height = int(h_tok)
        maxval = int(maxval_tok)
    except ValueError as exc:
        raise MalformedHeaderError("non-numeric PNM header field") from exc
    if width < 1 or height < 1:
        raise MalformedHeaderError(f"bad image dimensions {width}x{height}")
    if maxval != 255:
        raise MalformedHeaderError(f"only maxval 255 is supported, got {maxval}")

    expected = width * height * channels
    payload = data[offset : offset + expected]
    if len(payload) < expected:
        raise TruncatedPayloadError(
            f"payload has {len(payload)} bytes, header promises {expected}"
        )
    raw = np.frombuffer(payload, dtype=np.uint8).astype(float)
    return (raw / 255.0).reshape(height, width, channels)


def save_image(field: Array, path: str) -> None:
    """Write a [0, 1] field as binary P5/P6 with round-half-up quantization."""
    field = np.asarray(field, dtype=float)
    if field.ndim != 3 or field.shape[-1] not in (1, 3):
        raise ParameterError(f"image field must be (h, w, 1|3), got {field.shape}")
    if not np.all(np.isfinite(field)):
        raise ParameterError("refusing to save non-finite pixel values")
    clamped = np.clip(field, 0.0, 1.0)
    quantized = np.floor(255.0 * clamped + 0.5).astype(np.uint8)
    height, width, channels = field.shape
    magic = b"P6" if channels == 3 else b"P5"
    header = magic + b"\n" + f"{width} {height}\n255\n".encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(quantized.tobytes())
    except OSError as exc:
        raise ImageIOError(f"cannot write image file: {path}: {exc}") from exc


def psnr(a: Array, b: Array) -> float:
    """Peak signal-to-noise ratio on [0, 1] fields, capped at 99.0 dB."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ParameterError(f"shape mismatch: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP
    return min(10.0 * math.log10(1.0 / mse), PSNR_CAP)


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class RunConfig:
    input: str = ""
    output: str = ""
    trace: str = ""
    reference: str = ""
    mode: str = MODE_RELAX
    tau: float = 0.5
    sigma: float = 1.0
    kernel: str = "gaussian"
    threshold_s: float = 0.1
    omega: float = 0.0
    alpha: float = 0.1
    lam: float = 1.0
    dt: float = 0.1
    t_end: float = 2.0
    noise_std: float = 0.0
    seed: int = 0
    window: int = 5
    lo: float = 0.0
    hi: float = 1.0
    cg_tol: float = 1e-10


# Each field's type (a class: annotations are not postponed here) parses its
# config-file value.
_CONFIG_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines; '#' starts a comment; keys use flag names."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = body.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_TYPES:
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


class _Parser(argparse.ArgumentParser):
    """Flag errors raise ParameterError, so main() reports them like any other."""

    def error(self, message):
        raise ParameterError(message)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="relaxdiff",
        description="Multicolor anisotropic denoising with a relaxed diffusivity tensor.",
    )
    ap.add_argument("--input", help="input PPM/PGM image")
    ap.add_argument("--output", help="output image path")
    ap.add_argument("--trace", help="per-step CSV trace output")
    ap.add_argument("--reference", help="clean image for PSNR")
    ap.add_argument("--mode", choices=[MODE_RELAX, MODE_CATTE, MODE_PM])
    ap.add_argument("--tau", type=float, help="relaxation time of the diffusivity")
    ap.add_argument("--sigma", type=float, help="mollifier bandwidth in pixels (0 = sharp)")
    ap.add_argument("--kernel", choices=["gaussian", "bump"], help="mollifier kernel shape")
    ap.add_argument("--threshold-s", type=float, help="contrast threshold")
    ap.add_argument("--omega", type=float, help="uniform positivity shift of the response")
    ap.add_argument("--alpha", type=float, help="eigenvalue floor of the initial diffusivity")
    ap.add_argument("--lam", type=float, help="contrast scale of the scalar pm response")
    ap.add_argument("--dt", type=float, help="time step")
    ap.add_argument("--t-end", type=float, help="stopping time")
    ap.add_argument("--noise-std", type=float, help="added noise std (rescaled units)")
    ap.add_argument("--seed", type=int, help="noise generator seed")
    ap.add_argument("--window", type=int, help="covariance window for the initial diffusivity")
    ap.add_argument("--lo", type=float, help="lower bound of the raw intensity range")
    ap.add_argument("--hi", type=float, help="upper bound of the raw intensity range")
    ap.add_argument("--cg-tol", type=float, help="relative tolerance of the diffusion solve")
    ap.add_argument("--config", help="key = value config file (flags override)")
    return ap


def build_config(argv: list[str] | None) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    cfg = RunConfig()
    if ns.config:
        for key, raw in parse_config_file(ns.config).items():
            try:
                setattr(cfg, key, _CONFIG_TYPES[key](raw))
            except ValueError as exc:
                raise ParameterError(f"config key {key!r}: bad value {raw!r}") from exc
    for f in fields(RunConfig):
        value = getattr(ns, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if not cfg.input:
        raise ParameterError("--input is required")
    if not cfg.output:
        raise ParameterError("--output is required")
    if cfg.mode not in (MODE_RELAX, MODE_CATTE, MODE_PM):
        raise ParameterError(f"unknown mode {cfg.mode!r}")
    if cfg.kernel not in ("gaussian", "bump"):
        raise ParameterError(f"unknown kernel {cfg.kernel!r}")
    if cfg.mode == MODE_CATTE and cfg.sigma < DELTA_SIGMA:
        raise ParameterError(f"the mollified baseline needs sigma >= {DELTA_SIGMA:g}")
    if cfg.noise_std < 0:
        raise ParameterError("noise-std must be >= 0")


def _filter_params(cfg: RunConfig) -> FilterParams:
    if cfg.mode == MODE_PM:
        resp = ResponseParams(
            s=cfg.threshold_s, omega=cfg.omega, kind=PERONA_MALIK_SCALAR, lam=cfg.lam
        )
    else:
        resp = ResponseParams(s=cfg.threshold_s, omega=cfg.omega, kind=THRESHOLDED_PROJECTION)
    tau = cfg.tau if cfg.mode == MODE_RELAX else max(cfg.tau, 1e-6)
    kernel_kind = COMPACT_BUMP if cfg.kernel == "bump" else GAUSSIAN
    return FilterParams(
        tau=tau,
        sigma=cfg.sigma,
        dt=cfg.dt,
        t_end=cfg.t_end,
        response=resp,
        alpha=cfg.alpha,
        kernel_kind=kernel_kind,
        cg_tol=cfg.cg_tol,
    )


def main(argv: list[str] | None = None) -> int:
    """Run the pipeline on argv (default sys.argv[1:]); returns the exit code."""
    stage = "configuration"
    try:
        cfg = build_config(argv)
        _validate(cfg)
        params = _filter_params(cfg)

        stage = "image loading"
        raw = load_image(cfg.input)
        reference = load_image(cfg.reference) if cfg.reference else None

        stage = "rescaling"
        work = rescale(raw, cfg.lo, cfg.hi)

        stage = "noise injection"
        if cfg.noise_std > 0:
            work = add_noise(work, NoiseSpec(std=cfg.noise_std, seed=cfg.seed))

        grid = GridSpec.from_field(work)

        stage = "filtering"
        if cfg.mode == MODE_RELAX:
            h0 = init_H0(work, grid, window=cfg.window, alpha=cfg.alpha)
            state, traces = run(work, h0, params, grid)
            filtered = state.u
        else:
            kind = CATTE_REGULARIZED if cfg.mode == MODE_CATTE else PERONA_MALIK
            filtered, traces = run_baseline(work, params, kind, grid)

        stage = "output"
        out01 = np.clip(unrescale(filtered, cfg.lo, cfg.hi), cfg.lo, cfg.hi)
        out01 = (out01 - cfg.lo) / (cfg.hi - cfg.lo)
        if not np.all(np.isfinite(out01)):
            raise InvariantViolation("pipeline produced non-finite pixel values")
        save_image(out01, cfg.output)
        if cfg.trace:
            write_trace_csv(traces, cfg.trace, grid.channels)

        input01 = (raw - cfg.lo) / (cfg.hi - cfg.lo)
        print(f"psnr_vs_input={psnr(out01, input01):.6f}")
        if reference is not None:
            ref01 = (reference - cfg.lo) / (cfg.hi - cfg.lo)
            print(f"psnr_vs_reference={psnr(out01, ref01):.6f}")
        return EXIT_OK
    except ImageIOError as exc:
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return EXIT_IO
    except SolverError as exc:
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except InvariantViolation as exc:
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except RelaxdiffError as exc:
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main() -> None:
    sys.exit(main())
