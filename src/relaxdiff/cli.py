"""Command-line front end: PNM image I/O, configuration, and the pipeline.

The pipeline is: load -> rescale [0, 1] to [-1, 1] -> optional noise ->
initial diffusivity -> filter run -> back to [0, 1] -> clamp -> save. Binary PPM
(P6, 8-bit RGB) and PGM (P5, 8-bit gray) are the supported formats; they are
simple enough to make byte-identical reproducibility a testable contract.
The loaded images stay 8-bit samples, one byte each; the pipeline forms the
[0, 1] values v/255 only where it needs floats, for the rescale and the two
PSNRs. Quantization on save rounds half up, and clamping happens only at
save time so the interior of the pipeline stays unclamped.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 solver error,
5 invariant violation.
"""

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from .baselines import run_baseline
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
from .grid import check_image
from .initial import NoiseSpec, add_noise, init_H0, rescale, unrescale
from .integrate import FilterParams, run, write_trace_csv
from .mollifier import COMPACT_BUMP, GAUSSIAN
from .response import PERONA_MALIK_SCALAR, THRESHOLDED_PROJECTION, ResponseParams

Array = np.ndarray

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SOLVER = 4
EXIT_INVARIANT = 5
# An error exits with the code of the first class here that it is an instance of.
EXIT_CODES = (
    (ImageIOError, EXIT_IO),
    (SolverError, EXIT_SOLVER),
    (InvariantViolation, EXIT_INVARIANT),
    (RelaxdiffError, EXIT_CONFIG),
)

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
    """Read a binary PGM (P5) or PPM (P6) with maxval 255: its samples, as read-only uint8.

    The result has shape (height, width, channels) with channels 1 or 3;
    v / 255.0 maps it onto [0, 1].
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
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)


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


class _Parser(argparse.ArgumentParser):
    """Flag errors raise ParameterError, so main() reports them like any other."""

    def error(self, message):
        raise ParameterError(message)


def _build_parser() -> argparse.ArgumentParser:
    """Every flag with its type, choices and default; config files parse here too.

    A default with a library twin is read from the library.
    """
    ap = _Parser(
        prog="relaxdiff",
        description="Multicolor anisotropic denoising with a relaxed diffusivity tensor.",
    )
    ap.add_argument("--input", help="input PPM/PGM image")
    ap.add_argument("--output", help="output image path")
    ap.add_argument("--trace", help="per-step CSV trace output")
    ap.add_argument("--reference", help="clean image for PSNR")
    ap.add_argument("--mode", choices=[MODE_RELAX, MODE_CATTE, MODE_PM], default=MODE_RELAX)
    ap.add_argument("--tau", type=float, default=FilterParams.tau,
                    help="relaxation time of the diffusivity")
    ap.add_argument("--sigma", type=float, default=FilterParams.sigma,
                    help="mollifier bandwidth in pixels (0 = sharp)")
    ap.add_argument("--kernel", choices=[GAUSSIAN, "bump"], default=FilterParams.kernel_kind,
                    help="mollifier kernel shape")
    ap.add_argument("--threshold-s", type=float, default=ResponseParams.s,
                    help="contrast threshold")
    ap.add_argument("--omega", type=float, default=ResponseParams.omega,
                    help="uniform positivity shift of the response")
    ap.add_argument("--alpha", type=float, default=FilterParams.alpha,
                    help="eigenvalue floor of the initial diffusivity")
    ap.add_argument("--lam", type=float, default=ResponseParams.lam,
                    help="contrast scale of the scalar pm response")
    ap.add_argument("--dt", type=float, default=FilterParams.dt, help="time step")
    ap.add_argument("--t-end", type=float, default=FilterParams.t_end, help="stopping time")
    ap.add_argument("--noise-std", type=float, default=NoiseSpec.std,
                    help="added noise std (rescaled units)")
    ap.add_argument("--seed", type=int, default=NoiseSpec.seed, help="noise generator seed")
    ap.add_argument("--window", type=int, default=5,
                    help="covariance window for the initial diffusivity")
    ap.add_argument("--cg-tol", type=float, default=FilterParams.cg_tol,
                    help="relative tolerance of the diffusion solve (default %(default)g)")
    ap.add_argument("--config", help="key = value config file (flags override)")
    return ap


def parse_config_file(path: str) -> list[str]:
    """Read `key = value` lines as `--key=value` tokens for the flag parser.

    '#' starts a comment. Keys are the flag names without their dashes
    (`t_end` spells `t-end` too); `config` and `help` are not keys.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    keys = {action.dest for action in _build_parser()._actions} - {"config", "help"}
    tokens = []
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = body.partition("=")
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        tokens.append(f"--{key.replace('_', '-')}={value.strip()}")
    return tokens


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join a `--flag` and a following negative number into `--flag=number`.

    argparse takes only `-1` and `-.5` shapes for negative numbers, so a value
    like `-1e-05` or `-inf` would read as a flag and miss its range check.
    """
    out = []
    for token in argv:
        try:
            float(token)
        except ValueError:
            out.append(token)
            continue
        if out and out[-1].startswith("--") and "=" not in out[-1] and token.startswith("-"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def build_config(argv: list[str] | None) -> argparse.Namespace:
    """Parse argv (default sys.argv[1:]) after the --config file's tokens.

    The flags come last, so they override the file.
    """
    ap = _build_parser()
    argv = _join_negative_values(sys.argv[1:] if argv is None else list(argv))
    ns = ap.parse_args(argv)
    if not ns.config:
        return ns
    tokens = parse_config_file(ns.config)
    # argv alone parsed above, so an error here comes from the file's values.
    try:
        return ap.parse_args(tokens + argv)
    except ParameterError as exc:
        raise ParameterError(f"config file {ns.config}: {exc}") from exc


def _filter_params(ns: argparse.Namespace) -> FilterParams:
    """FilterParams of the flags, every one checked; pm mode then drops the mollifier."""
    kind = PERONA_MALIK_SCALAR if ns.mode == MODE_PM else THRESHOLDED_PROJECTION
    p = FilterParams(
        tau=ns.tau,
        sigma=ns.sigma,
        dt=ns.dt,
        t_end=ns.t_end,
        response=ResponseParams(s=ns.threshold_s, omega=ns.omega, kind=kind, lam=ns.lam),
        alpha=ns.alpha,
        kernel_kind=COMPACT_BUMP if ns.kernel == "bump" else GAUSSIAN,
        cg_tol=ns.cg_tol,
    )
    return replace(p, sigma=0.0) if ns.mode == MODE_PM else p


def main(argv: list[str] | None = None) -> int:
    """Run the pipeline on argv (default sys.argv[1:]); returns the exit code."""
    stage = "configuration"
    try:
        ns = build_config(argv)
        for name in ("input", "output"):
            if not getattr(ns, name):
                raise ParameterError(f"--{name} is required")
        params = _filter_params(ns)
        noise = NoiseSpec(std=ns.noise_std, seed=ns.seed)

        stage = "image loading"
        # The images stay uint8 through the run: a float copy of each would
        # add an image field of eight bytes a sample to its peak.
        raw = load_image(ns.input)
        work = check_image("input image", rescale(raw / 255.0))
        reference = load_image(ns.reference) if ns.reference else None
        if reference is not None and reference.shape != raw.shape:
            raise ParameterError(f"reference shape {reference.shape} != input shape {raw.shape}")

        stage = "noise injection"
        if noise.std > 0:
            work = add_noise(work, noise)

        stage = "filtering"
        # The image and H0 are handed over, so no name here holds them: run()
        # and run_baseline() let go of their arguments once the step loop
        # has its copies. run()'s first argument is read before init_H0
        # takes the list's reference.
        handed = [work]
        del work
        if ns.mode == MODE_RELAX:
            state, traces = run(handed[0], init_H0(handed.pop(), window=ns.window, alpha=ns.alpha), params)
        else:
            state, traces = run_baseline(handed.pop(), params)

        stage = "output"
        out01 = np.clip(unrescale(state.u), 0.0, 1.0)
        # The trace goes first, so a trace that cannot be written leaves no image.
        if ns.trace:
            write_trace_csv(traces, ns.trace, raw.shape[-1])
        save_image(out01, ns.output)

        print(f"psnr_vs_input={psnr(out01, raw / 255.0):.6f}")
        if reference is not None:
            print(f"psnr_vs_reference={psnr(out01, reference / 255.0):.6f}")
        return EXIT_OK
    except RelaxdiffError as exc:
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


def console_main() -> None:
    sys.exit(main())
