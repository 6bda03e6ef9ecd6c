"""Property tests: the CLI, the PNM reader and the filter fail only in documented ways.

Hypothesis draws CLI flags and config-file text for an 8 x 8 scene, and PNM
headers and payloads. ``cli.main`` must return one of its documented exit
codes, never 1 (the code of an uncaught exception), and raise nothing but
SystemExit(0) after printing the --help text; ``load_image`` must return
8-bit samples or raise an ImageIOError subclass. The steps of ``run``, read
from ``trajectory``, on an 8 x 8 RGB scene with drawn parameters must raise
a RelaxdiffError or keep the paper's three guarantees: mass, eigenvalue
floor and L2 monotonicity. With alpha and omega drawn over many decades, a
run must pass both floor checks.

``--dt`` and ``--t-end`` always come last on the command line, from ranges
that allow at most six steps, so no drawn run is long.
"""

import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaxdiff.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_CODES as CLI_EXIT_CODES,
    load_image,
    main,
    save_image,
)
from relaxdiff.errors import ImageIOError, RelaxdiffError
from relaxdiff.grid import l2_norm, mean_free
from relaxdiff.initial import init_H0, rescale
from relaxdiff.integrate import KAPPA_SLACK, FilterParams, kappa_predicted
from relaxdiff.response import ResponseParams
from relaxdiff.tensors import eig_margin

from conftest import disk_image, step_nodes

EXIT_CODES = {EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_SOLVER, EXIT_INVARIANT}

positive = st.floats(0.01, 3.0)
# Each flag draws a value the filter accepts as often as a wild one, so that
# many drawn runs get past the configuration stage.
PLAUSIBLE = {
    "tau": positive,
    "sigma": st.floats(0.0, 3.0),
    "threshold-s": positive,
    "omega": st.floats(0.0, 1.0),
    "alpha": positive,
    "lam": positive,
    "noise-std": st.floats(0.0, 0.3),
    "seed": st.integers(0, 2**32),
    "window": st.sampled_from([3, 5, 7]),
    "cg-tol": st.floats(1e-12, 1e-2),
    "mode": st.sampled_from(["relax", "catte", "pm"]),
    "kernel": st.sampled_from(["gaussian", "bump"]),
}
wild = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10, 10**20),
    st.text(max_size=6),
)


def value(flag):
    return st.one_of(PLAUSIBLE[flag], wild).map(str)


# A flag and its value as two tokens or as one `--flag=value` token.
flag_pair = st.sampled_from(sorted(PLAUSIBLE)).flatmap(
    lambda f: value(f).flatmap(lambda v: st.sampled_from([[f"--{f}", v], [f"--{f}={v}"]]))
)
# Mostly nothing; else an unknown, ambiguous (--t) or help flag, or one
# without its value.
odd_flag = st.sampled_from([None, None, None, None, "--bogus", "-x", "--t", "--help", "-h", "--tau"])
valid_dt, valid_t_end = st.floats(0.05, 10.0).map(repr), st.floats(-1.0, 0.3).map(repr)
dt_value = st.one_of(valid_dt, valid_dt, valid_dt, st.sampled_from(["0", "-1", "nan", "inf", "x"]))
t_end_value = st.one_of(valid_t_end, valid_t_end, valid_t_end, st.sampled_from(["nan", "inf", "-inf", ""]))
config_line = st.one_of(
    st.sampled_from(sorted(PLAUSIBLE)).flatmap(lambda k: value(k).map(f"{k} = {{}}".format)),
    st.sampled_from(["t_end", "dt", "input", "trace", "config", "help", "bogus", ""]).map("{} = 1".format),
    st.text(max_size=20),
)
config_text = st.lists(config_line, max_size=4).map("\n".join)


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    root = tmp_path_factory.mktemp("scene")
    clean, _ = disk_image(n=8, radius=2.5)
    noisy = clean + 0.05 * np.random.default_rng(3).standard_normal(clean.shape)
    save_image(noisy, str(root / "noisy.ppm"))
    save_image(clean, str(root / "clean.ppm"))
    save_image(clean[..., :1], str(root / "grey.pgm"))
    return root


@pytest.mark.filterwarnings("ignore:unmollified scalar", "ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(
    flags=st.lists(flag_pair, max_size=4).map(lambda pairs: sum(pairs, [])),
    odd=odd_flag,
    config=st.none() | config_text,
    reference=st.sampled_from(["clean.ppm", "clean.ppm", "clean.ppm", "grey.pgm"]),
    trace=st.sampled_from(["trace.csv", "trace.csv", "trace.csv", "no-such-dir/trace.csv"]),
    dt=dt_value,
    t_end=t_end_value,
)
def test_main_returns_a_documented_exit_code(scene, flags, odd, config, reference, trace, dt, t_end):
    # The paths come from the command line, so a drawn config file never
    # names a file outside the scene directory.
    argv = [
        "--input", str(scene / "noisy.ppm"), "--output", str(scene / "out.ppm"),
        "--reference", str(scene / reference), "--trace", str(scene / trace),
    ]
    if config is not None:
        (scene / "run.cfg").write_text(config, encoding="utf-8")
        argv += ["--config", str(scene / "run.cfg")]
    argv += [*flags, *([odd] if odd else []), "--dt", dt, "--t-end", t_end]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == EXIT_OK and out.getvalue().startswith("usage:"), argv
            return
    assert code in EXIT_CODES, (argv, config, err.getvalue())
    assert (code == EXIT_OK) == (err.getvalue() == ""), err.getvalue()


# The seeded fuzz's 24 values: extreme, NaN and inf, negative, malformed.
FUZZ_VALUES = (
    "1e300", "-1e300", "1.7e308", "1e-300", "5e-324", "1e20", "-1e20", "1e-12",
    "nan", "inf", "-inf", "-nan",
    "-1", "-0.5", "-1e-05", "-0",
    "", "abc", "1e", "0x10", "1..5", "--", "1,5", "1e5e5",
)
FUZZ_FLAGS = (
    "--tau", "--sigma", "--threshold-s", "--omega", "--alpha", "--lam",
    "--dt", "--t-end", "--noise-std", "--seed", "--window", "--cg-tol",
)
FUZZ_STEPS = 200  # draws of more steps are skipped, to keep the test short


def _fuzz_steps(flags: dict) -> float:
    """t_end / dt of a draw's flags, with the CLI's defaults; 0 where either does not parse."""
    try:
        return float(flags.get("--t-end", FilterParams.t_end)) / float(flags.get("--dt", FilterParams.dt))
    except (ValueError, ZeroDivisionError):
        return 0.0


def test_seeded_cli_fuzz_exits_cleanly(tmp_path):
    # Each of 1,200 draws takes a mode, a kernel and one to five numeric
    # flags from FUZZ_VALUES, on one of four images of at most 13 pixels a
    # side (one too small for the default window). Every draw must end in a
    # documented exit code, with no exception and no warning leaving
    # cli.main, except pm mode's documented one that unmollified
    # Perona-Malik is ill-posed.
    rng = np.random.default_rng(20261021)
    images = []
    for shape, name in (((13, 13, 3), "a.ppm"), ((9, 12, 1), "b.pgm"), ((13, 5, 3), "c.ppm"), ((3, 4, 1), "d.pgm")):
        save_image(rng.uniform(0.0, 1.0, shape), str(tmp_path / name))
        images.append(str(tmp_path / name))
    codes = []
    for _ in range(1200):
        flags = {
            str(flag): str(rng.choice(FUZZ_VALUES))
            for flag in rng.choice(FUZZ_FLAGS, size=rng.integers(1, 6), replace=False)
        }
        if _fuzz_steps(flags) > FUZZ_STEPS:
            continue
        argv = [
            "--input", str(rng.choice(images)), "--output", str(tmp_path / "out.pnm"),
            "--mode", str(rng.choice(["relax", "catte", "pm"])),
            "--kernel", str(rng.choice(["gaussian", "bump"])),
            *[token for pair in flags.items() for token in pair],
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "unmollified scalar", UserWarning)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
        assert code == EXIT_OK or code in {code for _, code in CLI_EXIT_CODES}, (argv, err.getvalue())
        codes.append(code)
    # About 1,130 draws run: most exit 2, a few dozen 0 and a few 4.
    assert len(codes) >= 1000 and EXIT_OK in codes and EXIT_CONFIG in codes, codes


magic = st.one_of(st.sampled_from([b"P5", b"P6", b"P3", b"P7", b""]), st.binary(max_size=3))
number = st.one_of(st.integers(-2, 6).map(lambda i: str(i).encode()), st.binary(max_size=3))
maxval = st.one_of(st.sampled_from([b"255", b"0255", b"65535", b"0"]), st.binary(max_size=3))
separator = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b" # note\n", b"#", b""])


@settings(max_examples=300, deadline=None)
@given(
    header=st.tuples(magic, separator, number, separator, number, separator, maxval, separator),
    payload=st.binary(max_size=120),
    raw=st.none() | st.binary(max_size=40),
)
def test_load_image_raises_only_image_errors(tmp_path_factory, header, payload, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.pnm"
    path.write_bytes(b"".join(header) + payload if raw is None else raw)
    try:
        img = load_image(str(path))
    except ImageIOError:
        return
    assert img.ndim == 3 and img.shape[-1] in (1, 3) and img.size >= 1
    assert img.dtype == np.uint8


finite = st.floats(allow_nan=False, allow_infinity=False)


def plausible_or_finite(lo, hi):
    return st.one_of(st.floats(lo, hi), finite)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    dt=plausible_or_finite(0.01, 5.0),
    tau=plausible_or_finite(0.01, 3.0),
    s=plausible_or_finite(0.01, 1.0),
    omega=plausible_or_finite(0.0, 1.0),
    sigma=st.one_of(st.just(0.0), st.floats(0.5, 3.0)),
    steps=st.integers(1, 4),
)
# Found by this test: s^2 underflowed to 0 and the response divided 0 by 0;
# p.Ap became 0 in the CG at a huge dt and raised ZeroDivisionError.
@example(dt=1.0, tau=1.0, s=1.5237156268069473e-301, omega=0.0, sigma=0.0, steps=1)
@example(dt=6.884342487799457e39, tau=1.0, s=1.0, omega=0.0, sigma=0.0, steps=1)
# CG updates leaked about eps dt ||H|| of the mass until each solve put the
# lost channel means back: 1e-9 of the L1 mass was passed from dt ~ 1e7 on.
@example(dt=1e8, tau=1.0, s=1.0, omega=0.0, sigma=0.0, steps=4)
@example(dt=1e10, tau=1.0, s=1.0, omega=0.0, sigma=0.0, steps=4)
# The floor check's slack was 1e-8 alone, below the rounding of eigenvalues
# near 7e14: one step raised InvariantViolation, min eig one unit in the last
# place under the floor.
@example(dt=1.0, tau=1.0, s=1.0, omega=1133007968679298.0, sigma=0.0, steps=1)
def test_run_keeps_its_guarantees_or_raises(dt, tau, s, omega, sigma, steps):
    clean, _ = disk_image(n=8, radius=2.5)
    u0 = clean + 0.05 * np.random.default_rng(3).standard_normal(clean.shape)
    h0 = init_H0(u0, window=3, alpha=0.1)
    try:
        p = FilterParams(tau=tau, sigma=sigma, dt=dt, t_end=steps * dt, response=ResponseParams(s=s, omega=omega))
        traces, us, hs = step_nodes(u0, h0, p)
    except RelaxdiffError:
        return
    mass0 = u0.reshape(-1, 3).sum(axis=0)
    mass_tol = 1e-9 * np.abs(u0).reshape(-1, 3).sum(axis=0)
    norms = [l2_norm(mean_free(u)) for u in us]
    for r, h, a, b in zip(traces, hs[1:], norms, norms[1:]):
        assert np.all(np.abs(np.array(r.mass) - mass0) <= mass_tol), (r.t, r.mass)
        assert r.min_eig_H >= kappa_predicted(r.t, p) - KAPPA_SLACK - eig_margin(h), (r.t, r.min_eig_H)
        assert b <= a + 1e-10 * norms[0], (r.t, a, b)  # fixed, 100 times tighter than the default cg_tol


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(-6.0, 15.0).map(lambda e: 10.0**e),
    omega=st.one_of(st.just(0.0), st.floats(-6.0, 20.0).map(lambda e: 10.0**e)),
    dt=st.floats(0.01, 2.0),
)
def test_floor_checks_hold_at_every_scale(alpha, omega, dt):
    # The alpha check and the per-step floor check allow the rounding of
    # eigenvalues at H's scale, so a valid run passes both however large H
    # is. With absolute slacks alone, runs failed from alpha 3000 and from
    # omega 1e15 on.
    u0 = rescale(np.random.default_rng(1).uniform(0, 1, (8, 8, 3)))
    h0 = init_H0(u0, window=3, alpha=alpha)
    p = FilterParams(dt=dt, t_end=2 * dt, alpha=alpha, response=ResponseParams(omega=omega))
    traces, _, hs = step_nodes(u0, h0, p)
    for r, h in zip(traces, hs[1:]):
        assert r.min_eig_H >= kappa_predicted(r.t, p) - KAPPA_SLACK - eig_margin(h), (r.t, r.min_eig_H)
