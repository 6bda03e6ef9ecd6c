"""Peak memory of init_H0, run(), the relaxation, the energy, the memory-form
check and the grey catte baseline, and of the banded field passes.

At 64 x 64 RGB one full-square H field is 6 x 6 float64 per cell, 1.7 MiB,
against 0.1 MiB for the image, so the fields of tensors set the peak, and it
is counted in full-square H fields (h_field_bytes), though H itself is held
packed, 21 of the 36 planes. In grey the tensors are 2 x 2, so the CG's
image-sized vectors and temporaries weigh as much as the tensors, and the
peak is counted in image fields. tracemalloc sees numpy's data buffers;
what a call still holds when it returns counts too.
"""

import contextlib
import io
import tracemalloc
from dataclasses import replace

import numpy as np

from relaxdiff.baselines import run_baseline
from relaxdiff.cli import main, save_image
from relaxdiff import grid as grid_mod
from relaxdiff.grid import divergence, face_average_tensors, flux, gradient, inner, mean_free
from relaxdiff.initial import init_H0
from relaxdiff.integrate import FilterParams, FilterState, _relax_H, energy, memory_form_check, run
from relaxdiff.mollifier import convolve
from relaxdiff.response import response_field, response_zero
from relaxdiff.tensors import unpack

from conftest import rgb_scene


def traced_peak(fn):
    """fn()'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def grey_scene():
    """The 128 x 128 grey image of the grey peaks: tiled and noisy, on [-1, 1]."""
    rng = np.random.default_rng(8)
    tiles = rng.uniform(-0.8, 0.8, (8, 8, 1))
    return np.kron(tiles, np.ones((16, 16, 1))) + 0.1 * rng.standard_normal((128, 128, 1))


def h_field_bytes(u):
    """Bytes of one full-square H field of the image u, (kd, kd) + dims in float64: the unit of the RGB bounds."""
    kd = u.shape[-1] * (u.ndim - 1)
    return kd * kd * (u.size // u.shape[-1]) * 8


def test_peaks_in_H_fields():
    u0 = rgb_scene()
    unit = h_field_bytes(u0)
    p = FilterParams(t_end=0.3)
    # init_H0's packed result (0.58) and its window sums of the gradient.
    h0, init_peak = traced_peak(lambda: init_H0(u0, window=5, alpha=0.1))
    # H0 exists before tracing starts: run()'s copy of it counts, H0 does
    # not. The main solve holds the peak: the packed H (0.58) and the
    # full-square face tensors are 1.58 H fields, the CG's vectors and the
    # operator's temporaries the rest (2.27; 2.35 while the CG made a
    # field-sized gradient per operator apply, which grid.flux forms chunk by
    # chunk). A full-square H would add 0.42.
    _, run_peak = traced_peak(lambda: run(u0, h0, p))
    # The CLI's sequence: init_H0's packed result, passed inline, is freed
    # once run() has copied it, so the sequence peaks as run() does (2.26,
    # 2.35 with the field-sized gradient; 2.94 while run() held its H0 to
    # the end).
    _, cli_peak = traced_peak(lambda: run(u0, init_H0(u0, window=5, alpha=0.1), p))
    assert init_peak <= 1.41 * unit, init_peak / unit
    assert run_peak <= 2.38 * unit, run_peak / unit
    assert cli_peak <= 2.40 * unit, cli_peak / unit


def test_relaxation_holds_F_as_21_planes():
    # _relax_H on the packed H: F is 21 planes, 0.58 of an H field, and the
    # mollified gradient, D:D and the response's coefficients add about
    # 0.31. A full-square F alone would be 1.0.
    u0 = rgb_scene()
    p = FilterParams(t_end=0.3)
    h = init_H0(u0, window=5, alpha=0.1)
    full = h_field_bytes(u0)
    _, peak = traced_peak(lambda: _relax_H(u0, h, p, p.kernel()))
    assert peak <= 0.92 * full, peak / full


def test_energy_sums_plane_by_plane_in_a_fraction_of_an_H_field():
    u0 = rgb_scene()
    p = FilterParams(t_end=0.3)
    state, _ = run(u0, init_H0(u0, window=5, alpha=0.1), p)
    # Reference: the mean-free term, then ||H - F(0)||^2 summed one entry
    # plane at a time in row-major order.
    f0 = unpack(response_zero(p.response, 3, 2))
    h = unpack(state.H)
    umf = mean_free(state.u)
    misfit = 0.0
    for a in range(f0.shape[0]):
        for b in range(f0.shape[1]):
            plane = h[a, b] - f0[a, b]
            misfit += inner(plane, plane)
    expected = 0.5 * inner(umf, umf) + 0.5 * p.tau * misfit
    got, peak = traced_peak(lambda: energy(state, p))
    assert got.hex() == expected.hex()
    # An image field (the mean-free u) is 1/12 of an H field and an entry
    # plane 1/36: nothing H-sized is made.
    assert peak <= 0.2 * h_field_bytes(u0), peak / h_field_bytes(u0)


def test_memory_form_check_peak_is_flat_in_the_step_count():
    # The steps arrive one at a time from trajectory(), so nothing grows
    # with their count: one bound holds at 3 and at 24 steps (measured 3.67
    # and 3.68 H fields, 3.68 and 3.73 with the CG's field-sized gradient;
    # a stored history took 7.02 and 21.02). q's update
    # and the squared gap run in place, in the older response sample, and
    # the gap's Frobenius sum adds its packed planes cell by cell (out of
    # place they took 5.47, and an unpacked gap 4.45). The bound allows 0.1
    # over the measured peak, less than one packed temporary (0.58).
    u0 = rgb_scene()
    h0 = init_H0(u0, window=5, alpha=0.1)
    unit = h_field_bytes(u0)
    p = FilterParams()
    for steps in (3, 24):
        _, peak = traced_peak(lambda: memory_form_check(u0, h0, replace(p, t_end=steps * p.dt)))
        assert peak <= 3.90 * unit, (steps, peak / unit)


def test_grey_catte_peak_in_image_fields():
    # The CG operator holds this peak, in the divergence of the flux: about
    # 10 image fields of the packed H (3), the face tensors (3, the packed
    # planes viewed as the 2 x 2 square) and CG vectors, the flux (2), and
    # the divergence's output and temporaries. At 128 x 128 grey every
    # kernel runs as one band, whatever the CPU count. The bound allows a
    # quarter of an image field over the 14.15 measured, less than any
    # temporary the size of an image field; square face tensors, with the
    # mirrored plane (1, 0), measured 15.14.
    u0 = grey_scene()
    _, peak = traced_peak(lambda: run_baseline(u0, FilterParams(t_end=0.3)))
    assert peak <= (14.15 + 0.25) * u0.nbytes, peak / u0.nbytes


def test_cli_holds_its_images_as_8_bit_samples(tmp_path):
    # cli.main in catte mode on that scene as a PGM, with a reference: the
    # run's peak, plus the filtered image the CLI hands to it and the input
    # and the reference as uint8, an eighth of an image field each. The
    # bound allows a quarter of an image field over the 15.53 measured; a
    # float64 copy of either image held through the run adds a whole one
    # (18.23 measured with both held).
    u0 = grey_scene()
    path = str(tmp_path / "scene.pgm")
    save_image((u0 + 1.0) * 0.5, path)
    argv = ["--input", path, "--reference", path, "--output", str(tmp_path / "out.pgm"),
            "--mode", "catte", "--t-end", "0.3"]
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code, peak = traced_peak(lambda: main(argv))
    assert code == 0 and "psnr_vs_reference=" in stdout.getvalue()
    assert peak <= (15.53 + 0.25) * u0.nbytes, peak / u0.nbytes


def test_band_threads_allocate_nothing(set_workers):
    # A band thread that allocates keeps the memory in its own malloc arena
    # after the band ends (relaxdiff.bands), so the banded passes allocate
    # only in the calling thread: the result, and the scratch they declare.
    # response_field: D:D and a, two cell fields at any band count.
    # convolve: the first pass's output and the pair buffers of the bands,
    # one image field in all. energy: the mean-free u and one plane per band.
    # gradient: nothing. divergence: at most FACE_AVERAGE_CHUNK values per
    # band. flux: the gradient of at most APPLY_CHUNK cells per band. At
    # 256 x 256 RGB half a cell field, 256 KiB, is twice the slack, which
    # holds the Python objects and numpy's iterator buffers of the
    # correlation's edge columns (measured up to 59 KiB). The gradient and
    # the divergence once allocated such buffers in every band, 194 KiB
    # each; their one-dimensional ufunc calls measured 1.5 to 4.3 KiB over
    # their result and scratch.
    u0 = np.random.default_rng(8).uniform(-1.0, 1.0, (256, 256, 3))
    p = FilterParams(t_end=0.3)
    dfield = gradient(u0)
    state = FilterState(t=0.0, u=u0, H=response_field(dfield, p.response))
    havg = face_average_tensors(state.H)
    kd = 6
    plane = 256 * 256 * 8
    slack = 1 << 17
    passes = {
        "gradient": (lambda: gradient(u0), lambda bands: 0),
        "divergence": (lambda: divergence(dfield), lambda bands: bands * grid_mod.FACE_AVERAGE_CHUNK * 8),
        "flux": (lambda: flux(havg, u0), lambda bands: bands * kd * grid_mod.APPLY_CHUNK * 8),
        "response_field": (lambda: response_field(dfield, p.response), lambda bands: 2 * plane),
        "convolve": (lambda: convolve(u0, p.kernel()), lambda bands: 2 * u0.nbytes),
        "energy": (lambda: energy(state, p), lambda bands: u0.nbytes + bands * plane),
    }
    for name, (call, scratch) in passes.items():
        peaks = {}
        for bands in (1, 2):
            set_workers(bands)
            call()  # the band threads start outside the traced call
            result, peaks[bands] = traced_peak(call)
            own = np.asarray(result).nbytes
            assert peaks[bands] <= own + scratch(bands) + slack, (name, bands, peaks[bands] - own - scratch(bands))
        assert peaks[2] <= peaks[1] + scratch(2) - scratch(1) + slack, (name, peaks)
