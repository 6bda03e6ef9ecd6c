import numpy as np
import pytest

from relaxdiff import bands
from relaxdiff.integrate import trajectory


def random_symmetric_tensor(rng, n, scale=1.0):
    m = scale * rng.standard_normal((n, n))
    return 0.5 * (m + m.T)


def random_psd_tensor(rng, n, floor=0.0):
    m = rng.standard_normal((n, n))
    return m @ m.T + floor * np.eye(n)


def random_psd_field(rng, dims, n, floor=0.0):
    """A PSD tensor field, component-first: (n, n) + dims."""
    cells = int(np.prod(dims))
    m = rng.standard_normal((cells, n, n))
    field = np.einsum("cij,ckj->cik", m, m) / n + floor * np.eye(n)
    return np.moveaxis(field, 0, -1).reshape((n, n) + tuple(dims)).copy()


def step_nodes(u0, h0, p):
    """trajectory()'s records and copies of u and H at every step node, the initial one first."""
    records, us, hs = [], [u0], [h0]
    for state, record in trajectory(u0, h0, p):
        records.append(record)
        us.append(state.u.copy())
        hs.append(state.H.copy())
    return records, us, hs


def apply_in_order(h, g):
    """tensors.apply spelled out with ufuncs, one cell field per product.

    h is (kd, kd) + dims and g (k, d) + dims. Each output component sums its
    products h[a, b] g[b] in index order starting from +0.0.
    """
    kd = g.shape[0] * g.shape[1]
    gf = g.reshape((kd,) + g.shape[2:])
    out = np.empty_like(gf)
    for a in range(kd):
        total = np.zeros(gf.shape[1:])
        for b in range(kd):
            total = np.add(total, np.multiply(h[a, b], gf[b]))
        out[a] = total
    return out.reshape(g.shape)


def frobenius_sq_in_order(g):
    """D:D of every cell of a (k, d) + dims gradient field, spelled out with ufuncs.

    The squares of the components are summed in index order starting from
    +0.0: the order of tensors.apply, which the responses use.
    """
    kd = g.shape[0] * g.shape[1]
    gf = g.reshape((kd,) + g.shape[2:])
    total = np.zeros(gf.shape[1:])
    for a in range(kd):
        total = np.add(total, np.multiply(gf[a], gf[a]))
    return total


def smooth_image(n, k=3, amps=(0.6, 0.5, 0.4)):
    """Cosine-product test image with O(amp * pi / n) gradients."""
    x = (np.arange(n) + 0.5) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    chans = [
        amps[0] * np.cos(np.pi * xx) * np.cos(np.pi * yy),
        amps[1 % len(amps)] * np.cos(2 * np.pi * xx) * np.cos(np.pi * yy),
        amps[2 % len(amps)] * np.cos(np.pi * xx) * np.cos(2 * np.pi * yy),
    ]
    return np.stack(chans[:k], axis=-1)


def disk_image(n=64, radius=20.0, inside=(0.75, 0.70, 0.65), outside=(0.25, 0.30, 0.35)):
    """Piecewise-constant disk in [0, 1]; returns (image, radius map)."""
    c = (n - 1) / 2
    yy, xx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    r = np.sqrt((xx - c) ** 2 + (yy - c) ** 2)
    img = np.empty((n, n, 3))
    mask = r <= radius
    for ch in range(3):
        img[..., ch] = np.where(mask, inside[ch], outside[ch])
    return img, r


def rgb_scene():
    """The 64 x 64 RGB image of the memory and H digest tests: tiled and noisy."""
    rng = np.random.default_rng(8)
    tiles = rng.uniform(-0.8, 0.8, (8, 8, 3))
    return np.kron(tiles, np.ones((8, 8, 1))) + 0.1 * rng.standard_normal((64, 64, 3))


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)


@pytest.fixture
def set_workers(monkeypatch):
    """Let for_bands use up to `workers` bands, even on tiny fields."""
    monkeypatch.setattr(bands, "BAND_MIN_WORK", 1)
    return lambda workers: monkeypatch.setattr(bands, "WORKERS", workers)
