"""Periodic-box spectral representation of 3-vector fields.

Conventions of the package:

* collocation points ``x_j = j * l_box / n`` per axis, arrays indexed
  ``[component, ix, iy, iz]``;
* a field on a :class:`Grid` stores its coefficients on the 2/3 band
  ``|kx|, |ky|, kz <= K`` (``K = dealias_kmax = (n - 1) // 3``), shape
  ``(3, 2K+1, 2K+1, K+1)``: the first two axes run over the signed integer
  wavenumbers ``k = 0 .. K, -K .. -1`` (band index ``k mod (2K+1)``), the
  last over ``kz = 0 .. K``, mapped to continuous frequencies ``xi = k * dxi``
  with ``dxi = 2*pi/l_box``. The modes with ``kz < 0`` are not stored: a real
  field has ``coeff(-k) == conj(coeff(k))``;
* every full-lattice sum is a sum over lattice shells ``|xi| = const``
  (:func:`shell_sum`, :attr:`Grid.shell_radii`), followed by numpy's own
  ``sum`` where one number is wanted. :func:`shell_sum` is the one place that
  weights a stored mode by its multiplicity (:attr:`Grid.multiplicity`: 1 on
  the self-conjugate plane ``kz = 0``, 2 elsewhere), and it calls no BLAS, so
  no sum depends on the BLAS thread count;
* unitary normalization: ``coeffs = rfftn(samples) * l_box**1.5 / n**3`` on
  the band, so the discrete Parseval identity ``sum m |coeffs|^2 == sum
  |samples|^2 * (l_box/n)^3`` holds without extra constants for band-limited
  samples.

The band holds every mode a dealiased field can use, 28 % of the ``rfftn``
half spectrum at n=32 and 30 % at n=64, and products of band fields are
alias-free on it. The half spectrum exists only inside the transforms. They
run the passes of pocketfft's multi-axis ``c2r``/``r2c`` themselves and skip
the zero ``kz > K`` planes, a pruned transform (Frigo & Johnson, Proc. IEEE
93, 2005). The inverse scatters the scaled band into zeroed ``kz <= K``
planes, transforms them over x and y into a zeroed half spectrum and that
along z, one component at a time: a batch of nine n=32 components is about
2.5 MB, more than a typical 2 MB L2 cache, while one component stays in
cache. The forward transforms along z, then over x and y on the ``kz <= K``
planes, and gathers the band, which is the 2/3 truncation. A pass's result on
a line does not depend on the other lines it covers, so the results are
bitwise ``irfftn``/``rfftn``'s. pocketfft's own entry points take ``out=``;
``scipy.fft``'s wrappers copy input and result, which ate most of the saving.
The inverse's ``1/n^3`` is one multiply per sample after the last pass, the
way ``c2r`` applies its factor, so it is bitwise too (tested at n = 16, 24,
32 and 48).
"""

from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.fft._pocketfft import pypocketfft

from .errors import ConfigurationError, GridMismatchError


@functools.cache
def fft_workers() -> int:
    """The FFT thread count ``NSVERIFY_FFT_WORKERS``, read once, 1 when unset.
    A value that is not a positive integer raises ConfigurationError."""
    text = os.environ.get("NSVERIFY_FFT_WORKERS", "1")
    if text.isdigit() and int(text) > 0:
        return int(text)
    raise ConfigurationError(
        f"NSVERIFY_FFT_WORKERS must be a positive integer, got {text!r}")


# Fixed glibc malloc thresholds: blocks up to 32 MB come from the heap, and the
# heap gives memory back only past 64 MB free at its top. With the dynamic
# defaults every tendency at n=32 returned a ~0.8 MB temporary to the kernel
# and faulted it back in (about 190 page faults a call, 100k a trajectory).
try:
    ctypes.CDLL(None).mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    ctypes.CDLL(None).mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
except (OSError, AttributeError):  # not glibc
    pass


@dataclass(frozen=True)
class Grid:
    """Cubic periodic grid with cached frequency arrays on its 2/3 band.

    Read-only attributes: ``dealias_kmax``, the band's reach ``K``;
    ``wavenumbers``, the signed integer wavenumbers of a band axis in stored
    order ``0 .. K, -K .. -1``; ``xi``, broadcastable ``(xi_x, xi_y, xi_z)``
    with ``xi_z`` over ``kz = 0 .. K``; per stored mode ``xi_sq``, ``xi_mag``,
    ``inv_xi_sq`` (zero mode mapped to 0) and ``multiplicity``, the number
    of lattice modes each stored mode stands for (1 on the ``kz = 0`` plane,
    2 elsewhere, where the conjugate is not stored); the lattice shells
    ``shell_radii``, the distinct ``|xi|`` values of the band,
    ``shell_index``, the shell of each stored mode (flattened), and
    ``tail_shells``, the shells above two thirds of Nyquist, ``9 |k|^2 >
    n^2`` on the integer ``|k|^2``. A flattened band visits its modes in the
    order of the ``rfftn`` half spectrum.
    """

    n: int
    l_box: float
    dxi: float = field(init=False)

    def __post_init__(self):
        n = self.n

        def put(name, value):
            object.__setattr__(self, name, value)

        put("dxi", 2.0 * np.pi / self.l_box)
        kmax = (n - 1) // 3  # products of band fields are alias-free
        put("dealias_kmax", kmax)
        k = np.r_[0 : kmax + 1, -kmax:0]
        kz = np.arange(kmax + 1)
        put("wavenumbers", k)
        xi1d = k * self.dxi
        xi = (
            xi1d[:, None, None],
            xi1d[None, :, None],
            (kz * self.dxi)[None, None, :],
        )
        put("xi", xi)
        xi_sq = xi[0] ** 2 + xi[1] ** 2 + xi[2] ** 2
        put("xi_sq", xi_sq)
        put("xi_mag", np.sqrt(xi_sq))
        mult = np.where(kz == 0, 1.0, 2.0)
        put("multiplicity", np.broadcast_to(mult, xi_sq.shape).copy())
        inv = np.zeros_like(xi_sq)
        nz = xi_sq > 0
        inv[nz] = 1.0 / xi_sq[nz]
        put("inv_xi_sq", inv)
        # a lattice shell is one value of the integer |k|^2
        k_sq = (k**2)[:, None, None] + (k**2)[None, :, None] + (kz**2)[None, None, :]
        present = np.zeros(k_sq.max() + 1, dtype=bool)
        present[k_sq.ravel()] = True
        shells = np.flatnonzero(present)
        put("shell_radii", np.sqrt(shells) * self.dxi)
        put("shell_index", (np.cumsum(present) - 1)[k_sq.ravel()])
        put("tail_shells", 9 * shells > n * n)
        # (band block, half-spectrum block) pairs, per axis k >= 0 first,
        # then k < 0; the transforms map between the two layouts with them
        rows = ((slice(0, kmax + 1), slice(0, kmax + 1)),
                (slice(kmax + 1, None), slice(n - kmax, n)))
        put("_blocks", [
            ((Ellipsis, bx, by, slice(None)),
             (Ellipsis, hx, hy, slice(0, kmax + 1)))
            for bx, hx in rows for by, hy in rows
        ])

    @property
    def cell_volume(self) -> float:
        return (self.l_box / self.n) ** 3

    def axes(self) -> tuple:
        """Collocation coordinates per axis."""
        x = np.arange(self.n) * (self.l_box / self.n)
        return (x[:, None, None], x[None, :, None], x[None, None, :])

    def __eq__(self, other):
        return (
            isinstance(other, Grid) and self.n == other.n and self.l_box == other.l_box
        )

    def __hash__(self):
        return hash((self.n, self.l_box))


def build_grid(n: int, l_box: float) -> Grid:
    """Validate parameters and construct a :class:`Grid`.

    ``n`` must be even and at least 8; ``l_box`` positive.
    """
    if not isinstance(n, (int, np.integer)):
        raise ConfigurationError(f"grid size must be an integer, got {n!r}")
    if n < 8 or n % 2 != 0:
        raise ConfigurationError(f"grid size must be even and >= 8, got {n}")
    if not l_box > 0:
        raise ConfigurationError(f"box length must be positive, got {l_box}")
    return Grid(int(n), float(l_box))


@dataclass
class SpectralVectorField:
    """Three-component real vector field stored as Fourier coefficients."""

    grid: Grid
    # (3, 2K+1, 2K+1, K+1) complex128: the 2/3 band, modes with kz < 0
    # implied by conjugate symmetry; full-lattice sums go through shell_sum
    coeffs: np.ndarray

    def __post_init__(self):
        expected = (3,) + self.grid.xi_sq.shape
        if self.coeffs.shape != expected:
            raise ConfigurationError(
                f"coefficient array has shape {self.coeffs.shape}, expected {expected}"
            )


@dataclass
class RealVectorField:
    """Three-component vector field sampled at collocation points."""

    grid: Grid
    samples: np.ndarray  # (3, n, n, n) float64

    def __post_init__(self):
        expected = (3, self.grid.n, self.grid.n, self.grid.n)
        if self.samples.shape != expected:
            raise ConfigurationError(
                f"sample array has shape {self.samples.shape}, expected {expected}"
            )


# -- transforms (real fields, 2/3 band) ----------------------------------------


def phys_to_spec(samples: np.ndarray, grid: Grid) -> np.ndarray:
    """Real samples (..., n, n, n) to unitary band coefficients: pocketfft's
    ``r2c`` along z, its ``c2c`` over x and y on the ``kz <= K`` planes only,
    in place, then the band gathered out of the half spectrum, which is the
    2/3 truncation. The samples are left as they are."""
    axis = samples.ndim - 1
    half = pypocketfft.r2c(samples, (axis,), True, 0, None, fft_workers())
    low = half[..., : grid.dealias_kmax + 1]
    pypocketfft.c2c(low, (axis - 2, axis - 1), True, 0, low, fft_workers())
    out = np.empty(samples.shape[:-3] + grid.xi_sq.shape, dtype=complex)
    scale = grid.l_box**1.5 / grid.n**3
    for b, h in grid._blocks:
        np.multiply(half[h], scale, out=out[b])
    return out


def spec_to_phys(
    coeffs: np.ndarray, grid: Grid, out: np.ndarray | None = None
) -> np.ndarray:
    """Unitary band coefficients of real fields (..., 2K+1, 2K+1, K+1) back
    to samples (..., n, n, n), one component at a time: pocketfft's ``c2c``
    over x and y on the ``kz <= K`` planes, its ``c2r`` along z, then
    ``1/n^3``. The coefficients are left as they are.

    With ``out`` the samples are written into that array (any float64 view
    of shape ``coeffs.shape[:-3] + (n, n, n)``, such as the first eight
    slots of a flattened gradient tensor) and it is returned; the samples
    are bitwise the same either way.
    """
    n, planes = grid.n, grid.dealias_kmax + 1  # kz = 0 .. K
    if out is None:
        out = np.empty(coeffs.shape[:-3] + (n, n, n))
    # scaling the contiguous band, then copying, beats scaling into the
    # strided blocks of the padded planes
    scaled = coeffs * (n**3 / grid.l_box**1.5)
    # no pass writes into its input, so the zeros outside the band stay
    low = np.zeros((n, n, planes), dtype=complex)
    half = np.zeros((n, n, n // 2 + 1), dtype=complex)
    workers = fft_workers()
    for idx in np.ndindex(coeffs.shape[:-3]):
        component = scaled[idx]
        for b, h in grid._blocks:
            low[h] = component[b]
        pypocketfft.c2c(low, (0, 1), False, 0, half[..., :planes], workers)
        samples = out[idx]
        pypocketfft.c2r(half, (2,), n, False, 0, samples, workers)
        samples *= 1.0 / n**3
    return out


def transform_forward(f: RealVectorField) -> SpectralVectorField:
    """Forward transform, truncated to the 2/3 band."""
    return SpectralVectorField(f.grid, phys_to_spec(f.samples, f.grid))


def transform_inverse(w: SpectralVectorField) -> RealVectorField:
    """Inverse transform to collocation samples (real by construction)."""
    return RealVectorField(w.grid, spec_to_phys(w.coeffs, w.grid))


# -- full-lattice sums ---------------------------------------------------------


def shell_sum(density: np.ndarray, grid: Grid) -> np.ndarray:
    """Full-lattice sum of a per-mode density over each lattice shell, in the
    order of ``grid.shell_radii``: a density even in ``xi`` (such as
    ``weight(|xi|) * |coeff|^2``), given on the stored band modes, weighted
    by their multiplicity and added up shell by shell in the band's order."""
    return np.bincount(
        grid.shell_index,
        weights=(grid.multiplicity * density).ravel(),
        minlength=grid.shell_radii.size,
    )


def parseval_pair(a: np.ndarray, b: np.ndarray, grid: Grid) -> float:
    """Full-lattice ``Re sum_i conj(a_i) b_i`` of two real vector fields'
    band coefficients."""
    return float(shell_sum((np.conj(a) * b).real.sum(axis=0), grid).sum())


def mode_energy(coeffs: np.ndarray) -> np.ndarray:
    """Per-mode ``|c_0|^2 + |c_1|^2 + |c_2|^2`` of vector coefficients."""
    return np.abs(coeffs[0]) ** 2 + np.abs(coeffs[1]) ** 2 + np.abs(coeffs[2]) ** 2


# -- operators ---------------------------------------------------------------


def curl(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Band coefficients ``i xi x c`` of the curl of a vector field."""
    out = np.empty_like(coeffs)
    term = np.empty_like(coeffs[0])
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(grid.xi[j], coeffs[k], out=out[i])
        np.multiply(grid.xi[k], coeffs[j], out=term)
        out[i] -= term
    out *= 1j
    return out


def leray_project(w: SpectralVectorField) -> SpectralVectorField:
    """Project onto divergence-free fields: ``I - xi xi^T / |xi|^2`` per mode.

    The zero mode is left unchanged. Idempotent and self-adjoint with respect
    to :func:`l2_inner`.
    """
    g = w.grid
    div = (
        g.xi[0] * w.coeffs[0] + g.xi[1] * w.coeffs[1] + g.xi[2] * w.coeffs[2]
    )
    div *= g.inv_xi_sq
    out = np.empty_like(w.coeffs)
    for c in range(3):
        np.multiply(g.xi[c], div, out=out[c])
        np.subtract(w.coeffs[c], out[c], out=out[c])
    return SpectralVectorField(g, out)


def l2_inner(a: SpectralVectorField, b: SpectralVectorField) -> float:
    """L2 pairing ``int a . b dx`` via the Parseval sum (real part)."""
    if a.grid != b.grid:
        raise GridMismatchError("fields live on different grids")
    return parseval_pair(a.coeffs, b.coeffs, a.grid)


def l2_norm_sq(a: SpectralVectorField) -> float:
    return float(shell_sum(mode_energy(a.coeffs), a.grid).sum())


def l2_norm(a: SpectralVectorField) -> float:
    return float(np.sqrt(l2_norm_sq(a)))


def solenoidal_error(w: SpectralVectorField) -> float:
    """Worst per-mode ratio ``|xi . w_hat| / ||w_hat(xi)||`` over active modes."""
    g = w.grid
    dot = np.abs(
        g.xi[0] * w.coeffs[0] + g.xi[1] * w.coeffs[1] + g.xi[2] * w.coeffs[2]
    )
    mag = np.sqrt(mode_energy(w.coeffs))
    scale = mag.max()
    if scale == 0.0:
        return 0.0
    active = mag > 1e-13 * scale
    if not active.any():
        return 0.0
    return float((dot[active] / mag[active]).max())


def tail_fraction(shell_energy: np.ndarray, grid: Grid) -> float:
    """Energy fraction above two thirds of Nyquist (``grid.tail_shells``) of
    the field whose shell energies are ``shell_energy``."""
    total = shell_energy.sum()
    if total == 0.0:
        return 0.0
    return float(shell_energy[grid.tail_shells].sum() / total)
