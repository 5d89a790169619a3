import math

import numpy as np
import pytest

from nsverify.dynamics import Snapshot, TrajectoryConfig, simulate
from nsverify.fields import FieldSpec, generate
from nsverify.ledger import LedgerContext, RecordsBuilder
from nsverify.similarity import frame
from nsverify.spectral import (
    RealVectorField,
    SpectralVectorField,
    build_grid,
    mode_energy,
    phys_to_spec,
    shell_sum,
    spec_to_phys,
    transform_forward,
)


@pytest.fixture(scope="session")
def grid16():
    return build_grid(16, 2.0 * math.pi)


@pytest.fixture(scope="session")
def grid32():
    return build_grid(32, 8.0 * math.pi)


def random_band_limited(grid, seed):
    """Random real vector field with only transform-representable content
    (the 2/3 band), suitable for exact round-trip checks."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((3, grid.n, grid.n, grid.n))
    w = transform_forward(RealVectorField(grid, noise))
    from nsverify.spectral import transform_inverse

    return transform_inverse(w)


# The rfftn half spectrum, shape (n, n, n//2 + 1), built here independently
# of the package, which keeps it private to its transforms.


def half_shape(grid):
    return (grid.n, grid.n, grid.n // 2 + 1)


def half_wavenumbers(grid):
    """Broadcastable integer wavenumbers ``(kx, ky, kz)`` of the half spectrum."""
    k = np.fft.fftfreq(grid.n, 1.0 / grid.n).astype(int)
    kz = np.arange(grid.n // 2 + 1)
    return k[:, None, None], k[None, :, None], kz[None, None, :]


def band_index(grid):
    """The half-spectrum rows of the band's rows, per axis and for ``kz``."""
    k = grid.dealias_kmax
    return np.r_[0 : k + 1, grid.n - k : grid.n], np.arange(k + 1)


def gather(half, grid):
    """The band entries of half-spectrum arrays ``(..., n, n, n//2 + 1)``."""
    rows, rows_z = band_index(grid)
    return half[(Ellipsis,) + np.ix_(rows, rows, rows_z)]


def scatter(coeffs, grid):
    """Band coefficients in the half spectrum, zero outside the band."""
    rows, rows_z = band_index(grid)
    out = np.zeros(coeffs.shape[:-3] + half_shape(grid), dtype=coeffs.dtype)
    out[(Ellipsis,) + np.ix_(rows, rows, rows_z)] = coeffs
    return out


def convective_term(u_hat):
    """Band coefficients of ``(u . grad) u`` from 12 inverse transforms, no
    projection applied: the convective form, an oracle independent of the
    package's rotational product. On the band the two differ by an exact
    gradient."""
    g = u_hat.grid
    u = spec_to_phys(u_hat.coeffs, g)
    out = np.empty_like(u)
    for k in range(3):
        acc = u[0] * spec_to_phys(1j * g.xi[0] * u_hat.coeffs[k], g)
        acc += u[1] * spec_to_phys(1j * g.xi[1] * u_hat.coeffs[k], g)
        acc += u[2] * spec_to_phys(1j * g.xi[2] * u_hat.coeffs[k], g)
        out[k] = acc
    return SpectralVectorField(g, phys_to_spec(out, g))


def zero_field(grid):
    return SpectralVectorField(grid, np.zeros((3,) + grid.xi_sq.shape, dtype=complex))


def derivative(w, beta):
    """``d^b1_x d^b2_y d^b3_z w`` through the multiplier ``(1j xi)**beta``."""
    mult = np.ones(w.grid.xi_sq.shape, dtype=complex)
    for axis, b in enumerate(beta):
        mult = mult * (1j * w.grid.xi[axis]) ** b
    return SpectralVectorField(w.grid, w.coeffs * mult)


def ledger_record(u, t, alpha=0.1):
    """The ledger's record of the field ``u`` at time ``t`` below the horizon
    ``T = 1`` (``s = sqrt(1 - t)``), read from a snapshot as :func:`simulate`
    emits it."""
    shells = shell_sum(mode_energy(u.coeffs), u.grid)
    snap = Snapshot(frame(t, 1.0), u, tail_fraction=0.0,
                    energy=float(shells.sum()), shell_energies=shells)
    return RecordsBuilder(LedgerContext(u.grid, alpha, 0.05)).feed(snap)


def random_solenoidal(grid, seed, target=1.0, cutoff=2.3):
    return generate(
        FieldSpec(
            "random_solenoidal",
            seed=seed,
            l2_norm_target=target,
            xi_cutoff=cutoff,
        ),
        grid,
    )


# An n=16 scenario of 11 samples (tau in [0, 0.2]) that runs in well under a
# second; its lemma2.1 residual is about 6% of the tolerance.
SMALL_SCENARIO = """schema_version = 1
n = 16
l_box = 12.566370614359172
tau_max = 0.2
dtau = 0.02
xi_cutoff = 2.0
checks = lemma2.1
"""


def small_run(grid, seed=0, tau_max=1.0, dtau=0.02, delta=0.05, alpha=0.1,
              nonlinear=True):
    """Short small-data trajectory with its record series, on a small grid."""
    u0 = random_solenoidal(grid, seed, target=delta)
    taus = np.arange(0.0, tau_max + 1e-9, dtau)
    cfg = TrajectoryConfig(
        n=grid.n, l_box=grid.l_box, t_horizon=1.0, dt_max=0.02, cfl=0.4,
        sample_taus=taus, delta=delta, alpha=alpha, nonlinear=nonlinear,
    )
    ctx = LedgerContext(grid, alpha, delta)
    builder = RecordsBuilder(ctx)
    snaps = []
    for snap in simulate(u0, cfg):
        builder.feed(snap)
        snaps.append(snap)
    return builder.finish(), snaps


@pytest.fixture(scope="session")
def small_series(grid32):
    series, _ = small_run(grid32)
    return series


@pytest.fixture(scope="session")
def long_series(grid32):
    series, _ = small_run(grid32, tau_max=5.0)
    return series
