import math

import numpy as np
import pytest

from nsverify.dynamics import TrajectoryConfig, simulate
from nsverify.fields import FieldSpec, generate
from nsverify.ledger import LedgerContext, RecordsBuilder
from nsverify.spectral import RealVectorField, build_grid, transform_forward


@pytest.fixture(scope="session")
def grid16():
    return build_grid(16, 2.0 * math.pi)


@pytest.fixture(scope="session")
def grid32():
    return build_grid(32, 8.0 * math.pi)


def random_band_limited(grid, seed):
    """Random real vector field with only transform-representable content
    (Nyquist-free), suitable for exact round-trip checks."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((3, grid.n, grid.n, grid.n))
    w = transform_forward(RealVectorField(grid, noise))
    from nsverify.spectral import transform_inverse

    return transform_inverse(w)


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
