"""Pseudospectral time integration of incompressible Navier-Stokes.

Unit viscosity, periodic box, pressure eliminated by projection:

    du_hat/dt = -|xi|^2 u_hat - P[F[(u . grad) u]]

The quadratic term is formed in physical space and truncated to the 2/3
band, which makes every retained product mode an exact Galerkin
convolution. Time stepping is classical RK4 on the integrating-factor
transform ``v = exp(|xi|^2 t) u_hat``: the viscous factor is treated exactly,
so the linear problem is integrated without error regardless of step size.

The quadratic term takes the rotational form ``(u.grad)u = grad |u|^2/2 -
u x curl u`` (Canuto, Hussaini, Quarteroni & Zang, Spectral Methods, 2006,
3.4), whose gradient the projection removes, and :func:`rotational_product`,
the package's one quadratic product, forms ``F[u x curl u]``.

:func:`simulate` steps at its cap, not at the samples. Samples uniform in
``tau`` crowd together in ``t``, so a step that ended on each would fall
short of ``min(dt_max, CFL cap)``. Instead every step divides the time left
to the last sample into the fewest equal steps the cap at that step's start
allows, and takes the first of them; only the last step is bound to end on a
sample. A sample strictly inside a step is the step's dense output: the
classical RK4 continuous extension (Hairer, Norsett & Wanner, Solving ODEs
I, II.6) of ``v``, built from the step's own four stages, so the linear part
is exact there too and the local error is O(h^4).

Every field is held on the grid's 2/3 band (:mod:`nsverify.spectral`):
the state, the four stages, the viscous factors and the products. The
forward transform of a product is its truncation to the band.

The integrator computes nothing for the ledger: a nonlinear trajectory costs
exactly four tendency evaluations per step, and a snapshot carries the field
(a copy of its band coefficients), its shell energies (one
:func:`~nsverify.spectral.shell_sum` of its mode energies), and the energy
and tail fraction read from them. The ledger and the weak form read the
shell energies too, and compute none of their own. The
ledger forms the energy transfer from its own samples of ``u`` and ``omega``
with :func:`rotational_product` (:mod:`nsverify.ledger`), and so does the weak
form's advection pairing (:func:`weak_integrands`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    EnergyIncreaseError,
    RescaleError,
    ResolutionError,
    StepSizeError,
)
from .similarity import SimilarityFrame, frame, t_of_tau
from .spectral import (
    Grid,
    SpectralVectorField,
    curl,
    l2_norm,
    leray_project,
    mode_energy,
    parseval_pair,
    phys_to_spec,
    shell_sum,
    solenoidal_error,
    spec_to_phys,
    tail_fraction,
)

__all__ = [
    "SimState",
    "TrajectoryConfig",
    "Snapshot",
    "nse_rhs",
    "rotational_product",
    "step",
    "simulate",
    "rescale_data",
    "TestField",
    "make_test_field",
    "weak_integrands",
    "weak_residual",
]

# the resolution guard: a sample whose spectral tail fraction exceeds this
# raises ResolutionError (exit code 3)
TAIL_LIMIT = 1e-8


@dataclass
class SimState:
    t: float
    u_hat: SpectralVectorField


@dataclass
class Snapshot:
    """One emitted sample: its frame, the field on the grid's 2/3 band, and
    the field's energy, tail fraction (:func:`spectral.tail_fraction`) and
    per-shell energies (:func:`spectral.shell_sum` of its mode energies)."""

    frame: SimilarityFrame
    u_hat: SpectralVectorField
    tail_fraction: float
    energy: float
    shell_energies: np.ndarray


@dataclass
class TrajectoryConfig:
    n: int
    l_box: float
    t_horizon: float = 1.0
    dt_max: float = 0.02
    cfl: float = 0.4
    sample_taus: Sequence[float] = ()
    delta: float = 0.05
    alpha: float = 0.1
    nonlinear: bool = True

    def __post_init__(self):
        taus = np.asarray(self.sample_taus, dtype=float)
        if taus.size < 1:
            raise ConfigurationError("sample_taus must contain at least one value")
        if np.any(np.diff(taus) <= 0):
            raise ConfigurationError("sample_taus must be strictly increasing")
        if not self.delta > 0:
            raise ConfigurationError("delta must be positive")
        if not 0.0 < self.alpha < 0.125:
            raise ConfigurationError("alpha must lie in (0, 1/8)")
        if not self.t_horizon > 0:
            raise ConfigurationError("horizon must be positive")
        if taus[0] < -math.log(self.t_horizon) - 1e-12:
            raise ConfigurationError("first sample tau precedes t = 0")
        if not self.dt_max > 0:
            raise ConfigurationError("dt_max must be positive")
        if not self.cfl > 0:
            raise ConfigurationError("cfl must be positive")
        self.sample_taus = taus


# -- tendencies ---------------------------------------------------------------


def rotational_product(u: np.ndarray, vort: np.ndarray, grid: Grid) -> np.ndarray:
    """Band coefficients of ``u x omega`` from the samples of ``u`` and
    ``omega``. The forward transform truncates the product to the 2/3 band,
    where every retained mode is an exact Galerkin convolution."""
    out = np.empty_like(u)
    term = np.empty_like(u[0])
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(u[j], vort[k], out=out[i])
        np.multiply(u[k], vort[j], out=term)
        out[i] -= term
    return phys_to_spec(out, grid)


def _nonlinear_tendency(c: np.ndarray, grid: Grid) -> np.ndarray:
    """Projected nonlinear tendency ``-P[(u.grad)u] = P[F[u x curl u]]`` of
    the band coefficients ``c``: one inverse call takes ``u`` and its
    vorticity to samples."""
    samples = spec_to_phys(np.concatenate((c, curl(c, grid))), grid)
    product = rotational_product(samples[:3], samples[3:], grid)
    return leray_project(SpectralVectorField(grid, product)).coeffs


def nse_rhs(
    u_hat: SpectralVectorField, nonlinear: bool = True, form: str = "rotational"
) -> SpectralVectorField:
    """Full tendency ``-P[F[(u.grad)u]] - |xi|^2 u_hat``.

    The projected quadratic term is orthogonal to the field, so it moves no
    energy; with ``nonlinear=False`` only the viscous part remains. ``form``
    names the quadratic term's form; ``"rotational"`` is the only one.
    """
    if form != "rotational":
        raise ConfigurationError(f"unknown advection form {form!r}")
    g = u_hat.grid
    out = -g.xi_sq * u_hat.coeffs
    if nonlinear:
        out = out + _nonlinear_tendency(u_hat.coeffs, g)
    return SpectralVectorField(g, out)


# -- stepping ------------------------------------------------------------------


def _amplitude_bound(u_hat: SpectralVectorField) -> float:
    """Cheap upper bound on ``max_x |u(x)|``: per component the full-lattice
    ``sum |c|``."""
    g = u_hat.grid
    sums = np.array([shell_sum(np.abs(c), g).sum() for c in u_hat.coeffs])
    return float(np.sqrt((sums**2).sum()) / g.l_box**1.5)


def _cfl_cap(u_hat: SpectralVectorField, cfg: TrajectoryConfig) -> float:
    dx = u_hat.grid.l_box / u_hat.grid.n
    bound = _amplitude_bound(u_hat)
    if bound <= 0.0:
        return cfg.dt_max
    return min(cfg.dt_max, cfg.cfl * dx / bound)


def _ifrk4(
    u_hat: SpectralVectorField, dt: float, cfg: TrajectoryConfig
) -> tuple[SpectralVectorField, tuple | None]:
    """One integrating-factor RK4 step; it evaluates all four stages itself.

    Returns the new field and the four stage tendencies ``(a, b, c, d)`` for
    :func:`_dense_output` (``None`` for linear dynamics).
    """
    g = u_hat.grid
    half = np.exp(g.xi_sq * (-dt / 2.0))
    full = half * half
    c = u_hat.coeffs
    if not cfg.nonlinear:
        return SpectralVectorField(g, c * full), None

    a = _nonlinear_tendency(c, g)
    stage = a * (dt / 2.0)
    stage += c
    stage *= half
    b = _nonlinear_tendency(stage, g)
    hc = half * c
    stage = b * (dt / 2.0)
    stage += hc
    cc = _nonlinear_tendency(stage, g)
    fc = half * hc
    stage = half * cc
    stage *= dt
    stage += fc
    d = _nonlinear_tendency(stage, g)
    acc = b + cc
    acc *= 2.0
    acc *= half
    acc += full * a
    acc += d
    acc *= dt / 6.0
    acc += fc
    return SpectralVectorField(g, acc), (a, b, cc, d)


def _dense_output(
    c0: np.ndarray, stages: tuple | None, h: float, theta: float, grid: Grid
) -> np.ndarray:
    """State at ``t0 + theta*h`` inside the IF-RK4 step of size ``h`` that
    starts from ``c0`` and has the given ``stages``.

    With ``E(s) = exp(-|xi|^2 s)`` this is the RK4 continuous extension of
    the integrating-factor variable mapped back to ``u``:

        E(theta h)(c0 + h b1 a) + E((theta - 1/2) h) h b2 (b + c)
            + E((theta - 1) h) h b4 d

    with ``b1 = theta - 3 theta^2/2 + 2 theta^3/3``, ``b2 = theta^2 -
    2 theta^3/3`` and ``b4 = -theta^2/2 + 2 theta^3/3``; at ``theta = 1`` it
    is the step's end state. On the 2/3 band the growth factors stay finite
    on large grids.
    """
    xs = grid.xi_sq
    decay = np.exp(xs * (-theta * h))
    if stages is None:
        return decay * c0
    a, b, c, d = stages
    t2 = theta * theta
    t3 = t2 * theta
    b1 = theta - 1.5 * t2 + t3 * (2.0 / 3.0)
    b2 = t2 - t3 * (2.0 / 3.0)
    b4 = -0.5 * t2 + t3 * (2.0 / 3.0)
    out = a * (h * b1)
    out += c0
    out *= decay
    out += np.exp(xs * ((0.5 - theta) * h)) * ((b + c) * (h * b2))
    out += np.exp(xs * ((1.0 - theta) * h)) * (d * (h * b4))
    return out


# relative slack of a step over its cap: it absorbs the rounding of a span
# divided into equal steps
STEP_SLACK = 1e-12


def step(state: SimState, dt: float, cfg: TrajectoryConfig) -> SimState:
    """Advance one step of size ``dt``; validates the step against ``dt_max``
    and the advective CFL bound before moving."""
    if not dt > 0:
        raise StepSizeError(f"step size must be positive, got {dt}")
    if dt > cfg.dt_max * (1.0 + STEP_SLACK):
        raise StepSizeError(f"step size {dt} exceeds dt_max {cfg.dt_max}")
    cap = _cfl_cap(state.u_hat, cfg)
    if dt > cap * (1.0 + STEP_SLACK):
        raise StepSizeError(f"step size {dt} violates the CFL cap {cap:.3e}")
    new, _ = _ifrk4(state.u_hat, dt, cfg)
    return SimState(state.t + dt, new)


def _prepare_initial(u0: SpectralVectorField, cfg: TrajectoryConfig) -> SpectralVectorField:
    g = u0.grid
    if (g.n, g.l_box) != (cfg.n, cfg.l_box):
        raise ConfigurationError("initial field grid does not match the config")
    norm = l2_norm(u0)
    # entry contract: data is rescaled so ||u0|| = delta; the zero field
    # stays zero and yields the all-zero trajectory
    scale = cfg.delta / norm if norm > 0.0 else 1.0
    return SpectralVectorField(g, u0.coeffs * scale)


def initial_from_snapshot(path) -> tuple[SpectralVectorField, float]:
    """Load initial data from a snapshot file; returns the projected spectral
    field and the stored time stamp."""
    from .snapshot_io import read_snapshot
    from .spectral import transform_forward

    fld, t = read_snapshot(path)
    u_hat = leray_project(transform_forward(fld))
    return u_hat, t


def simulate(
    u0: SpectralVectorField,
    cfg: TrajectoryConfig,
) -> Iterator[Snapshot]:
    """Integrate from ``t = 0`` and yield a snapshot at every sample tau.

    The initial data is rescaled to ``||u0|| = delta`` on entry. Each step
    reads ``cap = min(dt_max, CFL cap)`` at its own start and ``rest``, the
    time left to the last sample, and takes ``h = rest / ceil(rest / cap)``,
    the ceiling taken with :data:`STEP_SLACK`'s relative slack. The last step
    ends on the last sample, and no step ends early for a sample in between.
    A sample strictly inside a step is the step's RK4 dense output
    (:func:`_dense_output`); a sample on a step end is the step's own result.
    Emitted fields are fresh arrays on ``u0.grid``, safe to hold and to
    modify across iterations; energy monotonicity and the spectral-tail guard
    are enforced sample by sample.
    Emitting a sample evaluates no tendency, so a nonlinear trajectory costs
    exactly ``4 * steps`` tendency evaluations.
    """
    grid = u0.grid
    u = _prepare_initial(u0, cfg)
    times = [t_of_tau(tau, cfg.t_horizon) for tau in cfg.sample_taus]
    t = 0.0
    prev_energy = math.inf

    def sample(i: int, t_i: float, coeffs: np.ndarray) -> Snapshot:
        nonlocal prev_energy
        shell_e = shell_sum(mode_energy(coeffs), grid)
        energy = float(shell_e.sum())
        if energy > prev_energy * (1.0 + 1e-12):
            raise EnergyIncreaseError(
                f"energy increased between samples ({prev_energy} -> {energy})"
            )
        prev_energy = energy
        tail = tail_fraction(shell_e, grid)
        if tail > TAIL_LIMIT:
            raise ResolutionError(
                f"spectral tail fraction {tail:.3e} above "
                f"{TAIL_LIMIT:.1e} at tau = {cfg.sample_taus[i]:.4f}"
            )
        return Snapshot(
            frame=frame(t_i, cfg.t_horizon),
            u_hat=SpectralVectorField(grid, coeffs.copy()),
            tail_fraction=tail,
            energy=energy,
            shell_energies=shell_e,
        )

    i = 0
    while True:
        while i < len(times) and times[i] - t <= 1e-15:
            yield sample(i, t, u.coeffs)
            i += 1
        if i == len(times):
            return
        rest = times[-1] - t
        nsteps = math.ceil(rest / (_cfl_cap(u, cfg) * (1.0 + STEP_SLACK)))
        h = rest / nsteps
        end, stages = _ifrk4(u, h, cfg)
        t_end = times[-1] if nsteps == 1 else t + h
        while times[i] - t_end < -1e-15:
            inside = _dense_output(u.coeffs, stages, h, (times[i] - t) / h, grid)
            yield sample(i, times[i], inside)
            i += 1
        stages = None  # free the four stage arrays before the next step
        u, t = end, t_end


# -- symmetry ------------------------------------------------------------------

_ACTIVE_TOL = 1e-9  # of the peak magnitude: below it a mode counts as inactive


def rescale_data(u0: SpectralVectorField, lam: int) -> SpectralVectorField:
    """Dilation ``u(x) -> lam * u(lam x)`` on the fixed box.

    Integer ``lam`` keeps periodicity: the coefficient at wavenumber ``k``
    moves to ``lam * k`` with amplitude multiplied by ``lam`` (so the fixed-box
    L2 norm is multiplied by ``lam``); the stored ``kz >= 0`` half maps onto
    itself. Raises if an active mode would leave the 2/3 band; inactive modes
    (below ``_ACTIVE_TOL`` of the peak magnitude) are dropped, which lets
    evolved fields (whose band is populated at rounding level) be dilated.
    """
    if not isinstance(lam, (int, np.integer)) or lam < 1:
        raise RescaleError(f"dilation factor must be a positive integer, got {lam}")
    g = u0.grid
    if lam == 1:
        return SpectralVectorField(g, u0.coeffs.copy())
    kmax = g.dealias_kmax
    k = g.wavenumbers
    kz = np.arange(kmax + 1)
    valid = np.abs(lam * k) <= kmax
    valid_z = lam * kz <= kmax
    mags = np.abs(u0.coeffs).sum(axis=0)
    threshold = _ACTIVE_TOL * mags.max()
    escaped = max(
        mags[~valid, :, :].max(initial=0.0),
        mags[:, ~valid, :].max(initial=0.0),
        mags[:, :, ~valid_z].max(initial=0.0),
    )
    if escaped > threshold:
        raise RescaleError(
            f"dilation by {lam} pushes active frequencies outside the 2/3 band"
        )
    tgt = (lam * k[valid]) % (2 * kmax + 1)
    out = np.zeros_like(u0.coeffs)
    out[np.ix_(range(3), tgt, tgt, lam * kz[valid_z])] = lam * u0.coeffs[
        np.ix_(range(3), valid, valid, valid_z)
    ]
    return SpectralVectorField(g, out)


# -- weak form -----------------------------------------------------------------


@dataclass
class TestField:
    """Space-time test field ``phi(x, t) = theta(t) * v(x)`` with the compactly
    supported envelope ``theta = sin^4(pi z)``, ``z = (t-t0)/(t1-t0)``.

    At the support ends ``theta`` is C^3 and ``theta_dot`` is C^2, so the
    weak-form integrand is smooth enough for composite Simpson to keep its
    fourth order when ``t0``, ``t1`` fall between sample nodes (``sin^2``
    leaves a kink in ``theta_dot`` and caps it at second order).
    """

    spatial: SpectralVectorField
    t_start: float
    t_end: float

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise DomainError("test-field support must have positive length")

    def envelope(self, t: float) -> float:
        if t <= self.t_start or t >= self.t_end:
            return 0.0
        z = (t - self.t_start) / (self.t_end - self.t_start)
        return math.sin(math.pi * z) ** 4

    def envelope_rate(self, t: float) -> float:
        if t <= self.t_start or t >= self.t_end:
            return 0.0
        width = self.t_end - self.t_start
        z = (t - self.t_start) / width
        sin = math.sin(math.pi * z)
        return 4.0 * math.pi / width * sin**3 * math.cos(math.pi * z)

    def active(self, t: float) -> bool:
        """Whether the envelope or its rate is nonzero at ``t``."""
        return (self.envelope(t), self.envelope_rate(t)) != (0.0, 0.0)


def make_test_field(grid: Grid, seed: int, t_start: float, t_end: float) -> TestField:
    """Random band-limited solenoidal test field with the C^3 ``sin^4`` time
    envelope of :class:`TestField`, supported on ``[t_start, t_end]``; its
    spectrum fills 0.9 of the 2/3 band's radius."""
    from .fields import FieldSpec, generate

    spec = FieldSpec(
        "random_solenoidal",
        seed=seed,
        spectrum_slope=1.0,
        l2_norm_target=1.0,
        xi_cutoff=0.9 * (grid.dealias_kmax * grid.dxi),
    )
    return TestField(generate(spec, grid), t_start, t_end)


def weak_integrands(
    snapshots: Sequence[Snapshot], testfields: Sequence[TestField]
) -> list:
    """Per solenoidal test field, ``(taus, values, scales)``: the weak-form
    integrand ``int { -u . dphi/dt + grad u . grad phi + ((u.grad)u) . phi }
    dx`` and its scale, the sum of the three terms' Cauchy-Schwarz bounds,
    each times dt/dtau, at every sample tau, from one pass over the run.

    Every term is a pairing on the 2/3 band: ``<u, v>`` and ``<grad u, grad
    v>`` from one shell sum, and, ``v`` being solenoidal, the advection term
    as ``-<u x omega, v>`` with ``F[u x omega]`` from
    :func:`rotational_product`. The cubic bound reads ``sum_jk ||u_j
    u_k||^2`` as ``|| |u|^2 ||^2``. A snapshot inside any field's support is
    transformed once for all the fields (6 inverse and 3 forward components);
    a snapshot where no field is :meth:`~TestField.active` is not
    transformed, and neither are the test fields. Such a snapshot is read
    for its frame only, so its ``u_hat`` may be None.
    """
    if len(snapshots) < 3:
        raise DomainError("weak-form quadrature needs at least three snapshots")
    grids = {tf.spatial.grid for tf in testfields}
    grids.update(s.u_hat.grid for s in snapshots if s.u_hat is not None)
    if len(grids) > 1:
        raise DomainError("test fields and snapshots live on different grids")
    t_first, t_last = snapshots[0].frame.t, snapshots[-1].frame.t
    for tf in testfields:
        if solenoidal_error(tf.spatial) > 1e-10:
            raise DomainError("test field is not solenoidal")
        if tf.t_start < t_first - 1e-12 or tf.t_end > t_last + 1e-12:
            raise DomainError("test-field support exceeds the sampled time window")

    taus = np.array([s.frame.tau for s in snapshots])
    dtaus = np.diff(taus)
    if dtaus.size >= 2 and np.max(np.abs(dtaus - dtaus[0])) > 1e-9 * abs(dtaus[0]):
        raise DomainError("weak-form quadrature requires uniform tau sampling")
    if not testfields:
        return []

    g = testfields[0].spatial.grid
    rho_sq = g.shell_radii**2
    shells_v = [shell_sum(mode_energy(tf.spatial.coeffs), g) for tf in testfields]
    norms_v = [(math.sqrt(s.sum()), math.sqrt((rho_sq * s).sum())) for s in shells_v]
    cell = g.cell_volume
    samples = np.empty((6,) + (g.n,) * 3)  # u, then omega
    values = np.zeros((len(testfields), len(snapshots)))
    scales = np.zeros_like(values)
    for i, snap in enumerate(snapshots):
        t = snap.frame.t
        if not any(tf.active(t) for tf in testfields):
            continue
        c = snap.u_hat.coeffs
        spec_to_phys(np.concatenate((c, curl(c, g))), g, out=samples)
        u_cross_omega = rotational_product(samples[:3], samples[3:], g)
        u_sq = samples[0] ** 2 + samples[1] ** 2 + samples[2] ** 2
        quartic = math.sqrt(float((u_sq**2).sum() * cell))
        norm_u = math.sqrt(snap.energy)
        grad_norm_u = math.sqrt((rho_sq * snap.shell_energies).sum())
        jac = snap.frame.t_horizon - t  # dt/dtau
        for f, (tf, (norm_v, grad_norm_v)) in enumerate(zip(testfields, norms_v)):
            if not tf.active(t):
                continue
            theta, theta_dot = tf.envelope(t), tf.envelope_rate(t)
            v = tf.spatial.coeffs
            # <u, v> and <grad u, grad v> from one shell sum (|xi|^2 = rho^2)
            pairing = shell_sum((np.conj(v) * c).real.sum(axis=0), g)
            u_v = pairing.sum()
            gradu_gradv = (rho_sq * pairing).sum()
            adv = -parseval_pair(v, u_cross_omega, g)
            values[f, i] = jac * (-theta_dot * u_v + theta * (gradu_gradv + adv))
            scales[f, i] = jac * (abs(theta_dot) * norm_u * norm_v
                                  + theta * grad_norm_u * grad_norm_v
                                  + theta * quartic * grad_norm_v)
    return [(taus, val, scale) for val, scale in zip(values, scales)]


def weak_residual(integrand) -> float:
    """One test field's weak-form residual: the composite Simpson quadrature
    in tau of its :func:`weak_integrands` integrand over that of its scale,
    or 0 where the scale is 0. The C^3 envelope keeps the quadrature fourth
    order in the tau spacing, with support ends between sample nodes."""
    taus, values, scales = integrand
    scale = _simpson(scales, taus)
    if scale == 0.0:
        return 0.0
    return float(_simpson(values, taus) / scale)


def _simpson(vals: np.ndarray, taus: np.ndarray) -> float:
    """Composite Simpson on a uniform grid (trapezoid for a trailing odd cell)."""
    n = len(vals)
    h = taus[1] - taus[0]
    total = 0.0
    last = n - 1 if (n - 1) % 2 == 0 else n - 2
    for i in range(0, last - 1, 2):
        total += h / 3.0 * (vals[i] + 4.0 * vals[i + 1] + vals[i + 2])
    if last != n - 1:
        total += h / 2.0 * (vals[-2] + vals[-1])
    return float(total)
