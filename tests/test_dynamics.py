import collections
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nsverify import dynamics
from nsverify.dynamics import (
    STEP_SLACK,
    SimState,
    Snapshot,
    TrajectoryConfig,
    _cfl_cap,
    _dense_output,
    _ifrk4,
    _nonlinear_tendency,
    _prepare_initial,
    initial_from_snapshot,
    make_test_field,
    nse_rhs,
    rescale_data,
    rotational_product,
    simulate,
    step,
    weak_integrands,
    weak_residual,
)
from nsverify.errors import (
    ConfigurationError,
    DomainError,
    RescaleError,
    ResolutionError,
    StepSizeError,
)
from nsverify.fields import FieldSpec, generate
from nsverify.similarity import frame, t_of_tau
from nsverify.snapshot_io import write_snapshot
from nsverify.spectral import (
    SpectralVectorField,
    build_grid,
    curl,
    l2_norm,
    l2_norm_sq,
    leray_project,
    mode_energy,
    parseval_pair,
    shell_sum,
    spec_to_phys,
    tail_fraction,
    transform_inverse,
)

from conftest import (
    convective_term,
    gather,
    half_shape,
    half_wavenumbers,
    random_solenoidal,
    scatter,
    small_run,
    zero_field,
)
from test_cutoffs import single_mode_field


def planar_vortex(grid, amplitude=1.0):
    target = amplitude * math.sqrt(
        4.0 * math.pi**3 * (grid.l_box / (2 * math.pi)) ** 3
    )
    return generate(FieldSpec("taylor_green", l2_norm_target=target), grid)


def sample_times(cfg):
    return [t_of_tau(tau, cfg.t_horizon) for tau in cfg.sample_taus]


def step_schedule(u0, cfg):
    """The steps :func:`simulate` should take, replayed by chained
    :func:`step` calls from the prepared initial state: each step takes ``rest
    / ceil(rest / cap)``, ``rest`` the time left to the last sample and ``cap``
    the cap at the step's own start, and the last one ends on the last
    sample. Returns each step's start state and size, and the end state."""
    t_last = sample_times(cfg)[-1]
    state = SimState(0.0, _prepare_initial(u0, cfg))
    steps = []
    while t_last - state.t > 1e-15:
        rest = t_last - state.t
        nsteps = math.ceil(rest / (_cfl_cap(state.u_hat, cfg) * (1.0 + STEP_SLACK)))
        steps.append((state, rest / nsteps))
        state = step(state, rest / nsteps, cfg)
        if nsteps == 1:
            state = SimState(t_last, state.u_hat)
    return steps, state


def samples_reached(steps, cfg):
    """Per step, the number of samples in ``(start, end]``: more than one
    where a step spans several samples, 0 where a sample interval takes
    several steps."""
    times = np.array(sample_times(cfg))
    return [int(((times > s.t) & (times <= s.t + h)).sum()) for s, h in steps]


def chained_samples(u0, cfg):
    """Every sample as the replayed schedule gives it, with the schedule: a
    sample on a step end is the chained state there, and one strictly inside
    a step the dense output of a fresh IF-RK4 step from the chained state
    that starts it."""
    steps, end = step_schedule(u0, cfg)
    states = [state for state, _ in steps] + [end]
    samples = []
    for t_k in sample_times(cfg):
        j = next(j for j, state in enumerate(states) if state.t >= t_k - 1e-15)
        if states[j].t <= t_k + 1e-15:
            samples.append(states[j].u_hat.coeffs)
        else:
            start, h = steps[j - 1]
            _, stages = _ifrk4(start.u_hat, h, cfg)
            samples.append(_dense_output(start.u_hat.coeffs, stages, h,
                                         (t_k - start.t) / h, start.u_hat.grid))
    return samples, steps


# Samples every 0.1 in tau on [0, 2.5]: at dt_max = 0.04 the early intervals
# need several steps each and the late steps span several samples.
MIXED_TAUS = np.arange(0.0, 2.5 + 1e-9, 0.1)


# An IF-RK4 reference on the full rfftn half spectrum, built here: its
# frequencies, transforms, product and projection are the test's own, in the
# package's arithmetic order, so each band mode sees the same operations.


def half_frequencies(grid):
    """``xi``, ``|xi|^2`` and ``1/|xi|^2`` (0 at the zero mode) of the half
    spectrum, and its 2/3 band mask."""
    k = half_wavenumbers(grid)
    xi = tuple(kk * grid.dxi for kk in k)
    xi_sq = xi[0] ** 2 + xi[1] ** 2 + xi[2] ** 2
    inv = np.zeros_like(xi_sq)
    inv[xi_sq > 0] = 1.0 / xi_sq[xi_sq > 0]
    kmax = grid.dealias_kmax
    band = (np.abs(k[0]) <= kmax) & (np.abs(k[1]) <= kmax) & (k[2] <= kmax)
    return xi, xi_sq, inv, band


def cube_tendency(c, grid):
    """Projected rotational tendency ``P[F[u x curl u]]`` of half-spectrum
    coefficients, the product truncated to the 2/3 band by its mask."""
    n, l_box = grid.n, grid.l_box
    xi, _, inv, band = half_frequencies(grid)
    vort = np.empty_like(c)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        vort[i] = xi[j] * c[k] - xi[k] * c[j]
        vort[i] *= 1j

    def inverse(a):
        return scipy.fft.irfftn(a * (n**3 / l_box**1.5), s=(n, n, n),
                                axes=(-3, -2, -1))

    product = scipy.fft.rfftn(np.cross(inverse(c), inverse(vort), axis=0),
                              axes=(-3, -2, -1))
    product = product * (l_box**1.5 / n**3) * band
    div = xi[0] * product[0] + xi[1] * product[1] + xi[2] * product[2]
    div *= inv
    return np.stack([product[i] - xi[i] * div for i in range(3)])


def cube_ifrk4(c, dt, grid, nonlinear):
    """Reference IF-RK4 step on the full half spectrum: the end state and
    the four stage tendencies (``None`` for linear dynamics)."""
    half = np.exp(half_frequencies(grid)[1] * (-dt / 2.0))
    full = half * half
    if not nonlinear:
        return c * full, None

    def tendency(coeffs):
        return cube_tendency(coeffs, grid)

    a = tendency(c)
    b = tendency((a * (dt / 2.0) + c) * half)
    hc = half * c
    cc = tendency(b * (dt / 2.0) + hc)
    fc = half * hc
    d = tendency(half * cc * dt + fc)
    end = ((b + cc) * 2.0 * half + full * a + d) * (dt / 6.0) + fc
    return end, (a, b, cc, d)


def cube_dense_output(c0, stages, h, theta, grid):
    """Reference RK4 dense output on the full half spectrum, its exponents
    taken on the 2/3 band."""
    _, xi_sq, _, band = half_frequencies(grid)
    xs = xi_sq * band
    decay = np.exp(xs * (-theta * h))
    if stages is None:
        return decay * c0
    a, b, c, d = stages
    t2 = theta * theta
    t3 = t2 * theta
    b1 = theta - 1.5 * t2 + t3 * (2.0 / 3.0)
    b2 = t2 - t3 * (2.0 / 3.0)
    b4 = -0.5 * t2 + t3 * (2.0 / 3.0)
    return (
        (a * (h * b1) + c0) * decay
        + np.exp(xs * ((0.5 - theta) * h)) * ((b + c) * (h * b2))
        + np.exp(xs * ((1.0 - theta) * h)) * (d * (h * b4))
    )


def cube_trajectory(u0, cfg):
    """Reference for :func:`simulate`: its step schedule, stepped by
    :func:`cube_ifrk4` and sampled by :func:`cube_dense_output` from the
    prepared initial state in the half spectrum; the half-spectrum
    coefficients of every sample."""
    grid = u0.grid
    c = scatter(_prepare_initial(u0, cfg).coeffs, grid)
    times = sample_times(cfg)
    samples, t = [], 0.0
    while True:
        while len(samples) < len(times) and times[len(samples)] - t <= 1e-15:
            samples.append(c)
        if len(samples) == len(times):
            return samples
        rest = times[-1] - t
        cap = _cfl_cap(SpectralVectorField(grid, gather(c, grid)), cfg)
        nsteps = math.ceil(rest / (cap * (1.0 + STEP_SLACK)))
        h = rest / nsteps
        end, stages = cube_ifrk4(c, h, grid, cfg.nonlinear)
        t_end = times[-1] if nsteps == 1 else t + h
        while times[len(samples)] - t_end < -1e-15:
            theta = (times[len(samples)] - t) / h
            samples.append(cube_dense_output(c, stages, h, theta, grid))
        c, t = end, t_end


def orthogonality_ratio(u):
    """``|<P N, u>| / (||N|| ||u||)`` with ``N = F[u x curl u]`` the
    dealiased quadratic product before projection."""
    g, c = u.grid, u.coeffs
    tendency = _nonlinear_tendency(c, g)
    product = rotational_product(
        spec_to_phys(c, g), spec_to_phys(curl(c, g), g), g)
    scale = math.sqrt(parseval_pair(product, product, g) * l2_norm_sq(u))
    assert scale > 0.0
    return abs(parseval_pair(tendency, c, g)) / scale


def base_config(grid, **kw):
    defaults = dict(
        n=grid.n, l_box=grid.l_box, t_horizon=1.0, dt_max=0.02, cfl=0.4,
        sample_taus=np.arange(0.0, 0.2 + 1e-9, 0.05), delta=0.05, alpha=0.1,
    )
    defaults.update(kw)
    return TrajectoryConfig(**defaults)


class TestRhs:
    def test_zero_field(self, grid16):
        out = nse_rhs(zero_field(grid16))
        assert np.abs(out.coeffs).max() == 0.0

    def test_planar_vortex_is_pure_diffusion(self, grid16):
        # the vortex's self-advection is a gradient: for u1 = sin x cos y,
        # u2 = -cos x sin y one gets (u.grad)u = (sin 2x, sin 2y, 0)/2,
        # the gradient of -(cos 2x + cos 2y)/4, killed by the projector;
        # what remains is the Laplacian, and |xi|^2 = 2 on both modes
        u = planar_vortex(grid16)
        out = nse_rhs(u)
        assert np.abs(out.coeffs + 2.0 * u.coeffs).max() < 1e-12

    def test_single_mode_self_interaction_vanishes(self, grid16):
        # (v e^{i xi x} + c.c.) with v | xi: the advective product carries
        # v . xi = 0, so only the viscous part survives; |xi| = 1
        u = single_mode_field(grid16, 1, component=2)
        out = nse_rhs(u)
        assert np.abs(out.coeffs + u.coeffs).max() < 1e-13

    def test_forms_agree(self, grid32):
        # the rotational tendency against the projected convective oracle:
        # on the band the two products differ by an exact gradient
        u = random_solenoidal(grid32, 0)
        rot = _nonlinear_tendency(u.coeffs, grid32)
        conv = -leray_project(convective_term(u)).coeffs
        assert np.abs(rot - conv).max() <= 1e-13 * np.abs(rot).max()

    def test_rotational_is_the_only_form(self, grid32):
        # the benchmark's call names the form; it is the default
        u = random_solenoidal(grid32, 0)
        named = nse_rhs(u, form="rotational").coeffs
        assert np.array_equal(named, nse_rhs(u).coeffs)
        with pytest.raises(ConfigurationError):
            nse_rhs(u, form="convective")

    def test_quadratic_term_moves_no_energy(self, grid16, grid32):
        # |<P N, u>| / (||N|| ||u||) with N = F[u x omega] before projection:
        # N stays of size |u|^2 where P N vanishes (the planar vortex), so
        # the ratio reads rounding against the field, not against rounding
        cases = [(random_solenoidal(grid32, seed, target=1.0), 1e-10)
                 for seed in range(3)]
        cases.append((planar_vortex(grid16), 1e-12))
        for u, bound in cases:
            assert orthogonality_ratio(u) <= bound

    def test_linear_only(self, grid32):
        u = random_solenoidal(grid32, 5)
        out = nse_rhs(u, nonlinear=False)
        expected = -grid32.xi_sq * u.coeffs
        assert np.array_equal(out.coeffs, expected)


class TestStep:
    def test_linear_mode_exact_decay(self, grid16):
        u = single_mode_field(grid16, 1)
        cfg = base_config(grid16, nonlinear=False, dt_max=0.1)
        state = step(SimState(0.0, u), 0.1, cfg)
        assert np.abs(
            state.u_hat.coeffs - math.exp(-0.1) * u.coeffs
        ).max() < 1e-15

    def test_rejects_bad_steps(self, grid16):
        u = single_mode_field(grid16, 1)
        cfg = base_config(grid16)
        with pytest.raises(StepSizeError):
            step(SimState(0.0, u), 0.0, cfg)
        with pytest.raises(StepSizeError):
            step(SimState(0.0, u), -0.01, cfg)
        with pytest.raises(StepSizeError):
            step(SimState(0.0, u), 1.0, cfg)

    def test_rejects_cfl_violation(self, grid16):
        # huge amplitude makes the advective cap bind below dt_max
        u = planar_vortex(grid16, amplitude=5000.0)
        cfg = base_config(grid16, dt_max=0.02, cfl=0.4, delta=5000.0)
        with pytest.raises(StepSizeError):
            step(SimState(0.0, u), 0.02, cfg)

    def test_preserves_solenoidality(self, grid32):
        from nsverify.spectral import solenoidal_error

        u = random_solenoidal(grid32, 1, target=0.05)
        cfg = base_config(grid32)
        state = step(SimState(0.0, u), 0.01, cfg)
        assert solenoidal_error(state.u_hat) <= 1e-10

    def test_steps_do_not_fault_memory_back_in(self, grid32):
        # a step's ~0.8 MB temporaries are reused from the heap; returned to
        # the kernel, each step would fault about 760 fresh pages back in
        import resource

        u = random_solenoidal(grid32, 1, target=0.05)
        cfg = base_config(grid32)
        state = SimState(0.0, u)
        for _ in range(10):  # grow the heap, make the FFT plans
            state = step(state, 0.01, cfg)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(10):
            state = step(state, 0.01, cfg)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


class TestSimulate:
    def test_zero_data_stays_zero(self, grid16):
        cfg = base_config(grid16)
        snaps = list(simulate(zero_field(grid16), cfg))
        assert len(snaps) == len(cfg.sample_taus)
        assert all(np.abs(s.u_hat.coeffs).max() == 0.0 for s in snaps)

    def test_planar_vortex_exact_decay(self, grid16):
        u0 = planar_vortex(grid16)
        t_samples = np.linspace(0.0, 1.0, 11)
        taus = -np.log(2.0 - t_samples)
        cfg = TrajectoryConfig(
            n=16, l_box=2 * math.pi, t_horizon=2.0, dt_max=0.02, cfl=0.4,
            sample_taus=taus, delta=l2_norm(u0), alpha=0.1,
        )
        worst = 0.0
        for snap in simulate(u0, cfg):
            exact = u0.coeffs * math.exp(-2.0 * snap.frame.t)
            got = snap.u_hat.coeffs
            worst = max(worst, np.abs(got - exact).max() / np.abs(exact).max())
        assert worst <= 1e-6

    def test_entry_rescale_to_delta(self, grid32):
        u0 = random_solenoidal(grid32, 2, target=1.0)
        cfg = base_config(grid32, delta=0.01)
        first = next(iter(simulate(u0, cfg)))
        assert l2_norm(first.u_hat) == pytest.approx(0.01, rel=1e-12)

    def test_energy_monotone(self, grid32):
        _, snaps = small_run(grid32, seed=4, tau_max=0.5)
        energies = [s.energy for s in snaps]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(energies, energies[1:]))

    def test_energy_equality(self, grid32):
        # d/dt ||u||^2 = -2 ||grad u||^2: centered differences on a grid
        # uniform in physical time, against the bracket-filtered right side
        u0 = random_solenoidal(grid32, 4, target=0.05, cutoff=2.0)
        t_samples = np.linspace(0.0, 0.5, 26)
        cfg = TrajectoryConfig(
            n=32, l_box=8 * math.pi, t_horizon=1.0, dt_max=0.02, cfl=0.4,
            sample_taus=-np.log(1.0 - t_samples), delta=0.05, alpha=0.1,
        )
        snaps = list(simulate(u0, cfg))
        energies = np.array([s.energy for s in snaps])
        grads = np.array(
            [
                float(
                    (grid32.multiplicity * grid32.xi_sq
                     * (np.abs(s.u_hat.coeffs) ** 2).sum(axis=0)).sum()
                )
                for s in snaps
            ]
        )
        h = t_samples[1] - t_samples[0]
        for i in range(1, len(snaps) - 1):
            dedt = (energies[i + 1] - energies[i - 1]) / (2 * h)
            rhs = -2.0 * (grads[i - 1] + 4.0 * grads[i] + grads[i + 1]) / 6.0
            assert abs(dedt - rhs) <= 1e-4 * grads[i]

    def test_solenoidality_drift(self, grid32):
        from nsverify.spectral import solenoidal_error

        _, snaps = small_run(grid32, seed=5, tau_max=1.0)
        assert solenoidal_error(snaps[-1].u_hat) <= 1e-9

    def test_nonlinear_orthogonality_tracked(self, grid32):
        _, snaps = small_run(grid32, seed=6, tau_max=0.3)
        assert max(orthogonality_ratio(s.u_hat) for s in snaps) <= 1e-10

    def test_nonlinear_orthogonality_of_taylor_green(self, grid16):
        # the planar vortex's projected product is zero up to rounding along
        # the whole run, and the ratio still reads rounding against |u|^2
        u0 = planar_vortex(grid16)
        cfg = TrajectoryConfig(
            n=16, l_box=grid16.l_box, t_horizon=2.0, dt_max=0.01, cfl=0.4,
            sample_taus=-np.log(2.0 - np.linspace(0.0, 0.2, 5)),
            delta=l2_norm(u0), alpha=0.1,
        )
        snaps = list(simulate(u0, cfg))
        assert max(orthogonality_ratio(s.u_hat) for s in snaps) <= 1e-12

    def test_resolution_guard_error(self, grid32):
        # at delta = 5 the tail fraction reaches 2.6e-7 by tau = 0.05, above
        # the guard's fixed 1e-8
        u0 = random_solenoidal(grid32, 7, target=5.0)
        cfg = base_config(grid32, delta=5.0)
        with pytest.raises(ResolutionError, match="above 1.0e-08 at tau = 0.0500"):
            list(simulate(u0, cfg))

    def test_grid_mismatch(self, grid16, grid32):
        u0 = random_solenoidal(grid32, 8)
        with pytest.raises(ConfigurationError):
            list(simulate(u0, base_config(grid16)))

    def test_handed_over_first_stage_equals_fresh_steps(self, grid32):
        # with several steps between samples, every sample equals the chain
        # of step() calls on the schedule bitwise: the last one its end, the
        # others the dense output of a fresh step from the state before them
        u0 = random_solenoidal(grid32, 9, target=0.05)
        cfg = base_config(grid32, dt_max=0.004)
        snaps = list(simulate(u0, cfg))
        expected, steps = chained_samples(u0, cfg)
        reached = samples_reached(steps, cfg)
        assert max(reached) == 1 and min(reached) == 0
        assert len(expected) == len(snaps)
        for snap, coeffs in zip(snaps, expected):
            assert np.array_equal(snap.u_hat.coeffs, coeffs)

    def test_step_ends_equal_chained_steps(self, grid32):
        # the same with steps that span several samples and sample intervals
        # that take several steps
        u0 = random_solenoidal(grid32, 9, target=0.05)
        cfg = base_config(grid32, dt_max=0.04, sample_taus=MIXED_TAUS)
        snaps = list(simulate(u0, cfg))
        expected, steps = chained_samples(u0, cfg)
        reached = samples_reached(steps, cfg)
        assert max(reached) > 1 and min(reached) == 0
        assert len(expected) == len(snaps)
        for snap, coeffs in zip(snaps, expected):
            assert np.array_equal(snap.u_hat.coeffs, coeffs)

    def test_tendency_count(self, grid32, monkeypatch):
        # every step evaluates its four stages, and emitting a sample
        # evaluates none
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return _nonlinear_tendency(*args, **kwargs)

        u0 = random_solenoidal(grid32, 9, target=0.05)
        cfg = base_config(grid32, dt_max=0.04, sample_taus=MIXED_TAUS)
        monkeypatch.setattr(dynamics, "_nonlinear_tendency", counted)
        list(simulate(u0, cfg))
        monkeypatch.undo()
        steps, _ = step_schedule(u0, cfg)
        reached = samples_reached(steps, cfg)
        assert max(reached) > 1 and min(reached) == 0
        assert len(calls) == 4 * len(steps)

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_band_integrator_equals_the_cube_reference(self, grid32, nonlinear):
        # bitwise: every band entry goes through the arithmetic of its mode
        # in the test's own half-spectrum integrator, and the modes outside
        # the band stay 0 there
        u0 = random_solenoidal(grid32, 9, target=0.05)
        cfg = base_config(
            grid32, dt_max=0.04, sample_taus=MIXED_TAUS, nonlinear=nonlinear
        )
        snaps = list(simulate(u0, cfg))
        reached = samples_reached(step_schedule(u0, cfg)[0], cfg)
        assert max(reached) > 1 and min(reached) == 0
        reference = cube_trajectory(u0, cfg)
        assert len(reference) == len(snaps)
        for snap, expected in zip(snaps, reference):
            assert np.array_equal(scatter(snap.u_hat.coeffs, grid32), expected)

    def test_sample_energy_and_tail_are_the_fields(self, grid32):
        _, snaps = small_run(grid32, seed=2, tau_max=0.2)
        for snap in snaps:
            u = snap.u_hat
            assert snap.energy == l2_norm_sq(u)
            shell_e = shell_sum(mode_energy(u.coeffs), grid32)
            assert snap.tail_fraction == tail_fraction(shell_e, grid32)

    def test_tendency_transforms_go_through_the_traced_bindings(
        self, grid32, monkeypatch
    ):
        # the benchmark counts transforms and projections at these bindings
        # of dynamics: per tendency u and its vorticity go back in one call
        # of six components, the product forward in one, and the tendency
        # projects once
        counts = collections.Counter()
        components = []

        def counted(name):
            original = getattr(dynamics, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                if name == "spec_to_phys":
                    components.append(args[0].shape[0])
                return original(*args, **kwargs)

            return wrapper

        for name in ("_nonlinear_tendency", "spec_to_phys", "phys_to_spec",
                     "leray_project"):
            monkeypatch.setattr(dynamics, name, counted(name))
        u0 = random_solenoidal(grid32, 9, target=0.05)
        list(simulate(u0, base_config(grid32, dt_max=0.04, sample_taus=MIXED_TAUS[:6])))
        tendencies = counts["_nonlinear_tendency"]
        assert tendencies > 0
        assert counts == {"_nonlinear_tendency": tendencies,
                          "spec_to_phys": tendencies,
                          "phys_to_spec": tendencies,
                          "leray_project": tendencies}
        assert components == [6] * tendencies

    def test_snapshots_own_their_band_coefficients(self, grid16):
        # each snapshot holds a copy of the band state: setting one to NaN
        # in place, step ends included, changes no later snapshot
        u0 = random_solenoidal(grid16, 9, target=0.05)
        cfg = base_config(grid16, dt_max=0.04, sample_taus=MIXED_TAUS)
        clean = list(simulate(u0, cfg))
        reached = samples_reached(step_schedule(u0, cfg)[0], cfg)
        assert max(reached) > 1 and min(reached) == 0
        for snap, ref in zip(simulate(u0, cfg), clean):
            assert snap.u_hat.grid == grid16
            assert snap.u_hat.coeffs.shape == (3,) + grid16.xi_sq.shape
            assert np.array_equal(snap.u_hat.coeffs, ref.u_hat.coeffs)
            assert snap.energy == ref.energy
            snap.u_hat.coeffs[...] = np.nan

    def test_snapshots_hold_the_band_only(self):
        # the random run of harness.criterion_weak_form on its first 11
        # samples: a snapshot's coefficients are its own array, 28 % of the
        # half spectrum's bytes
        grid = build_grid(32, 8.0 * math.pi)
        u0 = generate(FieldSpec("random_solenoidal", seed=5, l2_norm_target=0.05,
                                xi_cutoff=2.3), grid)
        cfg = TrajectoryConfig(
            n=32, l_box=grid.l_box, t_horizon=1.0, dt_max=0.01,
            sample_taus=np.arange(0.0, 0.2 + 1e-9, 0.02), delta=0.05, alpha=0.1,
        )
        snaps = list(simulate(u0, cfg))
        assert all(s.u_hat.coeffs.base is None for s in snaps)
        held = sum(s.u_hat.coeffs.nbytes for s in snaps)
        half = len(snaps) * np.zeros((3,) + half_shape(grid), dtype=complex).nbytes
        assert held <= 0.3 * half

    def test_interpolated_linear_decay_is_exact(self, grid32):
        u0 = random_solenoidal(grid32, 9, target=0.05)
        cfg = base_config(
            grid32, dt_max=0.04, sample_taus=MIXED_TAUS, nonlinear=False
        )
        snaps = list(simulate(u0, cfg))
        assert max(samples_reached(step_schedule(u0, cfg)[0], cfg)) > 1
        c0 = snaps[0].u_hat.coeffs
        for snap in snaps:
            exact = np.exp(-grid32.xi_sq * snap.frame.t) * c0
            err = np.abs(snap.u_hat.coeffs - exact).max()
            assert err <= 1e-14 * np.abs(exact).max()

    def test_dense_output_is_fourth_order(self, grid32):
        # one step of h from t = 0 with a sample at theta = 1/2: the local
        # error of the RK4 continuous extension is O(h^4), 16x per halving.
        # The reference chains 32 substeps to t = 0.02; a 256-substep chain
        # agrees with it to 1e-15, 500x below the smallest error measured.
        u0 = random_solenoidal(grid32, 0, target=1.0)

        def config(taus):
            return base_config(grid32, dt_max=0.05, delta=1.0, sample_taus=taus)

        cfg = config([0.0])
        state = SimState(0.0, _prepare_initial(u0, cfg))
        assert _cfl_cap(state.u_hat, cfg) > 0.04  # one step spans both samples
        reference = {}
        for k in range(1, 33):
            state = step(state, 0.02 / 32, cfg)
            if k in (8, 16, 32):
                reference[k] = state.u_hat.coeffs
        errors = []
        for h, k in ((0.04, 32), (0.02, 16), (0.01, 8)):
            taus = [-math.log1p(-h / 2), -math.log1p(-h)]
            mid = list(simulate(u0, config(taus)))[0].u_hat.coeffs
            errors.append(np.abs(mid - reference[k]).max())
        assert errors[0] >= 12.0 * errors[1] >= 144.0 * errors[2]

    def test_box_length_must_match_exactly(self, grid32):
        u0 = random_solenoidal(grid32, 8)
        cfg = base_config(grid32, l_box=grid32.l_box * (1.0 + 1e-13))
        with pytest.raises(ConfigurationError):
            list(simulate(u0, cfg))

    def test_config_validation(self, grid16):
        with pytest.raises(ConfigurationError):
            base_config(grid16, sample_taus=[0.2, 0.1])
        with pytest.raises(ConfigurationError):
            base_config(grid16, delta=-1.0)
        with pytest.raises(ConfigurationError):
            base_config(grid16, alpha=0.3)


@st.composite
def tau_grids(draw):
    """Increasing sample taus from ``tau = 0.0`` to ``1.0`` on, up to 12
    gaps of 0.005 to 0.5."""
    start = draw(st.floats(0.0, 1.0))
    gaps = draw(st.lists(st.floats(0.005, 0.5), max_size=12))
    return start + np.cumsum([0.0] + gaps)


def recorded_steps(u0, cfg):
    """The steps :func:`simulate` takes, as ``(start, size, cap at the
    start)``, read by wrapping :func:`_ifrk4`; and the snapshots."""
    steps = []
    ifrk4 = dynamics._ifrk4

    def recorded(u_hat, dt, cfg):
        start = steps[-1][0] + steps[-1][1] if steps else 0.0
        steps.append((start, dt, dynamics._cfl_cap(u_hat, cfg)))
        return ifrk4(u_hat, dt, cfg)

    with mock.patch.object(dynamics, "_ifrk4", recorded):
        snaps = list(simulate(u0, cfg))
    return steps, snaps


def assert_steps_reach_the_last_sample(steps, snaps, cfg):
    t_last = sample_times(cfg)[-1]
    assert len(snaps) == len(cfg.sample_taus)
    assert snaps[-1].frame.t == t_last
    if t_last > 0.0:
        start, h, _ = steps[-1]
        assert abs(start + h - t_last) <= 1e-15
        assert all(start + h < t_last for start, h, _ in steps[:-1])


class TestSchedule:
    # The cap is a law of the state's energy, which decays as exp(-2 t) for
    # a single |xi| = 1 mode under linear dynamics: rate > 0 shrinks it along
    # the run, rate < 0 grows it, and the real CFL cap grows too.
    @settings(max_examples=40, deadline=None)
    @given(taus=tau_grids(), dt_max=st.floats(0.002, 0.2),
           law=st.one_of(st.none(), st.tuples(st.floats(0.002, 0.2),
                                              st.floats(-2.0, 2.0))),
           cfl=st.floats(1e-3, 1.0))
    def test_every_step_is_within_the_cap_at_its_own_start(
        self, grid16, taus, dt_max, law, cfl
    ):
        u0 = single_mode_field(grid16, 1)
        cfg = base_config(grid16, sample_taus=taus, dt_max=dt_max, cfl=cfl,
                          delta=1.0, nonlinear=False)

        def energy_law(u_hat, cfg):
            cap0, rate = law
            return min(cfg.dt_max, cap0 * l2_norm_sq(u_hat) ** rate)

        with mock.patch.object(dynamics, "_cfl_cap",
                               energy_law if law else _cfl_cap):
            steps, snaps = recorded_steps(u0, cfg)
        for _, h, cap in steps:
            assert cap <= dt_max
            assert h <= cap * (1.0 + 1e-12)
        assert_steps_reach_the_last_sample(steps, snaps, cfg)

    @settings(max_examples=40, deadline=None)
    @given(taus=tau_grids(), count=st.integers(1, 60), short=st.floats(0.0, 0.99))
    def test_a_constant_cap_takes_the_fewest_steps(self, grid16, taus, count, short):
        # the zero field has no CFL cap, so every step's cap is dt_max, set
        # here so that count - 1 steps fall short of the span; short = 0
        # makes the span an exact multiple of dt_max up to rounding
        t_last = t_of_tau(taus[-1], 1.0)
        assume(t_last > 0.0)
        cfg = base_config(grid16, sample_taus=taus, dt_max=t_last / (count - short))
        steps, snaps = recorded_steps(zero_field(grid16), cfg)
        assert len(steps) == count
        for _, h, cap in steps:
            assert cap == cfg.dt_max
            assert h <= cap * (1.0 + 1e-12)
        assert_steps_reach_the_last_sample(steps, snaps, cfg)

    def test_samples_match_a_sixteen_times_finer_run(self, grid32):
        # the verify-n32 data (seed 0) on tau in [0, 0.3], where its largest
        # dense-output error lies: every sample within 1e-11 of the largest
        # coefficient of the run at dt_max / 16. Measured 4.4e-12 here, and
        # 6.4e-13 when every step ended on a sample
        u0 = random_solenoidal(grid32, 0, target=0.05)
        taus = np.arange(0.0, 0.3 + 1e-9, 0.02)
        coarse, fine = (
            list(simulate(u0, base_config(grid32, dt_max=dt, sample_taus=taus)))
            for dt in (0.02, 0.02 / 16)
        )
        scale = max(np.abs(s.u_hat.coeffs).max() for s in fine)
        err = max(np.abs(a.u_hat.coeffs - b.u_hat.coeffs).max()
                  for a, b in zip(coarse, fine))
        assert err <= 1e-11 * scale


class TestRescale:
    def test_identity(self, grid32):
        u = random_solenoidal(grid32, 9)
        out = rescale_data(u, 1)
        assert np.array_equal(out.coeffs, u.coeffs)

    def test_single_mode_moves(self, grid32):
        u = single_mode_field(grid32, 3)
        out = rescale_data(u, 2)
        assert abs(out.coeffs[2, 6, 0, 0] - 2.0 * u.coeffs[2, 3, 0, 0]) == 0.0
        assert np.abs(out.coeffs[2, 3, 0, 0]) == 0.0

    def test_fixed_box_norm_factor(self, grid32):
        # lam * u(lam x) on the fixed torus multiplies the L2 norm by lam
        # (substitution wraps lam^3 copies of the cell)
        u = random_solenoidal(grid32, 10, cutoff=1.1)
        out = rescale_data(u, 2)
        assert l2_norm(out) == pytest.approx(2.0 * l2_norm(u), rel=1e-12)

    def test_aliasing_rejected(self, grid32):
        u = random_solenoidal(grid32, 11, cutoff=2.3)
        with pytest.raises(RescaleError):
            rescale_data(u, 4)

    def test_content_leaving_the_band_rejected(self, grid16):
        # n = 16 keeps |k| <= K = 5: k = 3 goes to 6, which the half
        # spectrum (|k| < 8) could hold but the band cannot
        with pytest.raises(RescaleError):
            rescale_data(single_mode_field(grid16, 3), 2)
        out = rescale_data(single_mode_field(grid16, 2), 2)
        assert out.coeffs[2, 4, 0, 0] == 2.0 and out.coeffs[2, -4, 0, 0] == 2.0

    def test_non_integer_rejected(self, grid32):
        u = random_solenoidal(grid32, 12)
        with pytest.raises(RescaleError):
            rescale_data(u, 0)
        with pytest.raises(RescaleError):
            rescale_data(u, 1.5)

    def test_covariance_small_grid(self):
        # lam = 2 dilation covariance: v(x, t) = 2 u(2x, 4t)
        grid = build_grid(32, 8.0 * math.pi)
        delta = 0.05
        # one quadratic generation of the dilated data must stay inside the
        # dealiased band of both runs: per-axis k0 <= 2 here
        u0 = generate(
            FieldSpec("random_solenoidal", seed=13, l2_norm_target=delta,
                      xi_cutoff=0.5),
            grid,
        )
        t_a = 0.2
        cfg_a = TrajectoryConfig(
            n=32, l_box=8 * math.pi, t_horizon=1.0, dt_max=0.005, cfl=0.4,
            sample_taus=[-math.log(1 - t_a)], delta=delta, alpha=0.1,
        )
        def final(u0, cfg):
            return list(simulate(u0, cfg))[-1].u_hat

        ref = rescale_data(final(u0, cfg_a), 2)
        cfg_b = TrajectoryConfig(
            n=32, l_box=8 * math.pi, t_horizon=1.0, dt_max=0.005, cfl=0.4,
            sample_taus=[-math.log(1 - t_a / 4)], delta=2 * delta, alpha=0.1,
        )
        got = final(rescale_data(u0, 2), cfg_b)
        err = np.sqrt(
            (grid.multiplicity * np.abs(got.coeffs - ref.coeffs) ** 2).sum()
            / l2_norm_sq(ref)
        )
        assert err <= 1e-6


class TestEnvelope:
    T0, T1 = 0.3, 1.1

    def _field(self, grid16):
        return make_test_field(grid16, 0, self.T0, self.T1)

    def test_rate_is_derivative(self, grid16):
        tf = self._field(grid16)
        h = 1e-5
        for z in (0.1, 0.3, 0.45, 0.6, 0.8, 0.95):
            t = self.T0 + z * (self.T1 - self.T0)
            fd = (tf.envelope(t + h) - tf.envelope(t - h)) / (2.0 * h)
            assert tf.envelope_rate(t) == pytest.approx(fd, rel=1e-6)

    def test_rate_vanishes_cubically_at_support_ends(self, grid16):
        # theta = sin^4 gives theta_dot ~ +-4 pi^4 d^3 / w^4 at distance d
        # inside either end; sin^2 would vanish only linearly
        tf = self._field(grid16)
        w = self.T1 - self.T0
        for d in (1e-2 * w, 1e-3 * w):
            expected = 4.0 * math.pi**4 * d**3 / w**4
            assert tf.envelope_rate(self.T0 + d) == pytest.approx(expected, rel=1e-3)
            assert tf.envelope_rate(self.T1 - d) == pytest.approx(-expected, rel=1e-3)
        assert tf.envelope(self.T0) == tf.envelope_rate(self.T0) == 0.0
        assert tf.envelope(self.T1) == tf.envelope_rate(self.T1) == 0.0


@pytest.fixture(scope="module")
def random_weak_run(grid16):
    """An n=16 random run of 21 samples and a test field whose support
    leaves four samples before it and six after it with envelope and rate
    exactly 0."""
    _, snaps = small_run(grid16, seed=4, tau_max=0.4)
    t0, t1 = snaps[0].frame.t, snaps[-1].frame.t
    tf = make_test_field(grid16, 7, t0 + 0.2 * (t1 - t0), t1 - 0.25 * (t1 - t0))
    outside = [tf.envelope(s.frame.t) == tf.envelope_rate(s.frame.t) == 0.0
               for s in snaps]
    assert outside == [True] * 4 + [False] * 11 + [True] * 6
    return snaps, tf


def weak_form_residual(snaps, tf):
    """One test field's residual through the one-pass form."""
    (integrand,) = weak_integrands(snaps, [tf])
    return weak_residual(integrand)


class TestWeakForm:
    def _tg_snapshots(self, grid, samples=41):
        u0 = planar_vortex(grid)
        taus = np.linspace(-math.log(2.0), -math.log(1.2), samples)
        cfg = TrajectoryConfig(
            n=grid.n, l_box=grid.l_box, t_horizon=2.0, dt_max=0.02, cfl=0.4,
            sample_taus=taus, delta=l2_norm(u0), alpha=0.1,
        )
        return list(simulate(u0, cfg))

    def test_zero_trajectory(self, grid16):
        cfg = base_config(grid16, sample_taus=np.linspace(0.0, 0.4, 21))
        snaps = list(simulate(zero_field(grid16), cfg))
        tf = make_test_field(grid16, 0, 0.05, 0.25)
        assert weak_form_residual(snaps, tf) == 0.0

    def test_exact_trajectory_small_residual(self, grid16):
        snaps = self._tg_snapshots(grid16)
        t0, t1 = snaps[0].frame.t, snaps[-1].frame.t
        tf = make_test_field(grid16, 1, t0 + 0.1 * (t1 - t0), t1 - 0.1 * (t1 - t0))
        assert abs(weak_form_residual(snaps, tf)) <= 1e-5

    def test_exact_trajectory_residual_golden(self, grid16):
        # 17 digits: the trajectory and every pairing of the residual are
        # bitwise reproducible, so a change that moves it shows here;
        # recorded with every pairing a shell sum on the 2/3 band and the
        # integrator stepping at its cap
        snaps = self._tg_snapshots(grid16)
        t0, t1 = snaps[0].frame.t, snaps[-1].frame.t
        tf = make_test_field(grid16, 1, t0 + 0.1 * (t1 - t0), t1 - 0.1 * (t1 - t0))
        assert weak_form_residual(snaps, tf) == -1.7173368890893672e-06

    def test_random_run_residual_golden(self, random_weak_run):
        # recorded with every pairing a shell sum on the 2/3 band and the
        # integrator stepping at its cap
        snaps, tf = random_weak_run
        assert weak_form_residual(snaps, tf) == 1.8721439903183005e-05

    def test_transforms_only_the_support(self, random_weak_run, monkeypatch):
        # each sample inside the support takes one inverse call of u and
        # omega and one forward call of u x omega; the others and the test
        # field take none
        snaps, tf = random_weak_run
        inverse, forward = [], []
        spec_to_phys, phys_to_spec = dynamics.spec_to_phys, dynamics.phys_to_spec

        def counted_inverse(coeffs, *args, **kwargs):
            inverse.append(coeffs.shape[0])
            return spec_to_phys(coeffs, *args, **kwargs)

        def counted_forward(samples, *args, **kwargs):
            forward.append(samples.shape[0])
            return phys_to_spec(samples, *args, **kwargs)

        monkeypatch.setattr(dynamics, "spec_to_phys", counted_inverse)
        monkeypatch.setattr(dynamics, "phys_to_spec", counted_forward)
        weak_integrands(snaps, [tf])
        assert inverse == [6] * 11
        assert forward == [3] * 11

    def test_reads_only_the_frames_outside_the_supports(self, random_weak_run):
        # a snapshot where the field is not active may come without its
        # field, as the weak-form criterion keeps it; the integrand is the same
        snaps, tf = random_weak_run
        frames = [s if tf.active(s.frame.t) else replace(s, u_hat=None) for s in snaps]
        assert sum(s.u_hat is None for s in frames) == 10
        (full,), (thin,) = weak_integrands(snaps, [tf]), weak_integrands(frames, [tf])
        assert all(np.array_equal(a, b) for a, b in zip(full, thin))

    def test_one_pass_serves_every_field(self, grid16):
        # fields with different supports: each residual of the shared pass
        # is bitwise the one-field pass's
        snaps = self._tg_snapshots(grid16)
        t0, t1 = snaps[0].frame.t, snaps[-1].frame.t
        span = t1 - t0
        fields = [make_test_field(grid16, seed, t0 + lo * span, t0 + hi * span)
                  for seed, lo, hi in ((1, 0.1, 0.9), (2, 0.0, 0.45), (3, 0.4, 1.0))]
        shared = [weak_residual(f) for f in weak_integrands(snaps, fields)]
        assert shared == [weak_form_residual(snaps, tf) for tf in fields]
        assert len(set(shared)) == 3

    def test_advection_is_the_convective_pairing(self, grid16):
        # for a solenoidal v, -<F[u x omega], v> is <(u.grad)u, v>; the
        # pass's integrand must match the convective-form oracle, which an
        # advection sign error moves by about 3e-4 of its scale while the
        # residual stays far below the criterion's bound
        u = random_solenoidal(grid16, 0, target=1.0)
        c = u.coeffs
        v = make_test_field(grid16, 1, 0.0, 1.0).spatial.coeffs
        advection = parseval_pair(v, convective_term(u).coeffs, grid16)
        product = rotational_product(
            spec_to_phys(c, grid16), spec_to_phys(curl(c, grid16), grid16), grid16)
        assert -parseval_pair(v, product, grid16) == pytest.approx(advection, rel=1e-12)

        shells = shell_sum(mode_energy(c), grid16)
        snaps = [Snapshot(frame(1.0 - math.exp(-tau), 1.0), u, 0.0, l2_norm_sq(u), shells)
                 for tau in (0.0, 0.1, 0.2)]
        tf = make_test_field(grid16, 1, snaps[0].frame.t, snaps[-1].frame.t)
        ((_, values, scales),) = weak_integrands(snaps, [tf])
        t = snaps[1].frame.t
        expected = (1.0 - t) * (
            -tf.envelope_rate(t) * parseval_pair(v, c, grid16)
            + tf.envelope(t) * (parseval_pair(v, grid16.xi_sq * c, grid16) + advection))
        assert abs(values[1] - expected) <= 1e-12 * scales[1]

    def test_quadrature_fourth_order(self, grid16):
        # halving the tau spacing must gain at least 8x (Simpson's 16x in the
        # limit); an envelope whose rate has a kink at off-node support ends
        # caps the gain near 4x
        residuals = []
        for samples in (41, 81):
            snaps = self._tg_snapshots(grid16, samples)
            t0, t1 = snaps[0].frame.t, snaps[-1].frame.t
            tf = make_test_field(grid16, 1, t0 + 0.1 * (t1 - t0), t1 - 0.1 * (t1 - t0))
            residuals.append(abs(weak_form_residual(snaps, tf)))
        assert residuals[1] * 8.0 <= residuals[0]

    def test_corruption_detected(self, grid16):
        snaps = self._tg_snapshots(grid16)
        t0, t1 = snaps[0].frame.t, snaps[-1].frame.t
        tf = make_test_field(grid16, 1, t0 + 0.1 * (t1 - t0), t1 - 0.1 * (t1 - t0))
        clean = abs(weak_form_residual(snaps, tf))
        k = len(snaps) // 2
        corrupted = list(snaps)
        bad = SpectralVectorField(grid16, corrupted[k].u_hat.coeffs * 1.1)
        corrupted[k] = type(snaps[k])(
            frame=snaps[k].frame, u_hat=bad,
            tail_fraction=snaps[k].tail_fraction,
            energy=l2_norm_sq(bad),
            shell_energies=shell_sum(mode_energy(bad.coeffs), grid16),
        )
        assert abs(weak_form_residual(corrupted, tf)) > 10.0 * clean

    def test_non_solenoidal_rejected(self, grid16):
        snaps = self._tg_snapshots(grid16)
        tf = make_test_field(grid16, 2, 0.2, 0.8)
        tf.spatial.coeffs[0, 1, 0, 0] += 0.5  # break divergence-freeness
        tf.spatial.coeffs[0, -1, 0, 0] += 0.5  # k = -1
        with pytest.raises(DomainError):
            weak_integrands(snaps, [tf])

    def test_support_outside_window(self, grid16):
        snaps = self._tg_snapshots(grid16)
        tf = make_test_field(grid16, 3, 0.0, 5.0)
        with pytest.raises(DomainError):
            weak_integrands(snaps, [tf])

    def test_snapshots_of_another_grid_rejected(self, random_weak_run, grid16):
        snaps, tf = random_weak_run
        other = build_grid(16, 2.0 * grid16.l_box)
        moved = [replace(s, u_hat=SpectralVectorField(other, s.u_hat.coeffs))
                 for s in snaps]
        with pytest.raises(DomainError):
            weak_integrands(moved, [tf])


def test_initial_from_snapshot(tmp_path, grid32):
    u = random_solenoidal(grid32, 16, target=0.05)
    path = tmp_path / "init.nsvf"
    write_snapshot(path, transform_inverse(u), t=0.0)
    loaded, t = initial_from_snapshot(path)
    assert t == 0.0
    assert np.abs(loaded.coeffs - u.coeffs).max() < 1e-13 * np.abs(u.coeffs).max()
