import gc
import math
import weakref

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from nsverify.errors import ConfigurationError, GridMismatchError
from nsverify.dynamics import (
    SimState,
    TrajectoryConfig,
    _amplitude_bound,
    initial_from_snapshot,
    make_test_field,
    nse_rhs,
    rescale_data,
    simulate,
    step,
)
from nsverify.fields import FieldSpec, generate
from nsverify.snapshot_io import write_snapshot
from nsverify.spectral import (
    RealVectorField,
    SpectralVectorField,
    build_grid,
    l2_inner,
    l2_norm,
    l2_norm_sq,
    leray_project,
    parseval_pair,
    phys_to_spec,
    shell_sum,
    solenoidal_error,
    spec_to_phys,
    transform_forward,
    transform_inverse,
)

from conftest import (
    derivative,
    gather,
    half_shape,
    half_wavenumbers,
    random_band_limited,
    scatter,
    zero_field,
)


def plane_hermitian_error(w):
    """Max deviation from ``coeff(-kx, -ky, 0) == conj(coeff(kx, ky, 0))``.

    The band stores each mode with ``kz > 0`` once, so conjugate symmetry is
    structural there; the ``kz = 0`` plane holds both members of each pair
    and is the one place it can fail. A band axis stores ``k`` at index
    ``k mod (2K+1)``, so reversing it and rolling by one maps ``k`` to ``-k``.
    """
    plane = w.coeffs[..., 0]
    rev = np.roll(plane[:, ::-1, ::-1], (1, 1), axis=(1, 2))
    return float(np.abs(rev - np.conj(plane)).max())


class TestBuildGrid:
    def test_frequency_spacing_unit_box(self):
        g = build_grid(8, 2.0 * math.pi)
        assert g.dxi == pytest.approx(1.0)
        assert g.dealias_kmax == 2
        assert list(g.wavenumbers) == [0, 1, 2, -2, -1]

    def test_wide_box(self):
        g = build_grid(64, 16.0 * math.pi)
        assert g.dxi == pytest.approx(1.0 / 8.0)
        assert np.max(np.abs(g.xi[0])) == pytest.approx(21.0 / 8.0)

    @pytest.mark.parametrize("n", [7, 6, 9, 0])
    def test_bad_sizes(self, n):
        with pytest.raises(ConfigurationError):
            build_grid(n, 2.0 * math.pi)

    def test_bad_box(self):
        with pytest.raises(ConfigurationError):
            build_grid(16, 0.0)


class TestTransforms:
    def test_zero_field(self, grid16):
        w = transform_forward(
            RealVectorField(grid16, np.zeros((3, 16, 16, 16)))
        )
        assert np.all(w.coeffs == 0)

    def test_single_mode_two_entries(self, grid16):
        x = grid16.axes()[0]
        samples = np.zeros((3, 16, 16, 16))
        samples[0] = np.sin(x) * np.ones((1, 16, 16))
        w = transform_forward(RealVectorField(grid16, samples))
        nz = np.argwhere(np.abs(w.coeffs) > 1e-12)
        assert len(nz) == 2
        mags = [abs(w.coeffs[tuple(i)]) for i in nz]
        assert mags[0] == pytest.approx(mags[1], rel=1e-14)
        # entries sit at k = +-e1 of the first component; the band axis
        # holds k = -1 at index 2K+1 - 1 = 10
        assert {tuple(i) for i in nz} == {(0, 1, 0, 0), (0, 10, 0, 0)}

    def test_round_trip(self, grid16):
        f = random_band_limited(grid16, 3)
        w = transform_forward(f)
        back = transform_inverse(w)
        scale = np.abs(f.samples).max()
        assert np.abs(back.samples - f.samples).max() < 1e-12 * scale

    def test_parseval(self, grid16):
        for seed in range(5):
            f = random_band_limited(grid16, seed)
            w = transform_forward(f)
            phys = (f.samples**2).sum() * grid16.cell_volume
            assert phys == pytest.approx(l2_norm_sq(w), rel=1e-12)

    def test_nyquist_forced_zero(self, grid16):
        # (-1)^j along an axis lives on its Nyquist plane only, which the
        # band does not hold
        j = np.arange(16)
        samples = np.zeros((3, 16, 16, 16))
        samples[0] = ((-1.0) ** j)[:, None, None]
        samples[1] = ((-1.0) ** j)[None, None, :]
        samples[2] = ((-1.0) ** j)[None, :, None] * np.cos(grid16.axes()[0])
        w = transform_forward(RealVectorField(grid16, samples))
        assert np.all(w.coeffs == 0)

    def test_hermitian_symmetry(self, grid16):
        w = transform_forward(random_band_limited(grid16, 5))
        assert plane_hermitian_error(w) < 1e-13 * np.abs(w.coeffs).max()

    # n = 24 and 48 are not powers of two: the inverse's 1/n^3 multiply after
    # the last pass is bitwise scipy's normalization there too
    @pytest.mark.parametrize("n", [16, 24, 32, 48])
    @pytest.mark.parametrize("batch", [1, 3, 6, 9])
    def test_inverse_per_component_equals_batched(self, n, batch):
        grid = build_grid(n, 2.0 * math.pi)
        rng = np.random.default_rng(batch)
        shape = (batch,) + grid.xi_sq.shape
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        batched = scipy.fft.irfftn(
            scatter(coeffs, grid) * (n**3 / grid.l_box**1.5), s=(n, n, n),
            axes=(-3, -2, -1),
        )
        assert np.array_equal(spec_to_phys(coeffs, grid), batched)

    def test_inverse_into_given_array(self, grid16):
        # out= fills the first eight slots of a gradient tensor in place,
        # bitwise the samples it returns without out=, and leaves the ninth
        rng = np.random.default_rng(8)
        shape = (8,) + grid16.xi_sq.shape
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        tensor = np.full((3, 3, 16, 16, 16), np.nan)
        slots = tensor.reshape(9, 16, 16, 16)[:8]
        assert spec_to_phys(coeffs, grid16, out=slots) is slots
        assert np.array_equal(slots, spec_to_phys(coeffs, grid16))
        assert np.isnan(tensor[2, 2]).all()

    def test_band_shape(self, grid16):
        # K = 5 at n = 16: 11 rows per axis and kz = 0 .. 5
        w = transform_forward(random_band_limited(grid16, 5))
        assert w.coeffs.shape == (3, 11, 11, 6)
        assert grid16.multiplicity.shape == (11, 11, 6)
        assert set(np.unique(grid16.multiplicity[:, :, 0])) == {1.0}
        assert set(np.unique(grid16.multiplicity[:, :, 1:])) == {2.0}


def random_band(grid, seed):
    rng = np.random.default_rng(seed)
    shape = (3,) + grid.xi_sq.shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestBand:
    """The grid's 2/3 band against the ``rfftn`` half spectrum, which the
    tests build themselves."""

    @pytest.mark.parametrize("n, entries", [(32, 4851), (64, 40678)])
    def test_holds_the_dealiased_modes(self, n, entries):
        grid = build_grid(n, 8.0 * math.pi)
        k = grid.dealias_kmax
        kx, ky, kz = half_wavenumbers(grid)
        inside = (np.abs(kx) <= k) & (np.abs(ky) <= k) & (kz <= k)
        assert grid.xi_sq.shape == (2 * k + 1, 2 * k + 1, k + 1)
        assert grid.xi_sq.size == entries == inside.sum()

    def test_frequencies_and_weights_are_the_grids(self, grid16):
        # the band's entries of the half spectrum's arrays, bitwise
        kx, ky, kz = half_wavenumbers(grid16)
        xi = [np.broadcast_to(k * grid16.dxi, half_shape(grid16)) for k in (kx, ky, kz)]
        xi_sq = xi[0] ** 2 + xi[1] ** 2 + xi[2] ** 2
        mult = np.where((kz == 0) | (kz == grid16.n // 2), 1.0, 2.0)
        for axis in range(3):
            band_xi = np.broadcast_to(grid16.xi[axis], grid16.xi_sq.shape)
            assert np.array_equal(band_xi, gather(xi[axis], grid16))
        assert np.array_equal(grid16.xi_sq, gather(xi_sq, grid16))
        assert np.array_equal(
            grid16.multiplicity,
            gather(np.broadcast_to(mult, half_shape(grid16)), grid16))
        inv = gather(xi_sq, grid16)
        inv[0, 0, 0] = np.inf
        assert np.array_equal(grid16.inv_xi_sq, 1.0 / inv)

    @pytest.mark.parametrize("n", [16, 24, 32, 48])
    def test_transforms_equal_the_grids(self, n):
        # bitwise: the inverse transforms the scaled, zero-padded half
        # spectrum, and the forward gathers the band out of the scaled one,
        # dropping the Nyquist planes and every mode beyond K
        grid = build_grid(n, 2.0 * math.pi)
        b = random_band(grid, 3)
        scale = n**3 / grid.l_box**1.5
        samples = scipy.fft.irfftn(
            scatter(b, grid) * scale, s=(n, n, n), axes=(-3, -2, -1))
        assert np.array_equal(spec_to_phys(b, grid), samples)
        half = scipy.fft.rfftn(samples**2, axes=(-3, -2, -1))
        expected = gather(half, grid) * (grid.l_box**1.5 / n**3)
        assert np.array_equal(phys_to_spec(samples**2, grid), expected)

    def test_transforms_leave_their_input(self, grid16):
        # callers reuse what they transform; the inverse's zeroed buffers,
        # reused across components, rely on the same of each pocketfft pass
        b = random_band(grid16, 5)
        kept = b.copy()
        samples = spec_to_phys(b, grid16)
        assert np.array_equal(b, kept)
        kept = samples.copy()
        phys_to_spec(samples, grid16)
        assert np.array_equal(samples, kept)

    def test_operators_run_on_band_fields(self, grid16):
        # the projection and the Parseval pairing on the band equal their
        # half-spectrum forms on the zero-padded coefficients
        b = random_band(grid16, 4)
        c = scatter(b, grid16)
        kx, ky, kz = half_wavenumbers(grid16)
        xi = [k * grid16.dxi for k in (kx, ky, kz)]
        xi_sq = xi[0] ** 2 + xi[1] ** 2 + xi[2] ** 2
        inv = np.zeros_like(xi_sq)
        inv[xi_sq > 0] = 1.0 / xi_sq[xi_sq > 0]
        div = (xi[0] * c[0] + xi[1] * c[1] + xi[2] * c[2]) * inv
        full = np.stack([c[i] - xi[i] * div for i in range(3)])
        projected = leray_project(SpectralVectorField(grid16, b)).coeffs
        assert np.array_equal(scatter(projected, grid16), full)
        mult = np.where((kz == 0) | (kz == grid16.n // 2), 1.0, 2.0)
        assert parseval_pair(b, b, grid16) == pytest.approx(
            float((mult * np.abs(c) ** 2).sum()), rel=1e-14
        )

    def test_a_dropped_grid_is_freed_at_once(self):
        # no reference cycle in a grid: each pipeline run builds one, and
        # one left to the cycle collector stays resident
        gc.disable()
        try:
            grid = weakref.ref(build_grid(16, 2.0 * math.pi))
            assert grid() is None
        finally:
            gc.enable()


class TestLayoutContract:
    """Every public producer of coefficients returns them on the band."""

    def test_every_producer_returns_band_coefficients(self, grid16, tmp_path):
        shape = (3,) + grid16.xi_sq.shape
        u = generate(FieldSpec("random_solenoidal", seed=1, l2_norm_target=0.05,
                               xi_cutoff=2.0), grid16)
        cfg = TrajectoryConfig(n=16, l_box=grid16.l_box, sample_taus=[0.0, 0.02],
                               delta=0.05, alpha=0.1)
        write_snapshot(tmp_path / "u.nsvf", transform_inverse(u), t=0.0)
        produced = {
            "generate": u,
            "transform_forward": transform_forward(random_band_limited(grid16, 1)),
            "leray_project": leray_project(u),
            "nse_rhs": nse_rhs(u),
            "step": step(SimState(0.0, u), 0.01, cfg).u_hat,
            "make_test_field": make_test_field(grid16, 0, 0.1, 0.2).spatial,
            "rescale_data": rescale_data(u, 2),  # |k| <= 2 goes to |k| <= 4
            "initial_from_snapshot": initial_from_snapshot(tmp_path / "u.nsvf")[0],
        }
        produced.update(
            (f"snapshot {i}", snap.u_hat) for i, snap in enumerate(simulate(u, cfg)))
        for name, field in produced.items():
            assert field.grid == grid16, name
            assert field.coeffs.shape == shape, name

    def test_half_spectrum_array_is_rejected(self, grid16):
        with pytest.raises(ConfigurationError):
            SpectralVectorField(grid16, np.zeros((3,) + half_shape(grid16), complex))


class TestDerivative:
    """``1j * grid.xi`` is the derivative multiplier in the transforms'
    convention, as the integrator and the ledger use it."""

    def test_sin_to_cos(self, grid16):
        x = grid16.axes()[0]
        samples = np.zeros((3, 16, 16, 16))
        samples[0] = np.sin(x) * np.ones((1, 16, 16))
        w = transform_forward(RealVectorField(grid16, samples))
        d = transform_inverse(derivative(w, (1, 0, 0)))
        expected = np.cos(x) * np.ones((1, 16, 16))
        assert np.abs(d.samples[0] - expected).max() < 1e-13

    def test_norm_scaling_aligned_mode(self, grid16):
        # single mode at |xi| = 2 on the x axis; second x-derivative scales
        # the norm by |xi|^2
        x = grid16.axes()[0]
        samples = np.zeros((3, 16, 16, 16))
        samples[1] = np.cos(2.0 * x) * np.ones((1, 16, 16))
        w = transform_forward(RealVectorField(grid16, samples))
        d = derivative(w, (2, 0, 0))
        assert l2_norm(d) == pytest.approx(4.0 * l2_norm(w), rel=1e-13)

    def test_hermitian_preserved(self, grid16):
        w = transform_forward(random_band_limited(grid16, 9))
        # (1, 1, 1) vanishes on the kz = 0 plane; (1, 2, 0) does not
        for beta in ((1, 1, 1), (1, 2, 0)):
            d = derivative(w, beta)
            assert plane_hermitian_error(d) < 1e-13 * max(np.abs(d.coeffs).max(), 1e-30)


class TestLerayProjection:
    def test_gradient_annihilated(self, grid16):
        x = grid16.axes()[0]
        # grad(cos x) = (-sin x, 0, 0)
        samples = np.zeros((3, 16, 16, 16))
        samples[0] = -np.sin(x) * np.ones((1, 16, 16))
        w = transform_forward(RealVectorField(grid16, samples))
        p = leray_project(w)
        assert np.abs(p.coeffs).max() < 1e-14

    def test_planar_vortex_unchanged(self, grid16):
        x, y, _ = grid16.axes()
        samples = np.zeros((3, 16, 16, 16))
        samples[0] = (np.sin(x) * np.cos(y)) * np.ones((1, 1, 16))
        samples[1] = (-np.cos(x) * np.sin(y)) * np.ones((1, 1, 16))
        w = transform_forward(RealVectorField(grid16, samples))
        p = leray_project(w)
        assert np.abs(p.coeffs - w.coeffs).max() < 1e-12 * np.abs(w.coeffs).max()

    def test_divergence_and_idempotence(self, grid16):
        w = transform_forward(random_band_limited(grid16, 13))
        p = leray_project(w)
        grad_norm = l2_norm(derivative(w, (1, 0, 0)))
        div_norm = math.sqrt(
            float((grid16.multiplicity
                   * np.abs(1j * (grid16.xi[0] * p.coeffs[0]
                                  + grid16.xi[1] * p.coeffs[1]
                                  + grid16.xi[2] * p.coeffs[2])) ** 2).sum())
        )
        assert div_norm <= 1e-10 * grad_norm
        p2 = leray_project(p)
        assert np.abs(p2.coeffs - p.coeffs).max() < 1e-12 * np.abs(p.coeffs).max()

    def test_per_mode_solenoidal_invariant(self, grid16):
        p = leray_project(transform_forward(random_band_limited(grid16, 17)))
        assert solenoidal_error(p) <= 1e-10

    def test_self_adjoint(self, grid16):
        a = transform_forward(random_band_limited(grid16, 19))
        b = transform_forward(random_band_limited(grid16, 23))
        lhs = l2_inner(leray_project(a), b)
        rhs = l2_inner(a, leray_project(b))
        assert abs(lhs - rhs) <= 1e-12 * l2_norm(a) * l2_norm(b)

    def test_commutes_with_derivative(self, grid16):
        w = transform_forward(random_band_limited(grid16, 29))
        beta = (1, 1, 0)
        a = derivative(leray_project(w), beta)
        b = leray_project(derivative(w, beta))
        assert np.abs(a.coeffs - b.coeffs).max() <= 1e-12 * np.abs(a.coeffs).max()


class TestInnerProduct:
    def test_modulated_vortex_energy(self, grid16):
        # (sin x cos y cos z, -cos x sin y cos z, 0): each component
        # integrates to pi^3 over the unit box
        x, y, z = grid16.axes()
        samples = np.zeros((3, 16, 16, 16))
        samples[0] = np.sin(x) * np.cos(y) * np.cos(z)
        samples[1] = -np.cos(x) * np.sin(y) * np.cos(z)
        w = transform_forward(RealVectorField(grid16, samples))
        assert l2_norm_sq(w) == pytest.approx(2.0 * math.pi**3, rel=1e-13)

    def test_orthogonal_modes(self, grid16):
        x = grid16.axes()[0]
        y = grid16.axes()[1]
        a = np.zeros((3, 16, 16, 16))
        b = np.zeros((3, 16, 16, 16))
        a[0] = np.sin(x) * np.ones((1, 16, 16))
        b[0] = np.sin(2 * y) * np.ones((16, 1, 16))
        wa = transform_forward(RealVectorField(grid16, a))
        wb = transform_forward(RealVectorField(grid16, b))
        assert abs(l2_inner(wa, wb)) < 1e-14 * l2_norm(wa) * l2_norm(wb)

    def test_positivity(self, grid16):
        w = transform_forward(random_band_limited(grid16, 31))
        assert l2_inner(w, w) > 0
        assert l2_inner(zero_field(grid16), zero_field(grid16)) == 0.0

    def test_grid_mismatch(self, grid16):
        other = build_grid(16, 4.0 * math.pi)
        with pytest.raises(GridMismatchError):
            l2_inner(zero_field(grid16), zero_field(other))

    def test_symmetry(self, grid16):
        a = transform_forward(random_band_limited(grid16, 37))
        b = transform_forward(random_band_limited(grid16, 41))
        assert l2_inner(a, b) == pytest.approx(l2_inner(b, a), rel=1e-14)


class TestFullLatticeSums:
    """Half-spectrum sums against the physical sum and the full-cube ``fftn``."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([8, 10, 16]),
           box=st.sampled_from([2.0 * math.pi, 8.0 * math.pi]))
    def test_parseval_on_band_limited_data(self, seed, n, box):
        f = random_band_limited(build_grid(n, box), seed)
        phys = (f.samples**2).sum() * f.grid.cell_volume
        assert l2_norm_sq(transform_forward(f)) == pytest.approx(phys, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([8, 10, 16]),
           box=st.sampled_from([2.0 * math.pi, 8.0 * math.pi]))
    def test_amplitude_bound_matches_full_cube(self, seed, n, box):
        grid = build_grid(n, box)
        f = random_band_limited(grid, seed)
        full = np.fft.fftn(f.samples, axes=(1, 2, 3)) * (box**1.5 / n**3)
        sums = np.abs(full).sum(axis=(1, 2, 3))
        expected = np.sqrt((sums**2).sum()) / box**1.5
        assert _amplitude_bound(transform_forward(f)) == pytest.approx(
            expected, rel=1e-12
        )


class TestShells:
    @pytest.mark.parametrize("n", [16, 32])
    def test_each_mode_sits_on_its_shell(self, n):
        grid = build_grid(n, 8.0 * math.pi)
        radii = grid.shell_radii[grid.shell_index].reshape(grid.xi_mag.shape)
        assert np.abs(radii - grid.xi_mag).max() <= 1e-13 * grid.xi_mag.max()
        assert np.all(np.diff(grid.shell_radii) > 0)

    @pytest.mark.parametrize("l_box_pi", [2.0, 8.0, 16.0, "n/4"])
    def test_tail_shells_lie_beyond_two_thirds_of_nyquist(self, l_box_pi):
        # exactly the shells with |k| > n/3, decided on the integer |k|^2, so
        # rounding in |xi| never splits a shell on the boundary |k| = n/3
        # (at n = 54 the shell |k|^2 = 324)
        on_boundary = []
        for n in range(8, 130, 2):
            box = n / 4.0 if l_box_pi == "n/4" else l_box_pi
            grid = build_grid(n, box * math.pi)
            k_sq = ((grid.wavenumbers**2)[:, None, None]
                    + (grid.wavenumbers**2)[None, :, None]
                    + (np.arange(grid.dealias_kmax + 1) ** 2)[None, None, :])
            tail = grid.tail_shells[grid.shell_index].reshape(k_sq.shape)
            assert np.array_equal(tail, 9 * k_sq > n * n), n
            if (9 * k_sq == n * n).any():
                on_boundary.append(n)
        assert 54 in on_boundary

    def test_shell_sum_is_the_full_lattice_sum_per_shell(self, grid16):
        # counting modes: shells |k|^2 = 0, 1, 2, 3 hold 1, 6, 12, 8 modes
        counts = shell_sum(np.ones(grid16.xi_sq.shape), grid16)
        assert counts.sum() == (2 * grid16.dealias_kmax + 1) ** 3
        assert list(counts[:4]) == [1.0, 6.0, 12.0, 8.0]
        w = transform_forward(random_band_limited(grid16, 2))
        energy = shell_sum((np.abs(w.coeffs) ** 2).sum(axis=0), grid16)
        assert energy.sum() == pytest.approx(l2_norm_sq(w), rel=1e-13)
