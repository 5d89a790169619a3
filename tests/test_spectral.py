import gc
import math
import weakref

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from nsverify.errors import ConfigurationError, GridMismatchError
from nsverify.dynamics import _amplitude_bound
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

from conftest import derivative, random_band_limited, zero_field


def plane_hermitian_error(w):
    """Max deviation from ``coeff(-kx, -ky, 0) == conj(coeff(kx, ky, 0))``.

    The half spectrum stores each mode with ``kz > 0`` once, so conjugate
    symmetry is structural there; the ``kz = 0`` plane holds both members of
    each pair and is the one place it can fail.
    """
    plane = w.coeffs[..., 0]
    rev = np.roll(plane[:, ::-1, ::-1], (1, 1), axis=(1, 2))
    return float(np.abs(rev - np.conj(plane)).max())


class TestBuildGrid:
    def test_frequency_spacing_unit_box(self):
        g = build_grid(8, 2.0 * math.pi)
        assert g.dxi == pytest.approx(1.0)
        assert set(g.wavenumbers.astype(int)) == set(range(-4, 4))

    def test_wide_box(self):
        g = build_grid(64, 16.0 * math.pi)
        assert g.dxi == pytest.approx(1.0 / 8.0)
        assert np.max(np.abs(g.xi1d)) == pytest.approx(4.0)

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
        # entries sit at k = +-e1 of the first component
        assert {tuple(i) for i in nz} == {(0, 1, 0, 0), (0, 15, 0, 0)}

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
        rng = np.random.default_rng(0)
        w = transform_forward(
            RealVectorField(grid16, rng.standard_normal((3, 16, 16, 16)))
        )
        assert np.all(w.coeffs[:, 8, :, :] == 0)
        assert np.all(w.coeffs[:, :, :, 8] == 0)

    def test_hermitian_symmetry(self, grid16):
        w = transform_forward(random_band_limited(grid16, 5))
        assert plane_hermitian_error(w) < 1e-13 * np.abs(w.coeffs).max()

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("batch", [1, 3, 9])
    def test_inverse_per_component_equals_batched(self, n, batch):
        grid = build_grid(n, 2.0 * math.pi)
        rng = np.random.default_rng(batch)
        shape = (batch,) + grid.xi_sq.shape
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        batched = scipy.fft.irfftn(
            coeffs * (n**3 / grid.l_box**1.5), s=(n, n, n), axes=(-3, -2, -1)
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

    def test_half_spectrum_shape(self, grid16):
        w = transform_forward(random_band_limited(grid16, 5))
        assert w.coeffs.shape == (3, 16, 16, 9)
        assert grid16.multiplicity.shape == (16, 16, 9)
        assert set(np.unique(grid16.multiplicity[:, :, [0, 8]])) == {1.0}
        assert set(np.unique(grid16.multiplicity[:, :, 1:8])) == {2.0}


def random_band(grid, seed):
    rng = np.random.default_rng(seed)
    shape = (3,) + grid.band.shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestBand:
    @pytest.mark.parametrize("n, entries", [(32, 4851), (64, 40678)])
    def test_holds_the_dealiased_modes(self, n, entries):
        grid = build_grid(n, 8.0 * math.pi)
        k = grid.dealias_kmax
        assert grid.band.shape == (2 * k + 1, 2 * k + 1, k + 1)
        assert grid.band.xi_sq.size == entries == grid.dealias_mask.sum()

    def test_scatter_inverts_gather(self, grid16):
        c = transform_forward(random_band_limited(grid16, 1)).coeffs
        c *= grid16.dealias_mask
        band = grid16.band
        assert np.array_equal(band.scatter(band.gather(c)), c)
        b = random_band(grid16, 2)
        spread = band.scatter(b)
        assert np.all(spread[:, ~grid16.dealias_mask] == 0.0)
        assert np.array_equal(band.gather(spread), b)

    def test_frequencies_and_weights_are_the_grids(self, grid16):
        band = grid16.band
        for name in ("xi_sq", "inv_xi_sq", "multiplicity"):
            assert np.array_equal(
                band.scatter(getattr(band, name)),
                getattr(grid16, name) * grid16.dealias_mask,
            )
        for axis in range(3):
            xi = np.broadcast_to(band.xi[axis], band.shape)
            full = np.broadcast_to(grid16.xi[axis], grid16.xi_sq.shape)
            assert np.array_equal(band.gather(full), xi)

    def test_transforms_equal_the_grids(self, grid16):
        # bitwise: the inverse sees the zero-padded half spectrum, and the
        # forward gather is the masked half spectrum's band
        band = grid16.band
        b = random_band(grid16, 3)
        samples = spec_to_phys(b, band)
        assert np.array_equal(samples, spec_to_phys(band.scatter(b), grid16))
        half = phys_to_spec(samples**2, grid16) * grid16.dealias_mask
        assert np.array_equal(phys_to_spec(samples**2, band), band.gather(half))

    def test_operators_run_on_band_fields(self, grid16):
        band = grid16.band
        b = random_band(grid16, 4)
        c = band.scatter(b)
        projected = leray_project(SpectralVectorField(band, b)).coeffs
        full = leray_project(SpectralVectorField(grid16, c)).coeffs
        assert np.array_equal(band.scatter(projected), full)
        assert parseval_pair(b, b, band) == pytest.approx(
            parseval_pair(c, c, grid16), rel=1e-14
        )

    def test_a_band_is_not_its_grid(self, grid16):
        assert grid16.band != grid16
        assert grid16 != grid16.band
        assert build_grid(16, grid16.l_box).band is not grid16.band

    def test_a_dropped_grid_is_freed_at_once(self):
        # no reference cycle through the band: each pipeline run builds a
        # grid, and one left to the cycle collector stays resident
        gc.disable()
        try:
            grid = weakref.ref(build_grid(16, 2.0 * math.pi))
            assert grid() is None
        finally:
            gc.enable()


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

    def test_shell_sum_is_the_full_lattice_sum_per_shell(self, grid16):
        # counting modes: shells |k|^2 = 0, 1, 2, 3 hold 1, 6, 12, 8 modes
        counts = shell_sum(np.ones(grid16.xi_sq.shape), grid16)
        assert counts.sum() == grid16.n**3
        assert list(counts[:4]) == [1.0, 6.0, 12.0, 8.0]
        w = transform_forward(random_band_limited(grid16, 2))
        energy = shell_sum((np.abs(w.coeffs) ** 2).sum(axis=0), grid16)
        assert energy.sum() == pytest.approx(l2_norm_sq(w), rel=1e-13)
