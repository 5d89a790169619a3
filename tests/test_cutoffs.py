import math

import numpy as np
import pytest

from nsverify.cutoffs import (
    CutoffProfile,
    apply_profile,
    bernstein_constant,
    chi_eval,
    decompose,
    dilation_flux,
    export_profile_table,
    low_block_shell_integrand,
    make_profile,
    phi_eval,
    transition_shell_integrand,
    weight_tables,
)
from nsverify.errors import DomainError
from nsverify.spectral import (
    SpectralVectorField,
    l2_norm,
    l2_norm_sq,
    spec_to_phys,
    spectral_derivative,
    solenoidal_error,
)

from conftest import random_solenoidal

ALL_KINDS = ["phi", "one_minus_phi", "tilde", "chi"]


def profile(kind):
    return make_profile(kind, 0.1 if kind == "chi" else None)


class TestPhi:
    def test_plateau_and_support(self):
        assert phi_eval(0.5) == 1.0
        assert phi_eval(1.0) == 1.0
        assert phi_eval(2.0) == 0.0
        assert phi_eval(3.0) == 0.0

    def test_transition_monotone(self):
        r = np.linspace(1.0, 2.0, 500)
        vals = phi_eval(r)
        assert np.all(np.diff(vals) <= 0)
        assert 0.0 < phi_eval(1.5) < 1.0
        assert phi_eval(1.5) >= phi_eval(1.6)

    def test_negative_radius(self):
        with pytest.raises(DomainError):
            phi_eval(-0.1)

    def test_tilde_partition(self):
        r = np.linspace(0.0, 3.0, 1000)
        phi = profile("phi").eval(r)
        tilde = profile("tilde").eval(r)
        assert np.abs(phi**2 + tilde**2 - 1.0).max() < 1e-14

    def test_values_in_unit_interval(self):
        r = np.linspace(0.0, 4.0, 2000)
        for kind in ALL_KINDS:
            vals = profile(kind).eval(r)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


class TestChi:
    def test_power_branch(self):
        assert chi_eval(0.25, 0.1) == pytest.approx(0.25**0.7, rel=1e-14)

    def test_continuity_at_cap(self):
        # both branch formulas agree at r = 1/2 + alpha
        assert chi_eval(0.6, 0.1) == pytest.approx(0.6**0.7, rel=1e-14)
        eps = 1e-9
        assert chi_eval(0.6 - eps, 0.1) == pytest.approx(
            chi_eval(0.6 + eps, 0.1), rel=1e-6
        )

    def test_outer_support(self):
        assert chi_eval(3.0, 0.05) == 0.0

    def test_origin(self):
        assert chi_eval(0.0, 0.1) == 0.0

    @pytest.mark.parametrize("alpha", [0.2, 0.125, 0.0, -0.05])
    def test_alpha_domain(self, alpha):
        with pytest.raises(DomainError):
            chi_eval(1.0, alpha)

    def test_profile_requires_alpha(self):
        with pytest.raises(DomainError):
            CutoffProfile("chi", None)


class TestSlopes:
    """Analytic radial derivatives against central finite differences."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_radial_slope(self, kind):
        psi = profile(kind)
        r = np.concatenate(
            [np.linspace(0.05, 0.55, 40), np.linspace(0.65, 0.95, 30),
             np.linspace(1.05, 1.95, 60), np.linspace(2.05, 2.5, 10)]
        )
        h = 1e-6
        fd = (psi.eval(r + h) - psi.eval(r - h)) / (2 * h)
        scale = np.abs(fd).max() + 1.0
        assert np.abs(psi.radial_slope(r) - fd).max() < 5e-5 * scale

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sq_slope(self, kind):
        psi = profile(kind)
        r = np.linspace(0.05, 2.5, 300)
        r = r[np.abs(r - 0.6) > 0.01]  # keep clear of the chi cap kink
        h = 1e-6
        fd = (psi.sq(r + h) - psi.sq(r - h)) / (2 * h)
        assert np.abs(psi.sq_slope(r) - fd).max() < 5e-5 * (np.abs(fd).max() + 1)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_flux_kernel_slope(self, kind):
        psi = profile(kind)
        r = np.linspace(0.05, 2.5, 300)
        r = r[np.abs(r - 0.6) > 0.01]
        h = 1e-6
        fd = (psi.flux_kernel(r + h) - psi.flux_kernel(r - h)) / (2 * h)
        assert np.abs(psi.flux_kernel_slope(r) - fd).max() < 5e-4 * (
            np.abs(fd).max() + 1
        )

    def test_weight_tables_match_profiles(self):
        r = np.linspace(0.0, 3.0, 4001)
        alpha = 0.07
        w = weight_tables(r, alpha)
        for kind in ALL_KINDS:
            psi = make_profile(kind, alpha)
            columns = (psi.sq(r), psi.flux_kernel(r), psi.flux_kernel_slope(r))
            for got, expected in zip(w[kind], columns):
                assert np.array_equal(got, expected)


class TestApplyProfile:
    def test_plateau_identity(self, grid32):
        w = random_solenoidal(grid32, 0, cutoff=0.9)
        out = apply_profile(w, profile("phi"))
        assert np.array_equal(out.coeffs, w.coeffs)

    def test_outer_support_zero(self, grid32):
        w = random_solenoidal(grid32, 1)
        mask = grid32.xi_mag >= 2.0
        shifted = SpectralVectorField(grid32, w.coeffs * mask, True)
        out = apply_profile(shifted, profile("phi"))
        assert np.abs(out.coeffs).max() == 0.0

    def test_partition_of_unity(self, grid32):
        w = random_solenoidal(grid32, 2)
        low = apply_profile(w, profile("phi"))
        high = apply_profile(w, profile("one_minus_phi"))
        assert np.abs(low.coeffs + high.coeffs - w.coeffs).max() < 1e-15

    def test_solenoidality_and_commutation(self, grid32):
        w = random_solenoidal(grid32, 3)
        out = apply_profile(w, profile("tilde"))
        assert solenoidal_error(out) < 1e-10
        a = apply_profile(spectral_derivative(w, (1, 0, 1)), profile("chi"))
        b = spectral_derivative(apply_profile(w, profile("chi")), (1, 0, 1))
        assert np.abs(a.coeffs - b.coeffs).max() < 1e-14


def single_mode_field(grid, k_index, component=2):
    """Real single-mode solenoidal field at wavenumber k_index * e1."""
    coeffs = np.zeros((3, grid.n, grid.n, grid.n // 2 + 1), dtype=complex)
    coeffs[component, k_index % grid.n, 0, 0] = 1.0
    coeffs[component, (-k_index) % grid.n, 0, 0] = 1.0
    return SpectralVectorField(grid, coeffs, True)


class TestDecompose:
    def test_low_mode(self, grid32):
        w = single_mode_field(grid32, 2)  # |xi| = 0.5
        d = decompose(w)
        assert np.array_equal(d.low.coeffs, w.coeffs)
        assert np.abs(d.high.coeffs).max() == 0.0
        assert np.abs(d.tilde.coeffs).max() == 0.0

    def test_high_mode(self, grid32):
        w = single_mode_field(grid32, 12)  # |xi| = 3
        d = decompose(w)
        assert np.abs(d.low.coeffs).max() == 0.0
        assert np.array_equal(d.high.coeffs, w.coeffs)
        assert np.array_equal(d.tilde.coeffs, w.coeffs)

    def test_energy_split(self, grid32):
        for seed in range(5):
            w = random_solenoidal(grid32, seed)
            d = decompose(w)
            total = l2_norm_sq(w)
            split = l2_norm_sq(d.low) + l2_norm_sq(d.tilde)
            assert abs(total - split) <= 1e-10 * total

    def test_reconstruction(self, grid32):
        w = random_solenoidal(grid32, 9)
        d = decompose(w)
        err = np.abs(d.low.coeffs + d.high.coeffs - w.coeffs).max()
        assert err <= 1e-12 * np.abs(w.coeffs).max()

    def test_alpha_validation(self, grid32):
        with pytest.raises(DomainError):
            decompose(random_solenoidal(grid32, 0), alpha=0.5)


class TestDilationFlux:
    def test_plateau_zero(self, grid32):
        w = single_mode_field(grid32, 3)  # |xi| = 0.75 inside the plateau
        assert dilation_flux(w, profile("phi")) == 0.0

    def test_transition_band_signs(self, grid32):
        w = single_mode_field(grid32, 6)  # |xi| = 1.5
        assert dilation_flux(w, profile("phi")) < 0.0
        assert dilation_flux(w, profile("one_minus_phi")) > 0.0

    def test_chi_sign_is_radius_dependent(self, grid32):
        # below the cap the fractional weight increases, so its flux is
        # positive there and negative across the step transition
        chi = profile("chi")
        low = single_mode_field(grid32, 2)  # |xi| = 0.5 < cap
        band = single_mode_field(grid32, 6)  # |xi| = 1.5
        assert dilation_flux(low, chi) > 0.0
        assert dilation_flux(band, chi) < 0.0

    def test_scale_matches_rescaled_radius(self, grid32):
        w = single_mode_field(grid32, 12)  # |xi| = 3
        # at scale 0.5 the effective radius is 1.5; the sum carries 1/scale
        expected = profile("phi").flux_kernel(1.5) * l2_norm_sq(w) / 0.5
        assert dilation_flux(w, profile("phi"), scale=0.5) == pytest.approx(
            expected, rel=1e-13
        )


class TestBernsteinConstant:
    def test_closed_form_oracle(self):
        # independent oracle: the radial integral has the closed form
        # 4*pi * 2**(3+e) / (3+e) for integrand r**(2+e)
        for alpha, m in [(0.05, 4.0), (0.1, 4.0), (0.1, math.inf), (0.06, 6.0)]:
            mprime = 1.0 if math.isinf(m) else m / (m - 1.0)
            e = -(0.5 + 2 * alpha) * 2 * mprime / (2 - mprime)
            integral = 4 * math.pi * 2 ** (3 + e) / (3 + e)
            expected = (2 * math.pi) ** (3 / mprime) * integral ** (
                (2 - mprime) / (2 * mprime)
            )
            assert bernstein_constant(alpha, m) == pytest.approx(expected, rel=1e-9)

    def test_increasing_in_alpha_at_critical_index(self):
        # at m = 4 the singular weight dominates and the quadrature value
        # rises with alpha (it diverges as alpha -> 1/8)
        assert bernstein_constant(0.05, 4) < bernstein_constant(0.1, 4)
        assert bernstein_constant(0.1, 4) < bernstein_constant(0.124, 4)

    def test_finite_positive_across_range(self):
        for alpha in (0.01, 0.06, 0.12):
            for m in (4.0, 6.0, math.inf):
                val = bernstein_constant(alpha, m)
                assert math.isfinite(val) and val > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            bernstein_constant(0.2, 4)
        with pytest.raises(DomainError):
            bernstein_constant(0.1, 3)

    def test_low_block_norm_comparison(self, grid32):
        # empirical form of the L4-vs-L2 block bound; the measured ratio is
        # reported through the assertion margin
        alpha = 0.1
        cap = bernstein_constant(alpha, 4)
        chi = make_profile("chi", alpha)
        phi = make_profile("phi")
        worst = 0.0
        for seed in range(25):
            f = random_solenoidal(grid32, 100 + seed)
            low = apply_profile(f, phi)
            chi_low = apply_profile(f, chi)
            phys = spec_to_phys(low.coeffs, grid32)
            mag2 = (phys**2).sum(axis=0)
            l4 = float(((mag2**2).sum() * grid32.cell_volume) ** 0.25)
            ratio = l4 / l2_norm(chi_low)
            worst = max(worst, ratio)
        assert worst <= cap


class TestBalanceIntegrands:
    @pytest.mark.parametrize("alpha", [0.02, 0.06, 0.1, 0.12])
    def test_low_block_nonpositive(self, alpha):
        r = np.linspace(0.0, 1.0, 2000)
        assert np.max(low_block_shell_integrand(r, alpha)) <= 1e-15

    @pytest.mark.parametrize("alpha", [0.02, 0.06, 0.1, 0.12])
    def test_transition_band_nonpositive(self, alpha):
        r = np.linspace(1.0, 2.0, 2000)
        assert np.max(transition_shell_integrand(r, alpha)) <= 1e-15

    @pytest.mark.parametrize("alpha", [0.02, 0.1])
    def test_combined_weight_slope_nonpositive(self, alpha):
        # r * d/dr (phi^2 - chi^2) <= 0 everywhere: the true signed
        # combination behind the flux comparison
        r = np.linspace(0.0, 2.5, 3000)
        phi = make_profile("phi")
        chi = make_profile("chi", alpha)
        combined = phi.flux_kernel(r) - chi.flux_kernel(r)
        assert combined.max() <= 1e-15


def test_export_profile_table(tmp_path):
    path = tmp_path / "phi.csv"
    export_profile_table(profile("phi"), path, r_max=2.5, num=251)
    lines = path.read_text().splitlines()
    assert lines[0] == "r,psi,dpsi_dr"
    assert len(lines) == 252
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
