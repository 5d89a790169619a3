import math

import numpy as np
import pytest

from nsverify.cutoffs import (
    balance_shell_integrand,
    dilation_flux,
    profile_csvs,
    weight_tables,
)
from nsverify.errors import DomainError
from nsverify.spectral import (
    SpectralVectorField,
    shell_sum,
    solenoidal_error,
    spec_to_phys,
)

from conftest import convective_term, derivative, ledger_record, random_solenoidal

ALL_KINDS = ["phi", "one_minus_phi", "tilde", "chi"]
CSV_NAMES = {"phi": "phi.csv", "one_minus_phi": "one_minus_phi.csv",
             "tilde": "tilde.csv", "chi": "chi_alpha0.1.csv"}


def psi_eval(kind, r, alpha=0.1):
    """``psi(r) = sqrt(psi^2)`` from the table; a scalar for a scalar ``r``."""
    r = np.asarray(r, dtype=float)
    sq = weight_tables(np.atleast_1d(r), alpha)[kind][0]
    return np.sqrt(sq).reshape(r.shape)[()]


def phi_eval(r):
    return psi_eval("phi", r)


def chi_eval(r, alpha):
    return psi_eval("chi", r, alpha)


def sq_columns(kind, r, alpha=0.1):
    """``psi^2``, ``r d(psi^2)/dr`` and that kernel's slope from the table."""
    return weight_tables(np.asarray(r, dtype=float), alpha)[kind]


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

    def test_tilde_partition(self):
        r = np.linspace(0.0, 3.0, 1000)
        phi = psi_eval("phi", r)
        tilde = psi_eval("tilde", r)
        assert np.abs(phi**2 + tilde**2 - 1.0).max() < 1e-14

    def test_values_in_unit_interval(self):
        r = np.linspace(0.0, 4.0, 2000)
        for kind in ALL_KINDS:
            vals = psi_eval(kind, r)
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


class TestSlopes:
    """Analytic radial derivatives against central finite differences."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_radial_slope(self, kind):
        # the exported dpsi_dr column against central differences of its psi
        # column, clear of chi's origin and cap kink and of the step's ends
        text = profile_csvs(0.1)[CSV_NAMES[kind]]
        r, psi, slope = np.loadtxt(text.splitlines(), delimiter=",", skiprows=1).T
        h = r[1] - r[0]
        fd = (psi[2:] - psi[:-2]) / (2 * h)
        mid = r[1:-1]
        keep = ((mid >= 0.05) & (mid <= 0.55) | (mid >= 0.65) & (mid <= 0.95)
                | (mid >= 1.05) & (mid <= 1.95) | (mid >= 2.05) & (mid <= 2.5))
        scale = np.abs(fd[keep]).max() + 1.0
        assert np.abs(slope[1:-1][keep] - fd[keep]).max() < 5e-5 * scale

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sq_slope(self, kind):
        # the kernel column over r is d(psi^2)/dr
        r = np.linspace(0.05, 2.5, 300)
        r = r[np.abs(r - 0.6) > 0.01]  # keep clear of the chi cap kink
        h = 1e-6
        fd = (sq_columns(kind, r + h)[0] - sq_columns(kind, r - h)[0]) / (2 * h)
        slope = sq_columns(kind, r)[1] / r
        assert np.abs(slope - fd).max() < 5e-5 * (np.abs(fd).max() + 1)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_flux_kernel_slope(self, kind):
        r = np.linspace(0.05, 2.5, 300)
        r = r[np.abs(r - 0.6) > 0.01]
        h = 1e-6
        fd = (sq_columns(kind, r + h)[1] - sq_columns(kind, r - h)[1]) / (2 * h)
        assert np.abs(sq_columns(kind, r)[2] - fd).max() < 5e-4 * (
            np.abs(fd).max() + 1
        )


class TestApplyProfile:
    """A profile as the Fourier multiplier ``psi(|xi|)`` on the lattice."""

    @staticmethod
    def apply(w, kind):
        return SpectralVectorField(w.grid, w.coeffs * psi_eval(kind, w.grid.xi_mag))

    def test_plateau_identity(self, grid32):
        w = random_solenoidal(grid32, 0, cutoff=0.9)
        out = self.apply(w, "phi")
        assert np.array_equal(out.coeffs, w.coeffs)

    def test_outer_support_zero(self, grid32):
        w = random_solenoidal(grid32, 1)
        mask = grid32.xi_mag >= 2.0
        shifted = SpectralVectorField(grid32, w.coeffs * mask)
        out = self.apply(shifted, "phi")
        assert np.abs(out.coeffs).max() == 0.0

    def test_partition_of_unity(self, grid32):
        w = random_solenoidal(grid32, 2)
        low = self.apply(w, "phi")
        high = self.apply(w, "one_minus_phi")
        assert np.abs(low.coeffs + high.coeffs - w.coeffs).max() < 1e-15

    def test_solenoidality_and_commutation(self, grid32):
        w = random_solenoidal(grid32, 3)
        out = self.apply(w, "tilde")
        assert solenoidal_error(out) < 1e-10
        a = self.apply(derivative(w, (1, 0, 1)), "chi")
        b = derivative(self.apply(w, "chi"), (1, 0, 1))
        assert np.abs(a.coeffs - b.coeffs).max() < 1e-14


def single_mode_field(grid, k_index, component=2):
    """Real single-mode solenoidal field at wavenumber k_index * e1."""
    assert abs(k_index) <= grid.dealias_kmax, "the mode lies outside the 2/3 band"
    coeffs = np.zeros((3,) + grid.xi_sq.shape, dtype=complex)
    rows = coeffs.shape[1]
    coeffs[component, k_index % rows, 0, 0] = 1.0
    coeffs[component, (-k_index) % rows, 0, 0] = 1.0
    return SpectralVectorField(grid, coeffs)


def diagonal_mode_field(grid, k, kz):
    """Real single-mode solenoidal field at the wavevector ``(k, k, kz)``,
    ``kz > 0`` (the conjugate mode is implied), along ``(1, -1, 0)``."""
    coeffs = np.zeros((3,) + grid.xi_sq.shape, dtype=complex)
    coeffs[0, k, k, kz] = 1.0
    coeffs[1, k, k, kz] = -1.0
    return SpectralVectorField(grid, coeffs)


class TestDecompose:
    """The ledger's low/high/band split of a field, at tau = 0 (s = 1)."""

    def test_low_mode(self, grid32):
        rec = ledger_record(single_mode_field(grid32, 2), 0.0)  # |xi| = 0.5
        assert rec.E0_low == rec.E0 > 0.0
        assert rec.E0_high == rec.E0_tilde == 0.0
        assert rec.sup_w_low == rec.sup_norm_w

    def test_high_mode(self, grid32):
        # |xi| = 3 inside the 2/3 band, |k| <= 10 per axis
        rec = ledger_record(diagonal_mode_field(grid32, 8, 4), 0.0)
        assert rec.E0_low == rec.E0_low_chi == 0.0
        assert rec.E0_high == rec.E0_tilde == rec.E0 > 0.0
        assert rec.sup_w_low == 0.0

    def test_energy_split(self, grid32):
        for seed in range(5):
            rec = ledger_record(random_solenoidal(grid32, seed), 0.0)
            assert abs(rec.E0 - rec.E0_low - rec.E0_tilde) <= 1e-10 * rec.E0

    def test_reconstruction(self, grid32):
        # low + high = u: the two blocks' sum gives the unsplit field's sup
        # and the unsplit transfer sum_shells |xi|^2 Re<F[(u.grad)u], u_hat>
        w = random_solenoidal(grid32, 9)
        rec = ledger_record(w, 0.0)
        g, c = grid32, w.coeffs
        assert rec.E0_high > 0.0
        u = spec_to_phys(c, g)
        sup = math.sqrt(float((u**2).sum(axis=0).max()))
        assert abs(rec.sup_norm_w - sup) <= 1e-13 * sup
        density = (convective_term(w).coeffs * np.conj(c)).real
        shell_t = g.shell_radii**2 * shell_sum(density.sum(axis=0), g)
        magnitude = float(np.abs(shell_t).sum())
        assert magnitude > 0.0
        assert abs(rec.T_grad - float(shell_t.sum())) <= 1e-13 * magnitude

    def test_alpha_validation(self, grid32):
        with pytest.raises(DomainError):
            ledger_record(random_solenoidal(grid32, 0), 0.0, alpha=0.5)


class TestDilationFlux:
    def test_plateau_zero(self, grid32):
        w = single_mode_field(grid32, 3)  # |xi| = 0.75 inside the plateau
        assert dilation_flux(w, "phi", 0.1) == 0.0

    def test_transition_band_signs(self, grid32):
        w = single_mode_field(grid32, 6)  # |xi| = 1.5
        assert dilation_flux(w, "phi", 0.1) < 0.0
        assert dilation_flux(w, "one_minus_phi", 0.1) > 0.0

    def test_chi_sign_is_radius_dependent(self, grid32):
        # below the cap the fractional weight increases, so its flux is
        # positive there and negative across the step transition
        low = single_mode_field(grid32, 2)  # |xi| = 0.5 < cap
        band = single_mode_field(grid32, 6)  # |xi| = 1.5
        assert dilation_flux(low, "chi", 0.1) > 0.0
        assert dilation_flux(band, "chi", 0.1) < 0.0


class TestBalanceIntegrands:
    @pytest.mark.parametrize("alpha", [0.02, 0.06, 0.1, 0.12])
    def test_low_block_nonpositive(self, alpha):
        r = np.linspace(0.0, 1.0, 2000)
        assert np.max(balance_shell_integrand(r, alpha)) <= 1e-15

    @pytest.mark.parametrize("alpha", [0.02, 0.06, 0.1, 0.12])
    def test_transition_band_nonpositive(self, alpha):
        r = np.linspace(1.0, 2.0, 2000)
        assert np.max(balance_shell_integrand(r, alpha)) <= 1e-15

    @pytest.mark.parametrize("alpha", [0.02, 0.1])
    def test_combined_weight_slope_nonpositive(self, alpha):
        # r * d/dr (phi^2 - chi^2) <= 0 everywhere: the true signed
        # combination behind the flux comparison
        r = np.linspace(0.0, 2.5, 3000)
        w = weight_tables(r, alpha)
        combined = w["phi"][1] - w["chi"][1]
        assert combined.max() <= 1e-15


def test_export_profile_table():
    tables = profile_csvs(0.1)
    assert list(tables) == list(CSV_NAMES.values())
    lines = tables["phi.csv"].splitlines()
    assert lines[0] == "r,psi,dpsi_dr"
    assert len(lines) == 3002
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    assert float(lines[-1].split(",")[0]) == 3.0
