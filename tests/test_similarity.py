import math

import numpy as np
import pytest

from nsverify.cutoffs import weight_tables
from nsverify.errors import HorizonError
from nsverify.similarity import frame, t_of_tau
from nsverify.spectral import SpectralVectorField, l2_norm_sq, spec_to_phys

from conftest import derivative, ledger_record, random_solenoidal, zero_field
from test_cutoffs import diagonal_mode_field, single_mode_field


class TestFrame:
    def test_unit_horizon_start(self):
        fr = frame(0.0, 1.0)
        assert fr.tau == 0.0
        assert fr.scale == 1.0

    def test_exact_logarithm(self):
        fr = frame(1.0 - math.exp(-2.0), 1.0)
        assert fr.tau == pytest.approx(2.0, rel=1e-14)
        assert fr.scale == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_horizon_violation(self):
        with pytest.raises(HorizonError):
            frame(1.0, 1.0)
        with pytest.raises(HorizonError):
            frame(1.5, 1.0)
        with pytest.raises(HorizonError):
            frame(-0.1, 1.0)

    @pytest.mark.parametrize("t", [0.0, 0.3, 0.9, 0.999, 1.0 - 1e-9])
    def test_round_trip(self, t):
        fr = frame(t, 1.0)
        assert t_of_tau(fr.tau, 1.0) == pytest.approx(t, rel=1e-14, abs=1e-15)

    def test_general_horizon(self):
        fr = frame(0.5, 2.0)
        assert fr.tau == pytest.approx(-math.log(1.5), rel=1e-14)
        assert fr.scale == pytest.approx(math.sqrt(1.5), rel=1e-14)


# The rescaled functionals as the ledger evaluates them from the physical
# field (see the frame identities of nsverify.similarity); T = 1, so
# s = sqrt(1 - t).


class TestSimilarityNorm:
    def test_unit_scale_matches_l2(self, grid32):
        u = random_solenoidal(grid32, 0)
        assert ledger_record(u, 0.0).E0 == pytest.approx(l2_norm_sq(u), rel=1e-13)

    def test_quarter_horizon_factor(self, grid32):
        u = random_solenoidal(grid32, 1)
        rec = ledger_record(u, 0.75)  # scale 0.5
        assert rec.E0 == pytest.approx(2.0 * l2_norm_sq(u), rel=1e-13)

    def test_first_derivative_chain_rule(self, grid32):
        # analytic single mode: d1 norm picks up the frame factor s**(2|b|-1)
        u = single_mode_field(grid32, 4)  # |xi| = 1 on the x axis
        d1 = derivative(u, (1, 0, 0))
        assert ledger_record(u, 0.75).E1 == pytest.approx(
            0.5 * l2_norm_sq(d1), rel=1e-13
        )

    def test_scale_identity(self, grid32):
        # the defining identity: (rescaled norm) * s == physical norm
        u = random_solenoidal(grid32, 2)
        for t in (0.0, 0.3, 0.9):
            assert ledger_record(u, t).E0 * frame(t, 1.0).scale == pytest.approx(
                l2_norm_sq(u), rel=1e-12
            )


class TestSimilarityFilter:
    def test_shrunk_radius_passes(self, grid32):
        # |xi| = 3 mode at scale 0.25: effective radius 0.75, inside plateau
        u = diagonal_mode_field(grid32, 8, 4)
        t = 1.0 - 0.25**2
        assert frame(t, 1.0).scale == pytest.approx(0.25, rel=1e-13)
        rec = ledger_record(u, t)
        assert rec.E0_low == rec.E0 > 0.0
        assert rec.E0_high == 0.0

    def test_unit_scale_kills_outer_mode(self, grid32):
        rec = ledger_record(diagonal_mode_field(grid32, 8, 4), 0.0)  # |xi| = 3
        assert rec.E0_low == 0.0 < rec.E0


class TestFilteredEnergy:
    def test_plateau_matches_norm(self, grid32):
        u = random_solenoidal(grid32, 5, cutoff=0.9)
        for t in (0.0, 0.6):
            # the filter acts as identity on a sub-plateau spectrum (radius
            # shrinks further for t > 0)
            rec = ledger_record(u, t)
            assert rec.E0_low == pytest.approx(rec.E0, rel=1e-13)

    def test_zero_field(self, grid32):
        assert ledger_record(zero_field(grid32), 0.2).E0_low == 0.0

    def test_consistency_with_filter_norm(self, grid32):
        u = random_solenoidal(grid32, 6)
        for t in (0.0, 0.5, 0.9):
            s = frame(t, 1.0).scale
            tilde_sq = weight_tables(s * grid32.xi_mag, 0.1)["tilde"][0]
            filtered = SpectralVectorField(grid32, u.coeffs * np.sqrt(tilde_sq))
            assert ledger_record(u, t).E0_tilde == pytest.approx(
                l2_norm_sq(filtered) / s, rel=1e-12
            )

    def test_scaling_law_between_frames(self, grid32):
        # both sides of the frame identity evaluated at two scales
        u = random_solenoidal(grid32, 7)
        for t in (0.3, 0.84):
            s = frame(t, 1.0).scale
            phi_sq = weight_tables(s * grid32.xi_mag, 0.1)["phi"][0]
            direct = float(
                (grid32.multiplicity * phi_sq
                 * (np.abs(u.coeffs) ** 2).sum(axis=0)).sum() / s
            )
            assert ledger_record(u, t).E0_low == pytest.approx(direct, rel=1e-13)

    def test_weighted_blocks_bounded_by_energy(self, grid32):
        # chi^2 + (1 - phi^2) <= 1 pointwise, so the filtered energies never
        # exceed the full rescaled energy
        for seed in range(5):
            u = random_solenoidal(grid32, 20 + seed)
            for t in (0.0, 0.5, 0.95):
                rec = ledger_record(u, t)
                assert rec.E0_low_chi + rec.E0_tilde <= rec.E0 * (1.0 + 1e-12)


class TestBlowupRatio:
    """The sup-norm ratio ``||u(t)||_inf * (T - t)**0.5``, ``sup_norm_w``."""

    def test_zero(self, grid32):
        assert ledger_record(zero_field(grid32), 0.5).sup_norm_w == 0.0

    def test_multiplication(self, grid32):
        u = random_solenoidal(grid32, 8)
        sup = np.sqrt((spec_to_phys(u.coeffs, grid32) ** 2).sum(axis=0).max())
        rec = ledger_record(u, 0.75)  # scale 0.5
        assert rec.sup_norm_w == pytest.approx(0.5 * sup, rel=1e-14)
