import math

import numpy as np
import pytest

from nsverify.cutoffs import apply_profile, make_profile
from nsverify.errors import HorizonError, UnsupportedOrderError
from nsverify.similarity import (
    blowup_rate_ratio,
    frame,
    similarity_filter,
    similarity_filtered_energy,
    similarity_norm,
    t_of_tau,
)
from nsverify.spectral import l2_norm_sq, spectral_derivative

from conftest import random_solenoidal
from test_cutoffs import single_mode_field


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


class TestSimilarityNorm:
    def test_unit_scale_matches_l2(self, grid32):
        u = random_solenoidal(grid32, 0)
        fr = frame(0.0, 1.0)
        assert similarity_norm(u, fr, 0) == pytest.approx(
            l2_norm_sq(u), rel=1e-13
        )

    def test_quarter_horizon_factor(self, grid32):
        u = random_solenoidal(grid32, 1)
        fr = frame(0.75, 1.0)  # scale 0.5
        assert similarity_norm(u, fr, 0) == pytest.approx(
            2.0 * l2_norm_sq(u), rel=1e-13
        )

    def test_first_derivative_chain_rule(self, grid32):
        # analytic single mode: d1 norm picks up the frame factor s**(2|b|-1)
        u = single_mode_field(grid32, 4)  # |xi| = 1 on the x axis
        fr = frame(0.75, 1.0)
        d1 = spectral_derivative(u, (1, 0, 0))
        assert similarity_norm(u, fr, (1, 0, 0)) == pytest.approx(
            0.5 * l2_norm_sq(d1), rel=1e-13
        )

    def test_scale_identity(self, grid32):
        # the defining identity: (rescaled norm) * s == physical norm
        u = random_solenoidal(grid32, 2)
        for t in (0.0, 0.3, 0.9):
            fr = frame(t, 1.0)
            assert similarity_norm(u, fr, 0) * fr.scale == pytest.approx(
                l2_norm_sq(u), rel=1e-12
            )

    def test_order_cap(self, grid32):
        u = random_solenoidal(grid32, 3)
        with pytest.raises(UnsupportedOrderError):
            similarity_norm(u, frame(0.0, 1.0), (2, 2, 0))


class TestSimilarityFilter:
    def test_unit_scale_bit_identical(self, grid32):
        u = random_solenoidal(grid32, 4)
        psi = make_profile("phi")
        a = similarity_filter(u, frame(0.0, 1.0), psi)
        b = apply_profile(u, psi)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_shrunk_radius_passes(self, grid32):
        # |xi| = 3 mode at scale 0.25: effective radius 0.75, inside plateau
        u = single_mode_field(grid32, 12)
        fr = frame(1.0 - 0.25**2, 1.0)
        assert fr.scale == pytest.approx(0.25, rel=1e-13)
        out = similarity_filter(u, fr, make_profile("phi"))
        assert np.array_equal(out.coeffs, u.coeffs)

    def test_unit_scale_kills_outer_mode(self, grid32):
        u = single_mode_field(grid32, 12)
        out = similarity_filter(u, frame(0.0, 1.0), make_profile("phi"))
        assert np.abs(out.coeffs).max() == 0.0


class TestFilteredEnergy:
    def test_plateau_matches_norm(self, grid32):
        u = random_solenoidal(grid32, 5, cutoff=0.9)
        for t in (0.0, 0.6):
            fr = frame(t, 1.0)
            # the filter acts as identity on a sub-plateau spectrum (radius
            # shrinks further for t > 0)
            assert similarity_filtered_energy(
                u, fr, make_profile("phi")
            ) == pytest.approx(similarity_norm(u, fr, 0), rel=1e-13)

    def test_zero_field(self, grid32):
        from nsverify.spectral import zero_field

        assert similarity_filtered_energy(
            zero_field(grid32), frame(0.2, 1.0), make_profile("phi")
        ) == 0.0

    def test_consistency_with_filter_norm(self, grid32):
        u = random_solenoidal(grid32, 6)
        psi = make_profile("tilde")
        for t in (0.0, 0.5, 0.9):
            fr = frame(t, 1.0)
            filtered = similarity_filter(u, fr, psi)
            assert similarity_filtered_energy(u, fr, psi) == pytest.approx(
                l2_norm_sq(filtered) / fr.scale, rel=1e-12
            )

    def test_scaling_law_between_frames(self, grid32):
        # both sides of the frame identity evaluated at two scales
        u = random_solenoidal(grid32, 7)
        psi = make_profile("phi")
        for t in (0.3, 0.84):
            fr = frame(t, 1.0)
            s = fr.scale
            direct = float(
                (grid32.multiplicity * psi.sq(s * grid32.xi_mag)
                 * (np.abs(u.coeffs) ** 2).sum(axis=0)).sum() / s
            )
            assert similarity_filtered_energy(u, fr, psi) == pytest.approx(
                direct, rel=1e-13
            )

    def test_weighted_blocks_bounded_by_energy(self, grid32):
        # chi^2 + (1 - phi^2) <= 1 pointwise, so the filtered energies never
        # exceed the full rescaled energy
        chi = make_profile("chi", 0.1)
        tilde = make_profile("tilde")
        for seed in range(5):
            u = random_solenoidal(grid32, 20 + seed)
            for t in (0.0, 0.5, 0.95):
                fr = frame(t, 1.0)
                total = similarity_norm(u, fr, 0)
                blocks = similarity_filtered_energy(
                    u, fr, chi
                ) + similarity_filtered_energy(u, fr, tilde)
                assert blocks <= total * (1.0 + 1e-12)


class TestBlowupRatio:
    def test_zero(self):
        assert blowup_rate_ratio(0.0, frame(0.5, 1.0)) == 0.0

    def test_multiplication(self):
        fr = frame(0.75, 1.0)  # scale 0.5
        assert blowup_rate_ratio(2.0, fr) == pytest.approx(1.0, rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(HorizonError):
            blowup_rate_ratio(-1.0, frame(0.5, 1.0))
