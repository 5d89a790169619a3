import math

import numpy as np
import pytest

from nsverify.errors import ConfigurationError, ResolutionError
from nsverify.fields import FieldSpec, generate
from nsverify.spectral import (
    build_grid,
    l2_norm,
    solenoidal_error,
    spec_to_phys,
)


def oracle_energy(spec: FieldSpec) -> float:
    """Closed-form unnormalized squared L2 norm on the unit box [0, 2*pi]^3.

    For a box of side ``2*pi*m`` multiply by ``m**3``. The planar vortex
    integrates to ``4*pi^3`` (each component contributes ``2*pi^3``); the
    unit-coefficient ABC field to ``3*(2*pi)^3`` (six unit-amplitude trig
    terms, each integrating to ``(2*pi)^3 / 2``).
    """
    if spec.family == "taylor_green":
        return 4.0 * np.pi**3
    if spec.family == "abc_flow":
        return 3.0 * (2.0 * np.pi) ** 3
    raise ValueError(f"no closed-form energy for family {spec.family!r}")


def quadrature_energy(samples, grid):
    """Independent collocation quadrature of the squared L2 norm."""
    return float((samples**2).sum() * grid.cell_volume)


class TestTaylorGreen:
    def test_matches_analytic_samples(self, grid16):
        target = math.sqrt(4.0 * math.pi**3)  # unit amplitude
        fld = generate(FieldSpec("taylor_green", l2_norm_target=target), grid16)
        x, y, _ = grid16.axes()
        expected = np.zeros((3, 16, 16, 16))
        expected[0] = np.sin(x) * np.cos(y) * np.ones((1, 1, 16))
        expected[1] = -np.cos(x) * np.sin(y) * np.ones((1, 1, 16))
        phys = spec_to_phys(fld.coeffs, grid16)
        assert np.abs(phys - expected).max() < 1e-12

    def test_norm_exact(self, grid16):
        fld = generate(FieldSpec("taylor_green", l2_norm_target=1.0), grid16)
        assert l2_norm(fld) == pytest.approx(1.0, rel=1e-12)

    def test_oracle_against_quadrature(self, grid16):
        # closed form 4*pi^3 for unit amplitude on the unit box, checked
        # against direct collocation quadrature of the sampled field
        from nsverify.fields import _taylor_green_samples

        samples = _taylor_green_samples(grid16)
        spec = FieldSpec("taylor_green")
        assert oracle_energy(spec) == pytest.approx(
            quadrature_energy(samples, grid16), rel=1e-13
        )

    def test_oracle_scales_with_box(self):
        # box side 2*pi*m holds m^3 fundamental cells
        grid = build_grid(32, 4.0 * math.pi)
        from nsverify.fields import _taylor_green_samples

        samples = _taylor_green_samples(grid)
        assert quadrature_energy(samples, grid) == pytest.approx(
            8.0 * oracle_energy(FieldSpec("taylor_green")), rel=1e-13
        )

    def test_incommensurate_box(self):
        grid = build_grid(16, 5.0)
        with pytest.raises(ResolutionError):
            generate(FieldSpec("taylor_green"), grid)


class TestAbcFlow:
    def test_solenoidal(self, grid16):
        fld = generate(FieldSpec("abc_flow", l2_norm_target=1.0), grid16)
        assert solenoidal_error(fld) <= 1e-12

    def test_oracle_against_quadrature(self, grid16):
        from nsverify.fields import _abc_samples

        samples = _abc_samples(grid16)
        assert oracle_energy(FieldSpec("abc_flow")) == pytest.approx(
            quadrature_energy(samples, grid16), rel=1e-13
        )
        # six unit-amplitude trig terms, each integrating to half the volume
        assert oracle_energy(FieldSpec("abc_flow")) == pytest.approx(
            3.0 * (2.0 * math.pi) ** 3, rel=1e-15
        )


class TestRandomSolenoidal:
    def test_deterministic(self, grid32):
        spec = FieldSpec("random_solenoidal", seed=42, l2_norm_target=0.3, xi_cutoff=2.3)
        a = generate(spec, grid32)
        b = generate(spec, grid32)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_seed_changes_field(self, grid32):
        a = generate(FieldSpec("random_solenoidal", seed=1, xi_cutoff=2.3), grid32)
        b = generate(FieldSpec("random_solenoidal", seed=2, xi_cutoff=2.3), grid32)
        assert not np.allclose(a.coeffs, b.coeffs)

    def test_norm_and_solenoidality(self, grid32):
        for seed in range(5):
            fld = generate(
                FieldSpec("random_solenoidal", seed=seed, l2_norm_target=0.05,
                          xi_cutoff=2.3),
                grid32,
            )
            assert l2_norm(fld) == pytest.approx(0.05, rel=1e-12)
            assert solenoidal_error(fld) <= 1e-12

    def test_spectrum_support(self, grid32):
        fld = generate(
            FieldSpec("random_solenoidal", seed=3, xi_cutoff=1.5), grid32
        )
        abs2 = (np.abs(fld.coeffs) ** 2).sum(axis=0)
        assert abs2[grid32.xi_mag > 1.5].max() == 0.0
        assert abs2[(0 < grid32.xi_mag) & (grid32.xi_mag <= 1.5)].max() > 0.0

    def test_zero_mean(self, grid32):
        fld = generate(FieldSpec("random_solenoidal", seed=4, xi_cutoff=2.3), grid32)
        assert np.abs(fld.coeffs[:, 0, 0, 0]).max() == 0.0

    def test_unresolvable_cutoff(self):
        grid = build_grid(8, 16.0 * math.pi)
        with pytest.raises(ResolutionError):
            generate(FieldSpec("random_solenoidal", seed=0), grid)


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ConfigurationError):
            FieldSpec("vortex_sheet")

    def test_bad_target(self):
        with pytest.raises(ConfigurationError):
            FieldSpec("taylor_green", l2_norm_target=0.0)

    def test_no_oracle_for_random(self):
        with pytest.raises(ValueError):
            oracle_energy(FieldSpec("random_solenoidal"))
