"""Deterministic generators of solenoidal initial data.

Families:

* ``taylor_green``       (sin x cos y, -cos x sin y, 0); planar, exactly
                         solenoidal, and its self-advection term is a pure
                         gradient, so the projected dynamics is linear heat
                         decay ``exp(-2t)``.
* ``abc_flow``           (sin z + cos y, sin x + cos z, sin y + cos x),
                         unit coefficients; exactly solenoidal.
* ``random_solenoidal``  white noise shaped by the radial envelope
                         ``|xi|**slope * exp(-|xi|^2/4)``, truncated at the
                         radius ``xi_cutoff``, then projected. The hard
                         truncation keeps the whole trajectory clear of the
                         resolution guard band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ResolutionError
from .spectral import (
    Grid,
    SpectralVectorField,
    l2_norm,
    leray_project,
    phys_to_spec,
)

FAMILIES = ("taylor_green", "abc_flow", "random_solenoidal")

DEFAULT_XI_CUTOFF = 2.4


@dataclass
class FieldSpec:
    """Recipe for one initial field."""

    family: str
    seed: int = 0
    spectrum_slope: float = 1.0
    l2_norm_target: float = 1.0
    xi_cutoff: float = DEFAULT_XI_CUTOFF

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown field family {self.family!r}")
        if not self.l2_norm_target > 0:
            raise ConfigurationError("l2_norm_target must be positive")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")


def _unit_wavenumber_index(grid: Grid) -> int:
    """Grid index of continuous frequency 1; errors if not representable."""
    k = grid.l_box / (2.0 * np.pi)
    ki = int(round(k))
    if abs(k - ki) > 1e-12 or ki < 1:
        raise ResolutionError(
            f"box length {grid.l_box} does not place frequency 1 on the grid"
        )
    if ki > grid.dealias_kmax:
        raise ResolutionError(
            f"frequency 1 (index {ki}) lies outside the dealiased band"
        )
    return ki


def _taylor_green_samples(grid: Grid) -> np.ndarray:
    _unit_wavenumber_index(grid)
    x, y, _ = grid.axes()
    n = grid.n
    u = np.empty((3, n, n, n))
    u[0] = np.sin(x) * np.cos(y) * np.ones((1, 1, n))
    u[1] = -np.cos(x) * np.sin(y) * np.ones((1, 1, n))
    u[2] = 0.0
    return u


def _abc_samples(grid: Grid) -> np.ndarray:
    _unit_wavenumber_index(grid)
    x, y, z = grid.axes()
    n = grid.n
    u = np.empty((3, n, n, n))
    u[0] = np.broadcast_to(np.sin(z) + np.cos(y), (n, n, n))
    u[1] = np.broadcast_to(np.sin(x) + np.cos(z), (n, n, n))
    u[2] = np.broadcast_to(np.sin(y) + np.cos(x), (n, n, n))
    return u


def _random_solenoidal(spec: FieldSpec, grid: Grid) -> SpectralVectorField:
    limit = 0.95 * (grid.dealias_kmax * grid.dxi)
    if spec.xi_cutoff > limit:
        raise ResolutionError(
            f"spectrum cutoff {spec.xi_cutoff} exceeds the resolvable radius "
            f"{limit:.4g} on n={grid.n}, l_box={grid.l_box:.4g}"
        )
    rng = np.random.default_rng(spec.seed)
    white = rng.standard_normal((3, grid.n, grid.n, grid.n))
    coeffs = phys_to_spec(white, grid)
    r = grid.xi_mag
    envelope = np.zeros_like(r)
    inside = (r > 0) & (r <= spec.xi_cutoff)
    envelope[inside] = r[inside] ** spec.spectrum_slope * np.exp(
        -r[inside] ** 2 / 4.0
    )
    coeffs *= envelope
    field = leray_project(SpectralVectorField(grid, coeffs))
    field.coeffs[:, 0, 0, 0] = 0.0
    return field


def generate(spec: FieldSpec, grid: Grid) -> SpectralVectorField:
    """Build the requested field, normalized to ``l2_norm_target`` exactly.

    Deterministic in ``spec.seed`` for the random family.
    """
    if spec.family == "taylor_green":
        field = SpectralVectorField(grid, phys_to_spec(_taylor_green_samples(grid), grid))
    elif spec.family == "abc_flow":
        field = SpectralVectorField(grid, phys_to_spec(_abc_samples(grid), grid))
    else:
        field = _random_solenoidal(spec, grid)
    norm = l2_norm(field)
    if norm == 0.0:
        raise ResolutionError("generated field vanished; spectrum unresolvable")
    field.coeffs *= spec.l2_norm_target / norm
    return field

