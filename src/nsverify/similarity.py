"""Self-similar change of variables and the exact rescaling identities.

Rescaled variables freeze a virtual horizon ``T``: with ``s = (T-t)**0.5``,

* rescaled position ``y = x / s``, slow time ``tau = -ln(T-t)``,
* rescaled velocity ``w(y, tau) = s * u(x, t)``.

Rescaled-variable functionals are never evaluated on their own grid. A
physical frequency ``xi`` corresponds to the rescaled frequency ``s * xi``,
which turns every rescaled quadratic functional into a weighted Parseval sum
over the physical coefficients:

    int |D^b w|^2 dy = s**(2|b| - 1) * int |D^b u|^2 dx
    int |F^-1[psi] * w|^2 dy = s**-1 * sum psi(s|xi|)^2 |u_hat(xi)|^2

The drift term ``y/2 . grad w`` of the rescaled dynamics would be a dilation
in frequency space that a fixed grid cannot represent, so this module is the
only sanctioned bridge between the two descriptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cutoffs import CutoffProfile, apply_profile
from .errors import HorizonError, UnsupportedOrderError
from .spectral import SpectralVectorField, _as_multi_index, mode_energy, mode_sum

__all__ = [
    "SimilarityFrame",
    "frame",
    "t_of_tau",
    "similarity_norm",
    "similarity_filter",
    "similarity_filtered_energy",
    "blowup_rate_ratio",
]


@dataclass(frozen=True)
class SimilarityFrame:
    """A consistent (t, tau, scale) triple below the horizon."""

    t_horizon: float
    t: float
    tau: float
    scale: float


def frame(t: float, t_horizon: float) -> SimilarityFrame:
    """Build the rescaling frame at physical time ``t`` for horizon ``T``."""
    t = float(t)
    t_horizon = float(t_horizon)
    if not t_horizon > 0:
        raise HorizonError(f"horizon must be positive, got {t_horizon}")
    if not 0.0 <= t < t_horizon:
        raise HorizonError(f"time {t} outside [0, T) with T = {t_horizon}")
    remaining = t_horizon - t
    return SimilarityFrame(t_horizon, t, -math.log(remaining), math.sqrt(remaining))


def t_of_tau(tau: float, t_horizon: float) -> float:
    """Inverse of the slow-time map: ``t = T - exp(-tau)``."""
    return t_horizon - math.exp(-float(tau))


def similarity_norm(u_hat: SpectralVectorField, fr: SimilarityFrame, beta) -> float:
    """Squared L2 norm of ``D^beta w`` computed from the physical field.

    Exact chain-rule identity: ``s**(2|beta|-1)`` times the physical squared
    norm of ``D^beta u``. ``beta`` is a multi-index with ``|beta| <= 3`` (the
    integer 0 is accepted for the plain energy).
    """
    beta = _as_multi_index(beta)
    order = sum(beta)
    if order > 3:
        raise UnsupportedOrderError(f"derivative order {order} exceeds 3")
    g = u_hat.grid
    weight = np.ones_like(g.xi_sq)
    for axis, b in enumerate(beta):
        if b:
            weight = weight * g.xi[axis] ** (2 * b)
    return fr.scale ** (2 * order - 1) * mode_sum(weight * mode_energy(u_hat.coeffs), g)


def similarity_filter(
    u_hat: SpectralVectorField, fr: SimilarityFrame, psi: CutoffProfile
) -> SpectralVectorField:
    """Rescaled-variable radial multiplier as a physical-space multiplier.

    Multiplies the coefficient at physical frequency ``xi`` by
    ``psi(scale * |xi|)``; at ``scale == 1`` this is exactly
    :func:`nsverify.cutoffs.apply_profile`.
    """
    return apply_profile(u_hat, psi, scale=fr.scale)


def similarity_filtered_energy(
    u_hat: SpectralVectorField, fr: SimilarityFrame, psi: CutoffProfile
) -> float:
    """Squared L2 norm of the psi-filtered rescaled field.

    Equals ``s**-1 * sum psi(s|xi|)^2 |u_hat|^2`` and agrees with
    ``similarity_norm(u_hat, fr, 0)`` whenever the filter acts as identity on
    the occupied spectrum.
    """
    s = fr.scale
    mult = psi.sq(s * u_hat.grid.xi_mag)
    return mode_sum(mult * mode_energy(u_hat.coeffs), u_hat.grid) / s


def blowup_rate_ratio(sup_norm: float, fr: SimilarityFrame) -> float:
    """Sup-norm growth ratio ``||u(t)||_inf * (T - t)**0.5``.

    For decaying small data this falls below any threshold as ``t``
    approaches the horizon.
    """
    sup_norm = float(sup_norm)
    if sup_norm < 0:
        raise HorizonError(f"sup norm must be nonnegative, got {sup_norm}")
    return sup_norm * fr.scale
