"""Self-similar change of variables.

Rescaled variables freeze a virtual horizon ``T``: with ``s = (T-t)**0.5``,

* rescaled position ``y = x / s``, slow time ``tau = -ln(T-t)``,
* rescaled velocity ``w(y, tau) = s * u(x, t)``.

A physical frequency ``xi`` is the rescaled frequency ``s * xi``, so every
rescaled quadratic functional is a weighted Parseval sum over the physical
coefficients, which is how :mod:`nsverify.ledger` evaluates them:

    int |D^b w|^2 dy = s**(2|b| - 1) * int |D^b u|^2 dx
    int |F^-1[psi] * w|^2 dy = s**-1 * sum psi(s|xi|)^2 |u_hat(xi)|^2
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import HorizonError

__all__ = ["SimilarityFrame", "frame", "t_of_tau"]


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
