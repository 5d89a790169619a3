"""Scalar trapping lemma for ``h' <= C*delta - B*h + h^5``.

The quintic right side is dominated on [0, 1] by the quadratic majorant
``C*delta - B*h + h^2``, whose smaller root is

    h_minus = (B - sqrt(B^2 - 4*C*delta)) / 2.

When ``h_minus`` lies in (0, 1) and ``h(0) < h_minus``, the right side is
strictly negative at the barrier (``h_minus^5 - h_minus^2 < 0``), so the
extremal trajectory ``h' = C*delta - B*h + h^5`` can never cross it; any
sub-solution is dominated by that trajectory. The checks here integrate the
extremal dynamics, which is the falsifiable case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoRootError

__all__ = [
    "ComparisonParams",
    "h_minus",
    "run_trapping_draws",
]


@dataclass(frozen=True)
class ComparisonParams:
    B: float
    C: float
    delta: float
    h0: float = 0.0

    def __post_init__(self):
        if self.B <= 0 or self.C <= 0 or self.delta < 0:
            raise NoRootError("B, C must be positive and delta nonnegative")
        if self.h0 < 0:
            raise NoRootError("initial value must be nonnegative")

    @property
    def forcing(self) -> float:
        return self.C * self.delta


def h_minus(p: ComparisonParams) -> float:
    """Smaller root of the quadratic majorant ``C*delta - B*h + h^2``."""
    disc = p.B**2 - 4.0 * p.forcing
    if disc < 0:
        raise NoRootError(
            f"no real root: B^2 = {p.B**2:.6g} < 4*C*delta = {4*p.forcing:.6g}"
        )
    return 0.5 * (p.B - math.sqrt(disc))


def run_trapping_draws(
    n_draws: int, seed: int = 0, horizon: float = 50.0, dt: float = 0.01
) -> dict:
    """Vectorized randomized sweep of valid parameter draws.

    Draws ``B`` log-uniform, sets ``C*delta = v * B^2/4`` with ``v`` uniform in
    (0, 1) so the discriminant is positive, rejects barriers outside (0, 1),
    and starts each trajectory uniformly inside ``[0, h_minus)``. Returns a
    JSON-ready summary.
    """
    rng = np.random.default_rng(seed)
    B = np.exp(rng.uniform(math.log(0.1), math.log(4.0), size=4 * n_draws))
    v = rng.uniform(0.02, 0.98, size=4 * n_draws)
    forcing = v * B**2 / 4.0
    barrier = 0.5 * (B - np.sqrt(B**2 - 4.0 * forcing))
    valid = (barrier > 1e-6) & (barrier < 1.0)
    B, forcing, barrier = B[valid][:n_draws], forcing[valid][:n_draws], barrier[valid][:n_draws]
    if B.size < n_draws:
        raise NoRootError("insufficient valid draws; widen the sampling ranges")
    h = rng.uniform(0.0, 1.0, size=n_draws) * barrier * 0.999
    h0 = h.copy()
    nsteps = max(1, math.ceil(horizon / dt))
    dt = horizon / nsteps
    max_h = h.copy()

    def f(x):
        return forcing - B * x + x**5

    for _ in range(nsteps):
        k1 = f(h)
        k2 = f(h + 0.5 * dt * k1)
        k3 = f(h + 0.5 * dt * k2)
        k4 = f(h + dt * k3)
        h = h + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        np.maximum(max_h, h, out=max_h)
    trapped = (max_h <= barrier + 1e-9) & (h >= -1e-12)
    return {
        "draws": int(n_draws),
        "horizon": float(horizon),
        "trapped": int(trapped.sum()),
        "all_trapped": bool(trapped.all()),
        "worst_margin": float((barrier - max_h).min()),
        "max_initial_fraction": float((h0 / barrier).max()),
    }
