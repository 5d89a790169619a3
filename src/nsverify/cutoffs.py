"""Radial frequency cutoffs and the low/high/band decomposition.

The base cutoff ``phi`` is a smooth radial step: 1 on ``r <= 1``, 0 on
``r >= 2``, strictly decreasing in between. The transition uses the standard
mollifier quotient ``g(2-r) / (g(2-r) + g(r-1))`` with ``g(s) = exp(-1/s)``,
evaluated in the numerically stable logistic form.

Derived profiles:

* ``one_minus_phi``   high-pass complement ``1 - phi``;
* ``tilde``           ``sqrt(1 - phi^2)``, the energy-complement band;
* ``chi``             fractional low-pass ``r**(1/2+2a) * phi(r)`` capped at
                      ``r = 1/2 + a`` (``a = alpha``), continuous, with a kink
                      in its radial derivative at the cap radius.

All four come from one table: each kind writes ``psi^2`` as ``c(r) * B(phi)``
with ``B`` a quadratic in ``phi`` and ``c`` either 1 or chi's cap power
``min(r, 1/2 + a)**(1+4a)``. The chain rule through ``phi, phi', phi''`` gives
``psi^2`` and its first two radial derivatives, and every other quantity is
read from those: the dilation kernel ``r * d(psi^2)/dr`` and that kernel's
slope, which back the dilation-flux quadratures of the energy checks, and
``psi = sqrt(psi^2)`` with its slope for the exported CSV tables.

:func:`weight_tables` is the way to read the table: it evaluates every kind
at once at given radii. The ledger calls it on the lattice shell radii, and
the flux, the balance integrand and the harness's per-shell checks read it
the same way.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .errors import DomainError
from .spectral import SpectralVectorField, mode_energy, shell_sum

ALPHA_MAX = 0.125


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < ALPHA_MAX:
        raise DomainError(f"alpha must lie in (0, 1/8), got {alpha}")
    return alpha


# -- smooth step phi and its derivatives ------------------------------------


def _transition_terms(r):
    """Logistic coordinates of the transition: ell, ell', ell'' on (1, 2)."""
    a = r - 1.0
    b = 2.0 - r
    ell = 1.0 / b - 1.0 / a
    ell1 = 1.0 / b**2 + 1.0 / a**2
    ell2 = 2.0 / b**3 - 2.0 / a**3
    return ell, ell1, ell2


def _phi_pieces(r):
    """phi, phi', phi'' elementwise; ``r`` must be a 1-d or larger float array."""
    phi = np.ones_like(r)
    d1 = np.zeros_like(r)
    d2 = np.zeros_like(r)
    phi[r >= 2.0] = 0.0
    mid = (r > 1.0) & (r < 2.0)
    if np.any(mid):
        rm = np.clip(r[mid], 1.0 + 1e-12, 2.0 - 1e-12)
        ell, ell1, ell2 = _transition_terms(rm)
        p = expit(ell)
        q = expit(-ell)  # phi on the transition
        phi[mid] = q
        pq = p * q
        d1[mid] = -ell1 * pq
        d2[mid] = -ell2 * pq - ell1**2 * pq * (q - p)
    return phi, d1, d2


def _pow_or_zero(r, expo):
    """``r**expo`` with the removable 0**negative case forced to 0."""
    safe = np.where(r > 0.0, r, 1.0)
    return np.where(r > 0.0, safe**expo, 0.0)


# -- the profile table --------------------------------------------------------

# psi^2 = c(r) * B(phi) for every kind. Each entry gives B, dB/dphi and
# d2B/dphi2 as functions of phi, and whether c is chi's cap power (else c = 1).
_TABLE = {
    "phi": (lambda p: (p * p, 2.0 * p, 2.0), False),
    "one_minus_phi": (lambda p: ((1.0 - p) ** 2, 2.0 * (p - 1.0), 2.0), False),
    "tilde": (lambda p: (1.0 - p * p, -2.0 * p, -2.0), False),
    "chi": (lambda p: (p * p, 2.0 * p, 2.0), True),
}


def _cap_power(r, alpha):
    """``r**(1+4a)`` up to the cap radius ``1/2 + a``, constant past it, with
    its first two radial derivatives (one-sided at the cap)."""
    cap, e2 = 0.5 + alpha, 1.0 + 4.0 * alpha
    below = r <= cap
    c = np.where(below, _pow_or_zero(r, e2), cap**e2)
    c1 = np.where(below, e2 * _pow_or_zero(r, e2 - 1.0), 0.0)
    c2 = np.where(below, e2 * (e2 - 1.0) * _pow_or_zero(r, e2 - 2.0), 0.0)
    return c, c1, c2


def _sq_pieces(kind, r, alpha, phi_pieces=None):
    """``psi^2`` and its first two radial derivatives, by the chain rule from
    ``phi, phi', phi''`` and (for chi) the cap power."""
    phi, d1, d2 = _phi_pieces(r) if phi_pieces is None else phi_pieces
    b_of_phi, capped = _TABLE[kind]
    b, b1, b2 = b_of_phi(phi)
    db = b1 * d1
    ddb = b2 * d1**2 + b1 * d2
    if not capped:
        return b, db, ddb
    c, c1, c2 = _cap_power(r, alpha)
    return c * b, c1 * b + c * db, c2 * b + 2.0 * c1 * db + c * ddb


def weight_tables(r: np.ndarray, alpha: float) -> dict:
    """The profile table at radii ``r``, from one step evaluation.

    Maps every kind to ``(psi^2, r d(psi^2)/dr, d/dr of that kernel)``; the
    middle column is the dilation kernel.
    """
    alpha = _check_alpha(alpha)
    pieces = _phi_pieces(r)
    out = {}
    for kind in _TABLE:
        p, p1, p2 = _sq_pieces(kind, r, alpha, pieces)
        out[kind] = (p, r * p1, p1 + r * p2)
    return out


# -- operators ---------------------------------------------------------------


def dilation_flux(w: SpectralVectorField, kind: str, alpha: float) -> float:
    """Discrete dilation flux ``sum r * d(psi^2)/dr (r) * |w_hat|^2`` at
    ``r = |xi|``, as the ledger forms it: a sum over lattice shells."""
    g = w.grid
    kern = weight_tables(g.shell_radii, alpha)[kind][1]
    return float((kern * shell_sum(mode_energy(w.coeffs), g)).sum())


def balance_shell_integrand(r: np.ndarray, alpha: float) -> np.ndarray:
    """``r/4 * d(phi^2 - chi^2)/dr - (r^2 - 1/4 - alpha) * chi^2``, the shell
    weight of the weighted low+band energy balance; nonpositive for every
    valid alpha, which makes the weighted low+band energy dissipative.

    On ``r <= 1`` phi is flat, so it is ``-r/4 * d(chi^2)/dr - (r^2 - 1/4 -
    alpha) chi^2``. On ``1 <= r <= 2`` chi^2 is ``cap^(1+4a) phi^2`` with
    ``cap = 1/2 + alpha``, so it is ``(1 - cap^(1+4a))/4 * r d(phi^2)/dr -
    (r^2 - 1/4 - alpha) cap^(1+4a) phi^2``, both summands nonpositive.
    """
    w = weight_tables(r, alpha)
    return 0.25 * (w["phi"][1] - w["chi"][1]) - (r**2 - 0.25 - alpha) * w["chi"][0]


def profile_csvs(alpha: float) -> dict[str, str]:
    """CSV tables ``r, psi(r), dpsi/dr`` of every kind on ``r`` in [0, 3],
    by file name. The slope ``(psi^2)' / (2 psi)`` is reported as 0 where
    ``psi = 0``: at chi's origin (the true slope diverges like
    ``r**(2*alpha - 1/2)``, but every flux kernel built from it stays finite)
    and where a profile is flat at 0.
    """
    alpha = _check_alpha(alpha)
    r = np.linspace(0.0, 3.0, 3001)
    pieces = _phi_pieces(r)
    out = {}
    for kind in _TABLE:
        p, p1, _ = _sq_pieces(kind, r, alpha, pieces)
        psi = np.sqrt(p)
        slope = np.divide(p1, 2.0 * psi, out=np.zeros_like(p), where=psi > 0)
        name = f"chi_alpha{alpha:g}.csv" if kind == "chi" else f"{kind}.csv"
        rows = (f"{ri:.17g},{vi:.17g},{si:.17g}\n" for ri, vi, si in zip(r, psi, slope))
        out[name] = "r,psi,dpsi_dr\n" + "".join(rows)
    return out
