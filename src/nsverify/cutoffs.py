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

Every profile exposes analytic radial derivatives of ``psi`` and ``psi^2``
plus the dilation kernel ``r * d(psi^2)/dr`` and its derivative; these back
the dilation-flux quadratures used by the energy checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import expit

from .errors import DomainError
from .spectral import SpectralVectorField, mode_energy, mode_sum

DEFAULT_ALPHA = 0.1
ALPHA_MAX = 0.125

_KINDS = ("phi", "one_minus_phi", "tilde", "chi")


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < ALPHA_MAX:
        raise DomainError(f"alpha must lie in (0, 1/8), got {alpha}")
    return alpha


def _radial(fn):
    """Wrap an array kernel so scalars go in and floats come out."""

    def wrapped(r):
        arr = np.asarray(r, dtype=float)
        if np.any(arr < 0):
            raise DomainError("radial argument must be nonnegative")
        flat = np.atleast_1d(arr)
        out = fn(flat)
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    return wrapped


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


phi_eval = _radial(lambda r: _phi_pieces(r)[0])
phi_eval.__doc__ = "The smooth radial step: 1 below radius 1, 0 above radius 2."


def chi_eval(r, alpha: float):
    """Fractional low-pass weight ``r**(1/2+2*alpha)`` capped at ``1/2+alpha``.

    Continuous everywhere, zero at the origin and zero for ``r >= 2`` where
    the step vanishes.
    """
    alpha = _check_alpha(alpha)
    cap = 0.5 + alpha
    expo = 0.5 + 2.0 * alpha

    def kernel(rr):
        phi = _phi_pieces(rr)[0]
        return np.where(rr <= cap, _pow_or_zero(rr, expo), cap**expo) * phi

    return _radial(kernel)(r)


@dataclass(frozen=True)
class CutoffProfile:
    """Radial multiplier symbol with analytic radial derivatives."""

    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown profile kind {self.kind!r}")
        if self.kind == "chi":
            if self.alpha is None:
                raise DomainError("chi profile requires alpha")
            _check_alpha(self.alpha)

    def _cap(self):
        return 0.5 + self.alpha

    def _e2(self):
        return 1.0 + 4.0 * self.alpha

    # -- psi ------------------------------------------------------------------

    def eval(self, r):
        def kernel(rr):
            phi = _phi_pieces(rr)[0]
            if self.kind == "phi":
                return phi
            if self.kind == "one_minus_phi":
                return 1.0 - phi
            if self.kind == "tilde":
                return np.sqrt(np.clip(1.0 - phi**2, 0.0, None))
            cap, expo = self._cap(), 0.5 + 2.0 * self.alpha
            return np.where(rr <= cap, _pow_or_zero(rr, expo), cap**expo) * phi

        return _radial(kernel)(r)

    __call__ = eval

    def radial_slope(self, r):
        """d(psi)/dr. For chi the origin value is reported as 0 (the true
        slope diverges like ``r**(2*alpha - 1/2)`` but every flux kernel built
        from it stays finite); for tilde the slope is 0 wherever ``phi = 1``.
        """

        def kernel(rr):
            phi, d1, _ = _phi_pieces(rr)
            if self.kind == "phi":
                return d1
            if self.kind == "one_minus_phi":
                return -d1
            if self.kind == "tilde":
                tl = np.sqrt(np.clip(1.0 - phi**2, 0.0, None))
                out = np.zeros_like(tl)
                pos = tl > 1e-150
                out[pos] = -(phi[pos] * d1[pos]) / tl[pos]
                return out
            cap, expo = self._cap(), 0.5 + 2.0 * self.alpha
            below = expo * _pow_or_zero(rr, expo - 1.0)
            return np.where(rr <= cap, below * phi, cap**expo * d1)

        return _radial(kernel)(r)

    # -- psi^2 ----------------------------------------------------------------

    def sq(self, r):
        def kernel(rr):
            phi = _phi_pieces(rr)[0]
            if self.kind == "phi":
                return phi**2
            if self.kind == "one_minus_phi":
                return (1.0 - phi) ** 2
            if self.kind == "tilde":
                return 1.0 - phi**2
            cap, e2 = self._cap(), self._e2()
            return np.where(rr <= cap, _pow_or_zero(rr, e2), cap**e2) * phi**2

        return _radial(kernel)(r)

    def sq_slope(self, r):
        """d(psi^2)/dr; analytic on each branch, one-sided at chi's cap."""

        def kernel(rr):
            phi, d1, _ = _phi_pieces(rr)
            if self.kind == "phi":
                return 2.0 * phi * d1
            if self.kind == "one_minus_phi":
                return -2.0 * (1.0 - phi) * d1
            if self.kind == "tilde":
                return -2.0 * phi * d1
            cap, e2 = self._cap(), self._e2()
            below = e2 * _pow_or_zero(rr, e2 - 1.0)
            return np.where(rr <= cap, below, cap**e2 * 2.0 * phi * d1)

        return _radial(kernel)(r)

    # -- dilation kernel r * d(psi^2)/dr and its radial derivative ------------

    def flux_kernel(self, r):
        def kernel(rr):
            phi, d1, _ = _phi_pieces(rr)
            if self.kind == "phi":
                return 2.0 * rr * phi * d1
            if self.kind == "one_minus_phi":
                return -2.0 * rr * (1.0 - phi) * d1
            if self.kind == "tilde":
                return -2.0 * rr * phi * d1
            cap, e2 = self._cap(), self._e2()
            below = e2 * _pow_or_zero(rr, e2)
            return np.where(rr <= cap, below, cap**e2 * 2.0 * rr * phi * d1)

        return _radial(kernel)(r)

    def flux_kernel_slope(self, r):
        """d/dr of ``r * d(psi^2)/dr``, used by the flux time-quadrature."""

        def kernel(rr):
            phi, d1, d2 = _phi_pieces(rr)
            if self.kind == "phi":
                return 2.0 * phi * d1 + 2.0 * rr * (d1**2 + phi * d2)
            if self.kind == "one_minus_phi":
                return -2.0 * (1.0 - phi) * d1 + 2.0 * rr * (
                    d1**2 - (1.0 - phi) * d2
                )
            if self.kind == "tilde":
                return -2.0 * phi * d1 - 2.0 * rr * (d1**2 + phi * d2)
            cap, e2 = self._cap(), self._e2()
            below = e2 * e2 * _pow_or_zero(rr, e2 - 1.0)
            above = cap**e2 * (2.0 * phi * d1 + 2.0 * rr * (d1**2 + phi * d2))
            return np.where(rr <= cap, below, above)

        return _radial(kernel)(r)


def make_profile(kind: str, alpha: float | None = None) -> CutoffProfile:
    if kind == "chi" and alpha is None:
        alpha = DEFAULT_ALPHA
    return CutoffProfile(kind, alpha if kind == "chi" else None)


def weight_tables(r: np.ndarray, alpha: float) -> dict:
    """All radial weights the energy ledger needs, from one step evaluation.

    Same formulas as the :class:`CutoffProfile` methods (tested to agree);
    batched here because the ledger evaluates them on full frequency cubes at
    every sample.
    """
    alpha = _check_alpha(alpha)
    phi, d1, d2 = _phi_pieces(r)
    cap = 0.5 + alpha
    e2 = 1.0 + 4.0 * alpha
    below = r <= cap
    phi2 = phi**2
    kern_phi = 2.0 * r * phi * d1
    kern_phi_slope = 2.0 * phi * d1 + 2.0 * r * (d1**2 + phi * d2)
    chi2 = np.where(below, _pow_or_zero(r, e2), cap**e2) * phi2
    kern_chi = np.where(below, e2 * _pow_or_zero(r, e2), cap**e2 * kern_phi)
    kern_chi_slope = np.where(
        below, e2 * e2 * _pow_or_zero(r, e2 - 1.0), cap**e2 * kern_phi_slope
    )
    one_m_phi = 1.0 - phi
    return {
        "phi": phi,
        "phi2": phi2,
        "chi2": chi2,
        "one_minus_phi_sq": one_m_phi**2,
        "one_minus_phi2": 1.0 - phi2,
        "kern_phi": kern_phi,
        "kern_phi_slope": kern_phi_slope,
        "kern_chi": kern_chi,
        "kern_chi_slope": kern_chi_slope,
        "kern_one_minus_phi": -2.0 * r * one_m_phi * d1,
    }


# -- operators ---------------------------------------------------------------


def apply_profile(
    w: SpectralVectorField, psi: CutoffProfile, scale: float = 1.0
) -> SpectralVectorField:
    """Multiply each coefficient by ``psi(scale * |xi|)``.

    A pure Fourier multiplier: commutes with derivatives and preserves
    solenoidality. ``scale`` is used by the similarity-variable filters.
    """
    mult = psi.eval(scale * w.grid.xi_mag)
    return SpectralVectorField(w.grid, w.coeffs * mult, w.solenoidal_flag)


@dataclass
class Decomposition:
    """Low/high/band split of a solenoidal field."""

    low: SpectralVectorField
    high: SpectralVectorField
    tilde: SpectralVectorField
    chi_low: SpectralVectorField
    alpha: float


def decompose(w: SpectralVectorField, alpha: float = DEFAULT_ALPHA) -> Decomposition:
    """Split ``w`` into the low block, its complement, the energy-complement
    band and the fractional low block.

    ``low + high`` reconstructs ``w`` exactly, and
    ``||w||^2 == ||low||^2 + ||tilde||^2`` by the pointwise identity
    ``phi^2 + (1 - phi^2) = 1``.
    """
    alpha = _check_alpha(alpha)
    r = np.atleast_1d(w.grid.xi_mag)
    phi = _phi_pieces(r)[0]
    low = SpectralVectorField(w.grid, w.coeffs * phi, w.solenoidal_flag)
    high = SpectralVectorField(w.grid, w.coeffs * (1.0 - phi), w.solenoidal_flag)
    tilde_mult = np.sqrt(np.clip(1.0 - phi**2, 0.0, None))
    tilde = SpectralVectorField(w.grid, w.coeffs * tilde_mult, w.solenoidal_flag)
    chi = make_profile("chi", alpha)
    chi_low = SpectralVectorField(
        w.grid, w.coeffs * chi.eval(w.grid.xi_mag), w.solenoidal_flag
    )
    return Decomposition(low, high, tilde, chi_low, alpha)


def dilation_flux(
    w: SpectralVectorField, psi: CutoffProfile, scale: float = 1.0
) -> float:
    """Discrete dilation flux ``sum r * d(psi^2)/dr (r) * |w_hat|^2`` over the
    full lattice.

    With ``scale = s`` the kernel is evaluated at ``r = s|xi|`` and the sum is
    premultiplied by ``1/s``, which is the similarity-variable flux expressed
    through physical-frequency data.
    """
    g = w.grid
    kern = psi.flux_kernel(scale * g.xi_mag)
    return mode_sum(kern * mode_energy(w.coeffs), g) / scale


def bernstein_constant(alpha: float, m: float) -> float:
    """Low-block L^m against fractional-block L^2 comparison constant.

    Computed by radial quadrature of the singular-weight integral
    ``int_{|xi|<=2} |xi|**(-(1/2+2a)*2m'/(2-m')) dxi`` (``m'`` the conjugate
    exponent), raised to ``(2-m')/(2m')`` and multiplied by the transform-norm
    prefactor ``(2*pi)**(3/m')``. Finite exactly when ``alpha < 1/8`` at the
    worst index ``m = 4``, and increasing in alpha at fixed ``m``.
    """
    alpha = _check_alpha(alpha)
    m = float(m)
    if not m >= 4.0:
        raise DomainError(f"norm index must satisfy m >= 4, got {m}")
    mprime = 1.0 if np.isinf(m) else m / (m - 1.0)
    expo = -(0.5 + 2.0 * alpha) * 2.0 * mprime / (2.0 - mprime)
    if expo <= -3.0:
        raise RuntimeError("singular-weight quadrature diverges; invalid inputs")
    integral, _ = quad(lambda r: 4.0 * np.pi * r ** (2.0 + expo), 0.0, 2.0)
    return float(
        (2.0 * np.pi) ** (3.0 / mprime)
        * integral ** ((2.0 - mprime) / (2.0 * mprime))
    )


def low_block_shell_integrand(r, alpha: float):
    """Pointwise weight of the weighted low-block balance on ``r <= 1``.

    ``-r/4 * d(chi^2)/dr - (r^2 - 1/4 - alpha) * chi^2``; nonpositive for all
    valid alpha, which is what makes the weighted low block dissipative.
    """
    alpha = _check_alpha(alpha)
    chi = make_profile("chi", alpha)
    out = -0.25 * np.asarray(chi.flux_kernel(r)) - (
        np.asarray(r, dtype=float) ** 2 - 0.25 - alpha
    ) * np.asarray(chi.sq(r))
    return float(out) if np.ndim(out) == 0 else out


def transition_shell_integrand(r, alpha: float):
    """Pointwise weight of the transition-band balance on ``1 <= r <= 2``.

    ``(1 - cap^(1+4a))/4 * r d(phi^2)/dr - (r^2 - 1/4 - alpha) cap^(1+4a) phi^2``
    with ``cap = 1/2 + alpha``; both summands are nonpositive there.
    """
    alpha = _check_alpha(alpha)
    phi = make_profile("phi")
    cap_pow = (0.5 + alpha) ** (1.0 + 4.0 * alpha)
    out = 0.25 * (1.0 - cap_pow) * np.asarray(phi.flux_kernel(r)) - (
        np.asarray(r, dtype=float) ** 2 - 0.25 - alpha
    ) * cap_pow * np.asarray(phi.sq(r))
    return float(out) if np.ndim(out) == 0 else out


def export_profile_table(psi: CutoffProfile, path, r_max: float = 3.0, num: int = 3001):
    """Write a CSV table ``r, psi(r), dpsi/dr`` for plotting."""
    r = np.linspace(0.0, r_max, num)
    vals = psi.eval(r)
    slopes = psi.radial_slope(r)
    with open(path, "w") as fh:
        fh.write("r,psi,dpsi_dr\n")
        for ri, vi, si in zip(r, vals, slopes):
            fh.write(f"{ri:.17g},{vi:.17g},{si:.17g}\n")
