"""Energy functionals in rescaled variables and the identity checks.

Every functional of the rescaled field ``w`` is evaluated from the physical
spectrum through the exact frame identities (see :mod:`nsverify.similarity`):
quadratic functionals are weighted Parseval sums with weights ``m(s |xi|)``
and frame prefactors ``s**p``, cubic functionals are dealiased collocation
integrals carrying the matching chain-rule powers of ``s``.

Checking a differential balance ``dE/dtau = R(tau)`` from sampled data uses
two independent evaluations:

* the left side is the centered difference of ``E`` over a sample bracket,
  i.e. the exact bracket mean of ``dE/dtau``;
* the right side is the bracket mean of the cumulative integral of ``R``,
  where quadratic terms are integrated by derivative-corrected trapezoid
  (their exact time derivative is available through the spectral tendency)
  and cubic terms by a three-point Simpson filter.

The corrected trapezoid matters: the fractional low-pass weight has a kink in
its radial derivative, so pointwise filters would pick up an O(dtau * shell
energy) error whenever a lattice shell crosses the cap radius, while the
derivative-corrected integral only sees the one-sided-derivative defect at
O(dtau^2) per crossing, far below the identity tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields as dc_fields
from typing import Iterable, Sequence

import numpy as np

from .cutoffs import weight_tables
from .dynamics import Snapshot
from .errors import DomainError, FitError
from .spectral import Grid, mode_energy, phys_to_spec, spec_to_phys

__all__ = [
    "EnergyRecord",
    "InequalityReport",
    "LedgerContext",
    "RecordsBuilder",
    "RecordSeries",
    "compute_record",
    "records_from_snapshots",
    "rate_estimate",
    "fit_decay_rate",
    "check_inequality",
    "CHECK_NAMES",
    "summarize_reports",
    "write_records_csv",
]

REL_TOL = 1e-5
ABS_TOL = 1e-10

# quadratic accumulator table: name -> (frame power p, |xi|^(2j) weight j, weight key)
_QUAD_TERMS = {
    "E0": (-1, 0, None),
    "E1": (1, 1, None),
    "E2": (3, 2, None),
    "E3": (5, 3, None),
    "E0_low": (-1, 0, "phi2"),
    "E1_low": (1, 1, "phi2"),
    "flux_phi": (-1, 0, "kern_phi"),
    "E0_low_chi": (-1, 0, "chi2"),
    "E1_low_chi": (1, 1, "chi2"),
    "flux_chi": (-1, 0, "kern_chi"),
}
# radial derivative kernels r*m'(r) for the weighted terms
_QUAD_RSLOPE = {
    "E0_low": "kern_phi",
    "E1_low": "kern_phi",
    "flux_phi": "r_kern_phi_slope",
    "E0_low_chi": "kern_chi",
    "E1_low_chi": "kern_chi",
    "flux_chi": "r_kern_chi_slope",
}


@dataclass
class EnergyRecord:
    """All scalar functionals evaluated at one sample."""

    tau: float
    E0: float
    E1: float
    E2: float
    E3: float
    E0_low: float
    E0_tilde: float
    E0_high: float
    E0_low_chi: float
    E1_low: float
    E1_low_chi: float
    E1_tilde: float
    E1_high: float
    E2_high: float
    T_grad: float
    T_lap: float
    T_low: float
    T_chi: float
    T_grad_high: float
    T_split_ll: float
    T_split_lh: float
    T_split_hl: float
    T_split_hh: float
    flux_phi: float
    flux_chi: float
    flux_one_minus_phi: float
    flux_one_minus_phi_grad: float
    sup_norm_w: float
    sup_w_low: float
    sup_grad_w_low: float
    l4_w_low: float
    tail_fraction: float
    cum_E0: float = math.nan
    cum_E1: float = math.nan
    cum_E2: float = math.nan
    cum_E3: float = math.nan
    cum_E0_low: float = math.nan
    cum_E1_low: float = math.nan
    cum_flux_phi: float = math.nan
    cum_E0_low_chi: float = math.nan
    cum_E1_low_chi: float = math.nan
    cum_flux_chi: float = math.nan


RECORD_FIELDS = [f.name for f in dc_fields(EnergyRecord)]


@dataclass
class InequalityReport:
    """One differential balance evaluated at one sample (or one fit)."""

    name: str
    tau: float
    lhs_rate: float
    rhs_bound: float
    residual: float
    tolerance: float
    passed: bool
    empirical_constant: float | None = None

    def __post_init__(self):
        expected = self.residual <= self.tolerance
        if self.passed != expected:
            self.passed = expected


class LedgerContext:
    """Grid-bound precomputations shared by every record evaluation."""

    def __init__(self, grid: Grid, alpha: float, delta: float | None = None):
        self.grid = grid
        self.alpha = float(alpha)
        self.delta = delta
        # full-lattice Parseval weights on the stored half spectrum:
        # multiplicity * |xi|^(2j), j = 0..4
        mult = grid.multiplicity
        self.mult_xi_pow = [mult * grid.xi_sq**j for j in range(5)]
        # lattice shells: distinct |xi| values and the mode -> shell index map
        radii, index = np.unique(np.round(grid.xi_mag, 12), return_inverse=True)
        self.shell_radii = radii
        self.shell_index = index.ravel()


class RecordsBuilder:
    """Streaming consumer turning snapshots into an aligned record series."""

    def __init__(self, ctx: LedgerContext):
        self.ctx = ctx
        self.records: list[EnergyRecord] = []
        self._quad_f = {name: [] for name in _QUAD_TERMS}
        self._quad_fdot = {name: [] for name in _QUAD_TERMS}
        self._shell_e: list[np.ndarray] = []
        self._shell_edot: list[np.ndarray] = []

    def feed(self, snap: Snapshot) -> EnergyRecord:
        rec, fvals, fdots, shells = _evaluate_sample(snap, self.ctx)
        self.records.append(rec)
        for name in _QUAD_TERMS:
            self._quad_f[name].append(fvals[name])
            self._quad_fdot[name].append(fdots[name])
        self._shell_e.append(shells[0])
        self._shell_edot.append(shells[1])
        return rec

    def finish(self) -> "RecordSeries":
        taus = np.array([r.tau for r in self.records])
        corrections = _chi_crossing_corrections(
            taus,
            np.asarray(self._shell_e),
            np.asarray(self._shell_edot),
            self.ctx.shell_radii,
            self.ctx.alpha,
        )
        for name in _QUAD_TERMS:
            f = np.asarray(self._quad_f[name])
            fd = np.asarray(self._quad_fdot[name])
            cum = _corrected_trapezoid(taus, f, fd)
            if name in corrections:
                cum = cum + corrections[name]
            for rec, value in zip(self.records, cum):
                setattr(rec, "cum_" + name, float(value))
        return RecordSeries(self.records, self.ctx)


class RecordSeries:
    """Ordered records plus run metadata; column access for the checkers."""

    def __init__(self, records: Sequence[EnergyRecord], ctx: LedgerContext):
        if len(records) == 0:
            raise DomainError("empty record series")
        self.records = list(records)
        self.ctx = ctx
        self.taus = np.array([r.tau for r in self.records])

    def __len__(self):
        return len(self.records)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


def _corrected_trapezoid(taus, f, fdot) -> np.ndarray:
    """Cumulative integral with endpoint-derivative correction.

    Per cell ``[a, b]``: ``(b-a)/2 (f_a + f_b) - (b-a)^2/12 (f'_b - f'_a)``,
    exact through cubics, so the remaining error is O(h^5 f'''').
    """
    out = np.zeros_like(f)
    h = np.diff(taus)
    incr = h / 2.0 * (f[:-1] + f[1:]) - h**2 / 12.0 * (fdot[1:] - fdot[:-1])
    out[1:] = np.cumsum(incr)
    return out


_GAUSS3_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GAUSS3_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


def _chi_crossing_corrections(taus, shell_e, shell_edot, radii, alpha) -> dict:
    """Cell-quadrature repairs for the chi-weighted integrals.

    The fractional low-pass weight changes branch when a lattice shell
    crosses the cap radius ``1/2 + alpha`` (at ``tau* = 2 ln(r/cap)``); its
    dilation kernel even jumps in value there. Inside the affected cell each
    crossing shell's contribution ``A exp(lam tau) E_shell(tau)`` is integrated
    branch-exactly (Gauss, with the shell energy Hermite-interpolated from the
    sampled values and derivatives), replacing that shell's share of the
    endpoint-based cell rule.
    """
    cap = 0.5 + alpha
    e2 = 1.0 + 4.0 * alpha
    names = ("E0_low_chi", "E1_low_chi", "flux_chi")
    out = {name: np.zeros_like(taus) for name in names}
    positive = radii > cap
    tstars = np.full_like(radii, -np.inf)
    tstars[positive] = 2.0 * np.log(radii[positive] / cap)
    inside = (tstars > taus[0]) & (tstars < taus[-1])
    if not np.any(inside):
        return out
    shells = np.nonzero(inside)[0]
    cells = np.searchsorted(taus, tstars[shells]) - 1
    cells = np.clip(cells, 0, len(taus) - 2)

    def hermite(a, h, ea, eda, eb, edb, tau):
        z = (tau - a) / h
        h00 = 2 * z**3 - 3 * z**2 + 1
        h10 = z**3 - 2 * z**2 + z
        h01 = -2 * z**3 + 3 * z**2
        h11 = z**3 - z**2
        return ea * h00 + h * eda * h10 + eb * h01 + h * edb * h11

    for shell, cell in zip(shells, cells):
        r = radii[shell]
        tstar = tstars[shell]
        a, b = taus[cell], taus[cell + 1]
        h = b - a
        ea, eda = shell_e[cell, shell], shell_edot[cell, shell]
        eb, edb = shell_e[cell + 1, shell], shell_edot[cell + 1, shell]
        # (A_above, lam_above, A_below, lam_below) per accumulated term
        branch = {
            "E0_low_chi": (cap**e2, 0.5, r**e2, -2.0 * alpha),
            "E1_low_chi": (cap**e2 * r**2, -0.5, r ** (2 + e2), -(1.0 + 2.0 * alpha)),
            "flux_chi": (0.0, 0.0, e2 * r**e2, -2.0 * alpha),
        }

        def seg_integral(amp, lam, lo, hi):
            if amp == 0.0 or hi <= lo:
                return 0.0
            mid = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            nodes = mid + half * _GAUSS3_NODES
            vals = amp * np.exp(lam * nodes) * hermite(a, h, ea, eda, eb, edb, nodes)
            return float(half * (_GAUSS3_WEIGHTS * vals).sum())

        for name, (amp_ab, lam_ab, amp_bl, lam_bl) in branch.items():
            w_a = amp_ab * math.exp(lam_ab * a) * ea
            wd_a = amp_ab * math.exp(lam_ab * a) * (lam_ab * ea + eda)
            w_b = amp_bl * math.exp(lam_bl * b) * eb
            wd_b = amp_bl * math.exp(lam_bl * b) * (lam_bl * eb + edb)
            ct_shell = h / 2.0 * (w_a + w_b) - h**2 / 12.0 * (wd_b - wd_a)
            exact = seg_integral(amp_ab, lam_ab, a, tstar) + seg_integral(
                amp_bl, lam_bl, tstar, b
            )
            out[name][cell + 1 :] += exact - ct_shell
    return out


def _strain_cubic(grads: np.ndarray) -> float:
    """``sum_x sum_jkl d_j u_k d_j u_l d_l u_k`` from ``grads[j, k] = d_j u_k``:
    ``M_kl = sum_j d_j u_k d_j u_l`` is symmetric, so each off-diagonal pair
    is contracted once against ``d_l u_k + d_k u_l``."""
    total = 0.0
    for k in range(3):
        for l in range(k, 3):
            m_kl = grads[0, k] * grads[0, l]
            m_kl += grads[1, k] * grads[1, l]
            m_kl += grads[2, k] * grads[2, l]
            other = grads[l, k] if k == l else grads[l, k] + grads[k, l]
            total += float(np.vdot(m_kl, other))
    return total


def _advected_pairing(a: np.ndarray, gb: np.ndarray, adjoint: np.ndarray) -> float:
    """``sum_x sum_jk a_j gb[j, k] adjoint_k`` as ``v_k = sum_j a_j gb[j, k]``
    paired with ``adjoint``."""
    total = 0.0
    for k in range(3):
        v_k = a[0] * gb[0, k]
        v_k += a[1] * gb[1, k]
        v_k += a[2] * gb[2, k]
        total += float(np.vdot(v_k, adjoint[k]))
    return total


def _evaluate_sample(snap: Snapshot, ctx: LedgerContext):
    g = ctx.grid
    s = snap.frame.scale
    c = snap.u_hat.coeffs
    cell = g.cell_volume
    half = c.shape[1:]

    abs2 = mode_energy(c)
    u = spec_to_phys(c, g)
    grad_spec = np.empty((3, 3) + half, dtype=complex)
    for j in range(3):
        for k in range(3):
            np.multiply(1j * g.xi[j], c[k], out=grad_spec[j, k])
    grads = spec_to_phys(grad_spec.reshape((9,) + half), g).reshape(
        (3, 3) + u.shape[1:]
    )
    G = u[0] * grads[0]
    G += u[1] * grads[1]
    G += u[2] * grads[2]
    G_hat = phys_to_spec(G, g)
    G_hat *= g.dealias_mask
    rgu = (G_hat * np.conj(c)).real.sum(axis=0)

    r = s * g.xi_mag
    w = weight_tables(r, ctx.alpha)
    w["r_kern_phi_slope"] = r * w["kern_phi_slope"]
    w["r_kern_chi_slope"] = r * w["kern_chi_slope"]
    # per-mode densities times multiplicity * |xi|^(2j): dotted with a radial
    # weight they give full-lattice Parseval sums
    flat = {
        (j, "abs2"): (abs2 * ctx.mult_xi_pow[j]).ravel() for j in range(5)
    }
    flat.update(
        {(j, "rgu"): (rgu * ctx.mult_xi_pow[j]).ravel() for j in range(4)}
    )

    def wsum(arr, weight=None, power=0):
        base = flat[(power, "rgu" if arr is rgu else "abs2")]
        if weight is None:
            return float(base.sum())
        return float(np.dot(weight.ravel(), base))

    E0 = wsum(abs2) / s
    E1 = s * wsum(abs2, power=1)
    E2 = s**3 * wsum(abs2, power=2)
    E3 = s**5 * wsum(abs2, power=3)
    E0_low = wsum(abs2, w["phi2"]) / s
    E0_tilde = wsum(abs2, w["one_minus_phi2"]) / s
    E0_high = wsum(abs2, w["one_minus_phi_sq"]) / s
    E0_low_chi = wsum(abs2, w["chi2"]) / s
    E1_low = s * wsum(abs2, w["phi2"], 1)
    E1_low_chi = s * wsum(abs2, w["chi2"], 1)
    E1_tilde = s * wsum(abs2, w["one_minus_phi2"], 1)
    E1_high = s * wsum(abs2, w["one_minus_phi_sq"], 1)
    E2_high = s**3 * wsum(abs2, w["one_minus_phi_sq"], 2)

    T_grad = s**3 * cell * _strain_cubic(grads)
    T_lap = s**5 * wsum(rgu, power=2)
    T_low = s * wsum(rgu, w["phi2"])
    T_chi = s * wsum(rgu, w["chi2"])
    T_grad_high = s**3 * wsum(rgu, w["one_minus_phi_sq"], 1)

    u_low = spec_to_phys(w["phi"] * c, g)
    lowgrads = spec_to_phys(
        (w["phi"] * grad_spec).reshape((9,) + half), g
    ).reshape(grads.shape)
    adjoint = spec_to_phys(w["one_minus_phi_sq"] * g.xi_sq * c, g)
    u_high = u - u_low
    highgrads = grads - lowgrads

    def split(a, gb):
        return s**3 * cell * _advected_pairing(a, gb, adjoint)

    T_split_ll = split(u_low, lowgrads)
    T_split_lh = split(u_low, highgrads)
    T_split_hl = split(u_high, lowgrads)
    T_split_hh = split(u_high, highgrads)

    flux_phi = wsum(abs2, w["kern_phi"]) / s
    flux_chi = wsum(abs2, w["kern_chi"]) / s
    flux_one_minus_phi = wsum(abs2, w["kern_one_minus_phi"]) / s
    flux_one_minus_phi_grad = s * wsum(abs2, w["kern_one_minus_phi"], 1)

    umag = np.sqrt(u[0] ** 2 + u[1] ** 2 + u[2] ** 2)
    lowmag2 = u_low[0] ** 2 + u_low[1] ** 2 + u_low[2] ** 2
    sup_norm_w = s * float(umag.max())
    sup_w_low = s * float(np.sqrt(lowmag2.max()))
    sup_grad_w_low = s**2 * float(np.sqrt((lowgrads**2).sum(axis=(0, 1)).max()))
    l4_w_low = float((s * cell * (lowmag2**2).sum()) ** 0.25)

    rec = EnergyRecord(
        tau=snap.frame.tau,
        E0=E0,
        E1=E1,
        E2=E2,
        E3=E3,
        E0_low=E0_low,
        E0_tilde=E0_tilde,
        E0_high=E0_high,
        E0_low_chi=E0_low_chi,
        E1_low=E1_low,
        E1_low_chi=E1_low_chi,
        E1_tilde=E1_tilde,
        E1_high=E1_high,
        E2_high=E2_high,
        T_grad=T_grad,
        T_lap=T_lap,
        T_low=T_low,
        T_chi=T_chi,
        T_grad_high=T_grad_high,
        T_split_ll=T_split_ll,
        T_split_lh=T_split_lh,
        T_split_hl=T_split_hl,
        T_split_hh=T_split_hh,
        flux_phi=flux_phi,
        flux_chi=flux_chi,
        flux_one_minus_phi=flux_one_minus_phi,
        flux_one_minus_phi_grad=flux_one_minus_phi_grad,
        sup_norm_w=sup_norm_w,
        sup_w_low=sup_w_low,
        sup_grad_w_low=sup_grad_w_low,
        l4_w_low=l4_w_low,
        tail_fraction=snap.tail_fraction,
    )

    # accumulator inputs: value and exact tau-derivative of each quadratic term
    # (per-mode Re<du/dt, conj u> = -|xi|^2 |u|^2 - rgu, pressure part dropping
    # against the radial weights)
    fvals = {}
    fdots = {}
    for name, (p, j, key) in _QUAD_TERMS.items():
        m = None if key is None else w[key]
        base = wsum(abs2, m, j)
        fvals[name] = s**p * base
        if key is None:
            drift = p * base
        else:
            drift = p * base + wsum(abs2, w[_QUAD_RSLOPE[name]], j)
        dyn = -wsum(abs2, m, j + 1) - wsum(rgu, m, j)
        fdots[name] = -0.5 * s**p * drift + 2.0 * s ** (p + 2) * dyn
    nshell = len(ctx.shell_radii)
    shell_e = np.bincount(ctx.shell_index, weights=flat[(0, "abs2")], minlength=nshell)
    rdu = -flat[(1, "abs2")] - flat[(0, "rgu")]
    shell_edot = np.bincount(
        ctx.shell_index, weights=2.0 * s**2 * rdu, minlength=nshell
    )
    return rec, fvals, fdots, (shell_e, shell_edot)


def compute_record(snap: Snapshot, ctx: LedgerContext) -> EnergyRecord:
    """Evaluate one snapshot in isolation (cumulative columns left NaN)."""
    return _evaluate_sample(snap, ctx)[0]


def records_from_snapshots(
    snapshots: Iterable[Snapshot], ctx: LedgerContext
) -> RecordSeries:
    builder = RecordsBuilder(ctx)
    for snap in snapshots:
        builder.feed(snap)
    return builder.finish()


# -- rates and fits ------------------------------------------------------------


def rate_estimate(series: Sequence[tuple]) -> list:
    """Second-order d/dtau estimates for a sampled scalar series.

    Input is ``[(tau, value), ...]`` with strictly increasing tau; interior
    points use the three-point nonuniform stencil, the endpoints one-sided
    second-order differences.
    """
    pts = list(series)
    if len(pts) < 3:
        raise DomainError("rate estimate needs at least three samples")
    taus = np.array([p[0] for p in pts], dtype=float)
    vals = np.array([p[1] for p in pts], dtype=float)
    if np.any(np.diff(taus) <= 0):
        raise DomainError("tau samples must be strictly increasing")
    out = np.empty_like(vals)
    for i in range(1, len(pts) - 1):
        hm = taus[i] - taus[i - 1]
        hp = taus[i + 1] - taus[i]
        out[i] = (
            hm**2 * vals[i + 1]
            + (hp**2 - hm**2) * vals[i]
            - hp**2 * vals[i - 1]
        ) / (hm * hp * (hm + hp))
    h0, h1 = taus[1] - taus[0], taus[2] - taus[1]
    out[0] = (
        -(2 * h0 + h1) / (h0 * (h0 + h1)) * vals[0]
        + (h0 + h1) / (h0 * h1) * vals[1]
        - h0 / (h1 * (h0 + h1)) * vals[2]
    )
    hm1, hm2 = taus[-1] - taus[-2], taus[-2] - taus[-3]
    out[-1] = (
        (2 * hm1 + hm2) / (hm1 * (hm1 + hm2)) * vals[-1]
        - (hm1 + hm2) / (hm1 * hm2) * vals[-2]
        + hm1 / (hm2 * (hm1 + hm2)) * vals[-3]
    )
    return list(zip(taus.tolist(), out.tolist()))


def fit_decay_rate(series: Sequence[tuple], tau_window: tuple) -> float:
    """Least-squares slope of ``-ln(value)`` against tau inside the window."""
    lo, hi = tau_window
    taus = np.array([p[0] for p in series], dtype=float)
    vals = np.array([p[1] for p in series], dtype=float)
    mask = (taus >= lo) & (taus <= hi)
    if mask.sum() < 2:
        raise FitError(f"window {tau_window} holds fewer than two samples")
    if np.any(vals[mask] <= 0):
        raise FitError("decay fit requires positive values in the window")
    x = taus[mask]
    y = -np.log(vals[mask])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


# -- inequality checks ----------------------------------------------------------

CHECK_NAMES = (
    "lemma2.1",
    "lemma2.2-grad",
    "lemma2.2-lap",
    "eq3.7-identity",
    "eq3.21-chi",
    "eq3.10",
    "prop3.2-decay",
    "eq4.4",
    "lemma4.2",
    "lemma4.3",
    "eq3.13-3.14",
)

CHECK_DESCRIPTIONS = {
    "lemma2.1": "L2 energy balance of the rescaled field (torus equality form)",
    "lemma2.2-grad": "gradient-energy balance with the cubic strain term",
    "lemma2.2-lap": "curvature-energy balance with the advected-Laplacian term",
    "eq3.7-identity": "low-block energy balance with the dilation flux",
    "eq3.21-chi": "fractional low-block energy balance with its dilation flux",
    "eq3.10": "weighted low+band energy differential inequality, fitted cubic constant",
    "prop3.2-decay": "fitted decay rate of the weighted low+band energy vs alpha",
    "eq4.4": "high-block gradient-energy inequality with reported nonlinear split",
    "lemma4.2": "gradient-energy relaxation bound with fitted forcing constant",
    "lemma4.3": "fitted curvature-energy decay rate vs the theoretical floor",
    "eq3.13-3.14": "low-block sup/L4 budget and tail decay",
}


def _simpson3(col: np.ndarray, i: int) -> float:
    return (col[i - 1] + 4.0 * col[i] + col[i + 1]) / 6.0


def _bracket_mean(col: np.ndarray, taus: np.ndarray, i: int) -> float:
    return (col[i + 1] - col[i - 1]) / (taus[i + 1] - taus[i - 1])


def _equality_check(
    name: str,
    series: RecordSeries,
    lhs_col: str,
    lhs_factor: float,
    quad_terms: Sequence[tuple],
    cubic_terms: Sequence[tuple],
    tolerance_scale: float,
) -> list:
    taus = series.taus
    if len(series) < 5:
        raise DomainError(f"{name}: need at least five samples")
    E = series.column(lhs_col)
    quads = [(coef, series.column("cum_" + col)) for coef, col in quad_terms]
    cubics = [(coef, series.column(col)) for coef, col in cubic_terms]
    reports = []
    for i in range(1, len(series) - 1):
        lhs = lhs_factor * _bracket_mean(E, taus, i)
        rhs = 0.0
        scale = abs(lhs)
        for coef, cum in quads:
            term = coef * _bracket_mean(cum, taus, i)
            rhs += term
            scale = max(scale, abs(term))
        for coef, col in cubics:
            term = coef * _simpson3(col, i)
            rhs += term
            scale = max(scale, abs(term))
        scale = max(scale, abs(rhs))
        tol = max(REL_TOL * tolerance_scale * scale, ABS_TOL)
        resid = abs(lhs - rhs)
        reports.append(
            InequalityReport(name, taus[i], lhs, rhs, resid, tol, resid <= tol)
        )
    return reports


def check_inequality(
    name: str,
    series: RecordSeries,
    tolerance_scale: float = 1.0,
    decay_window: tuple = (1.0, 4.0),
    lemma43_margin: float = 0.2,
    tail_start: float = 1.0,
) -> list:
    """Evaluate one named balance/inequality over the record series.

    Returns one report per interior sample for the differential checks and a
    small number of fit-level reports for the decay/budget checks. Equality
    residuals are absolute values (two-sided); inequality residuals are signed
    ``lhs - rhs`` (pass when at most the tolerance).
    """
    if name not in CHECK_NAMES:
        raise DomainError(f"unknown inequality name {name!r}")
    if len(series) < 5:
        raise DomainError("inequality checks need at least five samples")
    taus = series.taus
    ts = tolerance_scale

    if name == "lemma2.1":
        return _equality_check(
            name, series, "E0", 0.5,
            [(0.25, "E0"), (-1.0, "E1")], [], ts,
        )
    if name == "lemma2.2-grad":
        return _equality_check(
            name, series, "E1", 1.0,
            [(-0.5, "E1"), (-2.0, "E2")], [(-2.0, "T_grad")], ts,
        )
    if name == "lemma2.2-lap":
        return _equality_check(
            name, series, "E2", 1.0,
            [(-1.5, "E2"), (-2.0, "E3")], [(-2.0, "T_lap")], ts,
        )
    if name == "eq3.7-identity":
        return _equality_check(
            name, series, "E0_low", 0.5,
            [(0.25, "E0_low"), (-1.0, "E1_low"), (-0.25, "flux_phi")],
            [(-1.0, "T_low")], ts,
        )
    if name == "eq3.21-chi":
        return _equality_check(
            name, series, "E0_low_chi", 0.5,
            [(0.25, "E0_low_chi"), (-1.0, "E1_low_chi"), (-0.25, "flux_chi")],
            [(-1.0, "T_chi")], ts,
        )

    if name == "eq3.10":
        X = series.column("E0_low_chi") + series.column("E0_tilde")
        alpha = series.ctx.alpha
        interior = range(1, len(series) - 1)
        lhs = {i: 0.5 * _bracket_mean(X, taus, i) for i in interior}
        xf = {i: max(_simpson3(X, i), 0.0) for i in interior}
        c_req = [
            (lhs[i] + alpha * xf[i]) / xf[i] ** 1.5
            for i in interior
            if xf[i] > 0
        ]
        c_emp = max(c_req) if c_req else 0.0
        reports = []
        for i in interior:
            rhs = -alpha * xf[i] + c_emp * xf[i] ** 1.5
            resid = lhs[i] - rhs
            scale = max(abs(lhs[i]), abs(rhs), alpha * xf[i])
            tol = max(REL_TOL * ts * scale, ABS_TOL)
            reports.append(
                InequalityReport(
                    name, taus[i], lhs[i], rhs, resid, tol, resid <= tol, c_emp
                )
            )
        return reports

    if name == "prop3.2-decay":
        X = series.column("E0_low_chi") + series.column("E0_tilde")
        alpha = series.ctx.alpha
        lo, hi = decay_window
        hi = min(hi, taus[-1])
        fitted = fit_decay_rate(list(zip(taus, X)), (lo, hi))
        resid = alpha - fitted
        tol = max(1e-9, REL_TOL * ts * alpha)
        return [
            InequalityReport(
                name, hi, -fitted, -alpha, resid, tol, resid <= tol, fitted
            )
        ]

    if name == "eq4.4":
        E1h = series.column("E1_high")
        E2h = series.column("E2_high")
        Tgh = series.column("T_grad_high")
        reports = []
        for i in range(1, len(series) - 1):
            lhs = 0.5 * _bracket_mean(E1h, taus, i)
            rhs = (
                -_simpson3(E2h, i)
                - 0.25 * _simpson3(E1h, i)
                + abs(_simpson3(Tgh, i))
            )
            resid = lhs - rhs
            scale = max(abs(lhs), abs(rhs), _simpson3(E2h, i))
            tol = max(REL_TOL * ts * scale, ABS_TOL)
            reports.append(
                InequalityReport(name, taus[i], lhs, rhs, resid, tol, resid <= tol)
            )
        return reports

    if name == "lemma4.2":
        E1 = series.column("E1")
        E1h = series.column("E1_high")
        start = int(np.searchsorted(taus, tail_start))
        if start >= len(series) - 1:
            raise DomainError("lemma4.2 window starts beyond the sampled range")
        delta1 = float(np.sqrt(E1h[start:].max()))
        tau0 = taus[start]
        e1_0 = E1[start]
        c_req = []
        for i in range(start + 1, len(series)):
            decayed = math.exp(-0.5 * (taus[i] - tau0))
            denom = 2.0 * delta1 * (1.0 - decayed)
            if denom > 0:
                c_req.append((E1[i] - decayed * e1_0) / denom)
        c_emp = max(c_req) if c_req else 0.0
        reports = []
        for i in range(start + 1, len(series)):
            decayed = math.exp(-0.5 * (taus[i] - tau0))
            rhs = decayed * e1_0 + 2.0 * c_emp * delta1 * (1.0 - decayed)
            resid = E1[i] - rhs
            scale = max(E1[i], abs(rhs), e1_0 * decayed)
            tol = max(REL_TOL * ts * scale, ABS_TOL)
            reports.append(
                InequalityReport(
                    name, taus[i], E1[i], rhs, resid, tol, resid <= tol, c_emp
                )
            )
        return reports

    if name == "lemma4.3":
        lo, hi = decay_window
        hi = min(hi, taus[-1])
        fitted = fit_decay_rate(list(zip(taus, series.column("E2"))), (lo, hi))
        floor = 1.5 - lemma43_margin
        resid = floor - fitted
        tol = max(1e-9, REL_TOL * ts * floor)
        return [
            InequalityReport(
                name, hi, -fitted, -floor, resid, tol, resid <= tol, fitted
            )
        ]

    if name == "eq3.13-3.14":
        delta = series.ctx.delta
        if delta is None:
            raise DomainError("eq3.13-3.14 needs the run's delta in the context")
        reports = []
        start = int(np.searchsorted(taus, tail_start))
        start = min(start, len(series) - 2)
        for col in ("sup_w_low", "l4_w_low"):
            vals = series.column(col)
            budget = float(vals.max()) / delta  # reported C(beta) analogue
            head = vals[start]
            final = vals[-1]
            resid = final - 0.5 * head
            tol = max(REL_TOL * ts * head, ABS_TOL)
            reports.append(
                InequalityReport(
                    name, taus[-1], final, 0.5 * head, resid, tol,
                    resid <= tol, budget,
                )
            )
        grad_budget = float(series.column("sup_grad_w_low").max()) / delta
        reports.append(
            InequalityReport(
                name, taus[-1], grad_budget, math.inf, -math.inf, 0.0, True,
                grad_budget,
            )
        )
        return reports

    raise DomainError(f"unknown inequality name {name!r}")


def summarize_reports(reports_by_name: dict) -> list:
    """Aggregate per-sample reports into one JSON-ready entry per check."""
    out = []
    for name, reports in reports_by_name.items():
        finite = [r.residual for r in reports if math.isfinite(r.residual)]
        consts = [
            r.empirical_constant
            for r in reports
            if r.empirical_constant is not None
        ]
        out.append(
            {
                "name": name,
                "description": CHECK_DESCRIPTIONS.get(name, ""),
                "samples": len(reports),
                "max_residual": max(finite) if finite else 0.0,
                "tolerance": max(r.tolerance for r in reports),
                "empirical_constant": consts[-1] if consts else None,
                "pass": all(r.passed for r in reports),
            }
        )
    return out


def write_records_csv(series: RecordSeries, path) -> None:
    """One row per sample, every record field, 17 significant digits."""
    with open(path, "w") as fh:
        fh.write(",".join(RECORD_FIELDS) + "\n")
        for rec in series.records:
            fh.write(
                ",".join(f"{getattr(rec, name):.17g}" for name in RECORD_FIELDS)
                + "\n"
            )


def write_check_report(path, scenario: str, reports_by_name: dict, fitted_rates: dict) -> None:
    payload = {
        "scenario": scenario,
        "checks": summarize_reports(reports_by_name),
        "fitted_rates": fitted_rates,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")
