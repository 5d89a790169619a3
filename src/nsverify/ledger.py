"""Energy functionals in rescaled variables and the identity checks.

Every functional of the rescaled field ``w`` is evaluated from the physical
spectrum through the exact frame identities (see :mod:`nsverify.similarity`).
Each quadratic functional is ``s**p * sum m(s |xi|) |xi|^(2j) |u_hat|^2`` (or
the same against the transfer density ``t = Re<F[(u.grad)u], u_hat>``), and
its weight ``m`` is constant on a lattice shell ``|xi| = const``. So each
sample sums both densities once per shell, and every such column is a dot
product over shells, with the radial weights read from
:func:`nsverify.cutoffs.weight_tables` at the shell radii. The transfer comes
from the rotational form ``(u.grad)u = grad |u|^2/2 - u x omega`` (Canuto,
Hussaini, Quarteroni & Zang, Spectral Methods): the gradient pairs to zero
against the solenoidal ``u_hat``, so the density is ``-Re<F[u x omega],
u_hat>``, with ``F[u x omega]`` formed from the samples of ``u`` and
``omega`` by the integrator's own product,
:func:`nsverify.dynamics.rotational_product`. The cubic
terms that pair the whole field with itself are shell sums of it too:
``T_lap``, ``T_low``, ``T_chi``, ``T_grad_high``, and ``T_grad`` by the
enstrophy-balance identity ``int (u.grad)u . lap u = -int d_j u_k d_j u_l
d_l u_k`` for solenoidal ``u`` (same reference), which makes the strain
contraction ``s**3 * sum rho^2 t(rho)``.

Snapshots carry the field on its grid's 2/3 band (:mod:`nsverify.spectral`),
and the ledger forms every spectrum there: the gradient spectra, the mode
energy, the block weights and the transfer, which the forward transform
truncates to the band.

What the ledger reads in physical space is the transfer's product ``u x
omega`` and the sup and L4 norms. It splits the field at the low-pass weight
``phi(s|xi|)`` and evaluates the low block first, in its own scope
(:func:`_low_block`). The low block ``u_low = F^-1[phi c]`` takes 3 inverse
transforms and its gradient tensor 8: the trace closes the tensor, ``d_2 u_2
= -(d_0 u_0 + d_1 u_1)``, and ``omega_low`` is its differences. The block is
reduced at once to ``sup_w_low`` and ``l4_w_low``, which read ``|u_low|``,
and ``sup_grad_w_low``, which reads ``|grad u_low|``; only the samples of
``u_low`` and ``omega_low`` outlive that scope, and the gradient tensor, its
spectra and the squares are freed. While ``1 - phi(s r)`` is nonzero on some
shell that carries energy, one more call then transforms the high block's
velocity ``F^-1[(1 - phi) c]`` and vorticity ``F^-1[i xi x (1 - phi) c]`` (6
components), which are added into the low block's in place, so that they
become ``u`` and ``omega``, and freed. Once it is exactly 0 on every such
shell (late tau, when the low block takes in the whole dealiased band), the
low block is the field itself and the ledger transforms ``c`` and its
gradient tensor only. So a high-pass sample transforms 17 components back, a
low-pass one 11, and each 3 forward (``u x omega``). At n=32 a sample's
allocations peak at 19.5 (high pass) and 18.6 (low pass) n^3 float64 arrays
(tracemalloc; a Tier-1 test bounds them). The ``T_*`` columns read
the transfer and ``sup_norm_w`` reads ``|u|``. The shell energies are the
snapshot's own (:class:`~nsverify.dynamics.Snapshot`).

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
energy) error whenever a lattice shell crosses the cap radius. The cells
where a shell crosses are repaired from the same shell energies: that
shell's share is integrated on each side of the crossing separately.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields as dc_fields
from typing import Callable, Sequence

import numpy as np

from .cutoffs import weight_tables
from .dynamics import Snapshot, rotational_product
from .errors import DomainError, FitError
from .spectral import Grid, curl, shell_sum, spec_to_phys

__all__ = [
    "EnergyRecord",
    "InequalityReport",
    "LedgerContext",
    "RecordsBuilder",
    "RecordSeries",
    "decay_rate",
    "check_inequality",
    "CHECKS",
    "CHECK_NAMES",
    "summarize_reports",
    "write_records_csv",
]

REL_TOL = 1e-5
ABS_TOL = 1e-10

# shell-sum columns: name -> (density, frame power p, |xi|^(2j) power j,
# weight). Each is ``s**p`` times the sum over lattice shells of
# ``m(s|xi|) |xi|^(2j)`` times the shell total of the density: "e" the energy
# |u_hat|^2, "t" the transfer Re<F[(u.grad)u], u_hat>. The weight m is 1
# (None) or (profile kind, 0 for psi^2 | 1 for its flux kernel r d(psi^2)/dr).
_SHELL_TERMS = {
    "E0": ("e", -1, 0, None),
    "E1": ("e", 1, 1, None),
    "E2": ("e", 3, 2, None),
    "E3": ("e", 5, 3, None),
    "E0_low": ("e", -1, 0, ("phi", 0)),
    "E0_tilde": ("e", -1, 0, ("tilde", 0)),
    "E0_high": ("e", -1, 0, ("one_minus_phi", 0)),
    "E0_low_chi": ("e", -1, 0, ("chi", 0)),
    "E1_low": ("e", 1, 1, ("phi", 0)),
    "E1_low_chi": ("e", 1, 1, ("chi", 0)),
    "E1_tilde": ("e", 1, 1, ("tilde", 0)),
    "E1_high": ("e", 1, 1, ("one_minus_phi", 0)),
    "E2_high": ("e", 3, 2, ("one_minus_phi", 0)),
    "T_grad": ("t", 3, 1, None),
    "T_lap": ("t", 5, 2, None),
    "T_low": ("t", 1, 0, ("phi", 0)),
    "T_chi": ("t", 1, 0, ("chi", 0)),
    "T_grad_high": ("t", 3, 1, ("one_minus_phi", 0)),
    "flux_phi": ("e", -1, 0, ("phi", 1)),
    "flux_chi": ("e", -1, 0, ("chi", 1)),
    "flux_one_minus_phi": ("e", -1, 0, ("one_minus_phi", 1)),
    "flux_one_minus_phi_grad": ("e", 1, 1, ("one_minus_phi", 1)),
}
# energy columns integrated in tau into the cum_* columns; the chi-weighted
# ones also get the cap-crossing repair
_CUMULATED = (
    "E0", "E1", "E2", "E3", "E0_low", "E1_low", "flux_phi",
    "E0_low_chi", "E1_low_chi", "flux_chi",
)
_CHI_CUMULATED = ("E0_low_chi", "E1_low_chi", "flux_chi")


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

    tau: float
    residual: float
    tolerance: float
    empirical_constant: float | None = None

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


class LedgerContext:
    """The grid and run parameters shared by every record evaluation."""

    def __init__(self, grid: Grid, alpha: float, delta: float):
        self.grid = grid
        self.alpha = float(alpha)
        self.delta = delta


class RecordsBuilder:
    """Streaming consumer turning snapshots into an aligned record series."""

    def __init__(self, ctx: LedgerContext):
        self.ctx = ctx
        self.records: list[EnergyRecord] = []
        self._quad_fdot = {name: [] for name in _CUMULATED}
        self._shell_e: list[np.ndarray] = []
        self._shell_edot: list[np.ndarray] = []

    def feed(self, snap: Snapshot) -> EnergyRecord:
        rec, fdots, shells = _evaluate_sample(snap, self.ctx)
        self.records.append(rec)
        for name in _CUMULATED:
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
            self.ctx.grid.shell_radii,
            self.ctx.alpha,
        )
        for name in _CUMULATED:
            f = np.array([getattr(rec, name) for rec in self.records])
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


def _weight(tables: dict, r, weight):
    """``m(r)`` and ``r m'(r)`` of a shell-term weight, from the profile table."""
    if weight is None:
        return 1.0, 0.0
    sq, kern, kern_slope = tables[weight[0]]
    return (sq, kern) if weight[1] == 0 else (kern, r * kern_slope)


def _tau_rate(p, m, rm, energy, energy_rate):
    """``d/dtau [s**p m(s rho) E] / s**p`` for ``s = exp(-tau/2)``, given the
    weight ``m``, its ``r m'`` and the shell energy ``E`` with its rate."""
    return m * energy_rate - 0.5 * (p * m + rm) * energy


def _chi_crossing_corrections(taus, shell_e, shell_edot, radii, alpha) -> dict:
    """Cell-quadrature repairs for the chi-weighted integrals.

    The fractional low-pass weight changes branch when a lattice shell
    crosses the cap radius ``1/2 + alpha`` (at ``tau* = 2 ln(r/cap)``); its
    dilation kernel even jumps in value there. Inside the affected cell each
    crossing shell's contribution ``s**p m(s r) r**(2j) E_shell(tau)`` is
    integrated branch-exactly (Gauss on each side of ``tau*``, with the shell
    energy Hermite-interpolated from the sampled values and derivatives),
    replacing that shell's share of the endpoint-based cell rule.
    """
    cap = 0.5 + alpha
    out = {name: np.zeros_like(taus) for name in _CHI_CUMULATED}
    positive = radii > cap
    tstars = np.full_like(radii, -np.inf)
    tstars[positive] = 2.0 * np.log(radii[positive] / cap)
    shells = np.nonzero((tstars > taus[0]) & (tstars < taus[-1]))[0]
    if shells.size == 0:
        return out
    cells = np.clip(np.searchsorted(taus, tstars[shells]) - 1, 0, len(taus) - 2)
    a, b, tstar = taus[cells], taus[cells + 1], tstars[shells]
    h = b - a
    # per crossing shell: the two cell ends, then three Gauss nodes on
    # [a, tau*] and three on [tau*, b]
    lo = np.stack([a, tstar], axis=1)[:, :, None]
    hi = np.stack([tstar, b], axis=1)[:, :, None]
    half = 0.5 * (hi - lo)
    gauss = (0.5 * (lo + hi) + half * _GAUSS3_NODES).reshape(-1, 6)
    gauss_w = (half * _GAUSS3_WEIGHTS).reshape(-1, 6)
    nodes = np.concatenate([a[:, None], b[:, None], gauss], axis=1)

    ea, eda = shell_e[cells, shells], shell_edot[cells, shells]
    eb, edb = shell_e[cells + 1, shells], shell_edot[cells + 1, shells]
    z = (nodes - a[:, None]) / h[:, None]
    energy = (
        ea[:, None] * (2 * z**3 - 3 * z**2 + 1)
        + (h * eda)[:, None] * (z**3 - 2 * z**2 + z)
        + eb[:, None] * (-2 * z**3 + 3 * z**2)
        + (h * edb)[:, None] * (z**3 - z**2)
    )
    energy_rate = np.zeros_like(energy)  # the cell rule needs it at the ends only
    energy_rate[:, 0], energy_rate[:, 1] = eda, edb

    rho = radii[shells][:, None]
    s = np.exp(-0.5 * nodes)
    r = s * rho
    tables = weight_tables(r, alpha)
    for name in _CHI_CUMULATED:
        _, p, j, weight = _SHELL_TERMS[name]
        m, rm = _weight(tables, r, weight)
        scale = s**p * rho ** (2 * j)
        g = scale * m * energy
        gdot = scale * _tau_rate(p, m, rm, energy, energy_rate)
        cell_rule = h / 2.0 * (g[:, 0] + g[:, 1]) - h**2 / 12.0 * (
            gdot[:, 1] - gdot[:, 0]
        )
        exact = (gauss_w * g[:, 2:]).sum(axis=1)
        repair = np.zeros_like(taus)
        np.add.at(repair, cells + 1, exact - cell_rule)
        out[name] = np.cumsum(repair)
    return out


_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _gradient_tensor(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """``grads[j, k] = d_j u_k`` of a solenoidal field from its band
    coefficients: its first eight components in row-major order (all but
    ``d_2 u_2``) take eight transforms, and the trace closes the tensor:
    ``d_2 u_2 = -(d_0 u_0 + d_1 u_1)``."""
    n = grid.n
    grad_spec = np.empty((8,) + grid.xi_sq.shape, dtype=complex)
    for i in range(8):
        j, k = divmod(i, 3)
        np.multiply(1j * grid.xi[j], coeffs[k], out=grad_spec[i])
    grads = np.empty((3, 3, n, n, n))
    spec_to_phys(grad_spec, grid, out=grads.reshape(9, n, n, n)[:8])
    np.add(grads[0, 0], grads[1, 1], out=grads[2, 2])
    np.negative(grads[2, 2], out=grads[2, 2])
    return grads


def _shell_transfer(u, vort, c, grid: Grid) -> np.ndarray:
    """Per-shell ``-Re<F[u x omega], u_hat>`` from the samples of ``u`` and
    ``omega``. ``u_hat`` is solenoidal and lies inside the 2/3 band, where
    the product's aliases do not reach, so no projection or mask is needed."""
    lamb = rotational_product(u, vort, grid)
    return shell_sum(-(lamb * np.conj(c)).real.sum(axis=0), grid)


def _low_block(low: np.ndarray, grid: Grid, s: float):
    """Samples of the low block's velocity and vorticity from its band
    coefficients ``low``, and its three norms in the frame of scale ``s``:
    ``sup_w_low``, ``l4_w_low`` and ``sup_grad_w_low``. The gradient tensor
    and the squares are freed on return."""
    u_low = spec_to_phys(low, grid)
    grads = _gradient_tensor(low, grid)
    vort_low = np.empty_like(u_low)  # omega_i = d_j u_k - d_k u_j, cyclic
    for i, j, k in _CYCLIC:
        np.subtract(grads[j, k], grads[k, j], out=vort_low[i])
    grad2 = np.einsum("jk...,jk...->...", grads, grads)
    del grads
    mag2 = u_low[0] ** 2 + u_low[1] ** 2 + u_low[2] ** 2
    norms = {
        "sup_w_low": s * math.sqrt(mag2.max()),
        "sup_grad_w_low": s**2 * math.sqrt(grad2.max()),
        "l4_w_low": float((s * grid.cell_volume * (mag2**2).sum()) ** 0.25),
    }
    return u_low, vort_low, norms


def _evaluate_sample(snap: Snapshot, ctx: LedgerContext):
    g = ctx.grid
    if snap.u_hat.grid != g:
        raise DomainError("the ledger reads snapshots on its own grid")
    s = snap.frame.scale
    c = snap.u_hat.coeffs
    rho = g.shell_radii
    r = s * rho
    tables = weight_tables(r, ctx.alpha)
    shell_e = snap.shell_energies

    # the low block phi(s|xi|) c; once 1 - phi(s r) is exactly 0 on every
    # shell that carries energy, that is c itself and the high block is zero
    high_sq = tables["one_minus_phi"][0]  # (1 - phi(s r))^2 per shell
    high_pass = bool(high_sq[shell_e > 0].any())

    def per_mode(shell_weight):
        return np.sqrt(shell_weight)[g.shell_index].reshape(g.xi_sq.shape)

    u, vort, norms = _low_block(
        per_mode(tables["phi"][0]) * c if high_pass else c, g, s)
    if high_pass:
        # the high block's velocity and vorticity in one call, added into
        # the low block's: u and omega are the sums of the two blocks'
        hc = per_mode(high_sq) * c
        high = spec_to_phys(np.concatenate([hc, curl(hc, g)]), g)
        u += high[:3]
        vort += high[3:]
        del high
        sup_norm_w = s * math.sqrt((u[0] ** 2 + u[1] ** 2 + u[2] ** 2).max())
    else:
        sup_norm_w = norms["sup_w_low"]

    # shell energies, transfers and the energies' exact tau-derivative
    # (per mode Re<du/dt, conj u> = -|xi|^2 |u|^2 - transfer, the pressure
    # part dropping against the radial weights)
    totals = {"e": shell_e, "t": _shell_transfer(u, vort, c, g)}
    shell_edot = 2.0 * s**2 * (-(rho**2) * shell_e - totals["t"])
    values = {}
    fdots = {}
    for name, (density, p, j, weight) in _SHELL_TERMS.items():
        m, rm = _weight(tables, r, weight)
        scale = s**p * rho ** (2 * j)
        values[name] = float((scale * m * totals[density]).sum())
        if name in _CUMULATED:
            rate = _tau_rate(p, m, rm, shell_e, shell_edot)
            fdots[name] = float((scale * rate).sum())

    rec = EnergyRecord(
        tau=snap.frame.tau,
        sup_norm_w=sup_norm_w,
        tail_fraction=snap.tail_fraction,
        **norms,
        **values,
    )
    return rec, fdots, (shell_e, shell_edot)


# -- checks ----------------------------------------------------------------------

# the fits and the relaxation bound run over tau >= FIT_START, where each
# fitted check needs at least two samples; the decay fits end at DECAY_END
FIT_START = 1.0
DECAY_END = 4.0
# Lemma 4.3's floor on the curvature-energy decay rate: 3/2 less a margin
LEMMA43_FLOOR = 1.5 - 0.2


def weighted_low_band_energy(series: RecordSeries) -> np.ndarray:
    """``X = E0_low_chi + E0_tilde``, the weighted energy of eq 3.10 and Prop 3.2."""
    return series.column("E0_low_chi") + series.column("E0_tilde")


def _decay_window(taus: np.ndarray) -> tuple:
    return FIT_START, min(DECAY_END, float(taus[-1]))


def decay_rate(series: RecordSeries, values: np.ndarray) -> float:
    """Least-squares slope of ``-ln(values)`` against tau on the decay window
    ``[FIT_START, min(DECAY_END, last tau)]``."""
    taus = series.taus
    window = _decay_window(taus)
    mask = (taus >= window[0]) & (taus <= window[1])
    if mask.sum() < 2:
        raise FitError(f"window {window} holds fewer than two samples")
    if np.any(values[mask] <= 0):
        raise FitError("decay fit requires positive values in the window")
    return float(np.polyfit(taus[mask], -np.log(values[mask]), 1)[0])


def _simpson3(col: np.ndarray) -> np.ndarray:
    """Three-point Simpson filter of ``col`` at each interior sample."""
    return (col[:-2] + 4.0 * col[1:-1] + col[2:]) / 6.0


def _bracket_mean(col: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Centered difference of ``col`` over each interior sample's bracket."""
    return (col[2:] - col[:-2]) / (taus[2:] - taus[:-2])


def _tolerance(scale):
    return np.maximum(REL_TOL * scale, ABS_TOL)


def _reports(taus, residual, scale, constant=None):
    """One report per sample from the per-sample columns of a check."""
    return [
        InequalityReport(*row, constant)
        for row in zip(taus, residual, _tolerance(scale))
    ]


@dataclass(frozen=True)
class Balance:
    """The equality balance ``lhs_factor * dE/dtau = sum of terms`` at each
    interior sample, ``E`` the column ``lhs``. A quadratic term ``(coef,
    col)`` enters as the bracket mean of its ``cum_`` integral, a cubic term
    as the Simpson filter of its column. Residuals are two-sided."""

    lhs: str
    lhs_factor: float
    quad_terms: tuple
    cubic_terms: tuple = ()

    def __call__(self, series) -> list:
        taus = series.taus
        lhs = self.lhs_factor * _bracket_mean(series.column(self.lhs), taus)
        terms = [coef * _bracket_mean(series.column("cum_" + col), taus)
                 for coef, col in self.quad_terms]
        terms += [coef * _simpson3(series.column(col))
                  for coef, col in self.cubic_terms]
        rhs = sum(terms)
        scale = np.abs([lhs, *terms, rhs]).max(axis=0)
        return _reports(taus[1:-1], np.abs(lhs - rhs), scale)


def _decay(series, values, floor) -> list:
    """One report at the window's end: the rate :func:`decay_rate` fits to
    ``values`` is at least ``floor`` (signed residual ``floor - rate``)."""
    rate = decay_rate(series, values)
    tol = max(1e-9, REL_TOL * floor)
    end = _decay_window(series.taus)[1]
    return [InequalityReport(end, floor - rate, tol, rate)]


def _prop3_2(series) -> list:
    """Prop 3.2: the weighted low+band energy decays at rate alpha or faster."""
    return _decay(series, weighted_low_band_energy(series), series.ctx.alpha)


def _lemma4_3(series) -> list:
    """Lemma 4.3: the curvature energy decays at rate LEMMA43_FLOOR or faster."""
    return _decay(series, series.column("E2"), LEMMA43_FLOOR)


def _eq3_10(series) -> list:
    X = weighted_low_band_energy(series)
    alpha = series.ctx.alpha
    lhs = 0.5 * _bracket_mean(X, series.taus)
    xf = np.maximum(_simpson3(X), 0.0)
    # scalar ** here and math.exp in lemma4.2: array ufuncs may round differently
    c_req = [(lo + alpha * x) / x**1.5 for lo, x in zip(lhs, xf) if x > 0]
    c_emp = max(c_req) if c_req else 0.0
    rhs = np.array([-alpha * x + c_emp * x**1.5 for x in xf])
    scale = np.max([np.abs(lhs), np.abs(rhs), alpha * xf], axis=0)
    return _reports(series.taus[1:-1], lhs - rhs, scale, c_emp)


def _eq4_4(series) -> list:
    E1h = series.column("E1_high")
    dissipation = _simpson3(series.column("E2_high"))
    lhs = 0.5 * _bracket_mean(E1h, series.taus)
    rhs = (-dissipation - 0.25 * _simpson3(E1h)
           + np.abs(_simpson3(series.column("T_grad_high"))))
    scale = np.max([np.abs(lhs), np.abs(rhs), dissipation], axis=0)
    return _reports(series.taus[1:-1], lhs - rhs, scale)


def _lemma4_2(series) -> list:
    taus = series.taus
    start = int(np.searchsorted(taus, FIT_START))
    if start >= len(series) - 1:
        raise DomainError("lemma4.2 window starts beyond the sampled range")
    delta1 = float(np.sqrt(series.column("E1_high")[start:].max()))
    E1 = series.column("E1")
    e1_0, E1 = E1[start], E1[start + 1:]
    decayed = np.array([math.exp(-0.5 * (t - taus[start])) for t in taus[start + 1:]])
    denom = 2.0 * delta1 * (1.0 - decayed)
    positive = denom > 0
    c_req = (E1 - decayed * e1_0)[positive] / denom[positive]
    c_emp = max(c_req) if c_req.size else 0.0
    rhs = decayed * e1_0 + 2.0 * c_emp * delta1 * (1.0 - decayed)
    scale = np.max([E1, np.abs(rhs), e1_0 * decayed], axis=0)
    return _reports(taus[start + 1:], E1 - rhs, scale, c_emp)


def _eq3_13_14(series) -> list:
    """The low block's sup and L4 norms at the last sample are at most half
    their values at FIT_START; each report carries its budget ``max / delta``.
    A third report carries the gradient budget ``max(sup_grad_w_low) /
    delta`` with residual -inf, so it always passes. It comes last, so it is
    the constant :func:`summarize_reports` gives for this check."""
    delta = series.ctx.delta
    end = series.taus[-1]
    start = min(int(np.searchsorted(series.taus, FIT_START)), len(series) - 2)
    reports = []
    for col in ("sup_w_low", "l4_w_low"):
        vals = series.column(col)
        budget = float(vals.max()) / delta  # reported C(beta) analogue
        head, final = vals[start], vals[-1]
        reports.append(InequalityReport(
            end, final - 0.5 * head, _tolerance(head), budget))
    grad_budget = float(series.column("sup_grad_w_low").max()) / delta
    reports.append(InequalityReport(end, -math.inf, 0.0, grad_budget))
    return reports


@dataclass(frozen=True)
class Check:
    """One of the paper's checks. ``evaluate(series)`` returns its
    reports; a ``fitted`` check fits on tau >= FIT_START. Every tolerance is
    fixed by the program: ``REL_TOL`` of the check's own scale, with a floor
    (``ABS_TOL``, or 1e-9 on a fitted rate). No setting changes it."""

    description: str
    evaluate: Callable
    fitted: bool = False


CHECKS = {
    "lemma2.1": Check(
        "L2 energy balance of the rescaled field (torus equality form)",
        Balance("E0", 0.5, ((0.25, "E0"), (-1.0, "E1"))),
    ),
    "lemma2.2-grad": Check(
        "gradient-energy balance with the cubic strain term",
        Balance("E1", 1.0, ((-0.5, "E1"), (-2.0, "E2")), ((-2.0, "T_grad"),)),
    ),
    "lemma2.2-lap": Check(
        "curvature-energy balance with the advected-Laplacian term",
        Balance("E2", 1.0, ((-1.5, "E2"), (-2.0, "E3")), ((-2.0, "T_lap"),)),
    ),
    "eq3.7-identity": Check(
        "low-block energy balance with the dilation flux",
        Balance(
            "E0_low", 0.5,
            ((0.25, "E0_low"), (-1.0, "E1_low"), (-0.25, "flux_phi")),
            ((-1.0, "T_low"),),
        ),
    ),
    "eq3.21-chi": Check(
        "fractional low-block energy balance with its dilation flux",
        Balance(
            "E0_low_chi", 0.5,
            ((0.25, "E0_low_chi"), (-1.0, "E1_low_chi"), (-0.25, "flux_chi")),
            ((-1.0, "T_chi"),),
        ),
    ),
    "eq3.10": Check(
        "weighted low+band energy differential inequality, fitted cubic constant",
        _eq3_10,
    ),
    "prop3.2-decay": Check(
        "fitted decay rate of the weighted low+band energy vs alpha",
        _prop3_2, fitted=True,
    ),
    "eq4.4": Check(
        "high-block gradient-energy inequality with its cubic transfer term",
        _eq4_4,
    ),
    "lemma4.2": Check(
        "gradient-energy relaxation bound with fitted forcing constant",
        _lemma4_2, fitted=True,
    ),
    "lemma4.3": Check(
        "fitted curvature-energy decay rate vs the theoretical floor",
        _lemma4_3, fitted=True,
    ),
    "eq3.13-3.14": Check("low-block sup/L4 budget and tail decay", _eq3_13_14),
}
CHECK_NAMES = tuple(CHECKS)
FITTED_CHECKS = tuple(name for name, check in CHECKS.items() if check.fitted)


def check_inequality(name: str, series: RecordSeries) -> list:
    """Evaluate one named balance/inequality of :data:`CHECKS` over the
    record series.

    Returns one report per interior sample for the differential checks and a
    small number of fit-level reports for the decay/budget checks. Equality
    residuals are absolute values (two-sided); inequality residuals are signed
    ``lhs - rhs`` (pass when at most the tolerance).
    """
    if name not in CHECKS:
        raise DomainError(f"unknown inequality name {name!r}")
    if len(series) < 5:
        raise DomainError("inequality checks need at least five samples")
    return CHECKS[name].evaluate(series)


def summarize_reports(reports_by_name: dict) -> list:
    """Aggregate per-sample reports into one JSON-ready entry per check.

    ``worst_ratio`` is the largest residual/tolerance over the reports with a
    finite residual and a positive tolerance, and ``worst_tau`` is where it
    sits. ``max_residual`` and ``tolerance`` are that same report's pair, so
    the margin they show is one sample's. A check without such a report (one
    that could not be evaluated) gives None for all four.
    """
    out = []
    for name, reports in reports_by_name.items():
        rated = [
            r for r in reports if math.isfinite(r.residual) and r.tolerance > 0
        ]
        worst = max(rated, key=lambda r: r.residual / r.tolerance, default=None)
        consts = [
            r.empirical_constant
            for r in reports
            if r.empirical_constant is not None
        ]
        out.append(
            {
                "name": name,
                "description": CHECKS[name].description if name in CHECKS else "",
                "samples": len(reports),
                "max_residual": worst.residual if worst else None,
                "tolerance": worst.tolerance if worst else None,
                "worst_ratio": worst.residual / worst.tolerance if worst else None,
                "worst_tau": float(worst.tau) if worst else None,
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
