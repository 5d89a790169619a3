"""Scenario configuration, pipeline execution, and acceptance criteria.

A scenario is a flat ``key = value`` text file (versioned schema) describing
one simulation plus the set of checks to evaluate on it. Suites group the
acceptance criteria into named batches and share simulated runs through an
in-process cache so repeated criteria do not re-integrate.

A scenario names the checks to run, at least one and each once, but not how
strict they are: the tolerances are the ledger's, and a spectral tail above
``dynamics.TAIL_LIMIT`` always ends the run with exit code 3.

Exit-code contract: 0 all enabled checks pass, 1 check failure, 2 invalid
configuration, 3 resolution guard trip.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field as dc_field, fields as dc_fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import ledger as lg
from .cutoffs import balance_shell_integrand, dilation_flux, weight_tables
from .dynamics import (
    TrajectoryConfig,
    initial_from_snapshot,
    make_test_field,
    rescale_data,
    simulate,
    weak_integrands,
    weak_residual,
)
from .errors import ConfigurationError, FitError, ResolutionError
from .fields import FieldSpec, generate
from .ledger import LedgerContext, RecordsBuilder, RecordSeries
from .ode_compare import ComparisonParams, h_minus, run_trapping_draws
from .similarity import t_of_tau
from .spectral import (
    RealVectorField,
    SpectralVectorField,
    build_grid,
    l2_inner,
    l2_norm,
    l2_norm_sq,
    leray_project,
    phys_to_spec,
    spec_to_phys,
    transform_forward,
    transform_inverse,
)

SCHEMA_VERSION = 1


@dataclass
class ScenarioConfig:
    schema_version: int = SCHEMA_VERSION
    n: int = 64
    l_box: float = 16.0 * math.pi
    t_horizon: float = 1.0
    dt_max: float = 0.02
    cfl: float = 0.4
    tau_min: float = 0.0
    tau_max: float = 5.0
    dtau: float = 0.02
    alpha: float = 0.1
    delta: float = 0.05
    family: str = "random_solenoidal"
    seed: int = 0
    spectrum_slope: float = 1.0
    xi_cutoff: float = 2.4
    nonlinear: bool = True
    checks: tuple = lg.CHECK_NAMES
    initial_file: str = ""

    def sample_taus(self) -> np.ndarray:
        count = int(round((self.tau_max - self.tau_min) / self.dtau))
        if count < 1:
            raise ConfigurationError("tau window shorter than one sample step")
        return self.tau_min + self.dtau * np.arange(count + 1)

    def trajectory_config(self) -> TrajectoryConfig:
        return TrajectoryConfig(
            n=self.n,
            l_box=self.l_box,
            t_horizon=self.t_horizon,
            dt_max=self.dt_max,
            cfl=self.cfl,
            sample_taus=self.sample_taus(),
            delta=self.delta,
            alpha=self.alpha,
            nonlinear=self.nonlinear,
        )

    def field_spec(self) -> FieldSpec:
        return FieldSpec(
            self.family,
            seed=self.seed,
            spectrum_slope=self.spectrum_slope,
            l2_norm_target=self.delta,
            xi_cutoff=self.xi_cutoff,
        )

    def validate(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported schema_version {self.schema_version}"
            )
        build_grid(self.n, self.l_box)
        if not (math.isfinite(self.dtau) and self.dtau > 0):
            raise ConfigurationError(
                f"dtau must be positive and finite, got {self.dtau}"
            )
        for name in ("tau_min", "tau_max"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite, got {getattr(self, name)}"
                )
        self.trajectory_config()
        self.field_spec()
        if not self.checks or len(set(self.checks)) < len(self.checks):
            raise ConfigurationError(
                f"checks must name at least one check, each once: {self.checks}")
        unknown = set(self.checks) - set(lg.CHECKS)
        if unknown:
            raise ConfigurationError(f"unknown checks: {sorted(unknown)}")
        fitted = [name for name in lg.FITTED_CHECKS if name in self.checks]
        late = int(np.count_nonzero(self.sample_taus() >= lg.FIT_START))
        if fitted and late < 2:
            raise ConfigurationError(
                f"{', '.join(fitted)} need two samples at tau >= {lg.FIT_START}; "
                f"tau_max = {self.tau_max} gives {late}"
            )

    def cache_key(self) -> tuple:
        """Every field but ``checks``, which only the checks read."""
        return tuple(getattr(self, f.name) for f in dc_fields(self)
                     if f.name != "checks")


_BOOL = {"true": True, "false": False, "1": True, "0": False}


def _parse_checks(text: str) -> tuple:
    if text.strip() == "all":
        return lg.CHECK_NAMES
    return tuple(x.strip() for x in text.split(",") if x.strip())


# one parser per field, read off its annotation: int, float and str parse
# themselves; a bool and the check list have their own
_SCHEMA_PARSERS = {
    name: {bool: lambda s: _BOOL[s.lower()], tuple: _parse_checks}.get(kind, kind)
    for name, kind in get_type_hints(ScenarioConfig).items()
}


def parse_scenario_text(text: str) -> ScenarioConfig:
    """Parse the flat ``key = value`` scenario format (strict keys)."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA_PARSERS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _SCHEMA_PARSERS[key](val.strip())
        except ConfigurationError:
            raise
        except Exception as exc:
            raise ConfigurationError(f"line {lineno}: bad value for {key}: {exc}")
    if "schema_version" not in values:
        raise ConfigurationError("missing required key schema_version")
    cfg = ScenarioConfig(**values)
    cfg.validate()
    return cfg


def load_scenario(path) -> ScenarioConfig:
    return parse_scenario_text(Path(path).read_text())


# -- pipeline ------------------------------------------------------------------

_SERIES_CACHE: dict = {}


def run_pipeline(cfg: ScenarioConfig, consumers=()) -> RecordSeries:
    """Simulate the scenario and stream snapshots into the record builder."""
    grid = build_grid(cfg.n, cfg.l_box)
    if cfg.initial_file:
        u0, _ = initial_from_snapshot(cfg.initial_file)
        if u0.grid != grid:
            raise ConfigurationError(
                f"initial file grid (n={u0.grid.n}, l_box={u0.grid.l_box:.6g}) "
                f"does not match the scenario grid"
            )
    else:
        u0 = generate(cfg.field_spec(), grid)
    ctx = LedgerContext(grid, cfg.alpha, cfg.delta)
    builder = RecordsBuilder(ctx)
    for snap in simulate(u0, cfg.trajectory_config()):
        builder.feed(snap)
        for consumer in consumers:
            consumer(snap)
    return builder.finish()


def cached_series(cfg: ScenarioConfig) -> RecordSeries:
    key = cfg.cache_key()
    if key not in _SERIES_CACHE:
        _SERIES_CACHE[key] = run_pipeline(cfg)
    return _SERIES_CACHE[key]


def default_run_config(seed: int = 0, **overrides) -> ScenarioConfig:
    cfg = replace(ScenarioConfig(), seed=seed, **overrides)
    cfg.validate()
    return cfg


@dataclass
class ScenarioResult:
    exit_code: int
    scenario: str
    summaries: list = dc_field(default_factory=list)
    fitted_rates: dict = dc_field(default_factory=dict)
    artifacts: list = dc_field(default_factory=list)
    message: str = ""


def run_scenario(
    cfg: ScenarioConfig, out_dir=None, scenario_name: str = "scenario"
) -> ScenarioResult:
    """Full pipeline for one scenario: run, check, and write the artifacts
    into ``out_dir``, an existing directory, unless it is None."""
    try:
        cfg.validate()
    except ConfigurationError as exc:
        return ScenarioResult(2, scenario_name, message=f"invalid config: {exc}")
    try:
        series = run_pipeline(cfg)
    except ResolutionError as exc:
        return ScenarioResult(3, scenario_name, message=f"resolution guard: {exc}")
    except (ConfigurationError, OSError) as exc:  # e.g. a bad initial_file
        return ScenarioResult(2, scenario_name, message=f"config error: {exc}")

    reports_by_name = {}
    failures = []
    for name in cfg.checks:
        try:
            reports = lg.check_inequality(name, series)
        except Exception as exc:  # its stand-in report fails; name it once
            failures.append(f"{name}: {exc}")
            reports = [lg.InequalityReport(math.nan, math.inf, 0.0)]
        else:
            if not all(r.passed for r in reports):
                failures.append(name)
        reports_by_name[name] = reports

    fitted = {}
    if series.taus[-1] > 1.5:
        try:  # the fits of prop3.2-decay and lemma4.3
            fitted["weighted_low_band_energy"] = lg.decay_rate(
                series, lg.weighted_low_band_energy(series)
            )
            fitted["curvature_energy"] = lg.decay_rate(series, series.column("E2"))
        except FitError:
            pass
    sup = series.column("sup_norm_w")
    if sup[0] > 0.0:  # the zero field has no ratio
        fitted["sup_ratio_final_over_initial"] = float(sup[-1] / sup[0])

    summaries = lg.summarize_reports(reports_by_name)
    artifacts = []
    if out_dir is not None:
        out = Path(out_dir)
        csv_path = out / f"energy_{scenario_name}.csv"
        lg.write_records_csv(series, csv_path)
        json_path = out / f"report_{scenario_name}.json"
        lg.write_check_report(json_path, scenario_name, reports_by_name, fitted)
        txt_path = out / f"summary_{scenario_name}.txt"
        with open(txt_path, "w") as fh:
            fh.write(format_summary_table(scenario_name, summaries))
        artifacts = [str(csv_path), str(json_path), str(txt_path)]

    code = 0 if not failures else 1
    msg = "" if not failures else "failed: " + ", ".join(failures)
    return ScenarioResult(code, scenario_name, summaries, fitted, artifacts, msg)


def format_summary_table(scenario: str, summaries: list) -> str:
    """One row per check: the residual, tolerance and their ratio at the
    check's worst sample, with that sample's tau."""
    lines = [f"scenario: {scenario}"]
    header = (
        f"{'check':<16} {'samples':>7} {'residual':>11} {'tolerance':>10} "
        f"{'ratio':>10} {'at tau':>7} {'pass':>5}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for s in summaries:
        if s["worst_ratio"] is None:
            worst = f"{'-':>11} {'-':>10} {'-':>10} {'-':>7}"
        else:
            worst = (
                f"{s['max_residual']:>11.3e} {s['tolerance']:>10.3e} "
                f"{s['worst_ratio']:>10.3e} {s['worst_tau']:>7.3f}"
            )
        lines.append(f"{s['name']:<16} {s['samples']:>7d} {worst} {str(s['pass']):>5}")
    return "\n".join(lines) + "\n"


# -- acceptance criteria ---------------------------------------------------------


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0

    def __post_init__(self):
        self.passed = bool(self.passed)  # criteria may compute numpy bools

    def summary_line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.name}: {self.detail} ({self.elapsed:.1f}s)"


def _timed(fn):
    def wrapper(*args, **kwargs) -> CriterionResult:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        result.elapsed = time.perf_counter() - start
        return result

    return wrapper


def _random_real_field(grid, rng) -> RealVectorField:
    return RealVectorField(grid, rng.standard_normal((3, grid.n, grid.n, grid.n)))


@_timed
def criterion_spectral_infrastructure(
    count: int = 100, n: int = 32, seed: int = 2024
) -> CriterionResult:
    """Transform round trip, Parseval sum, and projector algebra on random data.

    Round trip and Parseval run on band-limited data, the range of the
    transforms. The forward transform of raw noise is its 2/3 truncation, a
    projection: a further round trip must leave it unchanged.
    """
    grid = build_grid(n, 2.0 * math.pi)
    rng = np.random.default_rng(seed)
    worst = {"roundtrip": 0.0, "parseval": 0.0, "truncation": 0.0,
             "idempotent": 0.0, "adjoint": 0.0}
    for _ in range(count):
        noise = _random_real_field(grid, rng)
        w = transform_forward(noise)
        again = phys_to_spec(spec_to_phys(w.coeffs, grid), grid)
        worst["truncation"] = max(
            worst["truncation"],
            np.abs(again - w.coeffs).max() / np.abs(w.coeffs).max(),
        )
        f = transform_inverse(w)  # the band-limited part of the noise
        back = transform_inverse(transform_forward(f))
        ref = np.abs(f.samples).max()
        worst["roundtrip"] = max(
            worst["roundtrip"], np.abs(back.samples - f.samples).max() / ref
        )
        phys = (f.samples**2).sum() * grid.cell_volume
        spec = l2_norm_sq(w)
        worst["parseval"] = max(worst["parseval"], abs(phys - spec) / spec)
        p1 = leray_project(w)
        p2 = leray_project(p1)
        scale = np.abs(p1.coeffs).max()
        worst["idempotent"] = max(
            worst["idempotent"], np.abs(p2.coeffs - p1.coeffs).max() / scale
        )
        g = transform_forward(_random_real_field(grid, rng))
        asym = abs(l2_inner(p1, g) - l2_inner(w, leray_project(g)))
        worst["adjoint"] = max(
            worst["adjoint"], asym / (l2_norm(w) * l2_norm(g))
        )
    passed = all(v <= 1e-12 for v in worst.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    return CriterionResult("spectral-infrastructure", passed, detail)


def _fact_radii() -> np.ndarray:
    """Radii at which the per-shell cutoff facts are checked: dense on
    [0, 3] and the lattice shells of n=32, l_box=8 pi. The last radius is the
    middle of the step's transition, where each fact must hold strictly."""
    shells = build_grid(32, 8.0 * math.pi).shell_radii
    return np.concatenate([np.linspace(0.0, 3.0, 3001), shells, [1.5]])


@_timed
def criterion_decomposition() -> CriterionResult:
    """Energy split exactness and the high-block derivative domination, per
    shell on the profile table: ``phi^2 + tilde^2 = 1``, and ``(1-phi)^2 <=
    tilde^2``, so that every Fourier-weighted norm of the high block is at
    most the band's."""
    w = weight_tables(_fact_radii(), 0.1)
    split = np.abs(w["phi"][0] + w["tilde"][0] - 1.0)
    excess = w["one_minus_phi"][0] - w["tilde"][0]
    passed = split.max() <= 1e-10 and excess.max() <= 0.0 and excess[-1] < 0.0
    detail = (
        f"energy-split={split.max():.2e}, worst high-vs-band excess="
        f"{excess.max():.2e}, excess at radius 1.5={excess[-1]:.2e}"
    )
    return CriterionResult("decomposition-exactness", passed, detail)


@_timed
def criterion_sign_claims(
    alphas=(0.02, 0.06, 0.1), count: int = 20, seed: int = 11
) -> CriterionResult:
    """Dilation-flux signs and pointwise shell nonpositivity of the weighted
    balance integrands. The phi and 1-phi fluxes have the sign of their
    kernels ``r d(psi^2)/dr``, checked on the profile table; the chi flux
    changes sign with the radius, so it is checked on random solenoidal
    fields."""
    grid = build_grid(32, 8.0 * math.pi)
    radii = grid.shell_radii
    w = weight_tables(_fact_radii(), alphas[0])  # these two kernels ignore alpha
    phi_kern, onemphi_kern = w["phi"][1], w["one_minus_phi"][1]
    fields = [
        generate(FieldSpec("random_solenoidal", seed=seed + k, xi_cutoff=2.3), grid)
        for k in range(count)
    ]
    worst = {"flux_chi": -math.inf, "shell": -math.inf}
    for alpha in alphas:
        # the low block r <= 1 and the transition band 1 <= r <= 2
        for shells in (radii[radii <= 1.0], radii[(radii >= 1.0) & (radii <= 2.0)]):
            if shells.size:
                worst["shell"] = max(
                    worst["shell"], float(np.max(balance_shell_integrand(shells, alpha)))
                )
        for fld in fields:
            worst["flux_chi"] = max(
                worst["flux_chi"], dilation_flux(fld, "chi", alpha) / l2_norm_sq(fld)
            )
    passed = (
        phi_kern.max() <= 0.0
        and phi_kern[-1] < 0.0
        and onemphi_kern.min() >= 0.0
        and onemphi_kern[-1] > 0.0
        and worst["flux_chi"] <= 1e-12
        and worst["shell"] <= 1e-14
    )
    detail = (
        f"max phi kernel={phi_kern.max():.2e}, phi kernel at radius 1.5={phi_kern[-1]:.2e}, "
        f"min 1mphi kernel={onemphi_kern.min():.2e}, "
        f"1mphi kernel at radius 1.5={onemphi_kern[-1]:.2e}, "
        f"max flux_chi={worst['flux_chi']:.2e}, "
        f"max shell integrand={worst['shell']:.2e}"
    )
    return CriterionResult("sign-claims", passed, detail)


@_timed
def criterion_taylor_green(n: int = 32) -> CriterionResult:
    """Nonlinear solver reproduces the exact planar-vortex decay."""
    grid = build_grid(n, 2.0 * math.pi)
    u0 = generate(FieldSpec("taylor_green", l2_norm_target=1.0), grid)
    horizon = 2.0
    t_samples = np.linspace(0.0, 1.0, 21)
    taus = -np.log(horizon - t_samples)
    cfg = TrajectoryConfig(
        n=n, l_box=2.0 * math.pi, t_horizon=horizon, dt_max=0.01, cfl=0.4,
        sample_taus=taus, delta=1.0, alpha=0.1,
    )
    worst = 0.0
    for snap in simulate(u0, cfg):
        t = snap.frame.t
        exact = u0.coeffs * math.exp(-2.0 * t)
        err = np.abs(snap.u_hat.coeffs - exact).max() / np.abs(exact).max()
        worst = max(worst, err)
    passed = worst <= 1e-6
    return CriterionResult(
        "taylor-green-exact-decay", passed, f"max relative error {worst:.2e}"
    )


@_timed
def criterion_identity_suite(seeds=(0, 1, 2), tau_limit: float = 3.0) -> CriterionResult:
    """Every equality balance holds at every interior sample."""
    balances = [name for name, check in lg.CHECKS.items()
                if isinstance(check.evaluate, lg.Balance)]
    worst = 0.0
    all_pass = True
    for seed in seeds:
        series = cached_series(default_run_config(seed))
        for name in balances:
            for rep in lg.check_inequality(name, series):
                if rep.tau > tau_limit:
                    continue
                ratio = rep.residual / rep.tolerance if rep.tolerance else math.inf
                worst = max(worst, ratio)
                all_pass = all_pass and rep.passed
    return CriterionResult(
        "identity-suite", all_pass,
        f"worst residual/tolerance = {worst:.3f} over seeds {tuple(seeds)}",
    )


@_timed
def criterion_decay_suite(seeds=(0, 1, 2)) -> CriterionResult:
    """Fitted decay of the weighted low+band energy and of the curvature energy."""
    min_x_rate = math.inf
    min_e2_rate = math.inf
    for seed in seeds:
        series = cached_series(default_run_config(seed))
        rep_x = lg.check_inequality("prop3.2-decay", series)[0]
        rep_e2 = lg.check_inequality("lemma4.3", series)[0]
        min_x_rate = min(min_x_rate, rep_x.empirical_constant)
        min_e2_rate = min(min_e2_rate, rep_e2.empirical_constant)
    alpha = 0.1
    passed = min_x_rate >= alpha and min_e2_rate >= lg.LEMMA43_FLOOR
    return CriterionResult(
        "decay-suite", passed,
        f"min fitted rates: weighted-energy {min_x_rate:.3f} (floor {alpha}), "
        f"curvature {min_e2_rate:.3f} (floor {lg.LEMMA43_FLOOR})",
    )


@_timed
def criterion_blowup_ratio(seeds=(0, 1, 2)) -> CriterionResult:
    """Sup-norm ratio decreasing on the tail and collapsing by the end."""
    worst_final = 0.0
    monotone = True
    for seed in seeds:
        series = cached_series(default_run_config(seed))
        ratio = series.column("sup_norm_w")
        taus = series.taus
        tail = ratio[taus >= 1.0]
        monotone = monotone and bool(
            np.all(np.diff(tail) <= tail[:-1] * 1e-12)
        )
        worst_final = max(worst_final, float(ratio[-1] / ratio[0]))
    passed = monotone and worst_final < 0.1
    return CriterionResult(
        "blowup-rate-ratio", passed,
        f"tail monotone: {monotone}, worst final/initial = {worst_final:.3e}",
    )


@_timed
def criterion_scaling_symmetry(n: int = 64, seed: int = 3) -> CriterionResult:
    """Integer dilation covariance: lam^2 speedup of the dilated data."""
    l_box = 16.0 * math.pi
    grid = build_grid(n, l_box)
    delta = 0.05
    # first-generation triad products of the dilated data must stay inside
    # the dealiased band of both runs (per-axis k0 <= 4 at n = 64)
    u0 = generate(
        FieldSpec("random_solenoidal", seed=seed, l2_norm_target=delta,
                  xi_cutoff=0.6),
        grid,
    )
    t_a = 0.25
    cfg_a = TrajectoryConfig(
        n=n, l_box=l_box, t_horizon=1.0, dt_max=0.005, cfl=0.4,
        sample_taus=[-math.log(1.0 - t_a)], delta=delta, alpha=0.1,
    )
    snap_a = list(simulate(u0, cfg_a))[-1]
    ref = rescale_data(snap_a.u_hat, 2)

    v0 = rescale_data(u0, 2)
    cfg_b = TrajectoryConfig(
        n=n, l_box=l_box, t_horizon=1.0, dt_max=0.005, cfl=0.4,
        sample_taus=[-math.log(1.0 - t_a / 4.0)], delta=2.0 * delta, alpha=0.1,
    )
    snap_b = list(simulate(v0, cfg_b))[-1]
    diff = SpectralVectorField(grid, snap_b.u_hat.coeffs - ref.coeffs)
    err = math.sqrt(l2_norm_sq(diff) / l2_norm_sq(ref))
    # rescale_data(., 2) drops the inactive modes beyond K/2 on some axis;
    # the larger share of its two calls is reported
    far = 2 * np.abs(grid.wavenumbers) > grid.dealias_kmax
    far = far[:, None, None] | far[None, :, None] | far[: grid.dealias_kmax + 1]
    dropped = max(math.sqrt(l2_norm_sq(SpectralVectorField(grid, u.coeffs * far))
                            / l2_norm_sq(u)) for u in (u0, snap_a.u_hat))
    return CriterionResult("scaling-symmetry", err <= 1e-6,
                           f"relative field discrepancy={err:.2e}, "
                           f"dropped as inactive={dropped:.2e}")


def _worst_weak_residual(
    u0: SpectralVectorField, cfg: TrajectoryConfig, first_seed: int,
    window: tuple[float, float],
) -> float:
    """Worst |weak residual| of one run against five test fields, seeds
    ``first_seed .. first_seed + 4``, supported on ``window`` as fractions
    of the last sample time ``t_of_tau(cfg.sample_taus[-1], cfg.t_horizon)``
    (bitwise the last snapshot's). The fields are built before the run, so
    a snapshot where no field is
    :meth:`~nsverify.dynamics.TestField.active` keeps its frame and drops
    its field as it arrives. One :func:`weak_integrands` pass over every
    sample then serves the five fields, and :func:`weak_residual` runs once
    per field, in seed order. The run's snapshots go when this returns, so
    the criterion holds at most one run's in-support fields at a time."""
    t_last = t_of_tau(cfg.sample_taus[-1], cfg.t_horizon)
    lo, hi = window
    testfields = [make_test_field(u0.grid, first_seed + k, lo * t_last, hi * t_last)
                  for k in range(5)]
    snaps = [snap if any(tf.active(snap.frame.t) for tf in testfields)
             else replace(snap, u_hat=None) for snap in simulate(u0, cfg)]
    return max(abs(weak_residual(f)) for f in weak_integrands(snaps, testfields))


@_timed
def criterion_weak_form(seed: int = 5) -> CriterionResult:
    """Weak-form residual against five solenoidal test fields on two runs:
    the planar vortex, then random small data."""
    n = 32
    grid = build_grid(n, 2.0 * math.pi)
    u0 = generate(FieldSpec("taylor_green", l2_norm_target=1.0), grid)
    horizon = 2.0
    # the last sample is t = 1 exactly, so the window is t in (0.15, 0.85)
    taus = np.linspace(-math.log(horizon), -math.log(horizon - 1.0), 101)
    cfg = TrajectoryConfig(
        n=n, l_box=2.0 * math.pi, t_horizon=horizon, dt_max=0.01,
        sample_taus=taus, delta=1.0, alpha=0.1,
    )
    worst_tg = _worst_weak_residual(u0, cfg, 100, (0.15, 0.85))
    grid_r = build_grid(n, 8.0 * math.pi)
    u0_r = generate(
        FieldSpec("random_solenoidal", seed=seed, l2_norm_target=0.05,
                  xi_cutoff=2.3),
        grid_r,
    )
    taus_r = np.arange(0.0, 2.0 + 1e-9, 0.02)
    cfg_r = TrajectoryConfig(
        n=n, l_box=8.0 * math.pi, t_horizon=1.0, dt_max=0.01,
        sample_taus=taus_r, delta=0.05, alpha=0.1,
    )
    worst = max(worst_tg, _worst_weak_residual(u0_r, cfg_r, 200, (0.1, 0.9)))
    passed = worst <= 1e-4
    return CriterionResult(
        "weak-form-residual", passed, f"worst normalized residual {worst:.2e}"
    )


@_timed
def criterion_ode_trapping(n_draws: int = 1000, seed: int = 1) -> CriterionResult:
    """Randomized trapping sweep plus the three worked barrier values."""
    summary = run_trapping_draws(n_draws, seed=seed, horizon=50.0, dt=0.02)
    worked = (
        abs(h_minus(ComparisonParams(1.0, 1.0, 0.09)) - 0.1) <= 1e-12
        and abs(h_minus(ComparisonParams(1.0, 1.0, 0.0)) - 0.0) <= 1e-12
        and abs(h_minus(ComparisonParams(2.0, 1.0, 0.75)) - 0.5) <= 1e-12
    )
    passed = summary["all_trapped"] and worked
    return CriterionResult(
        "ode-trapping", passed,
        f"{summary['trapped']}/{summary['draws']} trapped, "
        f"worst margin {summary['worst_margin']:.2e}, worked values ok: {worked}",
    )


@_timed
def criterion_empirical_constant_stability(seeds=(0, 1, 2, 3, 4)) -> CriterionResult:
    """Fitted cubic constant of the weighted-energy inequality across seeds."""
    consts = []
    for seed in seeds:
        series = cached_series(default_run_config(seed))
        rep = lg.check_inequality("eq3.10", series)[0]
        consts.append(rep.empirical_constant)
    mean = statistics.fmean(consts)
    spread = max(abs(c - mean) for c in consts)
    rel = spread / abs(mean) if mean else math.inf
    passed = rel <= 0.2
    return CriterionResult(
        "empirical-constant-stability", passed,
        f"C_emp = {mean:.4g} +- {spread:.2g} ({rel:.1%} across {len(consts)} seeds)",
    )


def delta_sweep_report(deltas=(0.0125, 0.025, 0.05), seed: int = 0) -> dict:
    """Reported-only sweep of the high block's gradient against the data
    size (no asserted functional form). ``sup_grad_high`` is the largest
    L2 norm ``sqrt(E1_high)`` over tau, not a pointwise sup of the
    gradient."""
    rows = []
    for delta in deltas:
        cfg = default_run_config(
            seed, n=32, l_box=8.0 * math.pi, xi_cutoff=2.3, delta=delta,
            tau_max=2.0, dtau=0.05,
        )
        series = cached_series(cfg)
        rows.append(
            {
                "delta": delta,
                "sup_grad_high": float(np.sqrt(series.column("E1_high").max())),
            }
        )
    return {"delta_sweep": rows}


# -- suites ----------------------------------------------------------------------

SUITES = {
    "identities": (criterion_identity_suite,),
    "decay": (
        criterion_decay_suite,
        criterion_blowup_ratio,
        criterion_empirical_constant_stability,
    ),
    "ode": (criterion_ode_trapping,),
    "scaling": (criterion_scaling_symmetry,),
    "weakform": (criterion_weak_form,),
    "all": (
        criterion_spectral_infrastructure,
        criterion_decomposition,
        criterion_sign_claims,
        criterion_taylor_green,
        criterion_identity_suite,
        criterion_decay_suite,
        criterion_blowup_ratio,
        criterion_scaling_symmetry,
        criterion_weak_form,
        criterion_ode_trapping,
        criterion_empirical_constant_stability,
    ),
}


def run_suite(name: str, out_dir=None):
    """Run one named criteria group; returns (exit_code, results). The
    verdict goes into ``out_dir``, an existing directory, unless it is None."""
    if name not in SUITES:
        raise ConfigurationError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}"
        )
    results = []
    for criterion in SUITES[name]:
        result = criterion()
        results.append(result)
        print(result.summary_line())
    extras = {}
    if name == "decay":
        extras = delta_sweep_report()
    passed = all(r.passed for r in results)
    if out_dir is not None:
        import json

        out = Path(out_dir)
        payload = {
            "suite": name,
            "pass": passed,
            "criteria": [
                {"name": r.name, "passed": r.passed, "detail": r.detail,
                 "seconds": round(r.elapsed, 2)}
                for r in results
            ],
            **extras,
        }
        with open(out / f"verdict_{name}.json", "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return (0 if passed else 1), results
