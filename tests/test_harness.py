import dataclasses
import itertools
import json
import math
import warnings
import weakref

import numpy as np

from nsverify import dynamics, harness, ledger
from nsverify.snapshot_io import write_snapshot
from nsverify.spectral import RealVectorField, SpectralVectorField, build_grid
from nsverify.harness import (
    CriterionResult,
    criterion_decomposition,
    criterion_ode_trapping,
    criterion_sign_claims,
    criterion_spectral_infrastructure,
    criterion_taylor_green,
    parse_scenario_text,
    run_scenario,
    run_suite,
)

from conftest import SMALL_SCENARIO


def test_spectral_infrastructure_criterion_passes():
    result = criterion_spectral_infrastructure(count=4, n=16)
    assert result.passed, result.detail
    assert "truncation=" in result.detail


def detail_values(detail):
    """The ``name=value`` numbers of a criterion's detail string."""
    return {k: float(v) for k, v in (part.split("=") for part in detail.split(", "))}


def test_scaling_symmetry_reports_what_the_dilation_drops(monkeypatch):
    # a shear u_y(x) on kx = 1, plus a mode on kx = 4 at 1e-10 of it, below
    # rescale_data's activity threshold and beyond K/2 = 2 at n = 16; the
    # shear's advection is a gradient, so the run is heat flow and the
    # kx = 4 mode is relatively weakest in the data, where it reads exactly
    def sheared(spec, grid):
        coeffs = np.zeros((3,) + grid.xi_sq.shape, dtype=complex)
        for k, amplitude in ((1, 0.05 / math.sqrt(2.0)), (4, 0.05e-10 / math.sqrt(2.0))):
            coeffs[1, k, 0, 0] = coeffs[1, -k, 0, 0] = amplitude
        return SpectralVectorField(grid, coeffs)

    monkeypatch.setattr(harness, "generate", sheared)
    result = harness.criterion_scaling_symmetry(n=16)
    assert result.passed, result.detail
    values = detail_values(result.detail)
    assert values["relative field discrepancy"] <= 1e-12
    assert values["dropped as inactive"] == 1.00e-10


def test_decomposition_criterion_passes():
    # on the table the excess is exactly 0 where phi is flat, so its sign is
    # held strictly at the middle of the transition
    result = criterion_decomposition()
    assert result.passed, result.detail
    values = detail_values(result.detail)
    assert values["energy-split"] <= 1e-10
    assert values["worst high-vs-band excess"] <= 0.0
    assert values["excess at radius 1.5"] < 0.0


def test_sign_claims_criterion_passes():
    result = criterion_sign_claims(count=2)
    assert result.passed, result.detail
    values = detail_values(result.detail)
    assert values["max phi kernel"] <= 0.0 and values["phi kernel at radius 1.5"] < 0.0
    assert values["min 1mphi kernel"] >= 0.0 and values["1mphi kernel at radius 1.5"] > 0.0
    assert values["max flux_chi"] < 0.0
    assert values["max shell integrand"] <= 0.0


def test_taylor_green_criterion_passes():
    result = criterion_taylor_green(n=16)
    assert result.passed, result.detail
    error = float(result.detail.removeprefix("max relative error "))
    assert error <= 1e-13


# criterion_weak_form(5)'s ten residuals as float.hex: the planar vortex
# against test fields 100..104, then the random run against 200..204
WEAK_FORM_RESIDUALS = [
    "0x1.96eb2af16f68ap-25", "-0x1.8f686800f456ap-24", "-0x1.cac9fac6f080dp-24",
    "0x1.81af9b39d1a6ep-23", "0x1.150f64af45472p-23",
    "0x1.706c9decae1efp-27", "0x1.bd31889e3e08ap-25", "0x1.e09131bbace4ep-27",
    "0x1.c7310132262a4p-28", "0x1.a7fb5248a0692p-26",
]


def test_weak_form_criterion_holds_one_run_at_a_time(monkeypatch):
    # each run's one weak-form pass and five residuals follow it, and its
    # snapshots are freed before the next run starts; the wrappers hold weak
    # references only. At each pass every sample's frame is there, but the
    # only live fields are those inside some test field's support. Stepping
    # at its cap, the integrator takes 100 + 87 steps of four tendencies each
    simulate, tendency = harness.simulate, dynamics._nonlinear_tendency
    weak_integrands, weak_residual = harness.weak_integrands, harness.weak_residual
    runs, order, residuals, tendencies = [], [], [], []

    def counted_tendency(*args):
        tendencies.append(1)
        return tendency(*args)

    def watched_simulate(u0, cfg):
        alive = [sum(ref() is not None for ref in run) for run in runs]
        order.append(("run", cfg.l_box, alive))
        refs = []
        runs.append(refs)
        for snap in simulate(u0, cfg):
            refs.append(weakref.ref(snap.u_hat.coeffs))
            yield snap

    def watched_weak_integrands(snaps, testfields):
        in_support = sum(
            any(tf.envelope(s.frame.t) != 0.0 or tf.envelope_rate(s.frame.t) != 0.0
                for tf in testfields)
            for s in snaps)
        live = sum(ref() is not None for ref in runs[-1])
        order.append(("pass", testfields[0].spatial.grid.l_box, len(testfields),
                      len(snaps), in_support, live))
        return weak_integrands(snaps, testfields)

    def watched_weak_residual(integrand):
        value = weak_residual(integrand)
        order.append("residual")
        residuals.append(value.hex())
        return value

    monkeypatch.setattr(harness, "simulate", watched_simulate)
    monkeypatch.setattr(harness, "weak_integrands", watched_weak_integrands)
    monkeypatch.setattr(harness, "weak_residual", watched_weak_residual)
    monkeypatch.setattr(dynamics, "_nonlinear_tendency", counted_tendency)
    result = harness.criterion_weak_form(5)
    vortex, small = 2.0 * math.pi, 8.0 * math.pi
    assert order == ([("run", vortex, []), ("pass", vortex, 5, 101, 68, 68)]
                     + ["residual"] * 5
                     + [("run", small, [0]), ("pass", small, 5, 101, 71, 71)]
                     + ["residual"] * 5)
    assert [len(run) for run in runs] == [101, 101]
    assert residuals == WEAK_FORM_RESIDUALS
    assert len(tendencies) == 748
    assert result.passed
    assert result.detail == "worst normalized residual 1.80e-07"


def test_ode_trapping_criterion_passes():
    result = criterion_ode_trapping(n_draws=20)
    assert result.passed, result.detail
    assert result.detail.startswith("20/20 trapped, ")
    assert result.detail.endswith("worked values ok: True")


def test_suite_verdict_accepts_numpy_bool(monkeypatch, tmp_path, capsys):
    def criterion():
        return CriterionResult("numpy-verdict", np.bool_(True), "ok")

    monkeypatch.setitem(harness.SUITES, "probe", (criterion,))
    code, results = run_suite("probe", out_dir=tmp_path)
    assert capsys.readouterr().out == results[0].summary_line() + "\n"
    verdict = json.loads((tmp_path / "verdict_probe.json").read_text())
    assert code == 0
    assert verdict["pass"] is True
    assert verdict["criteria"][0]["passed"] is True


def test_energy_increase_maps_to_exit_3(monkeypatch):
    # a sample's energy is the sum of shell_sum(mode_energy(c)); doubling
    # the density at every sample makes it grow
    factors = (2.0**k for k in itertools.count())
    mode_energy = dynamics.mode_energy
    monkeypatch.setattr(dynamics, "mode_energy",
                        lambda coeffs: next(factors) * mode_energy(coeffs))
    result = run_scenario(parse_scenario_text(SMALL_SCENARIO))
    assert result.exit_code == 3
    assert "energy increased" in result.message


def test_fitted_rates_are_the_decay_checks_fits():
    text = (SMALL_SCENARIO.replace("tau_max = 0.2", "tau_max = 2.0")
            .replace("checks = lemma2.1", "checks = all"))
    result = run_scenario(parse_scenario_text(text))
    constants = {s["name"]: s["empirical_constant"] for s in result.summaries}
    assert result.fitted_rates["weighted_low_band_energy"] == constants["prop3.2-decay"]
    assert result.fitted_rates["curvature_energy"] == constants["lemma4.3"]
    assert len(result.summaries) == 11
    assert all(s["description"] for s in result.summaries)


def test_decay_suite_floor_is_each_series_alpha(long_series, monkeypatch):
    # long_series with its weighted energy scaled by exp((rate - 0.11) tau),
    # which moves its fitted decay rate to 0.11: with alpha 0.1 it passes,
    # with alpha 0.12 it fails
    rate = ledger.decay_rate(long_series, ledger.weighted_low_band_energy(long_series))
    records = [
        dataclasses.replace(rec, E0_low_chi=f * rec.E0_low_chi, E0_tilde=f * rec.E0_tilde)
        for rec, f in zip(long_series.records, np.exp((rate - 0.11) * long_series.taus))
    ]
    ctx = long_series.ctx
    by_seed = {
        seed: ledger.RecordSeries(
            records, ledger.LedgerContext(ctx.grid, alpha, ctx.delta),
            long_series.max_sup_grad_w_low)
        for seed, alpha in ((0, 0.1), (1, 0.12))
    }
    monkeypatch.setattr(harness, "cached_series", lambda cfg: by_seed[cfg.seed])
    result = harness.criterion_decay_suite(seeds=(0,))
    assert result.passed, result.detail
    assert "weighted-energy 0.110 (floor 0.1)" in result.detail
    assert not harness.criterion_decay_suite(seeds=(0, 1)).passed


def test_raising_check_is_named_once(monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    row = dataclasses.replace(ledger.CHECKS["lemma2.1"], evaluate=boom)
    monkeypatch.setitem(ledger.CHECKS, "lemma2.1", row)
    result = run_scenario(parse_scenario_text(SMALL_SCENARIO))
    assert result.exit_code == 1
    assert result.message == "failed: lemma2.1: boom"


def test_zero_initial_field_writes_a_valid_report(tmp_path):
    # the decay fits fail on the zero trajectory, and so does the run; its
    # report stays strict JSON, without a 0/0 ratio or a warning
    cfg = parse_scenario_text(SMALL_SCENARIO)
    grid = build_grid(cfg.n, cfg.l_box)
    path = tmp_path / "zero.nsvf"
    write_snapshot(path, RealVectorField(grid, np.zeros((3,) + (grid.n,) * 3)), t=0.0)
    text = (SMALL_SCENARIO.replace("tau_max = 0.2", "tau_max = 2.0")
            .replace("checks = lemma2.1", "checks = all")
            + f"initial_file = {path}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_scenario(parse_scenario_text(text), out_dir=tmp_path)
    assert [w.message for w in caught] == []
    assert result.exit_code == 1
    assert "sup_ratio_final_over_initial" not in result.fitted_rates

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    report = (tmp_path / f"report_{result.scenario}.json").read_text()
    assert json.loads(report, parse_constant=refuse)["fitted_rates"] == {}
