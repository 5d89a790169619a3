"""One benchmark measurement in a fresh interpreter.

Started by ``run.py`` with the repository's ``src`` on ``PYTHONPATH``::

    python3 bench/worker.py setup   '<workload spec json>' <seed>
    python3 bench/worker.py pass    '<workload spec json>' <seed> <seconds> <trace> <out_dir>
    python3 bench/worker.py kernels '<sizes json>'

``setup`` prints ``ready`` once the workload's inputs exist (the parent
times the process from its start to that line). The other modes print one
JSON object as the last line of standard output.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from gauge import Gauge
from spans import NullTracer, Tracer, instrument, layer_metrics

# criterion_weak_form's pass/fail bound on the normalized residual
WEAK_BOUND = 1e-4


def scenario(spec: dict, seed: int):
    from nsverify import harness, ledger

    checks = ledger.CHECK_NAMES if spec["checks"] == "all" else spec["checks"]
    return harness.default_run_config(
        seed,
        n=spec["n"],
        l_box=spec["l_box_pi"] * math.pi,
        xi_cutoff=spec["xi_cutoff"],
        tau_max=spec["tau_max"],
        dtau=spec["dtau"],
        checks=tuple(checks),
    )


def setup(spec: dict, seed: int) -> None:
    """Imports, grid, initial field and ledger context of one workload."""
    from nsverify import fields, ledger, spectral

    if spec["kind"] == "verify":
        cfg = scenario(spec, seed)
        grid = spectral.build_grid(cfg.n, cfg.l_box)
        fields.generate(cfg.field_spec(), grid)
        ledger.LedgerContext(grid, cfg.alpha, cfg.delta)
        return
    # the two grids and initial fields criterion_weak_form builds
    grid = spectral.build_grid(32, 2.0 * math.pi)
    fields.generate(fields.FieldSpec("taylor_green", l2_norm_target=1.0), grid)
    grid = spectral.build_grid(32, 8.0 * math.pi)
    fields.generate(
        fields.FieldSpec("random_solenoidal", seed=seed, l2_norm_target=0.05,
                         xi_cutoff=2.3),
        grid,
    )


def _worst_ratio(reports) -> float:
    ratios = [
        r.residual / r.tolerance
        for r in reports
        if math.isfinite(r.residual) and r.tolerance > 0
    ]
    return max(ratios) if ratios else -math.inf


def _stamper(gauge: Gauge):
    """A snapshot consumer that stamps each snapshot, then ticks the gauge.

    Returns it with the list of ``(arrival, resume)`` stamps it fills; the
    time between one resume and the next arrival leaves the gauge out."""
    stamps = []

    def consume(snap=None):
        arrival = time.perf_counter()
        gauge.tick()
        stamps.append((arrival, time.perf_counter()))

    return consume, stamps


def _gaps_ms(stamps) -> list:
    return [(arrival - resume) * 1e3
            for (_, resume), (arrival, _) in zip(stamps, stamps[1:])]


def verify_pass(spec: dict, seed: int, out_dir: Path, tracer, gauge: Gauge) -> dict:
    """Pipeline, every enabled check, and the CSV/JSON artifacts."""
    from nsverify import harness, ledger

    cfg = scenario(spec, seed)
    ticks, spent_s = len(gauge.times), gauge.spent_s
    consume, stamps = _stamper(gauge)
    # run_pipeline builds its grid, field and ledger context before the first
    # snapshot; the clock starts at that snapshot, so set-up stays in setup_s
    series = harness.run_pipeline(cfg, consumers=[consume])
    start = stamps[0][0]
    reports, errors = {}, {}
    with tracer.span("ledger.checks"):
        for name in cfg.checks:
            try:
                reports[name] = ledger.check_inequality(name, series)
            except Exception as exc:  # an unevaluable check counts as failed
                errors[name] = f"{type(exc).__name__}: {exc}"
    csv_path = out_dir / "energy.csv"
    json_path = out_dir / "report.json"
    with tracer.span("ledger.write"):
        ledger.write_records_csv(series, csv_path)
        ledger.write_check_report(json_path, spec["name"], reports, {})
    run_s = time.perf_counter() - start - (gauge.spent_s - spent_s)

    summaries = ledger.summarize_reports(reports)
    failed = sorted(errors) + [s["name"] for s in summaries if not s["pass"]]
    values = {
        "worst_check_ratio": max(_worst_ratio(r) for r in reports.values())
        if reports else math.inf,
        "E0_final": series.records[-1].E0,
        "E2_final": series.records[-1].E2,
    }
    for s in summaries:
        if s["empirical_constant"] is not None:
            values["constant." + s["name"]] = s["empirical_constant"]

    problems = []
    if len(series) != len(cfg.sample_taus()):
        problems.append(f"{len(series)} records for {len(cfg.sample_taus())} taus")
    # tau = 0 is s = 1, where E0 is the squared norm the data was scaled to
    e0 = series.records[0].E0
    if cfg.tau_min == 0.0 and abs(e0 - cfg.delta**2) > 1e-12 * cfg.delta**2:
        problems.append(f"E0(tau=0) = {e0!r}, expected delta^2 = {cfg.delta**2!r}")
    for name in ledger.RECORD_FIELDS:
        if not np.all(np.isfinite(series.column(name))):
            problems.append(f"non-finite record column {name}")
    with open(csv_path) as fh:
        rows = sum(1 for _ in fh)
    if rows != len(series) + 1:
        problems.append(f"CSV holds {rows} lines for {len(series)} records")
    with open(json_path) as fh:
        written = {c["name"]: c["pass"] for c in json.load(fh)["checks"]}
    if written != {s["name"]: s["pass"] for s in summaries}:
        problems.append("written check report disagrees with the evaluated checks")

    return {
        "run_s": run_s,
        "samples": len(series),
        "gaps_ms": _gaps_ms(stamps),
        "gauge_s": gauge.times[ticks:],
        "attempted": len(cfg.checks),
        "failed": failed,
        "errors": errors,
        "values": values,
        "problems": problems,
    }


def weakform_pass(spec: dict, seed: int, out_dir: Path, tracer, gauge: Gauge) -> dict:
    """``criterion_weak_form``, with its snapshots stamped and its
    residuals observed at the harness's own bindings."""
    from nsverify import harness

    simulate, weak_residual = harness.simulate, harness.weak_residual
    trajectories, energies, residuals = [], [], []
    ticks, spent_s = len(gauge.times), gauge.spent_s

    def stamped_simulate(*args, **kwargs):
        consume, stamps = _stamper(gauge)
        trajectories.append(stamps)
        consume()
        for snap in simulate(*args, **kwargs):
            consume()
            yield snap
        energies.append(snap.energy)

    def observed_weak_residual(*args, **kwargs):
        value = weak_residual(*args, **kwargs)
        residuals.append(value)
        return value

    harness.simulate = stamped_simulate
    harness.weak_residual = observed_weak_residual
    try:
        start = time.perf_counter()
        result = harness.criterion_weak_form(seed)
        run_s = time.perf_counter() - start - (gauge.spent_s - spent_s)
    finally:
        harness.simulate, harness.weak_residual = simulate, weak_residual

    worst = max(abs(r) for r in residuals)
    failed = [f"residual {i}" for i, r in enumerate(residuals) if abs(r) > WEAK_BOUND]
    problems = []
    if result.passed != (not failed):
        problems.append(f"criterion verdict {result.passed} but {len(failed)} "
                        f"residuals above {WEAK_BOUND}")
    # sample timings from the last trajectory, the random small-data run
    # sampled at dtau = 0.02 like the verify workloads; the planar-vortex
    # run before it mixes one- and two-step sample intervals half and half
    stamps = trajectories[-1]
    # every residual and the random run's final energy, so that the outputs
    # of the seeded run are compared, not only the planar-vortex worst case
    values = {"worst_check_ratio": worst / WEAK_BOUND, "energy_final": energies[-1]}
    values.update((f"residual.{i}", r) for i, r in enumerate(residuals))
    return {
        "run_s": run_s,
        "samples": sum(len(t) - 1 for t in trajectories),
        "gaps_ms": _gaps_ms(stamps[1:]),
        "gauge_s": gauge.times[ticks:],
        "attempted": len(residuals),
        "failed": failed,
        "errors": {},
        "values": values,
        "problems": problems,
    }


PASSES = {"verify": verify_pass, "weakform": weakform_pass}


def run_passes(spec: dict, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Repeat the workload's pass while another one is expected to fit in
    ``seconds``; always at least one."""
    tracer = Tracer() if trace else NullTracer()
    gauge = Gauge()
    if trace:
        instrument(tracer)
    out_dir.mkdir(parents=True, exist_ok=True)
    passes = []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        passes.append(PASSES[spec["kind"]](spec, seed, out_dir, tracer, gauge))
        last = time.perf_counter() - begin
        if time.perf_counter() - start + last > seconds:
            break
    return {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layer_metrics(tracer) if trace else None,
    }


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_nbytes(v) for v in obj.values())
    for attr in ("coeffs", "samples", "u_hat"):
        if hasattr(obj, attr):
            return _nbytes(getattr(obj, attr))
    return 0


def kernels(sizes, reps: dict) -> dict:
    """Median milliseconds over ``reps[n]`` calls of each public kernel, and
    the array bytes into and out of one call, at each grid size ``n``.

    Building the inputs transforms at that size, so the FFT plans are warm;
    the first call of each kernel is timed too (at n=128 it is the only one,
    a step or ledger sample there takes seconds)."""
    from nsverify import cutoffs, dynamics, fields, ledger, spectral

    out = {}
    for n in sizes:
        grid = spectral.build_grid(n, n * math.pi / 4.0)  # dxi = 8/n
        u0 = fields.generate(
            fields.FieldSpec("random_solenoidal", seed=0, l2_norm_target=0.05,
                             xi_cutoff=2.3),
            grid,
        )
        cfg = dynamics.TrajectoryConfig(
            n=n, l_box=grid.l_box, sample_taus=[0.0, 0.02], delta=0.05, alpha=0.1
        )
        snap = next(dynamics.simulate(u0, cfg))
        samples = spectral.spec_to_phys(u0.coeffs, grid)
        builder = ledger.RecordsBuilder(ledger.LedgerContext(grid, 0.1, 0.05))
        calls = {
            "forward": (spectral.phys_to_spec, (samples, grid), {}),
            "inverse": (spectral.spec_to_phys, (u0.coeffs, grid), {}),
            "leray": (spectral.leray_project, (u0,), {}),
            "tendency": (dynamics.nse_rhs, (u0,), {"form": "rotational"}),
            "step": (dynamics.step, (dynamics.SimState(0.0, u0), 0.01, cfg), {}),
            "weight_tables": (cutoffs.weight_tables, (grid.xi_mag, 0.1), {}),
            "feed": (builder.feed, (snap,), {}),
        }
        for name, (fn, args, kwargs) in calls.items():
            times = []
            for _ in range(reps[n]):
                begin = time.perf_counter()
                result = fn(*args, **kwargs)
                times.append(time.perf_counter() - begin)
                nbytes = sum(_nbytes(a) for a in args) + _nbytes(result)
                del result
            out[f"kernel.{name}.n{n}_ms"] = float(np.median(times)) * 1e3
            out[f"kernel.{name}.n{n}_bytes"] = nbytes
        del calls, builder, snap, samples, u0  # free before the next size
    return out


def pin_to_one_cpu() -> None:
    """Keep the process on the last CPU it may use, so that it does not
    migrate between cores; it runs one FFT thread and one BLAS thread."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv) -> int:
    pin_to_one_cpu()
    mode = argv[1]
    if mode == "setup":
        setup(json.loads(argv[2]), int(argv[3]))
        print("ready", flush=True)
        return 0
    if mode == "pass":
        spec, seed = json.loads(argv[2]), int(argv[3])
        result = run_passes(spec, seed, float(argv[4]), argv[5] == "1", Path(argv[6]))
    elif mode == "kernels":
        sizes = json.loads(argv[2])
        result = kernels(sizes["sizes"], {int(k): v for k, v in sizes["reps"].items()})
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
