"""nsverify benchmark: one workload, measured in fresh worker processes.

Run from the repository root::

    python3 bench/run.py --workload verify-n32 --seed 0 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics: the median set-up time of
several fresh processes, then the workload's passes in one more process.
``--trace 1`` measures the per-layer metrics: one untraced and one traced
pass (their ``run_s`` difference is the tracing overhead) and the kernel
micro-timings. Every pass's outputs are checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A fuller record (environment, raw pass data, which check
failed) goes to ``bench/results/<workload>-seed<seed>-trace<t>.json``.

The program is taken from ``src/`` of the same checkout. Exit codes: 0 a
result was printed, 1 a worker failed, 2 the checkout holds no program.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from gauge import scale
from stats import median, nearest_rank, tail_rank

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Each workload is one fresh process per measurement, run one after another.
WORKLOADS = {
    # the full paper window tau in [0, 5]: the only one where every check,
    # the tail budget of eq3.13-3.14 included, is meaningful
    "verify-n32": {
        "kind": "verify", "n": 32, "l_box_pi": 8, "xi_cutoff": 2.3,
        "tau_max": 5.0, "dtau": 0.02, "checks": "all",
    },
    # harness.criterion_weak_form: integrator and weak_residual, no ledger
    "weakform": {"kind": "weakform"},
}

SETUP_PROBES = 7
KERNEL_SIZES = {"sizes": [32, 64, 128], "reps": {"32": 5, "64": 3, "128": 1}}
# One FFT thread: on two cores it is as fast as two at n = 32 and n = 64 and
# its run-to-run spread is smaller; BLAS is pinned to one thread likewise.
WORKER_ENV = {
    "NSVERIFY_FFT_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
TIME_LIMIT_S = 170.0

# reference values are compared with this relative tolerance
REFERENCE_RTOL = {"worst_check_ratio": 1e-6, "E0_final": 1e-10, "E2_final": 1e-10,
                  "energy_final": 1e-10}
CONSTANT_RTOL = 1e-6


class WorkerError(RuntimeError):
    pass


def _worker_cmd(*args) -> list:
    return [sys.executable, str(BENCH / "worker.py"), *map(str, args)]


def _worker_env() -> dict:
    env = dict(os.environ, **WORKER_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise WorkerError("time limit reached")
    return left


def run_worker(deadline: float, *args) -> dict:
    """Run one worker to completion; return its last output line as JSON."""
    try:
        proc = subprocess.run(
            _worker_cmd(*args), cwd=ROOT, env=_worker_env(), capture_output=True,
            text=True, timeout=_remaining(deadline),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args[0]} timed out") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_setup(deadline: float, spec: dict, seed: int) -> float:
    """Seconds from starting a worker to its ``ready`` line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        _worker_cmd("setup", json.dumps(spec), seed), cwd=ROOT, env=_worker_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=_remaining(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"setup worker exited {proc.returncode}:\n{err}")
    return elapsed


def _mean(values) -> float:
    return sum(values) / len(values)


def _run_factor(passes: list) -> float:
    """Scale to the reference host speed by the median gauge time of a run;
    the median, so that a tick cut into by another process does not count."""
    return scale(median([t for p in passes for t in p["gauge_s"]]))


def end_to_end(setups: list, run: dict) -> tuple[dict, dict]:
    """End-to-end metrics, and the same timings in plain wall-clock terms.

    Every timing is scaled to the reference host speed by the gauge times
    taken over the whole run (see gauge.py), set-up probes included: a
    probe is too short to gauge on its own. ``run_s`` is the mean over
    passes, ``samples_per_s`` counts the snapshot intervals of all
    passes against their total time, and the interval median and tail are
    taken over the intervals of all passes; the tail at the highest
    percentile that leaves at least ten intervals of one pass beyond it.
    """
    passes = run["passes"]
    gaps = [g for p in passes for g in p["gaps_ms"]]
    # the tail percentile is set by one pass, so that it does not change
    # with the number of passes that fit; all passes' intervals fill it
    pct = tail_rank(min(len(p["gaps_ms"]) for p in passes))
    tail, beyond = nearest_rank(gaps, pct)
    wall = {
        "run_s": _mean([p["run_s"] for p in passes]),
        "samples_per_s": len(gaps) / (sum(gaps) / 1e3),
        "sample_ms_p50": median(gaps),
        "sample_ms_tail": tail,
    }
    factor = _run_factor(passes)
    metrics = {
        "setup_s": median(setups) * factor,
        "run_s": wall["run_s"] * factor,
        "samples_per_s": wall["samples_per_s"] / factor,
        "sample_ms_p50": wall["sample_ms_p50"] * factor,
        "sample_ms_tail": wall["sample_ms_tail"] * factor,
        "peak_rss_mb": run["peak_rss_mb"],
        "worst_check_ratio": max(p["values"]["worst_check_ratio"] for p in passes),
    }
    wall.update(setup_s=median(setups), scale=factor,
                tail_percentile=pct, intervals=len(gaps), beyond_tail=beyond)
    return metrics, wall


def _close(a: float, b: float, rtol: float) -> bool:
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def reference_mismatches(workload: str, seed: int, values: dict) -> list | None:
    """Differences from the committed reference; None when the seed has none."""
    with open(BENCH / "reference.json") as fh:
        ref = json.load(fh).get(workload, {}).get(str(seed))
    if ref is None:
        return None
    out = []
    for key in sorted(set(ref) | set(values)):
        if key not in ref or key not in values:
            out.append(f"{key}: reference {ref.get(key)} vs measured {values.get(key)}")
            continue
        rtol = REFERENCE_RTOL.get(key, CONSTANT_RTOL)
        if not _close(ref[key], values[key], rtol):
            out.append(f"{key}: reference {ref[key]!r} vs measured {values[key]!r}")
    return out


def correctness(workload: str, seed: int, runs: list) -> dict:
    """Checks passed, invariants held, every pass agreed, reference matched."""
    passes = [p for run in runs for p in run["passes"]]
    problems = [f"check failed: {name}" for p in passes for name in p["failed"]]
    problems += [f"check error: {k}: {v}" for p in passes for k, v in p["errors"].items()]
    problems += [msg for p in passes for msg in p["problems"]]
    values = passes[0]["values"]
    if any(p["values"] != values for p in passes[1:]):
        problems.append("passes of one run disagree on their outputs")
    mismatches = reference_mismatches(workload, seed, values)
    problems += [f"reference: {m}" for m in mismatches or []]
    return {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["failed"]) for p in passes),
        "problems": problems,
        "reference": "absent" if mismatches is None else "compared",
        "values": values,
    }


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        else:
            sha = ref
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "worker_cpu": max(os.sched_getaffinity(0)),  # see worker.pin_to_one_cpu
        **WORKER_ENV,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "machine": platform.machine(),
    }


def measure(name: str, spec: dict, seed: int, seconds: int, trace: bool) -> dict:
    """Run one benchmark invocation; returns the full result record."""
    deadline = time.monotonic() + TIME_LIMIT_S
    spec = dict(spec, name=name)
    out_dir = BENCH / "out" / name
    spec_json = json.dumps(spec)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "spec": spec, "environment": environment()}
    if not trace:
        # probes before and after the passes, so that one slow spell of the
        # machine does not set the median
        before = SETUP_PROBES // 2 + 1
        setups = [probe_setup(deadline, spec, seed) for _ in range(before)]
        run = run_worker(deadline, "pass", spec_json, seed, seconds, 0, out_dir)
        setups += [probe_setup(deadline, spec, seed)
                   for _ in range(SETUP_PROBES - before)]
        metrics, wall = end_to_end(setups, run)
        record.update(setup_probes_s=setups, wall_clock=wall)
        runs = [run]
    else:
        # one pass each (a budget of 0 s), so that counts are exact per run
        plain = run_worker(deadline, "pass", spec_json, seed, 0, 0, out_dir)
        traced = run_worker(deadline, "pass", spec_json, seed, 0, 1, out_dir)
        kern = run_worker(deadline, "kernels", json.dumps(KERNEL_SIZES))
        # each scaled like the end-to-end run_s, by its own run's gauge
        plain_run_s, traced_run_s = (
            _mean([p["run_s"] for p in r["passes"]]) * _run_factor(r["passes"])
            for r in (plain, traced)
        )
        metrics = dict(traced["layers"], **kern)
        metrics["trace.run_s"] = traced_run_s
        metrics["trace.overhead_s"] = traced_run_s - plain_run_s
        runs = [plain, traced]
    record["runs"] = runs
    record["metrics"] = metrics
    record.update(correctness(name, seed, runs))
    return record


def load_metric_units(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nsverify" / "__init__.py").is_file():
        print(f"no nsverify sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = load_metric_units(bool(args.trace))
    try:
        record = measure(args.workload, WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if set(record["metrics"]) != set(units):
        print("measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(record['metrics']) ^ set(units))}", file=sys.stderr)
        return 1
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=float)
        fh.write("\n")
    for problem in record["problems"]:
        print(f"incorrect: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
