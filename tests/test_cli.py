import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nsverify
from nsverify.cli import main
from nsverify.cutoffs import weight_tables
from nsverify.snapshot_io import write_snapshot
from nsverify.spectral import transform_inverse

from conftest import SMALL_SCENARIO, random_solenoidal
from test_io import write_header_only


def run_cli(tmp_path, text, *flags):
    config = tmp_path / "small.cfg"
    config.write_text(text)
    return main(["run", str(config), "--out-dir", str(tmp_path / "out"), *flags])


def test_passing_run_exits_0(tmp_path):
    assert run_cli(tmp_path, SMALL_SCENARIO) == 0
    assert (tmp_path / "out" / "report_small.json").is_file()


def test_check_failure_exits_1(tmp_path, capsys):
    # a negative control: the heat flow at delta = 1 transfers no energy
    # between modes, but the ledger's gradient and curvature balances count
    # the transfer of its field, so they fail (worst ratios 2.14 and 2.77);
    # the energy balance has no such term and passes (0.058)
    text = (SMALL_SCENARIO.replace(
        "checks = lemma2.1", "checks = lemma2.1, lemma2.2-grad, lemma2.2-lap")
        + "delta = 1.0\nnonlinear = false\n")
    assert run_cli(tmp_path, text) == 1
    assert capsys.readouterr().out.endswith("failed: lemma2.2-grad, lemma2.2-lap\n")


@pytest.mark.parametrize(
    "text, flags",
    [
        (SMALL_SCENARIO + "colour = blue\n", ()),
        (SMALL_SCENARIO + "n = 32\n", ()),
        (SMALL_SCENARIO.replace("schema_version = 1\n", ""), ()),
        (SMALL_SCENARIO.replace("dtau = 0.02", "dtau = 0"), ()),
        (SMALL_SCENARIO.replace("dtau = 0.02", "dtau = nan"), ()),
        (SMALL_SCENARIO + "seed = -3\n", ()),
        (SMALL_SCENARIO, ("--seed", "-1")),
        (SMALL_SCENARIO.replace("tau_max = 0.2", "tau_max = inf"), ()),
        (SMALL_SCENARIO.replace("tau_max = 0.2", "tau_max = nan"), ()),
        (SMALL_SCENARIO + "tau_min = inf\n", ()),
        (SMALL_SCENARIO + "tolerance_scale = 2\n", ()),
        (SMALL_SCENARIO + "resolution_policy = error\n", ()),
        (SMALL_SCENARIO.replace("checks = lemma2.1", "checks ="), ()),
        (SMALL_SCENARIO.replace("checks = lemma2.1", "checks = ,"), ()),
        (SMALL_SCENARIO.replace("checks = lemma2.1", "checks = lemma2.1, lemma2.1"), ()),
    ],
    ids=["unknown-key", "duplicate-key", "missing-schema-version", "zero-dtau",
         "nan-dtau", "negative-seed", "negative-seed-flag", "inf-tau-max",
         "nan-tau-max", "inf-tau-min", "tolerance-scale", "resolution-policy",
         "no-checks", "empty-check-names", "repeated-check"],
)
def test_invalid_config_exits_2(tmp_path, capsys, text, flags):
    assert run_cli(tmp_path, text, *flags) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_window_too_short_for_the_fits_exits_2(tmp_path):
    # tau in [0, 0.2] holds no sample at tau >= 1, where the fits start
    text = SMALL_SCENARIO.replace("checks = lemma2.1", "checks = all")
    assert run_cli(tmp_path, text) == 2


def test_missing_initial_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.nsvf"
    assert run_cli(tmp_path, SMALL_SCENARIO + f"initial_file = {missing}\n") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_initial_file_on_another_grid_exits_2(tmp_path, capsys, grid32):
    path = tmp_path / "init.nsvf"
    write_snapshot(path, transform_inverse(random_solenoidal(grid32, 0)), t=0.0)
    assert run_cli(tmp_path, SMALL_SCENARIO + f"initial_file = {path}\n") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "does not match the scenario grid" in err


def test_initial_file_with_a_truncated_payload_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.nsvf"
    write_header_only(path, n=16384)
    assert run_cli(tmp_path, SMALL_SCENARIO + f"initial_file = {path}\n") == 2
    err = capsys.readouterr().err
    assert "truncated payload" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["run", "{config}"], ["suite", "ode"], ["profiles", "--alpha", "0.1"],
], ids=["run", "suite", "profiles"])
def test_unusable_out_dir_exits_2_before_any_work(tmp_path, capsys, argv):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_SCENARIO)
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = [a.format(config=config) for a in argv]
    assert main([*argv, "--out-dir", str(blocker / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing ran: no summary, no suite verdicts
    assert captured.err.startswith("error: cannot create") and captured.err.count("\n") == 1


def test_unresolvable_cutoff_exits_3(tmp_path):
    # 2/3 of the Nyquist radius is 8/3 at n=16, l_box=4*pi
    text = SMALL_SCENARIO.replace("xi_cutoff = 2.0", "xi_cutoff = 2.7")
    assert run_cli(tmp_path, text) == 3


def test_tail_guard_exits_3(tmp_path, capsys):
    # at delta = 5 the spectral tail passes the guard's fixed 1e-8 by the
    # first sample after tau = 0
    assert run_cli(tmp_path, SMALL_SCENARIO + "delta = 5.0\n") == 3
    err = capsys.readouterr().err
    assert err.startswith("resolution guard: spectral tail fraction")
    assert "at tau = 0.0200" in err and err.count("\n") == 1


@pytest.mark.parametrize("workers", ["abc", "0"])
@pytest.mark.parametrize("argv", [["run", "{config}"], ["suite", "ode"]],
                         ids=["run", "suite"])
def test_bad_fft_workers_exit_2_before_any_work(tmp_path, workers, argv):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_SCENARIO)
    out = tmp_path / "out"
    argv = [a.format(config=config) for a in argv]
    env = {**os.environ, "NSVERIFY_FFT_WORKERS": workers,
           "PYTHONPATH": str(Path(nsverify.__path__[0]).parent)}
    proc = subprocess.run(
        [sys.executable, "-m", "nsverify.cli", *argv, "--out-dir", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"config error: NSVERIFY_FFT_WORKERS must be a positive integer, "
        f"got {workers!r}\n")
    assert not out.exists()


def test_profiles_match_eval(tmp_path):
    assert main(["profiles", "--alpha", "0.1", "--out-dir", str(tmp_path)]) == 0
    files = {
        "phi.csv": "phi",
        "one_minus_phi.csv": "one_minus_phi",
        "tilde.csv": "tilde",
        "chi_alpha0.1.csv": "chi",
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    for name, kind in files.items():
        table = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
        psi_sq = weight_tables(table[:, 0], 0.1)[kind][0]
        assert np.array_equal(table[:, 1], np.sqrt(psi_sq))


# sha256 of the tables at alpha = 0.1: a change of any profile formula, of the
# radii or of the number format shows here
PROFILE_SHA256 = {
    "phi.csv": "a03e0b542b2e9946218e2c41f17f470235a9581b7065bf88a1a6f95f6a620c45",
    "one_minus_phi.csv": "8caacd3dc6df2980c0283ff69b7bc7f1bf66e9336770a21468a5309fae7b5cd9",
    "tilde.csv": "c419eae41e50a6de60ac9208d42a20815dda31acd2fb759ddc66b335135a3570",
    "chi_alpha0.1.csv": "bc20a737cf143daab61bd137ecb52d1a3580c0557af55510ad19c5f2e47d8c3e",
}


def test_profiles_are_byte_stable(tmp_path):
    assert main(["profiles", "--alpha", "0.1", "--out-dir", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == PROFILE_SHA256


def test_profiles_reject_alpha_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["profiles", "--alpha", "0.5", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: alpha must lie in") and err.count("\n") == 1
    assert not out.exists()
