import itertools
import json

import numpy as np

from nsverify import dynamics, harness
from nsverify.harness import (
    CriterionResult,
    criterion_spectral_infrastructure,
    parse_scenario_text,
    run_scenario,
    run_suite,
)

from conftest import SMALL_SCENARIO


def test_spectral_infrastructure_criterion_passes():
    result = criterion_spectral_infrastructure(count=4, n=16)
    assert result.passed, result.detail
    assert "nyquist=" in result.detail


def test_suite_verdict_accepts_numpy_bool(monkeypatch, tmp_path):
    def criterion():
        return CriterionResult("numpy-verdict", np.bool_(True), "ok")

    monkeypatch.setitem(harness.SUITES, "probe", (criterion,))
    code, _ = run_suite("probe", out_dir=tmp_path, verbose=False)
    verdict = json.loads((tmp_path / "verdict_probe.json").read_text())
    assert code == 0
    assert verdict["pass"] is True
    assert verdict["criteria"][0]["passed"] is True


def test_energy_increase_maps_to_exit_3(monkeypatch):
    energies = itertools.count(1.0)
    monkeypatch.setattr(dynamics, "l2_norm_sq", lambda u: next(energies))
    result = run_scenario(parse_scenario_text(SMALL_SCENARIO))
    assert result.exit_code == 3
    assert "energy increased" in result.message
