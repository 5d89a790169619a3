import pytest

from nsverify.errors import NoRootError
from nsverify.ode_compare import ComparisonParams, h_minus, run_trapping_draws


@pytest.mark.parametrize(
    "B, C, delta, expected",
    [(1.0, 1.0, 0.09, 0.1), (1.0, 1.0, 0.0, 0.0), (2.0, 1.0, 0.75, 0.5)],
)
def test_h_minus_worked_values(B, C, delta, expected):
    assert h_minus(ComparisonParams(B, C, delta)) == pytest.approx(expected, abs=1e-12)


def test_h_minus_negative_discriminant():
    # B^2 = 1 < 4 C delta = 1.2
    with pytest.raises(NoRootError):
        h_minus(ComparisonParams(1.0, 1.0, 0.3))


@pytest.mark.parametrize(
    "kwargs",
    [dict(B=0.0, C=1.0, delta=0.1), dict(B=-1.0, C=1.0, delta=0.1),
     dict(B=1.0, C=1.0, delta=0.1, h0=-0.01)],
    ids=["B-zero", "B-negative", "h0-negative"],
)
def test_params_rejected(kwargs):
    with pytest.raises(NoRootError):
        ComparisonParams(**kwargs)


def test_trapping_draws_reproducible_and_trapped():
    first = run_trapping_draws(50, seed=1, horizon=50.0, dt=0.02)
    assert first == run_trapping_draws(50, seed=1, horizon=50.0, dt=0.02)
    assert first["draws"] == 50
    assert first["all_trapped"] and first["trapped"] == 50
    assert first["worst_margin"] > 0.0
