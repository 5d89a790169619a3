import numpy as np
import pytest

from nsverify.ledger import check_inequality

# Record values of ``small_series`` (n=32, l_box=8*pi, seed 0, delta 0.05,
# alpha 0.1, tau in [0, 1] at 0.02) at tau = 0.2, 0.6 and 1.0, as computed
# with full-cube coefficient storage and einsum contractions of the cubic
# terms. The half-spectrum ledger must reproduce them to rounding.
GOLDEN_TAUS = (0.2, 0.6, 1.0)
GOLDEN = {
    "E0": (0.0010314831282543457, 0.00041186989124011592, 0.00028373367965673707),
    "E2": (0.0051364433416718151, 0.00050708647164238489, 0.00010728044865510924),
    "T_grad": (2.2544494199424391e-09, 1.8349239472410639e-10, 2.944549986469375e-11),
    "T_lap": (8.688667952266116e-09, 4.4984213998012475e-10, 4.6811107356620164e-11),
    "T_split_ll": (
        1.3079214889952564e-09, 2.960383497667532e-11, -8.4556205447950932e-15
    ),
    "T_split_lh": (
        1.8721294884870138e-10, 1.9417452310467528e-12, 1.1822094169358365e-15
    ),
    "T_split_hl": (
        9.3783595135350374e-10, 2.9974980015172203e-12, 2.1834933700689284e-15
    ),
    "T_split_hh": (
        5.6874795040190091e-11, 3.7344321550786318e-13, 3.0297171068344073e-17
    ),
    "flux_chi": (
        -0.00064742093628295655, -9.0997913027831694e-05, 4.0715044774050582e-05
    ),
    "cum_E1": (0.00081447622005248336, 0.0011873776246710125, 0.0012848623714572468),
}

EQUALITY_CHECKS = (
    "lemma2.1", "lemma2.2-grad", "lemma2.2-lap", "eq3.7-identity", "eq3.21-chi"
)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_record_values(small_series, name):
    column = small_series.column(name)
    scale = np.abs(column).max()
    for tau, expected in zip(GOLDEN_TAUS, GOLDEN[name]):
        i = int(np.argmin(np.abs(small_series.taus - tau)))
        assert abs(small_series.taus[i] - tau) < 1e-12
        assert abs(column[i] - expected) <= 1e-10 * scale


@pytest.mark.parametrize("name", EQUALITY_CHECKS)
def test_equality_checks_pass(small_series, name):
    reports = check_inequality(name, small_series)
    assert len(reports) == len(small_series) - 2
    assert all(rep.passed for rep in reports)
