import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nsverify import dynamics, ledger
from nsverify.cutoffs import weight_tables
from nsverify.errors import DomainError, FitError
from nsverify.harness import format_summary_table
from nsverify.ledger import (
    RECORD_FIELDS,
    InequalityReport,
    LedgerContext,
    RecordsBuilder,
    RecordSeries,
    _gradient_tensor,
    _shell_transfer,
    check_inequality,
    summarize_reports,
)
from nsverify.similarity import frame, t_of_tau
from nsverify.spectral import (
    SpectralVectorField, build_grid, mode_energy, shell_sum, spec_to_phys,
)

from conftest import convective_term, small_run

# Record values of ``small_series`` (n=32, l_box=8*pi, seed 0, delta 0.05,
# alpha 0.1, tau in [0, 1] at 0.02) at tau = 0.2, 0.6 and 1.0, for every
# record column. The shells at radii 0.25*sqrt(K), K = 6..15, cross the chi
# cap inside the window, so the cum_*_chi columns pin the crossing repair.
# The tail_fraction values lie up to 2.8e-18 from their dt_max = 0.0003125
# values (9.86630690562e-11, 3.91201472917e-11, 1.19487397514e-11): that is
# time-step error, and it moves with the step schedule.
GOLDEN_TAUS = (0.2, 0.6, 1.0)
GOLDEN = {
    "E0": (0.0010314831282543457, 0.00041186989124011592, 0.00028373367965673702),
    "E1": (0.0020568911490695891, 0.00039552805279057879, 0.00014951762038856178),
    "E2": (0.0051364433416718151, 0.00050708647164238489, 0.00010728044865510926),
    "E3": (0.014747235877795506, 0.00079189074439311731, 9.5995130658499352e-05),
    "E0_low": (0.00055007152556088091, 0.00038097942045172643, 0.0002829278398671695),
    "E0_tilde": (0.0004814116026934648, 3.0890470788389634e-05, 8.0583978956754701e-07),
    "E0_high": (0.00030794928246867488, 8.7292558724301831e-06, 5.8504152958466975e-08),
    "E0_low_chi": (
        0.00026657183419501429, 0.0001805524357109965, 0.00012440005917415311
    ),
    "E1_low": (0.00069196761164430967, 0.00033036390029176163, 0.00014816892935061153),
    "E1_low_chi": (
        0.00033796048053982803, 0.00016054668675782483, 7.0040865860190784e-05
    ),
    "E1_tilde": (0.0013649235374252791, 6.5164152498817165e-05, 1.3486910379502732e-06),
    "E1_high": (0.00097759437730359053, 2.066083952059225e-05, 1.0364558055694104e-07),
    "E2_high": (0.0032174847946419521, 4.9791782469476621e-05, 1.8445924757692567e-07),
    "T_grad": (2.2544494199424383e-09, 1.8349239472410611e-10, 2.9445499864693717e-11),
    "T_lap": (8.6886679522661226e-09, 4.4984213998012486e-10, 4.6811107356620164e-11),
    "T_low": (-9.966546180566814e-10, -6.3133266967634941e-11, -1.0786871163699082e-12),
    "T_chi": (-4.918823655844837e-10, -3.0645596300969055e-11, 2.0385084565812968e-12),
    "T_grad_high": (
        2.4898451842376542e-09, 3.4916521424747146e-11, -5.0596205867217661e-15
    ),
    "flux_phi": (
        -0.0013463534778063381, -0.00023751811454430201, -1.3744040614524479e-05
    ),
    "flux_chi": (
        -0.00064742093628295666, -9.099791302783168e-05, 4.0715044774050575e-05
    ),
    "flux_one_minus_phi": (
        0.0013413969008900612, 0.00010436484313105298, 1.5516776386306693e-06
    ),
    "flux_one_minus_phi_grad": (
        0.003404848995349481, 0.00023223294182152322, 2.6915964989314749e-06
    ),
    "sup_norm_w": (
        0.0005868859447364967, 0.00028314417620886161, 0.00018323816877340382
    ),
    "sup_w_low": (
        0.00044970690798170796, 0.00028139134533317496, 0.00018325048040543593
    ),
    "sup_grad_w_low": (
        0.00038262291996268741, 0.00019233778966039705, 9.5975629468998127e-05
    ),
    "l4_w_low": (0.0022049002770918413, 0.001579512591554851, 0.0011695018001346019),
    "tail_fraction": (
        9.8663066292228665e-11, 3.9120146917363271e-11, 1.1948739819446224e-11
    ),
    "cum_E0": (0.00032087522496988764, 0.00057325490774592989, 0.00070692149278069765),
    "cum_E1": (0.00081447622005248336, 0.0011873776246710125, 0.0012848623714572468),
    "cum_E2": (0.0025260672651953179, 0.0032635224680046529, 0.0033621564460937729),
    "cum_E3": (0.0088406873496064495, 0.010602269885959675, 0.010728197278331198),
    "cum_E0_low": (
        0.0001180050467051214, 0.00030296050072940652, 0.00043298928658950093
    ),
    "cum_E1_low": (
        0.00015890034055533091, 0.00035815221222233718, 0.00044840181513472585
    ),
    "cum_flux_phi": (
        -0.00036719194350077968, -0.00064105923971445209, -0.00067592567168786946
    ),
    "cum_E0_low_chi": (
        5.7341253440224521e-05, 0.00014626941150495143, 0.00020610574735100711
    ),
    "cum_E1_low_chi": (
        7.7646363414551255e-05, 0.00017482305635173659, 0.00021829660394775472
    ),
    "cum_flux_chi": (
        -0.00017745441137999435, -0.00030519396573448841, -0.00030694705417861403
    ),
}

# Values of ``long_series`` (as ``small_series``, tau in [0, 5]) at tau = 3, 4
# and 5 for the low-block norms and the transfer. From tau = 2.88 on,
# 1 - phi(s |xi|) is 0 on every shell that carries energy.
LONG_GOLDEN_TAUS = (3.0, 4.0, 5.0)
LONG_GOLDEN = {
    "sup_w_low": (
        4.649629027315994e-05, 2.7255273711597227e-05, 1.6326714646557703e-05
    ),
    "sup_grad_w_low": (
        7.82715786260899e-06, 2.7618745626924194e-06, 1.0006591830877186e-06
    ),
    "l4_w_low": (0.0006131958734478574, 0.0005232456025033934, 0.00045618123765428026),
    "T_low": (
        -5.6545549686242126e-27, -1.6155871338926322e-27, -4.0389678347315804e-28
    ),
    "T_chi": (2.341044768351929e-13, 5.5772926121272624e-14, 1.5379392925000926e-14),
    "T_grad_high": (0.0, 0.0, 0.0),
}

EQUALITY_CHECKS = (
    "lemma2.1", "lemma2.2-grad", "lemma2.2-lap", "eq3.7-identity", "eq3.21-chi"
)


def test_golden_covers_every_column():
    assert set(GOLDEN) == set(RECORD_FIELDS) - {"tau"}


def assert_golden(series, name, taus, values):
    column = series.column(name)
    scale = np.abs(column).max()
    for tau, expected in zip(taus, values):
        i = int(np.argmin(np.abs(series.taus - tau)))
        assert abs(series.taus[i] - tau) < 1e-12
        assert abs(column[i] - expected) <= 1e-10 * scale


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_record_values(small_series, name):
    assert_golden(small_series, name, GOLDEN_TAUS, GOLDEN[name])


@pytest.mark.parametrize("name", sorted(LONG_GOLDEN))
def test_long_golden_record_values(long_series, name):
    assert_golden(long_series, name, LONG_GOLDEN_TAUS, LONG_GOLDEN[name])


HIGH_COLUMNS = ("E0_high", "E1_high", "E2_high", "T_grad_high")


def test_splits_vanish_with_the_high_pass_weight(long_series):
    # the high side of the low/high split sums (1 - phi)^2 times shell
    # energies or transfers, so it is exactly 0 where the high-pass weight
    # vanishes on every energy shell: there the ledger takes the low-pass branch
    vanished = long_series.column("E0_high") == 0.0
    assert vanished.sum() > 100
    assert vanished[-1] and not vanished[0]
    for name in HIGH_COLUMNS:
        assert np.all(long_series.column(name)[vanished] == 0.0), name
    # before that the high-pass side is small but not zero
    for name in HIGH_COLUMNS:
        assert np.all(long_series.column(name)[~vanished] != 0.0), name


def curl_spectra(c, grid):
    """``1j xi x c``, the vorticity's band coefficients."""
    return np.stack([1j * (grid.xi[j] * c[k] - grid.xi[k] * c[j])
                     for j, k in ((1, 2), (2, 0), (0, 1))])


@pytest.mark.parametrize("nonlinear", [True, False])
def test_shell_transfer_is_the_convective_transfer(grid32, nonlinear):
    # the rotational form from u and omega equals the shell sums of
    # Re<F[(u.grad)u], u_hat> from the convective product
    _, snaps = small_run(grid32, seed=3, tau_max=0.3, nonlinear=nonlinear)
    for snap in snaps:
        c = snap.u_hat.coeffs
        vort = spec_to_phys(curl_spectra(c, grid32), grid32)
        got = _shell_transfer(spec_to_phys(c, grid32), vort, c, grid32)
        density = (convective_term(snap.u_hat).coeffs * np.conj(c)).real
        expected = shell_sum(density.sum(axis=0), grid32)
        scale = np.abs(expected).max()
        assert scale > 0
        assert np.abs(got - expected).max() <= 1e-13 * scale


@pytest.fixture(scope="module")
def early_run(grid32):
    """``small_run(grid32, seed=3, tau_max=0.3)``: 16 samples, every one with
    a nonzero high-pass side, and their snapshots."""
    return small_run(grid32, seed=3, tau_max=0.3)


# Every record column of ``early_run`` at every sample as ``float.hex``,
# recorded when every field was held on the 2/3 band, every full-lattice
# sum was a shell sum and the integrator stepped at its cap.
EARLY_RECORDS = json.loads(
    (Path(__file__).parent / "golden" / "early_run_records.json").read_text())


def test_early_run_records_are_bitwise_golden(early_run):
    series, _ = early_run
    assert set(EARLY_RECORDS) == set(RECORD_FIELDS)
    for name in RECORD_FIELDS:
        got = [float(v).hex() for v in series.column(name)]
        assert got == EARLY_RECORDS[name], name


THREAD_RUN_SCRIPT = """
import json, math, os, sys
# OpenBLAS runs no more threads than the process may use CPUs, so a run
# pinned to one CPU widens its own affinity before numpy loads
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, range(os.cpu_count()))
from conftest import small_run
from nsverify.ledger import RECORD_FIELDS
from nsverify.spectral import build_grid
grid = build_grid(int(sys.argv[1]), float(sys.argv[2]) * math.pi)
series, snaps = small_run(grid, seed=3, tau_max=0.3)
out = {name: [float(v).hex() for v in series.column(name)] for name in RECORD_FIELDS}
out["energy"] = [snap.energy.hex() for snap in snaps]
print(json.dumps(out))
"""


def thread_runs(n, l_box_pi):
    """``small_run(seed=3, tau_max=0.3)`` on ``build_grid(n, l_box_pi *
    pi)``: every record column and snapshot energy as ``float.hex``, from
    one interpreter with one BLAS and FFT thread and one with two. The
    thread counts are read at import, so each setting runs on its own."""
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", THREAD_RUN_SCRIPT, str(n), str(l_box_pi)],
            stdout=subprocess.PIPE, text=True, cwd=tests,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
                 "NSVERIFY_FFT_WORKERS": threads},
        )
        for threads in ("1", "2")
    ]
    outputs = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    return [json.loads(out) for out in outputs]


def test_early_run_records_do_not_depend_on_the_thread_count():
    one, two = thread_runs(32, 8.0)
    assert one == two
    del one["energy"]
    assert one == EARLY_RECORDS


def test_n64_records_do_not_depend_on_the_thread_count():
    # at n = 64 a BLAS dot product sums in an order set by its thread count;
    # shell_sum and numpy's own sum do not
    one, two = thread_runs(64, 16.0)
    assert len(one["energy"]) == 16
    assert one == two


def gradient_spectra(c, grid):
    """``1j xi_j c_k`` for all nine ``(j, k)``, row-major."""
    return np.stack([1j * grid.xi[j] * c[k]
                     for j, k in itertools.product(range(3), repeat=2)])


def strain_cubic(grads):
    """``sum_x sum_jkl d_j u_k d_j u_l d_l u_k`` from ``grads[j, k] = d_j u_k``,
    and the sum of its terms' magnitudes."""
    terms = [grads[j, k] * grads[j, l] * grads[l, k]
             for j, k, l in itertools.product(range(3), repeat=3)]
    return (sum(float(t.sum()) for t in terms),
            sum(float(np.abs(t).sum()) for t in terms))


def test_t_grad_is_the_strain_contraction(grid32, early_run):
    # s^3 sum_shells rho^2 t(rho) equals the collocation integral
    # int d_j u_k d_j u_l d_l u_k, because int (u.grad)u . lap u equals
    # minus that integral for a solenoidal u. The integral cancels: its
    # terms' magnitudes add up to 3e4 times the column max here, so the two
    # agree to the rounding of those terms (measured 6.5e-18 of them)
    series, snaps = early_run
    for snap, value in zip(snaps, series.column("T_grad")):
        c = snap.u_hat.coeffs
        grads = spec_to_phys(gradient_spectra(c, grid32), grid32).reshape(
            (3, 3) + (grid32.n,) * 3)
        factor = snap.frame.scale**3 * grid32.cell_volume
        expected, magnitude = strain_cubic(grads)
        assert abs(value - factor * expected) <= 1e-16 * factor * magnitude


def test_trace_closes_the_gradient_tensor(grid32, early_run):
    # the first eight slots are their own transforms; d_2 u_2 is -(d_0 u_0 +
    # d_1 u_1), which equals its transform up to rounding for solenoidal u
    _, snaps = early_run
    for snap in snaps[::5]:
        spectra = gradient_spectra(snap.u_hat.coeffs, grid32)
        full = spec_to_phys(spectra, grid32)
        closed = _gradient_tensor(snap.u_hat.coeffs, grid32).reshape(full.shape)
        assert np.array_equal(closed[:8], full[:8])
        assert np.abs(closed[8] - full[8]).max() <= 1e-14 * np.abs(full).max()


# Each shell-sum column restated from the paper: (density, j, profile, flux)
# for s**p * sum over modes of m(s|xi|) |xi|^(2j) density, with m the
# profile's psi^2 (1 without one) or, for a flux, its kernel r d(psi^2)/dr.
# The frame power follows from w = s u(s y): the energy of D^j w carries
# s**(2j - 1), and a transfer, cubic in w and paired with D^2j w, s**(2j + 1).
MODE_COLUMNS = {
    "E0": ("e", 0, None, False),
    "E1": ("e", 1, None, False),
    "E2": ("e", 2, None, False),
    "E3": ("e", 3, None, False),
    "E0_low": ("e", 0, "phi", False),
    "E0_tilde": ("e", 0, "tilde", False),
    "E0_high": ("e", 0, "one_minus_phi", False),
    "E0_low_chi": ("e", 0, "chi", False),
    "E1_low": ("e", 1, "phi", False),
    "E1_low_chi": ("e", 1, "chi", False),
    "E1_tilde": ("e", 1, "tilde", False),
    "E1_high": ("e", 1, "one_minus_phi", False),
    "E2_high": ("e", 2, "one_minus_phi", False),
    "T_grad": ("t", 1, None, False),
    "T_lap": ("t", 2, None, False),
    "T_low": ("t", 0, "phi", False),
    "T_chi": ("t", 0, "chi", False),
    "T_grad_high": ("t", 1, "one_minus_phi", False),
    "flux_phi": ("e", 0, "phi", True),
    "flux_chi": ("e", 0, "chi", True),
    "flux_one_minus_phi": ("e", 0, "one_minus_phi", True),
    "flux_one_minus_phi_grad": ("e", 1, "one_minus_phi", True),
}


def test_shell_columns_are_mode_sums(grid32, early_run):
    # mode by mode, against the ledger's shell sums; the energy density is
    # |u_hat|^2, the transfer density Re<F[(u.grad)u], u_hat> from the
    # convective product
    series, snaps = early_run
    snap, rec = snaps[-1], series.records[-1]
    g, s = grid32, snap.frame.scale
    assert s < 0.9
    c = snap.u_hat.coeffs
    density = {
        "e": mode_energy(c),
        "t": (convective_term(snap.u_hat).coeffs * np.conj(c)).real.sum(axis=0),
    }
    assert set(MODE_COLUMNS) == set(ledger._SHELL_TERMS)
    for name, (kind, j, profile, flux) in MODE_COLUMNS.items():
        if profile is None:
            m = 1.0
        else:
            sq, kern, _ = weight_tables(s * g.xi_mag, series.ctx.alpha)[profile]
            m = kern if flux else sq
        p = 2 * j - 1 if kind == "e" else 2 * j + 1
        terms = s**p * m * g.xi_sq**j * density[kind]
        expected = (g.multiplicity * terms).sum()
        magnitude = (g.multiplicity * np.abs(terms)).sum()
        assert magnitude > 0.0, name
        assert abs(getattr(rec, name) - expected) <= 1e-12 * magnitude, name


def test_norms_are_the_direct_norms(grid32, early_run):
    # sup_norm_w from F^-1[c], and the low-block norms from F^-1[phi c] and
    # its nine-transform gradient, formed directly at every sample
    series, snaps = early_run
    g = grid32
    columns = ("sup_norm_w", "sup_w_low", "l4_w_low", "sup_grad_w_low")
    direct = {name: [] for name in columns}
    for snap in snaps:
        s = snap.frame.scale
        c = snap.u_hat.coeffs
        phi = np.sqrt(weight_tables(s * g.xi_mag, series.ctx.alpha)["phi"][0])
        u = spec_to_phys(c, g)
        u_low = spec_to_phys(phi * c, g)
        lowgrads = spec_to_phys(gradient_spectra(phi * c, g), g)
        lowmag2 = (u_low**2).sum(axis=0)
        direct["sup_norm_w"].append(s * np.sqrt((u**2).sum(axis=0).max()))
        direct["sup_w_low"].append(s * np.sqrt(lowmag2.max()))
        direct["l4_w_low"].append((s * g.cell_volume * (lowmag2**2).sum()) ** 0.25)
        direct["sup_grad_w_low"].append(
            s**2 * np.sqrt((lowgrads**2).sum(axis=0).max()))
    for name in columns:
        expected = np.array(direct[name])
        assert np.all(expected > 0.0), name
        scale = expected.max()
        assert np.abs(series.column(name) - expected).max() <= 1e-13 * scale, name


def ledger_components(snap, grid, monkeypatch):
    """Inverse and forward components the ledger transforms for one sample,
    counted at its own binding of the inverse and at the forward binding
    that its transfer's product, :func:`dynamics.rotational_product`, calls."""
    counts = {"inverse": 0, "forward": 0}

    def counted(kind, fn):
        def wrapper(arr, *args, **kwargs):
            counts[kind] += int(np.prod(arr.shape[:-3]))
            return fn(arr, *args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(ledger, "spec_to_phys", counted("inverse", ledger.spec_to_phys))
        patch.setattr(dynamics, "phys_to_spec", counted("forward", dynamics.phys_to_spec))
        rec = RecordsBuilder(LedgerContext(grid, 0.1, 0.05)).feed(snap)
    return rec, counts


def test_ledger_reads_its_own_grid_only(grid32, early_run):
    # a snapshot of another grid is refused, of the same size or not
    snap = early_run[1][0]
    for other in (build_grid(32, 4.0 * math.pi), build_grid(16, grid32.l_box)):
        u_hat = SpectralVectorField(
            other, np.zeros((3,) + other.xi_sq.shape, dtype=complex))
        with pytest.raises(DomainError):
            RecordsBuilder(LedgerContext(grid32, 0.1, 0.05)).feed(
                replace(snap, u_hat=u_hat))


def high_and_low_pass(grid):
    """One snapshot twice: at tau = 0, where it has a high block, and in the
    tau = 5 frame, where s |xi| is inside the low block on every shell the
    field occupies."""
    _, snaps = small_run(grid, tau_max=0.0)
    high = snaps[0]  # small_series and long_series at tau = 0
    return high, replace(high, frame=frame(t_of_tau(5.0, 1.0), 1.0))


def test_ledger_transform_count(grid32, monkeypatch):
    # a high-pass sample transforms u_low (3), grad u_low (8) and the high
    # block's velocity and vorticity (6) back, and u x omega (3) forward; a
    # low-pass one only u and grad u back
    high, low = high_and_low_pass(grid32)
    rec, counts = ledger_components(high, grid32, monkeypatch)
    assert rec.E0_high > 0.0
    assert counts == {"inverse": 17, "forward": 3}
    rec, counts = ledger_components(low, grid32, monkeypatch)
    assert rec.E0_high == 0.0
    assert counts == {"inverse": 11, "forward": 3}


def test_ledger_sample_working_set(grid32):
    # the tracemalloc peak of one warmed sample, in n^3 float64 arrays: the
    # low block's gradient tensor is freed before the high block is
    # transformed, and the high block is added into the low block's samples
    # (19.5 and 18.6). Keeping the low block's tensor and squares alive to
    # the end of the sample reads 34.4 (high pass) and 25.7 (low pass)
    peaks = []
    for snap in high_and_low_pass(grid32):
        builder = RecordsBuilder(LedgerContext(grid32, 0.1, 0.05))
        builder.feed(snap)
        tracemalloc.start()
        try:
            builder.feed(snap)
            peaks.append(tracemalloc.get_traced_memory()[1] / (8 * grid32.n**3))
        finally:
            tracemalloc.stop()
    high, low = peaks
    assert high <= 22.0
    assert low <= 20.0


def test_both_branches_give_one_shell_transfer(grid32, monkeypatch):
    # the transfer does not depend on the frame: from the two blocks' sum on
    # the high-pass branch, and from u itself on the low-pass one
    snaps = high_and_low_pass(grid32)
    transfers = []

    def recorded(*args):
        transfers.append(_shell_transfer(*args))
        return transfers[-1]

    monkeypatch.setattr(ledger, "_shell_transfer", recorded)
    for snap in snaps:
        RecordsBuilder(LedgerContext(grid32, 0.1, 0.05)).feed(snap)
    high, low = transfers
    scale = np.abs(low).max()
    assert scale > 0.0
    assert np.abs(high - low).max() <= 1e-13 * scale


def test_fit_window_message_shows_plain_floats(small_series):
    with pytest.raises(FitError) as err:
        check_inequality("prop3.2-decay", small_series)
    assert "np.float64" not in str(err.value)
    assert "(1.0, 1.0" in str(err.value)


@pytest.mark.parametrize("name", EQUALITY_CHECKS)
def test_equality_checks_pass(small_series, name):
    reports = check_inequality(name, small_series)
    assert len(reports) == len(small_series) - 2
    assert all(rep.passed for rep in reports)


# The fitted and budget checks on ``long_series``. eq3.10 and lemma4.2 set
# their constant to the largest value the window needs, so they pass by
# construction; their constants are pinned instead, as recorded when every
# sample still ended a step.
FITTED_CONSTANTS = {"eq3.10": -1.762651931265836, "lemma4.2": -0.02542311181847877}
# One record column scaled at one tau, which each remaining check must catch.
CORRUPTIONS = {
    "prop3.2-decay": ("E0_low_chi", 4.0, 1e15),  # flattens the fitted decay
    "lemma4.3": ("E2", 4.0, 1e30),
    "eq3.13-3.14": ("sup_w_low", 5.0, 100.0),  # the tail stops halving
    "eq4.4": ("E1_high", 0.5, 2.0),  # a jump the dissipation cannot pay for
}


def corrupted(series, column, tau, factor):
    records = list(series.records)
    i = int(np.argmin(np.abs(series.taus - tau)))
    records[i] = replace(records[i], **{column: factor * getattr(records[i], column)})
    return RecordSeries(records, series.ctx)


@pytest.mark.parametrize("name", sorted(set(FITTED_CONSTANTS) | set(CORRUPTIONS)))
def test_fitted_and_budget_checks_pass(long_series, name):
    reports = check_inequality(name, long_series)
    assert reports and all(rep.passed for rep in reports)


@pytest.mark.parametrize("name", sorted(FITTED_CONSTANTS))
def test_fitted_constants_pinned(long_series, name):
    constant = check_inequality(name, long_series)[-1].empirical_constant
    assert constant == pytest.approx(FITTED_CONSTANTS[name], rel=1e-6)


def test_eq3_13_14_reports_the_gradient_budget(long_series):
    # summarize_reports takes a check's last constant, and for eq3.13-3.14
    # that is the gradient budget max(sup_grad_w_low) / delta
    reports = check_inequality("eq3.13-3.14", long_series)
    (entry,) = summarize_reports({"eq3.13-3.14": reports})
    budget = long_series.column("sup_grad_w_low").max() / long_series.ctx.delta
    assert entry["empirical_constant"] == budget


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_record_fails(long_series, name):
    bad = corrupted(long_series, *CORRUPTIONS[name])
    assert not all(rep.passed for rep in check_inequality(name, bad))


def test_summary_margin_comes_from_one_sample():
    # the largest residual sits at tau 0.1 and the largest tolerance at 0.9,
    # but the sample closest to failing is at tau 0.5
    reports = [
        InequalityReport(0.1, 1e-6, 1e-5),
        InequalityReport(0.5, 5e-7, 1e-6),
        InequalityReport(0.9, 2e-7, 4e-5),
    ]
    (entry,) = summarize_reports({"x": reports})
    assert entry["worst_ratio"] == pytest.approx(0.5)
    assert entry["worst_tau"] == 0.5
    assert (entry["max_residual"], entry["tolerance"]) == (5e-7, 1e-6)
    row = format_summary_table("s", [entry]).splitlines()[-1].split()
    assert row == ["x", "3", "5.000e-07", "1.000e-06", "5.000e-01", "0.500", "True"]


def test_summary_of_an_unevaluable_check():
    failed = InequalityReport(np.nan, np.inf, 0.0)
    (entry,) = summarize_reports({"x": [failed]})
    assert entry["worst_ratio"] is None and entry["max_residual"] is None
    assert "-" in format_summary_table("s", [entry]).splitlines()[-1]
