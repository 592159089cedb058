import itertools
import math

import numpy as np
import pytest

from sfflab.phases import TableError, VarianceTable
from sfflab.potts import (
    BoundCheckResult,
    PottsError,
    PottsParams,
    bound_check,
    closed_form_sff,
    deviation_bound,
    fit_bound_constants,
    perp_distance,
    prediction,
    scaled_kappa,
    sff_from_class_variances,
    sff_transfer,
    synthetic_class_variances,
    thouless_time,
    transfer_eigenvalues,
)

from oracles import circulant_trace_power


def test_potts_params_chi():
    p = PottsParams(L=3, T_H=100.0, lam=2.0)
    assert p.chi == pytest.approx(math.exp(-1.0))
    q = PottsParams.from_chi(L=3, T_H=100.0, chi=0.5)
    assert q.chi == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(PottsError):
        PottsParams(L=0, T_H=1.0, lam=0.0)
    with pytest.raises(PottsError):
        PottsParams.from_chi(L=2, T_H=1.0, chi=1.5)


def test_transfer_eigenvalues_T2():
    params = PottsParams.from_chi(L=2, T_H=8.0, chi=0.6)
    tau = 2.0 / 8.0
    x = 0.6**tau
    lams = transfer_eigenvalues(VarianceTable.potts(2, 1.0), params.lam, tau)
    assert sorted(np.round(lams.real, 12)) == pytest.approx(sorted([1 + x, 1 - x]), abs=1e-12)
    assert np.abs(lams.imag).max() < 1e-12


def test_transfer_eigenvalue_row_sum_and_potts_form():
    T = 7
    params = PottsParams.from_chi(L=2, T_H=16.0, chi=0.3)
    tau = T / 16.0
    x = params.chi**tau
    table = VarianceTable.potts(T, 1.0)
    lams = transfer_eigenvalues(table, params.lam, tau)
    row = np.exp(-params.lam * tau * table.sigma2 / 2.0)
    assert lams[0].real == pytest.approx(row.sum(), rel=1e-12)
    assert lams[0].real == pytest.approx(1 - x + T * x, rel=1e-12)
    # remaining eigenvalues are (T-1)-fold degenerate at 1 - chi^tau
    rest = np.sort(lams[1:].real)
    assert np.allclose(rest, 1 - x, atol=1e-12)
    # sum over all eigenvalues = T * (row entry at s~ = 0)
    assert lams.sum().real == pytest.approx(T * row[0], rel=1e-12)


def test_transfer_eigenvalues_requires_complete_table():
    # a table is one sigma2 and one std_error per relative shift s~ = 0..T-1
    with pytest.raises(TableError):
        VarianceTable(np.zeros(4), np.zeros(2))
    with pytest.raises(TableError):
        VarianceTable(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(TableError):
        VarianceTable(np.zeros(0), np.zeros(0))
    t = VarianceTable([0.0, 1.0, 1.0, 1.0], np.zeros(4))
    assert t.T == 4 and len(transfer_eigenvalues(t, 1.0, 0.5)) == 4


def test_sff_transfer_single_site_and_uncoupled():
    table = VarianceTable.potts(6, 1.0)
    p1 = PottsParams.from_chi(L=1, T_H=12.0, chi=0.4)
    assert sff_transfer(table, p1).values[0] == pytest.approx(6.0, rel=1e-12)
    p0 = PottsParams(L=3, T_H=12.0, lam=0.0)
    assert sff_transfer(table, p0).values[0] == pytest.approx(6.0**3, rel=1e-12)


def test_sff_transfer_matches_matrix_power_oracle():
    for T, L, chi in ((3, 2, 0.5), (5, 3, 0.9), (8, 4, 0.2)):
        params = PottsParams.from_chi(L=L, T_H=10.0, chi=chi)
        table = VarianceTable.potts(T, 1.0)
        tau = T / params.T_H
        row = np.exp(-params.lam * tau * table.sigma2 / 2.0)
        want = circulant_trace_power(row, L).real
        got = sff_transfer(table, params).values[0]
        assert got == pytest.approx(want, rel=1e-10)
        # and the explicit matrix agrees with the DFT route
        lams = transfer_eigenvalues(table, params.lam, tau)
        assert want == pytest.approx(np.sum(lams**L).real, rel=1e-10)


def test_closed_form_limits_exact():
    grid = np.geomspace(1, 1e4, 60)
    pL = PottsParams.from_chi(L=3, T_H=50.0, chi=1.0)
    assert np.array_equal(closed_form_sff(pL, grid).values, grid**3)
    p0 = PottsParams.from_chi(L=3, T_H=50.0, chi=0.0)
    assert np.array_equal(closed_form_sff(p0, grid).values, grid)


def test_closed_form_transfer_equivalence_spot():
    for chi in (0.01, 0.5, 0.975, 0.999):
        for L in (1, 2, 5):
            for T in (2, 17, 64):
                params = PottsParams.from_chi(L=L, T_H=32.0, chi=chi)
                kt = sff_transfer(VarianceTable.potts(T, 1.0), params).values[0]
                kc = closed_form_sff(params, [float(T)]).values[0]
                assert abs(kt - kc) <= 1e-12 * kc


def test_closed_form_log_domain_huge_values():
    params = PottsParams.from_chi(L=5, T_H=1e60, chi=0.975)
    pred = closed_form_sff(params, [1e60])
    # (T_H tau chi^tau)^L ~ 1e300-scale; the log value must stay finite
    assert np.isfinite(pred.log_values).all()
    assert pred.log_values[0] == pytest.approx(5 * math.log(1e60 * 0.975), rel=1e-6)


def test_scaled_kappa_endpoints():
    tau = np.linspace(0.1, 3.0, 7)
    k1 = scaled_kappa(PottsParams.from_chi(L=4, T_H=10.0, chi=1.0), tau)
    assert np.allclose(k1, 1.0, atol=1e-15)
    k0 = scaled_kappa(PottsParams.from_chi(L=4, T_H=10.0, chi=0.0), tau)
    assert np.allclose(k0, tau, atol=1e-15)
    kL1 = scaled_kappa(PottsParams.from_chi(L=1, T_H=10.0, chi=0.7), tau)
    assert np.allclose(kL1, tau, atol=1e-15)


@pytest.mark.parametrize("chi", [0.0, 0.9, 1.0])
def test_prediction_forms_are_the_named_functions(chi):
    params = PottsParams.from_chi(L=3, T_H=50.0, chi=chi)
    grid = np.geomspace(1, 1e4, 60)
    closed, direct = prediction(params, "closed-form", grid), closed_form_sff(params, grid)
    for got, want in ((closed.times, direct.times), (closed.values, direct.values),
                      (closed.log_values, direct.log_values)):
        assert np.array_equal(got, want)
    kappa = prediction(params, "kappa", grid)
    assert np.array_equal(kappa.times, grid)
    assert np.array_equal(kappa.values, 50.0 * scaled_kappa(params, grid / 50.0))
    assert np.array_equal(kappa.log_values, np.log(kappa.values))
    with pytest.raises(PottsError, match="transfer-matrix"):
        prediction(params, "transfer-matrix", grid)


def test_thouless_time():
    p = PottsParams.from_chi(L=2, T_H=10.0, chi=0.5)
    assert thouless_time(p) == pytest.approx(1.0, rel=1e-12)
    p3 = PottsParams.from_chi(L=3, T_H=10.0, chi=0.975)
    assert thouless_time(p3) == pytest.approx(math.log(3) / abs(math.log(0.975)), rel=1e-12)
    with pytest.raises(PottsError):
        thouless_time(PottsParams.from_chi(L=2, T_H=10.0, chi=1.0))
    with pytest.raises(PottsError):
        thouless_time(PottsParams.from_chi(L=2, T_H=10.0, chi=0.0))
    # ln 2 / 1e-15 = 6.9e14 exceeds the 1e12 cap
    with pytest.raises(PottsError, match="cap"):
        thouless_time(PottsParams.from_chi(L=2, T_H=10.0, chi=1.0 - 1e-15))


def test_k0_reference_values():
    # bound_check's instantaneous-decay reference K0(T) = T + (T^L - T) exp(-Lambda tau f0 / 2)
    grid = np.array([2, 8, 64])
    res = bound_check(PottsParams(L=3, T_H=16.0, lam=0.0), f0=3.0, eta=0.5, theta=1.0,
                      T_grid=grid)
    assert np.allclose(res.K0, grid**3.0, rtol=1e-12)
    # f0 = L (the per-bond variance is 1) ties it to the chain: the damping factor is chi^(L tau)
    p = PottsParams.from_chi(L=3, T_H=16.0, chi=0.5)
    res = bound_check(p, f0=3.0, eta=0.5, theta=1.0, T_grid=grid)
    assert np.allclose(res.K0, grid + (grid**3.0 - grid) * 0.5 ** (3.0 * grid / 16.0), rtol=1e-12)


def test_k0_equals_closed_form_at_L2():
    # for two sites the ring and the all-to-all conventions coincide: K0 with
    # f0 = 2 (twice the per-bond variance 1) is the closed form
    grid = np.unique(np.geomspace(2, 512, 40).astype(int))
    for chi in (0.3, 0.9, 0.99):
        p = PottsParams.from_chi(L=2, T_H=64.0, chi=chi)
        k0 = bound_check(p, f0=2.0, eta=0.5, theta=1.0, T_grid=grid).K0
        kc = closed_form_sff(p, grid).values
        assert np.allclose(k0, kc, rtol=1e-12)


def test_ramp_recovery_late_times():
    p = PottsParams.from_chi(L=3, T_H=100.0, chi=0.975)
    grid = np.geomspace(1, 1e5, 400)
    K = closed_form_sff(p, grid).values
    ratio = K / grid
    tail = ratio[grid > 3e4]
    assert np.all(np.diff(tail) <= 1e-12)  # monotone approach
    assert abs(ratio[-1] - 1.0) < 1e-6


def test_deviation_bound_validation_and_trivial_case():
    p = PottsParams.from_chi(L=2, T_H=16.0, chi=0.5)
    with pytest.raises(PottsError):
        deviation_bound(p, 1.0, 0.5, [4.0])
    b = deviation_bound(p, 0.5, 1.5, np.array([4.0, 8.0]))
    assert np.all(b >= 0)


def test_perp_distance():
    assert perp_distance((0, 0), 8) == 0
    assert perp_distance((3, 3), 8) == 0  # on the diagonal
    assert perp_distance((0, 1), 8) == 1
    assert perp_distance((0, 7), 8) == 1  # wraps
    assert perp_distance((0, 4), 8) == 4


def test_perp_distance_depends_only_on_the_class():
    # a function of the class of s in Z_T^L modulo synchronous shifts (1, ..., 1)
    T = 4
    assert perp_distance((3, 3, 3), T) == 0
    assert perp_distance((1, 2, 3), T) == perp_distance((0, 1, 2), T) == 2
    for s in itertools.product(range(T), repeat=3):
        for c in range(1, T):
            assert perp_distance(tuple((v + c) % T for v in s), T) == perp_distance(s, T)


def test_synthetic_family_and_bound_dominance():
    grid = np.unique(np.geomspace(2, 512, 40).astype(int))
    res = bound_check(PottsParams(L=2, T_H=16.0, lam=2.0), f0=1.0, eta=0.5, theta=1.0,
                      T_grid=grid)
    assert isinstance(res, BoundCheckResult)
    assert res.dominated
    # relative deviation dies off once the damping overwhelms the class sum
    assert res.relative_deviation[-1] < 1e-5
    assert res.relative_deviation[-1] < 0.01 * res.relative_deviation.max()


def test_instantaneous_family_has_zero_deviation():
    # eta -> 0 limit realized by a table that equals the Potts values
    T, L, f0 = 8, 2, 1.0
    cls = {k: (0.0 if all(c == 0 for c in k) else f0)
           for k in [(i,) for i in range(T)]}
    K = sff_from_class_variances(L, T, 16.0, 2.0, cls)
    K0 = T + (T**L - T) * math.exp(-2.0 * (T / 16.0) * f0 / 2.0)
    assert K == pytest.approx(K0, rel=1e-12)


def test_fit_bound_constants_order():
    cls = synthetic_class_variances(8, 2, 1.0, 0.5, 1.0)
    a, A = fit_bound_constants(cls, 1.0)
    assert 0 < a < A
    vals = [v for k, v in cls.items() if any(c != 0 for c in k)]
    assert a <= min(vals) and A >= max(max(vals), 1.0)
