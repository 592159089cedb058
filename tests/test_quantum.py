import dataclasses
import math

import numpy as np
import pytest

from sfflab.dynamics import CatMapSpec, DEFAULT_MAP, SpecError, pair_gradient
from sfflab.orbits import lattice_fixed_count
from sfflab.potts import PottsParams, closed_form_sff
from sfflab import quantum
from sfflab.quantum import (
    CircuitSpec,
    ConventionError,
    GridError,
    MemoryBudgetError,
    SffSeries,
    UnitarityError,
    build_circuit,
    compare,
    coupling_operator,
    ensemble_members,
    position_grid,
    quantize_subsystem,
    sff_numeric,
    subsystem_unitaries,
    torus_translation,
    trace_powers,
    uncoupled_pole,
)
from sfflab.util import philox, window_average

from oracles import dense_kernel_circuit


def test_quantize_unitarity_and_dimension():
    for N in (8, 16, 32):
        U = quantize_subsystem(DEFAULT_MAP, N)
        assert np.abs(U.conj().T @ U - np.eye(N)).max() < 1e-10
        assert len(np.linalg.eigvals(U)) == N


def test_quantize_parity_constraint():
    with pytest.raises(ConventionError):
        quantize_subsystem(DEFAULT_MAP, 9)  # d*N odd
    quantize_subsystem(CatMapSpec(2, 1, 3, 2), 9)  # a, d both even: any N


def test_quantize_requires_unit_b():
    with pytest.raises(ConventionError):
        quantize_subsystem(CatMapSpec(3, 2, 1, 1), 8)


def test_translation_unitary():
    rng = philox(1)
    for N in (8, 13):
        T = torus_translation(N, float(rng.random()), float(rng.random()))
        assert np.abs(T.conj().T @ T - np.eye(N)).max() < 1e-10


@pytest.mark.parametrize("N", [8, 16])
def test_grid_translation_maps_clock_and_shift_to_multiples(N):
    # a translation by v in Z^2/N quantizes an affine cat map exactly: it
    # conjugates the clock Z and the shift X to unit-modulus multiples of themselves
    n = np.arange(N)
    Z = np.diag(np.exp(2j * np.pi * n / N))
    X = np.roll(np.eye(N), 1, axis=0)
    for a in range(N):
        for b in range(N):
            T = torus_translation(N, a / N, b / N)
            for P in (Z, X):
                C = T @ P @ T.conj().T
                c = np.vdot(P, C) / N
                assert abs(abs(c) - 1.0) < 1e-13
                assert np.abs(C - c * P).max() < 1e-13


def test_single_map_ramp_over_translation_ensemble():
    # median of <|tr u^t|^2> / t over t << N within the coarse 25% band
    rng = philox(2)
    for N in (8, 16, 32):
        U = quantize_subsystem(DEFAULT_MAP, N)
        t_max = max(4, int(0.75 * N))
        acc = np.zeros(t_max)
        members = 200
        for _ in range(members):
            vq, vp = rng.random(2)
            M = torus_translation(N, float(vq), float(vp)) @ U
            acc += np.abs(trace_powers(M, t_max).traces) ** 2
        acc /= members
        ratio = np.median(acc / np.arange(1, t_max + 1))
        assert 0.75 < ratio < 1.25, f"N={N}: median K/t = {ratio}"


def test_coupling_operator_identity_and_modulus():
    spec0 = CircuitSpec(L=2, N=8, lam=0.0)
    assert np.array_equal(coupling_operator(spec0), np.ones(64, dtype=complex))
    spec = CircuitSpec(L=2, N=8, lam=0.01**2 * 64 * (2 * np.pi * 8) ** 2)  # eps = 0.01
    diag = coupling_operator(spec)
    assert np.allclose(np.abs(diag), 1.0, atol=1e-14)


def test_coupling_operator_classical_limit():
    N = 64
    spec = CircuitSpec(L=2, N=N, lam=1e-3**2 * N**2 * (2 * np.pi * N) ** 2)  # eps = 1e-3
    ph = np.angle(coupling_operator(spec)).reshape(N, N)
    grad = pair_gradient(position_grid(N, 2), spec.system())[:, 0].reshape(N, N)
    target = spec.eps_effective * grad / spec.hbar
    fd = (np.unwrap(ph, axis=0)[1:, :] - np.unwrap(ph, axis=0)[:-1, :]) * N
    err = np.abs(fd - 0.5 * (target[1:, :] + target[:-1, :])).max()
    assert err < 10.0 / N * np.abs(target).max()


def test_build_circuit_tensor_identity_at_eps0():
    spec = CircuitSpec(L=2, N=8, lam=0.0, members=1, seed=3)
    mem = ensemble_members(spec)[0]
    U = build_circuit(spec, mem)
    subs = subsystem_unitaries(spec, mem)
    assert np.array_equal(U, np.kron(subs[0], subs[1]))
    tr = trace_powers(U, 12).traces
    tr_prod = trace_powers(subs[0], 12).traces * trace_powers(subs[1], 12).traces
    assert np.abs(tr - tr_prod).max() < 1e-9
    assert np.abs(U.conj().T @ U - np.eye(64)).max() < 1e-10


def test_build_circuit_against_dense_kernel_oracle():
    spec = CircuitSpec(L=2, N=4, lam=0.01**2 * 16 * (2 * np.pi * 4) ** 2)  # eps = 0.01
    U = build_circuit(spec)
    want = dense_kernel_circuit(4, 0.01)
    assert np.abs(U - want).max() < 1e-10


def test_build_circuit_returns_a_fresh_writable_array():
    # at L = 1 with no member the circuit is the cached site kernel: a build must copy it
    spec = CircuitSpec(L=1, N=8, lam=0.0)
    U = build_circuit(spec)
    want = quantize_subsystem(DEFAULT_MAP, 8)
    assert U.flags.writeable and np.array_equal(U, want)
    U *= 2.0
    assert np.array_equal(build_circuit(spec), want)


@pytest.mark.parametrize("cached", [quantum._site_kernel, quantum._dft],
                         ids=["site_kernel", "dft"])
def test_per_n_arrays_are_read_only(cached):
    with pytest.raises(ValueError, match="read-only"):
        cached(8)[0, 0] = 0.0
    assert cached(8) is cached(8)


def test_memory_budget_preflight():
    spec = CircuitSpec(L=2, N=512, lam=0.0, memory_budget_bytes=2 << 30)
    with pytest.raises(MemoryBudgetError):
        build_circuit(spec)
    # the budget covers the four dim x dim complex matrices trace_powers holds during inv
    need = 4 * 16 * 64**2
    build_circuit(CircuitSpec(L=2, N=8, lam=0.0, memory_budget_bytes=need))
    with pytest.raises(MemoryBudgetError):
        build_circuit(CircuitSpec(L=2, N=8, lam=0.0, memory_budget_bytes=need - 1))


def _matrix_power_traces(U, t_max):
    P = np.eye(len(U), dtype=complex)
    out = []
    for _ in range(t_max):
        P = P @ U
        out.append(np.trace(P))
    return np.array(out)


def _lattice_K(N, L, t_max):
    """Exact K(t) = n_t^L of the untranslated eps = 0 circuit, t = 1..t_max."""
    return np.array([float(lattice_fixed_count(t, DEFAULT_MAP, N)) ** L
                     for t in range(1, t_max + 1)])


def test_untranslated_circuit_K_is_the_lattice_count():
    # |tr u^t|^2 is the number of period-t lattice points mod N, so K = n_t^L;
    # checked against traces of explicit matrix powers
    for L, N in ((1, 2), (1, 10), (1, 16), (2, 4), (2, 6), (2, 8), (3, 4)):
        spec = CircuitSpec(L=L, N=N, lam=0.0)
        U = build_circuit(spec)
        t_max = 3 * N**L
        K = np.abs(_matrix_power_traces(U, t_max)) ** 2
        exact = _lattice_K(N, L, t_max)
        assert np.abs(K - exact).max() <= 1e-9 * (1.0 + exact).max(), (L, N)
        # the manifest's reference_trace_error_max is this comparison for trace_powers,
        # at the pole the run places from the site maps
        alpha = uncoupled_pole(subsystem_unitaries(spec))
        K = np.abs(trace_powers(U, t_max, alpha).traces) ** 2
        want = (np.abs(K - exact) / (1.0 + exact)).max()
        assert quantum.reference_trace_error(spec, t_max) == want


@pytest.mark.parametrize("L, N", [(2, 16), (2, 24), (2, 32), (3, 8), (3, 10)])
def test_trace_powers_against_lattice_counts(L, N, monkeypatch):
    # dims 256 to 1024, every t <= 1.25 T_H, at the pole a run places from the
    # site maps and at the fixed default pole; the last pass forces the
    # re-solve at the widest gap, so every eigen path meets the integers
    spec = CircuitSpec(L=L, N=N, lam=0.0)
    t_max = int(round(1.25 * spec.T_H))
    exact = _lattice_K(N, L, t_max)
    sites_pole = uncoupled_pole(subsystem_unitaries(spec))
    for alpha, bound in ((sites_pole, quantum._POLE_BOUND), (quantum._ALPHA0, quantum._POLE_BOUND),
                         (sites_pole, 0.0)):
        monkeypatch.setattr(quantum, "_POLE_BOUND", bound)
        res = trace_powers(build_circuit(spec), t_max, alpha)
        assert res.second_solve == (bound == 0.0)
        err = np.abs(np.abs(res.traces) ** 2 - exact) / (1.0 + exact)
        assert err.max() <= 1e-9, (alpha, bound, int(np.argmax(err)) + 1, err.max())


def test_trace_powers_match_matrix_powers():
    for N in (6, 8):
        spec = CircuitSpec(L=2, N=N, lam=0.4, members=1, seed=4)
        U = build_circuit(spec, ensemble_members(spec)[0])
        t_max = int(round(1.25 * spec.T_H))
        assert np.abs(trace_powers(U, t_max).traces - _matrix_power_traces(U, t_max)).max() < 1e-8


def test_trace_powers_exact_and_repeated_eigenvalues():
    # cycles of length 1, 1, 2, 4, 5: eigenvalue 1 five times, -1 twice, +-i, fifth roots
    perm = np.arange(13)
    for cycle in ([2, 3], [4, 5, 6, 7], [8, 9, 10, 11, 12]):
        perm[cycle] = np.roll(cycle, 1)
    P = np.eye(13, dtype=complex)[perm]
    phases = np.array([0.0, 0.5, 0.5, 0.5, 1.0, 1.5, 1.5, 0.3, 0.3, 1.7]) * np.pi
    D = np.diag(np.exp(1j * phases))
    for U in (P, D):
        assert np.abs(trace_powers(U, 40).traces - _matrix_power_traces(U, 40)).max() < 1e-8


def test_trace_powers_rejects_non_unitary(monkeypatch):
    spec = CircuitSpec(L=2, N=6, lam=0.4, members=1, seed=4)
    U = build_circuit(spec, ensemble_members(spec)[0])
    S = np.eye(len(U)) + 0.1 * np.triu(np.ones_like(U), 1)
    non_normal = S @ np.diag(np.exp(1j * np.linspace(0.0, 6.0, len(U)))) @ np.linalg.inv(S)
    for bad in (1.001 * U, 0.999 * U, non_normal):
        with pytest.raises(UnitarityError, match="not unitary"):
            trace_powers(bad, 10)
    # past the probe, S_1 and S_2 of the eigenphases against tr U and sum_ij U_ij U_ji
    monkeypatch.setattr(quantum, "_unitarity_residual", lambda U: 0.0)
    for bad in (1.001 * U, 0.999 * U, non_normal):
        with pytest.raises(UnitarityError, match=r"tr U\^[12] from the eigenphases is off"):
            trace_powers(bad, 10)


def test_trace_powers_checks_S2_against_the_direct_sum(monkeypatch):
    # every non-unitary case above already fails at S_1; this one misses only
    # S_2 = sum_ij U_ij U_ji, which trace_powers takes from np.einsum
    spec = CircuitSpec(L=2, N=6, lam=0.4, members=1, seed=4)
    U = build_circuit(spec, ensemble_members(spec)[0])
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args: einsum(*args) + 1e-6)
    with pytest.raises(UnitarityError, match=r"tr U\^2 from the eigenphases is off by 1e-06"):
        trace_powers(U, 10)


def _counting_inv(monkeypatch):
    """Patch np.linalg.inv to record each call, including those that raise."""
    calls, inv = [], np.linalg.inv

    def counted(A):
        calls.append(A.shape)
        return inv(A)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return calls


def test_trace_powers_eigenvalue_on_the_pole(monkeypatch):
    # pole -e^{i alpha} at -1, so I + e^{-i alpha} D has an exact zero pivot: the
    # first LU fails and the opposite pole is used
    calls = _counting_inv(monkeypatch)
    phases = np.pi * np.array([1.0, 0.1, 0.35, 0.6, 1.3, 1.45, 1.7, 1.9])
    D = np.diag(np.exp(1j * phases))
    D[0, 0] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(np.eye(len(D)) + D)
    calls.clear()
    res = trace_powers(D, 40, alpha=0.0)
    assert len(calls) == 2 and res.second_solve
    assert np.abs(res.traces - _matrix_power_traces(D, 40)).max() < 1e-10


def test_trace_powers_eigenvalue_near_the_pole(monkeypatch):
    # one eigenphase 1e-6 from the first pole: max|lambda| ~ 2e6 is over
    # _POLE_BOUND, so the pole moves to the widest gap and the solve runs again;
    # rotated by a random unitary so that the eigensolve mixes the eigenvalues,
    # and once more in Fortran order, which the in-place pole moves must handle
    calls = _counting_inv(monkeypatch)
    pole = quantum._ALPHA0 + np.pi
    phases = pole + np.array([1e-6, 0.4, 1.1, 1.5, 2.3, 3.0, 3.9, 4.4, 5.2, 5.9])
    D = np.diag(np.exp(1j * phases))
    rng = philox(11)
    Q, _ = np.linalg.qr(rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
    R = Q @ D @ Q.conj().T
    for U in (D, R, np.asfortranarray(R)):
        calls.clear()
        res = trace_powers(U, 40)
        assert len(calls) == 2 and res.second_solve
        assert np.abs(res.traces - _matrix_power_traces(U, 40)).max() < 1e-10


def test_misleading_uncoupled_gap_still_reaches_the_fallback(monkeypatch):
    # at Lambda = 20 the coupling moves eigenphases by several spacings, so the
    # uncoupled gap is no guide: this member's circuit has an eigenphase within
    # the bound of the chosen pole, and the widest-gap re-solve repairs it
    spec = CircuitSpec(L=2, N=8, lam=20.0, members=2, seed=22)
    member = ensemble_members(spec)[1]
    sites = subsystem_unitaries(spec, member)
    U = build_circuit(spec, member, sites)
    calls = _counting_inv(monkeypatch)
    res = trace_powers(U, 80, uncoupled_pole(sites))
    assert res.second_solve and calls.count((64, 64)) == 2
    assert np.abs(res.traces - _matrix_power_traces(U, 80)).max() < 1e-10
    # the ensemble counts it: member 0 solves once, member 1 twice
    calls.clear()
    assert sff_numeric(spec, 80).meta["second_solves"] == 1
    assert calls.count((64, 64)) == 3


def _widest_gap_middle_by_pairs(theta):
    # O(n^2): each angle's gap runs to the nearest distinct angle counter-clockwise of it,
    # or round the whole circle when there is none
    theta = np.mod(theta, 2.0 * np.pi)
    ccw = np.mod(theta[None, :] - theta[:, None], 2.0 * np.pi)
    ccw[ccw == 0.0] = 2.0 * np.pi
    gaps = ccw.min(axis=1)
    k = int(np.argmax(gaps))
    return theta[k] + 0.5 * gaps[k]


def test_widest_gap_middle_matches_a_sort():
    # the sort in quantum against a reference that sorts nothing
    rng = philox(13)
    cases = [np.array([1.0]), np.array([0.5, 0.5]), np.array([-0.1, 0.2, 7.0]),
             np.full(6, 2.0 * np.pi), rng.random(7) * 40.0 - 20.0,
             np.repeat(rng.random(64) * 2.0 * np.pi, 4)]
    cases += [rng.random(n) * 2.0 * np.pi for n in (2, 31, 256, 1000)]
    for theta in cases:
        got = quantum._widest_gap_middle(theta)
        want = _widest_gap_middle_by_pairs(theta)
        assert abs(np.angle(np.exp(1j * (got - want)))) < 1e-12, (theta, got, want)


@pytest.mark.parametrize("L, N", [(2, 16), (3, 6)])
def test_uncoupled_pole_clears_the_exact_spectrum_at_eps0(L, N):
    # at eps = 0 the circuit's eigenphases are the sums of the site
    # eigenphases, so the pole sits in the middle of their widest gap: every
    # exact eigenphase (from eigvals) is at least half that gap from it
    spec = CircuitSpec(L=L, N=N, lam=0.0, members=3, seed=14)
    for member in [None] + ensemble_members(spec):
        sites = subsystem_unitaries(spec, member)
        theta = np.sort(np.angle(np.linalg.eigvals(build_circuit(spec, member, sites))))
        widest = np.diff(theta, append=theta[0] + 2.0 * np.pi).max()
        pole = uncoupled_pole(sites) + np.pi
        nearest = np.abs(np.angle(np.exp(1j * (theta - pole)))).min()
        assert nearest >= 0.5 * widest - 1e-9, (member, nearest, widest)


def test_lambda_scaling_of_epsilon():
    lam = 0.21
    for N in (8, 16):
        spec = CircuitSpec(L=2, N=N, lam=lam)
        want = math.sqrt(lam) * spec.hbar / math.sqrt(N**2)
        assert spec.eps_effective == want
    e8 = CircuitSpec(L=2, N=8, lam=lam).eps_effective
    e16 = CircuitSpec(L=2, N=16, lam=lam).eps_effective
    assert e8 / e16 == pytest.approx(2.0 ** (1 + 2 / 2.0), rel=1e-12)
    assert CircuitSpec(L=2, N=8, lam=0.0).eps_effective == 0.0


def test_spec_requires_a_finite_nonnegative_lambda():
    with pytest.raises(TypeError):
        CircuitSpec(L=2, N=8)
    for lam in (-0.1, math.inf, math.nan):
        with pytest.raises(SpecError, match="Lambda"):
            CircuitSpec(L=2, N=8, lam=lam)


def test_sff_numeric_nonnegative_and_factorization():
    spec = CircuitSpec(L=2, N=16, lam=0.0, members=3, seed=5)
    series = sff_numeric(spec, 30)
    assert np.all(series.raw_values >= 0.0)
    mem = ensemble_members(spec)[0]
    subs = subsystem_unitaries(spec, mem)
    k_prod = (np.abs(trace_powers(subs[0], 30).traces) ** 2
              * np.abs(trace_powers(subs[1], 30).traces) ** 2)
    k_full = np.abs(trace_powers(build_circuit(spec, mem), 30).traces) ** 2
    assert np.abs(k_full - k_prod).max() <= 1e-9 * max(1.0, k_prod.max())


def test_sff_numeric_error_scaling():
    base = dict(L=2, N=8, lam=0.3)
    s1 = sff_numeric(CircuitSpec(**base, members=40, seed=6), 24)
    s2 = sff_numeric(CircuitSpec(**base, members=160, seed=6), 24)
    ratio = np.median(s2.errors / np.maximum(s1.errors, 1e-300))
    assert 0.3 < ratio < 0.75  # expect ~1/2


def test_sff_numeric_calls_trace_powers_once_per_member(monkeypatch):
    calls = []

    def counted(U, t_max, alpha):
        calls.append(t_max)
        return trace_powers(U, t_max, alpha)

    monkeypatch.setattr(quantum, "trace_powers", counted)
    spec = CircuitSpec(L=2, N=6, lam=0.2, members=4, seed=7)
    series = sff_numeric(spec, 15)
    assert calls == [15] * 4
    assert 0.0 <= series.meta["unitarity_residual_max"] < 1e-10
    assert 0.0 <= series.meta["trace_check_max"] < 1e-10
    assert series.meta["second_solves"] == 0


def test_benchmark_ensemble_inverts_each_circuit_once(monkeypatch):
    # at the benchmark's N, L and Lambda the pole from the site maps holds for
    # every member: one dim x dim inverse each, and no second solve
    calls = _counting_inv(monkeypatch)
    spec = CircuitSpec(L=2, N=16, lam=0.2107, members=32, seed=15)
    series = sff_numeric(spec, 20)
    assert calls.count((256, 256)) == 32
    assert series.meta["second_solves"] == 0


def test_window_average_rows_match_one_row_at_a_time():
    raw = philox(10).random((5, 97)) * 50.0
    times = np.arange(1, 98)
    want = np.empty_like(raw)
    for r, row in enumerate(raw):  # the one-row loop sff_numeric ran before
        for i, t in enumerate(times):
            w = max(5, int(t) // 10)
            hi = min(len(row), max(0, i - w // 2) + w)
            want[r, i] = row[max(0, hi - w):hi].mean()
    assert np.array_equal(window_average(raw, times), want)
    assert np.array_equal(window_average(raw[2], times), want[2])


def test_sff_numeric_worker_isolation():
    spec = CircuitSpec(L=2, N=6, lam=0.2, members=4, seed=7)
    a = sff_numeric(spec, 15, workers=1)
    b = sff_numeric(spec, 15, workers=2)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.raw_values, b.raw_values)


def test_ensemble_member_bond_offset_constraint():
    spec = CircuitSpec(L=2, N=8, lam=0.1, members=5, seed=8)
    for mem in ensemble_members(spec):
        d1, d2 = mem.bond_offsets
        assert (d1 - d2) % 1.0 == pytest.approx(0.25, abs=1e-12)
    spec3 = CircuitSpec(L=3, N=4, lam=0.1, members=5, seed=8)
    offs = {m.bond_offsets for m in ensemble_members(spec3)}
    assert len(offs) == 5


def _series_of(pred):
    """The prediction as a zero-error series of an N = 8, L = 2 circuit (T_H = 64)."""
    z = np.zeros_like(pred.values)
    return SffSeries(times=pred.times.copy(), values=pred.values.copy(), errors=z,
                     raw_values=pred.values.copy(), N=8, L=2)


def test_compare_self_is_exact():
    params = PottsParams.from_chi(L=2, T_H=64.0, chi=0.9)
    pred = closed_form_sff(params, np.arange(1.0, 65.0))
    rep = compare(_series_of(pred), pred)
    assert np.all(rep.ratio == 1.0)
    assert rep.chi2_per_point == 0.0
    assert rep.slope_ok


def test_compare_verdict():
    params = PottsParams.from_chi(L=2, T_H=64.0, chi=0.9)
    pred = closed_form_sff(params, np.arange(1.0, 65.0))
    exact = _series_of(pred)
    high = dataclasses.replace(exact, values=1.3 * exact.values)
    # slope_tol wide enough that the ratio alone decides
    strict = compare(high, pred, slope_tol=1.0, ratio_tol=0.25)
    assert strict.late_mean_ratio == pytest.approx(1.3, rel=1e-12)
    assert strict.slope_ok and not strict.ratio_ok and not strict.passed
    loose = compare(high, pred, slope_tol=1.0, ratio_tol=0.35)
    assert loose.slope_ok and loose.ratio_ok and loose.passed
    # a late window with no series point gives a NaN ratio, which never passes
    empty = compare(exact, pred, late_window=(5.0, 6.0), ratio_tol=math.inf)
    assert math.isnan(empty.late_mean_ratio)
    assert not empty.ratio_ok and not empty.passed


def test_compare_takes_T_H_from_the_series():
    # on t = 1..20 the bump is the largest K up to 2 N, and the late window
    # (0.4, 1.0) holds the times 0.4 N^2 <= t <= N^2
    t = np.arange(1.0, 21.0)
    pred = closed_form_sff(PottsParams.from_chi(L=2, T_H=16.0, chi=0.9), t)
    for N in (4, 2):
        series = SffSeries(times=t, values=t.copy(), errors=np.zeros(20), raw_values=t.copy(),
                           N=N, L=2)
        rep = compare(series, pred)
        late = (t >= 0.4 * N**2) & (t <= N**2)
        assert rep.bump_time == 2 * N
        assert rep.late_mean_ratio == pytest.approx(np.mean(t[late] / pred.values[late]),
                                                    rel=1e-12)


def test_compare_disjoint_grids_error():
    params = PottsParams.from_chi(L=2, T_H=64.0, chi=0.9)
    pred = closed_form_sff(params, np.arange(1.0, 10.0))
    series = _series_of(closed_form_sff(params, np.arange(50.0, 60.0)))
    with pytest.raises(GridError):
        compare(series, pred)


def test_lambda_sweep_collapse():
    # sff_numeric at fixed Lambda across N, rescaled onto a common tau grid
    N_list, L = (12, 16, 24), 2
    tau_grid = np.linspace(max(0.05, 2 * max(1.0 / N**L for N in N_list)), 1.0, 64)
    kappa = {}
    for i, N in enumerate(N_list):
        spec = CircuitSpec(L=L, N=N, lam=1.0, members=60, seed=9 + i)
        s = sff_numeric(spec, int(round(1.25 * spec.T_H)))
        tau = s.times / spec.T_H
        kappa[N] = (np.interp(tau_grid, tau, s.values / spec.T_H),
                    np.interp(tau_grid, tau, s.errors / spec.T_H))
    mask = tau_grid >= 0.3
    pairs = [(12, 16), (16, 24), (12, 24)]
    for na, nb in pairs:
        ka, ea = kappa[na]
        kb, eb = kappa[nb]
        diff = np.abs(ka - kb)[mask]
        comb = np.sqrt(ea**2 + eb**2)[mask]
        # rescaled curves agree within combined error bars on the resolvable window
        frac = np.mean(diff <= 3.0 * comb + 0.05 * np.maximum(ka, kb)[mask])
        assert frac > 0.85, f"collapse {na} vs {nb}: {frac}"
