import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

from sfflab.dynamics import (ALL_TO_ALL, DEFAULT_MAP, CatMapSpec, SpecError, SystemSpec, bonds,
                             lattice_points, pair_gradient, pair_hessian, pair_potential)
from sfflab import phases
from sfflab.orbits import (MAX_PERIOD, OrbitFamily, as_shift, enumerate_lattice,
                           family_iterator, periodic_point_count, smith_lattice,
                           subsystem_orbits)
from sfflab.phases import (
    EXACT_SAMPLING_MAX_POINTS,
    SeriesError,
    TableError,
    VarianceTable,
    _fit_tail,
    _plateau_ok,
    _series_sum,
    action_difference_identity_check,
    clt_diagnostics,
    per_bond_variance_table,
    sample_phase_distribution,
    variance_series,
    variance_time_average,
)
from sfflab.util import philox

from oracles import (block_periodicity_jacobian, coupled_step_unreduced, float_position_cycle,
                     geometric_series_variance, peak_mib, phase_difference,
                     phase_difference_direct, reference_lattice_bond_sum, rolled_position_matrix)


@pytest.mark.parametrize("T", [1, 2, 5])
@pytest.mark.parametrize("spec", [SystemSpec(L=2, epsilon=0.3),
                                  SystemSpec(L=3, subsystem=CatMapSpec(1, -1, -1, 2),
                                             epsilon=0.7, topology=ALL_TO_ALL)],
                         ids=["L2", "L3-all-to-all"])
def test_periodicity_jacobian(spec, T):
    # at T = 1 and T = 2 the neighbours t + 1 and t - 1 are one slot, and their identities add
    q = philox(31).uniform(-1.0, 2.0, (T, spec.L))
    J = phases._periodicity_jacobian(q, spec)
    assert J.shape == (T * spec.L, T * spec.L)
    want = block_periodicity_jacobian(q, spec, pair_hessian)
    assert np.array_equal(J.view(np.uint64), want.view(np.uint64))
    w = np.zeros(q.shape)
    h = 1e-6
    for k in range(q.size):
        dq = np.zeros(q.size)
        dq[k] = h
        dq = dq.reshape(q.shape)
        diff = (phases._periodicity_residual(q + dq, w, spec)
                - phases._periodicity_residual(q - dq, w, spec)) / (2 * h)
        assert np.allclose(J[:, k], diff.reshape(-1), atol=1e-6)


@pytest.mark.parametrize("T", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("spec", [SystemSpec(L=2),
                                  SystemSpec(L=3, subsystem=CatMapSpec(1, -1, -1, 2),
                                             topology=ALL_TO_ALL)],
                         ids=["L2", "L3-all-to-all"])
def test_periodicity_jacobian_spectrum_at_eps0(spec, T):
    # uncoupled, the Jacobian is circulant: eigenvalues 2 cos(2 pi k / T) - (a + d),
    # each once per site, and none vanishes for a hyperbolic map
    q = philox(32).random((T, spec.L))
    m = spec.subsystem
    got = np.sort(np.linalg.eigvalsh(phases._periodicity_jacobian(q, spec)))
    want = np.sort(np.repeat(2.0 * np.cos(2.0 * np.pi * np.arange(T) / T) - (m.a + m.d), spec.L))
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("eps", [1e-3, 0.05])
@pytest.mark.parametrize("spec", [SystemSpec(L=2),
                                  SystemSpec(L=3, subsystem=CatMapSpec(1, -1, -1, 2),
                                             topology=ALL_TO_ALL)],
                         ids=["L2", "L3-all-to-all"])
def test_continued_orbits_close_the_coupled_map(spec, eps):
    # the continuation solves for positions only; the momenta it implies,
    # b p_t = q_{t+1} - a q_t - n^q_t - b eps V'(q_t), must close the
    # kick-then-rotate map in the same fixed lift.  Every orbit converges at
    # eps = 1e-3; at eps = 0.05 Newton from the uncoupled orbit fails on 3 of
    # the 18 ring orbits and 5 of the 20 all-to-all ones
    m = spec.subsystem
    spec_e = dataclasses.replace(spec, epsilon=eps)
    L = spec.L
    cases = closed = 0
    for T in range(2, 7):
        for fam in itertools.islice(family_iterator(spec, T), 0, 28, 7):
            q0, n_off = phases._orbit_lift(fam, as_shift(range(L), L, T), m)
            q, ok = phases._newton_periodic(q0, n_off, spec_e)
            assert type(ok) is bool  # a plain bool, so a result with failed solves dumps to JSON
            cases += 1
            if not ok:
                continue
            closed += 1
            q_next = np.roll(q, -1, axis=0)
            p = (q_next - m.a * q - n_off[:, :L]) / m.b - eps * pair_gradient(q, spec)
            qn, pn = coupled_step_unreduced(q, p, spec_e)
            assert np.abs(qn + n_off[:, :L] - q_next).max() < 1e-12
            assert np.abs(pn + n_off[:, L:] - np.roll(p, -1, axis=0)).max() < 1e-12
    assert closed == cases if eps == 1e-3 else closed >= 15


def _full_period_family(spec, T, index=0):
    fams = [
        f for f in family_iterator(spec, T)
        if all(o.primitive_period == T for o in f.reps)
    ]
    return fams[index]


def test_phase_same_shift_is_exactly_zero():
    spec = SystemSpec(L=2)
    fam = _full_period_family(spec, 2)
    assert phase_difference(fam, (0, 1), (0, 1), spec) == 0.0


def test_phase_synchronous_shift_is_exactly_zero():
    spec = SystemSpec(L=2)
    for T in (2, 3, 4):
        fam = _full_period_family(spec, T)
        for c in range(1, T):
            assert phase_difference(fam, (0, 1), ((0 + c) % T, (1 + c) % T), spec) == 0.0


def test_phase_antisymmetry_exact():
    spec = SystemSpec(L=2)
    fam = _full_period_family(spec, 3, index=2)
    a = phase_difference(fam, (0, 1), (2, 0), spec)
    b = phase_difference(fam, (2, 0), (0, 1), spec)
    assert a == -b


def test_phase_against_direct_summation_oracle():
    spec = SystemSpec(L=2)
    T = 2
    fam = _full_period_family(spec, T)
    cycles = [float_position_cycle(o.representative, T, DEFAULT_MAP).tolist() for o in fam.reps]
    for r, s in (((0, 0), (0, 1)), ((1, 0), (0, 1)), ((0, 1), (1, 1))):
        want = phase_difference_direct(cycles, r, s, T)
        got = phase_difference(fam, r, s, spec)
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("L, picks", [
    (2, [(0, 1), (1, 2), (-1, 1), (2, 2)]),
    (3, [(1, 2, 3), (0, 1, 2), (-1, 2, 1)]),
])
def test_phase_difference_bitwise_equals_rolled_float_cycles(L, picks):
    # phase_difference reads positions off the exact lift (Python int / int);
    # the reference divides the float numerators in numpy and rolls each
    # cycle by its shift.  Both round the exact rational once, so positions
    # and Phi agree bit for bit.
    spec = SystemSpec(L=L)
    m = spec.subsystem
    for T in range(3, 7):
        orbits = subsystem_orbits(T, m)
        stair = tuple(range(L))
        pairs = [((0,) * L, stair), (stair, (0,) * L), (stair, tuple((v + 1) % T for v in stair)),
                 ((1,) + (0,) * (L - 1), (0,) * (L - 1) + (T - 1,)), (stair, stair),
                 ((2,) * L, (T - 1,) + (1,) * (L - 1))]
        for pick in picks:
            fam = OrbitFamily(tuple(orbits[i] for i in pick))
            for r, s in pairs:
                for shift in (r, s):
                    got = phases._orbit_lift(fam, shift, m)[0]
                    want = rolled_position_matrix(fam, shift, m)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                v_r = pair_potential(rolled_position_matrix(fam, r, m), spec)
                v_s = pair_potential(rolled_position_matrix(fam, s, m), spec)
                want = math.fsum(v_r.tolist() + (-v_s).tolist())
                assert phase_difference(fam, r, s, spec).hex() == want.hex()


def test_action_identity_eps0_and_quadratic_residual():
    spec = SystemSpec(L=2)
    fam = _full_period_family(spec, 2)
    res = action_difference_identity_check(fam, spec, [0.0, 1e-3, 1e-4, 1e-5], (0, 0), (0, 1))
    assert res.all_converged
    assert res.deltas[0] == 0.0  # eps = 0
    assert 1.8 <= res.exponent <= 2.2
    # residual ratio between consecutive decades is ~100
    ratios = [res.residuals[i] / res.residuals[i + 1] for i in (1, 2)]
    assert all(30 < r < 300 for r in ratios)


def test_action_identity_synchronous_pair_vanishes():
    spec = SystemSpec(L=2)
    fam = _full_period_family(spec, 3, index=1)
    res = action_difference_identity_check(fam, spec, [1e-3, 1e-4], (0, 1), (1, 2))
    assert res.phi == 0.0
    assert all(abs(d) < 1e-9 for d in res.deltas)


def _distinct_full_period_family(spec, T, index):
    """The index-th family of the benchmark's continuation menu: full period, distinct orbits."""
    fams = [f for f in family_iterator(spec, T)
            if all(o.primitive_period == T for o in f.reps)
            and f.reps[0].representative != f.reps[1].representative]
    return fams[index]


def test_action_identity_exponent_skips_rounding_residuals():
    # Phi = 0 and Delta cancels to all orders: the residuals are 1-2 ulp of the
    # continued actions, and a slope fitted to them would be rounding noise
    spec = SystemSpec(L=2)
    eps = [1e-3, 1e-4, 1e-5]
    res = action_difference_identity_check(_distinct_full_period_family(spec, 3, 0), spec, eps,
                                           (0, 1), (1, 0))
    assert res.all_converged and res.phi == 0.0
    assert max(res.residuals) < 1e-14
    assert math.isnan(res.exponent)
    # Phi is rounding-sized here too, but Delta is a true O(eps^2) term
    # (2.4e-8 at eps = 1e-5), so the fit is kept
    res = action_difference_identity_check(_distinct_full_period_family(spec, 3, 1), spec, eps,
                                           (0, 1), (1, 0))
    assert res.all_converged and 0.0 < abs(res.phi) < 1e-15
    assert 1.99 <= res.exponent <= 2.0


def test_action_identity_phi_bitwise_equals_phase_difference():
    # the continuation takes Phi from the lifts it continues; it must be
    # phase_difference's value bit for bit, synchronous pairs (exactly 0) included
    spec = SystemSpec(L=2)
    for T in range(3, 7):
        pairs = [((0, 0), (0, 1)), ((1, 0), (0, T - 1)), ((2, 2), (T - 1, 1)),
                 ((0, 1), (1, 2)), ((0, 1), (0, 1)), ((1, 1), (T - 1, T - 1))]
        fams = [f for f in family_iterator(spec, T) if all(o.primitive_period == T for o in f.reps)]
        for fam in fams[:3]:
            for r, s in pairs:
                phi = action_difference_identity_check(fam, spec, [0.0], r, s).phi
                assert phi.hex() == phase_difference(fam, r, s, spec).hex()
                if (s[0] - r[0] - s[1] + r[1]) % T == 0:
                    assert phi == 0.0


def test_action_identity_lifts_each_orbit_once(monkeypatch):
    lifted = []
    lift = phases._orbit_lift

    def counted(family, shift, m):
        lifted.append(shift)
        return lift(family, shift, m)

    monkeypatch.setattr(phases, "_orbit_lift", counted)
    spec = SystemSpec(L=2)
    fam = _full_period_family(spec, 3, index=1)
    res = action_difference_identity_check(fam, spec, [1e-3, 1e-4], (0, 1), (2, 0))
    assert res.all_converged
    assert lifted == [(0, 1), (2, 0)]


def test_sample_phase_distribution_zero_shift():
    spec = SystemSpec(L=2)
    sset = sample_phase_distribution(spec, 4, (0, 0), budget=2000, seed=1)
    assert np.all(sset.phi_tilde == 0.0)
    rep = clt_diagnostics(sset)
    assert rep.degenerate


def test_sample_phase_distribution_rejects_zero_budget():
    with pytest.raises(SpecError):
        sample_phase_distribution(SystemSpec(L=2), 4, (0, 1), budget=0, seed=1)


def test_sample_phase_mean_and_mode_label():
    spec = SystemSpec(L=2)
    sset = sample_phase_distribution(spec, 6, (0, 1), budget=60_000, seed=2)
    assert sset.mode == "exact"
    se = sset.phi_tilde.std() / math.sqrt(len(sset.phi_tilde))
    assert abs(sset.phi_tilde.mean()) < 4.0 * se
    sproxy = sample_phase_distribution(spec, 6, (0, 1), budget=60_000, seed=3, mode="proxy")
    assert sproxy.mode == "proxy"
    # exact and proxy sampling agree on the variance
    v1, v2 = sset.phi_tilde.var(), sproxy.phi_tilde.var()
    comb = math.hypot(v1, v2) * math.sqrt(2.0 / 60_000) * 2.0
    assert abs(v1 - v2) < 3.0 * comb + 0.05


def test_auto_mode_takes_proxy_above_max_period(monkeypatch):
    def no_count(T, m):
        raise AssertionError("auto mode counted period-T points above MAX_PERIOD")

    monkeypatch.setattr(phases, "periodic_point_count", no_count)
    sset = sample_phase_distribution(SystemSpec(L=2), MAX_PERIOD + 1, (0, 1), budget=1000, seed=4)
    assert sset.mode == "proxy"
    assert np.all(np.isfinite(sset.phi_tilde))


def test_auto_mode_switches_to_proxy_above_the_point_limit():
    counts = [periodic_point_count(T, DEFAULT_MAP) for T in (10, 11)]
    assert counts == [15_125, 39_601]
    assert counts[0] <= EXACT_SAMPLING_MAX_POINTS < counts[1]
    modes = [sample_phase_distribution(SystemSpec(L=2), T, (0, 1), budget=1000, seed=4).mode
             for T in (10, 11)]
    assert modes == ["exact", "proxy"]


def test_exact_sampling_matches_cycle_reference():
    # the reference samples points, stores their whole cycles, and sums V over
    # (t, t + s) rows of that table; the package steps lattice trajectories
    spec = SystemSpec(L=3, subsystem=CatMapSpec(1, 1, 2, 3), amplitude=0.7)
    T, s, budget, batch = 5, (0, 2, 4), 1000, 300
    nq_all, np_all, den = enumerate_lattice(T, spec.subsystem)
    m = spec.subsystem
    rng = philox(4)
    want = []
    for done in range(0, budget, batch):
        n = min(batch, budget - done)
        idx = rng.integers(0, len(nq_all), size=(n, spec.L))
        nq, np_ = nq_all[idx], np_all[idx]
        Q = np.empty((T, n, spec.L), dtype=np.int64)  # position numerators over den
        for t in range(T):
            Q[t] = nq
            nq, np_ = (m.a * nq + m.b * np_) % den, (m.c * nq + m.d * np_) % den

        def V(k):
            return spec.amplitude * reference_lattice_bond_sum(k, bonds(spec, spec.L), den)

        phi = np.zeros(n)
        for t in range(T):
            qs = np.column_stack([Q[(t + s[l]) % T, :, l] for l in range(spec.L)])
            phi += V(Q[t]) - V(qs)
        want.append(phi)
    got = sample_phase_distribution(spec, T, s, budget, seed=4, mode="exact", batch=batch)
    assert np.array_equal(got.phi_tilde, np.concatenate(want) / math.sqrt(T))


@pytest.mark.parametrize("m, T_ok, T_over", [(DEFAULT_MAP, 43, 44), (CatMapSpec(1, 1, 2, 3), 32, 33)])
def test_exact_sampling_range(m, T_ok, T_over):
    # the last period whose Smith index map fits int64 samples.  Beyond, its
    # products reach d2 (d1 + d2) >= 2**63 and the int64 points would silently
    # not be periodic, so both refuse; at T = 64 d1 d2 itself passes int64
    spec = SystemSpec(L=2, subsystem=m)
    sset = sample_phase_distribution(spec, T_ok, (0, 1), budget=1000, seed=3, mode="exact")
    assert sset.mode == "exact" and np.all(np.isfinite(sset.phi_tilde))
    zero = np.zeros(1, dtype=np.int64)
    for T in (T_over, MAX_PERIOD):
        with pytest.raises(SpecError, match="overflows the int64 index map"):
            lattice_points(smith_lattice(T, m), zero, zero)
        with pytest.raises(SpecError, match="overflows the int64 index map"):
            sample_phase_distribution(spec, T, (0, 1), budget=1000, seed=3, mode="exact")


def test_exact_sampling_lists_no_point():
    # T = 16 has 4,870,845 points; drawing indexes into their list took 80 MB
    spec = SystemSpec(L=2)

    def sample():
        return sample_phase_distribution(spec, 16, (0, 1), budget=100_000, seed=5, mode="exact")

    sset = sample()
    assert sset.mode == "exact" and len(sset.phi_tilde) == 100_000
    assert peak_mib(sample) < 10


def test_empirical_variance_matches_series_value():
    spec = SystemSpec(L=2)
    T, s = 32, (0, 1)
    sset = sample_phase_distribution(spec, T, s, budget=100_000, seed=5, mode="proxy")
    emp = sset.phi_tilde.var()
    emp_err = emp * math.sqrt(2.0 / len(sset.phi_tilde))
    sv = variance_series(spec, s, t_max=6, samples=200_000, seed=6)
    comb = math.hypot(emp_err, sv.std_error)
    assert abs(emp - sv.sigma2) <= 3.0 * comb + sv.truncation_bound


def test_clt_diagnostics_selftest_normal():
    rng = philox(7)
    rep = clt_diagnostics(rng.normal(0.0, 1.0, 100_000))
    assert rep.ks_distance < 0.01
    assert abs(rep.skewness) < 0.05
    assert abs(rep.excess_kurtosis) < 0.08


_CLT_ORACLE_INPUTS = {
    "normal": lambda rng: rng.normal(0.0, 1.0, 100_000),
    "exponential": lambda rng: rng.exponential(2.0, 50_000),
    "t3": lambda rng: rng.standard_t(3, 50_000),
    "near-constant": lambda rng: 3.0 + 1e-6 * rng.random(20_000),
    # exact mean: zero sigma (NaN KS distance) and zero m2 (NaN moments)
    "constant-0.5": lambda rng: np.full(5000, 0.5),
    # inexact mean: sigma > 0, m2 below scipy's constant-sample threshold
    "constant-0.1": lambda rng: np.full(5000, 0.1),
    "n=1000": lambda rng: rng.normal(0.3, 2.0, 1000),
    "exact-set": lambda rng: sample_phase_distribution(SystemSpec(L=2), 6, (0, 1), budget=20_000,
                                                       seed=22, mode="exact"),
    "proxy-set": lambda rng: sample_phase_distribution(SystemSpec(L=2), 6, (0, 1), budget=20_000,
                                                       seed=22, mode="proxy"),
}


@pytest.mark.parametrize("name", _CLT_ORACLE_INPUTS)
def test_clt_diagnostics_match_scipy_stats(name):
    samples = _CLT_ORACLE_INPUTS[name](philox(21))
    rep = clt_diagnostics(samples)
    vals = samples.phi_tilde if name.endswith("-set") else samples
    sigma = float(vals.std())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # scipy's catastrophic-cancellation note
        expected = {
            "skewness": float(stats.skew(vals)),
            "excess_kurtosis": float(stats.kurtosis(vals)),
            "ks_distance": float(stats.kstest(vals, "norm", args=(0.0, sigma)).statistic),
        }
    for key, want in expected.items():
        got = getattr(rep, key)
        assert got == want or (math.isnan(got) and math.isnan(want)), (key, got, want)
    assert rep.fitted_variance == sigma * sigma
    assert rep.n == len(vals) and not rep.degenerate


def _ndtr_edges():
    """a on each side of every branch of Cephes' ndtr, as steps of a few ulps."""
    cut = math.sqrt(phases._MAXLOG) / phases._SQRT1_2  # erfc underflows to exactly 0 beyond
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300, -1e300]
    for b in (phases._SQRT1_2, 1.0, 8.0, math.sqrt(phases._MAXLOG)):  # in units of x = a SQRT1_2
        a = b / phases._SQRT1_2
        edges += list(a + np.arange(-64, 65) * np.spacing(a))
    edges += list(np.linspace(cut - 1e-9, cut + 1e-9, 2001))
    edges = np.array(edges)
    return np.concatenate([edges, -edges]), cut


def test_ndtr_matches_scipy_bit_for_bit():
    edges, cut = _ndtr_edges()
    rng = philox(23)
    grids = {
        "edges": edges,
        "dense": np.linspace(-40.0, 40.0, 800_001),
        "normal": rng.standard_normal(1_000_000),
    }
    for name, a in grids.items():
        got, want = phases._ndtr(a), special.ndtr(a)
        bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert bad.size == 0, (name, a[bad[:5]], got[bad[:5]], want[bad[:5]])
    # beyond the MAXLOG cut the tail is exactly 0 or 1, not a subnormal
    assert phases._ndtr(np.array([-cut - 1e-6]))[0] == 0.0
    assert phases._ndtr(np.array([-cut + 1e-6]))[0] > 0.0
    assert phases._ndtr(np.array([cut + 1e-6]))[0] == 1.0


def test_clt_diagnostics_needs_enough_samples():
    with pytest.raises(SpecError):
        clt_diagnostics(np.zeros(10))


@pytest.mark.parametrize("spec, s", [(SystemSpec(L=2), (0, 3)),
                                     (SystemSpec(L=3, subsystem=CatMapSpec(1, 1, 2, 3),
                                                 amplitude=0.7), (0, 2, 5))])
def test_time_average_and_clt_read_one_phase_sampler(spec, s):
    # at T = horizon, proxy sampling draws the time average's starts and sums
    # the same Phi, so its phases give the full-horizon rung
    horizon, samples, seed = 16, 700, 9
    est = variance_time_average(spec, s, horizon, samples, seed, batch=300)
    sset = sample_phase_distribution(spec, horizon, s, samples, seed, mode="proxy", batch=300)
    assert est.s == sset.s
    mean = float(np.mean(sset.phi_tilde**2))
    assert abs(mean - est.sigma2) <= 1e-12 * est.sigma2


def test_variance_time_average_synchronous_coboundary():
    spec = SystemSpec(L=2)
    est = variance_time_average(spec, (1, 1), horizon=512, samples=20_000, seed=8)
    assert est.sigma2 < 3.0 * est.std_error + 0.05


def test_variance_time_average_shift_invariance():
    spec = SystemSpec(L=2)
    a = variance_time_average(spec, (0, 1), horizon=256, samples=20_000, seed=9)
    b = variance_time_average(spec, (2, 3), horizon=256, samples=20_000, seed=10)
    comb = math.hypot(a.std_error, b.std_error)
    assert abs(a.sigma2 - b.sigma2) <= 3.0 * comb


def test_variance_nearest_neighbour_additivity_three_sites():
    spec = SystemSpec(L=3)
    s = (0, 1, 2)
    full = variance_time_average(spec, s, horizon=256, samples=40_000, seed=11)
    seeds = (12, 13, 14)
    parts = []
    for l, seed in enumerate(seeds):
        # one table per bond, so the three estimates are independently seeded
        st = abs(s[l] - s[(l + 1) % 3])
        table = per_bond_variance_table(SystemSpec(L=2), st + 1, samples=40_000, seed=seed,
                                        horizon=256)
        parts.append((table.sigma2[st], table.std_error[st]))
    total = sum(v for v, _ in parts)
    comb = math.sqrt(full.std_error**2 + sum(e**2 for _, e in parts))
    assert abs(full.sigma2 - total) <= 3.0 * comb


def _synthetic_series(c_sync, t_max):
    """variance_series' sum and tail fit on an exact model: C(t*1) = c_sync(t), else 0."""
    def correlation(shift, samples, seed):
        return (c_sync(shift[0]) if len(set(shift)) == 1 else 0.0), 0.0

    sigma2, err, sync = _series_sum(correlation, (0, 1), t_max, 1, 0)
    eta_hat, bound = _fit_tail([v for v, _ in sync], [e for _, e in sync])
    return sigma2, err, eta_hat, bound


def test_variance_series_geometric_oracle():
    eta = 0.5
    sigma2, err, eta_hat, bound = _synthetic_series(lambda t: eta ** abs(t), t_max=60)
    assert abs(sigma2 - geometric_series_variance(eta)) < 1e-9
    assert sigma2 == pytest.approx(6.0, abs=1e-9)
    assert err == 0.0
    assert eta_hat == pytest.approx(eta, rel=1e-9)
    assert bound < 1e-12


def test_variance_series_instantaneous_model():
    c0 = 0.7
    sigma2, _, _, bound = _synthetic_series(lambda t: c0 if t == 0 else 0.0, t_max=10)
    assert sigma2 == pytest.approx(2.0 * c0, abs=1e-15)
    assert bound == 0.0


def test_variance_series_rejects_nondecaying():
    with pytest.raises(SeriesError):
        _synthetic_series(lambda t: 1.0, t_max=10)


def test_variance_estimators_agree_on_default_system():
    spec = SystemSpec(L=2)
    s = (0, 1)
    ta = variance_time_average(spec, s, horizon=512, samples=30_000, seed=15)
    sv = variance_series(spec, s, t_max=6, samples=150_000, seed=16)
    comb = math.hypot(ta.std_error, sv.std_error)
    assert abs(ta.sigma2 - sv.sigma2) <= 3.0 * comb + sv.truncation_bound
    # the L = 2 ring doubles the bond, so the exact value is 4 (per-bond variance 1)
    assert abs(ta.sigma2 - 4.0) <= 4.0 * ta.std_error


@pytest.mark.parametrize("ladder, ok", [
    (((16, 4.0, 0.1), (32, 4.1, 0.1), (64, 4.0, 0.1)), True),
    # consecutive rungs 0.15 apart, combined error 0.1414
    (((16, 4.0, 0.1), (32, 4.15, 0.1), (64, 4.15, 0.1)), False),
    (((16, 4.0, 0.1), (32, 4.0, 0.1), (64, 4.15, 0.1)), False),
    # quarter and full rungs disagree, but only consecutive rungs are compared
    (((16, 3.9, 0.1), (32, 4.0, 0.1), (64, 4.1, 0.1)), True),
    (((8, 4.0, 0.0), (16, 4.0, 0.0)), True),
    (((8, 4.0, 0.0), (16, 4.0 + 1e-12, 0.0)), False),
])
def test_plateau_flag_on_fixed_ladders(ladder, ok):
    assert _plateau_ok(ladder) is ok


@pytest.mark.parametrize("amplitude", [1.0, 0.7])
def test_variances_against_exact_values(amplitude):
    # per-bond sigma^2(s~ != 0) is amplitude^2, the L = 2 ring's full shift 4 amplitude^2
    spec = SystemSpec(L=2, amplitude=amplitude)
    table = per_bond_variance_table(spec, 5, samples=20_000, seed=19, horizon=64)
    for st in range(1, 5):
        assert abs(table.sigma2[st] - amplitude**2) <= 5.0 * table.std_error[st]
    full = variance_time_average(spec, (0, 1), horizon=64, samples=20_000, seed=20)
    assert abs(full.sigma2 - 4.0 * amplitude**2) <= 5.0 * full.std_error


def test_per_bond_table_structure():
    spec = SystemSpec(L=2)
    table = per_bond_variance_table(spec, 5, samples=10_000, seed=17, horizon=160)
    assert table.sigma2[0] == 0.0 and table.std_error[0] == 0.0
    for st in range(1, 5):
        v, e = table.sigma2[st], table.std_error[st]
        assert v == pytest.approx(1.0, abs=4.0 * e)
    assert table.T == 5
    assert table.sigma2.shape == table.std_error.shape == (5,)


def test_per_bond_table_series_estimator():
    spec = SystemSpec(L=2)
    table = per_bond_variance_table(spec, 3, estimator="series", samples=60_000,
                                    seed=18, t_max=5)
    for st in (1, 2):
        v, e = table.sigma2[st], table.std_error[st]
        assert v == pytest.approx(1.0, abs=4.0 * e)


def test_per_bond_table_requires_nn_topology():
    with pytest.raises(SpecError):
        per_bond_variance_table(SystemSpec(L=2, topology=ALL_TO_ALL), 4)


def test_time_average_rejects_zero_samples():
    with pytest.raises(SpecError, match="samples"):
        variance_time_average(SystemSpec(L=2), (1, 0), 16, 0, seed=1)
    with pytest.raises(SpecError, match="samples"):
        per_bond_variance_table(SystemSpec(L=2), 2, samples=0, horizon=16)


def test_variance_table_validation():
    with pytest.raises(TableError, match="sigma2"):
        VarianceTable([0.5, 1.0, 1.0], [0.0, 0.0, 0.0])
    with pytest.raises(TableError, match="negative variance at shift 1"):
        VarianceTable([0.0, -1.0], [0.0, 0.0])
    # a negative estimate within three standard errors of zero is noise, not an error
    VarianceTable([0.0, -0.2], [0.0, 0.1])
