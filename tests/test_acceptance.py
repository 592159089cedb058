"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.
"""
import csv
import math
import time

import numpy as np

from sfflab import phases
from sfflab.dynamics import DEFAULT_MAP, SystemSpec
from sfflab.harness import validate_config, run_experiment
from sfflab.orbits import enumerate_lattice, family_iterator, periodic_point_count, sum_rule_check
from sfflab.phases import (
    VarianceTable,
    _fit_tail,
    _series_sum,
    action_difference_identity_check,
    clt_diagnostics,
    sample_phase_distribution,
    variance_series,
    variance_time_average,
)
from sfflab.potts import PottsParams, bound_check, closed_form_sff, prediction, sff_transfer
from sfflab.quantum import RATIO_TOL, CircuitSpec, compare, sff_numeric
from sfflab.util import philox

from oracles import brute_force_periodic_points, geometric_series_variance


def _report(num: int, desc: str, ok: bool, detail: str, t0: float, budget: float | None):
    dt = time.monotonic() - t0
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {status} [{dt:6.1f} s] {desc} :: {detail}")
    assert ok, f"criterion {num} failed: {detail}"
    if budget is not None:
        assert dt < budget, f"criterion {num} exceeded its {budget:.0f} s runtime budget ({dt:.1f} s)"


def test_criterion_01_closed_form_transfer_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for L in range(1, 6):
        for chi in (0.01, 0.5, 0.975, 0.999):
            params = PottsParams.from_chi(L=L, T_H=32.0, chi=chi)
            for T in range(2, 65):
                kt = sff_transfer(VarianceTable.potts(T, 1.0), params).values[0]
                kc = closed_form_sff(params, [float(T)]).values[0]
                worst = max(worst, abs(kt - kc) / kc)
    _report(1, "closed-form vs transfer-matrix equivalence",
            worst <= 1e-12, f"max relative deviation {worst:.2e} (tol 1e-12)", t0, 5.0)


def test_criterion_02_fig1_reproduction(tmp_path):
    t0 = time.monotonic()
    cfg = validate_config({
        "kind": "predict", "seed": 1, "outdir": str(tmp_path / "fig1"),
        "predict": {"L": 3, "chi": 0.975, "T_H": 100.0,
                    "T_start": 1.0, "T_stop": 1e5, "T_points": 400},
    })
    run_experiment(cfg)
    with open(tmp_path / "fig1/predict_sff.csv") as f:
        f.readline()
        rows = list(csv.DictReader(f))
    main = [(float(r["T"]), float(r["K"])) for r in rows if r["mode"] == "closed-form"]
    lim1 = [(float(r["T"]), float(r["K"])) for r in rows if r["mode"] == "limit-chi1"]
    lim0 = [(float(r["T"]), float(r["K"])) for r in rows if r["mode"] == "limit-chi0"]
    t1 = np.array([t for t, _ in lim1])
    k1 = np.array([k for _, k in lim1])
    ok_lim1 = bool(np.array_equal(k1, t1**3))  # bitwise: the branch IS T^L
    ok_lim0 = all(k == t for t, k in lim0)
    T = np.array([t for t, _ in main])
    K = np.array([k for _, k in main])
    dK = np.diff(K)
    maxima = int(np.sum((dK[:-1] > 0) & (dK[1:] <= 0)))
    end_dev = abs(K[-1] / T[-1] - 1.0)
    ok = ok_lim1 and ok_lim0 and maxima == 1 and end_dev <= 1e-6
    _report(2, "Fig-1 curve: caption limits exact, bump-ramp shape",
            ok, f"chi=1 exact {ok_lim1}, chi=0 exact {ok_lim0}, "
                f"interior maxima {maxima}, |K/T-1| at end {end_dev:.1e}", t0, 5.0)


def test_criterion_03_orbit_count_oracle():
    t0 = time.monotonic()
    ok = True
    detail = []
    for T in range(1, 13):
        n = len(enumerate_lattice(T, DEFAULT_MAP)[0])
        want = periodic_point_count(T, DEFAULT_MAP)
        ok = ok and n == want
        detail.append(f"T{T}:{n}")
    for T in range(1, 7):
        from fractions import Fraction
        nq, np_, den = enumerate_lattice(T, DEFAULT_MAP)
        pts = {(Fraction(a, den), Fraction(b, den)) for a, b in zip(nq.tolist(), np_.tolist())}
        oracle, det = brute_force_periodic_points(T, 2, 1, 1, 1)
        want = {(Fraction(a, det), Fraction(b, det)) for a, b in oracle}
        ok = ok and pts == want
    _report(3, "orbit counts = |tr M^T - 2| (T<=12), brute-force oracle (T<=6)",
            ok, " ".join(detail), t0, 30.0)


def test_criterion_04_sum_rule():
    t0 = time.monotonic()
    worst = 0.0
    for T in range(1, 13):
        worst = max(worst, abs(sum_rule_check(T, DEFAULT_MAP) - 1.0))
    _report(4, "Hannay-Ozorio sum rule sum(A^2) = 1 for T<=12",
            worst <= 1e-12, f"max |sum - 1| = {worst:.2e}", t0, None)


def test_criterion_05_action_difference_identity():
    t0 = time.monotonic()
    spec = SystemSpec(L=2)
    eps_list = [1e-3, 1e-4, 1e-5]
    shift_menu = {
        3: [((0, 1), (1, 0))],
        4: [((0, 1), (1, 0)), ((0, 2), (1, 0)), ((0, 1), (2, 0))],
        5: [((0, 1), (1, 0)), ((0, 2), (1, 0)), ((0, 1), (2, 0))],
        6: [((0, 1), (1, 0)), ((0, 2), (1, 0)), ((0, 1), (2, 0))],
    }
    exponents = []
    for T, pairs in shift_menu.items():
        fams = [
            f for f in family_iterator(spec, T)
            if all(o.primitive_period == T for o in f.reps)
            and f.reps[0].representative != f.reps[1].representative
        ]
        for fam in fams[:3]:
            for r, s in pairs:
                res = action_difference_identity_check(fam, spec, eps_list, r, s)
                if not res.all_converged:
                    continue
                if max(res.residuals) < 1e-12:  # degenerate symmetric pair
                    continue
                exponents.append(res.exponent)
    # Pairs on symmetry lines can have a suppressed quadratic coefficient
    # (residual ~ eps^3): a stronger form of the identity, not a violation.
    # Required: the residual is never less than quadratically suppressed, and
    # at least 20 generic pairs fit the quadratic exponent band.
    in_band = [e for e in exponents if 1.8 <= e <= 2.2]
    super_quadratic = [e for e in exponents if e > 2.2]
    ok = (
        len(in_band) >= 20
        and all(e >= 1.8 for e in exponents)
        and 1.8 <= float(np.median(exponents)) <= 2.2
    )
    _report(5, "first-order action identity |Delta - eps*Phi| ~ eps^2 on >= 20 pairs",
            ok, f"{len(in_band)} pairs fit 2.0 +/- 0.2 (of {len(exponents)}; "
                f"{len(super_quadratic)} symmetry-suppressed pairs at exponent ~3), "
                f"range [{min(exponents):.2f}, {max(exponents):.2f}]",
            t0, None)


def test_criterion_05_rule_rejects_a_perturbed_phase(monkeypatch):
    # negative control: Phi scaled by 1 + 1e-3 adds the first-order residual 1e-3 eps Phi,
    # which pulls the fitted exponent toward 1, below acceptance 05's floor of 1.8
    spec = SystemSpec(L=2)
    eps_list = [1e-3, 1e-4, 1e-5]

    def first_quadratic_pair():
        # the first pair of acceptance 05's T = 4 menu that fits the quadratic band
        for f in family_iterator(spec, 4):
            if (all(o.primitive_period == 4 for o in f.reps)
                    and f.reps[0].representative != f.reps[1].representative):
                for r, s in (((0, 1), (1, 0)), ((0, 2), (1, 0)), ((0, 1), (2, 0))):
                    res = action_difference_identity_check(f, spec, eps_list, r, s)
                    if (res.all_converged and max(res.residuals) >= 1e-12
                            and 1.8 <= res.exponent <= 2.2):
                        return f, r, s, res

    fam, r, s, exact = first_quadratic_pair()
    shifted_lifts = phases._shifted_lifts

    def perturbed(*args):
        *lifts, phi = shifted_lifts(*args)
        return (*lifts, phi * (1.0 + 1e-3))

    monkeypatch.setattr(phases, "_shifted_lifts", perturbed)
    res = action_difference_identity_check(fam, spec, eps_list, r, s)
    margin = res.exponent - 1.8
    print(f"\nCONTROL 05 Phi scaled by 1 + 1e-3: exponent {res.exponent:.3f} "
          f"(exact Phi {exact.exponent:.3f}), margin {margin:+.3f}")
    assert res.all_converged and res.phi == exact.phi * (1.0 + 1e-3)
    assert margin < 0


def test_criterion_06_variance_shift_invariance():
    t0 = time.monotonic()
    spec = SystemSpec(L=2)
    T = 16
    rng = philox(616)
    n_ok = 0
    worst = 0.0
    for i in range(20):
        while True:
            s = tuple(int(v) for v in rng.integers(0, T, size=2))
            if len(set(s)) > 1:  # synchronous class tested as the coboundary case
                break
        t_shift = int(rng.integers(1, T))
        s2 = tuple((v + t_shift) % T for v in s)
        e1 = variance_time_average(spec, s, horizon=256, samples=8000, seed=7000 + 2 * i)
        e2 = variance_time_average(spec, s2, horizon=256, samples=8000, seed=7001 + 2 * i)
        comb = math.hypot(e1.std_error, e2.std_error)
        drift = abs(e1.ladder[-1][1] - e1.ladder[-2][1]) + abs(e2.ladder[-1][1] - e2.ladder[-2][1])
        dev = abs(e1.sigma2 - e2.sigma2)
        if dev <= 3.0 * comb + drift:
            n_ok += 1
        worst = max(worst, dev / max(comb, 1e-12))
    _report(6, "variance invariant under synchronous shifts (20 random pairs, T=16)",
            n_ok == 20, f"{n_ok}/20 within 3 combined errors (worst dev {worst:.2f} sigma)",
            t0, None)


def test_criterion_07_variance_estimator_agreement():
    t0 = time.monotonic()
    spec = SystemSpec(L=2)
    s = (0, 1)
    ta = variance_time_average(spec, s, horizon=512, samples=40_000, seed=77)
    se = variance_series(spec, s, t_max=8, samples=200_000, seed=78)
    comb = math.hypot(ta.std_error, se.std_error)
    agree = abs(ta.sigma2 - se.sigma2) <= 3.0 * comb + se.truncation_bound

    # variance_series' own sum and tail fit on the exact model C(t*1) = 0.5^|t|, else 0
    def geometric(shift, samples, seed):
        return (0.5 ** abs(shift[0]) if len(set(shift)) == 1 else 0.0), 0.0

    sigma2, _, sync = _series_sum(geometric, (0, 1), 80, 1, 0)
    eta_hat, _ = _fit_tail([v for v, _ in sync], [e for _, e in sync])
    geo_ok = (abs(sigma2 - geometric_series_variance(0.5)) <= 1e-9 and abs(sigma2 - 6.0) <= 1e-9
              and abs(eta_hat - 0.5) <= 1e-9)
    _report(7, "time-average and correlation-series variances agree; geometric model exact",
            agree and geo_ok,
            f"time-avg {ta.sigma2:.4f}+-{ta.std_error:.4f} vs series {se.sigma2:.4f}"
            f"+-{se.std_error:.4f}; geometric sigma2 = {sigma2:.12f}", t0, 120.0)


# acceptance 08's band on the T = 32 moments
CLT_SKEWNESS_BAND = 0.1
CLT_KURTOSIS_BAND = 0.2


def _clt_band_margin(rep) -> float:
    """How far the moments sit inside acceptance 08's band; negative outside it."""
    return min(CLT_SKEWNESS_BAND - abs(rep.skewness),
               CLT_KURTOSIS_BAND - abs(rep.excess_kurtosis))


def test_criterion_08_clt_diagnostics():
    t0 = time.monotonic()
    spec = SystemSpec(L=2)
    s = (0, 1)
    budget = 100_000
    ks = {}
    reports = {}
    for T, seed in ((8, 801), (16, 802), (32, 803)):
        sset = sample_phase_distribution(spec, T, s, budget=budget, seed=seed, mode="proxy")
        rep = clt_diagnostics(sset)
        ks[T] = rep.ks_distance
        reports[T] = rep
    r32 = reports[32]
    slack = 3.0 / math.sqrt(budget)
    monotone = ks[16] <= ks[8] + slack and ks[32] <= ks[16] + slack
    ok = _clt_band_margin(r32) > 0 and monotone
    _report(8, "CLT: T=32 moments within band, KS non-increasing over T in {8,16,32}",
            ok, f"skew {r32.skewness:+.4f}, kurtosis {r32.excess_kurtosis:+.4f}, "
                f"KS {ks[8]:.4f} -> {ks[16]:.4f} -> {ks[32]:.4f}", t0, 300.0)


def test_criterion_08_band_rejects_a_uniform_sample():
    # negative control: a unit-variance uniform sample, excess kurtosis -6/5
    rep = clt_diagnostics(philox(808).uniform(-math.sqrt(3.0), math.sqrt(3.0), 100_000))
    margin = _clt_band_margin(rep)
    print(f"\nCONTROL 08 uniform sample: skew {rep.skewness:+.4f}, "
          f"kurtosis {rep.excess_kurtosis:+.4f}, band margin {margin:+.4f}")
    assert abs(rep.excess_kurtosis + 1.2) < 0.05
    assert margin < 0


def test_criterion_09_quantum_factorization():
    t0 = time.monotonic()
    from sfflab.quantum import build_circuit, ensemble_members, subsystem_unitaries, trace_powers

    spec = CircuitSpec(L=2, N=16, lam=0.0, members=2, seed=99)
    worst = 0.0
    for mem in ensemble_members(spec):
        k_full = np.abs(trace_powers(build_circuit(spec, mem), 64).traces) ** 2
        subs = subsystem_unitaries(spec, mem)
        k_prod = (np.abs(trace_powers(subs[0], 64).traces) ** 2
                  * np.abs(trace_powers(subs[1], 64).traces) ** 2)
        worst = max(worst, float(np.max(np.abs(k_full - k_prod) / np.maximum(k_prod, 1.0))))
    _report(9, "K(t) factorizes exactly over subsystem traces at eps = 0 (L=2, N=16)",
            worst <= 1e-9, f"max relative deviation {worst:.2e} (floating rounding only)",
            t0, None)


def test_criterion_10_quantum_vs_prediction():
    t0 = time.monotonic()
    chi = 0.9
    lam = -2.0 * math.log(chi)  # per-bond sigma2_phi = 1 for the default observable
    spec = CircuitSpec(L=2, N=16, lam=lam, members=384, seed=1010)
    T_H = spec.T_H
    series = sff_numeric(spec, t_max=320)

    # bump-then-ramp ordering: the band a few subsystem Heisenberg times in
    # (where the subsystem bump tops out) sits above the mid-time dip band
    # around the theory's minimum; paired per-member statistics
    t = series.times
    T_SH = spec.N
    sel_bump = (t >= 1.5 * T_SH) & (t <= 4.5 * T_SH)
    sel_dip = (t >= 0.40 * T_H) & (t <= 0.67 * T_H)
    per_member = series.member_values
    diff = per_member[:, sel_bump].mean(axis=1) - per_member[:, sel_dip].mean(axis=1)
    gap = float(diff.mean())
    gap_err = float(diff.std(ddof=1) / math.sqrt(len(diff)))
    bump_mean, bump_err = series.band_mean(1.5 * T_SH, 4.5 * T_SH)
    dip_mean, dip_err = series.band_mean(0.40 * T_H, 0.67 * T_H)
    bump_ok = gap > 3.0 * gap_err

    # late-time agreement against the theory curve in its scaled (kappa) form:
    # the raw closed form overcounts beyond the subsystem Heisenberg time
    params = PottsParams.from_chi(L=2, T_H=float(T_H), chi=chi)
    pred = prediction(params, "kappa", t)
    rep = compare(series, pred)
    ok = bump_ok and rep.passed
    _report(10, "quantum SFF: bump-then-ramp ordering and late-time theory agreement",
            ok,
            f"bump band {bump_mean:.0f}+-{bump_err:.0f} > dip band {dip_mean:.0f}"
            f"+-{dip_err:.0f} ({gap/max(gap_err,1e-12):.1f} sigma); "
            f"late ratio {rep.late_mean_ratio:.3f} (tol {RATIO_TOL}); slopes "
            f"{rep.slope_series:+.3f} vs {rep.slope_prediction:+.3f}", t0, 900.0)


def test_criterion_11_deviation_bound():
    t0 = time.monotonic()
    grid = np.unique(np.geomspace(2, 512, 40).astype(int))
    families = ((0.5, 1.0), (0.35, 0.8), (0.7, 1.3))
    ok = True
    details = []
    for eta, theta in families:
        res = bound_check(PottsParams(L=2, T_H=16.0, lam=2.0), f0=1.0, eta=eta, theta=theta,
                          T_grid=grid)
        fam_ok = res.dominated and res.relative_deviation[-1] < 1e-3
        ok = ok and fam_ok
        details.append(f"eta={eta}/theta={theta}: dominated={res.dominated}, "
                       f"final rel dev {res.relative_deviation[-1]:.1e}")
    _report(11, "deviation bound dominates |K - K0| on three subexponential families",
            ok, "; ".join(details), t0, None)
