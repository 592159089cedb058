"""First-order phase statistics along orbit families.

Phase differences between shifted orbits of a family, their rescaled (CLT)
distribution, and the shift-dependent variances computed two independent
ways: the ergodic time average and the two-sided correlation series.  Also
hosts the finite-coupling orbit continuation used to check that continued
action differences are first-order in the coupling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import (
    NEAREST_NEIGHBOUR,
    CatMapSpec,
    SpecError,
    SystemSpec,
    estimate_correlation,
    frame_batches,
    pair_gradient,
    pair_hessian,
    pair_potential,
    step_arrays,
)
from .orbits import MAX_PERIOD, OrbitFamily, as_shift, periodic_point_count, smith_lattice
from .util import spawn_seeds


class SeriesError(ValueError):
    """Correlation series cannot be summed (non-decaying fit)."""


class TableError(ValueError):
    """Variance table is malformed or inconsistent."""


@dataclass
class PhaseSampleSet:
    """Batch of rescaled phases Phi/sqrt(T) with sampling provenance."""

    phi_tilde: np.ndarray
    T: int
    s: tuple[int, ...]
    mode: str  # "exact" (periodic points) or "proxy" (uniform initial conditions)
    seed: int


@dataclass
class CltReport:
    n: int
    skewness: float
    excess_kurtosis: float
    ks_distance: float
    fitted_variance: float
    degenerate: bool = False


@dataclass
class VarianceEstimate:
    sigma2: float
    std_error: float
    horizon: int
    plateau_ok: bool
    ladder: tuple  # ((horizon, sigma2, err), ...)
    s: tuple[int, ...]
    seed: int


@dataclass
class SeriesVariance:
    sigma2: float
    std_error: float
    truncation_bound: float
    eta_hat: float
    t_max: int
    s: tuple[int, ...]
    seed: int


@dataclass
class VarianceTable:
    """Per-bond variances sigma2[s~] and their standard errors for the relative
    shifts s~ = 0..T-1; the sole dynamical input to the SFF."""

    sigma2: np.ndarray
    std_error: np.ndarray

    def __post_init__(self):
        self.sigma2 = np.asarray(self.sigma2, dtype=float)
        self.std_error = np.asarray(self.std_error, dtype=float)
        if self.sigma2.ndim != 1 or self.sigma2.shape != self.std_error.shape or not self.T:
            raise TableError(f"sigma2 and std_error must be nonempty 1-D arrays of one length, "
                             f"got shapes {self.sigma2.shape} and {self.std_error.shape}")
        if self.sigma2[0] != 0.0:
            raise TableError("per-bond table must have sigma2(0) = 0")
        negative = np.flatnonzero(self.sigma2 < -3.0 * self.std_error - 1e-12)
        if negative.size:
            raise TableError(f"negative variance at shift {negative[0]}")

    @property
    def T(self) -> int:
        return len(self.sigma2)

    @classmethod
    def potts(cls, T: int, sigma2_phi: float) -> "VarianceTable":
        sigma2 = np.full(T, float(sigma2_phi))
        sigma2[0] = 0.0
        return cls(sigma2, np.zeros(T))


# ---------------------------------------------------------------------------
# phase differences along families


def _shifted_lifts(family: OrbitFamily, r, s, spec: SystemSpec):
    """(q0, w, Phi): the lifts of phi^r and phi^s stacked, each (2, T, L), each orbit lifted once.

    Phi is summed with math.fsum so that synchronous pairs (s - r parallel to
    the diagonal) cancel exactly: the two sums then contain identical floating
    terms as multisets.
    """
    if family.L != spec.L:
        raise SpecError("family size does not match the system")
    q0, w = map(np.stack, zip(*(_orbit_lift(family, as_shift(v, family.L, family.period),
                                            spec.subsystem) for v in (r, s))))
    v_r, v_s = pair_potential(q0, spec)
    return q0, w, math.fsum(v_r.tolist() + (-v_s).tolist())


# ---------------------------------------------------------------------------
# finite-coupling orbit continuation (first-order identity)

_NEWTON_TOL = 1e-12  # max |R| of a converged orbit
_NEWTON_MAX_ITER = 60


@dataclass
class ContinuationResult:
    eps: tuple[float, ...]
    deltas: tuple[float, ...]
    residuals: tuple[float, ...]
    phi: float
    exponent: float
    converged: tuple[bool, ...]

    @property
    def all_converged(self) -> bool:
        return all(self.converged)


def _orbit_lift(family: OrbitFamily, shift: tuple[int, ...], m: CatMapSpec):
    """Unperturbed orbit positions q0 and their linear-code integers w, both (T, L) floats.

    w_t = q_{t+1} - (a + d) q_t + q_{t-1} exactly on the lattice cycle
    (Percival & Vivaldi's linear code, Physica D 27, 373 (1987)): the
    integers of the position-form periodicity residual.
    """
    T, L = family.period, family.L
    q0 = np.empty((T, L))
    w = np.empty((T, L))
    for l, (orbit, off) in enumerate(zip(family.reps, shift)):
        qs, ps, den = orbit.cycle_lattice(m)
        if step_arrays(qs[-1], ps[-1], m, den) != (qs[0], ps[0]):
            raise SpecError("representative cycle is not exactly periodic")
        qs = qs[off:] + qs[:off]
        for t in range(T):
            q0[t, l] = qs[t] / den
            w[t, l] = (qs[(t + 1) % T] - (m.a + m.d) * qs[t] + qs[t - 1]) // den
    return q0, w


def _periodicity_residual(q, w, spec: SystemSpec, eps: float):
    """R_t = q_{t+1} - (a + d) q_t + q_{t-1} - b eps V'(q_t) - w_t, shape (..., T, L).

    The kick-then-rotate lift q_{t+1} = a q_t + b (p_t + eps V'(q_t)) + n^q_t,
    p_{t+1} = c q_t + d (p_t + eps V'(q_t)) + n^p_t with det M = 1 eliminates
    the momenta: times b, never divided by it, with the linear-code integers
    w_t = n^q_t - d n^q_{t-1} + b n^p_{t-1} (_orbit_lift).
    """
    m = spec.subsystem
    kick = eps * pair_gradient(q, spec)
    return np.roll(q, -1, axis=-2) - (m.a + m.d) * q + np.roll(q, 1, axis=-2) - m.b * kick - w


def _periodicity_jacobian(q, spec: SystemSpec, eps: float):
    """(..., TL, TL) Jacobians of _periodicity_residual: kron(C, I_L) minus the block-diagonal
    b eps V''(q_t), C the T x T circulant with -(a + d) on the diagonal and 1 at t +- 1."""
    *batch, T, L = q.shape
    m = spec.subsystem
    eye = np.eye(T)
    J = np.kron(np.roll(eye, 1, axis=0) + np.roll(eye, -1, axis=0) - (m.a + m.d) * eye, np.eye(L))
    J = np.broadcast_to(J, (*batch, T * L, T * L)).copy()
    J.reshape(*batch, T, L, T, L).swapaxes(-3, -2)[..., range(T), range(T), :, :] -= (
        m.b * (eps * pair_hessian(q, spec)))
    return J


def _newton_periodic(q0, w, spec: SystemSpec, eps: float, _eps0=0.0, _depth=6):
    """Newton on the position-form periodicity system with the integers w, from q0 at _eps0.

    A (..., T, L) stack is one system, its residual the largest |R| of any orbit.
    Full steps while each lowers the residual; when one does not, or the Jacobian is
    singular, q0 is first continued to the midpoint coupling (at most _depth halvings).
    Returns (q, converged), converged a Python bool: the residual fell below _NEWTON_TOL.
    """
    q, G = q0, _periodicity_residual(q0, w, spec, eps)
    res = np.abs(G).max()
    for _ in range(_NEWTON_MAX_ITER):
        if res < _NEWTON_TOL:
            break
        try:
            dq = np.linalg.solve(_periodicity_jacobian(q, spec, eps),
                                 -G.reshape(*q.shape[:-2], -1, 1))
        except np.linalg.LinAlgError:
            break
        q_try = q + dq.reshape(q.shape)
        G_try = _periodicity_residual(q_try, w, spec, eps)
        r_try = np.abs(G_try).max()
        if not r_try < res:
            break
        q, G, res = q_try, G_try, r_try
    if res >= _NEWTON_TOL and _depth:
        mid = (_eps0 + eps) / 2.0
        q_mid, ok = _newton_periodic(q0, w, spec, mid, _eps0, _depth - 1)
        if ok:
            return _newton_periodic(q_mid, w, spec, eps, mid, _depth - 1)
    return q, bool(res < _NEWTON_TOL)


def _orbit_action(q, w, spec: SystemSpec, eps: float):
    """S = sum_t [(a + d)/2 q_t^2 - q_t q_{t+1} + w_t q_t] / b + eps sum_t V(q_t).

    One math.fsum per orbit of q and w (..., T, L), as .tolist() returns them.  Its gradient
    is -R/b (_periodicity_residual), so the continued orbit is critical and dS/d(eps) is the
    explicit interaction sum alone.  Every term belongs to one site and one time slot, so two
    shifts of one family sum identical multisets at eps = 0 and the action difference
    vanishes exactly there.
    """
    m = spec.subsystem
    kin = ((m.a + m.d) / 2.0 * q - np.roll(q, -1, axis=-2) + w) * q / m.b
    terms = np.concatenate([kin.reshape(*q.shape[:-2], -1), eps * pair_potential(q, spec)], -1)
    return np.apply_along_axis(math.fsum, -1, terms).tolist()


def action_difference_identity_check(
    family: OrbitFamily,
    spec: SystemSpec,
    eps_list: Sequence[float],
    r,
    s,
) -> ContinuationResult:
    """Continue the orbit pair (phi^r, phi^s) in eps and test Delta = eps*Phi + O(eps^2).

    The exponent fits the residuals |Delta - eps*Phi| above 16 ulp of the larger continued
    action (rounding has no exponent to fit), and is NaN when fewer than two remain.
    SpecError names an eps that is negative or not finite.
    """
    for eps in eps_list:
        if not 0.0 <= eps < math.inf:
            raise SpecError(f"eps must be finite and >= 0, got {eps}")
    q0, w, phi = _shifted_lifts(family, r, s, spec)

    deltas, residuals, converged, pts = [], [], [], []
    for eps in eps_list:
        q, ok = _newton_periodic(q0, w, spec, eps)
        d = res = float("nan")
        if ok:
            a_r, a_s = _orbit_action(q, w, spec, eps)
            d = a_r - a_s
            res = abs(d - eps * phi)
            if eps > 0 and res > 16.0 * math.ulp(max(abs(a_r), abs(a_s))):
                pts.append((eps, res))
        deltas.append(d)
        residuals.append(res)
        converged.append(ok)

    if len(pts) >= 2:
        le = np.log10([p[0] for p in pts])
        lr = np.log10([p[1] for p in pts])
        exponent = float(np.polyfit(le, lr, 1)[0])
    else:
        exponent = float("nan")
    return ContinuationResult(
        eps=tuple(float(e) for e in eps_list),
        deltas=tuple(deltas),
        residuals=tuple(residuals),
        phi=phi,
        exponent=exponent,
        converged=tuple(converged),
    )


# ---------------------------------------------------------------------------
# phase-distribution sampling and CLT diagnostics

# "auto" samples the period-T set exactly up to this many points and by proxy
# beyond; for the default map T = 10 (15 125 points) is the last exact period
EXACT_SAMPLING_MAX_POINTS = 20_000
_PHASE_SUM_BATCH = 1 << 15  # samples per batch of _phase_sums


def sample_phase_distribution(spec: SystemSpec, T: int, s, budget: int, seed: int,
                              mode: str = "auto") -> PhaseSampleSet:
    """Draw rescaled phases Phi_s/sqrt(T) with stability-amplitude weights.

    For linear maps the amplitude weights are uniform, so "exact" mode draws
    periodic points uniformly from the period-T set: uniform Smith indices
    (i, j) mapped to W (i/d1, j/d2) (observable_frames), with no point list,
    for every T whose index map fits int64 (dynamics.check_lattice_points;
    T <= 43 for the default map).  "proxy" mode samples uniform initial
    conditions instead (the amplitude-squared measure is Lebesgue); the mode
    is recorded on the returned set; "auto" picks exact when T <= MAX_PERIOD
    and the period-T set has at most EXACT_SAMPLING_MAX_POINTS points.
    """
    if budget <= 0:
        raise SpecError("sampling budget must be positive")
    sv = as_shift(s, spec.L, T)
    if mode == "auto":
        exact = (T <= MAX_PERIOD
                 and periodic_point_count(T, spec.subsystem) <= EXACT_SAMPLING_MAX_POINTS)
        mode = "exact" if exact else "proxy"
    if mode not in ("exact", "proxy"):
        raise SpecError(f"unknown sampling mode {mode!r}")
    lattice = smith_lattice(T, spec.subsystem) if mode == "exact" else None
    batches = _phase_sums(spec, sv, (T,), budget, seed, lattice)
    phi = np.concatenate([sums[T] for sums in batches])
    return PhaseSampleSet(phi_tilde=phi / math.sqrt(T), T=T, s=sv, mode=mode, seed=seed)


def _phase_sums(spec: SystemSpec, s, checkpoints, samples, seed, lattice):
    """The one Phi sampler: yields {t: Phi_t} per batch of at most _PHASE_SUM_BATCH samples.

    Phi_t = sum_{t' < t} [W(x_t') - W(phi^s x_t')] at each checkpoint t, from
    the seeded batches of frame_batches: Smith-indexed period-T points when
    lattice is given, uniform 2**53 lattice points otherwise.  Frames are
    read in turn, so their buffer may be reused; the one dict is emptied
    before the next batch is drawn.
    """
    out = {}
    for n, frames in frame_batches(spec, seed, samples, _PHASE_SUM_BATCH, ((0,) * spec.L, s),
                                   max(checkpoints), lattice):
        acc = np.zeros(n)
        for t, v in enumerate(frames, start=1):
            v[0] -= v[1]
            acc += v[0]
            if t in checkpoints:
                out[t] = acc.copy()
        del v  # the last frame would keep this batch's buffers alive through the next draw
        yield out
        out.clear()


# Cephes ndtr/erf/erfc (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), the real normal CDF behind scipy.special.ndtr.
_SQRT1_2 = 0.70710678118654752440  # not 1 / math.sqrt(2), which rounds to another double
_MAXLOG = 7.09782712893383996843e2
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _polevl(x, coef, monic=False):
    """Cephes polevl (p1evl when monic: an implied leading 1), Horner order, no FMA."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf_small(x):
    """Cephes erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U, monic=True)


def _ndtr(a):
    """scipy.special.ndtr of a float array, bit for bit: the standard normal CDF.

    Cephes' branches: 0.5 + 0.5 erf(x) for |x| < SQRT1_2, x = a SQRT1_2;
    else 0.5 erfc(|x|), reflected as 1 - y for x > 0, with erfc = 1 - erf
    below 1, exp(-x^2) P(x)/Q(x) below 8, exp(-x^2) R(x)/S(x) from 8, and 0
    once -x^2 < -MAXLOG.  exp is libm's (math.exp): numpy's vectorized exp
    differs from it in the last bit for some arguments.  NaN stays NaN.
    """
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    y = np.full_like(x, math.nan)
    mid = z < _SQRT1_2
    y[mid] = 0.5 + 0.5 * _erf_small(x[mid])
    erfc = np.zeros_like(x)  # stays 0 where exp(-x^2) would underflow
    near = (z >= _SQRT1_2) & (z < 1.0)
    erfc[near] = 1.0 - _erf_small(z[near])
    with np.errstate(over="ignore"):
        zz = -z * z
    live = zz >= -_MAXLOG
    for sel, num, den in (((z >= 1.0) & (z < 8.0) & live, _ERFC_P, _ERFC_Q),
                          ((z >= 8.0) & live, _ERFC_R, _ERFC_S)):
        t = z[sel]
        e = np.fromiter(map(math.exp, zz[sel].tolist()), dtype=float, count=len(t))
        erfc[sel] = e * _polevl(t, num) / _polevl(t, den, monic=True)
    outer = z >= _SQRT1_2
    half = 0.5 * erfc[outer]
    y[outer] = np.where(x[outer] > 0, 1.0 - half, half)
    return y


def clt_diagnostics(samples) -> CltReport:
    """Moments and KS distance against the centered normal with the sample variance.

    Each statistic equals scipy.stats' (skew, kurtosis, kstest(...).statistic)
    bit for bit: the same operations in the same order, and NaN where scipy
    gives NaN (a sample too close to constant for its moments, a zero sigma
    for the KS distance).  No p-value is computed, and no scipy module is
    imported: the normal CDF is _ndtr, a port of scipy.special.ndtr that the
    tests check bit for bit against scipy.
    """
    if isinstance(samples, PhaseSampleSet):
        samples = samples.phi_tilde
    vals = np.asarray(samples, dtype=float)
    n = len(vals)
    if n < 1000:
        raise SpecError("clt_diagnostics needs at least 1000 samples")
    if np.abs(vals).max() < 1e-13:
        return CltReport(n=n, skewness=0.0, excess_kurtosis=0.0,
                         ks_distance=0.0, fitted_variance=0.0, degenerate=True)
    sigma = float(vals.std())
    mean = vals.mean()
    d = vals - mean
    d2 = d**2
    m2 = d2.mean()
    m3 = (d2 * d).mean()
    d2 **= 2
    m4 = d2.mean()
    if m2 <= (np.finfo(float).eps * mean) ** 2:  # scipy's test for a constant sample
        skewness = excess_kurtosis = math.nan
    else:
        skewness = float(m3 / m2**1.5)
        excess_kurtosis = float(m4 / m2**2.0 - 3)
    if sigma > 0.0:
        cdf = _ndtr(np.sort(vals) / sigma)
        d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
        d_minus = (cdf - np.arange(0.0, n) / n).max()
        ks = float(d_plus if d_plus > d_minus else d_minus)
    else:
        ks = math.nan  # scipy's cdf is undefined at scale 0
    return CltReport(
        n=n,
        skewness=skewness,
        excess_kurtosis=excess_kurtosis,
        ks_distance=ks,
        fitted_variance=sigma * sigma,
        degenerate=False,
    )


# ---------------------------------------------------------------------------
# variance estimators

TIME_AVERAGE_HORIZON = 256  # per_bond_variance_table's and the config's variance.horizon default


def variance_time_average(spec: SystemSpec, s, horizon: int, samples: int,
                          seed: int) -> VarianceEstimate:
    """Ergodic estimator: sigma^2 = (1/T) < [sum_t v_s(phi^t x)]^2 > at T = horizon.

    Reports a ladder of horizons (quarter, half, full); the plateau flag is
    set when each pair of consecutive rungs (quarter and half, half and
    full) agrees within one combined standard error.
    """
    if horizon < 4 or samples < 1:
        raise SpecError(f"need horizon >= 4 and samples >= 1, got {horizon} and {samples}")
    s_t = tuple(int(v) for v in s)
    if len(s_t) != spec.L or any(v < 0 for v in s_t):
        raise SpecError("shift must be a length-L tuple of nonnegative integers")
    checkpoints = sorted({horizon // 4, horizon // 2, horizon})
    sums = {c: 0.0 for c in checkpoints}
    sums2 = {c: 0.0 for c in checkpoints}
    for batch_sums in _phase_sums(spec, s_t, checkpoints, samples, seed, None):
        for t, acc in batch_sums.items():
            vals = acc * acc / t
            sums[t] += vals.sum()
            sums2[t] += (vals * vals).sum()

    ladder = []
    for c in checkpoints:
        mean = sums[c] / samples
        var = max(sums2[c] / samples - mean * mean, 0.0)
        ladder.append((c, float(mean), float(math.sqrt(var / samples))))
    _, sig2, err = ladder[-1]
    return VarianceEstimate(sigma2=sig2, std_error=err, horizon=horizon,
                            plateau_ok=_plateau_ok(ladder), ladder=tuple(ladder), s=s_t, seed=seed)


def _plateau_ok(ladder) -> bool:
    """True when each pair of consecutive rungs agrees within one combined standard error."""
    return all(abs(v1 - v2) <= math.sqrt(e1 * e1 + e2 * e2)
               for (_, v1, e1), (_, v2, e2) in zip(ladder, ladder[1:]))


def variance_series(
    spec: SystemSpec,
    s,
    t_max: int,
    samples: int,
    seed: int,
) -> SeriesVariance:
    """Green-Kubo style series: sigma^2 = 2 sum_t [C_w(t*1) - C_w(t*1 + s)]."""
    s_t = tuple(int(v) for v in s)
    if len(s_t) != spec.L:
        raise SpecError("shift must have one component per site")
    sigma2, err, sync = _series_sum(_spec_correlation(spec), s_t, t_max, samples, seed)
    eta_hat, bound = _fit_tail([v for v, _ in sync], [e for _, e in sync])
    return SeriesVariance(sigma2=float(sigma2), std_error=float(err),
                          truncation_bound=bound, eta_hat=eta_hat,
                          t_max=t_max, s=s_t, seed=seed)


def _spec_correlation(spec: SystemSpec):
    """estimate_correlation on spec as the correlation(shift, samples, seed) of _series_sum."""
    def correlation(shift, n, sd):
        c = estimate_correlation(spec, shift, n, sd)
        return c.value, c.std_error

    return correlation


def _series_sum(correlation, s_t, t_max, samples, seed):
    """2 sum_t [C(t*1) - C(t*1 + s)] over |t| <= t_max, each term independently seeded.

    correlation(shift, samples, seed) returns (value, std_error).  Returns
    (sigma2, std_error, synchronous (value, std_error) pairs for t = 0..t_max).
    """
    L = len(s_t)
    seeds = spawn_seeds(seed, (t_max + 1) + (2 * t_max + 1))
    sync = [correlation((t,) * L, samples, seeds[t]) for t in range(t_max + 1)]
    shifted = [
        correlation(tuple(t + v for v in s_t), samples, seeds[t_max + 1 + (t + t_max)])
        for t in range(-t_max, t_max + 1)
    ]
    total = sync[0][0] + 2.0 * sum(v for v, _ in sync[1:]) - sum(v for v, _ in shifted)
    var = sync[0][1] ** 2 + sum((2.0 * e) ** 2 for _, e in sync[1:])
    var += sum(e**2 for _, e in shifted)
    return 2.0 * total, 2.0 * math.sqrt(var), sync


def _fit_tail(c_vals, c_errs):
    """Geometric tail bound from the fitted decay of the synchronous correlations."""
    usable = [
        (t, abs(v)) for t, (v, e) in enumerate(zip(c_vals, c_errs))
        if t >= 1 and abs(v) > 3.0 * e
    ]
    if len(usable) < 2:
        floor = float(np.median(c_errs[1:])) if len(c_errs) > 1 else 0.0
        return 0.0, 8.0 * floor
    ts = np.array([u[0] for u in usable], dtype=float)
    lv = np.log([u[1] for u in usable])
    slope = float(np.polyfit(ts, lv, 1)[0])
    eta = math.exp(slope)
    if eta >= 1.0:
        raise SeriesError(f"fitted correlations do not decay (eta = {eta:.3f})")
    c_last = usable[-1][1]
    return eta, 8.0 * c_last * eta / (1.0 - eta)


# ---------------------------------------------------------------------------
# per-bond variances (two-site problem)


def per_bond_variance_table(
    spec: SystemSpec,
    T: int,
    estimator: str = "time-average",
    samples: int = 20000,
    seed: int = 0,
    horizon: int = TIME_AVERAGE_HORIZON,
    t_max: int = 10,
) -> VarianceTable:
    """sigma^2_{v_{s~}} for s~ = 0..T-1 on the two-site bond problem.

    One bond of spec is the L = 2 ring at half the amplitude: the ring
    counts its one pair twice (lattice_pairs).
    """
    if spec.topology != NEAREST_NEIGHBOUR:
        raise SpecError("per-bond table requires nearest-neighbour-periodic topology")
    if estimator not in ("time-average", "series"):
        raise SpecError(f"unknown estimator {estimator!r}")
    bond = SystemSpec(L=2, subsystem=spec.subsystem, amplitude=spec.amplitude / 2)
    seeds = spawn_seeds(seed, T)
    sigma2, err = np.zeros(T), np.zeros(T)
    for st in range(1, T):
        if estimator == "time-average":
            est = variance_time_average(bond, (st, 0), horizon, samples, seeds[st])
            sigma2[st], err[st] = est.sigma2, est.std_error
        else:
            sigma2[st], err[st], _ = _series_sum(_spec_correlation(bond), (st, 0), t_max, samples,
                                                 seeds[st])
    return VarianceTable(sigma2, err)
