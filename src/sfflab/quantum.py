"""Exact quantization of the coupled cat-map circuit and numerical SFF.

Convention: position-kernel quantization of a unit-b cat map,

    U[k', k] = (i b N)^(-1/2) exp(i pi (a k^2 - 2 k' k + d k'^2) / (b N)),

with hbar = 1/(2 pi N).  Consistency on the torus requires a*N and d*N even
(even N for the default map).  The averaging ensemble combines fractional
torus translations per site with random phase offsets in the pair-potential
argument.  A translation by v in Z^2/N quantizes an affine cat map exactly
(such maps share the linear map's orbit counts, amplitudes and correlation
structure).  The members draw real v, for which the translation is not an
exact quantization: it does not map the clock and shift operators to
multiples of themselves.
"""
from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import CatMapSpec, DEFAULT_MAP, SpecError, SystemSpec, pair_potential
from .orbits import lattice_fixed_count
from .potts import SffPrediction
from .util import philox, run_tasks, window_average

CONVENTION = "position-kernel-unit-b"
# compare's one gate: late window (fractions of the series' T_H), slope and ratio tolerances
LATE_WINDOW = (0.4, 1.0)
SLOPE_TOL = 0.25
RATIO_TOL = 0.25


class ConventionError(ValueError):
    """Map/dimension combination not representable in this convention."""


class MemoryBudgetError(RuntimeError):
    """Requested circuit would exceed the configured memory budget."""


class GridError(ValueError):
    """A series and a prediction are not on the same time grid."""


class UnitarityError(ValueError):
    """trace_powers input is not unitary to working precision."""


# Deviation from unitarity trace_powers accepts, per unit vector and per
# eigenvalue; built circuits measure <= 1e-14 up to dim 1024.
_UNITARY_TOL = 1e-12
# Rotation of the default Cayley pole, -e^{i alpha}, and of the site solves that
# place a circuit's pole: incommensurate with pi, so the rational eigenphases
# of untranslated cat maps never sit on it.
_ALPHA0 = math.pi * (math.sqrt(5.0) - 1.0) / 2.0
# Times per block of the power sums: z^1..z^C are formed once, and each block
# of C traces is one matrix-vector product with z^{C j}.
_POWER_BLOCK = 32
# eigvalsh errs by about eps * max|lambda| on every lambda, and an eigenphase
# 2 arctan(lambda) moves by at most twice that, so below this bound every
# eigenphase stays within _UNITARY_TOL / 2 (about 1126).
_POLE_BOUND = _UNITARY_TOL / (4.0 * np.finfo(float).eps)
# (glibc mallopt parameter, bytes) that _keep_solve_buffers sets: M_MMAP_THRESHOLD
# and M_TRIM_THRESHOLD.  A dim-256 member frees about 4 MiB of solve buffers (inv's
# and eigvalsh's 1 MiB dim^2 matrices and workspaces), which glibc unmaps or trims
# and the next member faults back in (about 990 minor faults).  Blocks below 32 MiB
# (the ceiling of glibc's own adaptive mmap threshold; one dim-1024 matrix is 16 MiB)
# then come from the heap, and up to 128 MiB of free heap top stays mapped.
_MALLOPT_THRESHOLDS = ((-3, 32 << 20), (-1, 128 << 20))


@dataclass(frozen=True)
class CircuitSpec:
    """L-site circuit of DEFAULT_MAP sites at dimension N, coupled at Lambda = lam.

    members and seed fix the averaging ensemble (see ensemble_members).
    """

    L: int
    N: int
    lam: float
    members: int = 1
    seed: int = 0
    memory_budget_bytes: int = 2 << 30

    def __post_init__(self):
        if self.L < 1:
            raise SpecError("need L >= 1")
        if self.members < 1:
            raise SpecError(f"members must be >= 1, got {self.members}")
        if not 0.0 <= self.lam < math.inf:
            raise SpecError(f"Lambda must be finite and >= 0, got {self.lam}")
        check_convention(DEFAULT_MAP, self.N)

    @property
    def T_H(self) -> int:
        return self.N**self.L

    @property
    def hbar(self) -> float:
        return 1.0 / (2.0 * math.pi * self.N)

    @property
    def eps_effective(self) -> float:
        return math.sqrt(self.lam) * self.hbar / math.sqrt(self.T_H)


@dataclass(frozen=True)
class MemberRealization:
    """One ensemble member: per-site translations and per-bond potential offsets."""

    site_translations: tuple  # ((vq, vp), ...) length L
    bond_offsets: tuple  # length L


@dataclass
class SffSeries:
    """Numerical K(t) of an L-site circuit at dimension N, as sff_numeric.csv holds it.

    values are window-averaged (K), raw_values the raw ensemble means (K_raw);
    lam is the circuit's Lambda, None for a series that does not record it;
    meta holds the eigensolve health that goes to the manifest, not to the CSV.
    """

    times: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    raw_values: np.ndarray
    N: int
    L: int
    lam: float | None = None
    meta: dict = field(default_factory=dict)
    member_values: np.ndarray | None = None  # windowed rows, one per member

    def __post_init__(self):
        if np.any(self.times < 1) or np.any(np.diff(self.times) <= 0):
            raise SpecError("times must be >= 1 and strictly increase")
        finite = all(np.isfinite(c).all() for c in (self.values, self.raw_values, self.errors))
        if not finite or np.any(self.raw_values < 0) or np.any(self.errors < 0):
            raise SpecError("K, K_raw and err must be finite, and K_raw and err nonnegative")
        if self.N < 1 or self.L < 1:
            raise SpecError(f"need N >= 1 and L >= 1, got N = {self.N}, L = {self.L}")
        if self.lam is not None and not 0.0 <= self.lam < math.inf:
            raise SpecError(f"Lambda must be finite and >= 0, got {self.lam}")

    def band_mean(self, t_lo: float, t_hi: float) -> tuple[float, float]:
        """Ensemble mean and standard error of the series averaged over a band.

        Uses the per-member rows so correlations across nearby times do not
        understate the error; requires member_values.
        """
        if self.member_values is None:
            raise SpecError("band_mean needs the per-member rows of sff_numeric")
        sel = (self.times >= t_lo) & (self.times <= t_hi)
        if not sel.any():
            raise SpecError("empty time band")
        per_member = self.member_values[:, sel].mean(axis=1)
        n = len(per_member)
        return float(per_member.mean()), float(per_member.std(ddof=1) / math.sqrt(n))


def check_convention(m: CatMapSpec, N: int) -> None:
    """Raise ConventionError unless map m quantizes at dimension N in this convention."""
    if N < 2:
        raise ConventionError("need N >= 2")
    if abs(m.b) != 1:
        raise ConventionError(
            f"convention {CONVENTION!r} supports |b| = 1 cat maps only; got b = {m.b}"
        )
    if (m.a * N) % 2 != 0 or (m.d * N) % 2 != 0:
        raise ConventionError(
            f"convention {CONVENTION!r} requires a*N and d*N even; "
            f"got a = {m.a}, d = {m.d}, N = {N} (use even N for this map)"
        )


@functools.cache
def _keep_solve_buffers() -> bool:
    """Keep this process's freed solve buffers mapped, once; True when glibc's
    mallopt took both thresholds, False (allocator untouched) without mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return [mallopt(param, value) for param, value in _MALLOPT_THRESHOLDS] == [1, 1]


def quantize_subsystem(m: CatMapSpec, N: int) -> np.ndarray:
    """Discretized e^{iW/hbar} kernel of the linear map (N x N); unitary by Gauss sums."""
    check_convention(m, N)
    k = np.arange(N, dtype=np.int64)
    kk, kp = k[None, :], k[:, None]
    modulus = 2 * abs(m.b) * N
    ph = (m.a * kk * kk - 2 * kp * kk + m.d * kp * kp) % modulus
    return np.exp(1j * np.pi * ph / (m.b * N)) / np.sqrt(1j * m.b * N)


@functools.lru_cache(maxsize=4)
def _site_kernel(N: int) -> np.ndarray:
    """quantize_subsystem(DEFAULT_MAP, N), built once per N and read-only."""
    U = quantize_subsystem(DEFAULT_MAP, N)
    U.flags.writeable = False
    return U


@functools.lru_cache(maxsize=4)
def _dft(N: int) -> np.ndarray:
    """The unitary N-point DFT matrix, built once per N and read-only."""
    n = np.arange(N)
    F = np.exp(-2j * np.pi * np.outer(n, n) / N) / math.sqrt(N)
    F.flags.writeable = False
    return F


def torus_translation(N: int, vq: float, vp: float) -> np.ndarray:
    """Quantized phase-space translation x -> x + (vq, vp); vq, vp real."""
    n = np.arange(N)
    boost = np.exp(2j * np.pi * vp * n)
    F = _dft(N)
    mom = np.where(n <= N // 2, n, n - N)
    shift = F.conj().T @ (np.exp(-2j * np.pi * vq * mom)[:, None] * F)
    return boost[:, None] * shift


def position_grid(N: int, L: int) -> np.ndarray:
    """All positions q in {0, 1/N, ...}^L, shape (N^L, L), row-major in k."""
    idx = np.indices((N,) * L).reshape(L, -1).T
    return idx / N


def coupling_operator(spec: CircuitSpec, offsets=None) -> np.ndarray:
    """Diagonal entries exp(i eps V(q) / hbar) on the position grid."""
    if spec.L < 2:
        return np.ones(spec.T_H, dtype=complex)
    q = position_grid(spec.N, spec.L)
    v = pair_potential(q, SystemSpec(L=spec.L), offsets)
    return np.exp(1j * spec.eps_effective * v / spec.hbar)


def ensemble_members(spec: CircuitSpec) -> list[MemberRealization]:
    """Seeded member realizations: a random translation per site, then a random
    potential offset per bond.

    For L = 2 the two bonds of the periodic chain act on the same site pair;
    constraining the offsets to differ by a quarter period keeps the member's
    full-shift variance at the per-bond table value 2*sigma2_phi (the
    unconstrained two-bond sum interferes and would rescale the damping).
    """
    rng = philox(spec.seed)
    out = []
    for _ in range(spec.members):
        tr = rng.random((spec.L, 2))
        if spec.L == 1:
            off = (0.0,)  # no bond
        else:
            base = rng.random(spec.L)
            if spec.L == 2:
                off = (float(base[0]), float((base[0] - 0.25) % 1.0))
            else:
                off = tuple(float(b) for b in base)
        out.append(MemberRealization(
            site_translations=tuple((float(a), float(b)) for a, b in tr),
            bond_offsets=off,
        ))
    return out


def _check_budget(spec: CircuitSpec) -> None:
    # trace_powers holds up to four dense complex matrices at once (during inv)
    need = 4 * 16 * spec.T_H * spec.T_H
    if need > spec.memory_budget_bytes:
        raise MemoryBudgetError(
            f"circuit of dimension {spec.T_H} needs ~{need / 2**30:.1f} GiB "
            f"(budget {spec.memory_budget_bytes / 2**30:.1f} GiB)"
        )


def subsystem_unitaries(spec: CircuitSpec, member: MemberRealization | None = None):
    base = _site_kernel(spec.N)
    if member is None:
        return [base] * spec.L
    return [torus_translation(spec.N, vq, vp) @ base for vq, vp in member.site_translations]


def build_circuit(spec: CircuitSpec, member: MemberRealization | None = None,
                  sites: list | None = None) -> np.ndarray:
    """U = (tensor of subsystem maps) * diagonal coupling; exact kron at eps = 0.

    One site has no bond, so at L = 1 U is a copy of its map (the sites may
    be the read-only cached kernel).  sites are subsystem_unitaries(spec,
    member) when the caller already holds them.
    """
    _check_budget(spec)
    subs = subsystem_unitaries(spec, member) if sites is None else sites
    U = subs[0].copy() if len(subs) == 1 else functools.reduce(np.kron, subs)
    if spec.eps_effective != 0.0 and spec.L > 1:  # in place: U is a new Kronecker product
        U *= coupling_operator(spec, member.bond_offsets if member else None)
    return U


@functools.lru_cache(maxsize=4)
def _probe(dim: int) -> np.ndarray:
    """The fixed unit probe vector of _unitarity_residual, drawn once per dimension."""
    rng = philox(0)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    x.flags.writeable = False
    return x


def _unitarity_residual(U: np.ndarray) -> float:
    """||U^H U x - x|| for one fixed unit probe vector x; O(dim^2), no dense copy."""
    x = _probe(U.shape[0])
    return float(np.linalg.norm(np.conj(U.T @ np.conj(U @ x)) - x))


class TracePowers(NamedTuple):
    """tr U^t for t = 1..t_max and the health of the solve that gave them."""

    traces: np.ndarray
    unitarity_residual: float  # ||U^H U x - x|| on the fixed probe
    trace_check: float  # |S_1 - tr U|
    second_solve: bool  # the first pole was an eigenvalue or failed _POLE_BOUND


def _cayley_eigenvalues(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of K = i(X - X^H), X = A^{-1}; A is left intact.

    eigvalsh reads one triangle only, so the Hermitian part is formed
    explicitly.  Raises LinAlgError when A is exactly singular.
    """
    X = np.linalg.inv(A)
    X -= X.conj().T
    X *= 1j
    return np.linalg.eigvalsh(X)


def _move_pole(A: np.ndarray, alpha: float, new_alpha: float) -> float:
    """Turn A = I + e^{-i alpha} U into I + e^{-i new_alpha} U in place."""
    step = A.shape[0] + 1
    A.flat[::step] -= 1.0
    A *= np.exp(-1j * (new_alpha - alpha))
    A.flat[::step] += 1.0
    return new_alpha


def _widest_gap_middle(theta: np.ndarray) -> float:
    """Middle of the widest gap between the angles theta on the circle."""
    start = np.sort(np.mod(theta, 2.0 * np.pi))
    stop = np.roll(start, -1)
    stop[-1] += 2.0 * np.pi
    k = int(np.argmax(stop - start))
    return float(0.5 * (start[k] + stop[k]))


def uncoupled_pole(sites: list) -> float:
    """Cayley angle alpha whose pole -e^{i alpha} is the middle of the widest
    gap of the uncoupled spectrum, the L-fold sums of the site eigenphases.

    The coupling moves a circuit's eigenphases by about one level spacing
    (epsilon^2 = Lambda hbar^2 / T_H), so the pole stays clear of them and
    trace_powers solves once; its _POLE_BOUND check still judges the result.
    The site eigenphases are a guess, from one Cayley solve each at _ALPHA0.
    """
    total = np.zeros(1)
    for u in sites:
        A = u * np.exp(-1j * _ALPHA0)
        A.flat[:: len(u) + 1] += 1.0
        try:
            phases = _ALPHA0 + 2.0 * np.arctan(_cayley_eigenvalues(A))
        except np.linalg.LinAlgError:  # a site eigenvalue exactly on the guess pole
            return _ALPHA0
        total = (total[:, None] + phases[None, :]).ravel()
    return _widest_gap_middle(total) - np.pi


def _power_sums(z: np.ndarray, n: int) -> np.ndarray:
    """S_t = sum_k z_k^t for t = 1..n, in blocks of _POWER_BLOCK times."""
    C = min(n, _POWER_BLOCK)
    powers = np.cumprod(np.broadcast_to(z, (C, z.size)), axis=0)  # z^1..z^C
    out = np.empty(-(-n // C) * C, dtype=complex)
    w = np.ones_like(z)  # z^j at block start j
    for j in range(0, n, C):
        np.matmul(powers, w, out=out[j:j + C])
        w *= powers[-1]
    return out[:n]


def trace_powers(U: np.ndarray, t_max: int, alpha: float = _ALPHA0) -> TracePowers:
    """tr U^t for t = 1..t_max of a unitary U, from one Hermitian eigensolve.

    The Cayley transform K = i(I - V)(I + V)^{-1} of V = e^{-i alpha} U is
    Hermitian, and its eigenvalues lambda = tan((theta - alpha)/2) map one to
    one back to e^{i theta} = e^{i alpha} (1 + i lambda)/(1 - i lambda), so no
    eigenvalue is paired or sign-resolved.  Rounding in eigvalsh grows with
    max|lambda|, which an eigenphase near the pole -e^{i alpha} makes large;
    circuits pass alpha = uncoupled_pole(sites).  Above _POLE_BOUND the pole
    moves to the middle of the widest gap of the first spectrum and the solve
    runs once more (after one at the opposite pole when the first pole is
    exactly an eigenvalue).  Raises UnitarityError instead of returning traces
    of a matrix that fails the unitarity probe, or whose S_1 and S_2 miss tr U
    and sum_ij U_ij U_ji.
    """
    dim = U.shape[0]
    residual = _unitarity_residual(U)
    if not residual <= _UNITARY_TOL:
        raise UnitarityError(f"U is not unitary: ||U^H U x - x|| = {residual:.3g} "
                             f"(tolerance {_UNITARY_TOL:g})")
    direct = (np.trace(U), np.einsum("ij,ji->", U, U))  # tr U, tr U^2 in O(dim^2)
    A = U * np.exp(-1j * alpha)
    del U  # a circuit the caller holds no reference to is freed before inv's buffers
    A.flat[:: dim + 1] += 1.0
    second_solve = False
    try:
        lam = _cayley_eigenvalues(A)
    except np.linalg.LinAlgError:  # an eigenvalue sits exactly on the pole
        alpha, second_solve = _move_pole(A, alpha, alpha + np.pi), True
        lam = _cayley_eigenvalues(A)
    if not np.abs(lam).max() <= _POLE_BOUND:
        gap = _widest_gap_middle(alpha + 2.0 * np.arctan(lam))
        alpha, second_solve = _move_pole(A, alpha, gap - np.pi), True
        lam = _cayley_eigenvalues(A)
    del A
    z = np.exp(1j * alpha) * (1.0 + 1j * lam) / (1.0 - 1j * lam)
    traces = _power_sums(z, max(t_max, 2))
    # each eigenphase within _UNITARY_TOL, so S_t within t dim _UNITARY_TOL
    misses = np.abs(traces[:2] - direct)
    for t, miss in enumerate(misses, start=1):
        if not miss <= _UNITARY_TOL * dim * t:
            raise UnitarityError(f"tr U^{t} from the eigenphases is off by {miss:.3g} "
                                 f"(tolerance {_UNITARY_TOL * dim * t:.3g})")
    return TracePowers(traces[:t_max], residual, float(misses[0]), second_solve)


def _circuit_traces(spec: CircuitSpec, member: MemberRealization | None,
                    t_max: int) -> TracePowers:
    """trace_powers of the circuit of spec and member, at the pole of its site maps.

    The site maps give both the circuit and its pole; the circuit goes
    straight into trace_powers, so no reference here keeps it alive through
    the eigensolve.  The solving process keeps its freed buffers mapped.
    """
    _keep_solve_buffers()
    sites = subsystem_unitaries(spec, member)
    alpha = uncoupled_pole(sites)
    return trace_powers(build_circuit(spec, member, sites), t_max, alpha)


def _member_sff_task(args) -> tuple[np.ndarray, float, float, bool]:
    """|tr U^t|^2 for one ensemble member, its unitarity residual, |S_1 - tr U|
    and whether its solve ran twice.  Top-level for process pools.
    """
    spec, member, t_max = args
    res = _circuit_traces(spec, member, t_max)
    return np.abs(res.traces) ** 2, res.unitarity_residual, res.trace_check, res.second_solve


def reference_trace_error(spec: CircuitSpec, t_max: int) -> float:
    """Largest |K(t) - n_t^L| / (1 + n_t^L), t = 1..t_max, of trace_powers on the
    untranslated eps = 0 circuit at spec's N and L.

    That circuit's K(t) = |tr U^t|^2 is exactly n_t^L, n_t =
    lattice_fixed_count(t, DEFAULT_MAP, N), so this checks the eigensolve
    against integers at the dimension of the run.
    """
    ref = CircuitSpec(L=spec.L, N=spec.N, lam=0.0,
                      memory_budget_bytes=spec.memory_budget_bytes)
    K = np.abs(_circuit_traces(ref, None, t_max).traces) ** 2
    exact = np.array([float(lattice_fixed_count(t, DEFAULT_MAP, spec.N)) ** spec.L
                      for t in range(1, t_max + 1)])
    return float((np.abs(K - exact) / (1.0 + exact)).max())


def sff_numeric(spec: CircuitSpec, t_max: int, workers: int = 1) -> SffSeries:
    """Ensemble- and window-averaged K(t) = <|tr U^t|^2>, t = 1..t_max.

    Members are independent tasks; the reduction order is fixed by the
    member list, so the worker count never changes the result.
    """
    if t_max < 1:
        raise SpecError("t_max must be >= 1")
    members = ensemble_members(spec)
    times = np.arange(1, t_max + 1)
    rows, residuals, s1_errors, second_solves = zip(*run_tasks(
        _member_sff_task, [(spec, mem, t_max) for mem in members], workers))
    raw = np.stack(rows)
    win = window_average(raw, times)
    n = len(members)
    sem = np.sqrt(np.maximum(win.var(axis=0, ddof=1), 0.0) / n) if n > 1 else np.zeros(t_max)
    return SffSeries(
        times=times,
        values=win.mean(axis=0),
        errors=sem,
        raw_values=raw.mean(axis=0),
        N=spec.N,
        L=spec.L,
        lam=spec.lam,
        member_values=win,
        meta={
            "unitarity_residual_max": max(residuals),
            "trace_check_max": max(s1_errors),
            "second_solves": sum(second_solves),
            "heap_retained": _keep_solve_buffers(),
        },
    )


@dataclass
class CompareReport:
    ratio: np.ndarray  # series / prediction at each series time
    n_points: int
    chi2_per_point: float
    median_ratio: float
    late_window: tuple
    late_mean_ratio: float
    slope_series: float
    slope_prediction: float
    slope_ok: bool
    ratio_ok: bool
    passed: bool
    bump_time: int | None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "ratio"}


def compare(series: SffSeries, prediction: SffPrediction) -> CompareReport:
    """Per-time deviation of a numerical series from an analytic prediction.

    The prediction must be evaluated on the series' own times (GridError
    otherwise).  The late-time ramp slopes over LATE_WINDOW are compared with
    an absolute normalization, |slope_s - slope_p| <= SLOPE_TOL * max(1, |slope_p|),
    which stays meaningful when the reference curve is nearly flat.  The
    comparison passes when the slopes agree and the late-window mean ratio
    lies within RATIO_TOL of 1 (a NaN ratio, from a late window with under two
    points, fails).  chi2_per_point is NaN when no error of the series is
    positive: nothing was measured against.
    """
    t = np.asarray(series.times, dtype=float)
    if not np.array_equal(np.asarray(prediction.times, dtype=float), t):
        raise GridError("the prediction is not on the series' time grid")
    pv = prediction.values
    sv = series.values
    ratio = sv / np.maximum(pv, np.finfo(float).tiny)
    err = np.asarray(series.errors)
    mask = err > 0
    chi2 = float(np.mean(((sv[mask] - pv[mask]) / err[mask]) ** 2)) if mask.any() else math.nan

    T_H = float(series.N**series.L)
    lo, hi = LATE_WINDOW[0] * T_H, LATE_WINDOW[1] * T_H
    late = (t >= lo) & (t <= hi)
    if late.sum() >= 2:
        slope_s = float(np.polyfit(t[late], sv[late], 1)[0])
        slope_p = float(np.polyfit(t[late], pv[late], 1)[0])
        late_mean_ratio = float(np.mean(ratio[late]))
    else:
        slope_s = slope_p = float("nan")
        late_mean_ratio = float("nan")
    slope_ok = bool(abs(slope_s - slope_p) <= SLOPE_TOL * max(1.0, abs(slope_p)))
    ratio_ok = bool(abs(late_mean_ratio - 1.0) <= RATIO_TOL)

    early = t <= max(2 * series.N, t[0])
    bump_time = int(t[early][np.argmax(sv[early])]) if early.any() else None

    return CompareReport(
        ratio=ratio,
        n_points=len(t),
        chi2_per_point=chi2,
        median_ratio=float(np.median(ratio)),
        late_window=LATE_WINDOW,
        late_mean_ratio=late_mean_ratio,
        slope_series=slope_s,
        slope_prediction=slope_p,
        slope_ok=slope_ok,
        ratio_ok=ratio_ok,
        passed=slope_ok and ratio_ok,
        bump_time=bump_time,
    )
