"""Analytic SFF from shift variances: transfer matrix, closed form, bounds.

A per-bond variance table defines a circulant transfer matrix whose
eigenvalues give K(T) = sum_n lambda_n^L.  For the constant (Potts) table
this collapses to the closed form

    K(T) = (1 - chi^tau + T chi^tau)^L + (T - 1)(1 - chi^tau)^L,

with chi = exp(-Lambda sigma_Phi^2 / 2) and tau = T / T_H.  Also provides
the conjectured scaled limit kappa(tau), the Thouless time, and the
deviation bound for subexponentially decaying correlation families.
`prediction` evaluates the K(T) form a config names.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .phases import VarianceTable


class PottsError(ValueError):
    pass


@dataclass(frozen=True)
class PottsParams:
    """Parameters of the analytic prediction; T_H is a free positive real."""

    L: int
    T_H: float
    lam: float
    sigma2_phi: float = 1.0

    def __post_init__(self):
        if self.L < 1:
            raise PottsError("L must be >= 1")
        if not self.T_H > 0:
            raise PottsError("T_H must be positive")
        if not (self.lam >= 0 and self.sigma2_phi >= 0):  # NaN fails too
            raise PottsError("Lambda and sigma2_phi must be >= 0")

    @property
    def chi(self) -> float:
        return math.exp(-self.lam * self.sigma2_phi / 2.0)

    @classmethod
    def from_chi(cls, L: int, T_H: float, chi: float) -> "PottsParams":
        """The parameters at chi = exp(-Lambda / 2), sigma2_phi = 1."""
        if not 0.0 <= chi <= 1.0:
            raise PottsError("chi must lie in [0, 1]")
        lam = math.inf if chi == 0.0 else -2.0 * math.log(chi) if chi < 1.0 else 0.0
        return cls(L=L, T_H=T_H, lam=lam)

    def to_dict(self) -> dict:
        return {"L": self.L, "T_H": self.T_H, "Lambda": self.lam,
                "sigma2_phi": self.sigma2_phi, "chi": self.chi}


@dataclass
class SffPrediction:
    """Analytic K(T) on a time grid, with log values for overflow-free sweeps."""

    times: np.ndarray
    values: np.ndarray
    log_values: np.ndarray

    def __post_init__(self):
        if np.any(self.values[np.isfinite(self.values)] < 0):
            raise PottsError("SFF prediction must be nonnegative")


def transfer_eigenvalues(table: VarianceTable, lam: float, tau: float) -> np.ndarray:
    """Circulant eigenvalues lambda_n = sum_s exp(-lam tau sigma2(s)/2 + 2 pi i n s/T)."""
    row = np.exp(-lam * tau * table.sigma2 / 2.0)
    return table.T * np.fft.ifft(row)


def sff_transfer(table: VarianceTable, params: PottsParams) -> SffPrediction:
    """K(T) = tr Omega_T^L = sum_n lambda_n^L at the table's own T."""
    T = table.T
    tau = T / params.T_H
    lams = transfer_eigenvalues(table, params.lam, tau)
    k = np.sum(lams**params.L)
    if abs(k.imag) > 1e-8 * max(abs(k.real), 1.0):
        raise PottsError("transfer-matrix SFF has a non-negligible imaginary part")
    val = float(k.real)
    times = np.array([T], dtype=float)
    vals = np.array([val])
    return SffPrediction(times=times, values=vals,
                         log_values=np.log(np.maximum(vals, np.finfo(float).tiny)))


def _closed_form_log(L: int, T: np.ndarray, tau: np.ndarray, chi: float) -> np.ndarray:
    """log K for 0 < chi < 1, stable for T_H tau chi^tau far beyond float range."""
    with np.errstate(divide="ignore"):
        log_x = tau * math.log(chi)
    x = np.exp(log_x)
    term1 = L * np.log1p(x * (T - 1.0))
    with np.errstate(divide="ignore"):
        term2 = np.where(
            T > 1.0,
            np.log(np.maximum(T - 1.0, np.finfo(float).tiny)) + L * np.log1p(-x),
            -np.inf,
        )
    return np.logaddexp(term1, term2)


def closed_form_sff(params: PottsParams, T_grid) -> SffPrediction:
    """Bump-ramp closed form; the chi = 1 and chi = 0 limits are evaluated exactly."""
    T = np.asarray(T_grid, dtype=float)
    if np.any(T < 1):
        raise PottsError("T grid must be >= 1")
    tau = T / params.T_H
    chi = params.chi
    if chi == 1.0:
        vals = T**params.L
        logv = params.L * np.log(T)
    elif chi == 0.0:
        vals = T.copy()
        logv = np.log(T)
    else:
        logv = _closed_form_log(params.L, T, tau, chi)
        with np.errstate(over="ignore"):
            vals = np.exp(logv)
    return SffPrediction(times=T, values=vals, log_values=logv)


def scaled_kappa(params: PottsParams, tau):
    """Conjectured T_H -> infinity interpolation kappa(tau) = (1 - y) + y tau."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise PottsError("tau must be positive")
    x = params.chi**tau
    y = (1.0 - x) ** (params.L - 1) * (1.0 - x + params.L * x)
    out = (1.0 - y) + y * tau
    return out if out.ndim else float(out)


PREDICTION_FORMS = ("closed-form", "kappa")


def prediction(params: PottsParams, form: str, times) -> SffPrediction:
    """K(T) on the given times: the closed form, or the scaled form T_H kappa(T / T_H)."""
    if form == "closed-form":
        return closed_form_sff(params, times)
    if form == "kappa":
        times = np.asarray(times, dtype=float)
        vals = params.T_H * np.asarray(scaled_kappa(params, times / params.T_H))
        return SffPrediction(times=times, values=vals, log_values=np.log(vals))
    raise PottsError(f"unknown prediction form {form!r}; expected one of {PREDICTION_FORMS}")


def thouless_time(params: PottsParams, cap: float = 1e12) -> float:
    """t_TH = ln(L) / |ln chi| (in units of tau); diverges as chi -> 1."""
    chi = params.chi
    if chi in (0.0, 1.0):
        raise PottsError("Thouless time is undefined for chi in {0, 1}")
    if params.L < 2:
        raise PottsError("Thouless time needs L >= 2")
    val = math.log(params.L) / abs(math.log(chi))
    if val > cap:
        raise PottsError(f"Thouless time exceeds the cap {cap:g} (chi too close to 1)")
    return val


def deviation_bound(params: PottsParams, a: float, A: float, T_grid) -> np.ndarray:
    """|K - K0| < (T^L - T) (Lambda tau A / 2) exp(-Lambda tau a / 2)."""
    if not 0 < a < A:
        raise PottsError("bound constants must satisfy 0 < a < A")
    T = np.asarray(T_grid, dtype=float)
    tau = T / params.T_H
    with np.errstate(over="ignore"):
        return (T**params.L - T) * (params.lam * tau * A / 2.0) * np.exp(-params.lam * tau * a / 2.0)


# ---------------------------------------------------------------------------
# synthetic subexponential families (bound validation)


def perp_distance(s: tuple, T: int) -> int:
    """1-norm distance of s to the synchronous diagonal in Z_T^L (circular)."""
    best = None
    for t in range(T):
        d = 0
        for c in s:
            r = (c - t) % T
            d += min(r, T - r)
        best = d if best is None else min(best, d)
    return best


def check_family(f0: float, eta: float, theta: float) -> None:
    """The synthetic family's domain: 0 < eta < 1, theta > 0, f0 > 0."""
    if not (0 < eta < 1) or theta <= 0 or f0 <= 0:
        raise PottsError(f"need 0 < eta < 1, theta > 0, f0 > 0; got eta = {eta}, "
                         f"theta = {theta}, f0 = {f0}")


def synthetic_class_variances(T: int, L: int, f0: float, eta: float, theta: float) -> dict:
    """sigma2([s]) = f0 (1 - eta^(d_perp^theta)) over classes [s] in Z_T^(L-1)."""
    check_family(f0, eta, theta)
    out = {}
    for cls in itertools.product(range(T), repeat=L - 1):
        if all(c == 0 for c in cls):
            out[cls] = 0.0
        else:
            d = perp_distance((0,) + cls, T)
            out[cls] = f0 * (1.0 - eta ** (d**theta))
    return out


def sff_from_class_variances(L: int, T: int, T_H: float, lam: float, class_sigma2: dict) -> float:
    """All-to-all form K(T) = T * sum over classes of exp(-Lambda tau sigma2 / 2)."""
    tau = T / T_H
    return T * math.fsum(math.exp(-lam * tau * s2 / 2.0) for s2 in class_sigma2.values())


def fit_bound_constants(class_sigma2: dict, f0: float) -> tuple[float, float]:
    """Existence constants realized from the table: a below, A above all variances."""
    nonzero = [v for k, v in class_sigma2.items() if any(c != 0 for c in k)]
    if not nonzero:
        raise PottsError("family has no asynchronous classes")
    a = (1.0 - 1e-9) * min(min(nonzero), f0)
    A = (1.0 + 1e-9) * max(max(nonzero), f0)
    if not a > 0:
        raise PottsError("family violates the positive lower bound assumption")
    return a, A


@dataclass
class BoundCheckResult:
    eta: float
    theta: float
    f0: float
    a: float
    A: float
    times: np.ndarray
    K: np.ndarray
    K0: np.ndarray
    deviation: np.ndarray
    bound: np.ndarray

    @property
    def dominated(self) -> bool:
        return bool(np.all(self.deviation <= self.bound + 1e-12))

    @property
    def relative_deviation(self) -> np.ndarray:
        return self.deviation / np.maximum(self.K, np.finfo(float).tiny)


def bound_check(params: PottsParams, f0: float, eta: float, theta: float,
                T_grid) -> BoundCheckResult:
    """Validate the deviation bound on one synthetic subexponential family."""
    L, T_H, lam = params.L, params.T_H, params.lam
    times = np.asarray(sorted(int(t) for t in T_grid))
    K = np.empty(len(times))
    K0 = np.empty(len(times))
    a = A = None
    for i, T in enumerate(times):
        cls = synthetic_class_variances(int(T), L, f0, eta, theta)
        a_T, A_T = fit_bound_constants(cls, f0)
        a = a_T if a is None else min(a, a_T)
        A = A_T if A is None else max(A, A_T)
        K[i] = sff_from_class_variances(L, int(T), T_H, lam, cls)
        tau = T / T_H
        K0[i] = T + (T**L - T) * math.exp(-lam * tau * f0 / 2.0)
    bound = deviation_bound(params, a, A, times)
    return BoundCheckResult(eta=eta, theta=theta, f0=f0, a=a, A=A, times=times,
                            K=K, K0=K0, deviation=np.abs(K - K0), bound=bound)
