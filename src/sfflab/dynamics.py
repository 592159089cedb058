"""Coupled cat-map dynamics on the L-fold 2-torus.

Concrete map family: a linear cat map per site, coupled by a position kick
through the pair potential v(q, q') = cos(2*pi*(q - q' + offset)).  The
first-order interaction observable is w(x, y) = cos(2*pi*(q_x - q_y)), a
mean-zero pair function whose correlation functions vanish identically for
any nonzero site-wise time shift (trigonometric observables of a hyperbolic
linear map never return to their own Fourier mode).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .util import mod1, philox

TWO_PI = 2.0 * math.pi

NEAREST_NEIGHBOUR = "nearest-neighbour-periodic"
ALL_TO_ALL = "all-to-all"
TOPOLOGIES = (NEAREST_NEIGHBOUR, ALL_TO_ALL)


class SpecError(ValueError):
    """Invalid system specification."""


@dataclass(frozen=True)
class CatMapSpec:
    """Integer unimodular matrix [[a, b], [c, d]]; hyperbolic: |a + d| > 2."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for v in (self.a, self.b, self.c, self.d):
            if not isinstance(v, int):
                raise SpecError("cat-map entries must be integers")
        if self.a * self.d - self.b * self.c != 1:
            raise SpecError("cat map must have determinant 1")
        if abs(self.a + self.d) <= 2:
            raise SpecError("cat map must be hyperbolic: |a + d| > 2")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=np.int64)


DEFAULT_MAP = CatMapSpec(2, 1, 1, 1)


@dataclass(frozen=True)
class SystemSpec:
    """Coupled system: L homogeneous cat-map sites plus a pair interaction."""

    L: int
    subsystem: CatMapSpec = DEFAULT_MAP
    amplitude: float = 1.0
    topology: str = NEAREST_NEIGHBOUR
    epsilon: float = 0.0

    def __post_init__(self):
        if self.L < 1:
            raise SpecError("L must be >= 1")
        if self.topology not in TOPOLOGIES:
            raise SpecError(f"unknown topology {self.topology!r}")
        if self.topology == NEAREST_NEIGHBOUR and self.L < 2:
            raise SpecError("nearest-neighbour-periodic topology requires L >= 2")
        if self.epsilon < 0:
            raise SpecError("epsilon must be >= 0")


@dataclass(frozen=True)
class CorrelationEstimate:
    """Monte Carlo estimate of C_w(shift) with the mean subtracted."""

    shift: tuple[int, ...]
    value: float
    std_error: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.std_error < 0:
            raise SpecError("std_error must be >= 0")


# ---------------------------------------------------------------------------
# elementary steps


def step_arrays(q: np.ndarray, p: np.ndarray, m: CatMapSpec, scratch=None):
    """Vectorized subsystem step of the float arrays q and p, in place; returns (q, p).

    a*q + b*p and c*q + d*p, each reduced by mod1: per element the same IEEE
    operations, and so the same bits, as the scalar step (a*q + b*p) % 1.0
    with mod1's >= 1.0 guard.  scratch is a float array of shape
    (2,) + q.shape that holds the unreduced images (allocated when None).
    """
    u, v = np.empty((2,) + q.shape) if scratch is None else scratch
    np.multiply(q, m.a, out=u)
    np.multiply(p, m.b, out=v)
    u += v
    np.multiply(q, m.c, out=q)
    np.multiply(p, m.d, out=p)
    np.add(q, p, out=v)
    return mod1(u, out=q), mod1(v, out=p)


def bonds(spec: SystemSpec, L: int, offsets=None) -> list[tuple[int, int, float]]:
    """The pair observable as (i, j, offset) bonds, one cos(2*pi*(q_i - q_j + offset)) each.

    The ring has bonds (l, l+1 mod L, offsets[l]); offsets (length L)
    realize the translation family used by the quantum ensemble, None means
    all zero.  All-to-all has one bond per ordered pair i != j, without offsets.
    """
    if spec.topology == ALL_TO_ALL:
        if offsets is not None:
            raise SpecError("bond offsets are defined for nearest-neighbour topology only")
        return [(i, j, 0.0) for i in range(L) for j in range(L) if i != j]
    if offsets is None:
        offsets = np.zeros(L)
    return [(l, (l + 1) % L, offsets[l]) for l in range(L)]


def _bond_sum(q: np.ndarray, bond_list, out=None, work=None) -> np.ndarray:
    """sum over bonds of cos(2*pi*(q_i - q_j + offset)), written into out; q has shape (..., L).

    out and work are float arrays of shape q.shape[:-1] (allocated when
    None); work holds one bond's cosine at a time.  A bond (j, i, -offset)
    right after (i, j, offset) adds that cosine again: its difference, sum
    and product are the exact negatives of the first bond's, since rounding
    is symmetric, and np.cos is even bit for bit.
    """
    out = np.empty(q.shape[:-1]) if out is None else out
    work = np.empty_like(out) if work is None else work
    out.fill(0.0)
    last = None
    for i, j, off in bond_list:
        if last != (j, i, -off):
            np.subtract(q[..., i], q[..., j], out=work)
            work += off
            work *= TWO_PI
            np.cos(work, out=work)
            last = (i, j, off)
        out += work
    return out


def pair_potential(q: np.ndarray, spec: SystemSpec, offsets=None) -> np.ndarray:
    """V(q) = amplitude * sum over bonds(spec, L, offsets); q has shape (..., L), returns (...).

    V is also the interaction derivative: d/d(eps) of the generating function at eps = 0.
    """
    q = np.asarray(q, dtype=float)
    return spec.amplitude * _bond_sum(q, bonds(spec, q.shape[-1], offsets))


def pair_gradient(q: np.ndarray, spec: SystemSpec, offsets=None) -> np.ndarray:
    """dV/dq_l, shape (..., L)."""
    q = np.asarray(q, dtype=float)
    grad = np.zeros_like(q)
    for i, j, off in bonds(spec, q.shape[-1], offsets):
        s = np.sin(TWO_PI * (q[..., i] - q[..., j] + off))
        grad[..., i] -= TWO_PI * s
        grad[..., j] += TWO_PI * s
    return spec.amplitude * grad


def pair_hessian(q: np.ndarray, spec: SystemSpec, offsets=None) -> np.ndarray:
    """d^2 V / dq_i dq_j for a single configuration q of shape (L,)."""
    q = np.asarray(q, dtype=float)
    L = q.shape[-1]
    H = np.zeros((L, L))
    for i, j, off in bonds(spec, L, offsets):
        c = -(TWO_PI**2) * math.cos(TWO_PI * (q[i] - q[j] + off))
        H[i, i] += c
        H[j, j] += c
        H[i, j] -= c
        H[j, i] -= c
    return spec.amplitude * H


def coupled_step_unreduced(q: np.ndarray, p: np.ndarray, spec: SystemSpec, offsets=None):
    """Kick-then-rotate composition without modular reduction (for lifts/Jacobians)."""
    m = spec.subsystem
    pk = p + spec.epsilon * pair_gradient(q, spec, offsets)
    return m.a * q + m.b * pk, m.c * q + m.d * pk


# ---------------------------------------------------------------------------
# Monte Carlo correlation estimator


def _trajectory(rng: np.random.Generator, n: int, L: int, m: CatMapSpec, shifts, steps: int):
    """Positions of shifted copies of n uniform samples at t = 0..steps-1.

    Draws q0, then p0, each of shape (n, L), from rng.  Copy k starts with
    site l advanced shifts[k][l] map steps, one column at a time; then all
    copies are stepped together.  A site whose shift is the same in every
    copy is stepped in copy 0 only and its positions copied into the others
    (their momenta there are never read).  Yields arrays of shape
    (len(shifts), n, L).  Every element sees the same sequence of IEEE
    operations as stepping it alone, so the positions are bit-identical to
    direct per-column stepping.

    The batch is stepped in place: a yielded frame is a view of the position
    buffer and is valid only until the next step; copy it to keep it.
    """
    # site-major layout: each (copy, site) column is contiguous; the draws
    # are not kept, so a batch holds only the stepped copies and one scratch
    q = np.empty((len(shifts), L, n))
    p = np.empty_like(q)
    scratch = np.empty((2,) + q.shape)
    q[:] = rng.random((n, L)).T
    p[:] = rng.random((n, L)).T
    shared = [len({shift[l] for shift in shifts}) == 1 for l in range(L)]
    for k, shift in enumerate(shifts):
        for l, s in enumerate(shift):
            for _ in range(0 if k and shared[l] else s):
                step_arrays(q[k, l], p[k, l], m, scratch[:, k, l])
    # runs of adjacent sites that are all shared or all not, stepped as one view
    runs, start = [], 0
    for l in range(1, L + 1):
        if l == L or shared[l] != shared[start]:
            runs.append((shared[start], slice(start, l)))
            start = l
    for t in range(steps):
        for common, sites in runs:
            if t:
                k = 0 if common else slice(None)
                step_arrays(q[k, sites], p[k, sites], m, scratch[:, k, sites])
            if common:
                q[1:, sites] = q[0, sites]
        yield q.transpose(0, 2, 1)


def _correlation(m: CatMapSpec, amplitude: float, bond_list, L: int,
                 shift: tuple[int, ...], samples: int, seed: int, batch: int = 1 << 17):
    """(C(shift), std_error) of W = amplitude * _bond_sum under uniform initial conditions."""
    rng = philox(seed)
    m_off = max(0, -min(shift))
    shifts = ((m_off,) * L, tuple(m_off + s for s in shift))
    n_done = 0
    s_p = s_p2 = s_a = s_b = 0.0
    while n_done < samples:
        n = min(batch, samples - n_done)
        (q,) = _trajectory(rng, n, L, m, shifts, 1)
        a, b = amplitude * _bond_sum(q, bond_list)
        prod = a * b
        s_p += prod.sum()
        s_p2 += (prod * prod).sum()
        s_a += a.sum()
        s_b += b.sum()
        n_done += n

    mean_p = s_p / samples
    value = mean_p - (s_a / samples) * (s_b / samples)
    var_p = max(s_p2 / samples - mean_p**2, 0.0)
    return float(value), float(math.sqrt(var_p / samples))


def estimate_correlation(
    spec: SystemSpec,
    shift: Sequence[int],
    samples: int,
    seed: int,
    batch: int = 1 << 17,
) -> CorrelationEstimate:
    """C_w(shift) = <W(phi^shift x) W(x)> - <W>^2 for W the interaction derivative.

    Uniform (Lebesgue = SRB) initial conditions.  Negative shift components
    are handled by translating both factors with a synchronous offset, using
    the invariance of the measure.
    """
    shift = tuple(int(s) for s in shift)
    if len(shift) != spec.L:
        raise SpecError("shift must have one component per site")
    if samples <= 0:
        raise SpecError("samples must be positive")
    value, std_error = _correlation(spec.subsystem, spec.amplitude, bonds(spec, spec.L),
                                    spec.L, shift, samples, seed, batch)
    return CorrelationEstimate(shift=shift, value=value, std_error=std_error,
                               samples=samples, seed=seed)
