"""Shared helpers: seeded RNG, lattice reduction, windows, task pool."""
from __future__ import annotations

import hashlib
from typing import Callable, Sequence

import numpy as np


def philox(seed: int) -> np.random.Generator:
    """Counter-based generator; identical streams across platforms for a given seed."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def spawn_seeds(master_seed: int, n: int) -> list[int]:
    """Derive n independent child seeds from a master seed, in a fixed order."""
    children = np.random.SeedSequence(master_seed).spawn(n)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def mod1(x, den, out=None):
    """Lattice numerators x over den reduced into [0, den): the point x/den mod 1.

    Python ints stay Python ints (x % den).  For arrays the result is
    written into out (a new array when None; out may be x itself): a
    power-of-two den is a mask, exact for negative x in two's complement,
    any other den x - (x // den) den.  numpy divides by a scalar through
    libdivide in floor_divide but not in remainder; the product and the
    difference may wrap in int64, but the result, in [0, den), is exact.
    """
    if out is None:
        return x % den
    if den & (den - 1) == 0:
        return np.bitwise_and(x, den - 1, out=out)
    k = np.floor_divide(x, den)
    k *= den
    return np.subtract(x, k, out=out)


def window_width(t: int) -> int:
    """Moving-average window width for SFF series: max(5, t/10)."""
    return max(5, t // 10)


def window_average(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Centered moving average along the last axis with time-dependent width max(5, t/10).

    Each row of a 2-D array is averaged as it would be on its own.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    n = values.shape[-1]
    for i, t in enumerate(times):
        w = window_width(int(t))
        lo = max(0, i - w // 2)
        hi = min(n, lo + w)
        lo = max(0, hi - w)
        out[..., i] = values[..., lo:hi].mean(axis=-1)
    return out


def run_tasks(fn: Callable, items: Sequence, workers: int = 1) -> list:
    """Run fn over items; results in input order regardless of worker count."""
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    import concurrent.futures  # here only: it loads logging and threading

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
