"""Shared helpers: seeded RNG, modular reduction, windows, task pool."""
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


def mod1(x, out=None):
    """Floor-based reduction into [0, 1), written into out (a new array when None).

    x - floor(x) is the exact fractional part rounded once, so it equals
    np.mod(x, 1.0) bit for bit while skipping the division.  Guards the
    float edge where that rounds up to exactly 1.0 (e.g. x = -1e-18), which
    would break the half-open invariant.  out must not share memory with x:
    the floor is written there before the subtraction reads x.
    """
    if out is None:
        out = np.empty(np.shape(x))
    elif np.may_share_memory(x, out):
        raise ValueError("mod1 cannot reduce in place: out shares memory with x")
    np.floor(x, out=out)
    np.subtract(x, out, out=out)
    out[out >= 1.0] = 0.0
    return out


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
