"""Continuation step of the exact-orbits-clt workload.

Runs sfflab's ``action_difference_identity_check`` over the orbit-pair menu
of the package's first-order action identity criterion: periods 3 to 6, the
first three two-site families whose orbits have full primitive period and
distinct representatives, and the listed (r, s) shift pairs.  Each pair is
one API call; the step writes one JSON record per call.

    PYTHONPATH=src python3 perfbench/continuation.py OUT.json [MAX_PERIOD]

The menu is deterministic, so this step ignores the benchmark seed.
"""
from __future__ import annotations

import json
import math
import sys

EPS = (1e-3, 1e-4, 1e-5)
FAMILIES_PER_PERIOD = 3
MENU = {
    3: [((0, 1), (1, 0))],
    4: [((0, 1), (1, 0)), ((0, 2), (1, 0)), ((0, 1), (2, 0))],
    5: [((0, 1), (1, 0)), ((0, 2), (1, 0)), ((0, 1), (2, 0))],
    6: [((0, 1), (1, 0)), ((0, 2), (1, 0)), ((0, 1), (2, 0))],
}


def pair_count(max_period: int = 6) -> int:
    """Number of API calls the menu makes up to max_period."""
    return sum(FAMILIES_PER_PERIOD * len(p) for T, p in MENU.items() if T <= max_period)


def _finite_or_none(x: float):
    return x if math.isfinite(x) else None


def run(max_period: int = 6) -> list[dict]:
    """Continue every menu pair; module attributes are looked up per call."""
    from sfflab import orbits, phases
    from sfflab.dynamics import SystemSpec

    spec = SystemSpec(L=2)
    records = []
    for T, pairs in MENU.items():
        if T > max_period:
            continue
        fams = [
            f for f in orbits.family_iterator(spec, T)
            if all(o.primitive_period == T for o in f.reps)
            and f.reps[0].representative != f.reps[1].representative
        ]
        for index, fam in enumerate(fams[:FAMILIES_PER_PERIOD]):
            for r, s in pairs:
                res = phases.action_difference_identity_check(fam, spec, EPS, r, s)
                records.append({
                    "T": T, "family": index, "r": list(r), "s": list(s),
                    "converged": list(res.converged),
                    "max_residual": max(res.residuals) if res.all_converged else None,
                    "exponent": _finite_or_none(res.exponent),
                })
    return records


def main(argv: list[str]) -> int:
    max_period = int(argv[1]) if len(argv) > 1 else 6
    records = run(max_period)
    with open(argv[0], "w") as f:
        json.dump(records, f, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
