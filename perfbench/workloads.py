"""Benchmark workloads: seeded sfflab configs and the oracle gates on their outputs.

A workload is a list of steps run in order.  A step is one sfflab CLI command
(``kind`` set) or the continuation API step (``kind`` None).  Each step names
the operations it performs, the work units behind its throughput metric, and
a ``check`` that returns one message per failed operation.  Every workload
runs with ``workers: 1`` and the benchmark seed as its master seed.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from continuation import pair_count

# Mean-zero Monte Carlo estimates are gated at Z standard errors of their
# exact value.  Under a correct program each test is two-sided normal, so one
# test false-alarms with probability 5.7e-7.
Z = 5.0
SUM_RULE_TOL = 1e-12
# pairs whose residual stays below this are symmetric (degenerate) pairs
DEGENERATE_RESIDUAL = 1e-12
MIN_EXPONENT = 1.8


@dataclass
class Step:
    name: str
    kind: str | None
    config: dict | None
    check: Callable[[Path], list[str]]
    ops: int = 1
    rate_metric: str | None = None
    work: float = 0.0
    max_period: int = 6  # continuation step only
    fingerprint_columns: dict = field(default_factory=dict)


def period_point_count(T: int, trace: int = 3) -> int:
    """|tr M^T - 2| for a unimodular map with tr M = trace, by tr recurrence."""
    prev, cur = 2, trace
    for _ in range(T - 1):
        prev, cur = cur, trace * cur - prev
    return abs(cur - 2)


def read_csv(path: Path) -> list[dict]:
    """Rows of an sfflab CSV artifact (first line is the schema comment)."""
    with open(path) as f:
        f.readline()
        return list(csv.DictReader(f))


def read_json(path: Path):
    with open(path) as f:
        return json.load(f)


def _cli(kind: str, seed: int, section: str, body: dict) -> dict:
    return {"kind": kind, "seed": seed, "workers": 1, section: body}


# ---------------------------------------------------------------------------
# quantum-ensemble


def quantum_ensemble(seed: int, base: Path, tiny: bool = False) -> list[Step]:
    N, members = (4, 4) if tiny else (16, 256)
    dim = N * N
    t_max = int(round(1.25 * dim))
    series = base / "quantum-sff" / "sff_numeric.csv"

    def check_series(outdir: Path) -> list[str]:
        rows = read_csv(outdir / "sff_numeric.csv")
        bad = []
        if [int(r["t"]) for r in rows] != list(range(1, t_max + 1)):
            bad.append(f"sff_numeric.csv: expected t = 1..{t_max}")
        for r in rows:
            for col in ("K", "K_raw"):
                v = float(r[col])
                if not (math.isfinite(v) and v >= 0.0):
                    bad.append(f"sff_numeric.csv: {col}({r['t']}) = {v}")
        return bad[:1]

    def check_compare(outdir: Path) -> list[str]:
        rep = read_json(outdir / "compare_report.json")
        if rep.get("passed") is True:
            return []
        return [f"compare_report.json: passed={rep.get('passed')} "
                f"(late ratio {rep.get('late_mean_ratio')}, slopes "
                f"{rep.get('slope_series')} vs {rep.get('slope_prediction')})"]

    return [
        Step("quantum-sff", "quantum-sff",
             _cli("quantum-sff", seed, "quantum",
                  {"N": N, "L": 2, "Lambda": 0.2107, "members": members, "t_max": t_max}),
             check_series, rate_metric="members_per_s", work=members,
             fingerprint_columns={"sff_numeric.csv": "K"}),
        Step("compare", "compare",
             _cli("compare", seed, "compare",
                  {"series_csv": str(series),
                   "prediction": {"L": 2, "T_H": float(dim), "chi": 0.9, "form": "kappa"}}),
             check_compare),
    ]


# ---------------------------------------------------------------------------
# mc-variance


def mc_variance(seed: int, base: Path, tiny: bool = False, amplitude: float = 1.0) -> list[Step]:
    if tiny:
        sec = {"T": 4, "samples": 2000, "horizon": 16, "t_max": 3,
               "invariance_checks": 1, "invariance_samples": 2000}
    else:
        sec = {"T": 16, "samples": 20000, "horizon": 64, "t_max": 10,
               "invariance_checks": 2, "invariance_samples": 20000}
    sec.update({"estimator": "time-average", "agreement_check": True,
                "system": {"L": 2, "amplitude": amplitude}})
    T, n, H, t_max = sec["T"], sec["samples"], sec["horizon"], sec["t_max"]
    # sample x step units the config asks for, independent of the algorithm:
    # table entries s~ = 1..T-1, two estimates per invariance check and the
    # agreement time average over H steps, plus one estimate per term of the
    # correlation series (t_max + 1 synchronous, 2 t_max + 1 shifted)
    work = ((T - 1) * n * H + 2 * sec["invariance_checks"] * sec["invariance_samples"] * H
            + n * H + n * (3 * t_max + 2))
    # per-bond sigma^2(s~ != 0) is amplitude^2 exactly; the L = 2 ring's two
    # bonds double the observable, so the full-shift value is 4 amplitude^2
    bond_exact = amplitude ** 2
    full_exact = 4.0 * amplitude ** 2

    def check(outdir: Path) -> list[str]:
        bad = []
        for r in read_csv(outdir / "variance_table.csv"):
            st, v, e = int(r["s_tilde"]), float(r["sigma2"]), float(r["std_error"])
            if st and not (e > 0.0 and abs(v - bond_exact) <= Z * e):
                bad.append(f"variance_table.csv: sigma2({st}) = {v} +- {e}, exact {bond_exact}")
        rep = read_json(outdir / "variance_report.json")
        if rep.get("invariance_all_ok") is not True:
            bad.append("variance_report.json: invariance_all_ok is not true")
        agr = rep.get("agreement", {})
        if agr.get("ok") is not True:
            bad.append("variance_report.json: agreement.ok is not true")
        elif not (abs(agr["time_average"] - full_exact) <= Z * agr["time_average_err"]
                  and abs(agr["series"] - full_exact)
                  <= Z * agr["series_err"] + agr["series_truncation_bound"]):
            bad.append(f"variance_report.json: agreement {agr['time_average']} / "
                       f"{agr['series']} inconsistent with exact {full_exact}")
        return bad

    return [Step("variance", "variance", _cli("variance", seed, "variance", sec), check,
                 rate_metric="mc_sample_steps_per_s", work=work,
                 fingerprint_columns={"variance_table.csv": "sigma2"})]


# ---------------------------------------------------------------------------
# exact-orbits-clt


def exact_orbits_clt(seed: int, base: Path, tiny: bool = False) -> list[Step]:
    if tiny:
        periods, inventory_max_T, max_period = list(range(1, 9)), 6, 4
        clt = {"T_list": [4, 12], "budget": 2000, "csv_rows": 2000}
    else:
        periods, inventory_max_T, max_period = list(range(1, 17)), 11, 6
        clt = {"T_list": [4, 8, 10, 16, 32], "budget": 100_000, "csv_rows": 20_000}
    clt["mode"] = "auto"
    pairs = pair_count(max_period)

    def check_orbits(outdir: Path) -> list[str]:
        bad = []
        summary = read_csv(outdir / "orbit_summary.csv")
        if [int(r["T"]) for r in summary] != periods:
            bad.append("orbit_summary.csv: periods differ from T_list")
        for r in summary:
            T, want = int(r["T"]), period_point_count(int(r["T"]))
            if int(r["count"]) != want or int(r["expected_count"]) != want:
                bad.append(f"orbit_summary.csv: T={T} count {r['count']}, |tr M^T - 2| = {want}")
            if not abs(float(r["sum_rule"]) - 1.0) <= SUM_RULE_TOL:
                bad.append(f"orbit_summary.csv: T={T} sum rule {r['sum_rule']}")
        covered = {}
        for r in read_csv(outdir / "orbit_inventory.csv"):
            covered[int(r["T"])] = covered.get(int(r["T"]), 0) + int(r["primitive_period"])
        for T in (t for t in periods if t <= inventory_max_T):
            if covered.get(T) != period_point_count(T):
                bad.append(f"orbit_inventory.csv: T={T} orbits cover {covered.get(T)} points")
        return bad

    def check_clt(outdir: Path) -> list[str]:
        bad = []
        rep = read_json(outdir / "clt_report.json")
        modes = set()
        for T in clt["T_list"]:
            r = rep.get(str(T))
            if r is None:
                bad.append(f"clt_report.json: no entry for T={T}")
                continue
            modes.add(r["mode"])
            if r["n"] != clt["budget"] or r["degenerate"]:
                bad.append(f"clt_report.json: T={T} n={r['n']} degenerate={r['degenerate']}")
        if modes != {"exact", "proxy"}:
            bad.append(f"clt_report.json: sampling modes {sorted(modes)}, want exact and proxy")
        rows = len(read_csv(outdir / "phase_samples.csv"))
        if rows != len(clt["T_list"]) * min(clt["budget"], clt["csv_rows"]):
            bad.append(f"phase_samples.csv: {rows} rows")
        return bad

    def check_continuation(outdir: Path) -> list[str]:
        records = read_json(outdir / "continuation.json")
        bad = [f"continuation: {pairs - len(records)} pairs missing"] * max(0, pairs - len(records))
        for r in records:
            pair = f"T={r['T']} family {r['family']} r={r['r']} s={r['s']}"
            if not all(r["converged"]):
                bad.append(f"continuation: {pair} did not converge")
            elif r["max_residual"] >= DEGENERATE_RESIDUAL and not (
                    r["exponent"] is not None and r["exponent"] >= MIN_EXPONENT):
                bad.append(f"continuation: {pair} exponent {r['exponent']} < {MIN_EXPONENT}")
        return bad

    return [
        Step("orbits", "orbits",
             _cli("orbits", seed, "orbits", {"T_list": periods, "inventory_max_T": inventory_max_T}),
             check_orbits, rate_metric="orbit_points_per_s",
             work=sum(period_point_count(T) for T in periods)),
        Step("clt", "clt", _cli("clt", seed, "clt", clt), check_clt,
             rate_metric="phase_samples_per_s", work=clt["budget"] * len(clt["T_list"])),
        Step("continuation", None, None, check_continuation, ops=pairs,
             rate_metric="continuation_pairs_per_s", work=pairs, max_period=max_period),
    ]


WORKLOADS = {
    "quantum-ensemble": quantum_ensemble,
    "mc-variance": mc_variance,
    "exact-orbits-clt": exact_orbits_clt,
}
