"""Experiment orchestration: config files, pipelines, manifests, reports.

One experiment = one directory holding a config snapshot, a manifest with
output digests and per-task seeds, and CSV/JSON artifacts.  Reruns with the
same config and seed produce byte-identical CSV bodies.
"""
from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .dynamics import DEFAULT_MAP, CatMapSpec, SystemSpec
from .orbits import periodic_point_count, subsystem_orbits, sum_rule_check, stability_amplitude_sq
from .phases import (
    clt_diagnostics,
    per_bond_variance_table,
    sample_phase_distribution,
    variance_series,
    variance_time_average,
)
from .potts import PottsParams, SffPrediction, bound_check, closed_form_sff, scaled_kappa, thouless_time
from .quantum import CircuitSpec, EnsembleSpec, SffSeries, compare, sff_numeric
from .util import fmt_float, sha256_file, spawn_seeds

KINDS = ("predict", "orbits", "clt", "variance", "quantum-sff", "compare", "bound-check")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    """Config file failed to parse or validate."""


class SchemaError(ValueError):
    """An artifact file does not match its declared schema."""


class ExperimentError(RuntimeError):
    """Experiment execution failed after validation."""


_REQUIRED = object()

_MAP_SCHEMA = {"a": (int, _REQUIRED), "b": (int, _REQUIRED),
               "c": (int, _REQUIRED), "d": (int, _REQUIRED)}

_PREDICTION_SCHEMA = {
    "L": (int, _REQUIRED),
    "T_H": (float, _REQUIRED),
    "chi": (float, None),
    "Lambda": (float, None),
    "sigma2_phi": (float, 1.0),
    "form": (str, "closed-form"),  # closed-form | kappa
}

_SYSTEM_SCHEMA = {
    "L": (int, _REQUIRED),
    "subsystem": (_MAP_SCHEMA, None),
    "interaction": (str, "cosine"),
    "amplitude": (float, 1.0),
    "topology": (str, "nearest-neighbour-periodic"),
    "epsilon": (float, 0.0),
}

SECTION_SCHEMAS = {
    "predict": {
        "L": (int, _REQUIRED),
        "chi": (float, None),
        "Lambda": (float, None),
        "sigma2_phi": (float, 1.0),
        "T_H": (float, 100.0),
        "T_start": (float, 1.0),
        "T_stop": (float, 1e5),
        "T_points": (int, 400),
        "T_spacing": (str, "log"),
        "emit_limits": (bool, True),
        "emit_kappa": (bool, False),
    },
    "orbits": {
        "T_list": (list, _REQUIRED),
        "map": (_MAP_SCHEMA, None),
        "max_points": (int, 5_000_000),
        "inventory_max_T": (int, 8),
    },
    "clt": {
        "L": (int, 2),
        "system": (_SYSTEM_SCHEMA, None),
        "T_list": (list, _REQUIRED),
        "s": (list, None),
        "budget": (int, 100_000),
        "mode": (str, "auto"),
        "csv_rows": (int, 20_000),
    },
    "variance": {
        "L": (int, 2),
        "system": (_SYSTEM_SCHEMA, None),
        "T": (int, 16),
        "estimator": (str, "time-average"),
        "samples": (int, 20_000),
        "horizon": (int, 256),
        "t_max": (int, 10),
        "invariance_checks": (int, 0),
        "invariance_samples": (int, 20_000),
        "agreement_check": (bool, False),
        "agreement_s": (list, None),
    },
    "quantum": {
        "N": (int, _REQUIRED),
        "L": (int, 2),
        "Lambda": (float, None),
        "epsilon": (float, None),
        "members": (int, 64),
        "t_max": (int, 0),
        "translations": (bool, True),
        "bond_offsets": (bool, True),
        "memory_budget_mb": (int, 2048),
    },
    "compare": {
        "series_csv": (str, _REQUIRED),
        "prediction": (_PREDICTION_SCHEMA, _REQUIRED),
        "late_window": (list, [0.4, 1.0]),
        "slope_tol": (float, 0.25),
        "ratio_tol": (float, 0.25),
        "use_raw": (bool, False),
    },
    "bound": {
        "L": (int, 2),
        "T_H": (float, 16.0),
        "Lambda": (float, 2.0),
        "f0": (float, 1.0),
        "families": (list, _REQUIRED),
        "T_start": (int, 2),
        "T_stop": (int, 256),
        "T_points": (int, 24),
    },
}

KIND_SECTION = {
    "predict": "predict",
    "orbits": "orbits",
    "clt": "clt",
    "variance": "variance",
    "quantum-sff": "quantum",
    "compare": "compare",
    "bound-check": "bound",
}


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    outdir: str
    workers: int
    section: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "outdir": self.outdir,
            "workers": self.workers,
            KIND_SECTION[self.kind]: dict(self.section),
        }


@dataclass
class RunManifest:
    config: dict
    version: str
    wall_time_s: float
    task_seeds: dict
    digests: dict
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "version": self.version,
            "wall_time_s": self.wall_time_s,
            "task_seeds": self.task_seeds,
            "digests": self.digests,
            "extras": self.extras,
        }


def _cast(value, typ, path):
    if typ is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"field {path}: expected a number, got {value!r}")
        return float(value)
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"field {path}: expected an integer, got {value!r}")
        return int(value)
    if typ is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"field {path}: expected a boolean, got {value!r}")
        return value
    if typ is str:
        if not isinstance(value, str):
            raise ConfigError(f"field {path}: expected a string, got {value!r}")
        return value
    if typ is list:
        if not isinstance(value, list):
            raise ConfigError(f"field {path}: expected a list, got {value!r}")
        return list(value)
    raise ConfigError(f"field {path}: unsupported type")


def _validate_section(data, schema, path):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"section {path}: expected a mapping")
    out = {}
    for key in data:
        if key not in schema:
            raise ConfigError(f"unknown key {path}.{key}")
    for key, (typ, default) in schema.items():
        if key in data and data[key] is not None:
            if isinstance(typ, dict):
                out[key] = _validate_section(data[key], typ, f"{path}.{key}")
            else:
                out[key] = _cast(data[key], typ, f"{path}.{key}")
        else:
            if default is _REQUIRED:
                raise ConfigError(f"missing required field {path}.{key}")
            out[key] = default
    return out


def validate_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"field kind: must be one of {KINDS}, got {kind!r}")
    section_name = KIND_SECTION[kind]
    allowed_top = {"kind", "seed", "outdir", "workers", section_name}
    for key in data:
        if key not in allowed_top:
            raise ConfigError(f"unknown key {key}")
    if "seed" not in data:
        raise ConfigError("missing required field seed (master seed is mandatory)")
    if "outdir" not in data:
        raise ConfigError("missing required field outdir")
    seed = _cast(data["seed"], int, "seed")
    outdir = _cast(data["outdir"], str, "outdir")
    workers = _cast(data.get("workers", 1), int, "workers")
    section = _validate_section(data.get(section_name), SECTION_SCHEMAS[section_name],
                                section_name)
    return ExperimentConfig(kind=kind, seed=seed, outdir=outdir, workers=workers,
                            section=section)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as f:
            data = yaml.safe_load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as e:
        raise ConfigError(f"config parse error in {path}: {e}")
    return validate_config(data)


def dump_config(cfg: ExperimentConfig) -> str:
    return yaml.safe_dump(cfg.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# artifact io


class _OutputTracker:
    def __init__(self):
        self.paths: list[Path] = []

    def add(self, path):
        self.paths.append(Path(path))

    def cleanup(self):
        for p in self.paths:
            try:
                p.unlink()
            except OSError:
                pass


def _write_csv(tracker, path, schema, header, rows):
    with open(path, "w", newline="") as f:
        f.write(f"# schema: sfflab/{schema} v1\n")
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([fmt_float(v) if isinstance(v, float) else v for v in row])
    tracker.add(path)


def _write_json(tracker, path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    tracker.add(path)


def read_sff_csv(path) -> SffSeries:
    """Read back an sff_numeric.csv artifact."""
    with open(path) as f:
        first = f.readline()
        if "sfflab/sff_numeric" not in first:
            raise SchemaError(f"{path}: missing sff_numeric schema header")
        rows = list(csv.DictReader(f))
    if not rows:
        raise SchemaError(f"{path}: empty series")
    for fieldname in ("t", "K", "K_raw", "err"):
        if fieldname not in rows[0]:
            raise SchemaError(f"{path}: missing field {fieldname}")
    times = np.array([int(r["t"]) for r in rows])
    vals = np.array([float(r["K"]) for r in rows])
    raw = np.array([float(r["K_raw"]) for r in rows])
    err = np.array([float(r["err"]) for r in rows])
    meta = {}
    for key in ("N", "L"):
        if key in rows[0]:
            meta[key] = int(rows[0][key])
    return SffSeries(times=times, values=vals, errors=err, raw_values=raw,
                     raw_errors=err.copy(), meta=meta)


# ---------------------------------------------------------------------------
# pipelines


def _t_grid(sec) -> np.ndarray:
    spacing = sec["T_spacing"]
    if spacing == "log":
        return np.geomspace(sec["T_start"], sec["T_stop"], sec["T_points"])
    if spacing == "linear":
        return np.linspace(sec["T_start"], sec["T_stop"], sec["T_points"])
    if spacing == "integer":
        return np.arange(math.ceil(sec["T_start"]), math.floor(sec["T_stop"]) + 1, dtype=float)
    raise ConfigError(f"field T_spacing: unknown spacing {spacing!r}")


def _potts_params(sec, path) -> PottsParams:
    chi, lam = sec.get("chi"), sec.get("Lambda")
    if (chi is None) == (lam is None):
        raise ConfigError(f"section {path}: specify exactly one of chi or Lambda")
    if chi is not None:
        return PottsParams.from_chi(sec["L"], sec["T_H"], chi, sec["sigma2_phi"])
    return PottsParams(L=sec["L"], T_H=sec["T_H"], lam=lam, sigma2_phi=sec["sigma2_phi"])


def _run_predict(cfg, outdir, tracker):
    sec = cfg.section
    params = _potts_params(sec, "predict")
    grid = _t_grid(sec)
    pred = closed_form_sff(params, grid)
    header = ["T", "tau", "K", "log10_K", "mode", "L", "chi", "Lambda", "sigma2_phi"]
    rows = []

    def emit(p: SffPrediction, mode: str, chi_val: float):
        for T, K, logK in zip(p.times, p.values, p.log_values):
            rows.append([float(T), float(T / params.T_H), float(K),
                         float(logK / math.log(10.0)), mode, params.L,
                         float(chi_val), float(params.lam), float(params.sigma2_phi)])

    emit(pred, "closed-form", params.chi)
    if sec["emit_limits"]:
        emit(closed_form_sff(PottsParams.from_chi(params.L, params.T_H, 1.0), grid),
             "limit-chi1", 1.0)
        emit(closed_form_sff(PottsParams.from_chi(params.L, params.T_H, 0.0), grid),
             "limit-chi0", 0.0)
    _write_csv(tracker, outdir / "predict_sff.csv", "predict_sff", header, rows)
    if sec["emit_kappa"]:
        tau = grid / params.T_H
        kap = scaled_kappa(params, tau)
        _write_csv(tracker, outdir / "kappa.csv", "kappa",
                   ["tau", "kappa", "L", "chi"],
                   [[float(t), float(k), params.L, float(params.chi)] for t, k in zip(tau, kap)])
    return {"n_rows": len(rows), "params": params.to_dict()}


def _run_orbits(cfg, outdir, tracker):
    sec = cfg.section
    m = CatMapSpec(**sec["map"]) if sec["map"] else DEFAULT_MAP
    summary = []
    inventory = []
    for T in sec["T_list"]:
        T = int(T)
        expected = periodic_point_count(T, m)
        orbits = None
        if T <= sec["inventory_max_T"]:
            orbits = subsystem_orbits(T, m, sec["max_points"])
            count = sum(o.primitive_period for o in orbits)
            for o in orbits:
                r = o.representative
                inventory.append([T, r.num_q, r.num_p, r.den, o.primitive_period])
        else:
            from .orbits import enumerate_lattice
            nq, _, _ = enumerate_lattice(T, m, sec["max_points"])
            count = len(nq)
        summary.append([T, count, expected, float(stability_amplitude_sq(T, m)),
                        float(sum_rule_check(T, m, sec["max_points"]))])
    _write_csv(tracker, outdir / "orbit_summary.csv", "orbit_summary",
               ["T", "count", "expected_count", "amplitude_sq", "sum_rule"], summary)
    _write_csv(tracker, outdir / "orbit_inventory.csv", "orbit_inventory",
               ["T", "num_q", "num_p", "den", "primitive_period"], inventory)
    return {"periods": [int(t) for t in sec["T_list"]]}


def _staircase(L, T):
    return tuple(l % T for l in range(L))


def _system_from(sec) -> SystemSpec:
    if sec.get("system"):
        return SystemSpec.from_dict(sec["system"])
    return SystemSpec(L=sec["L"])


def _run_clt(cfg, outdir, tracker):
    sec = cfg.section
    spec = _system_from(sec)
    seeds = spawn_seeds(cfg.seed, len(sec["T_list"]))
    sample_rows = []
    report = {}
    for T, seed in zip(sec["T_list"], seeds):
        T = int(T)
        s = tuple(int(v) for v in sec["s"]) if sec["s"] else _staircase(spec.L, T)
        sset = sample_phase_distribution(spec, T, s, sec["budget"], seed, mode=sec["mode"])
        rep = clt_diagnostics(sset)
        s_str = ";".join(str(v) for v in s)
        rt = math.sqrt(T)
        for i, v in enumerate(sset.phi_tilde[: sec["csv_rows"]]):
            sample_rows.append([T, sset.mode, i, float(v * rt), float(v), s_str])
        report[str(T)] = {
            "mode": sset.mode,
            "s": list(s),
            "n": rep.n,
            "skewness": rep.skewness,
            "excess_kurtosis": rep.excess_kurtosis,
            "ks_distance": rep.ks_distance,
            "fitted_variance": rep.fitted_variance,
            "degenerate": rep.degenerate,
            "seed": seed,
        }
    _write_csv(tracker, outdir / "phase_samples.csv", "phase_samples",
               ["T", "mode", "index", "phi", "phi_tilde", "s"], sample_rows)
    _write_json(tracker, outdir / "clt_report.json", report)
    return {"task_seeds": {f"T={t}": s for t, s in zip(sec["T_list"], seeds)}}


def _run_variance(cfg, outdir, tracker):
    sec = cfg.section
    T = sec["T"]
    seeds = spawn_seeds(cfg.seed, 3 + 2 * sec["invariance_checks"])
    spec2 = SystemSpec(L=2)
    table = per_bond_variance_table(
        spec2, T, estimator=sec["estimator"], samples=sec["samples"],
        seed=seeds[0], horizon=sec["horizon"], t_max=sec["t_max"],
    )
    _write_csv(tracker, outdir / "variance_table.csv", "variance_table",
               ["s_tilde", "sigma2", "std_error", "estimator", "T"],
               [[st, float(table.values[st][0]), float(table.values[st][1]),
                 sec["estimator"], T] for st in range(T)])

    report = {"table_T": T, "estimator": sec["estimator"]}
    specL = _system_from(sec)
    if sec["invariance_checks"] > 0:
        from .util import philox

        rng = philox(seeds[1])
        checks = []
        for i in range(sec["invariance_checks"]):
            # draw an asynchronous shift: the synchronous class has variance 0
            # and its finite-horizon estimate is a pure boundary remnant, so
            # remnant-vs-remnant comparison would not test the invariance
            while True:
                s = tuple(int(v) for v in rng.integers(0, T, size=specL.L))
                if len(set(s)) > 1:
                    break
            t_shift = int(rng.integers(1, T))
            s2 = tuple((v + t_shift) % T for v in s)
            e1 = variance_time_average(specL, s, sec["horizon"],
                                       sec["invariance_samples"], seeds[3 + 2 * i])
            e2 = variance_time_average(specL, s2, sec["horizon"],
                                       sec["invariance_samples"], seeds[4 + 2 * i])
            comb = math.sqrt(e1.std_error**2 + e2.std_error**2)
            # unconverged-horizon systematics estimated from the ladder drift
            drift = abs(e1.ladder[-1][1] - e1.ladder[-2][1]) + abs(e2.ladder[-1][1] - e2.ladder[-2][1])
            checks.append({
                "s": list(s), "t": t_shift,
                "sigma2": e1.sigma2, "sigma2_shifted": e2.sigma2,
                "combined_err": comb, "ladder_drift": drift,
                "ok": bool(abs(e1.sigma2 - e2.sigma2) <= 3.0 * comb + drift),
            })
        report["invariance_checks"] = checks
        report["invariance_all_ok"] = all(c["ok"] for c in checks)
    if sec["agreement_check"]:
        s = tuple(int(v) for v in sec["agreement_s"]) if sec["agreement_s"] else _staircase(specL.L, T)
        ta = variance_time_average(specL, s, sec["horizon"], sec["samples"], seeds[2])
        se = variance_series(specL, s, sec["t_max"], sec["samples"], seeds[2] + 1)
        comb = math.sqrt(ta.std_error**2 + se.std_error**2)
        report["agreement"] = {
            "s": list(s),
            "time_average": ta.sigma2, "time_average_err": ta.std_error,
            "series": se.sigma2, "series_err": se.std_error,
            "series_truncation_bound": se.truncation_bound,
            "ok": bool(abs(ta.sigma2 - se.sigma2) <= 3.0 * comb + se.truncation_bound),
        }
    _write_json(tracker, outdir / "variance_report.json", report)
    # the agreement series estimate runs at seed agreement + 1
    task_seeds = {"table": seeds[0], "invariance_shifts": seeds[1], "agreement": seeds[2]}
    for i in range(sec["invariance_checks"]):
        task_seeds[f"invariance_{i}"] = seeds[3 + 2 * i]
        task_seeds[f"invariance_{i}_shifted"] = seeds[4 + 2 * i]
    return {"task_seeds": task_seeds}


def _run_quantum(cfg, outdir, tracker):
    sec = cfg.section
    if (sec.get("Lambda") is None) == (sec.get("epsilon") is None):
        raise ConfigError("section quantum: specify exactly one of Lambda or epsilon")
    spec = CircuitSpec(
        L=sec["L"], N=sec["N"],
        epsilon=sec.get("epsilon"), lam=sec.get("Lambda"),
        ensemble=EnsembleSpec(members=sec["members"], seed=cfg.seed,
                              translations=sec["translations"],
                              bond_offsets=sec["bond_offsets"]),
        memory_budget_bytes=sec["memory_budget_mb"] * 2**20,
    )
    t_max = sec["t_max"] or int(round(1.25 * spec.T_H))
    series = sff_numeric(spec, t_max, workers=cfg.workers)
    rows = [
        [int(t), float(t / spec.T_H), float(k), float(kr), float(e),
         spec.N, spec.L, float(spec.eps_effective), float(spec.lam or 0.0)]
        for t, k, kr, e in zip(series.times, series.values, series.raw_values, series.errors)
    ]
    _write_csv(tracker, outdir / "sff_numeric.csv", "sff_numeric",
               ["t", "tau", "K", "K_raw", "err", "N", "L", "epsilon", "Lambda"], rows)
    return {"epsilon": spec.eps_effective, "T_H": spec.T_H, "members": sec["members"]}


def _prediction_for(sec_pred, times) -> tuple[SffPrediction, float | None]:
    chi, lam = sec_pred.get("chi"), sec_pred.get("Lambda")
    if (chi is None) == (lam is None):
        raise ConfigError("section compare.prediction: specify exactly one of chi or Lambda")
    if chi is not None:
        params = PottsParams.from_chi(sec_pred["L"], sec_pred["T_H"], chi, sec_pred["sigma2_phi"])
    else:
        params = PottsParams(L=sec_pred["L"], T_H=sec_pred["T_H"], lam=lam,
                             sigma2_phi=sec_pred["sigma2_phi"])
    times = np.asarray(times, dtype=float)
    try:
        t_th = thouless_time(params)
    except Exception:
        t_th = None
    if sec_pred["form"] == "kappa":
        tau = times / params.T_H
        vals = params.T_H * np.asarray(scaled_kappa(params, tau))
        pred = SffPrediction(times=times, values=vals, log_values=np.log(vals),
                             mode="scaled-kappa", params=params.to_dict())
    elif sec_pred["form"] == "closed-form":
        pred = closed_form_sff(params, times)
    else:
        raise ConfigError(f"compare.prediction.form: unknown form {sec_pred['form']!r}")
    return pred, t_th


def report_text(rep_dict: dict) -> str:
    lines = ["comparison report",
             "-----------------"]
    for key in ("chi2_per_point", "median_ratio", "late_mean_ratio",
                "slope_series", "slope_prediction", "bump_time", "thouless_tau"):
        lines.append(f"{key:>20}: {rep_dict.get(key)}")
    for key in ("slope_ok", "ratio_ok", "passed"):
        if key in rep_dict:
            lines.append(f"{key:>20}: {'PASS' if rep_dict[key] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _run_compare(cfg, outdir, tracker):
    import dataclasses

    sec = cfg.section
    series = read_sff_csv(sec["series_csv"])
    if sec["use_raw"]:
        series = dataclasses.replace(series, values=series.raw_values,
                                     errors=series.raw_errors)
    pred, t_th = _prediction_for(sec["prediction"], series.times)
    rep = compare(series, pred, late_window=tuple(sec["late_window"]),
                  slope_tol=sec["slope_tol"], thouless_tau=t_th)
    out = rep.to_dict()
    out["prediction_form"] = sec["prediction"]["form"]
    out["ratio_ok"] = bool(abs(out["late_mean_ratio"] - 1.0) <= sec["ratio_tol"]) \
        if np.isfinite(out["late_mean_ratio"]) else False
    out["passed"] = bool(out["ratio_ok"] and out["slope_ok"])
    _write_json(tracker, outdir / "compare_report.json", out)
    with open(outdir / "compare_report.txt", "w") as f:
        f.write(report_text(out))
    tracker.add(outdir / "compare_report.txt")
    return {"passed": out["passed"]}


def _run_bound(cfg, outdir, tracker):
    sec = cfg.section
    grid = np.unique(np.geomspace(sec["T_start"], sec["T_stop"], sec["T_points"]).astype(int))
    rows = []
    verdicts = []
    for fam in sec["families"]:
        if not isinstance(fam, dict) or set(fam) - {"eta", "theta"}:
            raise ConfigError("section bound.families: entries must be {eta, theta} mappings")
        res = bound_check(sec["L"], sec["T_H"], sec["Lambda"], sec["f0"],
                          float(fam["eta"]), float(fam["theta"]), grid)
        for i, T in enumerate(res.times):
            rows.append([float(res.eta), float(res.theta), int(T),
                         float(res.K[i]), float(res.K0[i]),
                         float(res.deviation[i]), float(res.bound[i]),
                         bool(res.deviation[i] <= res.bound[i] + 1e-12)])
        verdicts.append({
            "eta": res.eta, "theta": res.theta,
            "a": res.a, "A": res.A,
            "dominated": res.dominated,
            "final_relative_deviation": float(res.relative_deviation[-1]),
        })
    _write_csv(tracker, outdir / "bound_check.csv", "bound_check",
               ["eta", "theta", "T", "K", "K0", "abs_dev", "bound", "ok"], rows)
    _write_json(tracker, outdir / "bound_report.json",
                {"families": verdicts, "all_dominated": all(v["dominated"] for v in verdicts)})
    return {"families": len(verdicts)}


_PIPELINES = {
    "predict": _run_predict,
    "orbits": _run_orbits,
    "clt": _run_clt,
    "variance": _run_variance,
    "quantum-sff": _run_quantum,
    "compare": _run_compare,
    "bound-check": _run_bound,
}


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Execute one experiment into its directory and return the manifest."""
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    tracker = _OutputTracker()
    with open(outdir / "config_snapshot.yaml", "w") as f:
        f.write(dump_config(cfg))
    tracker.add(outdir / "config_snapshot.yaml")
    t0 = time.monotonic()
    try:
        extras = _PIPELINES[cfg.kind](cfg, outdir, tracker)
    except (ConfigError, SchemaError):
        tracker.cleanup()
        raise
    except Exception as e:
        tracker.cleanup()
        raise ExperimentError(f"experiment {cfg.kind} failed: {e}") from e
    wall = time.monotonic() - t0
    digests = {p.name: sha256_file(p) for p in tracker.paths}
    task_seeds = {"master": cfg.seed, **extras.pop("task_seeds", {})}
    manifest = RunManifest(
        config=cfg.to_dict(),
        version=__version__,
        wall_time_s=wall,
        task_seeds=task_seeds,
        digests=digests,
        extras=_jsonable(extras),
    )
    with open(outdir / "manifest.json", "w") as f:
        json.dump(manifest.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def verify_manifest(outdir) -> bool:
    """Re-hash the artifacts and check them against the recorded digests."""
    outdir = Path(outdir)
    with open(outdir / "manifest.json") as f:
        manifest = json.load(f)
    for name, digest in manifest["digests"].items():
        if sha256_file(outdir / name) != digest:
            return False
    return True


def report(paths) -> tuple[str, dict]:
    """Summarize one or more compare_report.json files; all-pass aggregate."""
    combined = {"reports": [], "all_passed": True}
    blocks = []
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        for key in ("chi2_per_point", "median_ratio", "passed"):
            if key not in data:
                raise SchemaError(f"{path}: missing field {key}")
        combined["reports"].append({"path": str(path), **data})
        combined["all_passed"] = combined["all_passed"] and bool(data["passed"])
        blocks.append(f"== {path} ==\n" + report_text(data))
    text = "\n".join(blocks)
    text += f"\noverall: {'ALL PASS' if combined['all_passed'] else 'FAILURES PRESENT'}\n"
    return text, combined
