"""Experiment orchestration: config files, pipelines, manifests, reports.

One experiment = one directory holding a config snapshot, a manifest with
output digests and per-task seeds, and CSV/JSON artifacts.  Reruns with the
same config and seed produce byte-identical CSV bodies.
"""
from __future__ import annotations

import csv
import json
import math
import os
import re
import resource
import shutil
import signal
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import yaml

from . import __version__
from .dynamics import (DEFAULT_MAP, NEAREST_NEIGHBOUR, CatMapSpec, SpecError, SystemSpec,
                       check_lattice_map, check_lattice_points)
from .orbits import (MAX_LISTED_POINTS, MAX_PERIOD, periodic_point_count, smith_lattice,
                     stability_amplitude_sq, subsystem_orbits)
from .phases import (
    TIME_AVERAGE_HORIZON,
    clt_diagnostics,
    per_bond_variance_table,
    sample_phase_distribution,
    variance_series,
    variance_time_average,
)
from .potts import (PREDICTION_FORMS, PottsError, PottsParams, bound_check, check_family,
                    prediction, scaled_kappa, thouless_time)
from .quantum import (CircuitSpec, ConventionError, SffSeries, compare, reference_trace_error,
                      sff_numeric)
from .util import philox, sha256_file, spawn_seeds

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

# key -> (type, default[, rule]).  A type is a scalar type, a nested schema
# dict, or [element type] for a list, which must not be empty when given; a
# rule is a tuple of allowed values, a range, or a lower bound, applied to each
# element of a list.  A nested schema whose default is {} is filled from its
# own defaults when the key is absent.
_MAP_SCHEMA = {"a": (int, _REQUIRED), "b": (int, _REQUIRED),
               "c": (int, _REQUIRED), "d": (int, _REQUIRED)}

_PREDICTION_SCHEMA = {
    "L": (int, None),
    "T_H": (float, None),
    "chi": (float, None),
    "Lambda": (float, None),
    "form": (str, "closed-form", PREDICTION_FORMS),
}

_SYSTEM_SCHEMA = {
    "L": (int, _REQUIRED),
    "subsystem": (_MAP_SCHEMA, None),
    "amplitude": (float, 1.0),
    "topology": (str, "nearest-neighbour-periodic"),
}

_FAMILY_SCHEMA = {"eta": (float, _REQUIRED), "theta": (float, _REQUIRED)}

SECTION_SCHEMAS = {
    "predict": {
        "L": (int, _REQUIRED),
        "chi": (float, None),
        "Lambda": (float, None),
        "T_H": (float, 100.0),
        "T_start": (float, 1.0, 1),
        "T_stop": (float, 1e5, 1),
        "T_points": (int, 400, 1),
        "T_spacing": (str, "log", ("log", "linear", "integer")),
        "emit_kappa": (bool, False),
    },
    "orbits": {
        "T_list": ([int], _REQUIRED, range(1, MAX_PERIOD + 1)),
        "map": (_MAP_SCHEMA, None),
        "inventory_max_T": (int, 8),
    },
    "clt": {
        "system": (_SYSTEM_SCHEMA, None),
        "T_list": ([int], _REQUIRED, 1),
        "s": ([int], None),
        "budget": (int, 100_000, 1000),  # clt_diagnostics needs 1000 samples
        "mode": (str, "auto", ("auto", "exact", "proxy")),
        "csv_rows": (int, 20_000, 0),
    },
    "variance": {
        "system": (_SYSTEM_SCHEMA, None),
        "T": (int, 16, 1),
        "estimator": (str, "time-average", ("time-average", "series")),
        "samples": (int, 20_000, 2),  # an error bar needs two samples
        "horizon": (int, TIME_AVERAGE_HORIZON, 4),  # variance_time_average needs 4
        "t_max": (int, 10, 0),
        "invariance_checks": (int, 0, 0),
        "invariance_samples": (int, 20_000, 2),
        "agreement_check": (bool, False),
        "agreement_s": ([int], None, 0),
    },
    "quantum": {
        "N": (int, _REQUIRED),
        "L": (int, 2),
        "Lambda": (float, _REQUIRED),
        "members": (int, 64, 2),  # an error bar needs two members
        "t_max": (int, 0, 0),  # 0: 1.25 T_H
        "memory_budget_mb": (int, 2048, 1),
    },
    "compare": {
        "series_csv": (str, _REQUIRED),
        "prediction": (_PREDICTION_SCHEMA, {}),
        "use_raw": (bool, False),
    },
    "bound": {
        "L": (int, 2, 2),  # bound_check needs an asynchronous class: L, T >= 2
        "T_H": (float, 16.0),
        "Lambda": (float, 2.0),
        "f0": (float, 1.0),
        "families": ([_FAMILY_SCHEMA], _REQUIRED),
        "T_start": (int, 2, 2),
        "T_stop": (int, 256, 2),
        "T_points": (int, 24, 1),
    },
}

_TOP_SCHEMA = {"seed": (int, _REQUIRED), "outdir": (str, _REQUIRED), "workers": (int, 1, 1)}


@dataclass
class ExperimentConfig:
    """A validated config; built is the domain object its kind's builder made from it."""

    kind: str
    seed: int
    outdir: str
    workers: int
    section: dict
    built: object = field(init=False, default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "outdir": self.outdir,
            "workers": self.workers,
            _KINDS[self.kind].section: dict(self.section),
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
        return asdict(self)


# schema type -> (accepted Python types, name in errors); a bool is not a number
_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"), bool: (bool, "a boolean"),
          str: (str, "a string"), list: (list, "a list")}


# a float with no dot or an unsigned exponent, which YAML 1.1 reads as a string
_YAML_STRING_FLOAT = re.compile(r"([-+]?\d+)(?:\.(\d*))?[eE]([-+]?)(\d+)")


def _cast(value, typ, path):
    accepted, name = _TYPES[typ]
    if not isinstance(value, accepted) or (isinstance(value, bool) and typ is not bool):
        raise ConfigError(f"field {path}: expected {name}, got {value!r}{_float_hint(value, typ)}")
    return float(value) if typ is float else value


def _float_hint(value, typ) -> str:
    """How to spell a float field's number that YAML 1.1 read as a string: 1e5 as 1.0e+5."""
    m = typ is float and isinstance(value, str) and _YAML_STRING_FLOAT.fullmatch(value)
    if not m:
        return ""
    return f"; YAML 1.1 reads {value} as a string, write {m[1]}.{m[2] or 0}e{m[3] or '+'}{m[4]}"


def _field(value, typ, rule, path):
    if isinstance(typ, dict):
        return _validate_section(value, typ, path)
    if isinstance(typ, list):
        if not _cast(value, list, path):  # a run over nothing checks nothing
            raise ConfigError(f"field {path}: must not be empty")
        return [_field(v, typ[0], rule, f"{path}[{i}]") for i, v in enumerate(value)]
    value = _cast(value, typ, path)
    if isinstance(rule, tuple) and value not in rule:
        raise ConfigError(f"field {path}: must be one of {rule}, got {value!r}")
    if isinstance(rule, range) and value not in rule:
        raise ConfigError(f"field {path}: must lie in [{rule.start}, {rule[-1]}], got {value!r}")
    if isinstance(rule, (int, float)) and value < rule:
        raise ConfigError(f"field {path}: must be >= {rule}, got {value!r}")
    return value


def _validate_section(data, schema, path):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"section {path}: expected a mapping")
    prefix = f"{path}." if path else ""
    for key in data:
        if key not in schema:
            raise ConfigError(f"unknown key {prefix}{key}")
    out = {}
    for key, (typ, default, *rule) in schema.items():
        if data.get(key) is not None or default == {}:
            out[key] = _field(data.get(key), typ, rule[0] if rule else None, prefix + key)
        elif default is _REQUIRED:
            raise ConfigError(f"missing required field {prefix}{key}")
        else:
            out[key] = default
    return out


def validate_config(data: dict) -> ExperimentConfig:
    """The one place a config is rejected: the schema, then the kind's builder, whose
    object the config keeps for run_experiment."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    kind = data.get("kind")
    if kind not in _KINDS:
        raise ConfigError(f"field kind: must be one of {KINDS}, got {kind!r}")
    name, build, _ = _KINDS[kind]
    top = {k: v for k, v in data.items() if k not in ("kind", name)}
    cfg = ExperimentConfig(kind=kind, **_validate_section(top, _TOP_SCHEMA, ""),
                           section=_validate_section(data.get(name), SECTION_SCHEMAS[name], name))
    try:
        cfg.built = build(cfg)
    except (SpecError, PottsError, ConventionError) as e:
        raise ConfigError(f"section {name}: {e}") from None
    return cfg


def read_config(path) -> dict:
    """The raw mapping of a YAML config file, before validation."""
    try:
        with open(path) as f:
            data = yaml.safe_load(f) or {}
    except (OSError, yaml.YAMLError) as e:
        raise ConfigError(f"config file {path}: {e}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path}: root must be a mapping")
    return data


def dump_config(cfg: ExperimentConfig) -> str:
    return yaml.safe_dump(cfg.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# artifact io


_CSV_SLICE = 1 << 16  # rows formatted and written at a time
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')  # cells csv.writer quotes (\r on newer Pythons)


def _write_csv(path, schema, header, blocks):
    """Write a CSV artifact whose rows come from blocks of equal-length columns, in order.

    A column is anything np.asarray takes; its cells are the Python scalars of
    .tolist(), a float column formatted as repr (the shortest round-trip form;
    under numpy 2 repr(np.float64) prints "np.float64(...)") and any other as
    str.  A 0-d column repeats its one cell down the block.  The text is what
    csv.writer(f, lineterminator="\\n") writes, joined per slice of rows; a
    str cell that is empty (a lone one csv quotes as "") or that csv would
    quote raises ValueError instead.
    """
    with open(path, "w", newline="") as f:
        f.write(f"# schema: sfflab/{schema} v1\n")
        for columns in [[[name] for name in header], *blocks]:  # the header is a one-row block
            columns = [np.asarray(c) for c in columns]
            rows = max(len(c) for c in columns if c.ndim)
            for start in range(0, rows, _CSV_SLICE):
                m = min(rows - start, _CSV_SLICE)
                cells = [_cells(c[start:start + m]) if c.ndim else _cells(c[None]) * m
                         for c in columns]
                f.write("\n".join(map(",".join, zip(*cells, strict=True))) + "\n")


def _cells(col):
    """The text of each cell of a column slice; ValueError for an empty one or one csv quotes."""
    if col.dtype.kind == "f":
        return list(map(repr, col.tolist()))
    cells = list(map(str, col.tolist()))
    if col.dtype.kind in "OSU" and ("" in cells or _NEEDS_QUOTES.search("".join(cells))):
        bad = next(c for c in cells if not c or _NEEDS_QUOTES.search(c))
        raise ValueError(f"CSV cell {bad!r} would need quoting")
    return cells


def _write_json(path, payload) -> dict:
    """Write payload as RFC 8259 JSON, each non-finite float as null; returns what it wrote."""
    text = json.dumps(payload, sort_keys=True, default=lambda o: o.item())  # numpy scalars
    data = json.loads(text, parse_constant=lambda nan_or_inf: None)
    with open(path, "w") as f:
        json.dump(data, f, indent=2, allow_nan=False)
        f.write("\n")
    return data


def read_sff_csv(path) -> SffSeries:
    """Read back an sff_numeric.csv artifact; SchemaError names the path if it is malformed."""
    try:
        with open(path) as f:
            if "sfflab/sff_numeric" not in f.readline():
                raise SchemaError(f"{path}: missing sff_numeric schema header")
            rows = list(csv.DictReader(f))
    except OSError as e:
        raise SchemaError(f"{path}: {e}") from None
    if not rows:
        raise SchemaError(f"{path}: empty series")
    for fieldname in ("t", "K", "K_raw", "err", "N", "L"):
        if fieldname not in rows[0]:
            raise SchemaError(f"{path}: missing field {fieldname}")
    for i, r in enumerate(rows, start=1):
        if None in r or None in r.values():  # DictReader's marks for extra and missing cells
            raise SchemaError(f"{path}: data row {i} does not have one cell per field")
    try:
        has_lam = "Lambda" in rows[0]  # a series of the quantum-sff kind records its Lambda
        sizes = {(int(r["N"]), int(r["L"]), float(r["Lambda"]) if has_lam else None) for r in rows}
        if len(sizes) > 1:
            raise SchemaError(f"{path}: rows disagree on (N, L, Lambda): {sorted(sizes)}")
        ((N, L, lam),) = sizes
        return SffSeries(times=np.array([int(r["t"]) for r in rows]),
                         values=np.array([float(r["K"]) for r in rows]),
                         errors=np.array([float(r["err"]) for r in rows]),
                         raw_values=np.array([float(r["K_raw"]) for r in rows]), N=N, L=L,
                         lam=lam)
    except SchemaError:
        raise
    except (ValueError, TypeError) as e:  # SpecError is a ValueError
        raise SchemaError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# pipelines


def _t_grid(sec) -> np.ndarray:
    if sec["T_spacing"] == "integer":
        return np.arange(math.ceil(sec["T_start"]), math.floor(sec["T_stop"]) + 1, dtype=float)
    space = np.geomspace if sec["T_spacing"] == "log" else np.linspace
    return space(sec["T_start"], sec["T_stop"], sec["T_points"])


def _potts_params(sec) -> PottsParams:
    chi, lam = sec["chi"], sec["Lambda"]
    if (chi is None) == (lam is None):
        raise PottsError("specify exactly one of chi or Lambda")
    if chi is not None:
        return PottsParams.from_chi(sec["L"], sec["T_H"], chi)
    return PottsParams(L=sec["L"], T_H=sec["T_H"], lam=lam)


def _predict_params(cfg) -> PottsParams:
    sec = cfg.section
    start, stop = sec["T_start"], sec["T_stop"]
    if stop < start:
        raise SpecError(f"predict.T_stop = {stop} is below predict.T_start = {start}")
    if sec["T_spacing"] == "integer" and math.floor(stop) < math.ceil(start):
        raise SpecError(f"predict.T_stop = {stop}: the integer grid from predict.T_start = "
                        f"{start} is empty")
    return _potts_params(sec)


def _run_predict(cfg, params: PottsParams, outdir):
    sec = cfg.section
    grid = _t_grid(sec)
    header = ["T", "tau", "K", "log10_K", "mode", "L", "chi", "Lambda", "sigma2_phi"]
    blocks = []
    # the run's curve, then its chi = 1 (T^L) and chi = 0 (T) limits
    for mode, p in (("closed-form", params),
                    ("limit-chi1", PottsParams.from_chi(params.L, params.T_H, 1.0)),
                    ("limit-chi0", PottsParams.from_chi(params.L, params.T_H, 0.0))):
        pred = prediction(p, "closed-form", grid)
        blocks.append([pred.times, pred.times / params.T_H, pred.values,
                       pred.log_values / math.log(10.0), mode, params.L, float(p.chi),
                       float(params.lam), 1.0])  # sigma2_phi, 1 per bond
    _write_csv(outdir / "predict_sff.csv", "predict_sff", header, blocks)
    if sec["emit_kappa"]:
        tau = grid / params.T_H
        _write_csv(outdir / "kappa.csv", "kappa", ["tau", "kappa", "L", "chi"],
                   [[tau, scaled_kappa(params, tau), params.L, float(params.chi)]])
    return {"n_rows": len(grid) * len(blocks), "params": params.to_dict()}


def _cat_map(entries) -> CatMapSpec:
    return CatMapSpec(**entries) if entries else DEFAULT_MAP


def _run_orbits(cfg, m: CatMapSpec, outdir):
    sec = cfg.section
    summary = [[], [], [], [], []]
    inventory = [[], [], [], [], []]
    for T in sec["T_list"]:
        if T <= sec["inventory_max_T"]:
            orbits = subsystem_orbits(T, m)
            count = sum(o.primitive_period for o in orbits)
            for o in orbits:
                num_q, num_p, den = o.representative
                for col, v in zip(inventory, (T, num_q, num_p, den, o.primitive_period)):
                    col.append(v)
        else:
            # the Smith invariants count the points without listing them
            d1, d2, _ = smith_lattice(T, m)
            count = d1 * d2
        # every period-T point of a linear map carries the same A^2, so the
        # sum rule over the points is count * A^2 (see sum_rule_check)
        amp2 = stability_amplitude_sq(T, m)
        for col, v in zip(summary, (T, count, periodic_point_count(T, m), amp2, count * amp2)):
            col.append(v)
    _write_csv(outdir / "orbit_summary.csv", "orbit_summary",
               ["T", "count", "expected_count", "amplitude_sq", "sum_rule"], [summary])
    _write_csv(outdir / "orbit_inventory.csv", "orbit_inventory",
               ["T", "num_q", "num_p", "den", "primitive_period"], [inventory])
    return {"periods": sec["T_list"]}


def _orbit_map(cfg) -> CatMapSpec:
    """The section's map; every period it lists (T <= inventory_max_T) fits MAX_LISTED_POINTS."""
    sec = cfg.section
    m = _cat_map(sec["map"])
    for i, T in enumerate(sec["T_list"]):
        count = periodic_point_count(T, m)
        if T <= sec["inventory_max_T"] and count > MAX_LISTED_POINTS:
            raise SpecError(f"orbits.T_list[{i}] = {T}: its {count} points exceed the listing "
                            f"budget {MAX_LISTED_POINTS}; set inventory_max_T below {T} to "
                            f"count them without a listing")
    return m


def _staircase(L, T):
    return tuple(l % T for l in range(L))


def _system_from(cfg) -> SystemSpec:
    """The section's Monte Carlo system; its map must step the 2**53 lattice in int64."""
    system = cfg.section["system"]
    if not system:
        return SystemSpec(L=2)
    spec = SystemSpec(**{**system, "subsystem": _cat_map(system["subsystem"])})
    try:
        check_lattice_map(spec.subsystem)
    except SpecError as e:
        raise SpecError(f"{_KINDS[cfg.kind].section}.system.subsystem: {e}") from None
    return spec


def _check_shift_length(cfg, key, L):
    s = cfg.section[key]
    if s and len(s) != L:
        raise SpecError(f"{_KINDS[cfg.kind].section}.{key} needs one component per site "
                        f"(L = {L}), got {len(s)}")


def _clt_system(cfg) -> SystemSpec:
    spec = _system_from(cfg)
    _check_shift_length(cfg, "s", spec.L)
    if cfg.section["mode"] == "exact":
        for i, T in enumerate(cfg.section["T_list"]):
            if T > MAX_PERIOD:
                raise SpecError(f"clt.T_list[{i}] = {T}: exact mode draws Smith indices of "
                                f"periods up to {MAX_PERIOD} only; use mode auto or proxy")
            try:
                check_lattice_points(smith_lattice(T, spec.subsystem))
            except SpecError as e:
                raise SpecError(f"clt.T_list[{i}] = {T}: {e}; use mode auto or proxy") from None
    return spec


def _variance_system(cfg) -> SystemSpec:
    spec = _system_from(cfg)
    if spec.topology != NEAREST_NEIGHBOUR:
        raise SpecError(f"variance.system.topology must be {NEAREST_NEIGHBOUR} for the "
                        f"per-bond table, got {spec.topology}")
    if cfg.section["invariance_checks"] > 0 and (cfg.section["T"] < 2 or spec.L < 2):
        # an asynchronous shift needs two sites and two residues mod T
        raise SpecError("invariance checks need T >= 2 and L >= 2")
    _check_shift_length(cfg, "agreement_s", spec.L)
    return spec


def _run_clt(cfg, spec: SystemSpec, outdir):
    sec = cfg.section
    seeds = spawn_seeds(cfg.seed, len(sec["T_list"]))
    blocks = []
    report = {}
    for T, seed in zip(sec["T_list"], seeds):
        s = tuple(sec["s"]) if sec["s"] else _staircase(spec.L, T)
        sset = sample_phase_distribution(spec, T, s, sec["budget"], seed, mode=sec["mode"])
        kept = sset.phi_tilde[: sec["csv_rows"]]
        blocks.append([T, sset.mode, np.arange(len(kept)), kept * math.sqrt(T), kept,
                       ";".join(map(str, sset.s))])
        report[str(T)] = {**asdict(clt_diagnostics(sset)), "mode": sset.mode, "s": list(sset.s),
                          "seed": seed}
    _write_csv(outdir / "phase_samples.csv", "phase_samples",
               ["T", "mode", "index", "phi", "phi_tilde", "s"], blocks)
    _write_json(outdir / "clt_report.json", report)
    return {"task_seeds": {f"T={t}": s for t, s in zip(sec["T_list"], seeds)}}


def _run_variance(cfg, spec: SystemSpec, outdir):
    sec = cfg.section
    T = sec["T"]
    seeds = spawn_seeds(cfg.seed, 3 + 2 * sec["invariance_checks"])
    task_seeds = {"table": seeds[0], "invariance_shifts": seeds[1], "agreement": seeds[2]}
    plateau_ok = {}  # the ladder flag of each checked time average, keyed like its seed
    table = per_bond_variance_table(
        spec, T, estimator=sec["estimator"], samples=sec["samples"],
        seed=seeds[0], horizon=sec["horizon"], t_max=sec["t_max"],
    )
    _write_csv(outdir / "variance_table.csv", "variance_table",
               ["s_tilde", "sigma2", "std_error", "estimator", "T"],
               [[np.arange(T), table.sigma2, table.std_error, sec["estimator"], T]])

    report = {"table_T": T, "estimator": sec["estimator"]}
    if sec["invariance_checks"] > 0:
        rng = philox(seeds[1])
        checks = []
        for i in range(sec["invariance_checks"]):
            # draw an asynchronous shift: the synchronous class has variance 0
            # and its finite-horizon estimate is a pure boundary remnant, so
            # remnant-vs-remnant comparison would not test the invariance
            while True:
                s = tuple(int(v) for v in rng.integers(0, T, size=spec.L))
                if len(set(s)) > 1:
                    break
            t_shift = int(rng.integers(1, T))
            s2 = tuple((v + t_shift) % T for v in s)
            seed1 = task_seeds[f"invariance_{i}"] = seeds[3 + 2 * i]
            seed2 = task_seeds[f"invariance_{i}_shifted"] = seeds[4 + 2 * i]
            e1 = variance_time_average(spec, s, sec["horizon"], sec["invariance_samples"], seed1)
            e2 = variance_time_average(spec, s2, sec["horizon"], sec["invariance_samples"], seed2)
            plateau_ok[f"invariance_{i}"], plateau_ok[f"invariance_{i}_shifted"] = (
                e1.plateau_ok, e2.plateau_ok)
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
        s = tuple(sec["agreement_s"]) if sec["agreement_s"] else _staircase(spec.L, T)
        ta = variance_time_average(spec, s, sec["horizon"], sec["samples"], seeds[2])
        plateau_ok["agreement"] = ta.plateau_ok
        task_seeds["agreement_series"] = seeds[2] + 1
        se = variance_series(spec, s, sec["t_max"], sec["samples"], seeds[2] + 1)
        comb = math.sqrt(ta.std_error**2 + se.std_error**2)
        report["agreement"] = {
            "s": list(s),
            "time_average": ta.sigma2, "time_average_err": ta.std_error,
            "series": se.sigma2, "series_err": se.std_error,
            "series_truncation_bound": se.truncation_bound,
            "ok": bool(abs(ta.sigma2 - se.sigma2) <= 3.0 * comb + se.truncation_bound),
        }
    _write_json(outdir / "variance_report.json", report)
    return {"task_seeds": task_seeds, "plateau_ok": plateau_ok}


def _circuit_spec(cfg) -> CircuitSpec:
    sec = cfg.section
    return CircuitSpec(L=sec["L"], N=sec["N"], lam=sec["Lambda"],
                       members=sec["members"], seed=cfg.seed,
                       memory_budget_bytes=sec["memory_budget_mb"] * 2**20)


def _run_quantum(cfg, spec: CircuitSpec, outdir):
    sec = cfg.section
    t_max = sec["t_max"] or int(round(1.25 * spec.T_H))
    # first, while no member rows are held, so its solve adds nothing to the peak RSS
    reference_error = reference_trace_error(spec, t_max)
    faults, start = _minor_faults(), time.monotonic()
    series = sff_numeric(spec, t_max, workers=cfg.workers)
    faults, seconds = _minor_faults() - faults, time.monotonic() - start
    _write_csv(outdir / "sff_numeric.csv", "sff_numeric",
               ["t", "tau", "K", "K_raw", "err", "N", "L", "epsilon", "Lambda"],
               [[series.times, series.times / spec.T_H, series.values, series.raw_values,
                 series.errors, spec.N, spec.L, float(spec.eps_effective), float(spec.lam)]])
    return {"epsilon": spec.eps_effective, "T_H": spec.T_H, "members": sec["members"],
            **series.meta, "reference_trace_error_max": reference_error,
            "minor_faults_per_member": faults / sec["members"], "member_seconds": seconds}


def _minor_faults() -> int:
    """Minor page faults so far of this process and its finished children (getrusage)."""
    return sum(resource.getrusage(who).ru_minflt
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


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


def _compare_inputs(cfg) -> tuple[SffSeries, PottsParams]:
    """The series and the curve it is compared with, at the series' L, T_H = N^L and
    Lambda; a typed chi or Lambda replaces the series' Lambda, a typed L or T_H is checked."""
    path, typed = cfg.section["series_csv"], cfg.section["prediction"]
    series = read_sff_csv(path)
    T_H = series.N**series.L
    for key, name, value in (("L", "L", series.L), ("T_H", "T_H = N^L", T_H)):
        if typed[key] not in (None, value):
            raise SchemaError(f"compare.prediction.{key} = {typed[key]}, but {path} is a series "
                              f"at {name} = {value}")
    if typed["chi"] is None and typed["Lambda"] is None:
        if series.lam is None:
            raise SchemaError(f"{path}: no Lambda column; set compare.prediction.chi or Lambda")
        typed = {**typed, "Lambda": series.lam}
    return series, _potts_params({**typed, "L": series.L, "T_H": float(T_H)})


def _run_compare(cfg, built: tuple[SffSeries, PottsParams], outdir):
    series, params = built
    form = cfg.section["prediction"]["form"]
    if cfg.section["use_raw"]:
        series = replace(series, values=series.raw_values)
    try:
        t_th = thouless_time(params)
    except PottsError:
        t_th = None
    rep = compare(series, prediction(params, form, series.times))
    out = _write_json(outdir / "compare_report.json",
                      {**rep.to_dict(), "thouless_tau": t_th, "prediction_form": form})
    (outdir / "compare_report.txt").write_text(report_text(out))
    return {"passed": out["passed"]}


def _bound_params(cfg) -> PottsParams:
    sec = cfg.section
    for i, fam in enumerate(sec["families"]):
        try:
            check_family(sec["f0"], fam["eta"], fam["theta"])
        except PottsError as e:
            raise PottsError(f"bound.families[{i}]: {e}") from None
    return PottsParams(sec["L"], sec["T_H"], sec["Lambda"])


def _run_bound(cfg, params: PottsParams, outdir):
    sec = cfg.section
    grid = np.unique(np.geomspace(sec["T_start"], sec["T_stop"], sec["T_points"]).astype(int))
    blocks = []
    verdicts = []
    for fam in sec["families"]:
        res = bound_check(params, sec["f0"], fam["eta"], fam["theta"], grid)
        n = len(res.times)
        blocks.append([[float(res.eta)] * n, [float(res.theta)] * n, res.times, res.K, res.K0,
                       res.deviation, res.bound, res.ok])
        verdicts.append({
            "eta": res.eta, "theta": res.theta,
            "a": res.a, "A": res.A,
            "dominated": res.dominated,
            "final_relative_deviation": float(res.relative_deviation[-1]),
        })
    _write_csv(outdir / "bound_check.csv", "bound_check",
               ["eta", "theta", "T", "K", "K0", "abs_dev", "bound", "ok"], blocks)
    _write_json(outdir / "bound_report.json",
                {"families": verdicts, "all_dominated": all(v["dominated"] for v in verdicts)})
    return {"families": len(verdicts)}


class _Kind(NamedTuple):
    """A kind's config section, the builder of the domain object its pipeline runs on,
    and the pipeline run(cfg, built, outdir) -> manifest extras.

    validate_config calls the builder once and keeps its object on the config,
    so the object's invariants are the domain rules.  Builders do arithmetic
    only: no circuit, no point list.
    """

    section: str
    build: Callable
    run: Callable


_KINDS = {
    "predict": _Kind("predict", _predict_params, _run_predict),
    "orbits": _Kind("orbits", _orbit_map, _run_orbits),
    "clt": _Kind("clt", _clt_system, _run_clt),
    "variance": _Kind("variance", _variance_system, _run_variance),
    "quantum-sff": _Kind("quantum", _circuit_spec, _run_quantum),
    "compare": _Kind("compare", _compare_inputs, _run_compare),
    "bound-check": _Kind("bound", _bound_params, _run_bound),
}
KINDS = tuple(_KINDS)


def _install(stage: Path, outdir: Path) -> None:
    """Rename the finished stage to outdir, swapping out an earlier run directory."""
    old = stage.with_name(stage.name + ".old")
    try:
        if outdir.exists():
            outdir.rename(old)
        stage.rename(outdir)
    except BaseException:
        if old.exists() and not outdir.exists():
            old.rename(outdir)
        raise
    shutil.rmtree(old, ignore_errors=True)


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Execute one experiment into its directory and return the manifest.

    The run is written into a staged sibling of outdir, which is renamed into
    place once the manifest is written.  An existing outdir is replaced only
    if it is empty or holds a manifest.json (an earlier run); after any
    exception, KeyboardInterrupt included, outdir is as it was.  On the main
    thread a SIGINT during the run is also recorded, so a run whose
    KeyboardInterrupt was swallowed still raises one instead of installing.
    """
    outdir = Path(cfg.outdir).absolute()
    if outdir.exists() and not (outdir.is_dir() and (
            (outdir / "manifest.json").is_file() or not any(outdir.iterdir()))):
        raise ConfigError(f"field outdir: {cfg.outdir} exists and is neither empty nor a "
                          "run directory (no manifest.json); not replacing it")
    outdir.parent.mkdir(parents=True, exist_ok=True)
    # numpy loads numpy.random on first use, and a KeyboardInterrupt that lands
    # while its extension modules initialise is dropped; load it before staging
    # so that Ctrl-C during a run always unwinds it
    import numpy.random  # noqa: F401
    interrupted = []

    def on_sigint(signum, frame):
        interrupted.append(signum)
        raise KeyboardInterrupt

    stage = outdir.with_name(f".{outdir.name}.{os.urandom(6).hex()}.partial")
    main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGINT, on_sigint) if main else None
    try:
        stage.mkdir()  # mkdir, unlike mkdtemp, gives the run directory the umask's permissions
        (stage / "config_snapshot.yaml").write_text(dump_config(cfg))
        t0 = time.monotonic()
        try:
            extras = _KINDS[cfg.kind].run(cfg, cfg.built, stage)
        except Exception as e:
            raise ExperimentError(f"experiment {cfg.kind} failed: {e}") from e
        wall = time.monotonic() - t0
        manifest = RunManifest(
            config=cfg.to_dict(),
            version=__version__,
            wall_time_s=wall,
            task_seeds={"master": cfg.seed, **extras.pop("task_seeds", {})},
            digests={p.name: sha256_file(p) for p in sorted(stage.iterdir())},
            extras=extras,
        )
        _write_json(stage / "manifest.json", manifest.to_dict())
        if interrupted:
            raise KeyboardInterrupt
        _install(stage, outdir)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    finally:
        if main:
            signal.signal(signal.SIGINT, previous)
    return manifest


def verify_manifest(outdir) -> bool:
    """Re-hash the artifacts and check them against the recorded digests."""
    outdir = Path(outdir)
    with open(outdir / "manifest.json") as f:
        manifest = json.load(f)
    for name, digest in manifest["digests"].items():
        if not (outdir / name).is_file() or sha256_file(outdir / name) != digest:
            return False
    return True


def report(paths) -> tuple[str, dict]:
    """Summarize one or more compare_report.json files; all-pass aggregate."""
    combined = {"reports": [], "all_passed": True}
    blocks = []
    for path in paths:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError) as e:
            raise SchemaError(f"{path}: {e}")
        for key in ("chi2_per_point", "median_ratio", "passed"):
            if key not in data:
                raise SchemaError(f"{path}: missing field {key}")
        combined["reports"].append({"path": str(path), **data})
        combined["all_passed"] = combined["all_passed"] and bool(data["passed"])
        blocks.append(f"== {path} ==\n" + report_text(data))
    text = "\n".join(blocks)
    text += f"\noverall: {'ALL PASS' if combined['all_passed'] else 'FAILURES PRESENT'}\n"
    return text, combined
