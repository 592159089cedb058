import csv
import dataclasses
import importlib
import inspect
import json
import math
import os
import re
import runpy
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sfflab import harness, quantum
from sfflab.cli import main as cli_main
from sfflab.harness import (
    ConfigError,
    SchemaError,
    dump_config,
    read_sff_csv,
    report,
    run_experiment,
    validate_config,
    verify_manifest,
)
from sfflab.phases import TIME_AVERAGE_HORIZON, per_bond_variance_table, variance_series
from sfflab.potts import PottsParams, thouless_time
from sfflab.util import spawn_seeds

from oracles import load_config, poison_empty, write_csv_rows


def _cfg_predict(outdir, **over):
    base = {
        "kind": "predict",
        "seed": 11,
        "outdir": str(outdir),
        "predict": {"L": 3, "chi": 0.975, "T_points": 60, **over},
    }
    return validate_config(base)


def test_minimal_predict_config_fills_defaults():
    cfg = _cfg_predict("/tmp/x")
    assert cfg.section["T_H"] == 100.0
    assert cfg.section["T_spacing"] == "log"
    assert cfg.workers == 1


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="predict.bogus"):
        validate_config({"kind": "predict", "seed": 1, "outdir": "x",
                         "predict": {"L": 3, "chi": 0.9, "bogus": True}})
    with pytest.raises(ConfigError, match="unknown key extra"):
        validate_config({"kind": "predict", "seed": 1, "outdir": "x", "extra": 2,
                         "predict": {"L": 3, "chi": 0.9}})


def test_seed_is_mandatory():
    with pytest.raises(ConfigError, match="seed"):
        validate_config({"kind": "predict", "outdir": "x", "predict": {"L": 3, "chi": 0.9}})


def test_chi_lambda_exclusive():
    with pytest.raises(ConfigError):
        run_experiment(_cfg_predict("/tmp/xx", chi=None))


def test_config_round_trip(tmp_path):
    cfg = _cfg_predict(tmp_path / "out")
    path = tmp_path / "c.yaml"
    path.write_text(dump_config(cfg))
    assert load_config(path) == cfg


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("kind: predict\n  seed: : 3\n")
    with pytest.raises(ConfigError, match="line"):
        load_config(path)


def test_determinism_byte_identical_bodies(tmp_path):
    cfg_a = _cfg_predict(tmp_path / "a")
    cfg_b = _cfg_predict(tmp_path / "b")
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    assert (tmp_path / "a/predict_sff.csv").read_bytes() == (tmp_path / "b/predict_sff.csv").read_bytes()


def test_manifest_integrity(tmp_path):
    cfg = _cfg_predict(tmp_path / "m")
    man = run_experiment(cfg)
    assert verify_manifest(tmp_path / "m")
    assert "predict_sff.csv" in man.digests
    with open(tmp_path / "m/predict_sff.csv", "a") as f:
        f.write("tampered\n")
    assert not verify_manifest(tmp_path / "m")
    (tmp_path / "m/predict_sff.csv").unlink()  # a listed artifact that is gone
    assert not verify_manifest(tmp_path / "m")


def test_quantum_manifest_counts_minor_faults_per_member(tmp_path):
    # page-fault health of the member solves, from getrusage: a manifest field that differs
    # between runs while the series CSV stays the same
    quantum = {"N": 4, "L": 2, "Lambda": 0.2107, "members": 4, "t_max": 20}
    mans = [run_experiment(validate_config({"kind": "quantum-sff", "seed": 5,
                                            "outdir": str(tmp_path / d), "quantum": quantum}))
            for d in "ab"]
    for man in mans:
        faults = man.extras["minor_faults_per_member"]
        assert isinstance(faults, float) and faults >= 0
        assert isinstance(man.extras["heap_retained"], bool)
        assert man.extras["member_seconds"] > 0
    assert mans[0].digests["sff_numeric.csv"] == mans[1].digests["sff_numeric.csv"]
    body = (tmp_path / "a/sff_numeric.csv").read_text()
    assert not any(key in body for key in ("minor_faults", "heap_retained", "member_seconds"))


def test_quantum_members_keep_solve_buffers_mapped(tmp_path):
    # dim-256 members: with freed solve buffers unmapped or trimmed, each member faults
    # about 930 pages back in; kept mapped, about 1
    if not quantum._keep_solve_buffers():
        pytest.skip("the C library has no mallopt")
    quantum_sec = {"N": 16, "L": 2, "Lambda": 0.2107, "members": 8, "t_max": 40}
    man = run_experiment(validate_config({"kind": "quantum-sff", "seed": 5,
                                          "outdir": str(tmp_path), "quantum": quantum_sec}))
    assert man.extras["heap_retained"] is True
    assert man.extras["minor_faults_per_member"] < 50


def test_quantum_and_compare_pipeline(tmp_path):
    qcfg = validate_config({
        "kind": "quantum-sff", "seed": 21, "outdir": str(tmp_path / "q"),
        "quantum": {"N": 8, "L": 2, "Lambda": 0.2107, "members": 24, "t_max": 80},
    })
    man = run_experiment(qcfg)
    series = read_sff_csv(tmp_path / "q/sff_numeric.csv")
    assert len(series.times) == 80 and series.N == 8 and series.L == 2
    # eigensolve health goes to the manifest, never into the CSV body
    for key in ("unitarity_residual_max", "trace_check_max", "reference_trace_error_max"):
        assert 0.0 <= man.extras[key] < 1e-10
        assert key not in (tmp_path / "q/sff_numeric.csv").read_text()
    assert man.extras["second_solves"] == 0
    assert "second_solves" not in (tmp_path / "q/sff_numeric.csv").read_text()

    ccfg = validate_config({
        "kind": "compare", "seed": 22, "outdir": str(tmp_path / "c"),
        "compare": {
            "series_csv": str(tmp_path / "q/sff_numeric.csv"),
            "prediction": {"L": 2, "T_H": 64.0, "chi": 0.9, "form": "kappa"},
        },
    })
    run_experiment(ccfg)
    rep = json.loads((tmp_path / "c/compare_report.json").read_text())
    for key in ("chi2_per_point", "median_ratio", "late_mean_ratio", "slope_ok", "passed"):
        assert key in rep
    text, combined = report([tmp_path / "c/compare_report.json"])
    assert "comparison report" in text
    assert isinstance(combined["all_passed"], bool)

    # with no typed chi or Lambda, the curve is at the series' L, T_H = N^L and Lambda
    run_experiment(validate_config({
        "kind": "compare", "seed": 22, "outdir": str(tmp_path / "c2"),
        "compare": {"series_csv": str(tmp_path / "q/sff_numeric.csv"),
                    "prediction": {"form": "kappa"}},
    }))
    rep = json.loads((tmp_path / "c2/compare_report.json").read_text())
    assert rep["thouless_tau"] == thouless_time(PottsParams(L=2, T_H=64.0, lam=0.2107))


def test_quantum_lambda_column_is_the_runs_lambda(tmp_path):
    # a run writes its own Lambda, and epsilon = sqrt(Lambda) hbar / sqrt(T_H), hbar = 1/(2 pi N)
    cfg = validate_config({"kind": "quantum-sff", "seed": 23, "outdir": str(tmp_path / "q"),
                           "quantum": {"N": 4, "L": 2, "members": 2, "t_max": 8,
                                       "Lambda": 0.2107}})
    run_experiment(cfg)
    with open(tmp_path / "q/sff_numeric.csv") as f:
        f.readline()
        rows = list(csv.DictReader(f))
    assert len(rows) == 8
    eps = np.sqrt(0.2107) / (8.0 * np.pi) / 4.0
    for r in rows:
        assert (r["N"], r["L"], r["Lambda"]) == ("4", "2", "0.2107")
        assert float(r["epsilon"]) == pytest.approx(eps, rel=1e-12)
    assert read_sff_csv(tmp_path / "q/sff_numeric.csv").lam == 0.2107


def test_compare_self_consistency_passes(tmp_path):
    # write a synthetic series that equals the closed form, then compare against it
    from sfflab.potts import PottsParams, closed_form_sff

    params = PottsParams.from_chi(L=2, T_H=64.0, chi=1.0)
    times = np.arange(1, 81, dtype=float)
    pred = closed_form_sff(params, times)
    path = tmp_path / "series.csv"
    with open(path, "w") as f:
        f.write("# schema: sfflab/sff_numeric v1\n")
        f.write("t,tau,K,K_raw,err,N,L,epsilon,Lambda\n")
        for t, k in zip(times, pred.values):
            f.write(f"{int(t)},{float(t)/64.0!r},{float(k)!r},{float(k)!r},0.0,8,2,0.0,0.0\n")
    cfg = validate_config({
        "kind": "compare", "seed": 1, "outdir": str(tmp_path / "cc"),
        "compare": {"series_csv": str(path),
                    "prediction": {"L": 2, "T_H": 64.0, "chi": 1.0, "form": "closed-form"}},
    })
    run_experiment(cfg)
    rep = json.loads((tmp_path / "cc/compare_report.json").read_text())
    assert rep["passed"] and rep["median_ratio"] == 1.0

    # corrupted series must fail with a named criterion
    bad = tmp_path / "bad.csv"
    with open(bad, "w") as f:
        f.write("# schema: sfflab/sff_numeric v1\n")
        f.write("t,tau,K,K_raw,err,N,L,epsilon,Lambda\n")
        for t, k in zip(times, pred.values):
            f.write(f"{int(t)},{float(t)/64.0!r},{5*float(k)!r},{float(k)!r},0.0,8,2,0.0,0.0\n")
    cfg_bad = validate_config({
        "kind": "compare", "seed": 1, "outdir": str(tmp_path / "cb"),
        "compare": {"series_csv": str(bad),
                    "prediction": {"L": 2, "T_H": 64.0, "chi": 1.0, "form": "closed-form"}},
    })
    run_experiment(cfg_bad)
    rep_bad = json.loads((tmp_path / "cb/compare_report.json").read_text())
    assert not rep_bad["passed"] and not rep_bad["ratio_ok"]


def _refuse(constant):
    raise ValueError(f"{constant} is not RFC 8259 JSON")


def test_compare_report_writes_no_nan(tmp_path):
    # no err is positive, so there is no chi2: the report holds null, not the token NaN
    series = tmp_path / "series.csv"
    series.write_text("# schema: sfflab/sff_numeric v1\nt,K,K_raw,err,N,L,Lambda\n"
                      + "".join(f"{t},{t}.0,{t}.0,0.0,4,2,0.2\n" for t in range(1, 21)))
    out = tmp_path / "c"
    assert cli_main(["compare", "--outdir", str(out), "--seed", "1",
                     "--set", f"compare.series_csv={series}"]) == 0
    rep = json.loads((out / "compare_report.json").read_text(), parse_constant=_refuse)
    assert rep["chi2_per_point"] is None
    assert "chi2_per_point: None" in (out / "compare_report.txt").read_text()


def test_schema_mismatch_named(tmp_path):
    path = tmp_path / "wrong.csv"
    path.write_text("# schema: sfflab/other v1\nt,K\n1,2\n")
    with pytest.raises(SchemaError, match="sff_numeric"):
        read_sff_csv(path)


def _failing_pipeline(cfg, built, outdir):
    (outdir / "predict_sff.csv").write_text("partial\n")
    raise RuntimeError("the pipeline failed after validation")


def test_failed_run_cleans_outputs(tmp_path, monkeypatch):
    monkeypatch.setitem(harness._KINDS, "predict",
                        harness._KINDS["predict"]._replace(run=_failing_pipeline))
    cfg = _cfg_predict(tmp_path / "fail")
    with pytest.raises(Exception):
        run_experiment(cfg)
    assert list(tmp_path.iterdir()) == []  # no outdir, no staged directory


def test_compare_reads_its_series_once(tmp_path):
    # the series is read at validation and the run compares that object: a
    # series deleted after validation is still compared, and use_raw leaves
    # the validated series as it was, so the same config runs twice alike
    series = tmp_path / "series.csv"
    series.write_text("# schema: sfflab/sff_numeric v1\nt,K,K_raw,err,N,L,Lambda\n"
                      + "".join(f"{t},{t}.0,{2 * t}.0,0.1,8,2,0.2\n" for t in range(1, 21)))
    cfg = validate_config({"kind": "compare", "seed": 1, "outdir": str(tmp_path / "c"),
                           "compare": {"series_csv": str(series), "use_raw": True}})
    series.unlink()
    reports = []
    for _ in range(2):
        run_experiment(cfg)
        reports.append((tmp_path / "c/compare_report.json").read_bytes())
    assert reports[0] == reports[1]
    assert np.array_equal(cfg.built[0].values, np.arange(1.0, 21.0))


def test_variance_pipeline_small(tmp_path):
    cfg = validate_config({
        "kind": "variance", "seed": 31, "outdir": str(tmp_path / "v"),
        "variance": {"T": 4, "samples": 4000, "horizon": 64, "invariance_checks": 2,
                     "invariance_samples": 4000, "agreement_check": True, "t_max": 4},
    })
    man = run_experiment(cfg)
    rep = json.loads((tmp_path / "v/variance_report.json").read_text())
    assert rep["invariance_all_ok"]
    assert rep["agreement"]["ok"]
    seeds = json.loads((tmp_path / "v/manifest.json").read_text())["task_seeds"]
    assert seeds["agreement_series"] == seeds["agreement"] + 1
    # the ladder plateau flag of each checked time average goes to the manifest only
    assert set(man.extras["plateau_ok"]) == {"invariance_0", "invariance_0_shifted", "invariance_1",
                                             "invariance_1_shifted", "agreement"}
    assert all(isinstance(flag, bool) for flag in man.extras["plateau_ok"].values())
    for name in ("variance_report.json", "variance_table.csv"):
        assert "plateau" not in (tmp_path / "v" / name).read_text()
    with open(tmp_path / "v/variance_table.csv") as f:
        f.readline()
        rows = list(csv.DictReader(f))
    assert float(rows[0]["sigma2"]) == 0.0


def test_variance_agreement_rejects_a_wrong_amplitude(tmp_path, monkeypatch):
    # negative control: the series runs at twice the amplitude, so it estimates
    # four times the time average's variance
    def series_at_double_amplitude(spec, *args):
        return variance_series(dataclasses.replace(spec, amplitude=2 * spec.amplitude), *args)

    monkeypatch.setattr(harness, "variance_series", series_at_double_amplitude)
    cfg = validate_config({
        "kind": "variance", "seed": 31, "outdir": str(tmp_path / "v"),
        "variance": {"T": 2, "samples": 4000, "horizon": 64, "agreement_check": True,
                     "t_max": 4},
    })
    run_experiment(cfg)
    agr = json.loads((tmp_path / "v/variance_report.json").read_text())["agreement"]
    allowed = (3.0 * math.hypot(agr["time_average_err"], agr["series_err"])
               + agr["series_truncation_bound"])
    margin = abs(agr["time_average"] - agr["series"]) - allowed
    print(f"\nCONTROL agreement at amplitudes 1 and 2: time average {agr['time_average']:.3f}, "
          f"series {agr['series']:.3f}, rejected by {margin:.3f} beyond {allowed:.3f}")
    assert margin > 0
    assert not agr["ok"]


def test_variance_horizon_default_is_the_tables(tmp_path):
    # a variance run and per_bond_variance_table pick one horizon at every T, T > 32 included
    cfg = validate_config({"kind": "variance", "seed": 1, "outdir": str(tmp_path / "v"),
                           "variance": {"T": 64}})
    default = inspect.signature(per_bond_variance_table).parameters["horizon"].default
    assert cfg.section["horizon"] == default == TIME_AVERAGE_HORIZON


def test_variance_manifest_records_every_task_seed(tmp_path):
    cfg = validate_config({
        "kind": "variance", "seed": 33, "outdir": str(tmp_path / "v"),
        "variance": {"T": 2, "samples": 500, "horizon": 8, "invariance_checks": 2,
                     "invariance_samples": 500},
    })
    run_experiment(cfg)
    manifest = json.loads((tmp_path / "v/manifest.json").read_text())
    seeds = manifest["task_seeds"]
    assert seeds.pop("master") == 33
    assert sorted(seeds.values()) == sorted(spawn_seeds(33, 3 + 2 * 2))  # no agreement_series
    assert "seeds" not in manifest["extras"]


def test_variance_table_is_built_from_the_configured_system(tmp_path):
    # one bond at amplitude A has sigma^2(s~ >= 1) = A^2 exactly
    cfg = validate_config({
        "kind": "variance", "seed": 3, "outdir": str(tmp_path / "v"),
        "variance": {"system": {"L": 2, "amplitude": 0.7}, "T": 4, "samples": 4000,
                     "horizon": 32},
    })
    run_experiment(cfg)
    with open(tmp_path / "v/variance_table.csv") as f:
        f.readline()
        rows = [r for r in csv.DictReader(f) if int(r["s_tilde"]) >= 1]
    assert len(rows) == 3
    for r in rows:
        assert abs(float(r["sigma2"]) - 0.7**2) <= 4.0 * float(r["std_error"]), r


def test_clt_pipeline_small(tmp_path):
    cfg = validate_config({
        "kind": "clt", "seed": 41, "outdir": str(tmp_path / "clt"),
        "clt": {"T_list": [4, 8], "budget": 5000, "csv_rows": 100, "s": [0, 5]},
    })
    run_experiment(cfg)
    rep = json.loads((tmp_path / "clt/clt_report.json").read_text())
    assert set(rep) == {"4", "8"}
    assert rep["8"]["n"] == 5000
    # the shift is recorded as sampled: reduced mod T
    assert rep["4"]["s"] == [0, 1] and rep["8"]["s"] == [0, 5]
    with open(tmp_path / "clt/phase_samples.csv") as f:
        f.readline()
        cells = {(r["T"], r["s"]) for r in csv.DictReader(f)}
    assert cells == {("4", "0;1"), ("8", "0;5")}


def test_bound_pipeline(tmp_path):
    cfg = validate_config({
        "kind": "bound-check", "seed": 51, "outdir": str(tmp_path / "b"),
        "bound": {"families": [{"eta": 0.5, "theta": 1.0}], "T_stop": 128, "T_points": 12},
    })
    run_experiment(cfg)
    rep = json.loads((tmp_path / "b/bound_report.json").read_text())
    assert rep["all_dominated"]


def test_cli_exit_codes(tmp_path):
    rc = cli_main(["predict", "--outdir", str(tmp_path / "cli"), "--seed", "3",
                   "--set", "predict.L=3", "--set", "predict.chi=0.975",
                   "--set", "predict.T_points=40"])
    assert rc == 0
    rc2 = cli_main(["predict", "--outdir", str(tmp_path / "cli2"), "--seed", "3",
                    "--set", "predict.L=3", "--set", "predict.unknown=1"])
    assert rc2 == 2


def test_uncoupled_series_vs_chi1_prediction(tmp_path):
    # end-to-end: eps = 0 quantum series against the chi = 1 (T^L) prediction
    # inside the theory's validity window t <= subsystem Heisenberg time;
    # the ratio statistic is the median (arithmetic echoes spoil the mean)
    qcfg = validate_config({
        "kind": "quantum-sff", "seed": 71, "outdir": str(tmp_path / "q0"),
        "quantum": {"N": 16, "L": 2, "Lambda": 0.0, "members": 64, "t_max": 16},
    })
    run_experiment(qcfg)
    ccfg = validate_config({
        "kind": "compare", "seed": 72, "outdir": str(tmp_path / "c0"),
        "compare": {
            "series_csv": str(tmp_path / "q0/sff_numeric.csv"),
            "prediction": {"L": 2, "T_H": 256.0, "chi": 1.0, "form": "closed-form"},
            "use_raw": True,  # windowing distorts the steep T^L rise at small t
        },
    })
    run_experiment(ccfg)
    rep = json.loads((tmp_path / "c0/compare_report.json").read_text())
    assert abs(rep["median_ratio"] - 1.0) < 0.25


def test_clt_pipeline_accepts_system_section(tmp_path):
    cfg = validate_config({
        "kind": "clt", "seed": 42, "outdir": str(tmp_path / "cs"),
        "clt": {"T_list": [4], "budget": 2000,
                "system": {"L": 3, "subsystem": {"a": 2, "b": 1, "c": 1, "d": 1}}},
    })
    run_experiment(cfg)
    rep = json.loads((tmp_path / "cs/clt_report.json").read_text())
    assert rep["4"]["s"] == [0, 1, 2]  # staircase over three sites


def test_clt_without_pairs_is_degenerate(tmp_path, monkeypatch):
    # all-to-all with L = 1 has no pairs, so every phase is exactly 0; float
    # np.empty buffers start as NaN, so a value read before it is written shows
    poison_empty(monkeypatch)
    out = tmp_path / "empty"
    assert cli_main(["clt", "--outdir", str(out), "--seed", "1", "--set", "clt.T_list=[4]",
                     "--set", "clt.budget=2000",
                     "--set", "clt.system={L: 1, topology: all-to-all}"]) == 0
    rep = json.loads((out / "clt_report.json").read_text())["4"]
    assert rep["degenerate"] is True and rep["fitted_variance"] == 0.0
    with open(out / "phase_samples.csv") as f:
        f.readline()
        rows = list(csv.DictReader(f))
    assert len(rows) == 2000
    assert all(float(r["phi"]) == 0.0 and float(r["phi_tilde"]) == 0.0 for r in rows)


def test_workers_do_not_change_results(tmp_path):
    base = {
        "kind": "quantum-sff", "seed": 61,
        "quantum": {"N": 6, "L": 2, "Lambda": 0.4, "members": 4, "t_max": 20},
    }
    run_experiment(validate_config({**base, "outdir": str(tmp_path / "w1"), "workers": 1}))
    run_experiment(validate_config({**base, "outdir": str(tmp_path / "w2"), "workers": 2}))
    a = (tmp_path / "w1/sff_numeric.csv").read_bytes()
    b = (tmp_path / "w2/sff_numeric.csv").read_bytes()
    assert a == b


# (command-line arguments, text naming the rejected field); every row used to
# fail deep inside a pipeline (exit 3) or pass (exit 0), leaving an outdir
BOUNDARY_ROWS = [
    (["quantum-sff", "--set", "quantum.N=5", "--set", "quantum.Lambda=0.2"], "N = 5"),
    (["quantum-sff", "--set", "quantum.N=4", "--set", "quantum.Lambda=0.2",
      "--set", "quantum.members=0"], "members"),
    (["quantum-sff", "--set", "quantum.N=4", "--set", "quantum.Lambda=-1"], "Lambda"),
    (["predict", "--set", "predict.L=2", "--set", "predict.chi=1.5"], "chi"),
    (["predict", "--set", "predict.L=2", "--set", "predict.chi=0.9",
      "--set", "predict.T_points=0"], "predict.T_points"),
    (["orbits", "--set", "orbits.T_list=[0]"], "orbits.T_list"),
    (["clt", "--set", "clt.T_list=[4]", "--set", "clt.budget=10"], "clt.budget"),
    (["clt", "--set", "clt.T_list=[4]", "--set", "clt.mode=bogus"], "clt.mode"),
    (["variance", "--set", "variance.estimator=bogus"], "variance.estimator"),
    (["predict", "--set", "predict.L=2", "--set", "predict.chi=0.9", "--workers", "-3"],
     "workers"),
    (["predict", "--config", "{bad}"], "bad.yaml"),
    (["clt", "--set", "clt.T_list=[4]", "--set", "clt.budget=1000", "--set", "clt.s=[0,1,2]"],
     "clt.s"),
    (["variance", "--set", "variance.T=2", "--set", "variance.samples=1000",
      "--set", "variance.horizon=8", "--set", "variance.t_max=1",
      "--set", "variance.agreement_check=true", "--set", "variance.agreement_s=[0]"],
     "variance.agreement_s"),
    (["orbits", "--set", "orbits.T_list=[2,65]"], "orbits.T_list[1]"),
    (["bound-check", "--set", "bound.families=[{eta: 0.5, theta: 1.0}, {eta: 1.5, theta: 1.0}]"],
     "bound.families[1]"),
    (["bound-check", "--set", "bound.families=[{eta: 0.5, theta: 0.0}]"], "bound.families[0]"),
    (["compare", "--set", "compare.series_csv={series}", "--set", "compare.late_window=[0.4]",
      "--set", "compare.prediction={L: 2, T_H: 16.0, chi: 0.9}"], "compare.late_window"),
    (["predict", "--set", "predict.L=2", "--set", "predict.chi=0.9",
      "--set", "predict.T_start=0.5"], "predict.T_start"),
    (["quantum-sff", "--set", "quantum.N=4", "--set", "quantum.Lambda=0.2",
      "--set", "quantum.members=2", "--set", "quantum.t_max=-1"], "quantum.t_max"),
    (["clt", "--set", "clt.T_list=[65]", "--set", "clt.budget=1000", "--set", "clt.mode=exact"],
     "clt.T_list[0]"),
    (["clt", "--set", "clt.T_list=[4,65]", "--set", "clt.budget=1000", "--set", "clt.mode=exact"],
     "clt.T_list[1]"),
    (["clt", "--set", "clt.T_list=[4]", "--set", "clt.budget=1000", "--set", "clt.csv_rows=-5"],
     "clt.csv_rows"),
    (["variance", "--set", "variance.samples=0"], "variance.samples"),
    (["variance", "--set", "variance.invariance_samples=0"], "variance.invariance_samples"),
    (["variance", "--set", "variance.horizon=2"], "variance.horizon"),
    (["variance", "--set", "variance.t_max=-1", "--set", "variance.estimator=series"],
     "variance.t_max"),
    # a listed period over the listing budget; counted periods have no budget
    (["orbits", "--set", "orbits.T_list=[17]", "--set", "orbits.inventory_max_T=17"],
     "orbits.T_list[0]"),
    (["variance", "--set", "variance.invariance_checks=-1"], "variance.invariance_checks"),
    (["predict", "--set", "predict.L=2", "--set", "predict.chi=0.9", "--set", "predict.T_stop=0.5"],
     "predict.T_stop"),
    (["quantum-sff", "--set", "quantum.N=4", "--set", "quantum.Lambda=0.2",
      "--set", "quantum.memory_budget_mb=0"], "quantum.memory_budget_mb"),
    (["bound-check", "--set", "bound.families=[{eta: 0.5, theta: 1.0}]", "--set", "bound.T_start=1"],
     "bound.T_start"),
    (["bound-check", "--set", "bound.families=[{eta: 0.5, theta: 1.0}]", "--set", "bound.T_stop=1"],
     "bound.T_stop"),
    (["bound-check", "--set", "bound.families=[{eta: 0.5, theta: 1.0}]", "--set", "bound.L=1"],
     "bound.L"),
    (["bound-check", "--set", "bound.families=[{eta: 0.5, theta: 1.0}]", "--set", "bound.T_H=-1"],
     "section bound: T_H"),
    (["bound-check", "--set", "bound.families=[{eta: 0.5, theta: 1.0}]", "--set", "bound.Lambda=-1"],
     "section bound: Lambda"),
    (["predict", "--set", "predict.L=2", "--set", "predict.chi=0.9", "--set", "predict.T_spacing=integer",
      "--set", "predict.T_start=10", "--set", "predict.T_stop=5"], "predict.T_stop"),
    (["predict", "--set", "predict.L=2", "--set", "predict.chi=0.9", "--set", "predict.T_spacing=log",
      "--set", "predict.T_start=10", "--set", "predict.T_stop=5"], "predict.T_stop"),
    (["predict", "--set", "predict.L=2", "--set", "predict.chi=0.9", "--set", "predict.T_spacing=linear",
      "--set", "predict.T_start=10", "--set", "predict.T_stop=5"], "predict.T_stop"),
    (["predict", "--set", "predict.L=2", "--set", "predict.chi=0.9", "--set", "predict.T_spacing=integer",
      "--set", "predict.T_start=1.5", "--set", "predict.T_stop=1.7"], "predict.T_stop"),
    (["variance", "--set", "variance.T=2", "--set", "variance.samples=1000",
      "--set", "variance.horizon=8", "--set", "variance.t_max=1",
      "--set", "variance.agreement_check=true", "--set", "variance.agreement_s=[0,-1]"],
     "variance.agreement_s[1]"),
    # settings that never changed a run: a system is given only as a system mapping,
    # has no epsilon there, and the averaging ensemble always uses both families
    (["clt", "--set", "clt.T_list=[4]", "--set", "clt.budget=1000", "--set", "clt.L=3"], "clt.L"),
    (["variance", "--set", "variance.T=2", "--set", "variance.L=3"], "variance.L"),
    (["clt", "--set", "clt.T_list=[4]", "--set", "clt.budget=1000",
      "--set", "clt.system={L: 2, epsilon: 0.7}"], "clt.system.epsilon"),
    (["quantum-sff", "--set", "quantum.N=4", "--set", "quantum.Lambda=0.2",
      "--set", "quantum.members=1", "--set", "quantum.translations=false"], "quantum.translations"),
    (["quantum-sff", "--set", "quantum.N=4", "--set", "quantum.Lambda=0.2",
      "--set", "quantum.members=1", "--set", "quantum.bond_offsets=false"], "quantum.bond_offsets"),
    (["compare", "--set", "compare.series_csv={series}", "--set", "compare.late_window=[1.0, 0.4]",
      "--set", "compare.prediction={L: 2, T_H: 16.0, chi: 0.9}"], "compare.late_window"),
    # |a| + |b| = 2^10: a k + b l can overflow int64 on the 2^53 Monte Carlo lattice
    (["variance", "--set", "variance.system={L: 2, subsystem: {a: 1023, b: 1, c: 1022, d: 1}}"],
     "variance.system.subsystem"),
    (["clt", "--set", "clt.T_list=[4]", "--set",
      "clt.system={L: 2, subsystem: {a: 1, b: 1, c: 1022, d: 1023}}"], "clt.system.subsystem"),
    # the Smith index map of exact sampling overflows int64 from T = 44 on
    (["clt", "--set", "clt.T_list=[44]", "--set", "clt.budget=1000", "--set", "clt.mode=exact"],
     "clt.T_list[0]"),
    # the curve's L and T_H = N^L are the series' (N = 4, L = 2); the late window already was
    (["compare", "--set", "compare.series_csv={series}",
      "--set", "compare.prediction={L: 3, T_H: 16.0, chi: 0.9}"],
     "compare.prediction.L = 3, but {series} is a series at L = 2"),
    (["compare", "--set", "compare.series_csv={series}",
      "--set", "compare.prediction={L: 2, T_H: 100.0, chi: 0.9, form: kappa}"],
     "compare.prediction.T_H = 100.0, but {series} is a series at T_H = N^L = 16"),
    # the chi = 1 and chi = 0 rows are always written
    (["predict", "--set", "predict.L=2", "--set", "predict.chi=0.9",
      "--set", "predict.emit_limits=true"], "predict.emit_limits"),
    # the subcommand is the kind: an override must not swap the experiment behind it
    (["predict", "--set", "kind=orbits", "--set", "orbits.T_list=[1,2]"], "--set kind"),
    # the coupling is Lambda alone, sigma2_phi is 1 per bond, and compare's gate is fixed
    (["quantum-sff", "--set", "quantum.N=4", "--set", "quantum.epsilon=0.01"],
     "unknown key quantum.epsilon"),
    (["predict", "--set", "predict.L=2", "--set", "predict.chi=0.9",
      "--set", "predict.sigma2_phi=2.0"], "unknown key predict.sigma2_phi"),
    (["compare", "--set", "compare.series_csv={series}", "--set", "compare.prediction.chi=0.9",
      "--set", "compare.slope_tol=10.0"], "unknown key compare.slope_tol"),
    (["compare", "--set", "compare.series_csv={series}", "--set", "compare.prediction.chi=0.9",
      "--set", "compare.ratio_tol=10.0"], "unknown key compare.ratio_tol"),
    # the series has no Lambda column, so the curve needs one typed chi or Lambda
    (["compare", "--set", "compare.series_csv={series}"], "{series}: no Lambda column"),
    (["compare", "--set", "compare.series_csv={series}",
      "--set", "compare.prediction={chi: 0.9, Lambda: 0.2}"], "exactly one of chi or Lambda"),
    # a NaN coupling is no coupling: it used to write NaN curves and exit 0
    (["predict", "--set", "predict.L=2", "--set", "predict.Lambda=.nan"],
     "section predict: Lambda"),
    (["compare", "--set", "compare.series_csv={series}", "--set", "compare.prediction.Lambda=.nan"],
     "section compare: Lambda"),
    # a list that is given must list something: a run over no families or periods
    # checks nothing, and an empty shift used to mean the staircase
    (["bound-check", "--set", "bound.families=[]"], "bound.families: must not be empty"),
    (["orbits", "--set", "orbits.T_list=[]"], "orbits.T_list: must not be empty"),
    (["clt", "--set", "clt.T_list=[]"], "clt.T_list: must not be empty"),
    (["clt", "--set", "clt.T_list=[4]", "--set", "clt.budget=1000", "--set", "clt.s=[]"],
     "clt.s: must not be empty"),
    (["variance", "--set", "variance.agreement_check=true", "--set", "variance.agreement_s=[]"],
     "variance.agreement_s: must not be empty"),
    # one sample has no error bar: it wrote err and std_error 0.0
    (["quantum-sff", "--set", "quantum.N=4", "--set", "quantum.Lambda=0.2",
      "--set", "quantum.members=1"], "quantum.members: must be >= 2"),
    (["variance", "--set", "variance.samples=1"], "variance.samples: must be >= 2"),
    (["variance", "--set", "variance.invariance_checks=1", "--set", "variance.invariance_samples=1"],
     "variance.invariance_samples: must be >= 2"),
    # YAML 1.1 reads a float without a dot or without an exponent sign as a string
    (["predict", "--set", "predict.L=2", "--set", "predict.chi=0.9", "--set", "predict.T_H=1e5"],
     "predict.T_H: expected a number, got '1e5'; YAML 1.1 reads 1e5 as a string, write 1.0e+5"),
]


@pytest.mark.parametrize("args, field", BOUNDARY_ROWS,
                         ids=[f"{i}-{f}" for i, (_, f) in enumerate(BOUNDARY_ROWS)])
def test_invalid_input_exits_2_naming_its_field(tmp_path, capsys, args, field):
    bad = tmp_path / "bad.yaml"
    bad.write_text("kind: predict\n  seed: : 3\n")
    series = tmp_path / "series.csv"
    series.write_text("# schema: sfflab/sff_numeric v1\nt,K,K_raw,err,N,L\n"
                      + "".join(f"{t},{t}.0,{t}.0,0.1,4,2\n" for t in range(1, 21)))
    out = tmp_path / "out"
    argv = [a.replace("{bad}", str(bad)).replace("{series}", str(series)) for a in args]
    argv += ["--outdir", str(out), "--seed", "1"]
    assert cli_main(argv) == 2
    assert field.replace("{series}", str(series)) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, section, match", [
    ("predict", {"L": 2, "chi": 0.9, "T_spacing": "cubic"}, "predict.T_spacing"),
    ("compare", {"series_csv": "s.csv", "prediction": {"L": 2, "T_H": 16.0, "chi": 0.9,
                                                       "form": "bogus"}},
     "compare.prediction.form"),
    ("compare", {"series_csv": "s.csv", "prediction": {"chi": 0.9, "sigma2_phi": 2.0}},
     "unknown key compare.prediction.sigma2_phi"),
    ("bound-check", {"families": [{"eta": 0.5}]}, r"bound.families\[0\].theta"),
    ("bound-check", {"families": [0.5]}, r"bound.families\[0\]"),
    ("quantum-sff", {"N": 4}, "quantum.Lambda"),
    ("orbits", {"T_list": [2], "map": {"a": 1, "b": 1, "c": 0, "d": 1}}, "hyperbolic"),
    ("clt", {"T_list": [4], "system": {"L": 2, "topology": "star"}}, "topology"),
    # an asynchronous shift needs T >= 2; at T = 1 the invariance draw never ends
    ("variance", {"T": 1, "invariance_checks": 1}, "T >= 2"),
    # the per-bond table is one bond of a ring
    ("variance", {"system": {"L": 3, "topology": "all-to-all"}}, "variance.system.topology"),
])
def test_domain_rules_are_checked_at_validation(kind, section, match):
    with pytest.raises(ConfigError, match=match):
        validate_config({"kind": kind, "seed": 1, "outdir": "unused",
                         harness._KINDS[kind].section: section})


@pytest.mark.parametrize("mode", ["auto", "proxy"])
def test_clt_takes_any_period_outside_exact_mode(mode):
    # only exact mode bounds T (at most 64, with an int64 Smith index map); auto
    # samples T = 100 by proxy
    cfg = validate_config({"kind": "clt", "seed": 1, "outdir": "unused",
                           "clt": {"T_list": [100], "mode": mode}})
    assert cfg.section["T_list"] == [100]


def test_missing_series_csv_exits_2_naming_it(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    out = tmp_path / "out"
    assert cli_main(["compare", "--outdir", str(out), "--seed", "1",
                     "--set", f"compare.series_csv={missing}",
                     "--set", "compare.prediction={L: 2, T_H: 16.0, chi: 0.9}"]) == 2
    assert str(missing) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# sff_numeric.csv bodies that read_sff_csv rejects, each with a row of t = 1..20
MALFORMED_SERIES = {
    "non-numeric cell": ("t,K,K_raw,err,N,L", lambda t: f"{t},{'x' if t == 7 else t},{t},0.1,4,2"),
    "negative err": ("t,K,K_raw,err,N,L", lambda t: f"{t},{t},{t},{-0.1 if t == 3 else 0.1},4,2"),
    "missing N": ("t,K,K_raw,err,L", lambda t: f"{t},{t},{t},0.1,2"),
    "missing L": ("t,K,K_raw,err,N", lambda t: f"{t},{t},{t},0.1,4"),
    "L = 0": ("t,K,K_raw,err,N,L", lambda t: f"{t},{t},{t},0.1,4,0"),
    "short row": ("t,K,K_raw,err,N,L", lambda t: f"{t},{t},{t}" + ("" if t == 5 else ",0.1,4,2")),
    "row without N and L": ("t,K,K_raw,err,N,L",
                            lambda t: f"{t},{t},{t},0.1" + ("" if t == 5 else ",4,2")),
    "empty N and L cells": ("t,K,K_raw,err,N,L",
                            lambda t: f"{t},{t},{t},0.1," + ("," if t == 5 else "4,2")),
    "row with an extra cell": ("t,K,K_raw,err,N,L",
                               lambda t: f"{t},{t},{t},0.1,4,2" + (",7" if t == 5 else "")),
    "N disagrees with the first row": ("t,K,K_raw,err,N,L",
                                       lambda t: f"{t},{t},{t},0.1,{5 if t == 9 else 4},2"),
    "L disagrees with the first row": ("t,K,K_raw,err,N,L",
                                       lambda t: f"{t},{t},{t},0.1,4,{3 if t == 20 else 2}"),
    "Lambda disagrees with the first row": (
        "t,K,K_raw,err,N,L,Lambda", lambda t: f"{t},{t},{t},0.1,4,2,{0.3 if t == 9 else 0.2}"),
    "t = 0": ("t,K,K_raw,err,N,L", lambda t: f"{t - 1},{t},{t},0.1,4,2"),
    "repeated t": ("t,K,K_raw,err,N,L", lambda t: f"{t - (t == 6)},{t},{t},0.1,4,2"),
    "nan K": ("t,K,K_raw,err,N,L", lambda t: f"{t},{'nan' if t == 7 else t},{t},0.1,4,2"),
}


@pytest.mark.parametrize("case", MALFORMED_SERIES)
def test_malformed_series_csv_exits_2_naming_it(tmp_path, capsys, case):
    header, row = MALFORMED_SERIES[case]
    series = tmp_path / "series.csv"
    series.write_text(f"# schema: sfflab/sff_numeric v1\n{header}\n"
                      + "".join(row(t) + "\n" for t in range(1, 21)))
    out = tmp_path / "out"
    assert cli_main(["compare", "--outdir", str(out), "--seed", "1",
                     "--set", f"compare.series_csv={series}",
                     "--set", "compare.prediction={L: 2, T_H: 16.0, chi: 0.9}"]) == 2
    assert str(series) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["series.csv"]


def test_cli_reads_config_through_the_harness_loader(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("kind: predict\nseed: 1\npredict: {L: 2, chi: 0.9, T_points: 50}\n")
    out = tmp_path / "out"
    assert cli_main(["predict", "--config", str(cfg), "--outdir", str(out),
                     "--set", "predict.T_points=8"]) == 0
    assert load_config(out / "config_snapshot.yaml").section["T_points"] == 8
    assert cli_main(["predict", "--config", str(tmp_path / "missing.yaml")]) == 2
    assert cli_main(["report", str(tmp_path / "missing.json")]) == 2
    assert "missing.json" in capsys.readouterr().err


def _interrupting_pipeline(cfg, built, outdir):
    (outdir / "predict_sff.csv").write_text("partial\n")
    raise KeyboardInterrupt


def test_interrupted_run_leaves_nothing(tmp_path, monkeypatch):
    monkeypatch.setitem(harness._KINDS, "predict",
                        harness._KINDS["predict"]._replace(run=_interrupting_pipeline))
    with pytest.raises(KeyboardInterrupt):
        run_experiment(_cfg_predict(tmp_path / "out"))
    assert list(tmp_path.iterdir()) == []


def _swallowing_pipeline(cfg, built, outdir):
    (outdir / "predict_sff.csv").write_text("partial\n")
    try:
        signal.raise_signal(signal.SIGINT)
    except KeyboardInterrupt:
        pass
    return {}


def test_swallowed_interrupt_still_fails_the_run(tmp_path, monkeypatch):
    # the run records the SIGINT itself, so a KeyboardInterrupt that a pipeline
    # (or a library under it) drops cannot let an interrupted run install
    monkeypatch.setitem(harness._KINDS, "predict",
                        harness._KINDS["predict"]._replace(run=_swallowing_pipeline))
    before = signal.getsignal(signal.SIGINT)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(_cfg_predict(tmp_path / "out"))
    assert list(tmp_path.iterdir()) == []
    assert signal.getsignal(signal.SIGINT) is before


def _tree(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_failed_rerun_leaves_earlier_run_untouched(tmp_path, monkeypatch):
    out = tmp_path / "out"
    run_experiment(_cfg_predict(out))
    before = _tree(out)
    monkeypatch.setitem(harness._KINDS, "predict",
                        harness._KINDS["predict"]._replace(run=_failing_pipeline))
    with pytest.raises(Exception):
        run_experiment(_cfg_predict(out))
    assert _tree(out) == before and verify_manifest(out)
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def _row_wise_write_csv(path, schema, header, blocks):
    rows = []
    for columns in blocks:  # a 0-d column repeats its one cell down the block
        n = max(len(c) for c in columns if np.ndim(c))
        rows += zip(*(c if np.ndim(c) else [c] * n for c in columns))
    write_csv_rows(path, schema, header, rows)


CSV_WRITER_RUNS = [
    ("predict", {"L": 2, "chi": 0.9, "T_spacing": "integer", "T_stop": 40.0, "emit_kappa": True}),
    # 17, 40 and 64 are counted from the Smith form without a listing budget
    ("orbits", {"T_list": [1, 2, 3, 4, 5, 6, 7, 17, 40, 64], "inventory_max_T": 5}),
    ("clt", {"T_list": [3, 40], "budget": 1000, "csv_rows": 600}),
    ("variance", {"T": 4, "samples": 500, "horizon": 8}),
    ("quantum-sff", {"N": 4, "Lambda": 0.2, "members": 2, "t_max": 20}),
    ("compare", {"series_csv": "{series}", "prediction": {"L": 2, "T_H": 16.0, "chi": 0.9}}),
    ("bound-check", {"families": [{"eta": 0.5, "theta": 1.0}, {"eta": 0.2, "theta": 2.0}],
                     "T_points": 6}),
]


@pytest.mark.parametrize("kind, section", CSV_WRITER_RUNS, ids=[k for k, _ in CSV_WRITER_RUNS])
def test_column_writer_matches_row_wise_writer(tmp_path, monkeypatch, kind, section):
    series = tmp_path / "series.csv"
    series.write_text("# schema: sfflab/sff_numeric v1\nt,K,K_raw,err,N,L\n"
                      + "".join(f"{t},{t}.0,{t}.0,0.1,4,2\n" for t in range(1, 21)))
    if kind == "compare":
        section = {**section, "series_csv": str(series)}
    cfg = validate_config({"kind": kind, "seed": 5, "outdir": str(tmp_path / "out"),
                           harness._KINDS[kind].section: section})
    runs = []
    for writer in (harness._write_csv, _row_wise_write_csv):
        monkeypatch.setattr(harness, "_write_csv", writer)
        man = run_experiment(cfg)
        runs.append((man.digests, {k: v for k, v in _tree(tmp_path / "out").items()
                                   if k != "manifest.json"}))
    assert runs[0] == runs[1]
    assert kind == "compare" or any(name.endswith(".csv") for name in runs[0][1])
    if kind == "orbits":
        with open(tmp_path / "out/orbit_summary.csv") as f:
            f.readline()
            summary = list(csv.DictReader(f))
        assert [int(r["T"]) for r in summary] == section["T_list"]
        assert all(r["count"] == r["expected_count"] for r in summary)


def test_write_csv_matches_row_wise_writer_across_slices(tmp_path):
    n = harness._CSV_SLICE + 3  # one block that spans two slices, then a short one
    special = [-0.0, np.inf, -np.inf, np.nan, 1e16, 1e-5, 0.1, 5e-324]
    phi = np.random.default_rng(3).standard_normal(n)
    phi[:len(special)] = special
    phi[n - len(special):] = special  # across the slice boundary
    blocks = [
        [np.arange(n), phi, np.arange(n) % 3 == 0, np.where(np.arange(n) % 2, "exact", "proxy"),
         ["0;1"] * n],
        [[7, 8], [-0.0, 2.5], [True, False], ["a b", " "], ["x'y", "#"]],
    ]
    header = ["T", "phi", "ok", "mode", "s"]
    harness._write_csv(tmp_path / "columns.csv", "test", header, blocks)
    write_csv_rows(tmp_path / "rows.csv", "test", header,
                   [row for columns in blocks for row in zip(*columns)])
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert len((tmp_path / "columns.csv").read_text().splitlines()) == n + 4


@pytest.mark.parametrize("cell", ["a,b", 'say "x"', "two\nlines", "cr\r", ""])
def test_write_csv_refuses_cells_csv_would_quote(tmp_path, cell):
    for label in (["ok", cell], cell):  # in a column, and as a 0-d column repeated down the block
        with pytest.raises(ValueError, match="would need quoting"):
            harness._write_csv(tmp_path / "bad.csv", "test", ["n", "label"], [[[1, 2], label]])


def test_write_csv_scalar_column_equals_its_full_column(tmp_path):
    n = harness._CSV_SLICE + 3  # the repeated cell spans two slices
    phi = np.random.default_rng(4).standard_normal(n)
    scalars = [16, "exact", "0;1;2", 0.1, -0.0, np.int64(7), np.float64(2.5), True]
    header = ["index", "phi"] + [f"c{i}" for i in range(len(scalars))]
    for name, full in (("scalar", lambda v, k: v), ("full", lambda v, k: np.full(k, v))):
        harness._write_csv(tmp_path / f"{name}.csv", "test", header,
                           [[np.arange(n), phi, *(full(v, n) for v in scalars)],
                            [[1, 2], [0.5, 1.5], *(full(v, 2) for v in scalars[::-1])]])
    assert (tmp_path / "scalar.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()
    assert len((tmp_path / "scalar.csv").read_text().splitlines()) == n + 4


def test_successful_rerun_replaces_run_directory(tmp_path):
    out = tmp_path / "out"
    run_experiment(_cfg_predict(out, emit_kappa=True))
    assert (out / "kappa.csv").exists()
    man = run_experiment(_cfg_predict(out))
    assert not (out / "kappa.csv").exists()  # no stale artifact from the earlier run
    assert sorted(p.name for p in out.iterdir()) == sorted([*man.digests, "manifest.json"])
    assert verify_manifest(out)
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_run_directory_gets_mkdir_permissions(tmp_path):
    (tmp_path / "plain").mkdir()
    run_experiment(_cfg_predict(tmp_path / "out"))
    mode = (tmp_path / "out").stat().st_mode & 0o777
    assert mode == (tmp_path / "plain").stat().st_mode & 0o777


def test_foreign_directory_is_not_replaced(tmp_path, capsys):
    out = tmp_path / "notes"
    out.mkdir()
    (out / "keep.txt").write_text("mine\n")
    rc = cli_main(["predict", "--outdir", str(out), "--seed", "3",
                   "--set", "predict.L=2", "--set", "predict.chi=0.9"])
    assert rc == 2
    assert str(out) in capsys.readouterr().err
    assert _tree(out) == {"keep.txt": b"mine\n"}
    assert [p.name for p in tmp_path.iterdir()] == ["notes"]
    empty = tmp_path / "empty"
    empty.mkdir()
    run_experiment(_cfg_predict(empty))
    assert verify_manifest(empty)


def test_sigint_during_variance_leaves_no_outdir(tmp_path):
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "sfflab.cli", "variance", "--outdir", str(out), "--seed", "1",
         "--set", "variance.samples=200000", "--set", "variance.T=16"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob(".out.*/config_snapshot.yaml")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=60) != 0
    finally:
        proc.kill()
        proc.wait()
    assert list(tmp_path.iterdir()) == []


def test_cli_import_does_not_load_scipy():
    # importing scipy would be most of a CLI start, and no kind needs it
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    code = "import sys, sfflab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_cli_import_does_not_load_the_process_pool():
    # concurrent.futures brings logging and threading; only workers > 1 needs it
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    code = ("import sys, sfflab.cli\n"
            "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_clt_run_does_not_load_scipy(tmp_path):
    # the KS distance's normal CDF is phases._ndtr, so no kind pays scipy's import time
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    code = ("import sys, sfflab.cli\n"
            "code = sfflab.cli.main(['clt', '--outdir', sys.argv[1], '--seed', '1',\n"
            "                        '--set', 'clt.T_list=[4]', '--set', 'clt.budget=1000'])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "c")], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.splitlines()[-1] == "0 []"


def test_numpy_random_is_loaded_before_staging(tmp_path):
    # a SIGINT that lands while numpy.random first initialises is dropped, so the
    # import must not happen inside a staged run; predict itself draws nothing
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    code = (
        "import sys, pathlib, sfflab.harness as h\n"
        "mkdir = pathlib.Path.mkdir\n"
        "def staged(self, *args, **kwargs):\n"
        "    if self.name.endswith('.partial'):\n"
        "        print('numpy.random' in sys.modules)\n"
        "    return mkdir(self, *args, **kwargs)\n"
        "pathlib.Path.mkdir = staged\n"
        "h.run_experiment(h.validate_config({'kind': 'predict', 'seed': 1, 'outdir': sys.argv[1],\n"
        "                                     'predict': {'L': 3, 'chi': 0.9}}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "p")], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "True"


def _spans_targets():
    # run from source, so that no bytecode cache is written into the benchmark's tree
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    return runpy.run_path(str(path))["TARGETS"]


def test_traced_names_exist():
    # the benchmark's tracer looks each of these up with getattr
    for layer, names in _spans_targets().items():
        module = importlib.import_module(f"sfflab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"sfflab.{layer}.{name}"


def _readme_commands():
    """The sfflab commands of README's command-line block, one argv each."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("sfflab ")]


def test_readme_commands_pass_validation(tmp_path, monkeypatch):
    # every example validates against the schema; the runs themselves are stubbed out
    ran = []

    def validated_only(cfg):
        ran.append(cfg.kind)
        return harness.RunManifest(config=cfg.to_dict(), version="", wall_time_s=0.0,
                                   task_seeds={}, digests={})

    monkeypatch.setattr("sfflab.cli.run_experiment", validated_only)
    monkeypatch.chdir(tmp_path)
    series = tmp_path / "runs/q/sff_numeric.csv"  # what the quantum-sff example writes
    series.parent.mkdir(parents=True)
    series.write_text("# schema: sfflab/sff_numeric v1\nt,K,K_raw,err,N,L,Lambda\n"
                      + "".join(f"{t},{t}.0,{t}.0,0.1,16,2,0.2107\n" for t in range(1, 321)))
    for argv in _readme_commands():
        if argv[0] != "report":  # report reads compare reports and has no config
            assert cli_main(argv) == 0, argv
    assert sorted(ran) == sorted(harness.KINDS)


def test_readme_package_layout_lists_every_module():
    # the layout block names each module of src/sfflab once (the package __init__ aside)
    root = Path(__file__).resolve().parents[1]
    block = (root / "README.md").read_text().split("## Package layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\w+\.py) ", block, re.M)
    modules = [p.name for p in (root / "src/sfflab").glob("*.py") if p.name != "__init__.py"]
    assert sorted(listed) == sorted(modules)
