"""sfflab benchmark: seeded CLI workloads, oracle-gated, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is built from ``src``
(byte-compiled) and every sfflab process gets ``PYTHONPATH=src`` and one
BLAS/OpenMP thread.  ``--trace 0`` times the workload as users run it, one
fresh interpreter per command, and prints the end-to-end metrics; ``--trace 1``
runs it in process, once untraced and once with every public sfflab function
of the layers wrapped, and prints the per-layer metrics.  Full reports,
command outputs and spans go to ``perfbench/out/``.  The last line of stdout
is the JSON result.  See perfbench/README.md for workloads and metrics.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import yaml  # noqa: E402

import continuation  # noqa: E402
from workloads import WORKLOADS, Step, read_csv  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
IMPORT_PROBES = 3
RUN_DEADLINE_S = 170.0
PROBE = ("import sys, yaml, sfflab.cli\n"
         "from sfflab.harness import validate_config\n"
         "validate_config(yaml.safe_load(open(sys.argv[1])))\n")

# per-layer metrics read from the traced pass: name -> (span key, field, unit)
SPAN_METRICS = {
    "harness.validate_config_s": ("harness.validate_config", "self_s", "s"),
    "harness.run_experiment_self_s": ("harness.run_experiment", "self_s", "s"),
    "quantum.trace_powers_s": ("quantum.trace_powers", "self_s", "s"),
    "quantum.trace_powers_calls": ("quantum.trace_powers", "calls", "count"),
    "quantum.build_circuit_s": ("quantum.build_circuit", "self_s", "s"),
    "quantum.ensemble_members_s": ("quantum.ensemble_members", "self_s", "s"),
    "quantum.sff_numeric_self_s": ("quantum.sff_numeric", "self_s", "s"),
    "quantum.compare_s": ("quantum.compare", "self_s", "s"),
    "util.window_average_s": ("util.window_average", "self_s", "s"),
    "util.window_average_calls": ("util.window_average", "calls", "count"),
    "util.mod1_s": ("util.mod1", "self_s", "s"),
    "util.mod1_elements": ("util.mod1", "elements", "count"),
    "util.run_tasks_self_s": ("util.run_tasks", "self_s", "s"),
    "dynamics.step_arrays_s": ("dynamics.step_arrays", "self_s", "s"),
    "dynamics.step_arrays_elements": ("dynamics.step_arrays", "elements", "count"),
    "dynamics.pair_potential_s": ("dynamics.pair_potential", "self_s", "s"),
    "dynamics.pair_potential_rows": ("dynamics.pair_potential", "rows", "count"),
    "dynamics.estimate_correlation_s": ("dynamics.estimate_correlation", "self_s", "s"),
    "dynamics.estimate_correlation_samples": ("dynamics.estimate_correlation", "samples", "count"),
    "phases.per_bond_variance_table_s": ("phases.per_bond_variance_table", "self_s", "s"),
    "phases.variance_time_average_s": ("phases.variance_time_average", "self_s", "s"),
    "phases.variance_series_s": ("phases.variance_series", "self_s", "s"),
    "phases.sample_phase_distribution_exact_s":
        ("phases.sample_phase_distribution_exact", "self_s", "s"),
    "phases.sample_phase_distribution_proxy_s":
        ("phases.sample_phase_distribution_proxy", "self_s", "s"),
    "phases.clt_diagnostics_s": ("phases.clt_diagnostics", "self_s", "s"),
    "phases.action_difference_identity_check_s":
        ("phases.action_difference_identity_check", "self_s", "s"),
    "orbits.enumerate_lattice_s": ("orbits.enumerate_lattice", "self_s", "s"),
    "orbits.enumerate_lattice_points": ("orbits.enumerate_lattice", "points", "count"),
    "orbits.subsystem_orbits_s": ("orbits.subsystem_orbits", "self_s", "s"),
    "orbits.subsystem_orbits_points": ("orbits.subsystem_orbits", "points", "count"),
    "orbits.sum_rule_check_s": ("orbits.sum_rule_check", "self_s", "s"),
    "orbits.family_iterator_s": ("orbits.family_iterator", "self_s", "s"),
    "potts.scaled_kappa_s": ("potts.scaled_kappa", "self_s", "s"),
}
RATE_METRICS = ("members_per_s", "mc_sample_steps_per_s", "orbit_points_per_s",
                "phase_samples_per_s", "continuation_pairs_per_s")


class Ledger:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ops: int, messages: list[str]) -> None:
        self.attempted += ops
        self.failed += min(ops, len(messages))
        self.failures.extend(messages)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list[str], log_path: Path, deadline: float) -> tuple[int, float, float, float]:
    """Run a child to completion: (exit code, wall s, CPU s, max RSS in MB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def write_config(step: Step, base: Path) -> Path:
    """Place the step's outputs under base and write its config file."""
    outdir = base / step.name
    path = base / "configs" / f"{step.name}.yaml"
    path.parent.mkdir(parents=True, exist_ok=True)
    if step.config is None:
        outdir.mkdir(parents=True, exist_ok=True)
    else:
        with open(path, "w") as f:
            yaml.safe_dump({**step.config, "outdir": str(outdir)}, f, sort_keys=True)
    return path


def step_args(step: Step, base: Path, cfg: Path) -> list[str]:
    """Arguments of the step's program: the sfflab CLI or the continuation step."""
    if step.kind is not None:
        return [step.kind, "--config", str(cfg)]
    return [str(base / step.name / "continuation.json"), str(step.max_period)]


def step_argv(step: Step, base: Path, cfg: Path) -> list[str]:
    program = ["-m", "sfflab.cli"] if step.kind is not None else [str(HERE / "continuation.py")]
    return [sys.executable, *program, *step_args(step, base, cfg)]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verify_manifest(outdir: Path) -> list[str]:
    """Re-hash every artifact the manifest lists; also require every CSV listed."""
    manifest = json.loads((outdir / "manifest.json").read_text())
    digests = manifest["digests"]
    bad = [f"{outdir.name}/{name}: digest mismatch" for name, digest in sorted(digests.items())
           if sha256(outdir / name) != digest]
    bad += [f"{outdir.name}/{p.name}: not in manifest" for p in sorted(outdir.glob("*.csv"))
            if p.name not in digests]
    return bad


def check_step(step: Step, base: Path, code: int) -> tuple[list[str], dict]:
    """Gate messages (one per failed operation) and the step's fingerprints."""
    outdir = base / step.name
    if code != 0:
        return [f"{step.name}: exit code {code}"] * step.ops, {}
    try:
        bad = verify_manifest(outdir) if step.kind is not None else []
        if bad:
            return bad[:1] * step.ops, {}
        messages = step.check(outdir)
        prints = {p.name: sha256(p) for p in sorted(outdir.glob("*.csv"))}
        for name, column in step.fingerprint_columns.items():
            prints[f"{name}:{column}"] = [float(r[column]) for r in read_csv(outdir / name)]
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"{step.name}: unreadable output ({type(e).__name__}: {e})"] * step.ops, {}
    return messages, prints


def steal_seconds() -> float:
    """CPU time the hypervisor gave to others, summed over CPUs (0 where unknown)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _proc_field(path: str, key: str) -> str | None:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError:
        return None
    return next((line.split(":", 1)[1].strip() for line in lines if line.startswith(key)), None)


def machine_record() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError) as e:
        blas = {"error": str(e)}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name") or platform.processor(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# end-to-end run: every command in a fresh interpreter


def run_end_to_end(seed, seconds, out, deadline, ledger, build) -> tuple[dict, dict]:
    setup_base = out / "setup"
    cfg = write_config(build(seed, setup_base)[0], setup_base)  # first step is a CLI command
    probe_argv = [sys.executable, "-c", PROBE, str(cfg)]
    setup = []
    for i in range(SETUP_PROBES):
        code, wall, _, _ = spawn(probe_argv, setup_base / f"probe{i}.log", deadline)
        ledger.record(1, [f"setup probe: exit code {code}"] if code else [])
        setup.append(wall)

    # repeat while a repetition as long as the last one still fits; at least one
    reps = []
    start = time.monotonic()
    while not reps or (time.monotonic() - start + reps[-1]["measured_s"] <= seconds
                       and time.monotonic() + reps[-1]["measured_s"] < deadline):
        base = out / "rep"
        shutil.rmtree(base, ignore_errors=True)
        rep_start = time.monotonic()
        steal0 = steal_seconds()
        steps = []
        for step in build(seed, base):
            cfg = write_config(step, base)
            code, wall, cpu, rss = spawn(step_argv(step, base, cfg), base / f"{step.name}.log", deadline)
            messages, prints = check_step(step, base, code)
            ledger.record(step.ops, messages)
            steps.append({"step": step.name, "exit": code, "wall_s": wall, "cpu_s": cpu,
                          "max_rss_mb": rss, "failures": messages, "fingerprints": prints})
        reps.append({"steps": steps, "wall_s": sum(s["wall_s"] for s in steps),
                     "cpu_s": sum(s["cpu_s"] for s in steps),
                     "steal_s": steal_seconds() - steal0,
                     "peak_rss_mb": max(s["max_rss_mb"] for s in steps),
                     "measured_s": time.monotonic() - rep_start})

    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(r["wall_s"] for r in reps), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    samples = {"setup_s": setup, "wall_s": [r["wall_s"] for r in reps],
               "peak_rss_mb": [r["peak_rss_mb"] for r in reps]}
    return metrics, {"samples": samples, "reps": reps,
                     "reproducible": _reproducible(r["steps"] for r in reps)}


def _reproducible(rep_steps) -> bool:
    """True when every repetition wrote byte-identical CSVs (recorded, not gated)."""
    seen = [[{k: v for k, v in s["fingerprints"].items() if k.endswith(".csv")} for s in steps]
            for steps in rep_steps]
    return all(s == seen[0] for s in seen)


# ---------------------------------------------------------------------------
# traced run: in process, untraced pass then traced pass


def import_times(text: str) -> tuple[float, float]:
    """Cumulative seconds of sfflab.cli, and of scipy as imported from outside scipy.

    scipy loads ``scipy.stats`` lazily, so -X importtime logs no line for it;
    the package's only scipy import is ``scipy.stats``, so every scipy module
    imported directly by non-scipy code is charged to it.
    """
    rows = []
    for line in text.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            rows.append(((len(name) - len(name.lstrip()) - 1) // 2, name.strip(), int(parts[1]) / 1e6))
    cli = scipy = 0.0
    ancestors: list[str] = []
    for depth, name, cumulative in reversed(rows):  # parents precede children
        del ancestors[depth:]
        parent = ancestors[-1] if ancestors else ""
        if name == "sfflab.cli":
            cli = cumulative
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy += cumulative
        ancestors.append(name)
    return cli, scipy


def import_profile(out: Path, deadline: float, ledger: Ledger) -> dict:
    """Median import times of sfflab.cli and scipy.stats from -X importtime."""
    cli, stats = [], []
    for i in range(IMPORT_PROBES):
        log = out / f"importtime{i}.log"
        code, _, _, _ = spawn([sys.executable, "-X", "importtime", "-c", "import sfflab.cli"],
                           log, deadline)
        ledger.record(1, [f"import probe: exit code {code}"] if code else [])
        c, s = import_times(log.read_text())
        cli.append(c)
        stats.append(s)
    return {"cli.import_s": metric(statistics.median(cli), "s"),
            "cli.import_scipy_stats_s": metric(statistics.median(stats), "s")}


def run_pass(steps: list[Step], base: Path, ledger: Ledger) -> list[dict]:
    """Run each step in this process; per-step wall time excludes the gates."""
    import sfflab.cli

    results = []
    for step in steps:
        args = step_args(step, base, write_config(step, base))
        with open(base / f"{step.name}.log", "w") as f, contextlib.redirect_stdout(f), \
                contextlib.redirect_stderr(f):
            t0 = time.perf_counter()
            if step.kind is not None:
                code = sfflab.cli.main(args)
            else:
                try:
                    code = continuation.main(args)
                except Exception:  # a failed step is counted, the run goes on
                    traceback.print_exc()
                    code = 3
            wall = time.perf_counter() - t0
        messages, prints = check_step(step, base, code)
        ledger.record(step.ops, messages)
        results.append({"step": step.name, "exit": code, "wall_s": wall, "failures": messages,
                        "fingerprints": prints, "artifact_bytes": _artifact_bytes(base / step.name)})
    return results


def _artifact_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.glob("*") if p.is_file()) if outdir.is_dir() else 0


def run_traced(name, seed, out, deadline, ledger, build) -> tuple[dict, dict]:
    from spans import LAYERS, Tracer

    metrics = import_profile(out, deadline, ledger)
    sys.path.insert(0, str(SRC))
    import sfflab.cli  # noqa: F401  (import before wrapping, outside the passes)

    steps = build(seed, out / "untraced")
    untraced = run_pass(steps, out / "untraced", ledger)
    tracer = Tracer(f"{name}-seed{seed}")
    tracer.install()
    try:
        traced = run_pass(build(seed, out / "traced"), out / "traced", ledger)
    finally:
        tracer.uninstall()
    tracer.write_spans(out / "spans.csv")
    summary = tracer.summary()
    metrics.update(layer_metrics(summary, LAYERS))
    metrics["harness.artifact_bytes"] = metric(sum(s["artifact_bytes"] for s in traced), "bytes")

    traced_wall = sum(s["wall_s"] for s in traced)
    untraced_wall = sum(s["wall_s"] for s in untraced)
    metrics["untraced_s"] = metric(traced_wall - summary["top_level_s"], "s")
    metrics["traced_wall_s"] = metric(traced_wall, "s")
    metrics["untraced_wall_s"] = metric(untraced_wall, "s")
    metrics["trace_overhead_s"] = metric(traced_wall - untraced_wall, "s")
    rates = dict.fromkeys(RATE_METRICS, 0.0)
    for step, result in zip(steps, untraced):
        if step.rate_metric:
            rates[step.rate_metric] = step.work / result["wall_s"]
    metrics.update({m: metric(v, "1/s") for m, v in rates.items()})

    keys = summary["keys"]
    layer_table = {layer: {**summary["layers"][layer],
                           "functions": {k: {f: v for f, v in row.items() if f != "durations"}
                                         for k, row in keys.items() if k.startswith(layer + ".")}}
                   for layer in LAYERS}
    return metrics, {"untraced_pass": untraced, "traced_pass": traced, "layers": layer_table,
                     "self_plus_untraced_s": sum(r["self_s"] for r in summary["layers"].values())
                     + metrics["untraced_s"]["value"],
                     "spans": len(tracer.spans),
                     "reproducible": _reproducible([untraced, traced])}


def layer_metrics(summary: dict, layers) -> dict:
    """Named per-function and per-layer metrics from the span summary."""
    keys = summary["keys"]
    metrics = {name: metric(keys.get(key, {}).get(field_name, 0), unit)
               for name, (key, field_name, unit) in SPAN_METRICS.items()}
    powers = [d * 1e3 for d in keys.get("quantum.trace_powers", {}).get("durations", [])]
    p50 = statistics.median(powers) if powers else 0.0
    metrics["quantum.trace_powers_ms_p50"] = metric(p50, "ms")
    metrics["quantum.trace_powers_ms_p90"] = metric(
        statistics.quantiles(powers, n=10)[8] if len(powers) > 1 else p50, "ms")
    step_arrays = keys.get("dynamics.step_arrays", {})
    metrics["dynamics.step_arrays_ns_per_element"] = metric(
        step_arrays["total_s"] / step_arrays["elements"] * 1e9 if step_arrays.get("elements") else 0.0, "ns")
    cont = keys.get("phases.action_difference_identity_check", {})
    metrics["phases.continuation_converged_ratio"] = metric(
        cont["eps_converged"] / cont["eps_points"] if cont.get("eps_points") else 0.0, "ratio")
    for layer in layers:
        row = summary["layers"][layer]
        metrics[f"{layer}.self_s"] = metric(row["self_s"], "s")
        metrics[f"{layer}.calls"] = metric(row["calls"], "count")
        metrics[f"{layer}.errors"] = metric(row["errors"], "count")
    return metrics


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return p.parse_args(argv)


def run(args, build=None) -> tuple[dict, list[str]]:
    """Run one benchmark invocation: the result object and the failure messages."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    build = build or (lambda seed, base: WORKLOADS[args.workload](seed, base, tiny=args.tiny))
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' * args.tiny}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    compileall.compile_dir(str(SRC / "sfflab"), quiet=1)
    ledger = Ledger()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "machine": machine_record(),
              "configs": {s.name: s.config for s in build(args.seed, out / "rep")}}
    if args.trace:
        metrics, detail = run_traced(args.workload, args.seed, out, deadline, ledger, build)
        metrics["fail_ratio"] = metric(ledger.failed / max(ledger.attempted, 1), "ratio")
    else:
        metrics, detail = run_end_to_end(args.seed, args.seconds, out, deadline, ledger, build)
    report.update(detail)
    report["failures"] = ledger.failures
    report["elapsed_s"] = time.monotonic() - started
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    report["result"] = result
    with open(out / "result.json", "w") as f:
        json.dump(report, f, indent=1, default=str)
    return result, ledger.failures


def main(argv=None) -> int:
    # on SIGTERM unwind through spawn(), which kills and reaps a running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (SRC / "sfflab" / "cli.py").is_file():
        print(f"error: no sfflab sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    result, failures = run(args)
    for message in failures[:20]:
        print(f"FAILED {message}")
    for key, m in result["metrics"].items():
        print(f"{key:>45} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
