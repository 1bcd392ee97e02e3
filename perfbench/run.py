"""blocklab benchmark runner.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` each run of the workload is one fresh
``python -m blocklab.cli <kind> --config <ini> --seed N`` subprocess,
spawned one at a time until ``--seconds`` have passed, after a few timed
``blocklab validate`` runs that give the set-up time.  Every run goes
through the correctness gate (exit code, sha256 of every output listed in
run.json, identical manifests across the runs of the invocation).  With
``--trace 1`` the workload runs twice in this process at workers = 1, once
untraced and once under the span tracer of ``spans.py``; the second run
gives the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything a run
leaves behind goes to ``perfbench/.work/``.
"""

import os

# Child processes (and this one, for the traced run) use the library-default
# BLAS threading, as a user would: drop inherited thread pins before numpy
# can be imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.pop(_var, None)

import argparse
import configparser
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = HERE / "workloads"
WORK = HERE / ".work"
SETUP_REPEATS = 5
WARMUP_S = 3.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


# -- workloads -------------------------------------------------------------


def workload_names() -> list[str]:
    return sorted(p.stem for p in WORKLOADS.glob("*.ini"))


def read_workload(name: str) -> dict:
    path = WORKLOADS / f"{name}.ini"
    if not path.is_file():
        raise BenchError(f"unknown workload {name!r}; have {workload_names()}")
    cp = configparser.ConfigParser()
    cp.read(path, encoding="utf-8")
    exp = cp["experiment"]
    workers = int(exp["workers"])
    if workers > nproc():
        raise BenchError(f"workload {name} wants {workers} workers but only "
                         f"{nproc()} CPUs are available")
    return {"name": name, "path": path, "kind": exp["kind"], "workers": workers,
            "realizations": int(exp["realizations"])}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -- environment -------------------------------------------------------------


def _openblas_threads():
    """Effective OpenBLAS thread count of the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": _openblas_threads(),
        "cpu_count": os.cpu_count(),
        "affinity_count": nproc(),
        "cpu_model": _cpu_model(),
        "stripped_env": list(BLAS_THREAD_VARS),
    }


# -- package import and self-checks --------------------------------------------


def import_package():
    if not (SRC / "blocklab" / "__init__.py").is_file():
        raise BenchError(f"no blocklab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import blocklab.cli
    if Path(blocklab.cli.__file__).resolve().parent != (SRC / "blocklab").resolve():
        raise BenchError(f"imported blocklab from {blocklab.cli.__file__}, not {SRC}")
    return blocklab.cli


def self_checks(cli):
    """Every workload INI validates, and the tracer installs and removes
    cleanly at every binding site."""
    for name in workload_names():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["validate", "--config", str(WORKLOADS / f"{name}.ini")])
        if code != 0:
            raise BenchError(f"workload {name}: blocklab validate exited {code}")
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.remove()


# -- one CLI run and its correctness gate --------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list[str], log: Path) -> dict:
    """Run `python -m blocklab.cli argv` to completion; wall time from spawn
    to exit, CPU time and peak RSS of the whole process tree (wait4 folds in
    every descendant the child reaped, i.e. its pool workers)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "blocklab.cli"] + argv,
                                stdin=subprocess.DEVNULL, stdout=fh, stderr=fh,
                                env=child_env(), cwd=ROOT)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime, "peak_rss_mb": ru.ru_maxrss / 1024.0}


def warm_cpus(seconds: float):
    """Keep every CPU busy for a few seconds before timing: on a shared
    host the first run after single-core work otherwise reads 20-40 %
    slow while idle cores come back."""
    spin = f"import time\nt = time.perf_counter()\nwhile time.perf_counter() - t < {seconds}: pass"
    procs = [subprocess.Popen([sys.executable, "-c", spin]) for _ in range(nproc())]
    for proc in procs:
        proc.wait()


def gate(outdir: Path, exit_code: int, seed: int):
    """(failure reason or None, output manifest, checks asserted)."""
    if exit_code != 0:
        return f"exit code {exit_code}", None, 0
    try:
        rec = json.loads((outdir / "run.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return f"run.json unreadable: {e}", None, 0
    if rec.get("seed") != seed:
        return f"run.json seed {rec.get('seed')} != {seed}", None, 0
    manifest = tuple(sorted((o["name"], o["sha256"]) for o in rec["outputs"]))
    for name, digest in manifest:
        f = outdir / name
        if not f.is_file():
            return f"output {name} missing", manifest, 0
        if hashlib.sha256(f.read_bytes()).hexdigest() != digest:
            return f"output {name} sha256 mismatch", manifest, 0
    checks = sum(int(r["instances"]) for r in rec["reports"])
    return None, manifest, checks


def manifest_digest(manifest) -> str:
    text = "".join(f"{n} {d}\n" for n, d in manifest or ())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Gate:
    """Per-run correctness gate; all runs of an invocation share one seed,
    so their output manifests must agree."""

    def __init__(self, seed):
        self.seed = seed
        self.manifest = None
        self.attempted = 0
        self.failed = 0
        self.checks = []

    def __call__(self, outdir, exit_code) -> str | None:
        self.attempted += 1
        reason, manifest, checks = gate(outdir, exit_code, self.seed)
        if reason is None:
            if self.manifest is None:
                self.manifest = manifest
            elif manifest != self.manifest:
                reason = "output manifest differs from the first run's"
        if reason is None:
            self.checks.append(checks)
        else:
            self.failed += 1
        return reason


# -- the two modes ---------------------------------------------------------------


def measure(w: dict, seed: int, seconds: int, work: Path) -> dict:
    """End-to-end metrics from fresh CLI subprocesses, tracing off.  The
    set-up runs count towards the measured `seconds`, the CPU warm-up
    between them and the timed runs does not."""
    t_start = time.perf_counter()
    setup = []
    for i in range(SETUP_REPEATS):
        r = spawn(["validate", "--config", str(w["path"])], work / f"validate{i}.log")
        if r["exit"] != 0:
            raise BenchError(f"blocklab validate exited {r['exit']} for {w['name']}")
        setup.append(r["wall_s"])

    t_warm = time.perf_counter()
    warm_cpus(WARMUP_S)
    t_start += time.perf_counter() - t_warm     # the warm-up is not measured
    check = Gate(seed)
    runs = []
    while not runs or time.perf_counter() - t_start < seconds:
        out = work / f"run{len(runs)}"
        out.mkdir()
        r = spawn([w["kind"], "--config", str(w["path"]), "--seed", str(seed),
                   "--out", str(out)], out / "cli.log")
        r["failure"] = check(out, r["exit"])
        runs.append(r)
        print(f"  run {len(runs)}: wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
              f"rss {r['peak_rss_mb']:.1f} MB, {r['failure'] or 'ok'}", flush=True)

    samples = {
        "wall_s": ("s", [r["wall_s"] for r in runs]),
        "setup_s": ("s", setup),
        "realizations_per_s": ("1/s", [w["realizations"] / r["wall_s"] for r in runs]),
        "cpu_s": ("s", [r["cpu_s"] for r in runs]),
        "peak_rss_mb": ("MB", [r["peak_rss_mb"] for r in runs]),
        "checks_asserted": ("count", check.checks or [0]),
    }
    return {"check": check, "samples": samples}


def trace(w: dict, seed: int, cli, work: Path) -> dict:
    """Per-layer metrics from one traced in-process run at workers = 1,
    after one untraced run that warms the process and gives the overhead."""
    from spans import KERNEL_LAYER, LAYERS, Tracer

    def run_inline(out):
        out.mkdir()
        argv = [w["kind"], "--config", str(w["path"]), "--seed", str(seed),
                "--workers", "1", "--out", str(out)]
        with open(out / "cli.log", "w", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log):
            t0 = time.perf_counter()
            code = cli.main(argv)
            return code, time.perf_counter() - t0

    check = Gate(seed)
    code, ref_wall = run_inline(work / "untraced")
    failures = [check(work / "untraced", code)]
    tracer = Tracer()
    tracer.install()
    try:
        code, wall = run_inline(work / "traced")
    finally:
        tracer.remove()
    failures.append(check(work / "traced", code))

    self_total = sum(s.self_s for s in tracer.stats.values())
    unattributed = wall - tracer.covered_s
    if abs(self_total - tracer.covered_s) > 1e-6 * wall or unattributed < -1e-6 * wall:
        raise BenchError(f"self times {self_total:.6f} s + unattributed "
                         f"{unattributed:.6f} s do not add up to {wall:.6f} s")

    sp, c = tracer.span, tracer.counters
    layer = tracer.layer_self()

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{name}.self_s": (layer[name], "s") for name in LAYERS + (KERNEL_LAYER,)}
    m.update({
        "lattice.axis_offsets.calls": (sp("lattice.axis_offsets").calls, "count"),
        "asymptotics.ct_threshold_length.total_s":
            (sp("asymptotics.ct_threshold_length").total_s, "s"),
        "disorder.sample_field.calls": (sp("disorder.sample_field").calls, "count"),
        "disorder.sample_field.self_s": (sp("disorder.sample_field").self_s, "s"),
        "disorder.ns_per_draw": (1e9 * ratio(sp("disorder.sample_field").total_s,
                                             c.draws), "ns"),
        "disorder.sample_field.unique_ratio":
            (ratio(len(c.fields), sp("disorder.sample_field").calls), "ratio"),
        "operators.build_h0.calls": (sp("operators.build_h0").calls, "count"),
        "spectral.eigensolve.calls": (sp("spectral.eigensolve").calls, "count"),
        "spectral.eigensolve.unique_ratio":
            (ratio(len(c.matrices), sp("spectral.eigensolve").calls), "ratio"),
        "spectral.eigensolve.dim_max": (c.dim_max, "count"),
        "spectral.eigensolve.flops_computed": (c.flops, "flop"),
        "spectral.run_realizations.items": (c.items, "count"),
        "spectral.run_realizations.self_s": (sp("spectral.run_realizations").self_s, "s"),
        "kernel.eigvalsh.self_s": (sp("kernel.eigvalsh").self_s, "s"),
        "kernel.eigh.self_s": (sp("kernel.eigh").self_s, "s"),
        "kernel.solve.self_s": (sp("kernel.solve").self_s, "s"),
        "kernel.share": (ratio(layer[KERNEL_LAYER], wall), "ratio"),
        "green.resolvent.calls": (sp("green.resolvent").calls, "count"),
        "green.resolvent.unique_ratio":
            (ratio(len(c.resolvents), sp("green.resolvent").calls), "ratio"),
        "harness.write_csv.self_s": (sp("harness.write_csv").self_s, "s"),
        "harness.write_csv.bytes": (c.csv_bytes, "bytes"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - ref_wall, "s"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.hooks_s": (sp("trace.hooks").self_s, "s"),
    })
    dump = tracer.dump()
    dump.update(wall_s=wall, untraced_wall_s=ref_wall,
                layer_self_s=dict(sorted(layer.items())))
    (work / "trace.json").write_text(json.dumps(dump, indent=1) + "\n", encoding="utf-8")

    print(f"  untraced {ref_wall:.3f} s, traced {wall:.3f} s, "
          f"hook errors {c.errors}; layer self time:")
    for name, secs in sorted(layer.items(), key=lambda kv: -kv[1]):
        print(f"    {name:<13} {secs:9.3f} s  {100 * secs / wall:5.1f} %")
    for name, secs in (("(hooks)", sp("trace.hooks").self_s), ("(outside)", unattributed)):
        print(f"    {name:<13} {secs:9.3f} s  {100 * secs / wall:5.1f} %")
    top = sorted(tracer.stats.items(), key=lambda kv: -kv[1].total_s)[:4]
    print("  largest inclusive spans: " + ", ".join(
        f"{n} {100 * st.total_s / wall:.1f} %" for n, st in top))
    for f in failures:
        if f:
            print(f"  FAILED: {f}")
    if c.errors:
        raise BenchError(f"{c.errors} counter hook(s) failed during the traced run")
    return {"check": check, "metrics": m}


# -- reporting -------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: int, traced: bool, cli, env) -> dict:
    w = read_workload(name)
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"workload {name}: kind {w['kind']}, seed {seed}, workers {w['workers']}, "
          f"trace {int(traced)}", flush=True)

    if traced:
        res = trace(w, seed, cli, work)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    else:
        res = measure(w, seed, seconds, work)
        print(f"  {'metric':<20} {'median':>12} {'min':>12} {'max':>12}  unit   n")
        metrics = {}
        for k, (unit, vals) in res["samples"].items():
            med = statistics.median(vals)
            print(f"  {k:<20} {med:12.4f} {min(vals):12.4f} {max(vals):12.4f}  "
                  f"{unit:<6} {len(vals)}")
            metrics[k] = {"value": med, "unit": unit}
    check_declared(metrics, traced)
    check = res["check"]
    print(f"  error_rate {check.failed}/{check.attempted} = "
          f"{check.failed / check.attempted:.3f}; manifest digest "
          f"{manifest_digest(check.manifest)} (informational)")
    correct = check.failed == 0 and bool(check.checks) and min(check.checks) > 0
    result = {"correct": correct, "attempted": check.attempted,
              "failed": check.failed, "metrics": metrics}
    record = dict(result, workload=name, seed=seed, seconds=seconds,
                  trace=int(traced), environment=env,
                  manifest=[list(x) for x in check.manifest or ()],
                  manifest_digest=manifest_digest(check.manifest))
    if not traced:
        record["samples"] = {k: v for k, (_, v) in res["samples"].items()}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n",
                                      encoding="utf-8")
    return result


def check_declared(metrics: dict, traced: bool):
    """The metrics printed are exactly those BENCHMARK.json declares, with
    the declared units."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return
    declared = {m["name"]: m["unit"] for m in
                json.loads(spec.read_text(encoding="utf-8"))[
                    "per_layer" if traced else "end_to_end"]}
    printed = {k: v["unit"] for k, v in metrics.items()}
    if printed != declared:
        raise BenchError(f"metrics {sorted(printed.items())} differ from "
                         f"BENCHMARK.json {sorted(declared.items())}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="workload name (an INI under perfbench/workloads) or 'all'")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = workload_names() if args.workload == "all" else [args.workload]
    try:
        for n in names:
            read_workload(n)
        cli = import_package()
        sys.path.insert(0, str(HERE))
        env = environment()
        print("environment: " + json.dumps(env, sort_keys=True), flush=True)
        self_checks(cli)
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), cli, env)
                   for n in names}
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                          "attempted": sum(r["attempted"] for r in results.values()),
                          "failed": sum(r["failed"] for r in results.values()),
                          "workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
