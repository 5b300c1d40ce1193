"""Benchmark of the bezoutiant pipeline on truth-labelled problems.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client in one process feeds
each generated problem file to `bezoutiant.cli.run` and waits for it
(a closed loop), then classifies the report as solved, failed or wrong
against the generator's label and the output checks in `checks.py`.

The workloads named in BENCHMARK.json hold only problems the program
solved when the benchmark was written; decide-defects and zeros-defects
hold the classes it then got wrong or failed on (see `workloads.py`) and
report `"correct": false` or failures until those defects are fixed.

Set-up is timed in fresh processes: each imports `bezoutiant.cli` and
writes the workload's problem files; the median of SETUP_REPEATS is
`setup_s`, and the files of the last one are the ones measured.

The machine's speed drifts by tens of percent within seconds and between
minutes when other tenants share the host.  While problems run, a SIGPROF
timer runs a fixed pure-Python probe after every SAMPLE_CPU_S of CPU time,
so the probes sample the machine's speed uniformly over the work done.
Each problem's time is multiplied by PROBE_REF_S / (mean time of the
probes taken while it ran, or of the whole pass if none were), i.e. given
in seconds at the reference speed; set-up and per-layer times use the
pass's mean.  The probes cost a few percent of the run.  The unscaled wall
times are printed above the result line and kept in the result file.

With --trace 0 the last line of stdout is the end-to-end result.  With
--trace 1 the problems run once untraced and once traced; the last line
holds the per-layer metrics of the traced pass (times scaled by that
pass's own probes) and the tracing overhead, the difference between the
two passes' scaled busy times.
Everything else (provenance, every problem's class, failed_frac and
wrong_frac, spans) goes to the lines above and to .perfbench/ in the
checkout.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

START = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread, set before numpy loads (here and in the set-up
# processes, which inherit the environment): the one client runs on one
# core.  A second thread would contend with other tenants for the other
# core, and its waits are a slowdown the single-threaded speed probe does
# not see.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import checks  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

#: Wall seconds one problem may take before it counts as failed, over budget.
BUDGET_S = 20.0
#: Fresh set-up processes per run; setup_s is their median.
SETUP_REPEATS = 5
#: The whole run ends well inside the 180 s a run may take.
DEADLINE_S = 165.0
#: Probe time that defines the reference speed (just below the probe's fast
#: state on the 2-core x86-64 machine the benchmark was written on).
PROBE_REF_S = 0.00055
#: CPU seconds between two speed probes.
SAMPLE_CPU_S = 0.025

END_TO_END_UNITS = {
    "solved_per_s": "1/s",
    "problem_s_p50": "s",
    "problem_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class OverBudget(BaseException):
    """Raised by the alarm; a BaseException so the package cannot catch it."""


def _alarm(signum, frame):
    raise OverBudget()


def setup_into(args) -> int:
    sys.path.insert(0, SRC)
    import bezoutiant.cli  # noqa: F401  (the import is part of set-up)
    workloads.write_problems(args.workload, args.seed, args.seconds, args.setup_into)
    return 0


def _tree_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def measure_setup(args, workdir):
    """Time SETUP_REPEATS fresh set-ups; returns (times, problem dir)."""
    times, digests = [], set()
    for k in range(SETUP_REPEATS):
        d = os.path.join(workdir, f"setup{k}")
        os.mkdir(d)
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-into", d,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        digests.add(_tree_digest(d))
    if len(digests) != 1:
        raise RuntimeError("the same seed generated different problem files")
    return times, d


def _probe():
    """Seconds for a fixed piece of Fraction arithmetic, the package's
    dominant kind of work, used to track the machine's current speed."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i % 97 + 1, i % 89 + 1) * Fraction(3, 7)
    return time.perf_counter() - t0


class SpeedSampler:
    """Probe durations taken every SAMPLE_CPU_S of process CPU time."""

    def __init__(self):
        self.times, self.probes = [], []

    def _tick(self, signum, frame):
        self.times.append(time.perf_counter())
        self.probes.append(_probe())

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def pass_scale(self):
        """Factor from wall seconds to reference seconds over the pass."""
        return PROBE_REF_S / statistics.fmean(self.probes or [_probe()])

    def scale_during(self, start, end, default):
        """The factor from the probes taken between start and end."""
        probes = self.probes[bisect.bisect_left(self.times, start):
                             bisect.bisect_right(self.times, end)]
        return PROBE_REF_S / statistics.fmean(probes) if probes else default


def run_pass(cli, problems, pdir, tracer=None):
    """Run every problem once; returns (records, per-problem speed scales,
    speed scale of the whole pass)."""
    with SpeedSampler() as sampler:
        records = [_run_one(cli, entry, pdir, tracer) for entry in problems]
    whole = sampler.pass_scale()
    scales = [sampler.scale_during(r["start"], r["end"], whole) for r in records]
    return records, scales, whole


def _run_one(cli, entry, pdir, tracer):
    path = os.path.join(pdir, entry["file"])
    with open(path) as fh:
        spec = json.load(fh)
    # Each problem starts from a collected heap with the benchmark's own
    # objects frozen, as a fresh CLI process would, so garbage-collector
    # passes do not grow with the run's history.
    gc.collect()
    gc.freeze()
    budget = min(BUDGET_S, START + DEADLINE_S - time.monotonic())
    report = code = error = None
    start = time.perf_counter()
    if budget <= 0:
        error = "not run: run deadline reached"
    else:
        if tracer is not None:
            tracer.problem = entry["id"]
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            report, code = cli.run(path, path + ".report")
        except OverBudget:
            error = f"over budget ({budget:.1f} s)"
        except Exception as exc:  # noqa: BLE001  (any raise is a failure)
            error = f"{type(exc).__name__}: {str(exc)[:200]}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    end = time.perf_counter()
    cls, reason = checks.classify(entry, spec, report, code, error)
    return {"id": entry["id"], "slot": entry["slot"], "label": entry["label"],
            "class": cls, "reason": reason, "exit": code,
            "outcome": report["verdict"]["outcome"] if report else None,
            "elapsed_s": end - start, "start": start, "end": end}


def _blas():
    import numpy as np
    info = {"threads_env": os.environ["OPENBLAS_NUM_THREADS"]}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    try:
        import ctypes
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
        for lib in libs:
            dll = ctypes.CDLL(lib)
            for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
                if hasattr(dll, fn):
                    getattr(dll, fn).restype = ctypes.c_int
                    info["threads"] = getattr(dll, fn)()
                    break
    except OSError:
        pass
    return info


def provenance(args, manifest):
    from importlib import metadata

    import numpy as np

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None  # a checkout without its own git metadata has none
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "bezoutiant")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": NPROC,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "sympy": version("sympy"),
        "blas": _blas(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": manifest["cycles"],
        "schedule": manifest["schedule"],
        "budget_s": BUDGET_S,
        "setup_repeats": SETUP_REPEATS,
        "probe_ref_s": PROBE_REF_S,
        "sample_cpu_s": SAMPLE_CPU_S,
        "client": "closed loop, 1 client, 1 process",
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_unit(name):
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("per_zero"):
        return "points/zero"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_into:
        return setup_into(args)

    if not os.path.isfile(os.path.join(SRC, "bezoutiant", "cli.py")):
        print(f"error: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        setup_times, pdir = measure_setup(args, workdir)
        sys.path.insert(0, SRC)
        import bezoutiant.cli as cli

        with open(os.path.join(pdir, "manifest.json")) as fh:
            manifest = json.load(fh)
        problems = manifest["problems"]
        signal.signal(signal.SIGALRM, _alarm)

        # Warm-up: first-call costs and the checkers' imports land here.
        run_pass(cli, problems[:1], pdir)
        records, scales, scale = run_pass(cli, problems, pdir)
        summary = stats.summarize(records, BUDGET_S, scales)
        raw = stats.summarize(records, BUDGET_S)
        all_records = list(records)

        layer = None
        if args.trace:
            import spans as tracing
            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
            try:
                traced, traced_scales, traced_scale = run_pass(cli, problems, pdir, tracer)
            finally:
                restore()
            all_records += traced
            layer = {}
            for k, v in tracing.layer_metrics(tracer.spans).items():
                unit = per_layer_unit(k)
                layer[k] = v * traced_scale if unit == "s" else (
                    v / traced_scale if unit == "1/s" else v)
            layer["trace.spans"] = len(tracer.spans)
            layer["trace.overhead_s"] = (
                stats.summarize(traced, BUDGET_S, traced_scales)["busy_s"] - summary["busy_s"])
            tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))

        summary["setup_s"] = scale * statistics.median(setup_times)
        raw["setup_s"] = statistics.median(setup_times)
        summary["setup_samples_s"] = setup_times
        summary["speed_scale"] = scale
        summary["problem_speed_scales"] = scales
        summary["raw"] = raw
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        prov = provenance(args, manifest)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if layer is None:
        metrics = {k: _metric(summary[k], u) for k, u in END_TO_END_UNITS.items()}
    else:
        metrics = {k: _metric(v, per_layer_unit(k)) for k, v in layer.items()}

    n = summary["n"]
    print(f"workload {args.workload}  seed {args.seed}  problems {n}: "
          f"{summary['solved']} solved, {summary['failed']} failed, {summary['wrong']} wrong")
    print(f"  speed scale {scale:.4f} over the pass, {min(scales):.4f}-{max(scales):.4f} "
          f"per problem (reference probe {PROBE_REF_S * 1e3:.3f} ms); "
          "unscaled wall values in brackets")
    rows = [
        ("solved_per_s", "1/s", f"n={n}"),
        ("problem_s_p50", "s", f"n={n}"),
        ("problem_s_tail", "s", f"p{summary['tail_percentile']:.0f}, n={n}"),
        ("failed_frac", "share", f"n={n}"),
        ("wrong_frac", "share", f"n={n}"),
        ("setup_s", "s", f"median of {SETUP_REPEATS}"),
    ]
    for name, unit, note in rows:
        print(f"  {name:<16} {summary[name]:>12.6g} {unit:<6} [{raw[name]:.6g}] {note}")
    print(f"  {'peak_rss_mb':<16} {summary['peak_rss_mb']:>12.6g} MB     benchmark process")
    for r in records:
        if r["class"] != checks.SOLVED:
            print(f"  problem {r['id']:>3} slot {r['slot']:>2} {r['label']:<17} "
                  f"{r['class']}: {r['reason']}")
    if layer is not None:
        print(f"  traced pass: {len(tracer.spans)} spans, overhead "
              f"{layer['trace.overhead_s']:.3f} s over {summary['busy_s']:.3f} s untraced "
              "(both at reference speed)")
    print("provenance " + json.dumps(prov, sort_keys=True))

    wrong = sum(r["class"] == checks.WRONG for r in all_records)
    failed = sum(r["class"] == checks.FAILED for r in all_records)
    result = {"correct": wrong == 0, "attempted": len(all_records), "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"provenance": prov, "summary": summary, "records": all_records,
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
