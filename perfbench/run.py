"""univcert benchmark: time to verdict, set-up time and peak memory per
workload, with an outside-in per-layer trace.

    python3 perfbench/run.py --workload all

prints every metric of every workload by name and unit. One workload at a time:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer ones. The exit status is 0 only when every oracle
check passed. See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("adjoint-ladder", "spectral-grid", "hs-pair", "registry-light")

# Single-threaded BLAS in every worker process: the single-threaded
# baseline, and never above nproc. At two threads ex31 gets slower while
# thm44 gets faster, so an unpinned count would mix the two effects.
BLAS_THREADS = 1
SETUP_PROBES = 7
DEADLINE_S = 170.0
PROBE = ("import sys, time\n"
         "sys.path.insert(0, sys.argv[1])\n"
         "t0 = time.process_time()\n"
         "import univcert.cli\n"
         "print(time.process_time() - t0)\n")


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args, timeout: float) -> str:
    """Run a Python child to completion; its stdout, or exit on failure."""
    proc = subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {args[0]} exited with {proc.returncode}")
    return proc.stdout


def setup_seconds(deadline: float) -> list[float]:
    """Import time of univcert.cli in fresh processes. One discarded probe
    first, which also compiles the bytecode a user's install would hold."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = run_child(["-c", PROBE, str(SRC)], deadline - time.monotonic())
        times.append(float(out.split()[-1]))
    return times[1:]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def tail(times: list[float]) -> tuple[str, float] | None:
    """Highest of p99/p90/p75 with at least ten passes beyond it."""
    for q in (99, 90, 75):
        if len(times) * (100 - q) / 100 >= 10:
            return f"p{q}", statistics.quantiles(times, n=100)[q - 1]
    return None


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    setup = [] if trace else setup_seconds(deadline)
    raw = run_child([str(HERE / "worker.py"), "--src", str(SRC), "--out", str(OUT),
                     "--workload", name, "--seed", str(seed), "--seconds",
                     str(seconds), "--trace", str(trace)],
                    deadline - time.monotonic())
    res = json.loads(raw.strip().splitlines()[-1])
    times = res["pass_times"]
    if trace:
        layers = res["layers"]
        metrics = {key: metric(val, _unit(key)) for key, val in sorted(layers.items())}
        metrics["cli.report_bytes"] = metric(res["report_bytes"], "bytes")
        metrics["trace.overhead_s"] = metric(
            statistics.median(res["traced_times"]) - statistics.median(times), "s")
    else:
        metrics = {"setup_s": metric(statistics.median(setup), "s"),
                   "pass_s": metric(statistics.median(times), "s"),
                   "peak_rss_mb": metric(res["peak_rss_mb"], "MB")}
    env = {"nproc": os.cpu_count(), "cpu": cpu_model(),
           "python": platform.python_version(), **res.pop("environment"),
           "blas_threads_pinned": BLAS_THREADS, "git_commit": git_commit(), "seed": seed}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "metrics": metrics, "setup_times": setup, **res}
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def _unit(key: str) -> str:
    if key.endswith("_s") or key.endswith(".s"):
        return "s"
    if key.endswith("bytes"):
        return "bytes"
    if key.endswith("flops"):
        return "flop"
    if key.endswith("calls"):
        return "count"
    if key.endswith("exponent"):
        return "slope"
    return "ratio"


def print_record(rec: dict):
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}")
    print("   environment " + json.dumps(rec["environment"], sort_keys=True))
    for key, m in rec["metrics"].items():
        print(f"   {key:44s} {m['value']:<22.6g} {m['unit']}")
    times = rec["pass_times"]
    if rec["trace"]:
        traced = rec["traced_times"]
        print(f"   {len(traced)} traced passes, median {statistics.median(traced):.6g} s "
              f"(every *_frac is a share of a traced pass); {len(times)} plain "
              f"passes, median {statistics.median(times):.6g} s")
    else:
        print(f"   pass_s is the median CPU time of {len(times)} passes (median wall "
              f"{statistics.median(rec['pass_wall_times']):.6g} s); setup_s the "
              f"median of {len(rec['setup_times'])} fresh imports")
        t = tail(times)
        if t is not None:
            print(f"   pass_s {t[0]:42s} {t[1]:<22.6g} s")
    frac = rec["failed"] / rec["attempted"]
    print(f"   {'failed_frac':44s} {frac:<22.6g} ratio "
          f"({rec['failed']} of {rec['attempted']} oracle checks)")
    for what in rec["failures"]:
        print(f"   FAILED: {what}")
    for label, counts in rec.get("parts", {}).items():
        print(f"   part {label}: svd {counts['linalg.svd.calls']} "
              f"(repeat_frac {counts['linalg.svd.repeat_frac']:.4g}), "
              f"kron {counts['linalg.kron.calls']}, "
              f"composition_matrix {counts['opbuild.composition_matrix.calls']}, "
              f"witness_family {counts['certify.witness_family.calls']}, "
              f"covering_value {counts['analytic.covering_value.calls']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if ns.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "univcert" / "__init__.py").is_file():
        print(f"perfbench: no univcert sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if ns.workload == "all" else (ns.workload,)
    records = [run_workload(name, ns.seed, ns.seconds, ns.trace) for name in names]
    for rec in records:
        print_record(rec)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{key}": m for r in records
                   for key, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
