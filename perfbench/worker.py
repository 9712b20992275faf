"""One workload in one fresh process: timed passes, oracle checks, and
optionally a traced phase. Started by run.py; prints one JSON line.

usage: worker.py --src DIR --out DIR --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def blas_info() -> dict:
    """BLAS library and the thread count it reports, read from the library
    numpy loaded (OpenBLAS builds only; None where no query is exported)."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads, "numpy": np.__version__}


def no_scope(part):
    return contextlib.nullcontext()


def run_pass(parts, out: Path, scope=no_scope):
    """Run each part's call inside ``scope(part)``; return the calls' CPU
    seconds, their wall seconds and the outputs per part."""
    cpu = wall = 0.0
    outputs = []
    for part in parts:
        with scope(part):
            c0, w0 = time.process_time(), time.perf_counter()
            raw = part.call(out)
            cpu += time.process_time() - c0
            wall += time.perf_counter() - w0
        outputs.append(part.read(raw))
    return cpu, wall, outputs


def check_pass(gate, parts, outputs, first):
    for part, files, ref in zip(parts, outputs, first):
        try:
            part.check(gate, files)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            gate.check(f"{part.label} output readable ({exc!r})", False)
        gate.check(f"{part.label} output files as in the first pass",
                   sorted(files) == sorted(ref))
        for name in sorted(files):
            gate.check(f"{part.label}/{name} bytes equal the first pass",
                       files[name] == ref.get(name))


def timed_passes(parts, out, seconds, gate, first, scope=no_scope):
    """Checked passes for ``seconds`` of wall time, a pass starting only if
    the median so far says it ends in time; at least one. Returns the CPU
    and the wall seconds of every pass."""
    cpu, wall = [], []
    start = time.perf_counter()
    while not wall or time.perf_counter() - start + statistics.median(wall) <= seconds:
        c, w, outputs = run_pass(parts, out, scope)
        cpu.append(c)
        wall.append(w)
        check_pass(gate, parts, outputs, first)
    return cpu, wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ns = ap.parse_args(argv)

    src = Path(ns.src).resolve()
    sys.path.insert(0, str(src))
    import univcert
    if src not in Path(univcert.__file__).resolve().parents:
        raise SystemExit(f"univcert imported from {univcert.__file__}, not from {src}")

    import oracles
    from workloads import WORKLOADS

    parts = WORKLOADS[ns.workload](ns.seed)
    out = Path(ns.out) / "reports" / ns.workload
    gate = oracles.Gate()

    # The first pass is the byte reference for every later pass.
    start = time.perf_counter()
    cpu, wall, first = run_pass(parts, out)
    check_pass(gate, parts, first, first)
    plain_seconds = ns.seconds / 2 if ns.trace else ns.seconds
    more_cpu, more_wall = timed_passes(
        parts, out, plain_seconds - (time.perf_counter() - start), gate, first)
    result = {"pass_times": [cpu] + more_cpu, "pass_wall_times": [wall] + more_wall,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "report_bytes": sum(len(b) for files in first for b in files.values())}

    if ns.trace:
        from univcert import analytic, certify, cli, numlin, opbuild, spaces
        import tracer as tr

        t = tr.Tracer()
        tr.install_univcert(t, (spaces, numlin, opbuild, analytic, certify, cli))
        runs = []   # run id -> (traced pass index, part label)

        @contextlib.contextmanager
        def traced(part):
            t.run_id = len(runs)
            runs.append((sum(1 for _, label in runs if label == part.label), part.label))
            t.active = True
            try:
                yield
            finally:
                t.active = False

        traced_times, _ = timed_passes(parts, out, ns.seconds - plain_seconds, gate,
                                       first, scope=traced)
        per_pass = [tr.run_metrics(t, [i for i, (p, _) in enumerate(runs) if p == k])
                    for k in range(len(traced_times))]
        result["traced_times"] = traced_times
        result["layers"] = {key: statistics.median_low(m[key] for m in per_pass)
                            for key in per_pass[0]}
        result["parts"] = {label: tr.run_metrics(t, [i]) for i, (p, label)
                           in enumerate(runs) if p == 0}
        spans_path = Path(ns.out) / f"spans-{ns.workload}-seed{ns.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in t.spans:
                fh.write(json.dumps(span) + "\n")
        result["spans_file"] = str(spans_path)

    result.update(environment=blas_info(), attempted=gate.attempted,
                  failed=gate.failed, failures=gate.failures[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
