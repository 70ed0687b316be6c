"""pssurf benchmark: three workloads, end-to-end and per-layer metrics.

One workload, one run, one process:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the run times the workload's operation untraced and
reports the end-to-end metrics of BENCHMARK.json.  With --trace 1 it
runs pairs of an untraced and a traced op on one input, checks that
their outputs are identical, and reports the per-layer metrics.  Either
way every op's output is checked; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Lines before it give the
run's context, any input draws the workload replaced, the check verdict
and every metric with its unit, median, quartiles and sample count.

Every metric of every workload, with each workload's check verdict:

    python3 bench/run.py --workload all [--seed N --seconds S]

Ops start back to back while the median op so far still fits in what is
left of --seconds, so a run has at least one op (or one untraced/traced
pair) and seldom overruns.  Garbage is collected before each op, outside
its timing, so one op's garbage does not raise the next one's peak
memory.  Set-up is timed as the
median over fresh interpreters, each importing pssurf.cli and building
the workload's first input.  Temporary files go under .bench_tmp/.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7  # timed fresh interpreters per run, after one warm-up
WORKLOADS = ("immerse-kink", "classify-catalog", "march-stored")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def setup_samples(name, seed):
    """Set-up probes in fresh interpreters; the first only warms caches."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(done.stdout.splitlines()[-1])
        probe["setup_s"] = probe.pop("ready") - start
        if k:
            samples.append(probe)
    return {key: [p[key] for p in samples] for key in samples[0]}


class Attempt:
    """One op: its time, checked summary, and for a traced op its root span.
    An untimed op is checked and counted but its time is not reported."""

    def __init__(self, wl, inp, workdir, tracer=None, timed=True):
        self.timed = timed
        self.root = None
        self.summary = None
        self.seconds = None
        gc.collect()
        start = time.perf_counter()
        try:
            if tracer is None:
                raw = wl.op(inp, workdir)
            else:
                self.root = len(tracer.spans)
                with tracer.patched(wl.targets()), tracer.span("op"):
                    raw = wl.op(inp, workdir, tracer)
            self.seconds = time.perf_counter() - start
            self.summary = wl.summarize(inp, raw)
            self.units, self.failures = wl.check(self.summary)
        except Exception as exc:
            # an op that raises counts as failed and the run goes on
            from workloads import describe
            if self.seconds is None:
                self.seconds = time.perf_counter() - start
            self.units = wl.units(inp)
            self.failures = [f"raised {describe(exc)}"] * self.units


def run_ops(wl, seed, seconds, traced, workdir):
    """Untraced ops, or pairs of an untraced and a traced op on one input,
    started while the median of the ops so far fits in what is left of
    ``seconds``.  Pairs alternate which op runs first and follow one
    untimed op, so that both sides of a pair run warm.  Returns the
    attempts and the tracer, if any."""
    tracer = Tracer() if traced else None
    attempts = []
    start = time.perf_counter()
    if traced:
        attempts.append(Attempt(wl, wl.inputs(seed, 0), workdir, timed=False))
    k = 0
    while True:
        inp = wl.inputs(seed, k)
        if not traced:
            attempts.append(Attempt(wl, inp, workdir))
        else:
            pair = [None, None]
            for which in ((0, 1) if k % 2 == 0 else (1, 0)):
                pair[which] = Attempt(wl, inp, workdir, tracer if which else None)
            plain, probe = pair
            if plain.summary is not None and probe.summary != plain.summary:
                probe.failures = ["traced output differs from untraced"] * probe.units
            attempts.extend(pair)
        k += 1
        timed = [a.seconds for a in attempts if a.timed]
        # a pair takes two ops
        step = statistics.median(timed) * (2 if traced else 1)
        if time.perf_counter() - start + step > seconds:
            return attempts, tracer


def layer_metrics(wl, attempts, tracer):
    """Each per-layer metric's values over the traced ops, by name."""
    per_op = [wl.layer_metrics(tracer, a.root, a.summary)
              for a in attempts if a.root is not None and a.summary is not None]
    names = sorted({n for m in per_op for n in m})
    return {n: [m.get(n, 0.0) for m in per_op] for n in names}


def context(seed):
    import numpy
    import scipy

    commit = "unknown (no .git)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or "unknown"
    lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads(),
            "seed": seed, "src_lines": lines}


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ["OPENBLAS_NUM_THREADS"] + " (requested)"


def run_one(args, spec):
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    setup = setup_samples(wl.name, args.seed)
    workdir = ROOT / ".bench_tmp" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        attempts, tracer = run_ops(wl, args.seed, args.seconds, args.trace,
                                   str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [a.seconds for a in attempts if a.timed and a.root is None]
    if args.trace:
        values = layer_metrics(wl, attempts, tracer)
        values["setup.import_s"] = setup["import_s"]
        values["setup.inputs_s"] = setup["inputs_s"]
        traced = [a.seconds for a in attempts if a.root is not None]
        values["trace.overhead_s"] = [statistics.median(traced)
                                      - statistics.median(plain)]
        wanted = spec["per_layer"]
    else:
        values = {"op_s": plain, "setup_s": setup["setup_s"],
                  "peak_rss_mb": [resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0]}
        wanted = spec["end_to_end"]

    attempted = sum(a.units for a in attempts)
    failures = [f for a in attempts for f in a.failures]
    print(f"workload: {wl.name}  seed: {args.seed}  trace: {args.trace}  "
          f"ops: {len(attempts)}")
    print("context: " + json.dumps(context(args.seed)))
    for line in getattr(wl, "notes", list)():
        print(line)
    for line in sorted(set(failures))[:20]:
        print("FAILED: " + line)
    print(f"check: {'PASS' if not failures else 'FAIL'} (attempted "
          f"{attempted}, failed {len(failures)}, fail_share "
          f"{len(failures) / attempted:.4g})")
    metrics = {}
    for m in wanted:
        # a layer this workload does not exercise reads 0
        q1, med, q3 = quartiles(values.get(m["name"], [0.0]))
        n = len(values.get(m["name"], []))
        print(f"{m['name']}: {med:.6g} {m['unit']} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={n})")
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args):
    """Both runs of every workload, each in its own process."""
    verdicts = []
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            lines = done.stdout.splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n\n")
            result = json.loads(lines[-1]) if done.returncode == 0 else {}
            verdicts.append((name, trace, result))
            if done.returncode:
                sys.stdout.write(done.stderr)
    for name, trace, r in verdicts:
        ok = "PASS" if r.get("correct") else "FAIL"
        print(f"{name} trace={trace}: {ok} (attempted {r.get('attempted')}, "
              f"failed {r.get('failed')})")
    return 0 if all(r.get("correct") for _, _, r in verdicts) else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # one BLAS/OpenMP thread, set before numpy loads; children inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "pssurf" / "__init__.py").is_file():
        sys.exit(f"bench: no pssurf sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
