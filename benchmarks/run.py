"""Closed-loop benchmark of the ellgenus library and CLI.

One client in one process sends one request at a time. A run repeats
passes over its workload's request mix; each pass is one user session and
starts with the library's memo caches cleared, so requests in a pass share
the caches and no pass inherits a warm cache. Every result is checked
against the reference outputs in reference.json and the closed-form
oracles in oracles.py.

    python3 benchmarks/run.py --workload gp_localization --seed 1 \\
        --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced passes,
then traced ones, and prints the per-layer metrics. The last line of
standard output is one JSON object. Each run also writes a replay record
(commit, interpreter, nproc, seeds, latencies) under benchmarks/results/.

    python3 benchmarks/run.py --self-test

checks that a corrupted result is counted as failed. The library is
imported from src/ next to this directory and nowhere else; without it
the run exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"

# A run makes at least this many passes, then more while the next pass is
# expected to end within --seconds.
MIN_PASSES = 2
# set-up is measured this many times per run, in fresh interpreters
SETUP_PROBES = 5


def _die(message):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    """Import ellgenus from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ellgenus
    except ImportError as err:
        _die(f"cannot import ellgenus from {src}: {err}")
    if Path(ellgenus.__file__).resolve().parent != src / "ellgenus":
        _die(f"ellgenus was imported from {ellgenus.__file__}, not {src}")


_import_library()
import oracles  # noqa: E402  (these import ellgenus)
import tracing  # noqa: E402
import workloads  # noqa: E402


def load_reference(workload=None):
    try:
        reference = json.loads(REFERENCE.read_text())["outputs"]
    except (OSError, ValueError, KeyError) as err:
        _die(f"cannot read {REFERENCE.name}: {err}")
    requests = workloads.WORKLOADS.get(workload, ())
    missing = [r.id for r in requests if r.id not in reference]
    if missing:
        _die(f"no reference output for {missing}")
    return reference


def _percentile(values, p):
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(requests_per_pass):
    """Highest whole percentile with at least ten latencies beyond it in
    MIN_PASSES passes; fixed per workload so runs stay comparable."""
    n = requests_per_pass * MIN_PASSES
    return max(p for p in range(50, 100) if n * (100 - p) >= 1000)


# --------------------------------------------------------------------------
# one request, one pass


def run_one(request, seed, reference, tracer=None, corrupt=None):
    """Time one request, then check it outside the timed interval.

    Returns (latency s, CPU s, canonical result or None, problems)."""
    if tracer is not None:
        tracer.request = request.id
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        result = workloads.execute(request, seed)
        error = None
    except Exception as err:  # a failed request is counted, not fatal
        result, error = None, err
    latency, cpu = time.perf_counter() - t0, time.process_time() - c0
    if tracer is not None:
        tracer.request = None
    if error is not None:
        return latency, cpu, None, [f"raised {type(error).__name__}: {error}"]
    if corrupt is not None:
        result = corrupt(result)
    canon = workloads.canonical(request, result)
    return latency, cpu, canon, oracles.problems(request, result, canon,
                                                 reference[request.id])


def run_pass(schedule, reference, tracer=None):
    tracing.clear_caches()
    gc.collect()
    if tracer is not None:
        tracer.reset()
    rows = []
    for request, seed in schedule:
        latency, cpu, canon, problems = run_one(request, seed, reference, tracer)
        rows.append({"id": request.id, "latency_s": latency, "cpu_s": cpu,
                     "problems": problems, "canonical": canon})
    busy = sum(r["latency_s"] for r in rows)
    return {"busy_s": busy, "cpu_s": sum(r["cpu_s"] for r in rows), "rows": rows,
            "layers": None if tracer is None else tracer.layer_metrics(busy)}


def run_passes(schedule, reference, budget_s, min_passes, tracer=None):
    passes, start = [], time.monotonic()
    while len(passes) < min_passes or (
            time.monotonic() - start
            + statistics.median(p["busy_s"] for p in passes) <= budget_s):
        passes.append(run_pass(schedule, reference, tracer))
    return passes


# --------------------------------------------------------------------------
# set-up probe: interpreter start to the first request being ready


def _probe(workload, seed):
    """Body of one set-up probe, run once the imports are done: build the
    inputs and load the references."""
    workloads.schedule(workload, seed)
    load_reference(workload)
    print(time.monotonic())


def measure_setup(workload, seed):
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times), times


# --------------------------------------------------------------------------
# replay record


def commit():
    """HEAD of the checkout when it is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def results_digest(passes):
    """Digest of every request's canonical result (first pass, by id);
    exact results make it the same for every workload seed."""
    rows = sorted(passes[0]["rows"], key=lambda r: r["id"])
    blob = json.dumps([[r["id"], r["canonical"]] for r in rows], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def write_record(args, schedule, passes, metrics, extra):
    RESULTS.mkdir(exist_ok=True)
    record = {
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": [{"id": r.id, "seed": s} for r, s in schedule],
        "passes": [{"busy_s": p["busy_s"], "cpu_s": p["cpu_s"],
                    "latency_s": [r["latency_s"] for r in p["rows"]],
                    "failures": {r["id"]: r["problems"] for r in p["rows"]
                                 if r["problems"]}} for p in passes],
        "metrics": metrics,
        **extra,
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


# --------------------------------------------------------------------------
# the two kinds of run


def end_to_end(passes, setup_s, requests_per_pass):
    rows = [r for p in passes for r in p["rows"]]
    latencies = [r["latency_s"] for r in rows]
    correct = sum(not r["problems"] for r in rows)
    pct = tail_percentile(requests_per_pass)
    metrics = {
        "setup_s": (setup_s, "s"),
        "results_per_s": (correct / sum(p["busy_s"] for p in passes), "1/s"),
        "req_p50_s": (statistics.median(latencies), "s"),
        "req_tail_s": (_percentile(latencies, pct), "s"),
        "cpu_s": (sum(p["cpu_s"] for p in passes) / len(passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "correct_frac": (correct / len(rows), "ratio"),
    }
    beyond = sum(x > metrics["req_tail_s"][0] for x in latencies)
    info = {"tail_percentile": pct, "tail_samples_beyond": beyond,
            "latency_samples": len(latencies),
            "failed_frac": (len(rows) - correct) / len(rows)}
    return metrics, info


def per_layer(untraced, traced):
    """Medians over the traced passes; no span touches the untraced ones,
    whose median time gives the tracing overhead."""
    metrics = {}
    for name, unit, _ in tracing.METRICS[:-1]:
        metrics[name] = (statistics.median(p["layers"][name] for p in traced), unit)
    overhead = (statistics.median(p["busy_s"] for p in traced)
                - statistics.median(p["busy_s"] for p in untraced))
    metrics["trace_overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true",
                        help="show that one corrupted result counts as failed")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        _probe(args.workload, args.seed)
        return 0

    reference = load_reference(args.workload)
    setup_s, setup_samples = measure_setup(args.workload, args.seed)
    schedule = workloads.schedule(args.workload, args.seed)

    if args.trace == 0:
        passes = run_passes(schedule, reference, args.seconds, MIN_PASSES)
        metrics, info = end_to_end(passes, setup_s, len(schedule))
        extra = {"setup_samples_s": setup_samples, **info}
    else:
        untraced = run_passes(schedule, reference, args.seconds / 2, 1)
        tracer = tracing.Tracer()
        uninstall = tracer.install()
        try:
            traced = run_passes(schedule, reference, args.seconds / 2, 1, tracer)
        finally:
            uninstall()
        passes = untraced + traced
        metrics = per_layer(untraced, traced)
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"{args.workload}-seed{args.seed}.spans.csv"
        tracer.write_spans(spans, tracer.spans[0][1] if tracer.spans else 0.0)
        extra = {"spans_csv": spans.name, "traced_passes": len(traced),
                 "spans_in_last_pass": len(tracer.spans)}

    attempted = sum(len(p["rows"]) for p in passes)
    failed = sum(bool(r["problems"]) for p in passes for r in p["rows"])
    digest = results_digest(passes)
    record = write_record(args, schedule, passes,
                          {k: v for k, (v, _) in metrics.items()},
                          {"results_digest": digest, **extra})

    for p in passes:
        for r in p["rows"]:
            if r["problems"]:
                print(f"FAILED {r['id']}: {'; '.join(r['problems'])}")
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"requests/pass {len(schedule)}  results digest {digest[:16]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    if args.trace == 0:
        print(f"  {'failed_frac':32s} {extra['failed_frac']:14.6g} ratio")
        print(f"  req_tail_s is p{extra['tail_percentile']} of "
              f"{extra['latency_samples']} latencies, "
              f"{extra['tail_samples_beyond']} beyond it")
    print(f"  replay record: {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


# --------------------------------------------------------------------------


SELF_TEST_IDS = ("cli chi-y --space A3[2]", "cli info --space G2[1,2]",
                 "fit K3 k=4", "chernnum d=4 k=6", "cosets F4[1]",
                 "weights C4[4] [1, 0, 1, 0]")


def self_test():
    """Run a few cheap requests, feeding a corrupted chi_y for one of them,
    and show that exactly that one is counted as failed."""
    reference = load_reference()
    by_id = {r.id: r for reqs in workloads.WORKLOADS.values() for r in reqs}

    def corrupt(stdout):
        return stdout.replace("2*y^2", "3*y^2", 1)

    failed = []
    for i, rid in enumerate(SELF_TEST_IDS):
        _, _, _, problems = run_one(by_id[rid], i, reference,
                                    corrupt=corrupt if i == 0 else None)
        print(f"{'FAILED' if problems else 'ok    '} {rid} {problems}")
        if problems:
            failed.append(rid)
    ok = failed == [SELF_TEST_IDS[0]]
    print(f"self-test {'passed' if ok else 'FAILED'}: {len(failed)} of "
          f"{len(SELF_TEST_IDS)} counted as failed, expected exactly 1")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
