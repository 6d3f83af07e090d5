"""Benchmark of the foambounds CLI: end-to-end metrics and a traced per-layer run.

Each operation is one in-process call to ``foambounds.cli.main(argv)`` on
input files generated from the seed during set-up.  The loop is closed:
one client in one process, each call starting after the previous one
returns.  A run executes whole rounds (one instance of every stratum of
the workload, see workloads.py) until about ``--seconds`` have passed.

    python3 bench/run.py --workload exact-subsets --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
operation twice, untraced and traced in alternating order, and prints the
per-layer metrics and the tracing overhead (traced over untraced time).
Spans are written to ``.bench_work/traces/``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Seed 1 is the reference seed: its results are compared with
``reference.json`` (``--write-reference`` records it).  Seed 2 is the
holdout seed for confirming a claim on inputs it was not tuned on.
Run from the repository root of a source checkout; the package is
imported from ``src/``.
"""

from __future__ import annotations

import os

# Small dense problems: extra BLAS threads add overhead and noise, not speed.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORKLOADS = ("exact-subsets", "large-polytope", "mesh-probe")

SETUP_SAMPLES = 3  # set-ups per run (this process plus fresh ones); median reported
TRACE_COUNT_ROUNDS = 2  # calls and counts come from this fixed prefix of rounds


def execute(cli, workloads, op, reference) -> tuple[float, str | None]:
    """Run one op; return its latency and an error message, or None if correct."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an op that crashes is counted, not fatal
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if code != 0:
        return latency, f"exit code {code}: {err.getvalue().strip()}"
    try:
        workloads.check(op, json.loads(out.getvalue()), reference)
    except (ValueError, KeyError, TypeError, workloads.WrongResult) as exc:
        return latency, f"{type(exc).__name__}: {exc}"
    return latency, None


def set_up(workload: str, seed: int, workdir: Path):
    """Import, generate and write the inputs, run one warm-up op; time all of it.

    The warm-up op is round 0's instance of the first stratum, so every
    seed warms up on the same kind of op.
    """
    start = time.perf_counter()
    import foambounds.cli as cli

    import workloads

    rounds = workloads.build_rounds(workload, seed, workdir)
    reference = load_reference(workload, seed)
    warm_op = min(rounds[0], key=lambda op: op.stratum)
    warm = (warm_op, *execute(cli, workloads, warm_op, reference))
    return time.perf_counter() - start, cli, workloads, rounds, reference, warm


def load_reference(workload: str, seed: int):
    import workloads

    if seed != workloads.DEFAULT_SEED or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload)


def run_rounds(rounds, seconds: float, run_op, min_rounds: int = 1) -> tuple[float, int]:
    """Run whole rounds, stopping at the round boundary nearest to `seconds`."""
    start = time.perf_counter()
    done = 0
    while True:
        for op in rounds[done % len(rounds)]:
            run_op(op, done)
        done += 1
        elapsed = time.perf_counter() - start
        if done >= min_rounds and elapsed * (1.0 + 0.5 / done) >= seconds:
            return elapsed, done


def setup_median(args, own: float) -> float:
    """Median set-up time over this process and fresh interpreters."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(args) -> dict:
    import numpy
    import scipy

    import workloads

    digest = hashlib.sha256()
    for path in sorted((SRC / "foambounds").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    role = {workloads.DEFAULT_SEED: "reference", workloads.HOLDOUT_SEED: "holdout"}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_role": role.get(args.seed, "other"),
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


class Tally:
    """Attempted ops, failures and latencies of a run."""

    def __init__(self):
        self.attempted = 0
        self.timed_failed = 0
        self.latencies: list[float] = []
        self.errors: list[str] = []

    def add(self, op, latency: float, error: str | None, timed: bool = True) -> None:
        self.attempted += 1
        if timed:
            self.latencies.append(latency)
            self.timed_failed += error is not None
        if error is not None:
            self.errors.append(f"{op.key} ({' '.join(op.argv[:1])}): {error}")
            if len(self.errors) <= 5:
                print(f"op failed: {self.errors[-1]}", file=sys.stderr)


def end_to_end(args, setup_s, cli, workloads, rounds, reference, tally) -> dict:
    def run_op(op, _round):
        tally.add(op, *execute(cli, workloads, op, reference))

    elapsed, done = run_rounds(rounds, args.seconds, run_op)
    ms = [1000.0 * t for t in tally.latencies]
    n = len(ms)
    q = statistics.quantiles(ms, n=10, method="inclusive")
    correct_ops = n - tally.timed_failed
    print(f"{args.workload} seed {args.seed}: {n} ops in {elapsed:.2f} s, "
          f"{done} rounds of {len(rounds[0])}")
    print(f"  error_rate {len(tally.errors) / tally.attempted:.4g} "
          f"({len(tally.errors)} of {tally.attempted} ops, warm-up included)")
    print(f"  latency samples {n}, {sum(t > q[8] for t in ms)} above p90")
    return {
        "throughput_ops_s": {"value": correct_ops / elapsed, "unit": "1/s"},
        "latency_p50_ms": {"value": q[4], "unit": "ms"},
        "latency_p90_ms": {"value": q[8], "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
        "setup_s": {"value": setup_median(args, setup_s), "unit": "s"},
    }


def per_layer(args, cli, workloads, rounds, reference, tally) -> dict:
    import tracing

    tracer = tracing.Tracer()
    op_keys: list[str] = []
    count_ops: set = set()
    time_plain = time_traced = 0.0

    def run_op(op, round_no):
        nonlocal time_plain, time_traced
        op_id = len(op_keys)
        op_keys.append(op.key)
        if round_no < TRACE_COUNT_ROUNDS:
            count_ops.add(op_id)
        tracer.start_op(op_id)
        for traced in ((False, True) if op_id % 2 == 0 else (True, False)):
            with tracer if traced else contextlib.nullcontext():
                latency, error = execute(cli, workloads, op, reference)
            tally.add(op, latency, error)
            if traced:
                time_traced += latency
            else:
                time_plain += latency

    elapsed, done = run_rounds(rounds, args.seconds, run_op, TRACE_COUNT_ROUNDS)
    metrics = tracing.per_layer_metrics(tracer, count_ops, set(range(len(op_keys))))
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (time_traced - time_plain) / time_plain,
        "unit": "%",
    }
    signatures = tracer.op_signatures()
    by_key: dict = {}
    for op_id, sig in signatures.items():
        by_key.setdefault(op_keys[op_id], []).append(sig)
    repeats = all(all(s == sigs[0] for s in sigs) for sigs in by_key.values())
    print(f"{args.workload} seed {args.seed}: {len(op_keys)} ops traced in "
          f"{elapsed:.2f} s, {done} rounds; counts over the first "
          f"{TRACE_COUNT_ROUNDS} rounds ({len(count_ops)} ops)")
    print(f"  counts repeat on repeated ops: {repeats}")
    if reference is not None:
        differ = [k for k, sigs in by_key.items() if sigs[0] != reference[k]["counts"]]
        print(f"  counts match reference.json: {not differ} "
              f"({len(by_key) - len(differ)} of {len(by_key)} ops)")
    out = WORK / "traces"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}.json"
    tracer.write(path, {"provenance": provenance(args), "op_keys": op_keys})
    print(f"  {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return metrics


def write_reference(args, cli, workloads, rounds) -> None:
    """Record every op's headline value and counts for the reference seed."""
    import tracing

    tracer = tracing.Tracer()
    ops = [op for r in rounds for op in r]
    values = []
    for op_id, op in enumerate(ops):
        tracer.start_op(op_id)
        out = io.StringIO()
        with tracer, contextlib.redirect_stdout(out):
            code = cli.main(op.argv)
        if code != 0:
            raise RuntimeError(f"{op.key} exited with {code}")
        values.append(workloads.check(op, json.loads(out.getvalue()), None))
    counts = tracer.op_signatures()
    entries = {op.key: {"value": v, "counts": counts[i]}
               for i, (op, v) in enumerate(zip(ops, values))}
    data = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    data[args.workload] = entries
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(entries)} {args.workload} ops in {REFERENCE}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used for the set-up median)")
    p.add_argument("--write-reference", action="store_true",
                   help="record reference values for the reference seed")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "foambounds" / "cli.py").is_file():
        print(f"no foambounds sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_s, cli, workloads, rounds, reference, warm = set_up(
            args.workload, args.seed, workdir)
        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            print(f"foambounds imported from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.write_reference:
            if args.seed != workloads.DEFAULT_SEED:
                print(f"references are kept for seed {workloads.DEFAULT_SEED} only",
                      file=sys.stderr)
                return 2
            write_reference(args, cli, workloads, rounds)
            return 0
        print("provenance " + json.dumps(provenance(args), sort_keys=True))
        tally = Tally()
        tally.add(*warm, timed=False)
        if args.trace:
            metrics = per_layer(args, cli, workloads, rounds, reference, tally)
        else:
            metrics = end_to_end(args, setup_s, cli, workloads, rounds, reference, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
