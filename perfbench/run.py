"""Benchmark of the ``pivotal`` library: three workloads, timed end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload poisson-replicates --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` next to this directory.  The run

1. measures set-up time: the median, over several fresh processes, of the
   time to import ``pivotal`` and build the workload's inputs from the seed;
2. repeats rounds of the workload, each round calling every operation once,
   until ``--seconds`` have passed (at least one round; with ``--trace 1`` at
   least one untraced and one traced round, alternating);
3. checks every operation's output against an independent reference;
4. writes a full report to ``perfbench/out/`` and prints, as the last line
   of standard output, one JSON object with ``correct``, ``attempted``,
   ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are ``setup_s``, ``wall_s`` (the mean wall
time of a round) and ``peak_rss_mb``; with ``--trace 1`` they are the per-layer metrics of
``tracing.PER_LAYER`` (medians over the traced rounds) plus
``trace.overhead_s``, traced minus untraced ``wall_s``.
``--smoke`` shrinks every workload to a tiny size, for testing the benchmark
itself.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("poisson-replicates", "stable-lepage", "exact-identities")
DEFAULT_SEED = 20260810
SETUP_PROBES = 5

# The workloads are single-threaded Python; one BLAS/OpenMP thread (at most
# nproc) keeps numpy from competing with itself for the cores.  Set before
# numpy is imported, and inherited by the set-up probes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"


class BenchmarkError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny workload sizes (tests the benchmark)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def library_package() -> Path:
    package = SRC / "pivotal"
    if not (package / "__init__.py").is_file():
        raise BenchmarkError(f"no pivotal package at {package}")
    return package


def import_workloads():
    """Import ``pivotal`` from this checkout's ``src/`` (never an installed copy)."""
    package = library_package()
    sys.path.insert(0, str(SRC))
    import pivotal

    if Path(pivotal.__file__).resolve().parent != package.resolve():
        raise BenchmarkError(f"imported pivotal from {pivotal.__file__}, not {package}")
    import workloads

    return workloads


# -- set-up time ------------------------------------------------------------------


def setup_probe(args) -> None:
    """In a fresh process: import the library, build the inputs, print the time taken."""
    workloads = import_workloads()
    workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    print(repr(time.perf_counter() - _START))


def measure_setup(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


# -- rounds -----------------------------------------------------------------------


class Raised:
    """Output of an operation that raised."""

    def __init__(self, exc: Exception):
        self.error = f"{type(exc).__name__}: {exc}"


def run_round(ops, tracer=None):
    """Call every operation once; return its outputs and per-operation wall times."""
    outputs, times = [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            outputs.append(op.call() if tracer is None else tracer.run_op(op.name, op.call))
        except Exception as exc:  # a failing operation is counted, not fatal
            outputs.append(Raised(exc))
        times.append(time.perf_counter() - t0)
    return outputs, times


def round_time(op_times) -> float:
    """Mean wall time of a round.  Where the machine's speed switches between
    modes for tens of seconds at a time, the mean over the run varies less from
    run to run than a median, which snaps to whichever mode held longest."""
    return statistics.fmean(sum(times) for times in op_times)


def digest(outputs) -> str:
    return hashlib.blake2b(pickle.dumps(outputs, protocol=4), digest_size=16).hexdigest()


def failed_ops(ops, outputs, refs) -> list[tuple[str, bool, str]]:
    """(name, known fault, detail) of each operation whose output fails its check."""
    bad = []
    for op, out, ref in zip(ops, outputs, refs):
        if isinstance(out, Raised):
            bad.append((op.name, op.known_fault, out.error))
            continue
        try:
            ok, detail = op.check(out, ref), repr(out)[:300]
        except Exception as exc:  # a malformed output fails its check
            ok, detail = False, Raised(exc).error
        if not ok:
            bad.append((op.name, op.known_fault, detail))
    return bad


# -- report -----------------------------------------------------------------------


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0

    library_package()
    setup_samples = measure_setup(args)
    workloads = import_workloads()
    ops = workloads.WORKLOADS[args.workload](args.seed, args.smoke).ops
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    op_times = {False: [], True: []}
    layer_rounds = []
    first_outputs = None
    first_digest = None
    odd_rounds = []  # outputs of rounds that differ from the first
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
            try:
                outputs, times = run_round(ops, tracer)
            finally:
                tracer.uninstall()
            layer_rounds.append(tracer.per_layer())
        else:
            outputs, times = run_round(ops)
        op_times[traced].append(times)
        rounds += 1
        if first_outputs is None:
            first_outputs, first_digest = outputs, digest(outputs)
        elif digest(outputs) != first_digest:
            odd_rounds.append(outputs)
        del outputs
        if time.perf_counter() >= deadline and (tracer is None or rounds >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    refs = [op.ref() for op in ops]
    first_bad = failed_ops(ops, first_outputs, refs)
    bad_rounds = [first_bad] * (rounds - len(odd_rounds)) + [failed_ops(ops, o, refs) for o in odd_rounds]
    failed = sum(len(b) for b in bad_rounds)
    unexpected = sorted({name for b in bad_rounds for name, known, _ in b if not known})
    correct = not unexpected

    if tracer is None:
        metrics = {
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "wall_s": metric(round_time(op_times[False]), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        metrics = {name: metric(statistics.median(r[name] for r in layer_rounds), unit)
                   for name, (unit, _, _) in tracing.PER_LAYER.items()}
        metrics["trace.overhead_s"] = metric(
            round_time(op_times[True]) - round_time(op_times[False]), "s")

    result = {"correct": correct, "attempted": rounds * len(ops), "failed": failed, "metrics": metrics}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "environment": environment(), "operations_per_round": len(ops),
        "rounds": rounds, "round_wall_s": [sum(t) for t in op_times[False]],
        "traced_round_wall_s": [sum(t) for t in op_times[True]],
        "op_mean_s": dict(zip((op.name for op in ops), map(statistics.fmean, zip(*op_times[False])))),
        "setup_s_samples": setup_samples, "nondeterministic_rounds": len(odd_rounds),
        "failed_first_round": [{"op": n, "known_fault": k, "detail": d} for n, k, d in first_bad],
        "unexpected_failures": unexpected, "result": result,
    }
    if tracer is not None:
        report["per_layer_rounds"] = layer_rounds
        report["spans"] = {"fields": ["id", "parent", "name", "start", "end"], "rows": tracer.spans}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"report: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
