"""Closed-loop benchmark of the parityqec command line.

Run from the root of a parityqec checkout:

    python3 perfbench/run.py --workload fig2-sampled --seed 0 --seconds 30 --trace 0

One client sends requests back to back: each request is one call of
``parityqec.cli.main(argv)`` in this process, writing into a fresh output
directory. Requests are generated from --seed; every output is checked.

--trace 0 measures the end-to-end metrics: set-up time (the median of five
fresh-process imports of ``parityqec.cli`` plus ``load_default_noise()``,
taken between requests across the run), mean request latency, and peak
resident memory. Both timings are given at reference speed (see Speedometer):
each is scaled by how long a fixed reference kernel took around and during
it, which takes out the shared machine's swings in speed. The raw figures are
printed too: requests per second, the median and tail latency, the raw
set-up time and the failed share.
--trace 1 runs each request twice, untraced and traced, alternating which goes
first, and reports the per-layer metrics of the traced copies plus the
tracing overhead. The first request of each run is also run once before the
loop; its output tree must be byte-identical to the loop's, and in a traced
run its work counters must repeat exactly.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 5
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import parityqec.cli\n"
    "parityqec.cli.load_default_noise()\n"
    "print(repr(time.perf_counter() - t))\n"
)
TAIL_BEYOND = 10
# The reference kernel: REFERENCE_ROUNDS rounds of small complex matrix work,
# the kind of numpy and interpreter work the package does, about 1.6 ms. It is
# sampled REFERENCE_GAP times between requests and every REFERENCE_PERIOD_S
# seconds during one. Normalised timings read as seconds on a machine where
# the kernel takes NOMINAL_REFERENCE_S, about its time in the fast state of
# the 2-core x86_64 host of the baseline in README.md.
REFERENCE_ROUNDS = 100
REFERENCE_GAP = 3
REFERENCE_PERIOD_S = 0.1
NOMINAL_REFERENCE_S = 0.0016


@dataclass
class Outcome:
    seconds: float
    problems: list[str]
    reference: list[float] | None = None


class Speedometer:
    """Reads the machine's momentary speed from a fixed reference kernel.

    On a shared host the same request can take up to twice as long in one
    minute as in the next, and the process's CPU time slows with it. The
    kernel slows with it too, so a timing divided by the kernel's duration
    around and during it measures the program, not the moment. During a
    request a SIGALRM handler runs the kernel every REFERENCE_PERIOD_S; the
    time it takes is taken off the request's latency.
    """

    def __init__(self):
        rng = np.random.default_rng(20040812)
        self.matrix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.samples: list[float] = []
        self.handler_s = 0.0

    def kernel(self) -> float:
        start = perf_counter()
        m = self.matrix
        for _ in range(REFERENCE_ROUNDS):
            h = m @ m.conj().T
            _, v = np.linalg.eigh(h)
            np.einsum("ij,ji->", v, h)
        return perf_counter() - start

    def gap(self) -> list[float]:
        return [self.kernel() for _ in range(REFERENCE_GAP)]

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(self.kernel())
        self.handler_s += perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        """Samples the kernel during the block; yields the list it fills."""
        self.samples, self.handler_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S, REFERENCE_PERIOD_S)
        try:
            yield self.samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def normalised(seconds: float, reference: list[float]) -> float:
    """seconds as they would read with the reference kernel at its nominal time."""
    return seconds * NOMINAL_REFERENCE_S / statistics.median(reference)


def measure_setup(speed: Speedometer) -> tuple[float, float]:
    """Raw and normalised set-up time of one fresh interpreter process.

    The caller waits for the process. The kernel is sampled just before and
    just after it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = speed.gap()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    seconds = float(proc.stdout.split()[-1])
    return seconds, normalised(seconds, before + speed.gap())


def tail_latency(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with TAIL_BEYOND requests beyond it.

    With fewer than 2 * TAIL_BEYOND requests there is no such percentile at or
    above the median, and the median is reported instead, with a note.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        note = f"only {n} requests, too few for a tail: latency_tail_s repeats the median"
        return statistics.median(ordered), note
    rank = n - TAIL_BEYOND
    percentile = 100.0 * rank / n
    return ordered[rank - 1], f"p{percentile:.1f} of {n} requests, {TAIL_BEYOND} beyond it"


def tree(path: Path) -> dict[str, bytes]:
    return {p.relative_to(path).as_posix(): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


class Client:
    """Issues one request at a time into the same, freshly emptied --out path.

    The path is the same for every request, so output trees of two requests
    with the same argv can be compared byte for byte.
    """

    def __init__(self, cli, workload, out: Path, speed: Speedometer | None = None):
        self.cli = cli
        self.workload = workload
        self.out = out
        self.speed = speed

    def call(self, argv: list[str]) -> tuple[float, list[str]]:
        stdout, stderr = io.StringIO(), io.StringIO()
        problems = []
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a raising request is a failed request; keep serving
                code = None
                problems.append(traceback.format_exc(limit=3))
            finally:
                seconds = perf_counter() - start
        if code != 0 and not problems:
            problems.append(f"exit code {code}: {stderr.getvalue().strip()}")
        return seconds, problems

    def run(self, request, before=None, after=None) -> Outcome:
        """One request. With a speedometer, the outcome carries the kernel
        samples taken during it, and its latency leaves out their time."""
        shutil.rmtree(self.out, ignore_errors=True)
        if before is not None:
            before()
        try:
            if self.speed is None:
                seconds, problems = self.call(request.argv + ["--out", self.out.as_posix()])
                reference = None
            else:
                with self.speed.sampling() as reference:
                    seconds, problems = self.call(request.argv + ["--out", self.out.as_posix()])
                seconds -= self.speed.handler_s
        finally:
            if after is not None:
                after()
        if not problems:
            problems = self.workload.check(request, self.out)
        return Outcome(seconds, problems, reference)


def compare_trees(reference: dict[str, bytes], out: Path, what: str) -> list[str]:
    found = tree(out)
    if found == reference:
        return []
    differing = sorted(k for k in reference.keys() | found.keys() if reference.get(k) != found.get(k))
    return [f"{what}: output tree differs from the first run of the same argv in {differing[:5]}"]


def pool_latency(keys: list[int], latencies: list[float]) -> float:
    """Mean over the pool's requests of each one's median latency.

    Every request of the pool weighs the same however often the run served
    it, so runs that end at different points of the cycle stay comparable.
    """
    by_key: dict[int, list[float]] = {}
    for key, seconds in zip(keys, latencies):
        by_key.setdefault(key, []).append(seconds)
    return statistics.fmean(statistics.median(v) for v in by_key.values())


def run_untraced(client: Client, first, seconds: float) -> tuple[dict, int, int, list[str]]:
    speed = client.speed
    problems = [f"warm-up request: {p}" for p in client.run(first).problems]
    reference = tree(client.out)
    keys, latencies, scaled, failed, setups, samples = [], [], [], 0, [], []
    pool = {r.key for r in client.workload.pool}
    gap = speed.gap()
    request = first
    while sum(latencies) < seconds or set(keys) != pool:
        # set-up samples are spread over the run, between requests, so that
        # their median sees the same machine as the requests do
        if len(setups) < SETUP_RUNS and sum(latencies) >= len(setups) * seconds / SETUP_RUNS:
            setups.append(measure_setup(speed))
            gap = speed.gap()
        outcome = client.run(request)
        after = speed.gap()
        keys.append(request.key)
        latencies.append(outcome.seconds)
        scaled.append(normalised(outcome.seconds, gap + outcome.reference + after))
        samples += outcome.reference + after
        gap = after
        if request is first:
            outcome.problems += compare_trees(reference, client.out, "rerun")
        if outcome.problems:
            failed += 1
            problems += outcome.problems
        request = client.workload.next()

    problems += [f"run: {p}" for p in client.workload.finish()]
    while len(setups) < SETUP_RUNS:
        setups.append(measure_setup(speed))
    attempted = len(latencies)
    tail, tail_note = tail_latency(latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"},
        "latency_mean_s": {"value": pool_latency(keys, scaled), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    print(f"{client.workload.name}: {attempted} requests in {sum(latencies):.2f} s of request time")
    print("raw timings, at the machine's speed of the moment:")
    print(f"  setup_s: {statistics.median(s for s, _ in setups):.6g} s")
    print(f"  latency_mean_s: {pool_latency(keys, latencies):.6g} s")
    print(f"  requests_per_s: {attempted / sum(latencies):.6g} 1/s")
    print(f"  latency_p50_s: {statistics.median(latencies):.6g} s")
    print(f"  latency_tail_s: {tail:.6g} s ({tail_note})")
    print(f"  failed_share: {failed / attempted} share ({failed} of {attempted})")
    print(f"  reference kernel: median {statistics.median(samples) * 1e3:.4g} ms")
    print(f"timings at reference speed (kernel at {NOMINAL_REFERENCE_S * 1e3:g} ms) and memory:")
    return metrics, attempted, failed, problems


def run_traced(client: Client, first, seconds: float, pq, spans) -> tuple[dict, int, int, list[str]]:
    tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(tracer, pq)
    trace_id = 0

    def begin():
        instrumentation.install()
        tracer.begin_request(trace_id)

    def end():
        tracer.end_request()
        instrumentation.remove()

    problems = [f"warm-up request: {p}" for p in client.run(first, begin, end).problems]
    reference = tree(client.out)
    first_counters = spans.work_counters(tracer, 0)

    untraced, traced, measured, failed = [], [], [], 0
    reports = {"files": 0, "bytes": 0}
    request = first
    while sum(untraced) + sum(traced) < seconds:
        trace_id += 1
        order = (False, True) if trace_id % 2 else (True, False)
        for with_trace in order:
            outcome = client.run(request, begin, end) if with_trace else client.run(request)
            (traced if with_trace else untraced).append(outcome.seconds)
            if with_trace:
                measured.append(trace_id)
                files = [p for p in client.out.rglob("*") if p.is_file()]
                reports["files"] += len(files)
                reports["bytes"] += sum(p.stat().st_size for p in files)
            if request is first:
                what = "traced rerun" if with_trace else "rerun"
                outcome.problems += compare_trees(reference, client.out, what)
            if outcome.problems:
                failed += 1
                problems += outcome.problems
        if request is first and spans.work_counters(tracer, trace_id) != first_counters:
            problems.append(
                f"work counters differ between two traced runs of the same request: "
                f"{first_counters} vs {spans.work_counters(tracer, trace_id)}"
            )
        request = client.workload.next()

    problems += [f"run: {p}" for p in client.workload.finish()]
    overhead = sum(traced) / sum(untraced) - 1.0
    metrics = spans.layer_metrics(tracer, measured, overhead, reports)
    spans_path = WORK / f"spans-{client.workload.name}.npz"
    tracer.save(spans_path)
    attempted = len(untraced) + len(traced)
    print(f"{client.workload.name}: {len(traced)} traced and {len(untraced)} untraced requests, interleaved")
    print(f"  {len(tracer.start)} spans saved to {spans_path}")
    return metrics, attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fig2-sampled", "fig4-exact", "calibrate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "parityqec" / "cli.py").is_file():
        print(f"error: no parityqec sources under {SRC}; run from a parityqec checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.chdir(ROOT)

    sys.path.insert(0, str(SRC))
    import parityqec
    import parityqec.cli

    if SRC.resolve() not in Path(parityqec.__file__).resolve().parents:
        print(f"error: parityqec was imported from {parityqec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    from workloads import WORKLOADS

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](parityqec, args.seed)
        speed = None if args.trace else Speedometer()
        client = Client(parityqec.cli, workload, run_dir / "out", speed)
        first = workload.next()
        if args.trace:
            metrics, attempted, failed, problems = run_traced(client, first, args.seconds, parityqec, spans)
        else:
            metrics, attempted, failed, problems = run_untraced(client, first, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name}: {metric['value']:.6g} {metric['unit']}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
