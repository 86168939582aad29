"""entdisc benchmark: seeded CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client drives ``entdisc.cli.main(argv)`` in this process in
a closed loop: each request waits for the previous reply.  An op is one
CLI request (``sweep``, ``classify``, ``simulate`` or ``verify``) whose
argv the workload generates from the seed; see ``workloads.py``.

``--trace 0`` times ops untraced for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` first times the workload's census
window of ops untraced, then runs the same stream with spans around every
public function of the six layer modules and reports the per-layer
metrics, including the overhead of tracing.  Counts in the per-layer
table are taken over the census window, so they repeat exactly for a
seed.

Times are wall-clock times divided by the machine slowdown that
``speed.py`` samples between ops, so that a busy host does not read as a
slower program; the slowdown is printed with each run.  Every op's output
is checked as soon as it returns, outside the timed interval; only a fixed
few outputs are kept, and a seeded subset of them is re-derived with the
brute-force oracle after timing ends.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Files the run writes go to ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
BLAS_THREADS = "1"
# Fresh interpreters timed for setup_s, after one that fills the bytecode cache.
SETUP_REPEATS = 15
SETUP_TIMEOUT_S = 60
# Failed ops kept whole and printed, per loop.
SHOWN_FAILURES = 5

NODES = (
    "T1", "T2/O1", "T2/A.1", "T2/A.2", "T2/A.4", "T2/B.1", "T2/B.2", "T2/B.3",
    "T3/root", "T3/A.1", "T3/A.2", "T3/A.3", "T3/B.1", "T3/B.2", "T3/B.3",
    "T3/B.4",
)
BRANCHES = ("two-radical", "single-radical", "linear")

SETUP_CHILD = """\
import sys
sys.path[:0] = {paths!r}
import entdisc.cli, workloads
next(workloads.WORKLOADS[{name!r}].requests({seed!r}, {workdir!r}))
print("ready", flush=True)
"""


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample count)``.  With 20 samples or
    fewer no percentile above the median has ten beyond it, and the median
    is returned instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 20:
        return statistics.median(xs), 50.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def setup_seconds(name: str, seed: int, probe) -> float:
    """Median time from starting a fresh interpreter to having imported
    ``entdisc.cli`` and generated the first request, each start scaled by
    the machine slowdown sampled around it."""
    code = SETUP_CHILD.format(
        paths=[str(SRC), str(HERE)], name=name, seed=seed, workdir=str(WORKDIR)
    )
    cmd = [sys.executable, "-X", f"pycache_prefix={WORKDIR / 'pycache'}", "-c", code]
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    times = []
    before = probe.sample()
    for attempt in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        with subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
        ) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError(f"setup child failed with exit code {proc.returncode}")
        after = probe.sample()
        if attempt:
            times.append(elapsed / (0.5 * (before + after)))
        before = after
    return statistics.median(times)


class Run:
    """What one closed loop keeps of its ops.

    Of every op only its kind, scaled latency and slowdown are kept, in
    fixed-size records, so that the process's peak memory does not grow
    with the number of ops a run completes.  Each op is checked as soon as
    it returns; the first ``keep`` outcomes are kept whole for the oracle
    cross-check and the per-layer reports, and the first few failed ones
    for the failure report.
    """

    def __init__(self, keep: int):
        self.keep = keep
        self.kept = []
        self.kinds = []
        self.seconds = array("d")  # wall time over slowdown
        self.speeds = array("d")
        self.busy = 0.0  # unscaled wall time
        self.peak_rss_mb = None
        self.failed = 0
        self.failures = []

    def __len__(self) -> int:
        return len(self.seconds)

    def add(self, o) -> None:
        self.kinds.append(o.op.kind)
        self.seconds.append(o.seconds)
        self.speeds.append(o.speed)
        self.busy += o.wall
        if len(self.kept) < self.keep:
            self.kept.append(o)
        if o.problems:
            self.fail(o)

    def fail(self, o) -> None:
        self.failed += 1
        if len(self.failures) < SHOWN_FAILURES:
            self.failures.append(o)

    def cross_check(self, name: str, seed: int) -> int:
        """Re-derive a seeded subset of the kept outputs with the oracle;
        returns how many were re-derived."""
        import workloads

        window = self.kept[: workloads.CROSS_WINDOW]
        passed = [o for o in window if not o.problems]
        picked = workloads.cross_check(window, name, seed)
        for o in passed:
            if o.problems:
                self.fail(o)
        return picked

    def kind_latencies(self) -> dict:
        """``{kind: (p50 ms, tail ms, tail percentile, samples)}``."""
        by_kind = defaultdict(list)
        for kind, s in zip(self.kinds, self.seconds):
            by_kind[kind].append(s * 1e3)
        return {kind: (statistics.median(ts), *tail(ts)) for kind, ts in by_kind.items()}


def run_ops(cli, probe, workload, seed, seconds, min_ops=1, tracer=None,
            keep=None, rss_at=None) -> Run:
    """Closed loop: run ops from the seeded stream until ``seconds`` have
    passed and at least ``min_ops`` are done.

    The speed probe is sampled between every two ops, outside the timed
    interval; each op's slowdown is the mean of the samples around it.
    Each op's output is checked after that sample, also outside the timed
    interval.  ``keep`` defaults to ``workloads.CROSS_WINDOW``.  The peak
    resident memory of the process is read after ``rss_at`` ops.
    """
    import workloads

    run = Run(workloads.CROSS_WINDOW if keep is None else keep)
    start = time.perf_counter()
    before = probe.sample()
    for index, op in enumerate(workload.requests(seed, str(WORKDIR))):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_op(index)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op.argv)
        except Exception as exc:  # an op that raises is a failed op
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        o = workloads.Outcome(op, time.perf_counter() - t0, code, out.getvalue())
        after = probe.sample()
        o.speed = 0.5 * (before + after)
        before = after
        if err.getvalue():
            o.problems.append(f"stderr: {err.getvalue().strip()[:300]}")
        if op.out_path is not None and code == 0:
            o.csv = Path(op.out_path).read_text(encoding="utf-8")
        workloads.check(o)
        run.add(o)
        if len(run) == rss_at:
            run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if len(run) >= min_ops and time.perf_counter() - start >= seconds:
            break
    return run


def end_to_end(name, seed, seconds) -> tuple[dict, list, list]:
    import speed
    import workloads
    from entdisc import cli

    probe = speed.SpeedProbe()
    setup = setup_seconds(name, seed, probe)
    w = workloads.WORKLOADS[name]
    run_ops(cli, probe, w, seed, 0.0)  # warm-up, not counted
    run = run_ops(cli, probe, w, seed, seconds, min_ops=w.memory_ops,
                  rss_at=w.memory_ops)
    cross = run.cross_check(name, seed)

    ms = [s * 1e3 for s in run.seconds]
    tail_ms, tail_pct, n = tail(ms)
    lines = [
        f"ops {n} in {run.busy:.3f} s busy; median machine "
        f"slowdown {statistics.median(run.speeds):.3f}; "
        f"oracle cross-checks {cross}",
        f"op_ms.tail is p{tail_pct:.1f} of {n} samples; "
        f"peak_rss_mb read after {w.memory_ops} ops",
    ]
    for kind, (p50, k_tail, k_pct, k_n) in sorted(run.kind_latencies().items()):
        lines.append(
            f"{kind}_ms.p50 {p50:.4f}  {kind}_ms.tail {k_tail:.4f} "
            f"(p{k_pct:.1f} of {k_n})"
        )
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.tail": (tail_ms, "ms"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }
    return metrics, [run], lines


def _p50(durations_ns, scale):
    return statistics.median(durations_ns) / scale if durations_ns else 0.0


def per_layer(name, seed, seconds) -> tuple[dict, list, list]:
    import speed
    import workloads
    from entdisc import channels, checks, cli, discrim, oracle, smallmat
    from tracing import LAYERS, Tracer, self_times

    w = workloads.WORKLOADS[name]
    window = w.window
    keep = max(window, workloads.CROSS_WINDOW)
    probe = speed.SpeedProbe()
    run_ops(cli, probe, w, seed, 0.0)  # warm-up, not counted
    untraced = run_ops(cli, probe, w, seed, 0.0, min_ops=window, keep=keep)
    tracer = Tracer()
    tracer.install(dict(zip(LAYERS, (cli, channels, discrim, oracle, smallmat, checks))))
    try:
        traced = run_ops(cli, probe, w, seed, seconds, min_ops=window, tracer=tracer,
                         keep=keep)
    finally:
        tracer.uninstall()
    tracer.write(WORKDIR / f"spans-{name}-{seed}.jsonl")
    # The traced loop replays the untraced one's ops, so one cross-check serves both.
    cross = untraced.cross_check(name, seed)

    spans = tracer.spans
    selfs = self_times(spans)
    n_ops = len(traced)
    # Span times are scaled by their op's slowdown, like op latencies.
    durations = defaultdict(list)  # by name and by "name.label"
    self_ns = Counter()  # by layer, name and "name.label"
    calls = Counter()  # in the census window, by name and "name.label"
    escalations = 0
    for s, own in zip(spans, selfs):
        keys = (s.name,) if s.label is None else (s.name, f"{s.name}.{s.label}")
        slowdown = traced.speeds[s.op]
        self_ns[s.name.split(".")[0]] += own / slowdown
        for key in keys:
            durations[key].append((s.end - s.start) / slowdown)
            self_ns[key] += own / slowdown
            if s.op < window:
                calls[key] += 1
        if (
            s.op < window
            and s.label == "full"
            and s.parent >= 0
            and spans[s.parent].name == "checks.check_tree"
        ):
            escalations += 1

    m = {}

    def per_op_ms(key):
        return self_ns[key] / n_ops / 1e6

    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (per_op_ms(layer), "ms/op")

    untraced_s = sum(untraced.seconds[:window])
    traced_s = sum(traced.seconds[:window])
    m["trace.untraced_ops_per_s"] = (window / untraced_s, "1/s")
    m["trace.traced_ops_per_s"] = (window / traced_s, "1/s")
    m["trace.overhead_ratio"] = (traced_s / untraced_s, "x")

    m["cli.main.self_ms"] = (per_op_ms("cli.main"), "ms/op")
    m["cli.sweep.csv_bytes"] = (
        sum(len(o.csv.encode()) for o in traced.kept[:window]) / window, "bytes/op"
    )
    latencies = untraced.kind_latencies()
    for kind in ("classify", "simulate"):
        p50, tail_ms, *_ = latencies.get(kind, (0.0, 0.0))
        m[f"{kind}_ms.p50"] = (p50, "ms")
        m[f"{kind}_ms.tail"] = (tail_ms, "ms")

    def p50_us(key):
        m[f"{key}.p50_us"] = (_p50(durations[key], 1e3), "us")

    def per_op_calls(key, metric=None):
        m[metric or f"{key}.calls"] = (calls[key] / window, "calls/op")

    for key in ("channels.parse_channel", "channels.apply", "channels.apply_extended"):
        p50_us(key)
    per_op_calls("channels.kraus_operators")

    m["discrim.profile_evals"] = (sum(tracer.profile_evals[:window]) / window, "calls/op")
    for branch in BRANCHES:
        p50_us(f"discrim.max_distance_entangled.{branch}")
        per_op_calls(f"discrim.max_distance_entangled.{branch}")
    m["discrim.classify.self_ms"] = (per_op_ms("discrim.classify"), "ms/op")
    per_op_calls("discrim.classify_pair")
    for node in NODES:
        per_op_calls(f"discrim.classify_pair.{node}",
                     f"discrim.classify_pair.{node.replace('/', '-')}")
    p50_us("discrim.compute_params")
    p50_us("discrim.max_distance_single")

    per_op_calls("oracle.brute_max_entangled.full")
    for key in ("oracle.brute_max_entangled.restricted", "oracle.brute_max_single"):
        per_op_calls(key)
        m[f"{key}.p50_ms"] = (_p50(durations[key], 1e6), "ms")
        m[f"{key}.max_ms"] = (max(durations[key], default=0) / 1e6, "ms")
        m[f"{key}.self_ms"] = (per_op_ms(key), "ms/op")
    for key in ("oracle.delta_single", "oracle.delta_entangled", "oracle.helstrom"):
        p50_us(key)
    m["oracle.simulate.p50_ms"] = (_p50(durations["oracle.simulate"], 1e6), "ms")

    p50_us("smallmat.hermitian_eigensystem.dim2")
    p50_us("smallmat.hermitian_eigensystem.dim4")
    p50_us("smallmat.trace_norm")

    m["checks.check_tree.self_ms"] = (per_op_ms("checks.check_tree"), "ms/op")
    reports = [
        json.loads(o.stdout)["report"]
        for o in traced.kept[:window]
        if o.op.kind == "verify" and not o.problems
    ]
    samples = sum(r["samples"] for r in reports if r.get("mode") == "tree")
    retained = sum(r["retained"] for r in reports if r.get("mode") == "tree")
    m["checks.tree.retained_ratio"] = (retained / samples if samples else 0.0, "ratio")
    m["checks.tree.escalations"] = (escalations / window, "calls/op")

    lines = [
        f"untraced window {window} ops; traced {n_ops} ops, {len(spans)} spans; "
        f"median machine slowdown {statistics.median(traced.speeds):.3f}; "
        f"oracle cross-checks {cross}",
    ]
    return m, [untraced, traced], lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "entdisc" / "cli.py").is_file():
        print(f"error: no entdisc sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    # Pin BLAS to one thread before numpy loads, here and in the setup children.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    WORKDIR.mkdir(parents=True, exist_ok=True)
    sys.pycache_prefix = str(WORKDIR / "pycache")
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy
    import entdisc
    import workloads

    if Path(entdisc.__file__).resolve().parent != SRC / "entdisc":
        print(f"error: entdisc imported from {entdisc.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    measure = per_layer if args.trace else end_to_end
    metrics, runs, lines = measure(args.workload, args.seed, args.seconds)
    attempted = sum(len(r) for r in runs)
    failed = sum(r.failed for r in runs)
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"blas_threads={BLAS_THREADS}"
    )
    for line in lines:
        print(line)
    print(f"fail_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    for o in [o for r in runs for o in r.failures][:SHOWN_FAILURES]:
        print(f"FAILED {' '.join(o.op.argv)}: {'; '.join(o.problems)}")
    result = {
        "correct": attempted > 0 and not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
