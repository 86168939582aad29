"""The benchmark's workloads: seeded request streams and their output checks.

An op is one ``entdisc`` CLI request.  Each workload turns a seed into an
endless stream of ops; the same seed gives the same stream.  The program
only ever sees the generated argv.

Checks read the captured output text and call nothing in ``entdisc``, so
they add no spans to a traced run.  The oracle cross-check is the only
check that calls the library, and it runs after the timed and traced
loops have ended.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

PI = math.pi

# 5x5 cells per sweep, at the centres of a 5x5 partition of [0, pi]^2, so
# that no cell sits on an edge of the square where phi1 or theta1 is 0 or
# pi.  A run holds dozens of sweeps, each with its own channel 2, so the mix
# of formula branches averages out.
SWEEP_STEPS = 5
# Every fourth cli request is a simulate.  The two commands differ about
# 10x in latency; a fixed share keeps the pooled median inside the
# classify latencies instead of flipping between the two.
SIMULATE_EVERY = 4
SIMULATE_TRIALS = 10_000
# Even, so that extremal and mixture pairs alternate.  A request checks
# nothing only when all samples fall within 1e-3 of a tree split (about
# 15% each), which at 8 samples is a 3e-7 chance.
TREE_SAMPLES = 8
# |z| is computed against 0.5/sqrt(trials), an upper bound on the true
# standard deviation, so an honest simulation exceeds this about once in
# 5e8 requests.
Z_LIMIT = 6.0
DISTANCE_SLACK = 1e-12
# Quasi-extreme angles keep this far from pi/2 (radians); see
# _quasi_extreme_pair.
QUASI_EXTREME_MARGIN = 0.05
# The library's domain for a trace distance: discrim.success_probability
# accepts up to 2 + 1e-12, so a distance rounded one ulp above 2 is valid.
DISTANCE_MAX = 2.0 + DISTANCE_SLACK
# Oracle cross-check: this many outputs, drawn from the first
# CROSS_WINDOW ops, the only ones a run keeps whole.
CROSS_CHECKS = 6
CROSS_WINDOW = 8


@dataclass
class Op:
    kind: str
    argv: list
    out_path: str | None = None


@dataclass
class Outcome:
    """One executed op: latency, exit code, captured output and verdict."""

    op: Op
    wall: float
    code: int | None
    stdout: str
    csv: str = ""
    # Machine slowdown while the op ran; see speed.py.
    speed: float = 1.0
    problems: list = field(default_factory=list)
    # (description, channel1 literal, channel2 literal, what to compare)
    evidence: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """Latency scaled to the reference machine speed."""
        return self.wall / self.speed


def _extremal(phi: float, theta: float) -> str:
    return f"extremal({phi!r},{theta!r})"


def _random_literal(rng: random.Random) -> str:
    kind = rng.choice(("identity", "ad", "extremal", "pauli", "mix"))
    angle = lambda: rng.uniform(0.0, PI)  # noqa: E731
    if kind == "identity":
        return "identity"
    if kind == "ad":
        return f"ad({angle()!r})"
    if kind == "extremal":
        return _extremal(angle(), angle())
    if kind == "pauli":
        return f"pauli({rng.random()!r},{angle()!r},{angle()!r})"
    return (
        f"mix({rng.random()!r};{angle()!r},{angle()!r};{angle()!r},{angle()!r})"
    )


def _quasi_extreme_pair(rng: random.Random) -> tuple[str, str]:
    """One quasi-extreme map of each cos-sign family, ``extremal(t,t)`` and
    ``extremal(pi-s,s)``, in either order, with t and s at least
    ``QUASI_EXTREME_MARGIN`` from pi/2.

    Pairs from one family are left out, and so are angles near pi/2, where
    the two families meet.  On such pairs alpha = beta and
    |alpha + beta| = |gamma1| + |gamma2| hold exactly or nearly, and
    ``discrim.max_distance_single`` divides a rounding residue by another:
    it reports a single-qubit distance above the entangled one on about one
    same-family pair in a hundred and one mixed pair in 30000.
    ``test_perfbench`` keeps such pairs as known-failure tests; when they
    pass, draw both literals from either family over all of [0, pi] again.
    """

    def angle() -> float:
        u = rng.uniform(0.0, PI - 2.0 * QUASI_EXTREME_MARGIN)
        return u if u < 0.5 * PI - QUASI_EXTREME_MARGIN else u + 2.0 * QUASI_EXTREME_MARGIN

    t, s = angle(), angle()
    pair = (_extremal(t, t), _extremal(PI - s, s))
    return pair if rng.random() < 0.5 else pair[::-1]


def _amplitude(rng: random.Random) -> str:
    re, im = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
    return f"{re!r}{'+' if im >= 0.0 else ''}{im!r}j"


def sweep_map(seed: int, workdir: str):
    """``sweep`` over a phi1 x theta1 grid of cell centres in [0, pi]^2;
    channel 2 is an extremal point drawn per request."""
    rng = random.Random(f"sweep-map:{seed}")
    out = f"{workdir}/sweep.csv"
    half_cell = PI / (2 * SWEEP_STEPS)
    axis = f"{half_cell!r}:{PI - half_cell!r}:{SWEEP_STEPS}"
    while True:
        phi2, theta2 = rng.uniform(0.0, PI), rng.uniform(0.0, PI)
        yield Op(
            "sweep",
            ["sweep", f"phi2={phi2!r}", f"theta2={theta2!r}",
             "--grid", f"phi1={axis}", "--grid", f"theta1={axis}",
             "--out", out],
            out_path=out,
        )


def cli_requests(seed: int, workdir: str):
    """``classify`` and ``simulate`` over literals of all five channel
    kinds; one classify in six is a pair of quasi-extreme maps."""
    rng = random.Random(f"cli-requests:{seed}")
    index = 0
    while True:
        index += 1
        if index % SIMULATE_EVERY == 0:
            if rng.random() < 0.5:
                probe = f"qubit({_amplitude(rng)},{_amplitude(rng)})"
            else:
                probe = f"pair({','.join(_amplitude(rng) for _ in range(4))})"
            yield Op(
                "simulate",
                ["simulate", _random_literal(rng), _random_literal(rng), probe,
                 "--trials", str(SIMULATE_TRIALS),
                 "--seed", str(rng.randrange(2**31))],
            )
        elif rng.random() < 1.0 / 6.0:
            yield Op(
                "classify",
                ["classify", *_quasi_extreme_pair(rng)],
            )
        else:
            yield Op("classify", ["classify", _random_literal(rng), _random_literal(rng)])


def verify_tree(seed: int, workdir: str):
    """``verify --mode tree`` with an even sample count and a seeded
    verification seed per request."""
    rng = random.Random(f"verify-tree:{seed}")
    while True:
        yield Op(
            "verify",
            ["verify", "--mode", "tree", "--samples", str(TREE_SAMPLES),
             "--seed", str(rng.randrange(2**31))],
        )


@dataclass(frozen=True)
class Workload:
    """A request stream; why each workload exists is in BENCHMARK.json."""

    name: str
    requests: Callable[[int, str], Iterator[Op]]
    # Ops in the traced run's census window and in its untraced prefix.
    window: int
    # Ops after which the timed loop reads peak_rss_mb, and the least it
    # runs: a fixed count, so that the figure does not grow with the number
    # of ops a faster program fits into a run.  About a third of a run's ops.
    memory_ops: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-map", sweep_map, window=4, memory_ops=12),
        Workload("cli-requests", cli_requests, window=120, memory_ops=500),
        Workload("verify-tree", verify_tree, window=12, memory_ops=30),
    )
}


# ---------------------------------------------------------------------------
# Output checks


def _distance_problems(single: float, ent: float) -> list:
    problems = []
    for name, value in (("single", single), ("entangled", ent)):
        if not 0.0 <= value <= DISTANCE_MAX:
            problems.append(f"{name} distance {value!r} outside [0, 2]")
    if ent < single - DISTANCE_SLACK:
        problems.append(f"entangled {ent!r} below single {single!r}")
    return problems


def _check_sweep(o: Outcome, record: dict) -> None:
    cells = SWEEP_STEPS * SWEEP_STEPS
    lines = o.csv.splitlines()
    if record.get("rows") != cells or len(lines) != cells + 1:
        o.problems.append(
            f"expected {cells} rows, record says {record.get('rows')}, "
            f"CSV has {len(lines) - 1}"
        )
        return
    header = lines[0].split(",")
    phi2 = float(o.op.argv[1].partition("=")[2])
    theta2 = float(o.op.argv[2].partition("=")[2])
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        single, ent = float(row["single_dist"]), float(row["entangled_dist"])
        o.problems.extend(_distance_problems(single, ent))
        o.evidence.append(
            ("maxima",
             _extremal(float(row["axis1"]), float(row["axis2"])),
             _extremal(phi2, theta2), single, ent)
        )


def _check_classify(o: Outcome, record: dict) -> None:
    single, ent = record["single"]["value"], record["entangled"]["value"]
    o.problems.extend(_distance_problems(single, ent))
    o.evidence.append(("maxima", o.op.argv[1], o.op.argv[2], single, ent))


def _check_simulate(o: Outcome, record: dict) -> None:
    d, theo, emp, z = (record[k] for k in
                       ("distance", "theoretical_success", "empirical_success", "z"))
    if not 0.0 <= d <= DISTANCE_MAX:
        o.problems.append(f"distance {d!r} outside [0, 2]")
    if abs(theo - 0.5 * (1.0 + 0.5 * d)) > DISTANCE_SLACK:
        o.problems.append(f"theoretical success {theo!r} does not match distance")
    if not 0.0 <= emp <= 1.0 or abs(z) > Z_LIMIT:
        o.problems.append(f"empirical success {emp!r} (z = {z!r}) implausible")
    probe = "single" if o.op.argv[3].startswith("qubit") else "entangled"
    o.evidence.append(("probe", o.op.argv[1], o.op.argv[2], probe, d))


def _check_verify(o: Outcome, record: dict) -> None:
    report = record["report"]
    if not report.get("passed"):
        o.problems.append(f"verification failed: {report.get('failures')}")
    checked = report.get("retained", report.get("samples", 0))
    if not checked:
        o.problems.append("verification checked no sample")


_CHECKS = {
    "sweep": _check_sweep,
    "classify": _check_classify,
    "simulate": _check_simulate,
    "verify": _check_verify,
}


def check(o: Outcome) -> None:
    """Fill ``o.problems`` and ``o.evidence`` from the captured output."""
    if o.code != 0:
        o.problems.append(f"exit code {o.code}")
        return
    try:
        record = json.loads(o.stdout)
        _CHECKS[o.op.kind](o, record)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        o.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")


def cross_check(outcomes: list, name: str, seed: int) -> int:
    """Re-derive a seeded subset of the outcomes' outputs with the
    brute-force oracle.

    Closed-form maxima must match the oracle's within ``checks.LEMMA_TOL``;
    a simulated probe's distance may not exceed the oracle's maximum.
    Problems are added to the outcome they came from.  Returns how many
    outputs were re-derived.
    """
    from entdisc import channels, checks, oracle

    cfg = oracle.SearchConfig(
        grid_points=96, multistarts=16, refine_tol=1e-10, rng_seed=seed
    )
    pool = [
        (o, e) for o in outcomes if not o.problems for e in o.evidence
    ]
    picked = random.Random(f"cross-check:{name}:{seed}").sample(
        pool, min(CROSS_CHECKS, len(pool))
    )
    tol = checks.LEMMA_TOL
    for o, (what, lit1, lit2, *values) in picked:
        c1, c2 = channels.parse_channel(lit1), channels.parse_channel(lit2)
        brute_single = oracle.brute_max_single(c1, c2, cfg).value
        brute_ent = oracle.brute_max_entangled(c1, c2, cfg, mode="restricted").value
        if what == "maxima":
            single, ent = values
            if abs(single - brute_single) > tol or abs(ent - brute_ent) > tol:
                o.problems.append(
                    f"{lit1} vs {lit2}: closed forms ({single!r}, {ent!r}) differ "
                    f"from the oracle ({brute_single!r}, {brute_ent!r})"
                )
        else:
            probe, distance = values
            bound = brute_single if probe == "single" else brute_ent
            if distance > bound + tol:
                o.problems.append(
                    f"{lit1} vs {lit2}: {probe} probe reaches {distance!r}, "
                    f"above the oracle maximum {bound!r}"
                )
    return len(picked)
