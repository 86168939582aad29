"""Command-line surface: params, classify, sweep, verify, simulate.

Single results print as JSON (schema_version 3, floats at 17 significant
digits so repeated runs are byte-identical); sweeps write CSV.  Exit codes:
0 success, 1 validation failure, 2 verification failure.

A request pays only for what it uses.  The argument parser is built once
per process (:func:`build_parser`), and ``params``, ``classify`` and
``sweep`` run on the closed forms in :mod:`discrim`, which need ``math``
alone: ``verify`` and ``simulate`` import the oracle, the checks and numpy
when they run.

A sweep validates its grid once, before any output: each fixed value and
each axis's two ends against the range :mod:`channels` gives the
parameter, so an error names the sweep parameter.  It builds no channel
object.  An axis value is computed from its index as its row is written,
and the last 4096 second-axis cells are kept for the next rows, so
memory does not grow with the steps.  Each cell's parameters come from
:func:`discrim.channel_moments`, the same path ``classify`` takes from a
channel, with cos and sin taken once per distinct angle value (the last
4096 are kept) and a channel's moments kept while its parameters do not
change; the verdict comes from :func:`discrim.classify_moments`, and the
row is written with :func:`_fmt_float` on its floats and literal
``true``/``false`` and node strings.

``--out`` is rewritten in place: it is opened without truncation, the
rows are written from its start, and only then, for a regular file, is it
cut at the end of what this sweep wrote, also when a cell raises partway.
A device or a pipe is written and never cut, and a symlink is written
through.  The file is never fsynced.  A reader that opens it while a sweep
runs may see bytes of the old file after the new rows until the sweep
ends, where a truncating open would have shown it a short file.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import math
import operator
import os
import stat
import sys

from . import __version__, channels, discrim

SCHEMA_VERSION = 3
EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2

SWEEP_PARAMS = (
    "phi1", "theta1", "phi2", "theta2",
    "lambda1", "lambda2",
    "phi1p", "theta1p", "phi2p", "theta2p",
)

CSV_HEADER = (
    "axis1,axis2,alpha,beta,gamma1,gamma2,useful,node,boundary,"
    "single_dist,entangled_dist,gap"
)


def _fmt_float(x: float) -> str:
    x = float(x) + 0.0  # turns -0.0 into 0.0
    if not math.isfinite(x):
        raise ValueError("refusing to emit a non-finite number")
    return "%.17g" % x


def _fmt_str(s: str) -> str:
    escaped = s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def _emit_scalar(obj) -> str:
    """JSON text of a float, bool, int, None or str.

    Exact types are matched first, floats ahead of the rest because records
    are mostly floats; subclasses such as ``numpy.float64`` fall through to
    ``isinstance``.  ``bool`` admits no subclass.
    """
    t = type(obj)
    if t is float:
        return _fmt_float(obj)
    if t is bool:
        return "true" if obj else "false"
    if t is int:
        return str(obj)
    if t is str:
        return _fmt_str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return _fmt_str(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit_json(obj, indent: int = 0) -> str:
    if type(obj) is float:
        return _fmt_float(obj)
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            [f'{pad}  "{k}": {_emit_json(v, indent + 1)}' for k, v in obj.items()]
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join([f"{pad}  {_emit_json(v, indent + 1)}" for v in obj])
        return "[\n" + items + "\n" + pad + "]"
    return _emit_scalar(obj)


def _print_record(record: dict) -> None:
    # flushed now, so that a closed stdout fails inside main, which handles it,
    # and not at exit
    print(_emit_json(record), flush=True)


def _base_record(command: str, seed=None) -> dict:
    rec = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "version": __version__,
    }
    if seed is not None:
        from . import oracle

        rec["seed"] = int(seed)
        rec["rng"] = oracle.RNG_ALGORITHM
    return rec


def _params_dict(p: discrim.DiscrimParams) -> dict:
    return {
        "alpha": p.alpha,
        "beta": p.beta,
        "gamma1": p.gamma1,
        "gamma2": p.gamma2,
        "gamma_m": p.gamma_m,
        "gamma_M": p.gamma_M,
        "P": p.P,
    }


def _distance_dict(r: discrim.DistanceResult) -> dict:
    return {
        "value": r.value,
        "arg": r.arg,
        "branch": r.branch,
    }


def _classification_dict(c: discrim.Classification) -> dict:
    return {
        "useful": c.useful,
        "node": c.node,
        "boundary": c.boundary,
        "margins": dict(c.margins),
    }


def _parse_probe(text: str):
    from . import oracle

    head, _, body = text.partition("(")
    if not body.endswith(")"):
        raise channels.ChannelParseError(f"unrecognized probe literal {text!r}")
    parts = [p.strip() for p in body[:-1].split(",")]
    try:
        amps = [complex(p) for p in parts]
    except ValueError:
        raise channels.ChannelParseError(
            f"bad amplitude in probe literal {text!r}"
        ) from None
    if not all(cmath.isfinite(a) for a in amps):
        raise channels.ChannelParseError(
            f"non-finite amplitude in probe literal {text!r}"
        )
    # scale by the largest component first so that squaring cannot overflow
    scale = max(max(abs(a.real), abs(a.imag)) for a in amps)
    if scale == 0.0:
        raise channels.ChannelParseError(f"zero probe state {text!r}")
    amps = [a / scale for a in amps]
    norm = math.sqrt(sum(abs(a) * abs(a) for a in amps))
    amps = [a / norm for a in amps]
    if (head, len(amps)) in (("qubit", 2), ("pair", 4)):
        return oracle.PureState(tuple(amps))
    raise channels.ChannelParseError(
        f"probe literal must be qubit(a0,a1) or pair(a00,a01,a10,a11): {text!r}"
    )


def cmd_params(args) -> int:
    c1 = channels.parse_channel(args.channel1)
    c2 = channels.parse_channel(args.channel2)
    rec = _base_record("params")
    rec["inputs"] = channels.format_pair(c1, c2)
    rec["params"] = _params_dict(discrim.compute_params(c1, c2))
    _print_record(rec)
    return EXIT_OK


def cmd_classify(args) -> int:
    c1 = channels.parse_channel(args.channel1)
    c2 = channels.parse_channel(args.channel2)
    cls = discrim.classify_pair(c1, c2)
    p = cls.params
    rec = _base_record("classify")
    rec["inputs"] = channels.format_pair(c1, c2)
    rec["params"] = _params_dict(p)
    rec["single"] = _distance_dict(p.single)
    rec["entangled"] = _distance_dict(p.entangled)
    rec["classification"] = _classification_dict(cls)
    rec["success_single"] = discrim.success_probability(p.single.value)
    rec["success_entangled"] = discrim.success_probability(p.entangled.value)
    rec["gap"] = p.entangled.value - p.single.value
    _print_record(rec)
    return EXIT_OK


def _parse_axis(text: str):
    name, _, spec = text.partition("=")
    name = name.strip()
    if name not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {name!r}")
    usage = f"axis spec must be name=start:stop:steps, got {text!r}"
    pieces = spec.split(":")
    if len(pieces) != 3:
        raise ValueError(usage)
    try:
        start, stop, steps = float(pieces[0]), float(pieces[1]), int(pieces[2])
    except ValueError:
        raise ValueError(usage) from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"axis bounds must be finite, got {text!r}")
    if not math.isfinite(stop - start):
        raise ValueError(f"axis span stop - start must be finite, got {text!r}")
    if steps < 2:
        raise ValueError(f"axis needs at least 2 steps: {text!r}")
    return name, start, stop, steps


def _parse_fixed(items, axis_names) -> dict:
    """Sweep parameter values: the defaults, then each ``name=value`` item."""
    values = {
        "phi1": 0.0, "theta1": 0.0, "phi2": 0.0, "theta2": 0.0,
        "lambda1": 1.0, "lambda2": 1.0,
        "phi1p": 0.0, "theta1p": 0.0, "phi2p": 0.0, "theta2p": 0.0,
    }
    seen = set()
    for item in items:
        name, eq, value = item.partition("=")
        name = name.strip()
        if not eq:
            raise ValueError(f"fixed parameter must be name=value, got {item!r}")
        if name not in SWEEP_PARAMS:
            raise ValueError(f"unknown fixed parameter {name!r}")
        if name in seen:
            raise ValueError(f"fixed parameter {name!r} given twice")
        if name in axis_names:
            raise ValueError(f"{name!r} is both fixed and a sweep axis")
        try:
            values[name] = float(value)
        except ValueError:
            raise ValueError(
                f"fixed parameter {name!r} needs a number, got {item!r}"
            ) from None
        seen.add(name)
    return values


# Each channel's sweep parameters, in discrim.channel_moments' order.
CHANNEL_PARAMS = (
    ("lambda1", "phi1", "theta1", "phi1p", "theta1p"),
    ("lambda2", "phi2", "theta2", "phi2p", "theta2p"),
)


def cmd_sweep(args) -> int:
    axes = [_parse_axis(g) for g in args.grid]
    if not 1 <= len(axes) <= 2:
        raise ValueError("sweep needs one or two --grid axes")
    if len(axes) == 2 and axes[0][0] == axes[1][0]:
        raise ValueError(f"sweep axes must differ, got {axes[0][0]!r} twice")
    names = [a[0] for a in axes]
    values = _parse_fixed(args.fix, names)

    def value(k, i):
        # computed when it is read, so memory does not grow with the steps
        _, start, stop, steps = axes[k]
        return start + (stop - start) * i / (steps - 1)

    @functools.lru_cache(maxsize=4096)
    def second_cell(j):
        v2 = value(1, j)
        return _fmt_float(v2), v2

    def second_axis():
        """Text and value of each second-axis cell, the last 4096 kept for
        the next rows; a one-axis sweep has one empty cell, which sets
        nothing."""
        if len(axes) == 1:
            return (("", None),)
        return map(second_cell, range(axes[1][3]))

    def set_cell(v1, v2):
        values[names[0]] = v1
        if v2 is not None:
            values[names[1]] = v2

    # The axes are linear and every parameter range is an interval, so the
    # fixed values and each axis's two ends validate every cell before any
    # output.  An error names the sweep parameter.
    ends = [(name, value(k, i))
            for k, (name, *_, steps) in enumerate(axes) for i in (0, steps - 1)]
    for name, v in [*values.items(), *ends]:
        lam = name.startswith("lambda")
        (channels._check_weight if lam else channels._check_angle)(name, v)
    channel1, channel2 = (operator.itemgetter(*keys) for keys in CHANNEL_PARAMS)

    # A cell builds no channel object: trig is taken once per distinct
    # angle, and each channel's moments are kept while its parameters stay
    # (the last two sets, so a channel that no axis moves is done once).
    # Past 4096 angles the least recent are dropped and taken again when
    # read, so a grid of any size holds a bounded cache.
    trig = functools.lru_cache(maxsize=4096)(discrim.cos_sin)

    @functools.lru_cache(maxsize=2)
    def moments(lam, phi, theta, phi_p, theta_p):
        return discrim.channel_moments(lam, phi, theta, phi_p, theta_p, trig)

    fmt = _fmt_float
    try:
        # Written in place, not truncated on open: on ext4 a truncate to zero
        # frees the old blocks and makes the close flush the file, which
        # costs far more than writing over them and cutting the end.
        fd = os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8") as fh:
            try:
                fh.write(CSV_HEADER + "\n")
                for i in range(axes[0][3]):
                    v1 = value(0, i)
                    text1 = fmt(v1)
                    for text2, v2 in second_axis():
                        set_cell(v1, v2)
                        cls = discrim.classify_moments(
                            moments(*channel1(values)), moments(*channel2(values))
                        )
                        p = cls.params
                        single, ent = p.single.value, p.entangled.value
                        fh.write(
                            f"{text1},{text2},{fmt(p.alpha)},{fmt(p.beta)},"
                            f"{fmt(p.gamma1)},{fmt(p.gamma2)},"
                            f"{'true' if cls.useful else 'false'},{cls.node},"
                            f"{'true' if cls.boundary else 'false'},"
                            f"{fmt(single)},{fmt(ent)},{fmt(ent - single)}\n"
                        )
            finally:
                # Cut what is left of an older, longer file, whichever way the
                # loop ends.  Devices and pipes cannot be truncated.
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    fh.truncate()
    except OSError as exc:
        raise ValueError(f"cannot write {args.out!r}: {exc}") from None
    rec = _base_record("sweep")
    rec["out"] = args.out
    rec["rows"] = math.prod(steps for *_, steps in axes)
    _print_record(rec)
    return EXIT_OK


def _trials_too_large(trials: int) -> ValueError:
    return ValueError(f"--trials {trials} is too large: its draws do not fit in memory")


def _check_trials(trials: int) -> None:
    """Refuse a trial count before any work: below 1, or more draws than
    an array can index, which numpy would refuse naming no option."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials > sys.maxsize:
        raise _trials_too_large(trials)


def _check_seed(seed: int) -> None:
    """Refuse a negative seed before any work, naming the option; the
    search config would refuse it by its own field name."""
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")


@contextlib.contextmanager
def _trials_fit(trials: int):
    """Turn a simulation's failure to allocate its draws into a message."""
    try:
        yield
    except MemoryError:
        raise _trials_too_large(trials) from None


def cmd_verify(args) -> int:
    from . import checks, oracle

    _check_seed(args.seed)
    if args.mode == "montecarlo":
        if args.samples is not None:
            raise ValueError(
                "--samples applies to --mode lemma1, lemma2 and tree, not 'montecarlo'"
            )
        trials = 10**6 if args.trials is None else args.trials
        _check_trials(trials)
    elif args.trials is not None:
        raise ValueError(
            f"--trials applies to --mode montecarlo only, not {args.mode!r}"
        )
    samples = 100 if args.samples is None else args.samples
    cfg = oracle.SearchConfig(grid_points=96)
    if args.mode == "lemma1":
        report = checks.check_lemma1(samples, args.seed, cfg)
    elif args.mode == "lemma2":
        report = checks.check_lemma2(samples, args.seed, cfg)
    elif args.mode == "tree":
        report = checks.check_tree(samples, args.seed, cfg)
    elif args.mode == "montecarlo":
        with _trials_fit(trials):
            report = checks.check_montecarlo(trials, args.seed, cfg)
    else:
        raise ValueError(f"unknown verify mode {args.mode!r}")
    rec = _base_record("verify", seed=args.seed)
    rec["report"] = report
    _print_record(rec)
    return EXIT_OK if report["passed"] else EXIT_VERIFICATION


def cmd_simulate(args) -> int:
    from . import oracle

    _check_seed(args.seed)
    c1 = channels.parse_channel(args.channel1)
    c2 = channels.parse_channel(args.channel2)
    if args.optimal and args.probe is not None:
        raise ValueError("simulate takes a probe literal or --optimal, not both")
    _check_trials(args.trials)
    if args.optimal:
        probe, _ = oracle.optimal_entangled_probe(c1, c2)
    elif args.probe is not None:
        probe = _parse_probe(args.probe)
    else:
        raise ValueError("simulate needs a probe literal or --optimal")
    with _trials_fit(args.trials):
        distance, empirical = oracle.simulate(c1, c2, probe, args.trials, args.seed)
    theoretical = discrim.success_probability(distance)
    sigma = 0.5 / math.sqrt(args.trials)
    rec = _base_record("simulate", seed=args.seed)
    rec["inputs"] = {
        **channels.format_pair(c1, c2),
        "probe": "pair" if probe.is_pair else "qubit",
        "optimal": bool(args.optimal),
        "trials": args.trials,
    }
    rec["distance"] = distance
    rec["theoretical_success"] = theoretical
    rec["empirical_success"] = empirical
    rec["z"] = (empirical - theoretical) / sigma
    _print_record(rec)
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``entdisc`` argument parser, built once per process.

    Parsing reads a parser and never changes it, so every ``main`` call
    shares this one.  It names subcommands only; ``main`` looks up
    ``cmd_<subcommand>`` in this module when it dispatches, so a handler
    replaced on the module after the first call is the one that runs.
    """
    parser = argparse.ArgumentParser(
        prog="entdisc",
        description="Decide whether side entanglement helps discriminate two "
        "qubit channels in the diagonal form.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("params", help="discrimination parameters of a pair")
    p.add_argument("channel1")
    p.add_argument("channel2")

    p = sub.add_parser("classify", help="distances, verdict and tree node")
    p.add_argument("channel1")
    p.add_argument("channel2")

    p = sub.add_parser("sweep", help="grid sweep over channel parameters, CSV out")
    p.add_argument("fix", nargs="*", help="fixed parameters as name=value")
    p.add_argument("--grid", action="append", required=True,
                   help="axis as name=start:stop:steps (1 or 2 axes)")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("verify", help="seeded oracle-equivalence sweeps")
    p.add_argument("--mode", required=True,
                   choices=["lemma1", "lemma2", "tree", "montecarlo"])
    p.add_argument("--samples", type=int, default=None,
                   help="samples (lemma1, lemma2 and tree modes, default 100)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=None,
                   help="Monte-Carlo trials (montecarlo mode, default 10^6)")

    p = sub.add_parser("simulate", help="seeded Helstrom discrimination runs")
    p.add_argument("channel1")
    p.add_argument("channel2")
    p.add_argument("probe", nargs="?", default=None,
                   help="qubit(a0,a1) or pair(a00,a01,a10,a11)")
    p.add_argument("--optimal", action="store_true",
                   help="use the best entangled probe from the oracle")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=42)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    handler = globals()[f"cmd_{args.subcommand}"]
    try:
        return handler(args)
    except (channels.ChannelParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:
        # the reader closed stdout: send what is left to the null device, so
        # that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
