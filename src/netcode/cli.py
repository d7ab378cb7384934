"""Command-line interface.

Subcommands: design (emit a code as JSON), analyze (separation vector,
rate, schedule check), simulate (Monte Carlo sweep to CSV/JSON-lines),
tradeoff (greedy vs repetition tables), slope (diversity order from a
sweep CSV).  Exit codes: 0 success, 2 configuration/usage error,
1 runtime error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from contextlib import contextmanager
from fractions import Fraction

from .design import (
    MAX_SEP_DIMENSION,
    NetworkCode,
    code_for_requirements,
    greedy_code,
    _scheduled_code,
)
from .harness import (
    ConfigError,
    SimConfig,
    estimate_diversity_slope,
    records_from_csv,
    records_to_csv,
    records_to_json_lines,
    run_sweep,
    tradeoff_table,
)

__all__ = ["main", "cli_main"]


def _int_in(least: int, most: float = math.inf):
    """An argparse type: an integer in least..most."""
    def parse(text: str) -> int:
        try:
            if least <= (value := int(text)) <= most:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected an integer in {least}..{most}, got {text!r}")
    return parse


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="netcode",
                                description="Cooperative network coding toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="construct a code and emit it as JSON")
    size = d.add_mutually_exclusive_group(required=True)
    size.add_argument("--k", type=_int_in(1, MAX_SEP_DIMENSION),
                      help="number of sources (with --d)")
    size.add_argument("--n", type=_int_in(1), help="number of slots (with --d)")
    d.add_argument("--d", type=_int_in(1), required=True,
                   help="target minimum distance")
    d.add_argument("-o", "--output", default="-", help="output path (default stdout)")

    a = sub.add_parser("analyze", help="report separation vector, rate, schedule")
    a.add_argument("code_file", help="code JSON file")

    s = sub.add_parser("simulate", help="run a Monte Carlo SNR sweep")
    s.add_argument("--config", required=True, help="simulation config JSON file")
    s.add_argument("-o", "--output", default="-", help="output path (default stdout)")
    s.add_argument("--json", action="store_true",
                   help="emit JSON lines instead of CSV")

    t = sub.add_parser("tradeoff", help="greedy vs repetition trade-off table")
    t.add_argument("--k", type=_int_in(1, MAX_SEP_DIMENSION), required=True)
    span = t.add_mutually_exclusive_group(required=True)
    span.add_argument("--n-range", help="inclusive length range lo:hi")
    span.add_argument("--d-range", help="inclusive distance range lo:hi")
    t.add_argument("-o", "--output", default="-", help="output path (default stdout)")

    sl = sub.add_parser("slope", help="diversity slope from a sweep CSV")
    sl.add_argument("--input", required=True, help="sweep CSV file")
    sl.add_argument("--source", type=_int_in(1), required=True,
                    help="1-based source index")
    sl.add_argument("--window", type=_int_in(2), default=3,
                    help="number of top SNR points (default 3)")
    return p


@contextmanager
def _output(path: str):
    """The stream to write to: stdout for "-", else the file, closed after."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fp:
            yield fp


def _cmd_design(args) -> int:
    if args.n is not None:
        if args.n < args.d:
            raise ConfigError(f"--n {args.n} is below --d {args.d}")
        B = greedy_code(args.n, args.d)
        if B.rows > MAX_SEP_DIMENSION:
            raise ConfigError(f"--n {args.n}: the greedy code at distance {args.d} "
                              f"has {B.rows} sources, above {MAX_SEP_DIMENSION}")
        used = max(B.row_masks).bit_length()
        if used < args.n:
            raise ConfigError(f"--n {args.n}: the greedy code at distance {args.d} "
                              f"leaves slots empty; it uses n = {used}")
        code = _scheduled_code(B)
    else:
        code = code_for_requirements(args.k, args.d)
    with _output(args.output) as fp:
        fp.write(json.dumps(code.to_json_dict(), indent=2) + "\n")
    return 0


def _cmd_analyze(args) -> int:
    try:
        with open(args.code_file) as fp:
            code = NetworkCode.from_json_dict(json.load(fp))
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot read code file: {exc}") from exc
    print(f"k = {code.k}, n = {code.n}, rate = {Fraction(code.k, code.n)}")
    print(f"separation vector = {list(code.sep)}")
    print(f"schedule = {list(code.v)}")
    print(f"schedule valid = {not code.schedule_violations}")
    for v in code.schedule_violations:
        print(f"  violation: {v}")
    return 0


def _cmd_simulate(args) -> int:
    try:
        with open(args.config) as fp:
            obj = json.load(fp)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    config = SimConfig.from_json_dict(obj)
    records = run_sweep(config)
    with _output(args.output) as fp:
        if args.json:
            records_to_json_lines(records, fp)
        else:
            records_to_csv(records, fp)
    return 0


def _parse_range(option: str, text: str, least: int = 1) -> range:
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"{option}: bad range {text!r}, expected lo:hi") from exc
    if not least <= lo <= hi:
        raise ConfigError(f"{option}: bad range {text!r}, need {least} <= lo <= hi")
    return range(lo, hi + 1)


def _cmd_tradeoff(args) -> int:
    if args.n_range is not None:
        rows = tradeoff_table(
            args.k, n_range=_parse_range("--n-range", args.n_range, args.k))
    else:
        rows = tradeoff_table(
            args.k, d_range=_parse_range("--d-range", args.d_range))
    with _output(args.output) as fp:
        fp.write("k,n,d,rate,greedy_min,greedy_max,greedy_avg,"
                 "rep_min,rep_max,rep_avg,rate_advantage\n")
        for r in rows:
            fp.write(",".join(str(x) for x in [
                r.k, r.n, r.d, float(r.greedy.rate),
                r.greedy.d_min, r.greedy.d_max, r.greedy.d_avg,
                r.repetition.d_min, r.repetition.d_max, r.repetition.d_avg,
                r.advantage]) + "\n")
    return 0


def _cmd_slope(args) -> int:
    try:
        with open(args.input) as fp:
            records = records_from_csv(fp)
    except OSError as exc:
        raise ConfigError(f"cannot read input file: {exc}") from exc
    if records and args.source > len(records[0].errors):
        raise ConfigError(f"--source {args.source}: the input has "
                          f"{len(records[0].errors)} source(s)")
    slope = estimate_diversity_slope(records, args.source - 1, args.window)
    print(f"source {args.source}: diversity slope {slope:.4g}")
    return 0


_COMMANDS = {
    "design": _cmd_design,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "tradeoff": _cmd_tradeoff,
    "slope": _cmd_slope,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())
