"""Command-line front end: run, verify, inject, status, scenarios."""
from __future__ import annotations

import argparse
import contextlib
import sys

from .engine import FAULT_ACTIONS, UnknownTarget, trace_line
from .scenario import (BUNDLED, SECONDS, SEED, Codec, FaultDecl,
                       ScenarioError, build_engine, load_scenario,
                       parse_scenario, serialize_scenario, validate_scenario)
from .verify import (INVARIANTS, UnknownInvariant, UnknownNode, status,
                     verify)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3


def _load(name_or_path: str, horizon_us=None):
    """The validated scenario, run to horizon_us or its `duration`."""
    cfg = load_scenario(name_or_path)
    validate_scenario(cfg, horizon_us)
    return cfg


def _option(codec: Codec):
    """Reads an option like the same value in a scenario file."""
    def read(text: str):
        try:
            return codec.read(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


def _output(path):
    """The file to write at path: stdout, left open, for "-"; None for None."""
    if path is None or path == "-":
        return contextlib.nullcontext(path and sys.stdout)
    return open(path, "w", encoding="utf-8")


def _write(path: str, text: str):
    with _output(path) as fh:
        fh.write(text)


def cmd_run(args) -> int:
    cfg = _load(args.scenario, args.until)
    if args.seed is not None:
        cfg.seed = args.seed
    until_us = args.until if args.until is not None else cfg.duration_us
    with _output(args.trace) as out:  # each trace line as it happens
        sink = out and (lambda *record: out.write(trace_line(*record) + "\n"))
        metrics = build_engine(cfg, trace=sink).run_until(until_us)
    report = [f"scenario={args.scenario}", f"seed={cfg.seed}",
              f"until={SECONDS.write(until_us)}"]
    report.extend(metrics.summary_lines())
    _write(args.report, "\n".join(report) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load(args.scenario)
    result = verify(cfg, args.invariant, seed=args.seed)
    print("\n".join(result.lines()))
    return EXIT_OK if result.passed else EXIT_VIOLATION


def cmd_inject(args) -> int:
    cfg = _load(args.scenario)
    cfg.faults.append(FaultDecl(args.at, args.action, args.target))
    text = serialize_scenario(cfg)
    validate_scenario(parse_scenario(text))
    sys.stdout.write(text)
    return EXIT_OK


def cmd_status(args) -> int:
    cfg = _load(args.scenario, args.at)
    report = status(cfg, args.at, node=args.node)
    print("\n".join(report.lines()))
    return EXIT_OK


def cmd_scenarios(_args) -> int:
    for name in sorted(BUNDLED):
        print(name)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netfab",
        description="Deterministic simulator of a VLAN-segmented beamline network")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario and report metrics")
    p.add_argument("scenario")
    p.add_argument("--seed", type=_option(SEED))
    p.add_argument("--until", type=_option(SECONDS), metavar="SECONDS")
    p.add_argument("--trace", metavar="FILE")
    p.add_argument("--report", metavar="FILE", default="-")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="check one invariant of a scenario")
    p.add_argument("scenario")
    p.add_argument("--invariant", required=True, choices=INVARIANTS)
    p.add_argument("--seed", type=_option(SEED))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("inject", help="emit the scenario with one more fault")
    p.add_argument("scenario")
    p.add_argument("--at", type=_option(SECONDS), required=True,
                   metavar="SECONDS")
    p.add_argument("--action", required=True, choices=FAULT_ACTIONS)
    p.add_argument("--target", required=True)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("status", help="engine state and affected VLANs at T")
    p.add_argument("scenario")
    p.add_argument("--at", type=_option(SECONDS), required=True,
                   metavar="SECONDS")
    p.add_argument("--node")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("scenarios", help="list bundled scenarios")
    p.set_defaults(func=cmd_scenarios)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, UnknownInvariant, UnknownNode, UnknownTarget,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # exit 1 means "invariant violated", never a crash
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
