"""Command-line entry point.

Subcommands:
  run <scenario>     execute a scenario and write CSV + JSON reports
  list-scenarios     print known scenario names
  codes gen          generate a random linear code and print/save its text form
  codes decode       list-decode a received word against a stored code
  report render      pretty-print a JSON aggregate report
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ..codes import (
    DecodeFailure,
    GeneratorMatrix,
    ReceivedWord,
    bitflip_list_decode,
    erasure_list_decode,
    gen_random_linear_code,
    mask_to_signs,
)
from ..core import RngHandle, _within
from .reports import render_text, write_report
from .scenarios import ExperimentConfig, run_scenario, scenario_names

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisylab", description="Noise-model experiment runner."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario")
    p_run.add_argument("scenario", help="scenario name (see list-scenarios)")
    p_run.add_argument("--seed", type=int, default=None, help="master seed")
    p_run.add_argument("--trials", type=int, default=None, help="trial count")
    p_run.add_argument("--config", type=Path, default=None, help="JSON config file")
    p_run.add_argument("--out", type=Path, default=None, help="report output directory")

    sub.add_parser("list-scenarios", help="list known scenarios")

    p_codes = sub.add_parser("codes", help="code generation and decoding")
    codes_sub = p_codes.add_subparsers(dest="codes_command", required=True)

    p_gen = codes_sub.add_parser("gen", help="generate a random linear code")
    p_gen.add_argument("--rho", type=float, required=True, help="rate (rho*w integral)")
    p_gen.add_argument("--w", type=int, required=True, help="block length (<= 64)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", type=Path, default=None, help="write code text here")

    p_dec = codes_sub.add_parser("decode", help="list-decode a received word")
    p_dec.add_argument("--code", type=Path, required=True, help="code text file")
    p_dec.add_argument(
        "--word",
        required=True,
        help="received word, one symbol per position from {+,-,?} (? = erasure)",
    )
    p_dec.add_argument(
        "--radius",
        type=int,
        default=None,
        help="bit-flip decoding radius; omit for erasure decoding",
    )
    p_dec.add_argument("--cap", type=int, default=64, help="list size cap")

    p_report = sub.add_parser("report", help="report utilities")
    report_sub = p_report.add_subparsers(dest="report_command", required=True)
    p_render = report_sub.add_parser("render", help="pretty-print a JSON aggregate")
    p_render.add_argument("path", type=Path, help="path to <scenario>_aggregate.json")

    return parser


def _error(message: object) -> int:
    """Report a bad input as one ``error:`` line on stderr; exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        if args.config is not None:
            config = ExperimentConfig.from_file(
                args.config, seed=args.seed, trials=args.trials,
                out=str(args.out) if args.out else None,
            )
        else:
            config = ExperimentConfig(
                scenario=args.scenario,
                trials=args.trials if args.trials is not None else 1,
                seed=args.seed if args.seed is not None else 0,
                out=str(args.out) if args.out else None,
            )
    except (OSError, ValueError) as exc:
        return _error(exc)
    if config.scenario != args.scenario:
        return _error(
            f"config file names scenario {config.scenario!r}, "
            f"command line says {args.scenario!r}"
        )
    try:
        report = run_scenario(config)
    except ValueError as exc:  # a scenario parameter the scenario rejects
        return _error(exc)
    out_dir = Path(config.out) if config.out else Path.cwd() / "reports"
    try:
        _, json_path = write_report(report, out_dir)
    except OSError as exc:  # an --out that is a file, or a directory it cannot write
        return _error(exc)
    print(render_text(json_path))
    print(f"reports written to {out_dir}")
    return 0 if all(report.verdicts.values()) else 1


def _parse_word(text: str) -> np.ndarray:
    mapping = {"+": 1, "-": -1, "?": 0}
    try:
        return np.array([mapping[ch] for ch in text], dtype=np.int8)
    except KeyError as exc:
        raise ValueError(f"invalid symbol {exc.args[0]!r} in word (use +, -, ?)") from None


def _cmd_codes(args: argparse.Namespace) -> int:
    if args.codes_command == "gen":
        try:
            seed = _within(args.seed, "[0, inf)", "seed", integer=True)
            text = gen_random_linear_code(args.rho, args.w, RngHandle(seed)).to_text()
            if args.out:
                args.out.write_text(text)
        except (OSError, ValueError) as exc:
            return _error(exc)
        if args.out:
            print(f"code written to {args.out}")
        else:
            print(text, end="")
        return 0
    try:
        G = GeneratorMatrix.from_text(args.code.read_text())
        word = ReceivedWord(_parse_word(args.word))
        if args.radius is None:
            messages = erasure_list_decode(G, word, cap=args.cap)
        else:
            messages = bitflip_list_decode(G, word, args.radius, cap=args.cap)
    except (OSError, ValueError, DecodeFailure) as exc:
        return _error(exc)
    if not messages:
        print("no consistent messages")
        return 1
    for m in messages:
        print("".join("+" if b == 1 else "-" for b in mask_to_signs(m, G.rows)))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list-scenarios":
        for name in scenario_names():
            print(name)
        return 0
    if args.command == "codes":
        return _cmd_codes(args)
    if args.command == "report":
        try:
            print(render_text(args.path))
        except (OSError, ValueError) as exc:  # a missing file or malformed JSON
            return _error(exc)
        return 0
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
