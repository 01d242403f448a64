"""Command line interface: generate, run, sweep, evaluate.

Exit codes: 0 success, 2 invalid arguments, 3 solver failure, file not found
or out of memory (the stderr line names which), 4 certification failure.  The
default output directory comes from MARKETEQ_OUTDIR (falling back to
./marketeq_out).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .errors import InvalidArgument, MarketEqError, OracleFailure, check_range
from .harness import (
    METHOD_TABLE,
    ExperimentConfig,
    MarketSpec,
    evaluate_candidate_file,
    run_experiment,
    sweep,
)
from .market import Market
from .metrics import MetricsReport

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_CERTIFICATION = 4


def _default_outdir() -> str:
    return os.environ.get("MARKETEQ_OUTDIR", "marketeq_out")


def _add_market_args(parser):
    parser.add_argument("--n", type=int, default=2**20)
    parser.add_argument("--m", type=int, default=10)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--dist", choices=["normal", "uniform", "exponential"], default="normal")
    parser.add_argument("--alpha", default="0.5",
                        help="CES parameter: a real < 1, or 1 (linear), 0 (cobb-douglas), -inf (leontief)")
    parser.add_argument("--seed", type=int, default=0)


def _add_method_args(parser, with_method=True):
    if with_method:
        parser.add_argument("--method", choices=METHOD_TABLE, required=True)
    flags = [
        parser.add_argument("--epochs", type=int),
        parser.add_argument("--inner-iters", type=int),
        parser.add_argument("--batch-size", dest="batch_size_loss", type=int,
                            help="fcnet half-batch M1"),
        parser.add_argument("--rho", type=float),
        parser.add_argument("--learning-rate", type=float),
        parser.add_argument("--width", dest="hidden_width", type=int),
        parser.add_argument("--depth", dest="hidden_depth", type=int),
        parser.add_argument("--step-size", type=float),
        parser.add_argument("--ng-stop", type=float),
        parser.add_argument("--method-seed", dest="seed", metavar="METHOD_SEED", type=int,
                            help="fcnet initialization and sampling seed (default 0; EG takes none)"),
    ]
    # each method flag as typed, by its dest: the config field it sets
    parser.set_defaults(method_flags={flag.dest: flag.option_strings[0] for flag in flags})


def _method_configs(args, methods) -> dict:
    """Each method's config: its row's default with each method flag given,
    or None for naive and for an unknown name, which `sweep` rejects.  A flag
    given that none of the methods has a config field for is refused first."""
    given = {dest: getattr(args, dest) for dest in args.method_flags
             if getattr(args, dest) is not None}
    own = {}  # each method's default and the given flags it has a field for
    for method in methods:
        default = METHOD_TABLE[method][0] if method in METHOD_TABLE else None
        fields = {field.name for field in dataclasses.fields(default)} if default else set()
        own[method] = default, {dest: value for dest, value in given.items() if dest in fields}
    foreign = [args.method_flags[dest] for dest in given
               if not any(dest in flags for _, flags in own.values())]
    if foreign:
        raise InvalidArgument(f"{' or '.join(methods)} takes no {' or '.join(foreign)}")
    return {method: None if default is None else dataclasses.replace(default, **flags)
            for method, (default, flags) in own.items()}


def _market_spec(args) -> MarketSpec:
    return MarketSpec(n=args.n, m=args.m, k=args.k, dist=args.dist,
                      alpha=args.alpha, seed=args.seed)


def cmd_generate(args) -> int:
    spec = _market_spec(args)
    market = spec.build()
    out = Path(args.out)
    market.save(out, include_contexts=args.store_contexts)
    print(f"market: n={market.n} m={market.m} k={market.k} dist={args.dist} "
          f"alpha={args.alpha} seed={args.seed} -> {out}")
    return EXIT_OK


def cmd_run(args) -> int:
    method_config = _method_configs(args, [args.method])[args.method]
    market = Market.load(args.market)
    spec = MarketSpec(n=market.n, m=market.m, k=market.k,
                      dist=market.dist.value if market.dist else None,
                      alpha=market.ces.alpha_label, seed=market.seed)
    config = ExperimentConfig(market=spec, method=args.method,
                              method_config=method_config, out_dir=args.outdir)
    record = run_experiment(config, market)
    print(f"[{args.method}] hash={record.config_hash} "
          f"train={record.train_seconds:.2f}s eval={record.eval_seconds:.2f}s")
    _print_report(record.report)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if args.max_ng is not None:
        check_range("--max-ng", args.max_ng, 0.0)
    market = Market.load(args.market)
    report = evaluate_candidate_file(market, candidate_path=args.candidate,
                                     solution_path=args.solution)
    _print_report(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_json(), indent=2) + "\n")
    if args.max_ng is not None and not report.ng <= args.max_ng:
        raise OracleFailure(f"projected NG {report.ng:.3e} exceeds --max-ng {args.max_ng:.3e}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    specs = [
        MarketSpec(n=n, m=m, k=args.k, dist=dist, alpha=alpha, seed=args.market_seed)
        for n in args.n_list
        for m in args.m_list
        for alpha in args.alpha_list
        for dist in args.dist_list
    ]
    # every config is checked before the first cell runs
    configs = _method_configs(args, args.methods)
    rows = sweep(specs, configs, args.outdir)
    failed = sum(1 for row in rows if row["error"])
    print(f"sweep: {len(rows)} cells, {failed} failed -> {Path(args.outdir) / 'sweep.csv'}")
    return EXIT_OK


def _print_report(report: MetricsReport) -> None:
    for name in ("ng", "voa", "vop", "lnw", "lfw", "wsw", "price_residual", "kkt_max_residual"):
        print(f"  {name:>18}: {getattr(report, name):.6e}")


def _csv_list(kind):
    def parse(text):
        return [kind(item) for item in text.split(",") if item]
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="marketeq",
                                     description="contextual market equilibrium toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample a market and write it as JSON")
    _add_market_args(gen)
    gen.add_argument("--out", default="market.json")
    gen.add_argument("--store-contexts", action="store_true",
                     help="embed the raw context vectors instead of the seed recipe")
    gen.set_defaults(fn=cmd_generate)

    run = sub.add_parser("run", help="solve a stored market and write artifacts")
    run.add_argument("--market", required=True)
    run.add_argument("--outdir", default=_default_outdir())
    _add_method_args(run)
    run.set_defaults(fn=cmd_run)

    ev = sub.add_parser("evaluate", help="certify a stored candidate or solution")
    ev.add_argument("--market", required=True)
    ev.add_argument("--candidate", default=None, help="dense candidate JSON")
    ev.add_argument("--solution", default=None, help="trained network .npz")
    ev.add_argument("--out", default=None, help="write the report JSON here")
    ev.add_argument("--max-ng", type=float, default=None,
                    help="fail (exit 4) when the projected NG exceeds this bound")
    ev.set_defaults(fn=cmd_evaluate)

    sw = sub.add_parser("sweep", help="run a grid of markets and methods")
    sw.add_argument("--methods", type=_csv_list(str), default=["naive"])
    sw.add_argument("--n-list", type=_csv_list(int), default=[2**12])
    sw.add_argument("--m-list", type=_csv_list(int), default=[10])
    sw.add_argument("--alpha-list", type=_csv_list(str), default=["0.5"])
    sw.add_argument("--dist-list", type=_csv_list(str), default=["normal"])
    sw.add_argument("--k", type=int, default=5)
    # its own dest: `seed` is the method seed's, a config field
    sw.add_argument("--seed", dest="market_seed", metavar="SEED", type=int, default=0)
    sw.add_argument("--outdir", default=_default_outdir())
    _add_method_args(sw, with_method=False)
    sw.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OracleFailure as err:
        print(f"certification failure: {err}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except InvalidArgument as err:
        print(f"invalid arguments: {err}", file=sys.stderr)
        return EXIT_USAGE
    except MarketEqError as err:
        print(f"solver failure: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except FileNotFoundError as err:
        print(f"file not found: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as err:
        print(f"out of memory: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
