"""Command-line harness: gen-data, train, sweep, gradcheck, sample-check.

Exit codes: 0 success, 1 usage/config error, 2 verification failure, 3 I/O
error. Each flag declares its type and default. Flags override values from a
`--config key=value` file, which in turn override the defaults.
"""
from __future__ import annotations

import argparse
import sys

from .checks import format_sample_report, run_gradcheck, run_sample_check
from .data import DISTRACTOR_MODES, NeedleSpec, generate_dataset, load_dataset, write_dataset
from .errors import ConfigError
from .selection import STRATEGY_KINDS, StrategyConfig
from .sweep import CURVE_STRATEGIES, SWEEP_AXES, X_COLUMNS, run_sweep
from .train import CHANNELS, POSITION_MODES, RunConfig, train_run

EXIT_OK, EXIT_USAGE, EXIT_VERIFY, EXIT_IO = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def float_list(raw: str) -> tuple[float, ...]:
    """A comma-separated list of numbers."""
    return tuple(float(v) for v in raw.split(","))


def _strategy_list(raw: str) -> tuple[str, ...]:
    """A comma-separated subset of STRATEGY_KINDS."""
    kinds = tuple(raw.split(","))
    unknown = set(kinds) - set(STRATEGY_KINDS)
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown strategies {sorted(unknown)}")
    return kinds


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The parser, and the subcommands that read a config file."""
    parser = _Parser(prog="sparsetok",
                     description="Token sparsification benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value file; explicit flags override it")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--out")

    g = sub.add_parser("gen-data", help="generate a needle dataset file")
    common(g)
    g.add_argument("--count", type=int, default=2000)
    g.add_argument("--n", type=int, default=NeedleSpec.n)
    g.add_argument("--d", type=int, default=NeedleSpec.d)
    g.add_argument("--classes", type=int, default=NeedleSpec.num_classes)
    g.add_argument("--noise-std", type=float, default=NeedleSpec.noise_std)
    g.add_argument("--decoy-scale", type=float, default=NeedleSpec.decoy_scale)
    g.add_argument("--num-informative", type=int, default=NeedleSpec.num_informative)
    g.add_argument("--multimodal", action="store_true")
    g.add_argument("--distractor-mode", choices=DISTRACTOR_MODES,
                   default=NeedleSpec.distractor_mode)

    def training_flags(p):
        common(p)
        p.add_argument("--dataset")
        p.add_argument("--strategy", choices=STRATEGY_KINDS, default="gumbel_topk")
        p.add_argument("--keep-fraction", type=float, default=0.3)
        p.add_argument("--tau", type=float, default=StrategyConfig.tau)
        p.add_argument("--lambda", dest="lam", type=float, default=StrategyConfig.lam)
        p.add_argument("--epochs", type=int, default=RunConfig.epochs)
        p.add_argument("--lr", type=float, default=RunConfig.lr)
        p.add_argument("--batch-size", type=int, default=RunConfig.batch_size)
        p.add_argument("--eval-fraction", type=float, default=RunConfig.eval_fraction)
        p.add_argument("--channel", choices=CHANNELS, default=RunConfig.channel)
        p.add_argument("--positions", choices=POSITION_MODES, default=RunConfig.positions)

    t = sub.add_parser("train", help="train one run, write metrics + checkpoint")
    training_flags(t)

    s = sub.add_parser("sweep", help="run a grid and plot the accuracy curve")
    training_flags(s)
    s.add_argument("--axis", choices=SWEEP_AXES, default="sparsity")
    s.add_argument("--grid", type=float_list,
                   help="comma-separated grid values (not on the variant axis)")
    s.add_argument("--seeds", type=int, default=1, help="replicates per cell")
    s.add_argument("--strategies", type=_strategy_list,
                   help="comma-separated strategy subset (sparsity axis; default "
                        f"{','.join(CURVE_STRATEGIES)})")

    c = sub.add_parser("gradcheck", help="finite-difference verification suites")
    c.add_argument("--corrupt-op", help=argparse.SUPPRESS)  # negative-control hook

    sub.add_parser("sample-check", help="Monte-Carlo sampling verification")
    return parser, {"gen-data": g, "train": t, "sweep": s}


def _load_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected key=value")
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                if key == "lambda":
                    key = "lam"
                values[key] = value.strip()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    return values


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """defaults < config file < explicit flags.

    A config file's values become the subcommand's defaults, and argparse
    parses again, converting each string default with its flag's type. A
    file may name any flag of gen-data, train or sweep; flags of other
    subcommands are ignored. A switch (`multimodal`) reads 1, true or yes,
    in any case, as set.
    """
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        flags = {a.dest: a for p in commands.values() for a in p._actions
                 if a.dest not in ("help", "config")}
        own = {a.dest for a in commands[args.command]._actions}
        defaults = {}
        for key, raw in _load_config_file(args.config).items():
            if key not in flags:
                raise ConfigError(f"unknown config key {key!r}")
            if key in own:
                switch = flags[key].nargs == 0  # a flag without a value
                defaults[key] = raw.lower() in ("1", "true", "yes") if switch else raw
        commands[args.command].set_defaults(**defaults)
        args = parser.parse_args(argv)
    return args


def _spec_from(args) -> NeedleSpec:
    return NeedleSpec(n=args.n, d=args.d, num_informative=args.num_informative,
                      num_classes=args.classes, noise_std=args.noise_std,
                      distractor_mode=args.distractor_mode,
                      decoy_scale=args.decoy_scale, multimodal=args.multimodal)


def _run_config(args) -> tuple[RunConfig, int]:
    if not args.dataset:
        raise ConfigError("--dataset is required")
    _, header = load_dataset(args.dataset)
    n_tokens = header["n"]
    strategy = StrategyConfig.for_fraction(args.strategy, args.keep_fraction, n_tokens,
                                           args.tau, args.lam)
    cfg = RunConfig(dataset=args.dataset, strategy=strategy, lr=args.lr, epochs=args.epochs,
                    batch_size=args.batch_size, seed=args.seed,
                    eval_fraction=args.eval_fraction, out_dir=args.out,
                    channel=args.channel, positions=args.positions)
    return cfg, n_tokens


def _cmd_gen_data(args) -> int:
    if not args.out:
        raise ConfigError("--out is required")
    spec = _spec_from(args)
    examples = generate_dataset(spec, args.count, args.seed)
    write_dataset(examples, args.out, spec, args.seed)
    print(f"wrote {len(examples)} examples to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    if not args.out:
        raise ConfigError("--out is required")
    cfg, _ = _run_config(args)
    result = train_run(cfg)
    if result.problem:
        print(f"error: {result.problem} (metrics: {result.metrics_path})", file=sys.stderr)
        return EXIT_VERIFY
    final = result.final
    print(f"final epoch {final.epoch}: loss={final.train_loss:.4f} "
          f"accuracy={final.eval_accuracy:.4f} keep_ratio={final.mean_keep_ratio:.4f} "
          f"recall={final.selection_recall:.4f}")
    print(f"metrics: {result.metrics_path}")
    print(f"checkpoint: {result.checkpoint_path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if not args.out:
        raise ConfigError("--out is required")
    cfg, n_tokens = _run_config(args)
    axis = args.axis
    rows, csv_path, svg_path = run_sweep(axis, cfg, n_tokens, args.seeds, args.out,
                                         args.grid, args.strategies)
    print(f"{len(rows)} rows -> {csv_path}")
    print(f"curve -> {svg_path}")

    for row in rows:
        if row.problem:
            x_value = {"tau": row.tau, "lambda": row.lam}.get(axis, row.keep_fraction)
            print(f"error: {row.problem} in the {row.strategy} cell at {X_COLUMNS[axis]} "
                  f"{x_value:g} (seed {row.seed})", file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    reports, ok = run_gradcheck(corrupt_op=getattr(args, "corrupt_op", None))
    for r in reports:
        print(r.line())
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_sample_check(args) -> int:
    reports, ok = run_sample_check()
    for line in format_sample_report(reports):
        print(line)
    return EXIT_OK if ok else EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    handlers = {"gen-data": _cmd_gen_data, "train": _cmd_train, "sweep": _cmd_sweep,
                "gradcheck": _cmd_gradcheck, "sample-check": _cmd_sample_check}
    try:
        args = _parse_args(argv)
        return handlers[args.command](args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
