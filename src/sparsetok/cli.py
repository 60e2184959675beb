"""Command-line harness: gen-data, train, sweep, gradcheck, sample-check.

Exit codes: 0 success, 1 usage/config error, 2 verification failure, 3 I/O
error. Flags override values from a `--config key=value` file, which in turn
overrides the built-in defaults. STKN_THREADS caps sweep parallelism.
"""
from __future__ import annotations

import argparse
import math
import sys

from .checks import format_sample_report, run_gradcheck, run_sample_check
from .data import NeedleSpec, generate_dataset, load_dataset, write_dataset
from .errors import ConfigError, ParseError, SchemaError
from .selection import STRATEGY_KINDS, StrategyConfig
from .sweep import CURVE_STRATEGIES, SWEEP_AXES, X_COLUMNS, run_sweep
from .train import RunConfig, k_for_fraction, train_run

EXIT_OK, EXIT_USAGE, EXIT_VERIFY, EXIT_IO = 0, 1, 2, 3

# a run (`train`, or one `sweep` cell) has diverged when its last epoch's
# train loss exceeds the first epoch's by more than this factor
DIVERGENCE_FACTOR = 10.0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sparsetok",
                     description="Token sparsification benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value file; explicit flags override it")
        p.add_argument("--seed", type=int)
        p.add_argument("--out")

    g = sub.add_parser("gen-data", help="generate a needle dataset file")
    common(g)
    g.add_argument("--count", type=int)
    g.add_argument("--n", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--classes", type=int)
    g.add_argument("--noise-std", type=float)
    g.add_argument("--decoy-scale", type=float)
    g.add_argument("--num-informative", type=int)
    g.add_argument("--multimodal", action="store_true", default=None)
    g.add_argument("--distractor-mode", choices=("pure_noise", "decoy_prototypes"))

    def training_flags(p):
        common(p)
        p.add_argument("--dataset")
        p.add_argument("--strategy", choices=STRATEGY_KINDS)
        p.add_argument("--keep-fraction", type=float)
        p.add_argument("--tau", type=float)
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--target-ratio", type=float)
        p.add_argument("--epochs", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--batch-size", type=int)
        p.add_argument("--eval-fraction", type=float)
        p.add_argument("--channel", choices=("both", "visual", "textual"))
        p.add_argument("--positions", choices=("compact", "original"))

    t = sub.add_parser("train", help="train one run, write metrics + checkpoint")
    training_flags(t)

    s = sub.add_parser("sweep", help="run a grid and plot the accuracy curve")
    training_flags(s)
    s.add_argument("--axis", choices=SWEEP_AXES)
    s.add_argument("--grid", help="comma-separated grid values")
    s.add_argument("--seeds", type=int, help="replicates per cell")
    s.add_argument("--strategies", help="comma-separated strategy subset (sparsity axis)")

    c = sub.add_parser("gradcheck", help="finite-difference verification suites")
    c.add_argument("--corrupt-op", help=argparse.SUPPRESS)  # negative-control hook

    sub.add_parser("sample-check", help="Monte-Carlo sampling verification")
    return parser


_DEFAULTS = {
    "seed": 1, "count": 2000, "n": 32, "d": 16, "classes": 4, "noise_std": 0.5,
    "decoy_scale": 0.3, "num_informative": 3, "multimodal": False,
    "distractor_mode": "pure_noise", "strategy": "gumbel_topk",
    "keep_fraction": 0.3, "tau": 0.1, "lam": 1.0, "target_ratio": None,
    "epochs": 30, "lr": 0.1, "batch_size": 32, "eval_fraction": 0.2,
    "channel": "both", "positions": "compact", "axis": "sparsity",
    "grid": None, "seeds": 1, "strategies": None, "out": None, "dataset": None,
}

_BOOL_KEYS = {"multimodal"}
_INT_KEYS = {"seed", "count", "n", "d", "classes", "num_informative", "epochs",
             "batch_size", "seeds"}
_FLOAT_KEYS = {"noise_std", "decoy_scale", "keep_fraction", "tau", "lam",
               "target_ratio", "lr", "eval_fraction"}


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


def _coerce(key: str, raw):
    if not isinstance(raw, str):
        return raw
    if key in _BOOL_KEYS:
        return raw.lower() in ("1", "true", "yes")
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    return raw


def _resolve(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    merged = dict(_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        for key, raw in _load_config_file(config_path).items():
            if key not in merged:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = _coerce(key, raw)
    for key, value in vars(args).items():
        if key in merged and value is not None:
            merged[key] = value
    return merged


def _spec_from(opt: dict) -> NeedleSpec:
    return NeedleSpec(n=opt["n"], d=opt["d"], num_informative=opt["num_informative"],
                      num_classes=opt["classes"], noise_std=opt["noise_std"],
                      distractor_mode=opt["distractor_mode"],
                      decoy_scale=opt["decoy_scale"], multimodal=opt["multimodal"])


def _strategy_from(opt: dict, n_tokens: int) -> StrategyConfig:
    kind = opt["strategy"]
    if kind == "ratio_controlled":
        ratio = opt["target_ratio"]
        if ratio is None:
            ratio = opt["keep_fraction"]
        return StrategyConfig(kind, target_ratio=ratio, tau=opt["tau"], lam=opt["lam"])
    return StrategyConfig(kind, k=k_for_fraction(opt["keep_fraction"], n_tokens),
                          tau=opt["tau"], lam=opt["lam"])


def _run_config(opt: dict) -> tuple[RunConfig, int]:
    if not opt["dataset"]:
        raise ConfigError("--dataset is required")
    _, header = load_dataset(opt["dataset"])
    n_tokens = header["n"]
    cfg = RunConfig(dataset=opt["dataset"], strategy=_strategy_from(opt, n_tokens),
                    lr=opt["lr"], epochs=opt["epochs"], batch_size=opt["batch_size"],
                    seed=opt["seed"], eval_fraction=opt["eval_fraction"],
                    out_dir=opt["out"], channel=opt["channel"],
                    positions=opt["positions"])
    return cfg, n_tokens


def _cmd_gen_data(args) -> int:
    opt = _resolve(args)
    if not opt["out"]:
        raise ConfigError("--out is required")
    spec = _spec_from(opt)
    examples = generate_dataset(spec, opt["count"], opt["seed"])
    write_dataset(examples, opt["out"], spec, opt["seed"])
    print(f"wrote {len(examples)} examples to {opt['out']}")
    return EXIT_OK


def _cmd_train(args) -> int:
    opt = _resolve(args)
    if not opt["out"]:
        raise ConfigError("--out is required")
    cfg, _ = _run_config(opt)
    result = train_run(cfg)
    diverged = [row for row in result.rows if not math.isfinite(row.train_loss)]
    if diverged:
        print(f"error: train loss is {diverged[0].train_loss} at epoch {diverged[0].epoch} "
              f"(metrics: {result.metrics_path})", file=sys.stderr)
        return EXIT_VERIFY
    first, final = result.rows[0], result.final
    if final.train_loss > DIVERGENCE_FACTOR * first.train_loss:
        print(f"error: train loss diverged from {first.train_loss:.6g} at epoch {first.epoch} "
              f"to {final.train_loss:.6g} at epoch {final.epoch}, more than "
              f"{DIVERGENCE_FACTOR:g}x (metrics: {result.metrics_path})", file=sys.stderr)
        return EXIT_VERIFY
    print(f"final epoch {final.epoch}: loss={final.train_loss:.4f} "
          f"accuracy={final.eval_accuracy:.4f} keep_ratio={final.mean_keep_ratio:.4f} "
          f"recall={final.selection_recall:.4f}")
    print(f"metrics: {result.metrics_path}")
    print(f"checkpoint: {result.checkpoint_path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    opt = _resolve(args)
    if not opt["out"]:
        raise ConfigError("--out is required")
    cfg, n_tokens = _run_config(opt)
    cfg.out_dir = None
    grid = None
    if opt["grid"]:
        grid = tuple(float(v) for v in str(opt["grid"]).split(","))
    strategies = CURVE_STRATEGIES
    if opt["strategies"]:
        strategies = tuple(str(opt["strategies"]).split(","))
        unknown = set(strategies) - set(STRATEGY_KINDS)
        if unknown:
            raise ConfigError(f"unknown strategies {sorted(unknown)}")
    axis = opt["axis"]
    rows, csv_path, svg_path = run_sweep(axis, cfg, n_tokens, opt["seeds"],
                                         opt["out"], grid, strategies)
    print(f"{len(rows)} rows -> {csv_path}")
    print(f"curve -> {svg_path}")

    def where(row) -> str:
        x_value = {"tau": row.tau, "lambda": row.lam}.get(axis, row.keep_fraction)
        return f"the {row.strategy} cell at {X_COLUMNS[axis]} {x_value:g} (seed {row.seed})"

    diverged = [row for row in rows if not math.isfinite(row.train_loss)]
    if diverged:
        print(f"error: train loss is {diverged[0].train_loss} in {where(diverged[0])}",
              file=sys.stderr)
        return EXIT_VERIFY
    diverged = [row for row in rows
                if row.train_loss > DIVERGENCE_FACTOR * row.first_train_loss]
    if diverged:
        row = diverged[0]
        print(f"error: train loss diverged from {row.first_train_loss:.6g} in the first "
              f"epoch to {row.train_loss:.6g} in the last, more than "
              f"{DIVERGENCE_FACTOR:g}x, in {where(row)}", file=sys.stderr)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen-data": _cmd_gen_data, "train": _cmd_train, "sweep": _cmd_sweep,
                "gradcheck": _cmd_gradcheck, "sample-check": _cmd_sample_check}
    try:
        return handlers[args.command](args)
    except (ConfigError, SchemaError, ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
