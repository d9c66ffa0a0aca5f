"""Command line entry point.

    robustrec [--config FILE] [--cache DIR] [--section.key VALUE ...] <command> [...]

Any config key can be overridden with its dotted path, e.g. `--defense.lambda
0.5` or `--model.algo cer`, before or after the command, as can `--config` and
`--cache`. Commands: ingest, train, attack, evaluate, sweep, report.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable

from .. import robustness
from ..dataset import IngestError, SplitError
from ..robustness import TrainingConfig, fmt_eps, scale_attack
from .config import RULES, SETTINGS, ConfigError, apply_override, load_config, training_config
from .report import ResultsError, write_report
from .sweep import (Run, Sweep, SweepCell, budgets, ensure_trained, new_model, resolve_cache,
                    run_sweep, sweep_cell)

# ascending; the tie rule of the search relies on this order
HYPER_GRID: tuple[float, ...] = (1e-5, 1e-4, 0.001, 0.01, 0.05, 0.1, 0.5)


def _cell(cfg: dict) -> SweepCell:
    """The cell the config's model, defense and training sections name."""
    return sweep_cell(cfg["model"]["algo"], cfg["defense"]["lambda"], cfg["defense"]["eps_d"],
                      cfg["training"]["seed"])


def hyperparameter_search(make_model: Callable, split, defense, training: TrainingConfig,
                          seed: int, search_epochs: int,
                          grid: tuple[float, ...] = HYPER_GRID):
    """Full grid over learning rate x weight decay, judged by the best
    validation NDCG each run of `search_epochs` epochs reaches. Ties go to
    the smaller learning rate, then the smaller decay (the grid is ascending
    and `max` keeps the first of equal scores). Returns (lr, wd, table of
    (lr, wd, score))."""
    table: list[tuple[float, float, float]] = []
    for lr in grid:
        for wd in grid:
            cfg = replace(training, lr=lr, weight_decay=wd, max_epochs=search_epochs)
            result = robustness.train_defended(make_model(), split, defense, cfg, seed)
            table.append((lr, wd, max(result.history)))
    lr, wd, _ = max(table, key=lambda row: row[2])
    return lr, wd, table


def cmd_ingest(cfg: dict, cache: Path, args) -> None:
    print(json.dumps(Sweep(cfg, cache).data.stats, indent=2, sort_keys=True))


def cmd_train(cfg: dict, cache: Path, args) -> None:
    sweep, cell = Sweep(cfg, cache), _cell(cfg)
    if args.search:
        lr, wd, _ = hyperparameter_search(lambda: new_model(cfg, cell, sweep.data),
                                          sweep.data.split, cell.defense, training_config(cfg),
                                          cell.seed, args.search_epochs)
        cfg["training"]["lr"] = lr
        cfg["training"]["weight_decay"] = wd
        print(f"search selected lr={lr:g} weight_decay={wd:g}", file=sys.stderr)
    # the run is named after the search, whose lr and weight_decay its id hashes
    _, run_dir, run_id, manifest = ensure_trained(sweep, cell, Run(sweep, cell))
    print(json.dumps({
        "run_id": run_id,
        "checkpoint": str(run_dir / "checkpoint"),
        "best_epoch": manifest["best_epoch"],
        "epochs_trained": manifest["epochs_trained"],
        "val_ndcg": manifest["val_history"][manifest["best_epoch"]],
        "lr_used": manifest["lr_used"],
        "restarts": manifest["restarts"],
    }, indent=2, sort_keys=True))


def cmd_attack(cfg: dict, cache: Path, args) -> None:
    grid = budgets([args.eps_a] if args.eps_a is not None else
                   [e for e in cfg["attack"]["eps_a_grid"] if e != 0.0])
    run = Run(Sweep(cfg, cache), _cell(cfg))
    print(json.dumps({
        "run_id": run.run_id, "grad_norm": run.gradient.grad_norm, "artifact": str(run.attack_path),
        "delta_norm": {fmt_eps(e): scale_attack(run.gradient, e).delta_norm for e in grid},
    }, indent=2, sort_keys=True))


def cmd_evaluate(cfg: dict, cache: Path, args) -> None:
    [row] = Run(Sweep(cfg, cache), _cell(cfg)).rows(budgets([args.eps_a]))
    print(json.dumps(row, indent=2, sort_keys=True))


def cmd_sweep(cfg: dict, cache: Path, args) -> None:
    print(run_sweep(cfg, cache))


def cmd_report(cfg: dict, cache: Path, args) -> None:
    results = Path(args.results) if args.results else cache / "results.csv"
    out_dir = Path(args.out) if args.out else cache / "report"
    written = write_report(results, out_dir, curve_lambda=args.curve_lambda)
    for path in written:
        print(path)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a command's parser too: one line, no usage dump
        self.exit(2, f"robustrec: error: {message}\n")


def ruled(parse: type, rule: str) -> Callable[[str], float]:
    """An argparse type: the text read by `parse`, which row `rule` of `RULES` must allow."""
    def read(text: str):
        if not RULES[rule][0](value := parse(text)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value!r}")
        return value

    read.__name__ = parse.__name__  # argparse names it in "invalid <name> value"
    return read


def build_parser() -> argparse.ArgumentParser:
    """`--config`, `--cache` and a `--<dotted key>` per config key sit on a parent shared by
    every parser, so each works on either side of the command; unset, none overwrites."""
    common = _Parser(add_help=False, allow_abbrev=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", metavar="FILE", help="JSON config file (defaults otherwise)")
    common.add_argument("--cache", metavar="DIR",
                        help="cache root (default: $ROBUSTREC_CACHE or ./cache)")

    for key, (_, _, default, rule) in SETTINGS.items():
        common.add_argument(f"--{key}", metavar="VALUE", help=f"default {json.dumps(default)}"
                            + (f"; must be {rule}" if rule else ""))
    parser = _Parser(prog="robustrec", parents=[common], allow_abbrev=False,
                     description="Train, attack and evaluate robust explainable recommenders.")
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, parents=[common], allow_abbrev=False)
    command("ingest", help="parse reviews, build the split and aspect matrices, print stats")
    p_train = command("train", help="train one model per the config's defense settings")
    p_train.add_argument("--search", action="store_true",
                         help="grid-search lr and weight decay first")
    p_train.add_argument("--search-epochs", type=ruled(int, ">= 1"), default=5)
    p_attack = command("attack", help="compute a trained run's weight-attack gradient "
                                      "and the delta norm per budget")
    p_attack.add_argument("--eps-a", type=ruled(float, "finite and >= 0"), default=None,
                          help="single budget (default: the config grid's nonzero entries)")
    p_eval = command("evaluate", help="evaluate one run (clean or attacked)")
    p_eval.add_argument("--eps-a", type=ruled(float, "finite and >= 0"), default=0.0)
    command("sweep", help="run the full grid and write results.csv")
    p_report = command("report", help="aggregate results.csv into tables and curves")
    p_report.add_argument("--results", default=None)
    p_report.add_argument("--out", default=None)
    p_report.add_argument("--curve-lambda", type=float, default=0.5)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser, argv = build_parser(), sys.argv[1:] if argv is None else argv
    for token in argv:  # before argparse, which would take the value of one for the command
        key = token[2:].partition("=")[0]
        if token[:2] == "--" and "." in key and key not in SETTINGS:
            parser.error(f"unknown config key: {key!r}")
    args = parser.parse_args(argv)
    opts = vars(args)
    try:
        cfg = load_config(opts.get("config"))
        for dotted, raw in opts.items():
            if "." in dotted:  # of all options, only config keys have dotted names
                apply_override(cfg, dotted, raw)
    except ConfigError as e:
        parser.error(str(e))
    cache = resolve_cache(opts.get("cache"))
    handlers = {"ingest": cmd_ingest, "train": cmd_train, "attack": cmd_attack,
                "evaluate": cmd_evaluate, "sweep": cmd_sweep, "report": cmd_report}
    try:
        handlers[args.command](cfg, cache, args)
    except (ConfigError, IngestError, SplitError, ResultsError, OSError) as e:
        print(f"robustrec: error: {e}", file=sys.stderr)  # bad input: one line, no traceback
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
