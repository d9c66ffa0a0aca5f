"""Command line entry point.

    robustrec <command> [--config FILE] [--cache DIR] [--section.key VALUE ...]

Any config key can be overridden with its dotted path, e.g.
`--defense.lambda 0.5` or `--model.algo cer`. Commands: ingest, train,
attack, evaluate, sweep, report.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..robustness import DefenseConfig, fmt_eps, scale_attack
from .config import ConfigError, apply_override, load_config, training_config
from .report import write_report
from .sweep import (Run, Sweep, SweepCell, budgets, ensure_attack, ensure_trained, load_dataset,
                    new_model, resolve_cache, run_sweep, sweep_cell)
from .training import hyperparameter_search


def parse_override_tokens(tokens: list[str]) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise SystemExit(f"unexpected argument: {tok!r}")
        body = tok[2:]
        if "=" in body:
            path, raw = body.split("=", 1)
            i += 1
        else:
            if i + 1 >= len(tokens):
                raise SystemExit(f"missing value for override {tok!r}")
            path, raw = body, tokens[i + 1]
            i += 2
        pairs.append((path, raw))
    return pairs


def _cell(cfg: dict) -> SweepCell:
    """The cell the config's model, defense and training sections name."""
    return sweep_cell(cfg["model"]["algo"], cfg["defense"]["lambda"], cfg["defense"]["eps_d"],
                      cfg["training"]["seed"])


def cmd_ingest(cfg: dict, cache: Path, args) -> None:
    print(json.dumps(load_dataset(cfg, cache).stats, indent=2, sort_keys=True))


def cmd_train(cfg: dict, cache: Path, args) -> None:
    sweep, cell = Sweep(cfg, cache), _cell(cfg)
    if args.search:
        lr, wd, _ = hyperparameter_search(lambda: new_model(cfg, cell, sweep.data),
                                          sweep.data.split, DefenseConfig(cell.lam, cell.eps_d),
                                          training_config(cfg),
                                          cell.seed, search_epochs=args.search_epochs)
        cfg["training"]["lr"] = lr
        cfg["training"]["weight_decay"] = wd
        print(f"search selected lr={lr:g} weight_decay={wd:g}", file=sys.stderr)
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
    gradient, path = ensure_attack(cfg, run.cell, run.model, run.dir, run.attack_key)
    print(json.dumps({
        "run_id": run.run_id, "grad_norm": gradient.grad_norm, "artifact": str(path),
        "delta_norm": {fmt_eps(e): scale_attack(gradient, e).delta_norm for e in grid},
    }, indent=2, sort_keys=True))


def cmd_evaluate(cfg: dict, cache: Path, args) -> None:
    # as in a sweep: the dataset, model and gradient load only to build the row
    [row] = Run(Sweep(cfg, cache), _cell(cfg)).rows(budgets([args.eps_a]))
    print(json.dumps(row, indent=2, sort_keys=True))


def cmd_sweep(cfg: dict, cache: Path, args) -> None:
    out = run_sweep(cfg, cache)
    print(out)


def cmd_report(cfg: dict, cache: Path, args) -> None:
    results = Path(args.results) if args.results else cache / "results.csv"
    out_dir = Path(args.out) if args.out else cache / "report"
    written = write_report(results, out_dir, curve_lambda=args.curve_lambda)
    for path in written:
        print(path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="robustrec",
        description="Train, attack and evaluate robust explainable recommenders.")
    parser.add_argument("--config", help="JSON config file (defaults otherwise)")
    parser.add_argument("--cache", help="cache root (default: $ROBUSTREC_CACHE or ./cache)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", help="parse reviews, build the split and aspect matrices, print stats")
    p_train = sub.add_parser("train", help="train one model per the config's defense settings")
    p_train.add_argument("--search", action="store_true",
                         help="grid-search lr and weight decay first")
    p_train.add_argument("--search-epochs", type=int, default=5)
    p_attack = sub.add_parser("attack", help="compute a trained run's weight-attack gradient "
                                             "and the delta norm per budget")
    p_attack.add_argument("--eps-a", type=float, default=None,
                          help="single budget (default: the config grid's nonzero entries)")
    p_eval = sub.add_parser("evaluate", help="evaluate one run (clean or attacked)")
    p_eval.add_argument("--eps-a", type=float, default=0.0)
    sub.add_parser("sweep", help="run the full grid and write results.csv")
    p_report = sub.add_parser("report", help="aggregate results.csv into tables and curves")
    p_report.add_argument("--results", default=None)
    p_report.add_argument("--out", default=None)
    p_report.add_argument("--curve-lambda", type=float, default=0.5)

    args, unknown = parser.parse_known_args(argv)
    try:
        cfg = load_config(args.config)
        for dotted, raw in parse_override_tokens(unknown):
            apply_override(cfg, dotted, raw)
    except ConfigError as e:
        parser.error(str(e))
    cache = resolve_cache(args.cache)
    handlers = {"ingest": cmd_ingest, "train": cmd_train, "attack": cmd_attack,
                "evaluate": cmd_evaluate, "sweep": cmd_sweep, "report": cmd_report}
    handlers[args.command](cfg, cache, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
