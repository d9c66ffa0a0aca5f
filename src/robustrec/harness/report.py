"""Aggregate results.csv into seed-averaged tables and F1-vs-eps_a curves."""
from __future__ import annotations

import csv
from pathlib import Path

from ..robustness import fmt_eps
from .sweep import RESULT_COLUMNS, RESULT_TABLE


class ResultsError(ValueError):
    pass


def read_results(path: str | Path) -> list[dict]:
    """results.csv rows, each cell parsed by its column of `RESULT_TABLE`. A
    header other than `RESULT_COLUMNS`, a row of another length or a cell its
    column cannot parse raises ResultsError naming the file and the column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != RESULT_COLUMNS:
            unknown = [c for c in header if c not in RESULT_TABLE]
            missing = [c for c in RESULT_COLUMNS if c not in header]
            problem = (f"unknown column {unknown[0]!r}" if unknown else
                       f"missing column {missing[0]!r}" if missing else
                       f"header must be {RESULT_COLUMNS}, got {header}")
            raise ResultsError(f"{path}: {problem}")
        rows = []
        for cells in reader:
            if len(cells) != len(header):
                raise ResultsError(f"{path}: line {reader.line_num}: {len(cells)} cells, "
                                   f"expected {len(header)}")
            row = {}
            for c, cell in zip(header, cells):
                try:
                    row[c] = RESULT_TABLE[c].parse(cell)
                except ValueError:
                    raise ResultsError(f"{path}: line {reader.line_num}: column {c!r} "
                                       f"cannot hold {cell!r}") from None
            rows.append(row)
        return rows


def write_report(results_path: str | Path, out_dir: str | Path,
                 curve_lambda: float = 0.5) -> list[Path]:
    """Write aggregate.csv plus curve_<algo>_<dataset>_<eps_d>.csv files
    (expl_f1 against eps_a, averaged over seeds, at `curve_lambda`). Vanilla
    rows get their own curve_<algo>_<dataset>_vanilla.csv. aggregate.csv's
    non_cf_rate is sum(n_non_cf) / sum(n_pairs) over a group's runs, empty
    when the group explained no pair."""
    rows = read_results(results_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    # seed-averaged long table
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["algo"], row["dataset"], row["lambda"], row["eps_d"],
               row["eps_a"], row["condition"])
        groups.setdefault(key, []).append(row)
    agg_path = out / "aggregate.csv"
    with open(agg_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algo", "dataset", "lambda", "eps_d", "eps_a", "condition",
                         "ndcg", "expl_pr", "expl_re", "expl_f1", "non_cf_rate", "n_runs"])
        for key in sorted(groups):
            bucket = groups[key]
            n = len(bucket)
            means = [sum(r[m] for r in bucket) / n
                     for m in ("ndcg", "expl_pr", "expl_re", "expl_f1")]
            n_pairs = sum(r["n_pairs"] for r in bucket)
            non_cf_rate = (f"{sum(r['n_non_cf'] for r in bucket) / n_pairs:.6f}"
                           if n_pairs else "")
            algo, dataset, lam, eps_d, eps_a, condition = key
            writer.writerow([algo, dataset, fmt_eps(lam), fmt_eps(eps_d),
                             fmt_eps(eps_a), condition,
                             *(f"{v:.6f}" for v in means), non_cf_rate, n])
    written.append(agg_path)

    # one curve per (algo, dataset, eps_d) at the figure lambda, plus vanilla
    pairs = sorted({(r["algo"], r["dataset"]) for r in rows})
    for algo, dataset in pairs:
        sub = [r for r in rows if r["algo"] == algo and r["dataset"] == dataset]
        lams = sorted({r["lambda"] for r in sub if r["lambda"] > 0.0})
        lam = curve_lambda if curve_lambda in lams else (lams[-1] if lams else None)
        curves: dict[str, list[dict]] = {}
        if any(r["lambda"] == 0.0 for r in sub):
            curves["vanilla"] = [r for r in sub if r["lambda"] == 0.0]
        if lam is not None:
            for eps_d in sorted({r["eps_d"] for r in sub if r["lambda"] == lam}):
                curves[fmt_eps(eps_d)] = [r for r in sub
                                          if r["lambda"] == lam and r["eps_d"] == eps_d]
        for tag, bucket in curves.items():
            by_eps: dict[float, list[float]] = {}
            for r in bucket:
                by_eps.setdefault(r["eps_a"], []).append(r["expl_f1"])
            curve_path = out / f"curve_{algo}_{dataset}_{tag}.csv"
            with open(curve_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["eps_a", "expl_f1"])
                for eps_a in sorted(by_eps):
                    vals = by_eps[eps_a]
                    writer.writerow([fmt_eps(eps_a), f"{sum(vals) / len(vals):.6f}"])
            written.append(curve_path)
    return written
