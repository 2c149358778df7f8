"""Command-line entry point: gen-data, train, eval, sweep and hist. Exit
status is 0 on success; a failure prints one diagnostic line to stderr and
returns nonzero (130 after an interrupt). Each subcommand checks its ``--out``
before any work and writes through ``harness.write_files`` once it is done.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import MAX_ARRAY_VALUES, CsvOodSpec, load_config, parse_value
from .data import dataset_csv
from .harness import (
    REPORT_FILES,
    Checkpoint,
    build_datasets,
    build_raw_datasets,
    check_writable,
    evaluate,
    scores_csv_to_histograms,
    sweep,
    train,
    write_files,
    write_sweep_csv,
)
from .metrics import histogram_csv

__all__ = ["main"]


def _config_from_args(args):
    overrides = list(args.set or [])
    if getattr(args, "seed", None) is not None:
        overrides.append(f"seed={int(args.seed)}")
    return load_config(args.config, overrides)


def _check_out_dir(out_dir: Path, names) -> None:
    """Raise OSError unless every file in ``names`` can be written in
    ``out_dir``. Nothing is created: the command makes a missing ``out_dir``
    after its work, so its first missing component must be creatable in an
    existing directory."""
    missing, target = None, out_dir
    while not target.exists() and target.parent != target:
        missing, target = target, target.parent
    if not target.is_dir():
        raise OSError(f"cannot write {out_dir}: {target} is not a directory")
    for path in [missing] if missing else [out_dir / name for name in names]:
        check_writable(path)


def _cmd_gen_data(args) -> int:
    config = _config_from_args(args)
    out_dir = Path(args.out)
    specs = config.data.ood if config.data is not None else ()
    _check_out_dir(out_dir, ["id_train.csv", "id_test.csv", *(f"ood_{spec.name}.csv" for spec in specs)])
    id_train, id_test, ood, _ = build_raw_datasets(config)
    written = {"id_train": id_train, "id_test": id_test, **{f"ood_{name}": ds for name, ds in ood.items()}}
    out_dir.mkdir(parents=True, exist_ok=True)
    write_files({out_dir / f"{name}.csv": [dataset_csv(ds)] for name, ds in written.items()})
    for name in written:
        print(f"wrote {out_dir / name}.csv")
    return 0


def _cmd_train(args) -> int:
    config = _config_from_args(args)

    def progress(epoch, loss, err):
        if not args.quiet:
            print(f"epoch {epoch:4d}  loss {loss:.6f}  test error {err:.4f}")

    out = Path(args.out)
    check_writable(out)
    checkpoint = train(config, progress=progress)
    checkpoint.save(out)
    print(
        f"saved checkpoint to {out} "
        f"(final loss {checkpoint.train_loss[-1]:.6f}, test error {checkpoint.test_error[-1]:.4f})"
    )
    return 0


def _cmd_eval(args) -> int:
    _check_out_dir(Path(args.out), REPORT_FILES)
    checkpoint = Checkpoint.load(args.checkpoint)
    config = checkpoint.config
    if args.ood and config.data is not None:
        # Each 'name=path.csv', or 'path.csv' named after its stem, replaces the config's OOD
        # specs; DataSpec checks the names before any file is read, and build_datasets the sets.
        specs = tuple(CsvOodSpec(*e.split("=", 1)) if "=" in e else CsvOodSpec(Path(e).stem, e) for e in args.ood)
        config = replace(config, data=replace(config.data, ood=specs))
    bundle = build_datasets(config)
    methods = tuple(args.methods.split(",")) if args.methods else None
    report = evaluate(checkpoint, bundle, methods=methods, histogram_bins=args.bins)
    paths = report.write(args.out)
    print(f"id_test error rate: {report.id_error_rate:.4f}")
    print(f"{'method':<12} {'ood_dataset':<18} {'fpr95':>8} {'auroc':>8} {'aupr':>8}")
    for method, ood_name, r in report.metric_rows:
        print(f"{method:<12} {ood_name:<18} {r.fpr95:8.4f} {r.auroc:8.4f} {r.aupr:8.4f}")
    for path in paths.values():
        print(f"wrote {path}")
    return 0


def _parse_grid(entries) -> dict[str, list]:
    grid: dict[str, list] = {}
    for entry in entries:
        key, sep, values = entry.partition("=")
        if not sep or not key or not values:
            raise ValueError(f"grid entry {entry!r} is not of the form key=v1,v2,...")
        grid[key] = [parse_value(raw) for raw in values.split(",")]
    return grid


def _cmd_sweep(args) -> int:
    config = _config_from_args(args)
    grid = _parse_grid(args.grid)
    check_writable(args.out)

    def progress(idx, cell):
        if not args.quiet:
            assignments = ", ".join(f"{k}={v}" for k, v in cell.items())
            print(f"cell {idx}: {assignments}")

    rows = sweep(config, grid, progress=progress)
    write_sweep_csv(rows, args.out)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_hist(args) -> int:
    if not 1 <= args.bins <= MAX_ARRAY_VALUES:
        raise ValueError(f"--bins must be at least 1 and at most {MAX_ARRAY_VALUES}, got {args.bins}")
    check_writable(args.out)
    rows = scores_csv_to_histograms(args.scores, args.bins)
    write_files({args.out: [histogram_csv(rows)]})
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _add_config_args(sub) -> None:
    sub.add_argument("--config", required=True, help="experiment config JSON")
    sub.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config key (dotted paths allowed, e.g. --set lambda=0.5)",
    )
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uenl",
        description="Train and evaluate OOD detectors with learned-uncertainty logit normalization.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("gen-data", help="generate the config's datasets as CSV files")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=_cmd_gen_data)

    p = subparsers.add_parser("train", help="train a model and save a checkpoint")
    _add_config_args(p)
    p.add_argument("--out", default="model.ckpt.json", help="checkpoint path (default model.ckpt.json)")
    p.add_argument("--quiet", action="store_true", help="suppress per-epoch progress")
    p.set_defaults(handler=_cmd_train)

    p = subparsers.add_parser("eval", help="evaluate a checkpoint and write report CSVs")
    p.add_argument("--checkpoint", required=True, help="checkpoint produced by train")
    p.add_argument(
        "--ood",
        action="append",
        metavar="[NAME=]PATH",
        help="score this OOD CSV instead of the config's OOD sets (repeatable)",
    )
    p.add_argument("--methods", default=None, help="comma-separated scoring methods")
    p.add_argument("--bins", type=int, default=None, help="histogram bin count")
    p.add_argument("--out", default="eval_out", help="report directory (default eval_out)")
    p.set_defaults(handler=_cmd_eval)

    p = subparsers.add_parser("sweep", help="train/evaluate a config grid and write one CSV row per cell")
    _add_config_args(p)
    p.add_argument(
        "--grid",
        action="append",
        required=True,
        metavar="KEY=V1,V2,...",
        help="values to sweep for a config key (repeatable; full cross product)",
    )
    p.add_argument("--out", default="sweep.csv", help="output CSV (default sweep.csv)")
    p.add_argument("--quiet", action="store_true", help="suppress per-cell progress")
    p.set_defaults(handler=_cmd_sweep)

    p = subparsers.add_parser("hist", help="re-bin a scores CSV into a histogram CSV")
    p.add_argument("--scores", required=True, help="scores CSV from eval")
    p.add_argument("--out", default="histograms.csv", help="output CSV (default histograms.csv)")
    p.add_argument("--bins", type=int, default=30, help="bin count (default 30)")
    p.set_defaults(handler=_cmd_hist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        # Non-finite values fail checks that name them; numpy's warnings would add stderr lines.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return args.handler(args)
    except (ValueError, OSError, RuntimeError, FloatingPointError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
