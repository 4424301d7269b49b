"""Command-line interface: train, transfer, similarity, rank, matrix, report."""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from .core import Dataset, check_count, find_ucr_pair, load_ucr_dataset
from .fcn import TrainConfig, evaluate
from .harness import (
    _fine_tune_run,
    _scratch_run,
    load_matrix_results,
    run_matrix,
    write_report,
    write_variation_csv,
)
from .similarity import (
    rank_sources,
    read_matrix_csv,
    similarity_matrix,
    write_matrix_csv,
    write_ranking_json,
)
from .transfer import load_model, save_model


def _load_dataset(data_dir: str, name: str) -> Dataset:
    train_path, test_path = find_ucr_pair(data_dir, name)
    return load_ucr_dataset(train_path, test_path, name)


def _load_datasets(args) -> list[Dataset]:
    """Every dataset named in the comma-separated --datasets, in order."""
    return [_load_dataset(args.data, n) for n in args.datasets.split(",") if n]


def _add_train_opts(parser):
    defaults = TrainConfig()
    parser.add_argument("--epochs", type=int, default=defaults.epochs)
    parser.add_argument("--batch", type=int, default=defaults.batch_size)
    parser.add_argument("--lr", type=float, default=defaults.learning_rate)
    parser.add_argument("--seed", type=int, default=defaults.seed)


def _train_config(args) -> TrainConfig:
    return TrainConfig(epochs=args.epochs, batch_size=args.batch, learning_rate=args.lr)


def _run_phase(args, dataset: Dataset, run, done: str) -> int:
    """Run one phase of a matrix cell on a dataset and report it.

    `run(dataset, config, seed)` is `_scratch_run` or a `_fine_tune_run`
    bound to its pretrained model. Prints `done` with the epochs and the
    time taken, the best epoch and the test accuracy; saves the model to
    --out if set.
    """
    tic = time.perf_counter()
    model, history, _ = run(dataset, args.config, args.seed)
    print(f"{done} {args.config.epochs} epochs in {time.perf_counter() - tic:.1f}s")
    if history.best_epoch:
        print(
            f"best epoch {history.best_epoch}: "
            f"loss {history.losses[history.best_epoch - 1]:.6f}, "
            f"train accuracy {history.accuracies[history.best_epoch - 1]:.4f}"
        )
    if dataset.test:
        print(f"test accuracy {evaluate(model, dataset.test):.4f}")
    if args.out:
        save_model(model, args.out)
        print(f"saved model to {args.out}")
    return 0


def _cmd_train(args) -> int:
    dataset = _load_dataset(args.data, args.name)
    return _run_phase(args, dataset, _scratch_run,
                      f"trained {dataset.name}: {len(dataset.train)} series,")


def _cmd_transfer(args) -> int:
    run = functools.partial(_fine_tune_run, load_model(args.source))
    dataset = _load_dataset(args.data, args.target)
    return _run_phase(args, dataset, run, f"fine-tuned on {dataset.name} for")


def _cmd_similarity(args) -> int:
    datasets = _load_datasets(args)
    matrix = similarity_matrix(datasets)
    write_matrix_csv(matrix, args.out)
    print(f"wrote {len(datasets)}x{len(datasets)} similarity matrix to {args.out}")
    return 0


def _cmd_rank(args) -> int:
    matrix = read_matrix_csv(args.matrix)
    ranking = rank_sources(matrix, args.target)
    write_ranking_json(ranking, args.out)
    for k, (name, dist) in enumerate(ranking.ranked, start=1):
        print(f"{k:3d}  {name}  {dist:.6g}")
    print(f"wrote ranking to {args.out}")
    return 0


def _cmd_matrix(args) -> int:
    datasets = _load_datasets(args)
    seeds = [args.seed + k for k in range(args.seeds)]
    matrix = run_matrix(datasets, args.config, seeds=seeds, out_dir=args.out_dir)
    csv_path = os.path.join(args.out_dir, "variation_matrix.csv")
    write_variation_csv(matrix, csv_path)
    done = len(matrix.cells)
    print(f"{done} cells complete, {len(matrix.failures)} failed")
    for (s, t), err in sorted(matrix.failures.items()):
        print(f"  FAILED {s} -> {t}: {err}")
    print(f"wrote variation matrix to {csv_path}")
    return 0 if not matrix.failures else 1


def _cmd_report(args) -> int:
    similarity = read_matrix_csv(args.matrix)
    matrix = load_matrix_results(args.results)
    aggregate_path = args.aggregate_out
    if aggregate_path is None:
        base, _ = os.path.splitext(args.out)
        aggregate_path = base + ".aggregate.csv"
    report = write_report(matrix, similarity, args.out, aggregate_path=aggregate_path)
    totals = report["totals"]
    idle = [n for n in matrix.names if not any(n in cell for cell in matrix.cells)]
    print(
        f"smart vs random: {totals['wins']} wins, {totals['ties']} ties, "
        f"{totals['losses']} losses over {len(report['targets'])} targets"
        + (f"; no completed cell for {', '.join(idle)}" if idle else "")
    )
    print(f"wrote report to {args.out} and aggregates to {aggregate_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tstransfer",
        description=(
            "Train 1-D fully convolutional time-series classifiers, transfer "
            "them between datasets, and pick source datasets by warping-"
            "distance similarity."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from scratch on one dataset")
    p.add_argument("name")
    p.add_argument("--data", required=True, help="directory with UCR-format files")
    _add_train_opts(p)
    p.add_argument("--out", default=None, help="write the trained model here (.fcn)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("transfer", help="fine-tune a saved model on a target dataset")
    p.add_argument("--source", required=True, help="pretrained model file (.fcn)")
    p.add_argument("--target", required=True, help="target dataset name")
    p.add_argument("--data", required=True)
    _add_train_opts(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("similarity", help="compute the inter-dataset distance matrix")
    p.add_argument("--data", required=True)
    p.add_argument("--datasets", required=True, help="comma-separated dataset names")
    p.add_argument("--out", required=True, help="matrix CSV path")
    p.set_defaults(func=_cmd_similarity)

    p = sub.add_parser("rank", help="rank candidate sources for a target dataset")
    p.add_argument("--matrix", required=True, help="similarity matrix CSV")
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True, help="ranking JSON path")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("matrix", help="run all pairwise transfer experiments")
    p.add_argument("--data", required=True)
    p.add_argument("--datasets", required=True)
    p.add_argument("--out-dir", required=True)
    _add_train_opts(p)
    p.add_argument("--seeds", type=int, default=1, help="seeds per cell (averaged)")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("report", help="aggregate experiment results into reports")
    p.add_argument("--results", required=True, help="matrix run output directory")
    p.add_argument("--matrix", required=True, help="similarity matrix CSV")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--aggregate-out", default=None)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Training settings, the seed count and every output's directory
        # are checked before a command loads or computes anything.
        if "lr" in args:
            args.config = _train_config(args)
        if "seeds" in args:
            check_count("seeds", args.seeds, 1)
        for out in (getattr(args, "out", None), getattr(args, "aggregate_out", None)):
            if out and not os.path.isdir(os.path.dirname(out) or "."):
                raise FileNotFoundError(f"no directory for output {out!r}")
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
