"""Command-line interface: train, transfer, similarity, rank, matrix, report."""

from __future__ import annotations

import argparse
import os
import sys
import time

from .core import Dataset, find_ucr_pair, load_ucr_dataset
from .dba import DbaConfig
from .fcn import TrainConfig, evaluate
from .harness import (
    _scratch_run,
    derive_seed,
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
from .transfer import ModelFileError, fine_tune, load_model, save_model


def _load_dataset(data_dir: str, name: str) -> Dataset:
    train_path, test_path = find_ucr_pair(data_dir, name)
    return load_ucr_dataset(train_path, test_path, name)


def _add_train_opts(parser):
    defaults = TrainConfig()
    parser.add_argument("--epochs", type=int, default=defaults.epochs)
    parser.add_argument("--batch", type=int, default=defaults.batch_size)
    parser.add_argument("--lr", type=float, default=defaults.learning_rate)
    parser.add_argument("--seed", type=int, default=defaults.seed)


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        seed=args.seed,
    )


def _report_training(model, history, dataset: Dataset, out) -> None:
    """Print the best epoch and the test accuracy; save the model to out if set."""
    if history.best_epoch:
        print(
            f"best epoch {history.best_epoch}: "
            f"loss {history.losses[history.best_epoch - 1]:.6f}, "
            f"train accuracy {history.accuracies[history.best_epoch - 1]:.4f}"
        )
    if dataset.test:
        print(f"test accuracy {evaluate(model, dataset.test):.4f}")
    if out:
        save_model(model, out)
        print(f"saved model to {out}")


def _cmd_train(args) -> int:
    dataset = _load_dataset(args.data, args.name)
    config = _train_config(args)
    tic = time.perf_counter()
    trained, history, _ = _scratch_run(dataset, config, args.seed)
    elapsed = time.perf_counter() - tic
    print(
        f"trained {dataset.name}: {len(dataset.train)} series, "
        f"{config.epochs} epochs in {elapsed:.1f}s"
    )
    _report_training(trained, history, dataset, args.out)
    return 0


def _cmd_transfer(args) -> int:
    pretrained = load_model(args.source)
    dataset = _load_dataset(args.data, args.target)
    config = _train_config(args)
    tic = time.perf_counter()
    tuned, history = fine_tune(
        pretrained, dataset, config, seed=derive_seed(args.seed, "head")
    )
    elapsed = time.perf_counter() - tic
    print(
        f"fine-tuned on {dataset.name} for {config.epochs} epochs in {elapsed:.1f}s"
    )
    _report_training(tuned, history, dataset, args.out)
    return 0


def _cmd_similarity(args) -> int:
    names = [n for n in args.datasets.split(",") if n]
    datasets = [_load_dataset(args.data, n) for n in names]
    matrix = similarity_matrix(datasets, DbaConfig(iterations=args.dba_iters))
    write_matrix_csv(matrix, args.out)
    print(f"wrote {len(names)}x{len(names)} similarity matrix to {args.out}")
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
    names = [n for n in args.datasets.split(",") if n]
    datasets = [_load_dataset(args.data, n) for n in names]
    config = _train_config(args)
    seeds = [args.seed + k for k in range(args.seeds)]
    matrix = run_matrix(datasets, config, seeds=seeds, out_dir=args.out_dir)
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
    report = write_report(
        matrix,
        similarity,
        args.out,
        aggregate_path=aggregate_path,
        iterations=args.random_iters,
        seed=args.seed,
    )
    totals = report["totals"]
    print(
        f"smart vs random: {totals['wins']} wins, {totals['ties']} ties, "
        f"{totals['losses']} losses over {len(report['targets'])} targets"
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

    p = sub.add_parser(
        "transfer", help="fine-tune a saved model on a target dataset",
        description=(
            "Fine-tune a saved model on a target dataset. --seed s seeds the new "
            "head with derive_seed(s, 'head') and trains with seed s. A matrix "
            "cell derives both seeds from its source and target names as well, "
            "and a .fcn file does not record its source dataset, so this does "
            "not reproduce a matrix cell's fine-tuned model."
        ),
    )
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
    p.add_argument(
        "--dba-iters", type=int, default=DbaConfig().iterations,
        help="DBA refinement steps per class prototype (default %(default)s); steps "
        "after a fixed point are skipped, which leaves the result unchanged",
    )
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
    p.add_argument("--random-iters", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--aggregate-out", default=None)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Every output's directory must exist before a command computes.
        for out in (getattr(args, "out", None), getattr(args, "aggregate_out", None)):
            if out and not os.path.isdir(os.path.dirname(out) or "."):
                raise FileNotFoundError(f"no directory for output {out!r}")
        return args.func(args)
    except (ValueError, KeyError, OSError, ModelFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
