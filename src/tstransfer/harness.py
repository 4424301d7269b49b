"""Pairwise transfer experiments, accuracy-variation matrix, and reports.

For every ordered (source, target) pair the harness trains a scratch
baseline on the target, pretrains on the source, fine-tunes on the target,
and evaluates both on the target test split. Cell results land on disk as
one JSON file per cell (written atomically), which doubles as the resume
state: completed cells are never retrained. Reports aggregate per-target
transfer accuracies and compare similarity-ranked source selection against
a random-selection baseline.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import DataValidationError, Dataset
from .fcn import TRAIN_DTYPE, TrainConfig, build_model, evaluate, train
from .similarity import SimilarityMatrix, SourceRanking, rank_sources
from .textfmt import dump_json_17g, fmt17
from .transfer import fine_tune

__all__ = [
    "UndefinedVariationError",
    "PairResult",
    "VariationMatrix",
    "accuracy_variation",
    "derive_seed",
    "run_pair",
    "run_matrix",
    "load_matrix_results",
    "write_variation_csv",
    "aggregate",
    "compare_selection",
    "write_report",
]

# The provenance every cell of one run shares, besides the dataset digests.
# Resume and load_matrix_results both check these keys.
_RUN_KEYS = ("seeds", "config", "train_dtype")

# Sampled random-selection means carry float summation noise; comparisons
# treat differences at or below this as ties.
_TIE_TOLERANCE = 1e-9


class UndefinedVariationError(ValueError):
    """Accuracy variation is undefined for a zero baseline."""


def accuracy_variation(baseline: float, transferred: float) -> float:
    """Percent change of the transferred accuracy over the baseline."""
    if not (0.0 <= baseline <= 1.0 and 0.0 <= transferred <= 1.0):
        raise ValueError(
            f"accuracies must lie in [0, 1], got {baseline} and {transferred}"
        )
    if baseline == 0.0:
        raise UndefinedVariationError("variation undefined for baseline accuracy 0")
    return 100.0 * (transferred - baseline) / baseline


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from arbitrary labels; identical across platforms."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


@dataclass(frozen=True)
class PairResult:
    """Outcome of one scratch-vs-transfer experiment on a (source, target) pair."""

    source: str
    target: str
    seed: int
    baseline_accuracy: float
    transfer_accuracy: float
    variation_percent: float | None
    baseline_best_epoch: int
    transfer_best_epoch: int
    derived_seeds: dict[str, int] = field(default_factory=dict)


def _scratch_run(dataset: Dataset, config: TrainConfig, seed: int, cache: dict):
    """Train a model from scratch on a dataset; memoized per (name, seed).

    Training is deterministic, so a training that raised is memoized too
    and its exception raised again.
    """
    key = ("scratch", dataset.name, seed)
    if key not in cache:
        init_seed = derive_seed(seed, dataset.name, "init")
        train_seed = derive_seed(seed, dataset.name, "train")
        model = build_model(dataset.class_count, seed=init_seed)
        try:
            trained, history = train(
                model, dataset.train, replace(config, seed=train_seed)
            )
        except Exception as exc:  # noqa: BLE001 - re-raised below, every call
            cache[key] = exc
        else:
            cache[key] = trained, history, {"init": init_seed, "train": train_seed}
    if isinstance(cache[key], Exception):
        raise cache[key]
    return cache[key]


def _baseline_accuracy(model, target: Dataset, seed: int, cache: dict) -> float:
    """Test accuracy of the scratch baseline; memoized per (target, seed)."""
    key = ("baseline_accuracy", target.name, seed)
    if key not in cache:
        cache[key] = evaluate(model, target.test)
    return cache[key]


def run_pair(
    source: Dataset, target: Dataset, config: TrainConfig, seed: int, _cache=None
) -> PairResult:
    """One full experiment: scratch baseline, pretrain, fine-tune, evaluate.

    The baseline's seeds depend only on (seed, target) and the pretraining
    seeds only on (seed, source), so every target has a single baseline and
    every source a single pretrained model for a given base seed; the
    fine-tuning seeds depend on the pair. Deterministic per seed.
    """
    if source.name == target.name:
        raise ValueError(f"source and target must differ, got {source.name!r}")
    cache = {} if _cache is None else _cache
    baseline_model, baseline_hist, baseline_seeds = _scratch_run(
        target, config, seed, cache
    )
    pretrained, _, source_seeds = _scratch_run(source, config, seed, cache)
    head_seed = derive_seed(seed, source.name, target.name, "head")
    finetune_seed = derive_seed(seed, source.name, target.name, "finetune")
    tuned, tuned_hist = fine_tune(
        pretrained, target, replace(config, seed=finetune_seed), head_seed
    )
    baseline_acc = _baseline_accuracy(baseline_model, target, seed, cache)
    transfer_acc = evaluate(tuned, target.test)
    variation = (
        accuracy_variation(baseline_acc, transfer_acc) if baseline_acc > 0 else None
    )
    return PairResult(
        source=source.name,
        target=target.name,
        seed=seed,
        baseline_accuracy=baseline_acc,
        transfer_accuracy=transfer_acc,
        variation_percent=variation,
        baseline_best_epoch=baseline_hist.best_epoch,
        transfer_best_epoch=tuned_hist.best_epoch,
        derived_seeds={
            "baseline_init": baseline_seeds["init"],
            "baseline_train": baseline_seeds["train"],
            "source_init": source_seeds["init"],
            "source_train": source_seeds["train"],
            "head": head_seed,
            "finetune_train": finetune_seed,
        },
    )


@dataclass
class VariationMatrix:
    """Per-cell experiment records; rows are sources, columns targets.

    The diagonal is excluded by construction. `cells` maps (source, target)
    to the cell record (seed-averaged accuracies plus per-seed results);
    `failures` records cells whose experiment raised.
    """

    names: tuple[str, ...]
    cells: dict[tuple[str, str], dict] = field(default_factory=dict)
    failures: dict[tuple[str, str], str] = field(default_factory=dict)

    def variation(self, source: str, target: str) -> float | None:
        cell = self.cells.get((source, target))
        return None if cell is None else cell["variation_percent"]

    def target_accuracies(self) -> dict[str, dict[str, float]]:
        """Transfer accuracy per target column, keyed by source."""
        columns: dict[str, dict[str, float]] = {name: {} for name in self.names}
        for (source, target), cell in self.cells.items():
            columns[target][source] = cell["transfer_accuracy"]
        return columns


def _cell_record(
    source: Dataset, target: Dataset, config, seeds, cache, provenance: dict
) -> dict:
    results = [run_pair(source, target, config, s, _cache=cache) for s in seeds]
    baseline = sum(r.baseline_accuracy for r in results) / len(results)
    transfer = sum(r.transfer_accuracy for r in results) / len(results)
    variation = accuracy_variation(baseline, transfer) if baseline > 0 else None
    return {
        "source": source.name,
        "target": target.name,
        "seeds": list(seeds),
        "baseline_accuracy": baseline,
        "transfer_accuracy": transfer,
        "variation_percent": variation,
        "results": [asdict(r) for r in results],
        **provenance,  # repeats "seeds", which keeps its place above
    }


def _dataset_digest(dataset: Dataset) -> str:
    """SHA-256 of a dataset's contents: class count, labels and samples."""
    h = hashlib.sha256(int(dataset.class_count).to_bytes(8, "little"))
    for split in (dataset.train, dataset.test):
        h.update(len(split).to_bytes(8, "little"))
        for item in split:
            h.update(item.label.to_bytes(8, "little"))
            h.update(len(item.series).to_bytes(8, "little"))
            h.update(item.series.astype("<f8").tobytes())
    return h.hexdigest()


def _slug(name: str) -> str:
    # Injective file-name encoding; '_' is escaped so the '__' separator
    # between source and target cannot be forged by a dataset name.
    return re.sub(r"[^A-Za-z0-9.-]", lambda m: f"%{ord(m.group(0)):02X}", name)


def _cell_path(out_dir, source: str, target: str) -> str:
    return os.path.join(out_dir, "cells", f"{_slug(source)}__{_slug(target)}.json")


def run_matrix(
    datasets,
    config: TrainConfig,
    seeds=(0,),
    out_dir=None,
) -> VariationMatrix:
    """Run every off-diagonal (source, target) cell, with resume and isolation.

    When out_dir is given, each completed cell is written atomically to
    `cells/<source>__<target>.json`, so an interrupted run resumes for free.
    Every record carries what its results depend on: the seeds, the
    TrainConfig fields, the dtype training computes in and SHA-256 digests
    of the source and target contents. An existing cell file is reused only
    when all of them match this run; a cell file that is not a JSON object
    is stale too. Stale cells are recomputed and their files overwritten.
    A failing cell is recorded (and marked on disk) without stopping the
    run. Cells run one after another, since numpy's BLAS already uses every
    core. Scratch baselines and pretrained source models are shared across
    cells of one run; training is deterministic, so the results are
    identical to recomputing them per cell.
    """
    datasets = list(datasets)
    if len(datasets) < 2:
        raise ValueError("run_matrix: need at least 2 datasets")
    names = [d.name for d in datasets]
    if len(set(names)) != len(names):
        raise ValueError(f"run_matrix: duplicate dataset names {sorted(names)}")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("run_matrix: need at least one seed")
    by_name = {d.name: d for d in datasets}
    digests = {d.name: _dataset_digest(d) for d in datasets}
    matrix = VariationMatrix(names=tuple(names))
    if out_dir is not None:
        os.makedirs(os.path.join(out_dir, "cells"), exist_ok=True)

    run = dict(
        zip(_RUN_KEYS, (seeds, asdict(config), TRAIN_DTYPE.name), strict=True)
    )

    def provenance(s, t):
        return {**run, "source_digest": digests[s], "target_digest": digests[t]}

    cache: dict = {}
    for s, t in [(s, t) for s in names for t in names if s != t]:
        path = None if out_dir is None else _cell_path(out_dir, s, t)
        if path is not None and os.path.isfile(path):
            try:
                record = _read_record(path)
            except DataValidationError:
                record = {}
            if all(record.get(k) == v for k, v in provenance(s, t).items()):
                matrix.cells[(s, t)] = record
                continue
        try:
            record = _cell_record(
                by_name[s], by_name[t], config, seeds, cache, provenance(s, t)
            )
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            error = f"{type(exc).__name__}: {exc}"
            matrix.failures[(s, t)] = error
            if path is not None:
                dump_json_17g(
                    {"source": s, "target": t, "error": error}, path + ".failed"
                )
            continue
        matrix.cells[(s, t)] = record
        if path is not None:
            dump_json_17g(record, path)
            if os.path.exists(path + ".failed"):
                os.unlink(path + ".failed")
    return matrix


def _read_record(path, keys=("source", "target")) -> dict:
    """A cell file's JSON object holding `keys`.

    DataValidationError naming the file otherwise.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except ValueError as exc:
        raise DataValidationError(f"{path}: not a valid cell file: {exc}") from None
    if not isinstance(record, dict):
        raise DataValidationError(
            f"{path}: a cell file holds a JSON object, not {type(record).__name__}"
        )
    missing = [key for key in keys if key not in record]
    if missing:
        raise DataValidationError(f"{path}: cell file lacks the keys {missing}")
    return record


def load_matrix_results(out_dir, names=None) -> VariationMatrix:
    """Rebuild a VariationMatrix from a results directory written by run_matrix.

    All cell records must come from one run: the same seeds, the same
    TrainConfig, the same training dtype and, per dataset name, the same
    content digest. A resumed run that changed any of them overwrites only
    its own cells, so a mix is refused with a DataValidationError naming two
    cells that disagree. A cell file that is not a JSON object, or lacks its
    `source`, `target` or (for a failure) `error` key, raises
    DataValidationError naming the file.
    """
    cells_dir = os.path.join(out_dir, "cells")
    if not os.path.isdir(cells_dir):
        raise FileNotFoundError(f"no cells directory under {out_dir!r}")
    cells: dict[tuple[str, str], dict] = {}
    failures: dict[tuple[str, str], str] = {}
    seen: set[str] = set()
    for fname in sorted(os.listdir(cells_dir)):
        path = os.path.join(cells_dir, fname)
        if fname.endswith(".json.failed"):
            record = _read_record(path, ("source", "target", "error"))
            failures[(record["source"], record["target"])] = record["error"]
            continue
        if not fname.endswith(".json"):
            continue
        record = _read_record(path)
        key = (record["source"], record["target"])
        cells[key] = record
        seen.update(key)
    _check_one_run(cells, out_dir)
    if names is None:
        names = tuple(sorted(seen))
    return VariationMatrix(names=tuple(names), cells=cells, failures=failures)


def _check_one_run(cells: dict, out_dir) -> None:
    first: dict[str, tuple] = {}  # what -> (first cell, its value)

    def claim(what, cell, value):
        seen_cell, seen_value = first.setdefault(what, (cell, value))
        if value != seen_value:
            raise DataValidationError(
                f"{out_dir}: cells {seen_cell} and {cell} disagree on {what}; "
                "they come from different runs"
            )

    for cell, record in sorted(cells.items()):
        for key in _RUN_KEYS:
            claim(key, cell, record.get(key))
        claim(f"the contents of {cell[0]!r}", cell, record.get("source_digest"))
        claim(f"the contents of {cell[1]!r}", cell, record.get("target_digest"))


def write_variation_csv(matrix: VariationMatrix, path) -> None:
    """Rows are sources, columns targets; diagonal and missing cells are empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(matrix.names))
        for source in matrix.names:
            row = [source]
            for target in matrix.names:
                value = None if source == target else matrix.variation(source, target)
                row.append("" if value is None else fmt17(value))
            writer.writerow(row)


def aggregate(matrix) -> dict[str, tuple[float, float, float]]:
    """Per-target (min, median, max) transfer accuracy over all sources.

    Accepts a VariationMatrix or a per-target accuracy mapping
    {target: {source: accuracy}}. Targets with no entries are absent. The
    median of an even count is the mean of the middle two values.
    """
    columns = (
        matrix.target_accuracies() if isinstance(matrix, VariationMatrix) else matrix
    )
    out: dict[str, tuple[float, float, float]] = {}
    for target, column in columns.items():
        values = sorted(column.values())
        if not values:
            continue
        k = len(values)
        if k % 2 == 1:
            median = values[k // 2]
        else:
            median = (values[k // 2 - 1] + values[k // 2]) / 2.0
        out[target] = (values[0], median, values[-1])
    return out


def compare_selection(
    accuracies, rankings, iterations: int = 1000, seed: int = 0
) -> dict:
    """Similarity-guided source selection versus random selection.

    `accuracies` is a VariationMatrix or {target: {source: accuracy}};
    `rankings` maps each target to its SourceRanking. For every target the
    report lists the transfer accuracy of the rank-1 source (and ranks 2
    and 3 when they exist), the random baseline as the mean accuracy over
    `iterations` uniform source draws, and the exact column mean for
    reference. Totals count wins, ties, and losses of rank-1 selection
    against the sampled random baseline. Reproducible for a given seed.
    """
    columns = (
        accuracies.target_accuracies()
        if isinstance(accuracies, VariationMatrix)
        else accuracies
    )
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    targets = {}
    wins = ties = losses = 0
    for target in sorted(columns):
        column = columns[target]
        if not column:
            continue
        ranking = rankings[target]
        smart = {}
        for rank in (1, 2, 3):
            if rank > len(ranking.ranked):
                smart[f"rank{rank}"] = None
                continue
            source = ranking.source_at(rank)
            if source not in column:
                raise KeyError(
                    f"ranked source {source!r} has no transfer accuracy for "
                    f"target {target!r}"
                )
            smart[f"rank{rank}"] = {"source": source, "accuracy": column[source]}
        sources = sorted(column)
        values = [column[s] for s in sources]
        rng = np.random.default_rng(derive_seed(seed, "selection", target))
        draws = rng.integers(0, len(sources), size=iterations)
        sampled_mean = sum(values[k] for k in draws) / iterations
        exact_mean = sum(values) / len(values)
        diff = smart["rank1"]["accuracy"] - sampled_mean
        if abs(diff) <= _TIE_TOLERANCE:
            outcome = "tie"
            ties += 1
        elif diff > 0:
            outcome = "win"
            wins += 1
        else:
            outcome = "loss"
            losses += 1
        targets[target] = {
            "smart": smart,
            "random_mean_sampled": sampled_mean,
            "random_mean_exact": exact_mean,
            "outcome": outcome,
        }
    return {
        "iterations": iterations,
        "seed": seed,
        "targets": targets,
        "totals": {"wins": wins, "ties": ties, "losses": losses},
    }


def write_report(
    matrix: VariationMatrix,
    similarity: SimilarityMatrix,
    out_path,
    aggregate_path=None,
    iterations: int = 1000,
    seed: int = 0,
) -> dict:
    """Emit the selection report JSON plus the per-target aggregate CSV.

    Rankings come from the similarity matrix; every experiment target must
    be present in it. Returns the report dict.
    """
    for name in matrix.names:
        if name not in similarity:
            raise KeyError(f"dataset {name!r} missing from the similarity matrix")
    rankings: dict[str, SourceRanking] = {
        name: rank_sources(similarity, name) for name in matrix.names
    }
    report = compare_selection(matrix, rankings, iterations=iterations, seed=seed)
    report["failures"] = [
        {"source": s, "target": t, "error": err}
        for (s, t), err in sorted(matrix.failures.items())
    ]
    dump_json_17g(report, out_path)

    if aggregate_path is not None:
        aggregates = aggregate(matrix)
        with open(aggregate_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["target", "min", "median", "max"])
            for target in sorted(aggregates):
                lo, med, hi = aggregates[target]
                writer.writerow([target, fmt17(lo), fmt17(med), fmt17(hi)])
    return report
