"""Pairwise transfer experiments, accuracy-variation matrix, and reports.

A matrix run has two phases: one model trained from scratch per (dataset,
seed) is the dataset's baseline and its pretrained source model, and then
each pretrained model is fine-tuned on every other target. Cell results
land on disk as one JSON file per cell (written atomically), which doubles
as the resume state: completed cells are never retrained. Reports aggregate
per-target transfer accuracies and compare similarity-ranked source
selection against a random-selection baseline.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import statistics
from dataclasses import asdict, dataclass, field, replace
from itertools import chain

import numpy as np

from .core import DataValidationError, Dataset
from .fcn import (
    NUMERICS_VERSION, TRAIN_DTYPE, TrainConfig, build_model, evaluate, train,
)
from .similarity import SimilarityMatrix, SourceRanking, rank_sources
from .textfmt import dump_csv_17g, dump_json_17g
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
_RUN_KEYS = ("seeds", "config", "train_dtype", "numerics_version")

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


def _scratch_run(dataset: Dataset, config: TrainConfig, seed: int):
    """Train a model from scratch on a dataset: (model, history, seeds).

    The seeds derive from (seed, dataset name) alone, so one model serves
    as the dataset's baseline and as its pretrained source model.
    """
    init_seed = derive_seed(seed, dataset.name, "init")
    train_seed = derive_seed(seed, dataset.name, "train")
    model = build_model(dataset.class_count, seed=init_seed)
    trained, history = train(model, dataset.train, replace(config, seed=train_seed))
    return trained, history, {"init": init_seed, "train": train_seed}


def _fine_tune_run(pretrained, target: Dataset, config: TrainConfig, seed: int):
    """Fine-tune a pretrained model on a target: (model, history, seeds).

    The seeds derive from (seed, target name) alone, so `tstransfer
    transfer`, which knows no source name, reproduces a matrix cell.
    """
    head_seed = derive_seed(seed, target.name, "head")
    finetune_seed = derive_seed(seed, target.name, "finetune")
    tuned, history = fine_tune(
        pretrained, target, replace(config, seed=finetune_seed), head_seed
    )
    return tuned, history, {"head": head_seed, "finetune": finetune_seed}


def run_pair(
    source: Dataset, target: Dataset, config: TrainConfig, seed: int, _phase1=None
) -> PairResult:
    """One full experiment: scratch baseline, pretrain, fine-tune, evaluate.

    The baseline's seeds depend only on (seed, target) and the pretraining
    seeds only on (seed, source), so every target has a single baseline and
    every source a single pretrained model for a given base seed; the
    fine-tune seeds only on (seed, target). Deterministic per seed. Phase 1
    (both scratch trainings and the baseline evaluation) runs before the
    fine-tune, so a failure there costs no fine-tune. `_phase1` holds
    run_matrix's (target run, source run, baseline accuracy) in its place.
    """
    if source.name == target.name:
        raise ValueError(f"source and target must differ, got {source.name!r}")
    if _phase1 is None:
        target_run = _scratch_run(target, config, seed)
        source_run = _scratch_run(source, config, seed)
        _phase1 = (target_run, source_run, evaluate(target_run[0], target.test))
    target_run, source_run, baseline_acc = _phase1
    _, baseline_hist, baseline_seeds = target_run
    pretrained, _, source_seeds = source_run
    tuned, tuned_hist, tuned_seeds = _fine_tune_run(pretrained, target, config, seed)
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
            "head": tuned_seeds["head"],
            "finetune_train": tuned_seeds["finetune"],
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


def _cell_record(results: list[PairResult], provenance: dict) -> dict:
    baseline = sum(r.baseline_accuracy for r in results) / len(results)
    transfer = sum(r.transfer_accuracy for r in results) / len(results)
    variation = accuracy_variation(baseline, transfer) if baseline > 0 else None
    return {
        "source": results[0].source,
        "target": results[0].target,
        "seeds": [r.seed for r in results],
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
    TrainConfig fields but the unused `seed`, the dtype training computes
    in, the version of its numerics (`fcn.NUMERICS_VERSION`) and SHA-256
    digests of the source and target contents. An existing cell file is
    reused only when all of them match this run; a cell file that is not a
    JSON object is stale too.
    Stale cells are recomputed in two phases: phase 1 trains one scratch
    model per (dataset, seed) of those cells and evaluates each target's
    baseline once per seed, then phase 2 runs `run_pair` per cell and seed
    on those results, the same as a lone `run_pair`'s. A cell whose phase-1
    work failed records the first such failure (seeds in order; then the
    target's training, the source's, the target's baseline) before any
    fine-tune. A failing cell is recorded and marked on disk (its stale
    result file removed) without stopping the run. Cells run one after
    another, since numpy's BLAS already uses every core.
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

    # Every training derives its seeds from `seeds`, so config.seed is unused.
    fields = {k: v for k, v in asdict(config).items() if k != "seed"}
    run = dict(zip(
        _RUN_KEYS, (seeds, fields, TRAIN_DTYPE.name, NUMERICS_VERSION), strict=True
    ))

    def provenance(s, t):
        return {**run, "source_digest": digests[s], "target_digest": digests[t]}

    todo = []
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
        todo.append((s, t, path))

    # Phase 1 stores a failure in place of its value: a failed training in
    # both tables, a failed baseline evaluation in `baselines` alone.
    runs, baselines = {}, {}
    for seed, d in [(seed, d) for seed in seeds for d in datasets]:
        key = (d.name, seed)
        try:
            if any(d.name in cell[:2] for cell in todo):
                runs[key] = _scratch_run(d, config, seed)
            if any(d.name == cell[1] for cell in todo):
                baselines[key] = evaluate(runs[key][0], d.test)
        except Exception as exc:  # noqa: BLE001 - raised by each cell that needs it
            runs.setdefault(key, exc)
            baselines[key] = exc
    for s, t, path in todo:
        try:
            phase1 = [(runs[t, seed], runs[s, seed], baselines[t, seed])
                      for seed in seeds]
            for value in chain(*phase1):
                if isinstance(value, Exception):
                    raise value
            record = _cell_record([
                run_pair(by_name[s], by_name[t], config, seed, _phase1=values)
                for seed, values in zip(seeds, phase1, strict=True)
            ], provenance(s, t))
            matrix.cells[(s, t)] = record
            written, stale = "", ".failed"
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            record = {"source": s, "target": t, "error": f"{type(exc).__name__}: {exc}"}
            matrix.failures[(s, t)] = record["error"]
            written, stale = ".failed", ""
        if path is not None:
            dump_json_17g(record, path + written)
            if os.path.exists(path + stale):
                os.unlink(path + stale)
    return matrix


def _is_accuracy(value) -> bool:
    return type(value) in (int, float) and 0 <= value <= 1


# What a resume and `report` read from a cell file, and what each must be.
_CELL_FIELDS = {
    "source": lambda value: type(value) is str,
    "target": lambda value: type(value) is str,
    "baseline_accuracy": _is_accuracy,
    "transfer_accuracy": _is_accuracy,
    "variation_percent": lambda value: value is None or type(value) in (int, float),
}
_FAILED_FIELDS = {key: _CELL_FIELDS["source"] for key in ("source", "target", "error")}


def _read_record(path, fields=_CELL_FIELDS) -> dict:
    """A cell file's JSON object holding `fields`, each passing its check.

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
    missing = [key for key in fields if key not in record]
    if missing:
        raise DataValidationError(f"{path}: cell file lacks the keys {missing}")
    bad = {key: record[key] for key, ok in fields.items() if not ok(record[key])}
    if bad:
        raise DataValidationError(f"{path}: cell file has bad values {bad}")
    return record


def load_matrix_results(out_dir) -> VariationMatrix:
    """Rebuild a VariationMatrix from a results directory written by run_matrix.

    All cell records must come from one run: the same seeds, the same
    TrainConfig, the same training dtype and numerics version and, per
    dataset name, the same content digest. A resumed run that changed any of
    them overwrites only its own cells, so a mix is refused with a
    DataValidationError naming two cells that disagree. A cell file that is
    not a JSON object, lacks a field that `report` reads or holds a bad value
    there (`source`, `target` and a failure's `error` strings, accuracies
    numbers in [0, 1], `variation_percent` a number or null) raises
    DataValidationError naming the file; so does a cell both completed and
    failed.
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
            record = _read_record(path, _FAILED_FIELDS)
            failures[(record["source"], record["target"])] = record["error"]
            continue
        if not fname.endswith(".json"):
            continue
        record = _read_record(path)
        key = (record["source"], record["target"])
        cells[key] = record
        seen.update(key)
    both = sorted(cells.keys() & failures.keys())
    if both:
        raise DataValidationError(f"{out_dir}: cell {both[0]} completed and failed")
    _check_one_run(cells, out_dir)
    return VariationMatrix(names=tuple(sorted(seen)), cells=cells, failures=failures)


def _check_one_run(cells: dict, out_dir) -> None:
    first: dict[str, tuple] = {}  # what -> (first cell, its value)

    def claim(what, cell, value):
        first_cell, first_claim = first.setdefault(what, (cell, value))
        if value != first_claim:
            raise DataValidationError(
                f"{out_dir}: cells {first_cell} and {cell} disagree on {what}; "
                "they come from different runs"
            )

    for cell, record in sorted(cells.items()):
        for key in _RUN_KEYS:
            claim(key, cell, record.get(key))
        claim(f"the contents of {cell[0]!r}", cell, record.get("source_digest"))
        claim(f"the contents of {cell[1]!r}", cell, record.get("target_digest"))


def write_variation_csv(matrix: VariationMatrix, path) -> None:
    """Rows are sources, columns targets; diagonal and missing cells are empty."""
    dump_csv_17g([["", *matrix.names]] + [
        [source, *(None if source == target else matrix.variation(source, target)
                   for target in matrix.names)]
        for source in matrix.names
    ], path)


def aggregate(columns) -> dict[str, tuple[float, float, float]]:
    """Per-target (min, median, max) of {target: {source: accuracy}}.

    Targets with no entries are absent. The median of an even count is the
    mean of the middle two values.
    """
    out: dict[str, tuple[float, float, float]] = {}
    for target, column in columns.items():
        if column:
            values = sorted(column.values())
            out[target] = (values[0], statistics.median(values), values[-1])
    return out


def compare_selection(
    columns, rankings, iterations: int = 1000, seed: int = 0
) -> dict:
    """Similarity-guided source selection versus random selection.

    `columns` is {target: {source: accuracy}}; `rankings` maps each target
    to its SourceRanking. For every target the report lists the transfer
    accuracy of the rank-1 source (and ranks 2 and 3 when they exist), the
    random baseline as the mean accuracy over `iterations` uniform source
    draws, and the exact column mean for reference. Totals count wins, ties,
    and losses of rank-1 selection against the sampled random baseline.
    Reproducible for a given seed.
    """
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
    be present in it. Each target's sources are ranked among its completed
    cells: a source whose cell failed is skipped. Returns the report dict.
    """
    for name in matrix.names:
        if name not in similarity:
            raise KeyError(f"dataset {name!r} missing from the similarity matrix")
    rankings: dict[str, SourceRanking] = {}
    for name in matrix.names:
        ranked = rank_sources(similarity, name).ranked
        rankings[name] = SourceRanking(
            name, tuple(e for e in ranked if (e[0], name) not in matrix.failures)
        )
    columns = matrix.target_accuracies()
    report = compare_selection(columns, rankings, iterations=iterations, seed=seed)
    report["failures"] = [
        {"source": s, "target": t, "error": err}
        for (s, t), err in sorted(matrix.failures.items())
    ]
    dump_json_17g(report, out_path)

    if aggregate_path is not None:
        aggregates = aggregate(columns)
        dump_csv_17g([["target", "min", "median", "max"]] + [
            [target, *aggregates[target]] for target in sorted(aggregates)
        ], aggregate_path)
    return report
