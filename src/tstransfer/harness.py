"""Pairwise transfer experiments, accuracy-variation matrix, and reports.

A matrix run has two phases: one model trained from scratch per (dataset,
seed) is the dataset's baseline and its pretrained source model, and then
each pretrained model is fine-tuned on every other target. Each cell's
result or error, with the run's provenance, lands in one JSON file, which
doubles as the resume state: completed cells are never retrained. Reports
aggregate per-target transfer accuracies and compare similarity-ranked
source selection against a random-selection baseline.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import statistics
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from itertools import chain

from .core import DataValidationError, Dataset, check_count, check_datasets
from .fcn import (
    NUMERICS_VERSION, TRAIN_DTYPE, TrainConfig, build_model, evaluate, train,
)
from .similarity import SimilarityMatrix, SourceRanking, rank_sources
from .textfmt import dump_csv_17g, dump_json_17g
from .transfer import fine_tune

__all__ = [
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


def accuracy_variation(baseline: float, transferred: float) -> float | None:
    """Percent change of the transferred accuracy over the baseline.

    None for a zero baseline, where the change is undefined; cell files and
    the variation CSV record it as null and an empty cell.
    """
    if not (0.0 <= baseline <= 1.0 and 0.0 <= transferred <= 1.0):
        raise ValueError(
            f"accuracies must lie in [0, 1], got {baseline} and {transferred}"
        )
    return 100.0 * (transferred - baseline) / baseline if baseline else None


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
    return PairResult(
        source=source.name,
        target=target.name,
        seed=seed,
        baseline_accuracy=baseline_acc,
        transfer_accuracy=transfer_acc,
        variation_percent=accuracy_variation(baseline_acc, transfer_acc),
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
    return {
        "source": results[0].source,
        "target": results[0].target,
        "seeds": [r.seed for r in results],
        "baseline_accuracy": baseline,
        "transfer_accuracy": transfer,
        "variation_percent": accuracy_variation(baseline, transfer),
        "results": [asdict(r) for r in results],
        **provenance,  # repeats "seeds", which keeps its place above
    }


def _dataset_digest(dataset: Dataset) -> str:
    """SHA-256 of a dataset's contents: class count, labels and samples."""
    h = hashlib.sha256(dataset.class_count.to_bytes(8, "little"))
    for split in (dataset.train, dataset.test):
        h.update(len(split).to_bytes(8, "little"))
        for item in split:
            h.update(item.label.to_bytes(8, "little"))
            h.update(len(item.series).to_bytes(8, "little"))
            h.update(item.series.astype("<f8").tobytes())
    return h.hexdigest()


def _slug(name: str) -> str:
    # Injective file-name encoding: each UTF-8 byte of a character outside
    # [A-Za-z0-9.-], '%' and '_' too, becomes %XX, so neither an escape nor
    # the '__' separator between source and target can be forged by a name.
    return re.sub(r"[^A-Za-z0-9.-]", lambda m: "".join(
        f"%{b:02X}" for b in m.group(0).encode("utf-8", "surrogatepass")), name)


def _cell_path(out_dir, source: str, target: str) -> str:
    return os.path.join(out_dir, "cells", f"{_slug(source)}__{_slug(target)}.json")


def run_matrix(datasets, config: TrainConfig, seeds=(0,), *, out_dir) -> VariationMatrix:
    """Run every off-diagonal (source, target) cell, with resume and isolation.

    `seeds` are distinct integers of any sign, labels that `derive_seed`
    hashes; each cell runs once per seed. The datasets pass `check_datasets`.

    Each cell is written atomically, mode 0o666 less the umask, to
    `<out_dir>/cells/<source>__<target>.json`: its result, or if it
    failed {"source", "target", "error"}. Either record carries what the
    cell depends on: the seeds, the TrainConfig fields but the unused
    `seed`, the dtype training computes in, the version of its numerics
    (`fcn.NUMERICS_VERSION`) and SHA-256 digests of the source and target
    contents. A resume reuses a result only when all of them, its source and
    its target match; a failure, or a cell file not a JSON object, is stale.
    Stale cells are recomputed in two phases: phase 1 trains one scratch
    model per (dataset, seed) of those cells and evaluates each target's
    baseline once per seed, then phase 2 runs `run_pair` per cell and seed
    on those results, the same as a lone `run_pair`'s. A cell whose phase-1
    work failed records the first such failure (seeds in order; then the
    target's training, the source's, the target's baseline) before any
    fine-tune. A failing cell is recorded, its file replaced by the failure
    record, without stopping the run. Cells run one after another, in order.
    """
    datasets = check_datasets("run_matrix", datasets)
    names = [d.name for d in datasets]
    seeds = list(seeds)
    if not seeds:
        raise ValueError("run_matrix: need at least one seed")
    for seed in seeds:
        try:
            check_count("seeds", seed, -math.inf)
        except DataValidationError:
            raise DataValidationError(
                f"run_matrix: seeds must be integers, got {seed!r}") from None
    repeated = sorted({seed for seed in seeds if seeds.count(seed) > 1})
    if repeated:
        raise ValueError(f"run_matrix: repeated seeds {repeated}")
    by_name = {d.name: d for d in datasets}
    digests = {d.name: _dataset_digest(d) for d in datasets}
    matrix = VariationMatrix(names=tuple(names))
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
        path = _cell_path(out_dir, s, t)
        if os.path.isfile(path):
            try:
                record = _read_record(path)
            except DataValidationError:
                record = {}
            cell = {"source": s, "target": t, **provenance(s, t)}
            if "error" not in record and all(record.get(k) == cell[k] for k in cell):
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
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            error = f"{type(exc).__name__}: {exc}"
            record = {"source": s, "target": t, "error": error, **provenance(s, t)}
            matrix.failures[(s, t)] = error
        dump_json_17g(record, path)
    return matrix


def _is_accuracy(value) -> bool:
    return type(value) in (int, float) and 0 <= value <= 1


# What a resume and `report` read from a cell file, and what each must be.
_CELL_FIELDS = {
    "source": lambda value: type(value) is str,
    "target": lambda value: type(value) is str,
    "baseline_accuracy": _is_accuracy,
    "transfer_accuracy": _is_accuracy,
    # json.load reads NaN and Infinity, which no cell writes.
    "variation_percent": lambda value: value is None or (
        type(value) in (int, float) and -math.inf < value < math.inf),
}
_FAILED_FIELDS = {key: _CELL_FIELDS["source"] for key in ("source", "target", "error")}


def _read_record(path) -> dict:
    """A cell file's JSON object, each field passing its check.

    A failure has an "error" key and holds `_FAILED_FIELDS`; a result holds
    `_CELL_FIELDS`. DataValidationError naming the file otherwise.
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
    fields = _FAILED_FIELDS if "error" in record else _CELL_FIELDS
    missing = [key for key in fields if key not in record]
    if missing:
        raise DataValidationError(f"{path}: cell file lacks the keys {missing}")
    bad = {key: record[key] for key, ok in fields.items() if not ok(record[key])}
    if bad:
        raise DataValidationError(f"{path}: cell file has bad values {bad}")
    return record


def load_matrix_results(out_dir) -> VariationMatrix:
    """Rebuild a VariationMatrix from a results directory written by run_matrix.

    Each `cells/*.json` file holds one cell: a failure if it has an "error"
    key. All of them must come from one run: the same seeds, the same
    TrainConfig, the same training dtype and numerics version and, per
    dataset name, the same content digest. A resumed run that changed any of
    them overwrites only its own cells, so a mix is refused with a
    DataValidationError naming two cells that disagree. A cell file that is
    not a JSON object, lacks a field that `report` reads or holds a bad value
    there (`source`, `target` and a failure's `error` strings, accuracies
    numbers in [0, 1], `variation_percent` a finite number or null) raises
    DataValidationError naming the file; two files holding one cell, naming
    both. `names` holds every dataset of a completed or failed cell.
    """
    cells_dir = os.path.join(out_dir, "cells")
    if not os.path.isdir(cells_dir):
        raise FileNotFoundError(f"no cells directory under {out_dir!r}")
    records, files = {}, {}  # cell -> its record, and the file that holds it
    for fname in sorted(f for f in os.listdir(cells_dir) if f.endswith(".json")):
        record = _read_record(os.path.join(cells_dir, fname))
        cell = (record["source"], record["target"])
        if cell in files:
            raise DataValidationError(
                f"{out_dir}: cell {cell} is held by both {files[cell]} and {fname}"
            )
        records[cell], files[cell] = record, fname
    _check_one_run(records, out_dir)
    return VariationMatrix(
        names=tuple(sorted({name for cell in records for name in cell})),
        cells={cell: r for cell, r in records.items() if "error" not in r},
        failures={cell: r["error"] for cell, r in records.items() if "error" in r},
    )


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


def compare_selection(columns, rankings) -> dict:
    """Similarity-guided source selection versus random selection.

    `columns` is {target: {source: accuracy}}; `rankings` maps each target
    to its SourceRanking. For every target the report lists the transfer
    accuracy of the rank-1 source (and ranks 2 and 3 when they exist) and
    `random_mean_exact`, the expected accuracy of a uniformly drawn source:
    the column mean, summed as exact fractions and rounded once to a float.
    The outcome compares rank-1 with that mean exactly, so a tie means
    equality; totals count the wins, ties and losses.
    """
    targets = {}
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
        mean = sum(map(Fraction, column.values())) / len(column)
        rank1 = Fraction(smart["rank1"]["accuracy"])
        targets[target] = {
            "smart": smart,
            "random_mean_exact": float(mean),
            "outcome": "win" if rank1 > mean else "loss" if rank1 < mean else "tie",
        }
    outcomes = [entry["outcome"] for entry in targets.values()]
    return {
        "targets": targets,
        "totals": {"wins": outcomes.count("win"), "ties": outcomes.count("tie"),
                   "losses": outcomes.count("loss")},
    }


def write_report(
    matrix: VariationMatrix,
    similarity: SimilarityMatrix,
    out_path,
    aggregate_path,
) -> dict:
    """Write the selection report JSON and the per-target aggregate CSV.

    Rankings come from the similarity matrix; every experiment target must
    be present in it, and it may hold more datasets than the run. Each
    target's sources are ranked among the run's datasets, skipping a source
    whose cell failed; a ranked source with no completed cell raises
    KeyError. Returns the report dict.
    """
    for name in matrix.names:
        if name not in similarity:
            raise KeyError(f"dataset {name!r} missing from the similarity matrix")
    rankings = {
        name: SourceRanking(name, tuple(
            e for e in rank_sources(similarity, name).ranked
            if e[0] in matrix.names and (e[0], name) not in matrix.failures
        ))
        for name in matrix.names
    }
    columns = matrix.target_accuracies()
    report = compare_selection(columns, rankings)
    report["failures"] = [
        {"source": s, "target": t, "error": err}
        for (s, t), err in sorted(matrix.failures.items())
    ]
    dump_json_17g(report, out_path)
    aggregates = aggregate(columns)
    dump_csv_17g([["target", "min", "median", "max"]] + [
        [target, *aggregates[target]] for target in sorted(aggregates)
    ], aggregate_path)
    return report
