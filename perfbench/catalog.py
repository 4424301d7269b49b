"""Names, units and meaning of every metric the benchmark reports.

End-to-end metrics are measured on every workload with tracing off and are
the ones a regression gate compares. Phase metrics are end-to-end figures of
one workload's phases; they are printed with the same statistics. Per-layer
metrics come from the traced run; `moves` names the end-to-end figure each
should move and the workload where it should stay flat.
"""

# name, unit, better, bound (share of the parent's median), description
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "imports (fresh interpreter) plus loading the workload's inputs; "
     "median over the set-ups made before each repetition; UCR parsing on pipeline"),
    ("total_s", "s", "lower", 0.25,
     "median wall time of one repetition of the workload after set-up"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak resident memory of the workload's process"),
]

# name, unit, better, workloads
PHASES = [
    ("similarity_s", "s", "lower", ("select", "pipeline")),
    ("train_samples_per_s", "1/s", "higher", ("train",)),
    ("eval_samples_per_s", "1/s", "higher", ("train",)),
    ("matrix_s", "s", "lower", ("pipeline",)),
]

_SIM = "similarity_s on select and pipeline; flat on train"
_SIM_SELECT = "similarity_s on select; flat on train"
_TRAIN = "train_samples_per_s on train; flat on select"
_FCN = ("train_samples_per_s and eval_samples_per_s on train, matrix_s on "
        "pipeline; flat on select")
_MATRIX = "matrix_s on pipeline; flat on select"
_SETUP = "setup_s on pipeline; flat on select and train"

# name, unit, better, moves
PER_LAYER = [
    ("core.load_ucr_dataset.s", "s", "lower", _SETUP),
    ("core.bytes_parsed", "B", "lower", _SETUP),
    ("dtw.dtw_path.s", "s", "lower", _SIM),
    ("dtw.dtw_path.calls", "count", "lower", _SIM),
    ("dtw.dtw_distance.s", "s", "lower", _SIM),
    ("dtw.dtw_distance.calls", "count", "lower", _SIM),
    ("dtw.cells", "count", "lower", _SIM),
    ("dtw.cells_per_s", "1/s", "higher", _SIM),
    ("dtw.medoid.s", "s", "lower", _SIM),
    ("dba.dba_average.self_s", "s", "lower", _SIM_SELECT),
    ("dba.dba_iteration.calls", "count", "lower", _SIM_SELECT),
    ("similarity.dataset_distance.s", "s", "lower", _SIM),
    ("similarity.dataset_distance.calls", "count", "lower", _SIM),
    ("similarity.dataset_distance.share", "ratio", "lower",
     "ceiling of prototype-pair pruning on similarity_s; flat on train"),
    ("similarity.reduce_dataset.s", "s", "lower", _SIM),
    *[(f"fcn.conv1d_{d}.k{k}.s", "s", "lower", _FCN)
      for d in ("forward", "backward") for k in (8, 5, 3)],
    ("fcn.conv.gflop", "gflop", "lower", _FCN),
    ("fcn.conv.gflop_per_s", "gflop/s", "higher", _FCN),
    ("fcn.batchnorm.s", "s", "lower", _TRAIN),
    ("fcn.adam_step.s", "s", "lower", _TRAIN),
    ("fcn.adam_step.calls", "count", "lower", _TRAIN),
    ("fcn.step.self_s", "s", "lower", _TRAIN),
    ("fcn.steps", "count", "lower", _TRAIN),
    ("fcn.clone_model.s", "s", "lower", _TRAIN),
    ("fcn.evaluate.s", "s", "lower", "eval_samples_per_s on train; flat on select"),
    ("transfer.swap_head.s", "s", "lower", _MATRIX),
    ("transfer.fine_tune.self_s", "s", "lower", _MATRIX),
    ("transfer.save_model.s", "s", "lower", _MATRIX),
    ("transfer.save_model.bytes", "B", "lower", _MATRIX),
    ("transfer.load_model.s", "s", "lower", _MATRIX),
    ("harness.run_pair.calls", "count", "lower", _MATRIX),
    ("harness.cells_computed", "count", "lower", _MATRIX),
    ("harness.cells_reused", "count", "higher", _MATRIX),
    ("harness.scratch_trainings", "count", "lower", _MATRIX),
    ("harness.scratch_unique_ratio", "ratio", "higher", _MATRIX),
    ("harness.write_report.s", "s", "lower", _MATRIX),
    ("textfmt.dump_json_17g.calls", "count", "lower", _MATRIX),
    ("textfmt.dump_json_17g.s", "s", "lower", _MATRIX),
    ("textfmt.dump_json_17g.bytes", "B", "lower", _MATRIX),
    *[(f"{layer}.self_s", "s", "lower", "total_s of the workloads that use the layer")
      for layer in ("core", "dtw", "dba", "similarity", "fcn", "transfer", "harness",
                    "textfmt")],
    ("trace.layer_self_s", "s", "lower", "total_s; sums the layer self times"),
    ("trace.unattributed_s", "s", "lower", "benchmark glue outside every layer"),
    ("trace.total_s", "s", "lower", "total_s with tracing on"),
    ("trace.untraced_total_s", "s", "lower", "total_s of the untraced reps of this run"),
    ("trace.overhead_ratio", "ratio", "lower", "trace.total_s / trace.untraced_total_s"),
]
