"""Forecasting time series with multiple seasonal cycles using randomized
single-hidden-layer feedforward networks over a pattern representation."""

from .encoding import CodingVars, TrainingSet, build_training_set, decode, encode_x
from .evaluation import (
    MetricsSummary,
    WilcoxonResult,
    percentage_errors,
    summarize,
    wilcoxon_signed_rank,
)
from .pipeline import (
    ExperimentConfig,
    ExperimentReport,
    run_day,
    run_experiment,
    write_report_bundle,
)
from .randnn import (
    METHODS,
    HyperParams,
    fit,
    hidden_output,
    make_layer,
    predict,
)
from .timeseries import (
    SynthSpec,
    TimeSeries,
    exclude_days,
    load_csv,
    load_exclusions,
    synth_generate,
    write_csv,
)
from .tuning import Grid, TuneResult, default_grid, grid_search, kfold_split

__version__ = "0.1.0"
