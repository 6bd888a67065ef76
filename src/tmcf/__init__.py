"""Cluster-based traffic matrix forecasting toolkit.

Extracts per-flow time series from traffic matrix traces, clusters flows
under histogram/ACF/PSD representations (or a random baseline), trains one
recurrent forecaster per cluster, and evaluates one-step-ahead prediction.
"""

__version__ = "0.1.0"

from .cluster import Dendrogram, Partition, cut, hac, naive_partition
from .dataset import (
    FlowSet,
    ScaleParams,
    TmSeries,
    WindowedDataset,
    extract_flows,
    fit_scale_params,
    load_tm_series,
    make_windows,
    normalize,
    split,
    write_canonical_csv,
)
from .errors import (
    ConfigError,
    DataError,
    NumericalError,
    ParseError,
    TmcfError,
    ValidationError,
)
from .evaluate import (
    ClusterStats,
    EvalReport,
    KneeResult,
    SweepCurve,
    ari,
    cluster_stats,
    error_correlation,
    kneedle,
    nmi,
    per_flow_rmse,
    rmse,
    rmse_physical,
)
from .pipeline import RunConfig, compare, run_pipeline, sweep, validate_config
from .predict import (
    GruConfig,
    GruModel,
    TrainReport,
    load_model,
    predict_tm,
    save_model,
    train_partitioned,
)
from .represent import (
    DissimilarityMatrix,
    ReprMatrix,
    build_features,
    default_lags,
    pairwise_dissimilarity,
)
from .synth import GroupSpec, SynthSpec, generate
