"""Command-line interface.

Subcommands: synth, ingest, represent, cluster, train, evaluate, sweep,
run, compare, validate. Every subcommand backed by a RunConfig (represent,
train, evaluate, sweep, run, compare and validate) takes --config, a JSON
file whose keys match RunConfig, and one flag per RunConfig field, flags
winning over file values: field x_y is --x-y, of its type and CHOICES, but
normalize_power is --raw-power, k_grid a grid spec and out_dir each
subcommand's own --out-dir. represent, train and evaluate skip k, k_grid and
repetitions, sweep skips k, run and compare skip k_grid and repetitions. They
call the same steps and artifact writers as `tmcf run` (see `tmcf.pipeline`),
so `represent` -> `cluster --features` -> `train` -> `evaluate` with the
run's config reproduces a run. `ingest` checks its settings as `run` does.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from . import cluster as cluster_mod
from .dataset import load_tm_series, write_canonical_csv
from .errors import ConfigError, DataError, NumericalError
from .pipeline import (
    CHOICES,
    RunConfig,
    cluster_features,
    compare,
    dump_json,
    load_json,
    load_models,
    load_partition,
    make_partition,
    prepare,
    read_features,
    read_config,
    represent,
    require_valid,
    run_pipeline,
    score,
    sweep,
    train_models,
    validate_config,
    write_features,
    write_partition,
    write_report,
    write_sweep_csv,
)
from .synth import GroupSpec, SynthSpec, generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _parse_group(text: str) -> GroupSpec:
    """Group flag format: count:period:amplitude:noise:shape."""
    parts = text.split(":")
    if len(parts) != 5:
        raise ConfigError(
            f"group spec {text!r} must be count:period:amplitude:noise:shape"
        )
    try:
        return GroupSpec(
            n_flows=int(parts[0]),
            period_steps=int(parts[1]),
            amplitude=float(parts[2]),
            noise_std=float(parts[3]),
            shape=parts[4],
        )
    except ValueError as exc:
        raise ConfigError(f"bad group spec {text!r}: {exc}") from None


def _build_run_config(args, require_trace: bool = True) -> RunConfig:
    """The config file's keys with the flags given on top, checked once."""
    base = read_config(args.config) if getattr(args, "config", None) else {}
    flags = {key: getattr(args, key) for key in RunConfig.__dataclass_fields__
             if getattr(args, key, None) is not None}
    if "k_grid" in flags:
        flags["k_grid"] = _parse_grid(flags["k_grid"])
    base.update(flags)
    if base.get("trace") is None:
        if require_trace:
            raise ConfigError("a trace path is required (flag --trace or config key)")
        base["trace"] = ""
    return RunConfig.from_dict(base)


def _checked(config: RunConfig) -> RunConfig:
    """config, after printing its warnings to stderr; its errors raise
    ConfigError."""
    for w in require_valid(config):
        print(f"warning: {w}", file=sys.stderr)
    return config


def cmd_synth(args) -> int:
    groups = [_parse_group(g) for g in args.group]
    spec = SynthSpec(
        n_nodes=args.nodes,
        n_steps=args.steps,
        groups=groups,
        seed=args.seed,
        interval_seconds=args.interval_seconds,
    )
    tm, truth = generate(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    trace_path = os.path.join(args.out_dir, "trace.csv")
    write_canonical_csv(tm, trace_path)
    dump_json(truth.to_dict(), os.path.join(args.out_dir, "ground_truth.json"))
    print(f"wrote {trace_path} ({tm.n_steps} steps, {tm.n_flows} flows) and ground_truth.json")
    return EXIT_OK


def cmd_ingest(args) -> int:
    config = _checked(RunConfig(trace=args.input, format=args.format,
                                interval_seconds=args.interval_seconds, missing=args.missing))
    tm = load_tm_series(config.trace, format=config.format,
                        interval_seconds=config.interval_seconds, missing=config.missing)
    write_canonical_csv(tm, args.out)
    print(
        f"wrote {args.out}: {tm.n_steps} steps, {tm.n_nodes} nodes, "
        f"{tm.interval_seconds}s interval"
    )
    return EXIT_OK


def cmd_represent(args) -> int:
    config = _checked(_build_run_config(args))
    if config.representation == "naive":
        raise ConfigError("the naive baseline has no features; draw its partition "
                          "with tmcf cluster --method naive")
    tm, flows_norm, _, ranges = prepare(config)
    feats = represent(config, tm, flows_norm, ranges)
    os.makedirs(args.out_dir, exist_ok=True)
    written = write_features(feats, config.metric, args.out_dir)
    print(f"wrote {', '.join(written)} to {args.out_dir}")
    return EXIT_OK


def cmd_cluster(args) -> int:
    if args.method == "naive":
        if args.flows is None or args.seed is None:
            raise ConfigError("--method naive requires --flows (number of flows) and --seed")
        dendro, method = None, "naive"
    elif (args.features is None) == (args.dissimilarity is None):
        raise ConfigError("--method hac requires exactly one of --features, --dissimilarity")
    elif args.features is not None:
        # tagged and linked as tmcf run does for the representation
        feats, metric = read_features(args.features)
        dendro, method = cluster_features(feats, metric, args.linkage), feats.kind
    elif args.linkage is None:
        raise ConfigError("--method hac --dissimilarity requires --linkage")
    else:
        try:
            d = np.load(args.dissimilarity)
            dendro, method = cluster_mod.hac(d, args.linkage, overwrite=True), "hac"
        except (OSError, ValueError, DataError) as exc:
            raise DataError(f"{args.dissimilarity}: {exc}") from None
    n_flows = args.flows if dendro is None else dendro.n_leaves
    part = make_partition(dendro, n_flows, args.k, args.seed, method)
    os.makedirs(args.out_dir, exist_ok=True)
    written = write_partition(part, dendro, args.out_dir)
    print(f"wrote {', '.join(written)} (k={part.k}) to {args.out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _checked(_build_run_config(args))
    _, flows_norm, _, ranges = prepare(config)
    part = load_partition(args.partition)
    train_models(config, flows_norm, ranges, part, model_dir=args.out_dir)
    print(f"trained {part.k} model(s); wrote models and train_report.json to {args.out_dir}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _checked(_build_run_config(args))
    tm, flows_norm, scale, ranges = prepare(config)
    part = load_partition(args.partition)
    models = load_models(args.models, part)
    report, _ = score(config, tm, flows_norm, scale, ranges, part, models)
    os.makedirs(args.out_dir, exist_ok=True)
    write_report(report, args.out_dir)
    print(f"rmse_normalized={report.rmse_normalized!r} "
          f"rmse_physical_mbps={report.rmse_physical_mbps!r}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    curve, knee = sweep(_checked(_build_run_config(args)))
    os.makedirs(args.out_dir, exist_ok=True)
    write_sweep_csv(curve, os.path.join(args.out_dir, "sweep.csv"))
    dump_json(knee, os.path.join(args.out_dir, "knee.json"))
    print(f"selected k={knee['selected_k']} (no_knee={knee['no_knee']}); "
          f"wrote sweep.csv and knee.json to {args.out_dir}")
    return EXIT_OK


def _parse_grid(spec: str) -> list[int]:
    """Grid spec: comma list '1,11,21' or range 'start:stop:step' (stop inclusive)."""
    try:
        if ":" in spec:
            parts = [int(p) for p in spec.split(":")]
            if len(parts) == 2:
                start, stop, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                start, stop, step = parts
            else:
                raise ValueError("expected start:stop[:step]")
            if step < 1:
                raise ValueError(f"step must be >= 1, got {step}")
            return list(range(start, stop + 1, step))
        return [int(p) for p in spec.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad k grid {spec!r}: {exc}") from None


def cmd_run(args) -> int:
    config = _checked(_build_run_config(args))
    run_dir = run_pipeline(config, resume=args.resume)
    report = load_json(os.path.join(run_dir, "eval_report.json"))
    print(f"run directory: {run_dir}")
    print(f"rmse_normalized={report['rmse_normalized']!r} "
          f"rmse_physical_mbps={report['rmse_physical_mbps']!r}")
    return EXIT_OK


def cmd_compare(args) -> int:
    config = _checked(_build_run_config(args))
    compare(config, args.out_dir)
    print(f"wrote pairwise_agreement.csv, error_correlation.csv, "
          f"cluster_size_stats.csv to {args.out_dir}")
    return EXIT_OK


def cmd_validate(args) -> int:
    config = _build_run_config(args, require_trace=False)
    errors, warnings = validate_config(config, trace_required=bool(config.trace))
    for e in errors:
        print(f"error: {e}")
    for w in warnings:
        print(f"warning: {w}")
    if errors:
        return EXIT_CONFIG
    print("config ok")
    return EXIT_OK


def _add_run_config_flags(p: argparse.ArgumentParser, skip: tuple[str, ...] = ()) -> None:
    """--config and one flag per RunConfig field not in skip (see the module docstring)."""
    p.add_argument("--config", help="JSON config file; flags override its keys")
    for name, hint in get_type_hints(RunConfig).items():
        if name in skip or name == "out_dir":
            continue
        if name == "normalize_power":
            p.add_argument("--raw-power", dest=name, action="store_const", const=False,
                           help="skip unit-mass normalization of PSD vectors")
        elif name == "k_grid":
            p.add_argument("--k-grid", dest=name,
                           help="comma list '1,11,21' or range 'start:stop:step'")
        else:
            if get_origin(hint) in (Union, UnionType):  # X | None takes an X
                (hint,) = set(get_args(hint)) - {type(None)}
            nargs = "+" if get_origin(hint) is list else None  # list[X] one or more
            p.add_argument("--" + name.replace("_", "-"), dest=name, nargs=nargs,
                           type=get_args(hint)[0] if nargs else hint, choices=CHOICES.get(name),
                           help="trace file or directory" if name == "trace" else None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmcf",
        description="Cluster-based traffic matrix forecasting toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic trace with planted clusters")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--group", action="append", required=True,
                   help="count:period:amplitude:noise:shape (repeatable)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--interval-seconds", dest="interval_seconds", type=int, default=300)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="convert a trace to the canonical CSV format")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=CHOICES["format"], required=True)
    p.add_argument("--interval-seconds", dest="interval_seconds", type=int)
    p.add_argument("--missing", choices=CHOICES["missing"], default="reject")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("represent", help="feature matrix CSV + features_meta.json")
    _add_run_config_flags(p, skip=("k", "k_grid", "repetitions"))
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("cluster", help="cut a HAC dendrogram or draw the naive baseline")
    p.add_argument("--method", choices=("hac", "naive"), default="hac")
    p.add_argument("--features", help="directory of features.csv + features_meta.json (hac)")
    p.add_argument("--dissimilarity", help="M x M matrix .npy from outside tmcf (hac)")
    p.add_argument("--linkage", choices=CHOICES["linkage"],
                   help="hac linkage; required with --dissimilarity, and with --features "
                        "defaults to the one tmcf run uses for the representation")
    p.add_argument("--flows", type=int, help="number of flows (naive)")
    p.add_argument("--seed", type=int, help="naive partition seed")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("train", help="train one forecaster per cluster")
    _add_run_config_flags(p, skip=("k", "k_grid", "repetitions"))
    p.add_argument("--partition", required=True, help="partition JSON")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score saved models on the test region")
    _add_run_config_flags(p, skip=("k", "k_grid", "repetitions"))
    p.add_argument("--partition", required=True)
    p.add_argument("--models", required=True, help="directory of cluster_<id>.bin files")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "sweep", help="RMSE-versus-K sweep with knee selection",
        description="RMSE-versus-K sweep with knee selection. sweep.csv's mean_runtime_s is "
                    "the wall time of one repetition at that K, with training spread over "
                    "every usable CPU; K=1 is one model and uses one CPU.")
    _add_run_config_flags(p, skip=("k",))
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("run", help="full pipeline into a reproducible run directory")
    _add_run_config_flags(p, skip=("k_grid", "repetitions"))
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--resume", action="store_true",
                   help="reuse stages whose hash and artifact contents match")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="cross-method agreement tables at matched K")
    _add_run_config_flags(p, skip=("k_grid", "repetitions"))
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("validate", help="check a config without running")
    _add_run_config_flags(p)
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
