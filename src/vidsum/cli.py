"""Command-line interface: train, eval, summarize, bench, synth, export-attn.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numeric failure.
Configuration comes from defaults, then one list of key=value pairs: the
lines of an optional file (--config), then repeated --set overrides, then
the shorthand flags, the last pair for a key winning; every run that takes
a config echoes the effective settings for exact replay.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from .attention import (
    ConfigError,
    canonical_kind,
    export_weights_csv,
    export_weights_pgm,
)
from .data_io import (
    DataError,
    ParseError,
    atomic_open,
    load_dataset,
    synth_dataset,
)
from .evaluation import (
    bench,
    evaluate_videos,
    format_bench_table,
    write_bench_csv,
    write_eval_csv,
)
from .model import (
    ModelConfig,
    check_video,
    forward,
    load_checkpoint,
    summarize,
)
from .numerics import DegenerateRowError, DimensionError
from .segmentation import SegmentationError, resolve_shots
from .selection import export_summary
from .training import TrainConfig, ground_truth_frames, train

ENV_DATA = "VIDSUM_DATA"


# ---------------------------------------------------------------------------
# config plumbing


def _coerce(field, key, raw):
    """``raw`` as the type of ``field``; a ConfigError names ``key=raw``."""
    if field.type not in (int, float):
        return raw
    try:
        return field.type(raw)
    except ValueError:
        kind = "an int" if field.type is int else "a float"
        raise ConfigError("%s=%s is not %s" % (key, raw, kind)) from None


# the shorthand flags and the keys each sets; --seed seeds model and training
FLAG_KEYS = (("epochs", ("train.epochs",)), ("lr", ("train.learning_rate",)),
             ("splits", ("train.n_folds",)), ("seed", ("model.seed", "train.seed")))


def read_config_file(path):
    """The key=value lines of a config file, without blanks and # comments."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh.read().splitlines()]
    except OSError as exc:
        raise DataError("cannot read config file %s: %s" % (path, exc))
    return [line for line in lines if line and not line.startswith("#")]


def config_pairs(args):
    """The run's key=value pairs: --config lines, then --set pairs, then the
    shorthand flags, so a later source overrides an earlier one."""
    pairs = read_config_file(args.config) if getattr(args, "config", None) else []
    pairs += getattr(args, "set", None) or []
    for flag, keys in FLAG_KEYS:
        value = getattr(args, flag, None)
        if value is not None:
            pairs += ["%s=%s" % (key, value) for key in keys]
    return pairs


def parse_config_pairs(pairs):
    """The model and train docs that 'model.key=value' / 'train.key=value'
    pairs set, routed by prefix; a later pair for a key wins."""
    fields = {prefix: {f.name: f for f in dataclasses.fields(cls)}
              for prefix, cls in (("model", ModelConfig), ("train", TrainConfig))}
    docs = {prefix: {} for prefix in fields}
    for pair in pairs:
        key, eq, raw = pair.partition("=")
        if not eq:
            raise ConfigError("expected key=value, got %r" % pair)
        key = key.strip()
        prefix, dot, name = key.partition(".")
        if not dot or prefix not in docs:
            raise ConfigError(
                "config key %r needs a 'model.' or 'train.' prefix" % key)
        if name not in fields[prefix]:
            raise ConfigError("unknown %s config key %r" % (prefix, name))
        docs[prefix][name] = _coerce(fields[prefix][name], key, raw.strip())
    return docs["model"], docs["train"]


def build_configs(args):
    """The run's model and train configs, and the train doc its pairs set
    (which tells a chosen n_folds from the default)."""
    model_doc, train_doc = parse_config_pairs(config_pairs(args))
    return ModelConfig(**model_doc), TrainConfig(**train_doc), train_doc


def effective_config_lines(model_config, train_config=None):
    lines = ["model.%s=%s" % (k, v)
             for k, v in sorted(model_config.to_dict().items())]
    if train_config is not None:
        lines += ["train.%s=%s" % (k, v)
                  for k, v in sorted(dataclasses.asdict(train_config).items())]
    return lines


def echo_config(model_config, train_config=None, out_dir=None):
    lines = effective_config_lines(model_config, train_config)
    print("\n".join(lines))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with atomic_open(os.path.join(out_dir, "effective_config.txt")) as fh:
            fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# shared loading


def _resolve_data(args):
    data = args.data or os.environ.get(ENV_DATA)
    if not data:
        raise ConfigError("no data directory: pass --data or set $" + ENV_DATA)
    manifest = data
    if os.path.isdir(data):
        manifest = os.path.join(data, "manifest.json")
    if not os.path.exists(manifest):
        raise DataError("no manifest at %s" % manifest)
    return load_dataset(manifest)


def _pick_video(dataset, video_id):
    if video_id is None:
        return dataset.videos[0]
    try:
        return dataset.by_id(video_id)
    except KeyError:
        raise DataError("video %r not in dataset (have: %s)"
                        % (video_id, ", ".join(v.video_id for v in dataset.videos)))


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args):
    model_config, train_config, train_doc = build_configs(args)
    dataset = _resolve_data(args)
    # an unset n_folds keeps train()'s fallback to one fold on every video
    if "n_folds" in train_doc and train_config.n_folds > len(dataset.videos):
        raise ConfigError("train.n_folds=%d is more than the %d videos in the "
                          "dataset" % (train_config.n_folds, len(dataset.videos)))
    echo_config(model_config, train_config, args.out)
    result = train(dataset.videos, model_config, train_config,
                   out_dir=args.out, eval_mode=args.agg)
    fs = [f.f_measure for f in result.folds if f.f_measure is not None]
    for fold in result.folds:
        line = "fold %d: final loss %.6f" % (fold.fold, fold.loss_curve[-1])
        if fold.f_measure is not None:
            line += ", held-out F %.2f" % fold.f_measure
        print(line)
    if fs:
        print("mean F across folds: %.2f" % float(np.mean(fs)))
    return 0


def cmd_eval(args):
    config, params = load_checkpoint(args.ckpt)
    dataset = _resolve_data(args)
    for video in dataset.videos:  # every video fits before any is summarized
        check_video(video, config)
    rows = evaluate_videos(dataset.videos, config, params, mode=args.agg)
    print("video  precision  recall  f_measure")
    for r in rows:
        print("%s  %.4f  %.4f  %.2f"
              % (r["video"], r["precision"], r["recall"], r["f_measure"]))
    mean_f = float(np.mean([r["f_measure"] for r in rows]))
    print("mean F: %.2f" % mean_f)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_eval_csv(os.path.join(args.out, "eval.csv"), rows)
    return 0


def cmd_summarize(args):
    config, params = load_checkpoint(args.ckpt)
    dataset = _resolve_data(args)
    video = _pick_video(dataset, args.video)
    result, scores, shots = summarize(video, config, params)
    print("video %s: %d frames, budget %d, selected shots %s"
          % (video.video_id, video.n_frames, result.budget,
             result.selected_ranges))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, video.video_id + ".summary.json")
        export_summary(path, video.video_id, result)
        print("wrote " + path)
    return 0


def cmd_bench(args):
    model_config, _, _ = build_configs(args)
    kinds = [canonical_kind(name.strip()) for name in args.patterns.split(",")]
    lengths = [int(x) for x in args.lengths.split(",")]
    echo_config(model_config)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    reports = bench(kinds, lengths, model_config, repeats=args.repeats,
                    seed=model_config.seed)
    print(format_bench_table(reports))
    if args.out:
        write_bench_csv(args.out, reports)
        print("wrote " + args.out)
    return 0


def cmd_synth(args):
    videos, meta = synth_dataset(
        args.videos, (args.t_min, args.t_max), args.dim,
        (args.shots_min, args.shots_max), planted_fraction=args.fraction,
        seed=args.seed, out_dir=args.out, name=args.name,
    )
    print("wrote %d videos to %s" % (len(videos), meta["manifest"]))
    return 0


def cmd_export_attn(args):
    config, params = load_checkpoint(args.ckpt)
    dataset = _resolve_data(args)
    video = _pick_video(dataset, args.video)
    if not 0 <= args.layer < config.n_layers:
        raise ConfigError("layer %d out of range [0, %d)"
                          % (args.layer, config.n_layers))
    if not 0 <= args.head < config.h:
        raise ConfigError("head %d out of range [0, %d)"
                          % (args.head, config.h))
    check_video(video, config)
    shots = resolve_shots(video, max_shots=config.kts_max_shots,
                          penalty=config.kts_penalty)
    try:
        teacher = ground_truth_frames(video, shots, config.summary_ratio)
    except DataError:
        t = video.n_frames
        n = max(1, int(np.ceil(config.summary_ratio * t)))
        teacher = np.linspace(0, t - 1, n).astype(int).tolist()
    kept = {}  # per kind, one entry per call (layer); --layer's holds --head

    def keep(pattern, head):
        calls = kept.setdefault(pattern.kind, [])
        calls.append(head(args.head) if len(calls) == args.layer else None)

    forward(video.features, shots, teacher, config, params, maps=keep)
    os.makedirs(args.out, exist_ok=True)
    for prefix, kind in (("enc", config.attention), ("dec_self", "causal"),
                         ("cross", "cross")):
        weights = kept[kind][args.layer]
        for ext, writer in ((".csv", export_weights_csv),
                            (".pgm", export_weights_pgm)):
            path = os.path.join(args.out, "%s_l%d_h%d%s"
                                % (prefix, args.layer, args.head, ext))
            writer(path, weights)
            print("wrote " + path)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_config_flags(p):
    p.add_argument("--config", help="key=value file (model.* / train.* keys)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="config override, repeatable")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vidsum",
        description="Transformer video summarizer with sparse encoder attention",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train with k-fold splits")
    p.add_argument("--data", help="dataset dir or manifest (default $%s)" % ENV_DATA)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--splits", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--agg", choices=["max", "mean"], default=None)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--data")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--agg", choices=["max", "mean"], default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("summarize", help="summarize one video")
    p.add_argument("--data")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--video", help="video id (default: first in manifest)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("bench", help="attention-pattern compute benchmark")
    p.add_argument("--patterns", default="fa,la,ga,lga")
    p.add_argument("--lengths", default="192,384,768,1536")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", help="CSV output path")
    _add_config_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--videos", type=int, default=20)
    p.add_argument("--t-min", type=int, default=80)
    p.add_argument("--t-max", type=int, default=160)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--shots-min", type=int, default=4)
    p.add_argument("--shots-max", type=int, default=10)
    p.add_argument("--fraction", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="synth")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("export-attn", help="dump attention maps as CSV + PGM")
    p.add_argument("--data")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--video")
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--head", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_attn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (DimensionError, DegenerateRowError, FloatingPointError) as exc:
        print("numeric error: %s" % exc, file=sys.stderr)
        return 4
    except (ParseError, DataError, SegmentationError, OSError) as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
