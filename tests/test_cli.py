import dataclasses
import hashlib
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

import vidsum.cli as cli_mod
from vidsum.cli import main
from vidsum.data_io import (
    synth_dataset,
    write_annotations,
    write_features,
    write_manifest,
)
from vidsum.model import (
    ModelConfig,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

from oracles import dense_mask

TINY_MODEL = [
    "--set", "model.n_layers=1", "--set", "model.d=8",
    "--set", "model.d_ff=8", "--set", "model.h=2",
    "--set", "model.window=5", "--set", "model.input_dim=8",
    "--set", "model.max_len=48",
]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    rc = main(["synth", "--out", str(d), "--videos", "3", "--t-min", "24",
               "--t-max", "40", "--dim", "8", "--shots-min", "3",
               "--shots-max", "4", "--seed", "1"])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def trained(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("run")
    rc = main(["train", "--data", str(data_dir), "--out", str(out),
               "--epochs", "2", "--splits", "3", "--seed", "0"] + TINY_MODEL)
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_manifest_and_is_deterministic(tmp_path):
    args = ["synth", "--videos", "2", "--t-min", "20", "--t-max", "24",
            "--dim", "4", "--shots-min", "3", "--shots-max", "3",
            "--seed", "7"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "manifest.json").exists()
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("args, name", [
    (["--videos", "0"], "n_videos"),
    (["--videos", "-1"], "n_videos"),
    (["--dim", "0"], "dim"),
    (["--t-min", "10", "--t-max", "5"], "t_range"),
    (["--shots-min", "5", "--shots-max", "3"], "n_shots_range"),
    (["--t-min", "1", "--t-max", "1"], "t_range"),
    (["--t-min", "4", "--t-max", "4", "--fraction", "0.9"], "t_range"),
])
def test_synth_rejects_a_dataset_it_could_not_load_before_writing(
        tmp_path, capsys, args, name):
    out = tmp_path / "d"
    assert main(["synth", "--out", str(out)] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: %s must" % name), err
    assert not out.exists()


# ---------------------------------------------------------------------------
# train


def test_train_smoke_writes_artifacts(trained, capsys):
    assert (trained / "effective_config.txt").exists()
    assert (trained / "loss_log.csv").exists()
    for fold in range(3):
        assert (trained / ("fold%d.ftnc" % fold)).exists()
    cfg = (trained / "effective_config.txt").read_text()
    assert "model.d=8" in cfg and "train.epochs=2" in cfg
    log = (trained / "loss_log.csv").read_text().splitlines()
    assert log[0] == "epoch,split,loss,f_measure"
    assert len(log) == 1 + 2 * 3  # epochs * folds


def test_train_echoes_full_size_defaults(tmp_path, capsys):
    d = tmp_path / "wide"
    assert main(["synth", "--out", str(d), "--videos", "1", "--t-min", "24",
                 "--t-max", "28", "--dim", "1024", "--shots-min", "3",
                 "--shots-max", "3", "--seed", "2"]) == 0
    out = tmp_path / "run"
    rc = main(["train", "--data", str(d), "--out", str(out), "--epochs", "1",
               "--set", "model.max_len=64"])
    assert rc == 0
    echoed = capsys.readouterr().out
    for line in ("model.n_layers=6", "model.d=64", "model.d_ff=2048",
                 "model.h=8", "model.window=17"):
        assert line in echoed


def test_train_same_seed_identical_artifacts(tmp_path, data_dir):
    outs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        rc = main(["train", "--data", str(data_dir), "--out", str(out),
                   "--epochs", "2", "--seed", "5"] + TINY_MODEL)
        assert rc == 0
        outs.append(out)
    assert (outs[0] / "loss_log.csv").read_bytes() == (outs[1] / "loss_log.csv").read_bytes()
    assert (outs[0] / "fold0.ftnc").read_bytes() == (outs[1] / "fold0.ftnc").read_bytes()


def test_train_uses_env_data_dir(tmp_path, data_dir, monkeypatch):
    monkeypatch.setenv("VIDSUM_DATA", str(data_dir))
    out = tmp_path / "envrun"
    rc = main(["train", "--out", str(out), "--epochs", "1"] + TINY_MODEL)
    assert rc == 0


def test_config_file_and_overrides(tmp_path, data_dir):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# tiny geometry\n"
        "model.n_layers=1\nmodel.d=8\nmodel.d_ff=8\nmodel.h=2\n"
        "model.window=5\nmodel.input_dim=8\nmodel.max_len=48\n"
        "train.epochs=1\n"
    )
    out = tmp_path / "cfgrun"
    rc = main(["train", "--data", str(data_dir), "--out", str(out),
               "--config", str(cfg), "--set", "train.epochs=2"])
    assert rc == 0
    eff = (out / "effective_config.txt").read_text()
    assert "train.epochs=2" in eff  # --set wins over the file
    assert "model.window=5" in eff


def test_flags_override_set_pairs_which_override_the_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("train.epochs=1\ntrain.learning_rate=0.5\nmodel.seed=1\n")
    args = cli_mod.build_parser().parse_args(
        ["train", "--out", str(tmp_path), "--config", str(cfg),
         "--set", "train.epochs=2", "--set", "model.seed=2",
         "--epochs", "3", "--seed", "4"])
    model_config, train_config, train_doc = cli_mod.build_configs(args)
    assert (train_config.epochs, train_config.learning_rate) == (3, 0.5)
    assert (model_config.seed, train_config.seed) == (4, 4)
    assert "n_folds" not in train_doc  # the default is not a chosen n_folds


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_2(tmp_path, data_dir, monkeypatch, capsys):
    monkeypatch.delenv("VIDSUM_DATA", raising=False)
    assert main([]) == 2  # no subcommand
    assert main(["train", "--out", str(tmp_path / "x")]) == 2  # no data source
    assert main(["train", "--data", str(data_dir), "--out", str(tmp_path / "y"),
                 "--set", "model.flux=1"]) == 2  # unknown key
    assert main(["train", "--data", str(data_dir), "--out", str(tmp_path / "b"),
                 "--set", "train.batch_size=1"]) == 2  # removed key
    assert main(["bench", "--patterns", "warp", "--lengths", "32"]) == 2
    capsys.readouterr()


def test_data_errors_exit_3(tmp_path, data_dir, trained, capsys):
    assert main(["train", "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "o")]) == 3
    assert main(["eval", "--data", str(tmp_path / "nope"),
                 "--ckpt", str(tmp_path / "missing.ftnc")]) == 3
    capsys.readouterr()

    ckpt = trained / "fold0.ftnc"
    data = ckpt.read_bytes()
    cfg_len = int.from_bytes(data[8:12], "little")
    cut = tmp_path / "cut.ftnc"
    cut.write_bytes(data[:12 + cfg_len + 2])  # 2 bytes past the config
    assert main(["eval", "--data", str(data_dir), "--ckpt", str(cut)]) == 3
    assert "truncated" in capsys.readouterr().err

    broken = tmp_path / "broken"
    broken.mkdir()
    for name in os.listdir(data_dir):
        (broken / name).write_bytes((data_dir / name).read_bytes())
    doc = json.loads((data_dir / "manifest.json").read_text())
    entry = doc["videos"][0]
    ann_name = entry.pop("annotations")
    (broken / "manifest.json").write_text(json.dumps(doc))
    assert main(["eval", "--data", str(broken), "--ckpt", str(ckpt)]) == 3
    assert "'annotations'" in capsys.readouterr().err
    entry["annotations"] = ann_name
    (broken / "manifest.json").write_text(json.dumps(doc))
    ann = json.loads((broken / ann_name).read_text())
    del ann["fps"]["sampled"]
    (broken / ann_name).write_text(json.dumps(ann))
    assert main(["eval", "--data", str(broken), "--ckpt", str(ckpt)]) == 3
    assert "fps.sampled" in capsys.readouterr().err
    ann["fps"]["sampled"] = 2
    ann["shots"] = [[0, 2.7], [2.7, len(ann["users"][0])]]
    (broken / ann_name).write_text(json.dumps(ann))
    assert main(["eval", "--data", str(broken), "--ckpt", str(ckpt)]) == 3
    assert "'shots'" in capsys.readouterr().err


def test_malformed_checkpoint_contents_exit_3(tmp_path, data_dir, trained, capsys):
    data = (trained / "fold0.ftnc").read_bytes()
    cfg_len = int.from_bytes(data[8:12], "little")
    cfg = json.loads(data[12:12 + cfg_len])

    def with_config(doc):
        raw = json.dumps(doc).encode()
        return (data[:8] + len(raw).to_bytes(4, "little") + raw
                + data[12 + cfg_len:])

    first = 12 + cfg_len + 4  # the first tensor header, after the count
    first_name = first + 12
    bad_name = bytearray(data)
    bad_name[first_name] = 0xFF  # never valid in UTF-8
    # the second tensor renamed to the first one's name
    name_len, rows, cols = struct.unpack_from("<III", data, first)
    name = data[first_name:first_name + name_len]
    code = data[first_name + name_len:first_name + name_len + 3]
    second = first_name + name_len + 3 + rows * cols * int(code[2:])
    second_len, rows2, cols2 = struct.unpack_from("<III", data, second)
    duplicate = (data[:second] + struct.pack("<III", name_len, rows2, cols2)
                 + name + data[second + 12 + second_len:])
    cases = {
        "name.ftnc": (bytes(bad_name), "UTF-8"),
        "key.ftnc": (with_config(dict(cfg, bogus=1)), "bogus"),
        "value.ftnc": (with_config(dict(cfg, d=-64)), "multiple of h"),
        "heads.ftnc": (with_config(dict(cfg, h=0)), "h must be >= 1"),
        # a float or bool int field must not reach init_params (TypeError)
        "layers.ftnc": (with_config(dict(cfg, n_layers=1.0)),
                        "n_layers must be an integer"),
        "bool.ftnc": (with_config(dict(cfg, h=True)), "h must be an integer"),
        "duplicate.ftnc": (duplicate, "duplicate tensor %r" % name.decode(),
                           "at byte offset %d" % (second + 12)),
    }
    for file_name, (raw, *whys) in cases.items():
        path = tmp_path / file_name
        path.write_bytes(raw)
        assert main(["eval", "--data", str(data_dir), "--ckpt", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(path) in err
        assert all(why in err for why in whys), (file_name, err)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_checkpoint_entry_exits_3(tmp_path, data_dir, trained,
                                             value, capsys):
    config, params = load_checkpoint(trained / "fold0.ftnc")
    params["enc.0.ffn.w1"][2, 3] = value
    path = tmp_path / "nf.ftnc"
    save_checkpoint(path, config, params)
    assert main(["eval", "--data", str(data_dir), "--ckpt", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert "'enc.0.ffn.w1'" in err and str(path) in err


def test_mis_shaped_checkpoint_tensor_exits_3(tmp_path, data_dir, trained,
                                              capsys):
    config, params = load_checkpoint(trained / "fold0.ftnc")
    params["head.w"] = params["head.w"][:, :20]
    path = tmp_path / "narrow.ftnc"
    save_checkpoint(path, config, params)
    assert main(["eval", "--data", str(data_dir), "--ckpt", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert "'head.w'" in err and "8x20" in err and "8x48" in err


@pytest.mark.parametrize("pair", [
    "model.kts_penalty=nan", "model.kts_penalty=inf", "model.ln_eps=nan",
    "model.ln_eps=0", "model.pos_base=inf", "model.pos_base=-1",
    "train.learning_rate=inf", "train.weight_decay=nan",
    "train.clip_norm=nan", "train.eps=inf",
])
def test_non_finite_config_values_exit_2(tmp_path, data_dir, pair, capsys):
    key = pair.split("=")[0].split(".")[1]
    assert main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                 "--set", pair] + TINY_MODEL) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("args", [
    ["--set", "train.epochs=0"], ["--set", "train.target_mode=soft"],
    ["--lr=-1"], ["--set", "train.n_folds=0"],
], ids=["epochs", "target_mode", "lr", "n_folds"])
def test_bad_train_value_is_a_config_error(tmp_path, data_dir, args, capsys):
    out = tmp_path / "r"
    assert main(["train", "--data", str(data_dir), "--out", str(out)]
                + args + TINY_MODEL) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:"), captured.err
    assert captured.out == "" and not out.exists()


def test_unknown_pattern_lists_the_same_choices_everywhere(tmp_path, data_dir,
                                                          capsys):
    assert main(["bench", "--patterns", "lga,warp", "--lengths", "32"]) == 2
    from_bench = capsys.readouterr().err
    assert main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                 "--set", "model.attention=warp"]) == 2
    assert capsys.readouterr().err == from_bench
    assert from_bench.startswith("config error: unknown attention pattern "
                                 "'warp' (choose from fa, la, ga, lga, full, "
                                 "local, global, local_global"), from_bench


def test_boolean_users_and_empty_manifest_exit_3(tmp_path, data_dir, trained,
                                                 capsys):
    ckpt = str(trained / "fold0.ftnc")
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in os.listdir(data_dir):
        (broken / name).write_bytes((data_dir / name).read_bytes())
    doc = json.loads((data_dir / "manifest.json").read_text())
    ann_name = doc["videos"][0]["annotations"]
    ann = json.loads((broken / ann_name).read_text())
    ann["users"][0][:3] = [True, False, True]
    (broken / ann_name).write_text(json.dumps(ann))
    assert main(["eval", "--data", str(broken), "--ckpt", ckpt]) == 3
    err = capsys.readouterr().err
    assert str(broken / ann_name) in err and "'users'" in err

    doc["videos"] = []
    (broken / "manifest.json").write_text(json.dumps(doc))
    assert main(["eval", "--data", str(broken), "--ckpt", ckpt]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "no videos" in err


def _features_not_a_path(doc):
    doc["videos"][0]["features"] = 5
    return json.dumps(doc).encode()


@pytest.mark.parametrize("target, contents, needle", [
    ("annotation", lambda doc: b"3", "not a JSON object"),
    ("annotation", lambda doc: b"\xff\xfe{", "not UTF-8"),
    ("manifest", lambda doc: b'{"dataset": "x", "videos": 5}', "'videos'"),
    ("manifest", _features_not_a_path, "'features'"),
    ("manifest", lambda doc: b"\xff", "not UTF-8"),
], ids=["annotation-int", "annotation-bytes", "videos-int", "features-int",
        "manifest-bytes"])
def test_malformed_dataset_files_exit_3(tmp_path, data_dir, capsys, target,
                                        contents, needle):
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in os.listdir(data_dir):
        (broken / name).write_bytes((data_dir / name).read_bytes())
    doc = json.loads((data_dir / "manifest.json").read_text())
    path = broken / (doc["videos"][0]["annotations"] if target == "annotation"
                     else "manifest.json")
    path.write_bytes(contents(doc))
    assert main(["train", "--data", str(broken), "--out",
                 str(tmp_path / "o")] + TINY_MODEL) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(path) in err and needle in err


def test_checkpoint_data_mismatch_names_fields(tmp_path, trained, capsys):
    wide = tmp_path / "wide16"
    assert main(["synth", "--out", str(wide), "--videos", "1", "--t-min", "24",
                 "--t-max", "28", "--dim", "16", "--shots-min", "3",
                 "--shots-max", "3"]) == 0
    rc = main(["eval", "--data", str(wide),
               "--ckpt", str(trained / "fold0.ftnc")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "input_dim" in err and "dim=16" in err


# ---------------------------------------------------------------------------
# eval / summarize


def test_eval_writes_csv(tmp_path, data_dir, trained, capsys):
    out = tmp_path / "eval"
    rc = main(["eval", "--data", str(data_dir),
               "--ckpt", str(trained / "fold0.ftnc"), "--out", str(out)])
    assert rc == 0
    assert "mean F:" in capsys.readouterr().out
    lines = (out / "eval.csv").read_text().splitlines()
    assert lines[0] == "video,precision,recall,f_measure"
    assert len(lines) == 5  # 3 videos + mean


def test_summarize_writes_budgeted_summary(tmp_path, data_dir, trained, capsys):
    out = tmp_path / "summ"
    rc = main(["summarize", "--data", str(data_dir),
               "--ckpt", str(trained / "fold0.ftnc"),
               "--video", "synth_001", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "synth_001.summary.json").read_text())
    assert doc["video"] == "synth_001"
    total = sum(e - s for s, e in doc["selected_shots"])
    assert 0 < total <= doc["budget"]


def test_summarize_manifest_id_outside_out_exits_3(tmp_path, data_dir, trained,
                                                   capsys):
    data = tmp_path / "data"
    data.mkdir()
    for name in os.listdir(data_dir):
        (data / name).write_bytes((data_dir / name).read_bytes())
    doc = json.loads((data / "manifest.json").read_text())
    doc["videos"][0]["id"] = "../escaped"
    (data / "manifest.json").write_text(json.dumps(doc))
    out = tmp_path / "out" / "sub"
    rc = main(["summarize", "--data", str(data),
               "--ckpt", str(trained / "fold0.ftnc"),
               "--video", "../escaped", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(data / "manifest.json") in err and "video 0" in err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def misfit_dir(tmp_path_factory):
    """A video that fits TINY_MODEL, one too long for it and one too wide,
    all without shots, so any command that reads them runs KTS first."""
    d = tmp_path_factory.mktemp("misfit")
    entries = []
    for vid, t, dim in (("fits", 32, 8), ("long", 64, 8), ("wide", 32, 16)):
        (rec,), _ = synth_dataset(1, (t, t), dim, (3, 3), seed=2, name=vid)
        rec.shots = None
        write_features(d / (vid + ".ftnf"), rec.features)
        write_annotations(d / (vid + ".json"), rec)
        entries.append((vid, vid + ".ftnf", vid + ".json"))
    write_manifest(d / "manifest.json", "misfit", entries)
    return d


@pytest.fixture
def kts_calls(monkeypatch):
    import vidsum.segmentation as seg_mod

    calls = []
    kts = seg_mod.kts_segment

    def counted(*args, **kwargs):
        calls.append(1)
        return kts(*args, **kwargs)

    monkeypatch.setattr(seg_mod, "kts_segment", counted)
    return calls


@pytest.mark.parametrize("command", ["summarize", "export-attn"])
def test_command_reads_only_its_video(tmp_path, misfit_dir, trained, kts_calls,
                                      command, capsys):
    args = [command, "--data", str(misfit_dir),
            "--ckpt", str(trained / "fold0.ftnc"), "--out", str(tmp_path)]
    assert main(args + ["--video", "fits"]) == 0
    assert kts_calls == [1]
    assert main(args + ["--video", "wide"]) == 3
    assert main(args + ["--video", "long"]) == 3
    err = capsys.readouterr().err
    assert "video wide: config input_dim=8 but features have dim=16" in err
    assert "video long: video length 64 exceeds max_len 48" in err
    assert kts_calls == [1]


@pytest.mark.parametrize("source", ["flag", "set", "config"])
def test_train_splits_above_video_count_exits_2_before_kts(
        tmp_path, misfit_dir, kts_calls, monkeypatch, capsys, source):
    def no_train(*args, **kwargs):
        raise AssertionError("trained with more folds than videos")

    monkeypatch.setattr(cli_mod, "train", no_train)
    cfg = tmp_path / "folds.cfg"
    cfg.write_text("train.n_folds=4\n")
    n_folds = {"flag": ["--splits", "4"], "set": ["--set", "train.n_folds=4"],
               "config": ["--config", str(cfg)]}[source]
    out = tmp_path / "run"
    rc = main(["train", "--data", str(misfit_dir), "--out", str(out),
               "--epochs", "1"] + n_folds + TINY_MODEL)
    assert rc == 2
    captured = capsys.readouterr()
    assert ("config error: train.n_folds=4 is more than the 3 videos in the "
            "dataset") in captured.err
    assert captured.out == ""
    assert kts_calls == []
    assert not out.exists()


@pytest.mark.parametrize("misfit", ["long", "wide"])
def test_eval_checks_every_video_before_summarizing(misfit_dir, trained,
                                                    monkeypatch, misfit,
                                                    capsys):
    import vidsum.evaluation as evaluation_mod

    def no_summarize(*args, **kwargs):
        raise AssertionError("a video was summarized before all were checked")

    monkeypatch.setattr(evaluation_mod, "summarize", no_summarize)
    doc = json.loads((misfit_dir / "manifest.json").read_text())
    doc["videos"] = [v for v in doc["videos"] if v["id"] in ("fits", misfit)]
    manifest = misfit_dir / ("fits_and_%s.json" % misfit)
    manifest.write_text(json.dumps(doc))
    rc = main(["eval", "--data", str(manifest),
               "--ckpt", str(trained / "fold0.ftnc")])
    assert rc == 3
    assert "video %s:" % misfit in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench


def test_bench_cli_table_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    rc = main(["bench", "--patterns", "fa,lga", "--lengths", "64,128",
               "--out", str(csv_path),
               "--set", "model.n_layers=1", "--set", "model.d=16",
               "--set", "model.d_ff=16", "--set", "model.h=2",
               "--set", "model.window=9", "--set", "model.input_dim=16",
               "--set", "model.max_len=128"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "full" in out and "local_global" in out
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("pattern,length")


def test_bench_creates_the_csv_directory_before_benchmarking(tmp_path,
                                                            monkeypatch):
    csv_path = tmp_path / "new" / "sub" / "b.csv"
    bench = cli_mod.bench

    def bench_into_existing_dir(*args, **kwargs):
        assert csv_path.parent.is_dir()
        return bench(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "bench", bench_into_existing_dir)
    assert main(["bench", "--patterns", "lga", "--lengths", "16",
                 "--out", str(csv_path)] + TINY_MODEL) == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("local_global,16,")


@pytest.mark.parametrize("length", ["0", "4", "7"])
def test_bench_lengths_below_eight_exit_2(length, capsys):
    assert main(["bench", "--patterns", "lga", "--lengths", "32," + length,
                 "--set", "model.n_layers=1",
                 "--set", "model.d=8", "--set", "model.d_ff=8",
                 "--set", "model.h=2", "--set", "model.input_dim=8",
                 "--set", "model.max_len=64"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "length %s " % length in err


# ---------------------------------------------------------------------------
# atomic writes


def test_cli_writes_leave_no_temp_files(tmp_path, data_dir, trained):
    ckpt = str(trained / "fold0.ftnc")
    runs = [
        ["summarize", "--data", str(data_dir), "--ckpt", ckpt,
         "--out", str(tmp_path / "summ")],
        ["eval", "--data", str(data_dir), "--ckpt", ckpt,
         "--out", str(tmp_path / "eval")],
        ["export-attn", "--data", str(data_dir), "--ckpt", ckpt,
         "--out", str(tmp_path / "maps")],
        ["bench", "--patterns", "lga", "--lengths", "16",
         "--out", str(tmp_path / "bench.csv")] + TINY_MODEL,
    ]
    for argv in runs:
        assert main(argv) == 0, argv[0]
    written = [p for d in (trained, tmp_path) for p in d.rglob("*")]
    assert len(written) > 10
    assert not [p for p in written if ".tmp." in p.name]


def _break_bench_row(monkeypatch, path):
    from vidsum.evaluation import BenchReport, write_bench_csv

    good = BenchReport("full", 8, 64, 64, 100, 0.5, 1024)
    write_bench_csv(path, [good, dataclasses.replace(good, length="eight")])


def _break_attention_row(monkeypatch, path):
    from vidsum.attention import export_weights_csv

    class Unprintable:
        def __format__(self, spec):
            raise ValueError("cannot format this weight")

    weights = np.array([[0.5, Unprintable()]], dtype=object)
    export_weights_csv(path, weights)


def _break_summary_json(monkeypatch, path):
    import vidsum.selection as selection_mod
    from vidsum.selection import export_summary, make_summary

    def half_dump(doc, fh, **kwargs):
        fh.write('{"video": ')
        raise OSError("disk full")

    monkeypatch.setattr(selection_mod.json, "dump", half_dump)
    result = make_summary(np.linspace(0, 1, 8), ((0, 4), (4, 8)))
    export_summary(path, "v", result)


@pytest.mark.parametrize("breaker", [_break_bench_row, _break_attention_row,
                                     _break_summary_json])
def test_write_failing_midway_keeps_old_file(tmp_path, monkeypatch, breaker):
    path = tmp_path / "out.txt"
    path.write_text("old contents\n")
    with pytest.raises((TypeError, ValueError, OSError)):
        breaker(monkeypatch, str(path))
    assert path.read_text() == "old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


# ---------------------------------------------------------------------------
# attention export


def test_export_attn_files_and_structure(tmp_path, data_dir, trained, capsys):
    out = tmp_path / "maps"
    rc = main(["export-attn", "--data", str(data_dir),
               "--ckpt", str(trained / "fold0.ftnc"),
               "--video", "synth_000", "--layer", "0", "--head", "1",
               "--out", str(out)])
    assert rc == 0
    stems = ["enc_l0_h1", "dec_self_l0_h1", "cross_l0_h1"]
    for stem in stems:
        assert (out / (stem + ".csv")).exists()
        assert (out / (stem + ".pgm")).exists()

    def rows(stem):
        lines = (out / (stem + ".csv")).read_text().splitlines()
        assert lines[0] == "query,key,weight"
        return [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]

    # decoder self-attention support is lower-triangular
    assert all(k <= q for q, k, _ in rows("dec_self_l0_h1"))
    # cross-attention rows are distributions over all frames
    cross = rows("cross_l0_h1")
    sums = {}
    for q, _, w in cross:
        sums[q] = sums.get(q, 0.0) + w
    assert all(abs(s - 1.0) < 1e-4 for s in sums.values())
    # encoder support stays inside the sparse pattern
    from vidsum.data_io import load_dataset
    from vidsum.attention import build_encoder_pattern

    ds = load_dataset(str(data_dir / "manifest.json"))
    video = ds.by_id("synth_000")
    pattern = build_encoder_pattern("local_global", video.n_frames,
                                    video.n_frames, 5, video.shots, 3)
    mask = dense_mask(pattern)
    assert all(mask[int(q), int(k)] for q, k, _ in rows("enc_l0_h1"))


# sha256 of the files export-attn writes for the criterion-11 setup (layer 1,
# head 0) with each encoder kind; the capture path must not move a byte
PINNED_EXPORTS = {
    "full": {
        "enc_l1_h0.csv": "cd5ce4522b9d1650f433e7d4ea8b64c281a7172bcb52ccd69505402f4e55d451",
        "enc_l1_h0.pgm": "f8b535fda3665c407469a33cd4eb0cd4785c55966f0ae40aa9b95caabdab9e91",
        "dec_self_l1_h0.csv": "c0b5a8dfba74f2a0a9b6c19f16a2b014533b06706774acc16acf0f6e941d908b",
        "dec_self_l1_h0.pgm": "1451fe891b08d845a2b9a402af9a164d50c0758fdd85390954abfbd44f3fcdf2",
        "cross_l1_h0.csv": "42e8071b00b2130edf56d6060271644e7b8da4d5f3c458be799c55fe2a73d433",
        "cross_l1_h0.pgm": "3de87b04110f9d4ac3fc7417c70f7d08dee1e575e1464f3688c4b4b6bb265a36",
    },
    "local": {
        "enc_l1_h0.csv": "e7a1a55e1c4efdfa2b2326775b6e4d80b76cd56819691b3aad622fa36b887195",
        "enc_l1_h0.pgm": "4b1258a73d0b3339bb499a46d26ec2b35a820bc1ea75020865dad14701181c46",
        "dec_self_l1_h0.csv": "0b5eab77f539aec46cdbc69e93c43df242a34e89a45c7f29e54bfacc34e30f67",
        "dec_self_l1_h0.pgm": "b8828e6cae7cf0697754a33c78e6bf20c36e5b715ffede0509754918600e6ffc",
        "cross_l1_h0.csv": "d1ba4eb2cb4d21ef3dcd1db0f316100faf92df0b6774835d0ec1ccb7bef4d1e9",
        "cross_l1_h0.pgm": "8d0e287f844c9f69d10d633ad32903f5a2ee584ccb1c06026a93ed1e32d33be8",
    },
    "global": {
        "enc_l1_h0.csv": "bb5d9b6d5c93b0a19ca2f90472304bbe3b10f0ad5184ef406a908de6d1986b60",
        "enc_l1_h0.pgm": "2342ea8ea470c80ecccfbbae65cbb1154ce1b300116304b759ea9b39747794ef",
        "dec_self_l1_h0.csv": "ce2d1c87c7ddabb11e18c4058229ba03652297abd7a506a691a9991ee35b67f3",
        "dec_self_l1_h0.pgm": "c1db05e596dd74a7091a6109ed76b712e9b10509af6b358f92c9f4e7082cfe1d",
        "cross_l1_h0.csv": "70fabda553d3ebae0a7f01ef3264af173491ae7ad1239ab369a1e243d65f022d",
        "cross_l1_h0.pgm": "e26be63f31ffc57200317ddf558295c67be4f7bd2213428ac8892006f7426e60",
    },
    "local_global": {
        "enc_l1_h0.csv": "26dbb63cb8e7db55cea1f03b28838ec0b9aa364c96fbf356a989bcfcee72e1f3",
        "enc_l1_h0.pgm": "34d9898ec79b95fd8e61ae39fad681bdde172ba26aed8cde913a505506690bc0",
        "dec_self_l1_h0.csv": "ab56b4e082c95a9c8be1bf38ed4218f9cb347dc5dc90868c24ef9f77b55e7be5",
        "dec_self_l1_h0.pgm": "b136bb55612cac4e08bd6ed5243e13dae87216601118263de3dca6aa5a19188d",
        "cross_l1_h0.csv": "04c1ceb2577c35f7753333b00985128605c86f0d7e769c4c06dfa958eaa99463",
        "cross_l1_h0.pgm": "e25c1c0d8a971d54b0b2c02068c21e14a97167561f5e50fea5fde19659c586b8",
    },
}


@pytest.mark.parametrize("kind", sorted(PINNED_EXPORTS))
def test_export_attn_files_match_pinned_digests(tmp_path, kind):
    data_dir = tmp_path / "data"
    videos, _ = synth_dataset(2, (24, 36), 8, (2, 4), seed=5,
                              out_dir=str(data_dir))
    cfg = ModelConfig(n_layers=2, d=16, d_ff=24, h=2, window=5, input_dim=8,
                      max_len=64, seed=11, attention=kind)
    ckpt = tmp_path / "init.ftnc"
    save_checkpoint(str(ckpt), cfg, init_params(cfg))
    out = tmp_path / "maps"
    rc = main(["export-attn", "--data", str(data_dir / "manifest.json"),
               "--ckpt", str(ckpt), "--video", videos[0].video_id,
               "--layer", "1", "--head", "0", "--out", str(out)])
    assert rc == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir()}
    assert got == PINNED_EXPORTS[kind]


def test_export_attn_capture_peak_within_twice_the_maps_written(tmp_path,
                                                                monkeypatch):
    """Paper config, T=1536 with T//24 planted shots: export's capture
    ``forward`` peaks (tracemalloc) at most twice the bytes of the three maps
    it writes above the same ``forward`` without capture."""
    t = 1536
    data_dir = tmp_path / "data"
    videos, _ = synth_dataset(1, (t, t), 1024, (t // 24, t // 24), seed=26,
                              out_dir=str(data_dir))
    config = ModelConfig()
    ckpt = tmp_path / "paper.ftnc"
    save_checkpoint(str(ckpt), config, init_params(config))
    peaks, written = {}, []

    def measured(*args, maps):
        for key, sink in (("plain", None), ("capture", maps)):
            tracemalloc.start()
            try:
                forward(*args, maps=sink)
                peaks[key] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    monkeypatch.setattr(cli_mod, "forward", measured)
    monkeypatch.setattr(cli_mod, "export_weights_csv",
                        lambda path, w: written.append(w.nbytes))
    monkeypatch.setattr(cli_mod, "export_weights_pgm", lambda path, w: None)
    rc = main(["export-attn", "--data", str(data_dir / "manifest.json"),
               "--ckpt", str(ckpt), "--video", videos[0].video_id,
               "--layer", "0", "--head", "7", "--out", str(tmp_path / "maps")])
    assert rc == 0 and len(written) == 3
    mib = 2.0 ** 20
    assert peaks["capture"] <= peaks["plain"] + 2 * sum(written), (
        peaks["capture"] / mib, peaks["plain"] / mib, sum(written) / mib)


def test_export_attn_range_errors(tmp_path, data_dir, trained, capsys):
    rc = main(["export-attn", "--data", str(data_dir),
               "--ckpt", str(trained / "fold0.ftnc"), "--layer", "9",
               "--out", str(tmp_path / "m")])
    assert rc == 2
    assert "layer 9 out of range" in capsys.readouterr().err


def test_bad_window_exits_2_before_resolving_shots(tmp_path, data_dir,
                                                  monkeypatch, capsys):
    import vidsum.training as training_mod

    def no_shots(*args, **kwargs):
        raise AssertionError("shots resolved before the config was checked")

    monkeypatch.setattr(training_mod, "resolve_shots", no_shots)
    rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "run"),
               "--epochs", "2", "--splits", "3", "--seed", "0"] + TINY_MODEL
              + ["--set", "model.window=4"])
    assert rc == 2
    assert "window" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_non_finite_loss_exits_4(tmp_path, data_dir, monkeypatch, capsys):
    import vidsum.training as training_mod

    monkeypatch.setattr(
        training_mod, "bce_loss",
        lambda p, y, t, tape=None: np.array([[np.nan]]))
    rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "run"),
               "--epochs", "2", "--splits", "3", "--seed", "0"] + TINY_MODEL)
    assert rc == 4
    err = capsys.readouterr().err
    assert "non-finite loss" in err and "epoch 1, fold 0" in err
