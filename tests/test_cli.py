import json
import os

import numpy as np
import pytest

from vidsum.cli import main
from vidsum.data_io import read_features

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


def test_malformed_checkpoint_contents_exit_3(tmp_path, data_dir, trained, capsys):
    data = (trained / "fold0.ftnc").read_bytes()
    cfg_len = int.from_bytes(data[8:12], "little")
    cfg = json.loads(data[12:12 + cfg_len])

    def with_config(doc):
        raw = json.dumps(doc).encode()
        return (data[:8] + len(raw).to_bytes(4, "little") + raw
                + data[12 + cfg_len:])

    first_name = 12 + cfg_len + 4 + 12  # after the tensor count and header
    bad_name = bytearray(data)
    bad_name[first_name] = 0xFF  # never valid in UTF-8
    cases = {
        "name.ftnc": (bytes(bad_name), "UTF-8"),
        "key.ftnc": (with_config(dict(cfg, bogus=1)), "bogus"),
        "value.ftnc": (with_config(dict(cfg, d=-64)), "multiple of h"),
    }
    for name, (raw, why) in cases.items():
        path = tmp_path / name
        path.write_bytes(raw)
        assert main(["eval", "--data", str(data_dir), "--ckpt", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(path) in err and why in err


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


def test_export_attn_range_errors(tmp_path, data_dir, trained, capsys):
    rc = main(["export-attn", "--data", str(data_dir),
               "--ckpt", str(trained / "fold0.ftnc"), "--layer", "9",
               "--out", str(tmp_path / "m")])
    assert rc == 2
    assert "layer 9 out of range" in capsys.readouterr().err


def test_train_non_finite_loss_exits_4(tmp_path, data_dir, monkeypatch, capsys):
    import vidsum.training as training_mod
    from vidsum.numerics import Matrix

    monkeypatch.setattr(
        training_mod, "bce_loss",
        lambda p, y, t, tape=None: Matrix.wrap(np.array([[np.nan]])))
    rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "run"),
               "--epochs", "2", "--splits", "3", "--seed", "0"] + TINY_MODEL)
    assert rc == 4
    err = capsys.readouterr().err
    assert "non-finite loss" in err and "epoch 1, fold 0" in err
