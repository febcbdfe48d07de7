import hashlib
import json
import os
import struct

import numpy as np
import pytest

from vidsum.data_io import (
    DataError,
    ParseError,
    VideoRecord,
    atomic_open,
    import_h5_archive,
    load_dataset,
    load_video,
    read_annotations,
    read_features,
    synth_dataset,
    write_annotations,
    write_features,
    write_manifest,
)
from vidsum.segmentation import ShotList
from vidsum.selection import make_summary

from oracles import oracle_frame_scores


def f_of_masks(gen, gt):
    inter = float(np.logical_and(gen, gt).sum())
    if gen.sum() == 0 or gt.sum() == 0 or inter == 0:
        return 0.0
    p, r = inter / gen.sum(), inter / gt.sum()
    return 2.0 * p * r / (p + r) * 100.0


# ---------------------------------------------------------------------------
# feature files


def test_feature_file_hand_example(tmp_path):
    path = tmp_path / "v.ftnf"
    payload = struct.pack("<4sIII", b"FTNF", 1, 3, 2)
    payload += struct.pack("<6f", 1, 2, 3, 4, 5, 6)
    path.write_bytes(payload)
    feats = read_features(path)
    assert feats.shape == (3, 2)
    assert feats.dtype == np.float32
    assert np.array_equal(feats, np.array([[1, 2], [3, 4], [5, 6]], dtype=np.float32))


def test_feature_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    for k in range(5):
        arr = rng.normal(size=(int(rng.integers(1, 40)), int(rng.integers(1, 20))))
        arr = arr.astype(np.float32)
        path = tmp_path / ("r%d.ftnf" % k)
        write_features(path, arr)
        back = read_features(path)
        assert back.dtype == np.float32
        assert np.array_equal(
            back.view(np.uint32), arr.view(np.uint32)
        )  # bitwise, not just close


def test_feature_truncation_offset(tmp_path):
    path = tmp_path / "t.ftnf"
    header = struct.pack("<4sIII", b"FTNF", 1, 3, 2)
    path.write_bytes(header + b"\x00" * 10)  # needs 24 payload bytes
    with pytest.raises(ParseError) as exc:
        read_features(path)
    assert exc.value.offset == 16 + 10
    assert "offset 26" in str(exc.value)


def test_feature_header_errors(tmp_path):
    path = tmp_path / "h.ftnf"
    path.write_bytes(struct.pack("<4sIII", b"NOPE", 1, 1, 1) + b"\x00" * 4)
    with pytest.raises(ParseError) as exc:
        read_features(path)
    assert exc.value.offset == 0

    path.write_bytes(struct.pack("<4sIII", b"FTNF", 9, 1, 1) + b"\x00" * 4)
    with pytest.raises(ParseError) as exc:
        read_features(path)
    assert exc.value.offset == 4

    path.write_bytes(struct.pack("<4sIII", b"FTNF", 1, 0, 1))
    with pytest.raises(ParseError) as exc:
        read_features(path)
    assert exc.value.offset == 8

    path.write_bytes(struct.pack("<4sIII", b"FTNF", 1, 1, 1) + b"\x00" * 8)
    with pytest.raises(ParseError) as exc:
        read_features(path)
    assert exc.value.offset == 20


def test_feature_rejects_nan(tmp_path):
    path = tmp_path / "n.ftnf"
    bad = struct.pack("<4sIII", b"FTNF", 1, 1, 2) + struct.pack("<2f", 1.0, np.nan)
    path.write_bytes(bad)
    with pytest.raises(DataError):
        read_features(path)


# ---------------------------------------------------------------------------
# annotations and full records


def test_annotation_round_trip_scores(tmp_path):
    rec = VideoRecord(
        video_id="a",
        features=np.zeros((6, 3), dtype=np.float32),
        shots=ShotList([(0, 3), (3, 6)]),
        user_scores=np.array([[0.0, 0.5, 1.0, 0.25, 0.0, 0.75]]),
    )
    fpath, apath = tmp_path / "a.ftnf", tmp_path / "a.json"
    write_features(fpath, rec.features)
    write_annotations(apath, rec)
    back = load_video(fpath, apath)
    assert back.video_id == "a"
    assert list(back.shots) == [(0, 3), (3, 6)]
    assert np.array_equal(back.user_scores, rec.user_scores)
    assert back.user_masks is None


def test_annotation_round_trip_masks(tmp_path):
    rec = VideoRecord(
        video_id="b",
        features=np.ones((4, 2), dtype=np.float32),
        user_masks=np.array([[True, False, True, False], [False, True, True, False]]),
    )
    fpath, apath = tmp_path / "b.ftnf", tmp_path / "b.json"
    write_features(fpath, rec.features)
    write_annotations(apath, rec)
    back = load_video(fpath, apath)
    assert back.shots is None
    assert back.user_scores is None
    assert np.array_equal(back.user_masks, rec.user_masks)


def test_annotation_bad_json_offset(tmp_path):
    apath = tmp_path / "bad.json"
    apath.write_text('{"fps": }')
    with pytest.raises(ParseError):
        read_annotations(apath)


def test_load_video_length_mismatch(tmp_path):
    fpath, apath = tmp_path / "c.ftnf", tmp_path / "c.json"
    write_features(fpath, np.zeros((5, 2), dtype=np.float32))
    apath.write_text(json.dumps({
        "fps": {"original": 30, "sampled": 2},
        "shots": None,
        "user_kind": "scores",
        "users": [[0.0, 1.0]],  # wrong length
    }))
    with pytest.raises(DataError):
        load_video(fpath, apath)


@pytest.mark.parametrize("key", ["original", "sampled"])
def test_annotation_missing_fps_key_names_file_and_key(tmp_path, key):
    apath = tmp_path / "e.json"
    fps = {"original": 30, "sampled": 2}
    del fps[key]
    apath.write_text(json.dumps({"fps": fps, "shots": None,
                                 "user_kind": "scores", "users": []}))
    with pytest.raises(DataError) as exc:
        read_annotations(apath)
    assert str(apath) in str(exc.value) and "fps." + key in str(exc.value)


@pytest.mark.parametrize("key, patch", [
    ("users", {"users": [["x", 0.5, 0.5, 0.5]]}),
    ("users", {"users": [[0.1, 0.2, 0.3, 0.4], [0.5]]}),  # ragged rows
    ("users", {"user_kind": "masks", "users": [[1, {"on": 1}, 0, 0]]}),
    ("fps.original", {"fps": {"original": "thirty", "sampled": 2}}),
    ("fps.sampled", {"fps": {"original": 30, "sampled": None}}),
    ("shots", {"shots": [[0, "two"], [2, 4]]}),
    ("shots", {"shots": [[0, 2, 4]]}),
    ("shots", {"shots": 4}),
    ("shots", {"shots": [[0, 2.7], [2.7, 4]]}),
    ("shots", {"shots": [[0, True], [True, 4]]}),
    ("fps.original", {"fps": {"original": True, "sampled": 2}}),
    ("fps.sampled", {"fps": {"original": 30, "sampled": True}}),
    ("users", {"users": [[True, False, True, 0.5]]}),
    ("users", {"user_kind": "masks", "users": [[True, False, True, False]]}),
])
def test_load_video_non_numeric_values_name_file_and_key(tmp_path, key, patch):
    fpath, apath = tmp_path / "n.ftnf", tmp_path / "n.json"
    write_features(fpath, np.zeros((4, 2), dtype=np.float32))
    doc = {"fps": {"original": 30, "sampled": 2}, "shots": None,
           "user_kind": "scores", "users": [[0.1, 0.2, 0.3, 0.4]]}
    doc.update(patch)
    apath.write_text(json.dumps(doc))
    with pytest.raises(DataError) as exc:
        load_video(fpath, apath)
    assert str(apath) in str(exc.value) and repr(key) in str(exc.value)


def test_load_video_accepts_whole_float_shot_bounds(tmp_path):
    fpath, apath = tmp_path / "w.ftnf", tmp_path / "w.json"
    write_features(fpath, np.zeros((4, 2), dtype=np.float32))
    apath.write_text(json.dumps({
        "fps": {"original": 30, "sampled": 2.5}, "shots": [[0, 2.0], [2, 4]],
        "user_kind": "scores", "users": []}))
    rec = load_video(fpath, apath)
    assert list(rec.shots) == [(0, 2), (2, 4)]
    assert rec.fps_original == 30.0 and rec.fps_sampled == 2.5


def test_load_video_max_len(tmp_path):
    fpath, apath = tmp_path / "d.ftnf", tmp_path / "d.json"
    write_features(fpath, np.zeros((10, 2), dtype=np.float32))
    write_annotations(apath, VideoRecord("d", np.zeros((10, 2), dtype=np.float32)))
    with pytest.raises(DataError):
        load_video(fpath, apath, max_len=8)


# ---------------------------------------------------------------------------
# manifests


def build_tiny_dataset(tmp_path, n=3, seed=7):
    videos, meta = synth_dataset(
        n, (40, 60), 8, (3, 5), seed=seed, out_dir=str(tmp_path), name="tiny"
    )
    return videos, meta


def test_manifest_round_trip(tmp_path):
    videos, meta = build_tiny_dataset(tmp_path)
    ds = load_dataset(meta["manifest"])
    assert ds.name == "tiny"
    assert [v.video_id for v in ds.videos] == [v.video_id for v in videos]
    for orig, back in zip(videos, ds.videos):
        assert np.array_equal(
            back.features.view(np.uint32), orig.features.view(np.uint32)
        )
        assert list(back.shots) == list(orig.shots)
        assert np.allclose(back.user_scores, orig.user_scores)


def test_manifest_missing_file(tmp_path):
    write_manifest(
        tmp_path / "m.json", "x", [("v0", "v0.ftnf", "v0.json")]
    )
    with pytest.raises(DataError):
        load_dataset(tmp_path / "m.json")


def test_manifest_without_videos_names_file(tmp_path):
    write_manifest(tmp_path / "m.json", "x", [])
    with pytest.raises(DataError) as exc:
        load_dataset(tmp_path / "m.json")
    assert str(tmp_path / "m.json") in str(exc.value)
    assert "no videos" in str(exc.value)


@pytest.mark.parametrize("key", ["id", "features", "annotations"])
def test_manifest_entry_missing_key_names_file_and_key(tmp_path, key):
    _, meta = build_tiny_dataset(tmp_path, n=2)
    doc = json.loads(open(meta["manifest"]).read())
    del doc["videos"][1][key]
    bad = tmp_path / "bad_manifest.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DataError) as exc:
        load_dataset(bad)
    assert str(bad) in str(exc.value) and repr(key) in str(exc.value)


@pytest.mark.parametrize("reader", [read_annotations, load_dataset])
@pytest.mark.parametrize("raw, offset", [(b"\xff", 0), (b'{"a": "\xfe"}', 7),
                                         (b'{"a": "\xc3"}', 7)])
def test_json_files_not_utf8_raise_parse_error_at_the_bad_byte(tmp_path, reader,
                                                               raw, offset):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    with pytest.raises(ParseError) as exc:
        reader(path)
    assert exc.value.offset == offset and str(path) in str(exc.value)


@pytest.mark.parametrize("reader", [read_annotations, load_dataset])
@pytest.mark.parametrize("doc", ["3", "[]", '"x"', "null"])
def test_json_files_not_objects_raise_data_error(tmp_path, reader, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    with pytest.raises(DataError) as exc:
        reader(path)
    assert str(path) in str(exc.value) and "not a JSON object" in str(exc.value)


@pytest.mark.parametrize("videos", [5, {"a": 1}, "v0"])
def test_manifest_videos_not_a_list_names_file(tmp_path, videos):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dataset": "x", "videos": videos}))
    with pytest.raises(DataError) as exc:
        load_dataset(path)
    assert str(path) in str(exc.value) and "'videos'" in str(exc.value)


@pytest.mark.parametrize("key", ["id", "features", "annotations"])
@pytest.mark.parametrize("value", [5, None, ["v0.ftnf"]])
def test_manifest_entry_not_a_string_names_file_and_key(tmp_path, key, value):
    _, meta = build_tiny_dataset(tmp_path, n=2)
    doc = json.loads(open(meta["manifest"]).read())
    doc["videos"][1][key] = value
    bad = tmp_path / "bad_manifest.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DataError) as exc:
        load_dataset(bad)
    assert str(bad) in str(exc.value) and repr(key) in str(exc.value)


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_deterministic():
    a_videos, a_meta = synth_dataset(4, (50, 90), 16, (3, 6), seed=11)
    b_videos, b_meta = synth_dataset(4, (50, 90), 16, (3, 6), seed=11)
    assert np.array_equal(a_meta["offset_direction"], b_meta["offset_direction"])
    for va, vb, ma, mb in zip(
        a_videos, b_videos, a_meta["planted_masks"], b_meta["planted_masks"]
    ):
        assert np.array_equal(va.features.view(np.uint32), vb.features.view(np.uint32))
        assert np.array_equal(ma, mb)
        assert np.array_equal(va.user_scores, vb.user_scores)
    c_videos, _ = synth_dataset(4, (50, 90), 16, (3, 6), seed=12)
    assert not np.array_equal(a_videos[0].features, c_videos[0].features)


def test_synth_planted_budget_exact():
    videos, meta = synth_dataset(8, (80, 160), 32, (4, 10), seed=3)
    for rec, mask, pshots in zip(
        videos, meta["planted_masks"], meta["planted_shots"]
    ):
        t = rec.n_frames
        assert mask.sum() == int(np.floor(0.15 * t))
        # planted mask is exactly the union of the planted shots
        want = np.zeros(t, dtype=bool)
        for i in pshots:
            s, e = rec.shots[i]
            want[s:e] = True
        assert np.array_equal(mask, want)
        assert rec.user_scores.shape == (3, t)
        assert rec.user_scores.min() >= 0.0 and rec.user_scores.max() <= 1.0


def test_synth_oracle_selector_recovers_planting():
    videos, meta = synth_dataset(10, (80, 160), 64, (4, 10), seed=5)
    fs = []
    for rec, mask in zip(videos, meta["planted_masks"]):
        scores = oracle_frame_scores(rec.features, meta)
        res = make_summary(scores, rec.shots, budget_ratio=meta["planted_fraction"])
        fs.append(f_of_masks(res.keyframe_mask, mask))
    assert min(fs) >= 95.0, fs


# sha256 of the feature and annotation files synth_dataset writes; taken
# before the generator's unused knobs were removed, so they pin its RNG use
SYNTH_DIGESTS = {
    (0, "default"): "790eedbbfd37d867481ab8aa30af712fd8c80e0f1e7c3b33bf0654ea8cf19bb4",
    (0, "criterion_9"): "e910301151b293617929c0dd17895353b5591cc7a8910a35c45e788da4470f84",
    (123, "default"): "0bbef40fd467ca0f8db9c269a26b837eccc2faa1dee738fbc4c08fa32cff335d",
    (123, "criterion_9"): "be771240c2d2797c21ed9be2e06842da7c0761457af1d9f0d06501e9b779df92",
}


@pytest.mark.parametrize("seed,args", sorted(SYNTH_DIGESTS))
def test_synth_files_match_pinned_digests(tmp_path, seed, args):
    extra = {}
    if args == "criterion_9":
        extra = dict(offset_scale=2.0, center_scale=0.0, max_planted_runs=1)
    synth_dataset(20, (80, 160), 64, (4, 10), seed=seed, out_dir=str(tmp_path),
                  **extra)
    digest = hashlib.sha256()
    for name in sorted(os.listdir(tmp_path)):
        if name != "manifest.json":
            digest.update(name.encode())
            digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == SYNTH_DIGESTS[(seed, args)]


# sha256 of a mask annotation without shots and of a manifest, taken while
# the writers streamed through ``json.dump``; the other annotation kind is
# pinned by SYNTH_DIGESTS
WRITER_DIGESTS = {
    "annotation": "463018fcab380e86e30bdbc390362b688f61e3bb90e986e4ebbe25d6f4739e1b",
    "manifest": "dbe8c26bfcc7293811c9179b2033fe060b10ea4d288acc20fab25602faffe589",
}


def test_annotation_and_manifest_bytes_match_pinned_digests(tmp_path):
    masks = np.array([[1, 0, 0, 1, 1], [0, 1, 1, 0, 0]], dtype=bool)
    rec = VideoRecord("v\u00e9", np.zeros((5, 2), np.float32), fps_original=29.97,
                      fps_sampled=1.5, user_masks=masks)
    write_annotations(tmp_path / "a.json", rec)
    write_manifest(tmp_path / "manifest.json", "d\u00e9mo",
                   [("v\u00e9", "v\u00e9.ftnf", "a.json"), ("w", "w.ftnf", "w.json")])
    for key, name in (("annotation", "a.json"), ("manifest", "manifest.json")):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == WRITER_DIGESTS[key], key


# ---------------------------------------------------------------------------
# atomic writes


def test_atomic_open_replaces_whole_file(tmp_path):
    path = tmp_path / "out.csv"
    with atomic_open(path) as fh:
        fh.write("a,b\n")
    with atomic_open(path, "wb") as fh:
        fh.write(b"c,d\n")
    assert path.read_bytes() == b"c,d\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_atomic_open_failure_keeps_old_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("half of the new")
            raise RuntimeError("writer died")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.csv"]


# ---------------------------------------------------------------------------
# archive import


def test_import_h5_archive(tmp_path):
    h5py = pytest.importorskip("h5py")
    h5_path = tmp_path / "arch.h5"
    rng = np.random.default_rng(0)
    with h5py.File(h5_path, "w") as fh:
        g = fh.create_group("video_1")
        g["features"] = rng.normal(size=(12, 4)).astype(np.float32)
        g["picks"] = np.arange(12) * 15
        g["change_points"] = np.array([[0, 59], [60, 104], [105, 179]])
        summ = np.zeros((2, 180))
        summ[0, 0:60] = 1
        summ[1, 105:180] = 1
        g["user_summary"] = summ
        g2 = fh.create_group("video_2")
        g2["features"] = rng.normal(size=(6, 4)).astype(np.float32)
        g2["gtscore"] = np.linspace(0, 1, 6)
    out = tmp_path / "converted"
    manifest = import_h5_archive(h5_path, out)
    ds = load_dataset(manifest)
    assert [v.video_id for v in ds.videos] == ["video_1", "video_2"]
    v1, v2 = ds.videos
    assert list(v1.shots) == [(0, 4), (4, 7), (7, 12)]
    assert v1.user_masks.shape == (2, 12)
    assert np.array_equal(v1.user_masks[0], np.arange(12) < 4)
    assert v2.shots is None
    assert v2.user_scores.shape == (1, 6)
