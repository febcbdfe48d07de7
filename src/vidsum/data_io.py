"""Dataset file formats, loaders, and the synthetic planted-summary generator.

Feature container ("FTNF"):

    bytes 0..3    magic  b"FTNF"
    bytes 4..7    u32 version (= 1)
    bytes 8..11   u32 n_frames
    bytes 12..15  u32 dim
    bytes 16..    n_frames * dim little-endian float32, row-major

Annotations are UTF-8 JSON with keys ``fps`` ({"original", "sampled"}),
``shots`` and ``users`` (list of per-frame score arrays or binary masks,
tagged by ``user_kind``; a file holds one kind). A ``VideoRecord`` holds
that list as one users x T array, ``users``, whose dtype is its kind: bool
for masks, float for scores. ``shots`` is a list of
half-open [start, end) pairs that tile the video, checked by
``segmentation.check_shots``, or null (or absent) to detect shots with KTS;
any other value is an error. ``VideoRecord.validate`` checks a record's
shots the same way and keeps the tuple of int pairs ``check_shots`` returns.
A manifest is JSON listing the dataset name and per-video file paths; the
train/test folds are made by ``training.make_splits``, not read from it.
"""

import contextlib
import dataclasses
import json
import os
import struct

import numpy as np

from .segmentation import SegmentationError, check_shots

FEATURE_MAGIC = b"FTNF"
FEATURE_VERSION = 1
_HEADER = struct.Struct("<4sIII")


class ParseError(Exception):
    """Malformed file contents; ``offset`` is the failing byte position."""

    def __init__(self, message, offset):
        super().__init__("%s (at byte offset %d)" % (message, offset))
        self.offset = offset


class DataError(Exception):
    """Structurally valid files whose contents are inconsistent."""


@contextlib.contextmanager
def atomic_open(path, mode="w", fsync=True):
    """Write ``path`` through a temp file beside it.

    On a clean exit the temp file is fsynced and renamed over ``path``, so
    readers see the old file or the whole new one; on an error it is
    removed and ``path`` is left as it was. With ``fsync=False`` the rename
    comes without the fsync: still never a torn file, but after a system
    crash possibly an empty or missing one.
    """
    path = os.fspath(path)
    tmp = "%s.tmp.%d" % (path, os.getpid())
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# feature files


def write_features(path, features):
    features = np.ascontiguousarray(features, dtype="<f4")
    if features.ndim != 2:
        raise DataError("features must be 2-D, got shape %r" % (features.shape,))
    n, d = features.shape
    if n == 0 or d == 0:
        raise DataError("empty shape %dx%d for %s" % (n, d, path))
    with atomic_open(path, "wb", fsync=False) as fh:
        fh.write(_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, n, d))
        fh.write(features.tobytes())


def read_features(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ParseError("short header in %s" % path, len(raw))
    magic, version, n, d = _HEADER.unpack_from(raw, 0)
    if magic != FEATURE_MAGIC:
        raise ParseError("bad magic %r in %s" % (magic, path), 0)
    if version != FEATURE_VERSION:
        raise ParseError("unsupported version %d in %s" % (version, path), 4)
    if n == 0 or d == 0:
        raise ParseError("empty shape %dx%d in %s" % (n, d, path), 8)
    need = n * d * 4
    have = len(raw) - _HEADER.size
    if have < need:
        raise ParseError(
            "truncated payload in %s: expected %d bytes, found %d"
            % (path, need, have),
            _HEADER.size + have,
        )
    if have > need:
        raise ParseError("trailing bytes in %s" % path, _HEADER.size + need)
    feats = np.frombuffer(raw, dtype="<f4", count=n * d, offset=_HEADER.size)
    feats = feats.reshape(n, d).astype(np.float32)
    if not np.all(np.isfinite(feats)):
        raise DataError("non-finite feature values in %s" % path)
    return feats


# ---------------------------------------------------------------------------
# annotations


@dataclasses.dataclass
class VideoRecord:
    video_id: str
    features: np.ndarray  # T x D float32
    fps_original: float = 30.0
    fps_sampled: float = 2.0
    shots: tuple | None = None  # (start, end) pairs
    users: np.ndarray | None = None  # users x T: bool masks or float scores

    @property
    def n_frames(self):
        return int(self.features.shape[0])

    @property
    def dim(self):
        return int(self.features.shape[1])

    @property
    def user_kind(self):
        """The kind of ``users``: "masks" for a bool array, else "scores"."""
        bool_array = self.users is not None and self.users.dtype == bool
        return "masks" if bool_array else "scores"

    def validate(self):
        """Check the record against itself: finite features, shots that
        tile its frames, and ``users`` of a bool or float dtype, of its
        length and finite."""
        t = self.n_frames
        if not np.all(np.isfinite(self.features)):
            raise DataError("non-finite features in video %s" % self.video_id)
        if self.shots is not None:
            try:
                self.shots = check_shots(self.shots, t)
            except SegmentationError as exc:
                raise DataError("video %s: %s" % (self.video_id, exc)) from exc
        users = self.users
        if users is None:
            return self
        if users.dtype.kind not in ("b", "f"):
            raise DataError("video %s: users dtype %s is neither bool (masks) "
                            "nor float (scores)" % (self.video_id, users.dtype))
        if users.ndim != 2 or users.shape[1] != t:
            raise DataError("video %s: users shape %r does not match %d frames"
                            % (self.video_id, users.shape, t))
        if not np.all(np.isfinite(users)):
            raise DataError("non-finite user scores in video %s" % self.video_id)
        return self


def write_annotations(path, record):
    kind, users = record.user_kind, record.users
    if kind == "masks":  # written as 0/1
        users = users.astype(np.int64)
    doc = {
        "fps": {"original": record.fps_original, "sampled": record.fps_sampled},
        "shots": None if record.shots is None else [list(p) for p in record.shots],
        "user_kind": kind,
        "users": [] if users is None else users.tolist(),
    }
    with atomic_open(path, fsync=False) as fh:
        fh.write(json.dumps(doc) + "\n")


def _read_json_object(path, what):
    """The top-level JSON object of ``path``; errors call the file a ``what``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError("%s %s is not UTF-8" % (what, path), exc.start)
    except json.JSONDecodeError as exc:  # exc.pos indexes characters
        raise ParseError("invalid JSON in %s: %s" % (path, exc.msg),
                         len(exc.doc[:exc.pos].encode("utf-8")))
    if not isinstance(doc, dict):
        raise DataError("%s %s is not a JSON object" % (what, path))
    return doc


def read_annotations(path):
    doc = _read_json_object(path, "annotation")
    for key in ("fps", "users", "user_kind"):
        if key not in doc:
            raise DataError("annotation %s missing key %r" % (path, key))
    for key in ("original", "sampled"):
        if not isinstance(doc["fps"], dict) or key not in doc["fps"]:
            raise DataError("annotation %s missing key 'fps.%s'" % (path, key))
    if doc["user_kind"] not in ("scores", "masks"):
        raise DataError("annotation %s: unknown user_kind %r" % (path, doc["user_kind"]))
    return doc


def _real(value):
    """A JSON number as a float; anything else, booleans too, raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number, got %r" % (value,))
    return float(value)


def load_video(feature_path, annotation_path, video_id=None):
    features = read_features(feature_path)
    doc = read_annotations(annotation_path)
    if video_id is None:
        video_id = os.path.splitext(os.path.basename(feature_path))[0]

    def number(key, convert):
        try:
            return convert()
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataError("annotation %s: bad value under key %r: %s"
                            % (annotation_path, key, exc)) from exc

    shots = None
    if doc.get("shots") is not None:
        shots = number("shots", lambda: check_shots(doc["shots"], len(features)))
    users = None
    if doc["users"]:
        users = number("users", lambda: np.array(
            [[_real(v) for v in row] for row in doc["users"]]))
        if doc["user_kind"] == "masks":
            if not np.all((users == 0.0) | (users == 1.0)):
                raise DataError("annotation %s: masks must be 0/1" % annotation_path)
            users = users.astype(bool)
    record = VideoRecord(
        video_id=video_id,
        features=features,
        fps_original=number("fps.original", lambda: _real(doc["fps"]["original"])),
        fps_sampled=number("fps.sampled", lambda: _real(doc["fps"]["sampled"])),
        shots=shots,
        users=users,
    )
    return record.validate()


# ---------------------------------------------------------------------------
# manifests


@dataclasses.dataclass
class Dataset:
    name: str
    videos: list

    def by_id(self, video_id):
        for v in self.videos:
            if v.video_id == video_id:
                return v
        raise KeyError(video_id)


def write_manifest(path, name, entries):
    """entries: list of (video_id, feature_path, annotation_path), paths
    relative to the manifest's directory."""
    doc = {
        "dataset": name,
        "videos": [
            {"id": vid, "features": feat, "annotations": ann}
            for vid, feat, ann in entries
        ],
    }
    with atomic_open(path, fsync=False) as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")


def load_dataset(manifest_path):
    doc = _read_json_object(manifest_path, "manifest")
    for key in ("dataset", "videos"):
        if key not in doc:
            raise DataError("manifest %s missing key %r" % (manifest_path, key))
    if not isinstance(doc["videos"], list) or not doc["videos"]:
        raise DataError("manifest %s lists no videos ('videos' must be a "
                        "non-empty list)" % manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    videos = []
    for k, entry in enumerate(doc["videos"]):
        for key in ("id", "features", "annotations"):
            if not isinstance(entry, dict) or key not in entry:
                raise DataError("manifest %s: video %d missing key %r"
                                % (manifest_path, k, key))
            if not isinstance(entry[key], str):
                raise DataError("manifest %s: video %d %r is not a string"
                                % (manifest_path, k, key))
        vid = entry["id"]  # names the files summarize writes under --out
        if vid in ("", ".", "..") or {"/", os.sep, os.altsep} & set(vid):
            raise DataError("manifest %s: video %d id %r is not a plain file "
                            "name" % (manifest_path, k, vid))
        feat = os.path.join(base, entry["features"])
        ann = os.path.join(base, entry["annotations"])
        for p in (feat, ann):
            if not os.path.exists(p):
                raise DataError("manifest %s references missing file %s"
                                % (manifest_path, p))
        videos.append(load_video(feat, ann, video_id=entry["id"]))
    ids = [v.video_id for v in videos]
    if len(set(ids)) != len(ids):
        raise DataError("manifest %s has duplicate video ids" % manifest_path)
    return Dataset(name=doc["dataset"], videos=videos)


# ---------------------------------------------------------------------------
# synthetic data with planted summaries

SYNTH_NOISE = 0.05  # std of the feature and annotator-score noise
SYNTH_USERS = 3


def _partition(total, parts, min_len, rng):
    """Split `total` into `parts` integers, each >= min_len, random order."""
    if parts * min_len > total:
        raise ValueError("cannot split %d into %d parts of >= %d" % (total, parts, min_len))
    slack = total - parts * min_len
    cuts = np.sort(rng.integers(0, slack + 1, size=parts - 1)) if parts > 1 else np.array([], dtype=np.int64)
    bounds = np.concatenate(([0], cuts, [slack]))
    return (np.diff(bounds) + min_len).astype(np.int64)


def synth_video(t, dim, n_shots, planted_fraction, rng, offset_direction,
                offset_scale=1.0, center_scale=1.0, max_planted_runs=4,
                video_id="synth"):
    """One shot-structured video with a planted key-shot subset.

    The planted shots total exactly floor(planted_fraction * t) frames, so a
    budget-matched selector can recover them exactly.  Shot centers are drawn
    orthogonal to `offset_direction`; planted frames get +offset_scale along
    it, which is what the oracle selector thresholds on.  Frame features and
    the scores of the SYNTH_USERS annotators carry Gaussian noise of standard
    deviation SYNTH_NOISE.
    """
    u = offset_direction
    min_len = 3
    budget = int(np.floor(planted_fraction * t))
    if budget < min_len:
        raise ValueError("planted budget %d below minimum shot length" % budget)
    # spread the planting over several runs when the budget allows; a single
    # contiguous run makes recovery all-or-nothing for budget-matched selectors
    cap = min(budget // min_len, max(1, n_shots - 2), max_planted_runs)
    n_planted = int(rng.integers(2, cap + 1)) if cap >= 2 else 1
    rest = t - budget
    max_other = rest // min_len
    n_other = int(np.clip(n_shots - n_planted, 1, max_other))

    planted_lens = _partition(budget, n_planted, min_len, rng)
    other_lens = _partition(rest, n_other, min_len, rng)
    kinds = [True] * n_planted + [False] * n_other
    order = rng.permutation(len(kinds))
    lens, planted_flags = [], []
    p_i = o_i = 0
    for k in order:
        if kinds[k]:
            lens.append(int(planted_lens[p_i])); p_i += 1
        else:
            lens.append(int(other_lens[o_i])); o_i += 1
        planted_flags.append(kinds[k])
    bounds = np.concatenate(([0], np.cumsum(lens)))
    shots = tuple((int(bounds[i]), int(bounds[i + 1])) for i in range(len(lens)))

    centers = rng.normal(0.0, center_scale, size=(len(lens), dim))
    centers -= np.outer(centers @ u, u)  # keep the offset axis clean
    features = np.empty((t, dim), dtype=np.float64)
    planted_mask = np.zeros(t, dtype=bool)
    for i, (s, e) in enumerate(shots):
        features[s:e] = centers[i] + rng.normal(0.0, SYNTH_NOISE, size=(e - s, dim))
        if planted_flags[i]:
            features[s:e] += offset_scale * u
            planted_mask[s:e] = True

    base = planted_mask.astype(np.float64)
    users = np.clip(
        base[None, :] + rng.normal(0.0, SYNTH_NOISE, size=(SYNTH_USERS, t)),
        0.0, 1.0,
    )
    record = VideoRecord(
        video_id=video_id,
        features=features.astype(np.float32),
        shots=shots,
        users=users,
    ).validate()
    planted_shots = [i for i, f in enumerate(planted_flags) if f]
    return record, planted_mask, planted_shots


def synth_dataset(n_videos, t_range, dim, n_shots_range, planted_fraction=0.15,
                  seed=0, out_dir=None, name="synth", offset_scale=1.0,
                  center_scale=1.0, max_planted_runs=4):
    """Seeded synthetic dataset; returns (videos, meta).

    meta carries the construction secrets: the dataset-level offset
    direction, per-video planted masks and shot indices.  When out_dir is
    given the dataset is also written out (features + annotations +
    manifest) and meta records the manifest path.
    """
    if not 0.0 < planted_fraction < 1.0:
        raise ValueError("planted_fraction must be in (0, 1)")
    if n_videos < 1:
        raise ValueError("n_videos must be >= 1, got %r" % (n_videos,))
    if dim < 1:
        raise ValueError("dim must be >= 1, got %r" % (dim,))
    for arg, (low, high) in (("t_range", t_range),
                             ("n_shots_range", n_shots_range)):
        if low > high:
            raise ValueError("%s must have min <= max, got (%r, %r)"
                             % (arg, low, high))
    planted = int(np.floor(planted_fraction * t_range[0]))
    if min(planted, t_range[0] - planted) < 3:  # synth_video's shortest shot
        raise ValueError("t_range must start at a length with >= 3 planted and "
                         ">= 3 other frames at planted_fraction %r, got %r"
                         % (planted_fraction, t_range[0]))
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, 1.0, size=dim)
    u /= np.linalg.norm(u)
    videos, planted_masks, planted_shots = [], [], []
    for k in range(n_videos):
        t = int(rng.integers(t_range[0], t_range[1] + 1))
        n_shots = int(rng.integers(n_shots_range[0], n_shots_range[1] + 1))
        rec, mask, pshots = synth_video(
            t, dim, n_shots, planted_fraction, rng, u,
            offset_scale=offset_scale, center_scale=center_scale,
            max_planted_runs=max_planted_runs, video_id="%s_%03d" % (name, k),
        )
        videos.append(rec)
        planted_masks.append(mask)
        planted_shots.append(pshots)
    meta = {
        "offset_direction": u,
        "offset_scale": offset_scale,
        "planted_fraction": planted_fraction,
        "planted_masks": planted_masks,
        "planted_shots": planted_shots,
        "seed": seed,
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        entries = []
        for rec in videos:
            feat = rec.video_id + ".ftnf"
            ann = rec.video_id + ".json"
            write_features(os.path.join(out_dir, feat), rec.features)
            write_annotations(os.path.join(out_dir, ann), rec)
            entries.append((rec.video_id, feat, ann))
        manifest = os.path.join(out_dir, "manifest.json")
        write_manifest(manifest, name, entries)
        meta["manifest"] = manifest
    return videos, meta


# ---------------------------------------------------------------------------
# archive import


def import_h5_archive(h5_path, out_dir, name=None, fps_original=30.0,
                      fps_sampled=2.0):
    """Convert the community archive layout into this package's formats.

    Expected groups (one per video): ``features`` (T x D float), optional
    ``picks`` (T, original-frame index per sampled frame), optional
    ``change_points`` (m x 2, inclusive original-frame ranges), optional
    ``user_summary`` (U x n_original binary) and/or ``gtscore`` (T,).
    Writes FTNF + annotation files plus a manifest into out_dir.
    """
    try:
        import h5py
    except ImportError as exc:  # pragma: no cover - exercised only without h5py
        raise DataError(
            "archive import needs the optional h5py dependency "
            "(pip install 'vidsum[archive]')"
        ) from exc
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    with h5py.File(h5_path, "r") as fh:
        if name is None:
            name = os.path.splitext(os.path.basename(h5_path))[0]
        for key in sorted(fh.keys()):
            grp = fh[key]
            feats = np.asarray(grp["features"], dtype=np.float32)
            t = feats.shape[0]
            picks = (
                np.asarray(grp["picks"], dtype=np.int64)
                if "picks" in grp
                else np.arange(t, dtype=np.int64)
            )
            if picks.shape[0] != t:
                raise DataError("%s/%s: picks length %d != %d frames"
                                % (h5_path, key, picks.shape[0], t))
            shots = None
            if "change_points" in grp:
                cps = np.asarray(grp["change_points"], dtype=np.int64)
                # inclusive original-frame ranges -> half-open sampled ranges
                starts = np.searchsorted(picks, cps[:, 0], side="left")
                pairs = []
                prev = 0
                for s in starts[1:]:
                    s = int(min(max(s, prev + 1), t))
                    if s <= prev:
                        continue
                    pairs.append((prev, s))
                    prev = s
                if prev < t:
                    pairs.append((prev, t))
                shots = tuple(pairs)
            users = None  # bool masks or float scores; validate checks T
            if "user_summary" in grp:
                summ = np.asarray(grp["user_summary"], dtype=np.float64)
                users = summ[:, picks] > 0.5
            elif "gtscore" in grp:
                users = np.asarray(grp["gtscore"], dtype=np.float64).reshape(1, -1)
            rec = VideoRecord(
                video_id=key,
                features=feats,
                fps_original=fps_original,
                fps_sampled=fps_sampled,
                shots=shots,
                users=users,
            ).validate()
            feat_name, ann_name = key + ".ftnf", key + ".json"
            write_features(os.path.join(out_dir, feat_name), rec.features)
            write_annotations(os.path.join(out_dir, ann_name), rec)
            entries.append((key, feat_name, ann_name))
    manifest = os.path.join(out_dir, "manifest.json")
    write_manifest(manifest, name, entries)
    return manifest
