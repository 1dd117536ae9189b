"""Dataset construction: subject metadata, volume I/O, splits,
preprocessing, ROI instance selection, 3D crops, batches, and a synthetic
volume generator used in place of restricted clinical data.

``iter_crops`` is the one crop loop and ``mixed_sample`` the one join of a
record's crops with its tabular features. A command builds its crops once,
before any training (``train.model_crops``), and that build is the check
that they fit; a fold or trial only joins them with its own ``FitStats``.

``is_number`` is the one number rule of every file the pipeline reads: the
manifest, ``FitStats``, a config, a search space and a metrics file.
``parse_json`` is their one JSON parse, and ``_read_lines`` the one loop
over the lines of the manifest and the instance table: every text file the
pipeline reads is read as bytes and goes through one or both.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

CN = 0
AD = 1
LABEL_NAMES = {CN: "CN", AD: "AD"}
LABEL_CODES = {"CN": CN, "AD": AD}

VALID_CDR = (0.0, 0.5, 1.0, 2.0, 3.0)

VOLUME_MAGIC = b"MIV1"
VOLUME_VERSION = 1
_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("uint8")}
_CODE_FOR_KIND = {"f": 1, "u": 2}
_MAX_VOXELS = 1 << 40

# Synthetic volumes must leave room for the 25x32x32 crop to move around.
SYNTH_MARGIN = 8
MIN_SYNTH_DIMS = (25 + SYNTH_MARGIN, 32 + SYNTH_MARGIN, 32 + SYNTH_MARGIN)


def is_number(value) -> bool:
    """An int or a finite float. JSON's true and false are ints to Python,
    and its NaN and Infinity are floats: none of them is a number here."""
    return type(value) is int or (type(value) is float
                                  and math.isfinite(value))


def parse_json(blob: bytes):
    """The value of a UTF-8 JSON document. An object that repeats a key is
    refused, where Python's json lets the last value win (RFC 8259 section
    4: names SHOULD be unique), and so is a string holding a lone surrogate
    (an unpaired ``\\ud800``-``\\udfff`` escape), which no UTF-8 file can
    hold. Every failure is a ``ValueError``."""
    try:
        value = json.loads(blob.decode("utf-8"), object_pairs_hook=_unique)
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except RecursionError as exc:  # nested past Python's recursion limit
        raise ValueError(f"JSON nested too deeply: {exc}") from exc
    except UnicodeEncodeError as exc:
        raise ValueError(f"a string holds the lone surrogate "
                         f"{exc.object[exc.start]!r}") from exc
    return value


def _unique(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"key {max(keys, key=keys.count)!r} repeats")
    return obj


class FormatError(ValueError):
    """The volume container has a bad magic or malformed header, or its
    array cannot be a subject's volume or mask: not 3-D, or not finite."""


class TruncatedPayloadError(ValueError):
    """Declared dims and dtype disagree with the payload length."""


class DimOverflowError(ValueError):
    """Declared dimensions are implausibly large."""


class UnmappedCdrError(ValueError):
    """CDR 0.5 falls outside the two study classes."""


class EmptyMaskError(ValueError):
    """A missing or empty ROI mask cannot drive instance selection."""


class CropError(ValueError):
    """An ROI crop plane is larger than its volume's plane."""


class SliceWindowError(ValueError):
    """An instance-table row that does not fit its volume, its slice window
    past the depth or its centre outside the plane, or a selection window
    deeper than the mask."""


class PlanError(ValueError):
    """A subject split or fold set that cannot be trained and scored, from
    ``split_subjects``, ``metrics.stratified_kfold`` or ``train.FitPlan``."""


@dataclass(frozen=True)
class SubjectRecord:
    subject_id: str
    # No decision reads it; it stays for the manifest bytes that the
    # benchmark's prep_synth golden value hashes.
    visit_date: str
    age: float
    mmse: int
    gender: str
    cdr: float
    volume_path: str
    roi_masks: dict

    def __post_init__(self):
        sid = self.subject_id  # a field of the comma-separated table
        if not (isinstance(sid, str) and sid) or set(sid) & set(",\r\n"):
            raise ValueError(f"subject_id {sid!r} is not a non-empty string "
                             f"free of ',', CR and LF")
        if not (type(self.mmse) is int and 0 <= self.mmse <= 30):
            raise ValueError(f"mmse {self.mmse!r} is not an int in [0, 30]")
        if not (is_number(self.age) and self.age > 0):
            raise ValueError(f"age {self.age!r} must be positive and finite")
        cdr_to_label(self.cdr)  # one of the two study classes
        if self.gender not in ("F", "M"):
            raise ValueError(f"gender {self.gender!r} not in {{F, M}}")


@dataclass(frozen=True)
class InstanceRecord:
    subject_id: str
    class_label: int
    roi_name: str
    slice_start: int
    slice_count: int
    cx: int
    cy: int


@dataclass
class MixedSample:
    subject_id: str
    tabular: np.ndarray  # (F,), values in [0, 1]
    images: list  # per ROI branch: read-only (T, H', W', C) view of one plane
    label: int


@dataclass
class MixedBatch:
    subject_ids: list
    tabular: np.ndarray  # (B, F)
    images: list  # per ROI branch: the group's own views, shapes unchecked
    labels: np.ndarray  # (B,)


@dataclass(frozen=True)
class FitStats:
    """Min-max ranges fitted on the training split only, each two ordered
    finite numbers (Python's json reads Infinity). A range may have zero
    width, a feature constant over the split."""
    age_min: float
    age_max: float
    mmse_min: float
    mmse_max: float

    def __post_init__(self):
        for name, lo, hi in (("age", self.age_min, self.age_max),
                             ("mmse", self.mmse_min, self.mmse_max)):
            if not (is_number(lo) and is_number(hi) and lo <= hi):
                raise ValueError(f"{name} fit range [{lo!r}, {hi!r}] is not "
                                 f"two ordered numbers, both finite")

    @classmethod
    def from_records(cls, records: Sequence[SubjectRecord]) -> "FitStats":
        ages = [float(r.age) for r in records]
        mmses = [r.mmse for r in records]
        return cls(min(ages), max(ages), float(min(mmses)), float(max(mmses)))


# ---------------------------------------------------------------------------
# volume container


def save_volume(arr: np.ndarray, path) -> None:
    """Write an array in the binary container; bit-exact round trip."""
    arr = np.ascontiguousarray(arr)
    code = _CODE_FOR_KIND.get(arr.dtype.kind)
    if code is None:
        raise ValueError(f"unsupported dtype {arr.dtype}")
    arr = arr.astype(_DTYPE_CODES[code], copy=False)
    header = VOLUME_MAGIC + struct.pack("<II", VOLUME_VERSION, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    header += struct.pack("<I", code)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.data)  # the contiguous buffer itself, not a copy


def load_volume(path) -> np.ndarray:
    """The array of a container written by ``save_volume``, of any rank. A
    malformed container raises ``FormatError``, ``TruncatedPayloadError`` or
    ``DimOverflowError`` with a message that names ``path``. The payload is
    read straight into a ``bytearray`` of its size, with no ``bytes`` copy
    beside it; the array is a writable view of it."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        if head[:4] != VOLUME_MAGIC:
            raise FormatError(f"bad magic {head[:4]!r} in {path}")
        if len(head) < 12:
            raise TruncatedPayloadError(
                f"{path} is {len(head)} bytes, shorter than its 12-byte "
                f"header")
        version, ndim = struct.unpack("<II", head[4:12])
        if version != VOLUME_VERSION:
            raise FormatError(
                f"unsupported container version {version} in {path}")
        if ndim > 8:
            raise DimOverflowError(f"ndim {ndim} too large in {path}")
        rest = fh.read(4 * ndim + 4)
        if len(rest) < 4 * ndim + 4:
            raise TruncatedPayloadError(
                f"{path} is {12 + len(rest)} bytes, shorter than its "
                f"{16 + 4 * ndim}-byte header")
        dims = struct.unpack(f"<{ndim}I", rest[:4 * ndim])
        if any(d == 0 for d in dims) or math.prod(dims) > _MAX_VOXELS:
            raise DimOverflowError(
                f"dims {dims} overflow plausible bounds in {path}")
        (code,) = struct.unpack("<I", rest[4 * ndim:])
        dtype = _DTYPE_CODES.get(code)
        if dtype is None:
            raise FormatError(f"unknown dtype code {code} in {path}")
        expected = math.prod(dims) * dtype.itemsize
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != expected:
            raise TruncatedPayloadError(
                f"{path}: payload is {payload} bytes, dims {dims} require "
                f"{expected}")
        blob = bytearray(expected)
        fh.readinto(blob)
    return np.frombuffer(blob, dtype=dtype).reshape(dims)


def _require_3d(dims: tuple, path) -> None:
    """A subject's volume or mask is (D, H, W): another rank is a
    ``FormatError`` naming ``path`` and the dims."""
    if len(dims) != 3:
        raise FormatError(f"{path} holds a {len(dims)}-D array of dims "
                          f"{tuple(dims)}; a subject volume or mask is 3-D "
                          f"(D, H, W)")


# ---------------------------------------------------------------------------
# subject manifest and instance table


def save_manifest(records: Sequence[SubjectRecord], path) -> None:
    """One JSON object per line; paths stored relative to the manifest."""
    base = Path(path).parent
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            obj = {
                "subject_id": r.subject_id,
                "visit_date": r.visit_date,
                "age": r.age,
                "mmse": r.mmse,
                "gender": r.gender,
                "cdr": r.cdr,
                "volume": _relative(r.volume_path, base),
                "rois": {name: _relative(p, base)
                         for name, p in sorted(r.roi_masks.items())},
            }
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def load_manifest(path) -> list[SubjectRecord]:
    """Records of a manifest written by ``save_manifest``. A malformed line
    (not UTF-8 JSON, a repeated key, a missing key, a value of the wrong
    type or one ``SubjectRecord`` rejects), or one that repeats an earlier
    line's subject, raises one ValueError naming file and line."""
    base = Path(path).parent
    return _read_lines(path, lambda line: _subject_record(line, base),
                       lambda r: f"subject {r.subject_id}", "subject record")


def _subject_record(line: bytes, base: Path) -> SubjectRecord:
    obj = parse_json(line)
    rois = obj["rois"]
    if not isinstance(rois, dict):
        raise TypeError(f"rois {rois!r} is not an object")
    return SubjectRecord(
        subject_id=obj["subject_id"],
        visit_date=obj["visit_date"],
        age=obj["age"],
        mmse=obj["mmse"],
        gender=obj["gender"],
        cdr=obj["cdr"],
        volume_path=str(base / obj["volume"]),
        roi_masks={name: str(base / p) for name, p in rois.items()},
    )


def _relative(path, base: Path) -> str:
    try:
        return Path(path).relative_to(base).as_posix()
    except ValueError:
        return Path(path).as_posix()


INSTANCE_HEADER = "subject_id,class,roi,slice_start,slice_count,cx,cy"


def save_instances(instances: Sequence[InstanceRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(INSTANCE_HEADER + "\n")
        for inst in instances:
            fh.write(",".join([
                inst.subject_id, LABEL_NAMES[inst.class_label], inst.roi_name,
                str(inst.slice_start), str(inst.slice_count),
                str(inst.cx), str(inst.cy)]) + "\n")


def load_instances(path) -> list[InstanceRecord]:
    """Rows of a table written by ``save_instances``, header and all. A
    header or row not as it writes them (an integer ``+10``, ``010``,
    ``1_2``, a space), or one that repeats an earlier row's subject and
    ROI, raises one ValueError naming file and line."""
    return _read_lines(path, _instance_row,
                       lambda r: f"subject {r.subject_id}, roi {r.roi_name!r}",
                       "instance row", INSTANCE_HEADER)


def _instance_row(line: bytes) -> InstanceRecord:
    sid, cls, roi, *texts = line.decode("utf-8").split(",")
    ints = [int(text) for text in texts]
    if len(ints) != 4 or list(map(str, ints)) != texts:
        raise ValueError(f"{texts} are not four integers as str writes them")
    if ints[1] < 1:
        raise ValueError(f"slice_count {ints[1]} < 1")
    return InstanceRecord(sid, LABEL_CODES[cls], roi, *ints)


def _read_lines(path, parse, key, what: str, header=None) -> list:
    """The one line loop: ``parse`` of each non-blank line's bytes, without
    the LF or CRLF that ends it, after a first line that must be ``header``
    when one is given. A line ``parse`` refuses, or whose ``key`` repeats an
    earlier line's, raises one ValueError naming file and line."""
    items, first = [], {}
    with open(path, "rb") as fh:
        if header is not None:
            line = fh.readline().removesuffix(b"\n").removesuffix(b"\r")
            if line != header.encode():
                raise ValueError(f"{path}, line 1: {line!r} is not the "
                                 f"header {header!r}")
        for lineno, raw in enumerate(fh, start=1 + (header is not None)):
            if not raw.strip():
                continue
            try:
                item = parse(raw.removesuffix(b"\n").removesuffix(b"\r"))
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise ValueError(f"{path}, line {lineno}: malformed {what} "
                                 f"({exc!r})") from exc
            seen = first.setdefault(key(item), lineno)
            if seen != lineno:
                raise ValueError(f"{path}, line {lineno}: {key(item)} repeats "
                                 f"line {seen}")
            items.append(item)
    return items


# ---------------------------------------------------------------------------
# metadata operations


def cdr_to_label(cdr: float) -> int:
    if not (is_number(cdr) and cdr in VALID_CDR):
        raise ValueError(f"cdr {cdr!r} not in {VALID_CDR}, or not a number")
    if cdr == 0.0:
        return CN
    if cdr >= 1.0:
        return AD
    raise UnmappedCdrError(
        "CDR 0.5 is outside the two study classes (0 -> CN, >=1 -> AD)")


def split_subjects(records: Sequence[SubjectRecord], ratios,
                   rng: np.random.Generator):
    """Stratified subject-level split; rounding remainders go to train."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios {ratios} do not sum to 1")
    ids = [r.subject_id for r in records]
    if len(set(ids)) != len(ids):
        raise PlanError("duplicate subject ids: one record per subject")
    if len(records) < 3:
        raise PlanError("fewer subjects than split sets")
    val_total = int(round(len(records) * ratios[1]))
    test_total = int(round(len(records) * ratios[2]))

    by_class: dict[int, list[SubjectRecord]] = {}
    for r in sorted(records, key=lambda r: r.subject_id):
        by_class.setdefault(cdr_to_label(r.cdr), []).append(r)
    labels = sorted(by_class)

    def apportion(total: int, portion: float) -> dict[int, int]:
        floors = {c: int(math.floor(len(by_class[c]) * portion))
                  for c in labels}
        fracs = sorted(labels, key=lambda c: (-(len(by_class[c]) * portion
                                                - floors[c]), c))
        short = total - sum(floors.values())
        for c in fracs[:max(0, short)]:
            floors[c] += 1
        return floors

    val_counts = apportion(val_total, ratios[1])
    test_counts = apportion(test_total, ratios[2])

    train, val, test = [], [], []
    for c in labels:
        group = list(by_class[c])
        order = rng.permutation(len(group))
        group = [group[i] for i in order]
        nv, nt = val_counts[c], test_counts[c]
        val.extend(group[:nv])
        test.extend(group[nv:nv + nt])
        train.extend(group[nv + nt:])
    return train, val, test


def holdout_split(records: Sequence[SubjectRecord], seed: int):
    """(train, validation, test) subjects at ``seed``: the one 70/15/15 split
    whose test subjects ``train``, ``cv`` and ``tune`` all hold out."""
    return split_subjects(records, (0.70, 0.15, 0.15),
                          np.random.default_rng([seed, 11]))


def tabular_features(record: SubjectRecord, fit: FitStats) -> np.ndarray:
    """[age, mmse, gender one-hot]; F=4. Age and MMSE are min-max scaled by
    the ranges of ``fit`` and clamped to [0,1]; a feature of a zero-width
    range, constant over the training split, scales to 0, as a constant
    volume does in ``scale_volume``."""
    values = np.array([record.age, record.mmse], dtype=np.float64)
    lo = np.array([fit.age_min, fit.mmse_min])
    width = np.array([fit.age_max, fit.mmse_max]) - lo
    scaled = np.divide(values - lo, width, out=np.zeros(2), where=width > 0)
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return np.append(scaled, [record.gender == "F", record.gender == "M"])


# ---------------------------------------------------------------------------
# instance selection


def slice_window_select(mask: np.ndarray, window: int) -> int:
    """Start of the contiguous window maximizing mask voxel count; a voxel
    counts when it is nonzero, as in ``modal_centroid``."""
    depth = mask.shape[0]
    if depth < window:
        raise SliceWindowError(f"volume depth {depth} < window {window}")
    counts = np.count_nonzero(mask.reshape(depth, -1), axis=1)
    if counts.sum() == 0:
        raise EmptyMaskError("mask has no voxels")
    sums = np.convolve(counts, np.ones(window, dtype=np.int64), mode="valid")
    return int(np.argmax(sums))  # argmax takes the first max: smallest start


def _mode_smallest(values: np.ndarray) -> int:
    """The most frequent value; the smallest of those tied for most."""
    unique, counts = np.unique(values, return_counts=True)
    return int(unique[np.argmax(counts)])  # unique is sorted ascending


def modal_centroid(mask: np.ndarray, slice_start: int,
                   slice_count: int) -> tuple:
    """Per-axis statistical mode of the per-slice rounded mask centroids.

    A slice's centroid is the mean row and mean column index of its nonzero
    voxels, rounded half up; slices without mask voxels do not contribute.
    One pass over the window gives each slice's voxel count and row and
    column index sums as exact integers, and only non-empty slices are
    divided. A window outside ``[0, depth)`` raises ``SliceWindowError``.
    """
    depth = mask.shape[0]
    if slice_start < 0 or slice_count < 0 or slice_start + slice_count > depth:
        raise SliceWindowError(
            f"slice window [{slice_start}, {slice_start + slice_count}) "
            f"outside depth {depth}")
    window = mask[slice_start:slice_start + slice_count] != 0
    per_row = window.sum(axis=2)  # (slices, H) voxel counts
    counts = per_row.sum(axis=1)
    filled = counts > 0
    if not filled.any():
        raise EmptyMaskError("no slice in the window has mask pixels")
    counts = counts[filled]
    row_sums = per_row[filled] @ np.arange(window.shape[1])
    col_sums = window[filled].sum(axis=1) @ np.arange(window.shape[2])
    return (_mode_smallest(np.floor(row_sums / counts + 0.5)),
            _mode_smallest(np.floor(col_sums / counts + 0.5)))


def select_instance(record: SubjectRecord, roi: str, slice_count: int,
                    mask: np.ndarray) -> InstanceRecord:
    start = slice_window_select(mask, slice_count)
    cx, cy = modal_centroid(mask, start, slice_count)
    return InstanceRecord(record.subject_id, cdr_to_label(record.cdr), roi,
                          start, slice_count, cx, cy)


def select_instances(records: Sequence[SubjectRecord], roi: str,
                     slice_count: int = 25) -> list[InstanceRecord]:
    """One instance per record, in order. A missing or empty mask, or a window
    deeper than the mask, raises a typed error that names the subject."""
    out = []
    for record in records:
        path = record.roi_masks.get(roi)
        if path is None:
            raise EmptyMaskError(
                f"subject {record.subject_id} has no mask for roi {roi!r}")
        try:
            mask = load_volume(path)
            _require_3d(mask.shape, path)
            out.append(select_instance(record, roi, slice_count, mask))
        except (EmptyMaskError, SliceWindowError) as exc:
            raise type(exc)(f"subject {record.subject_id}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# volumes, crops, batches


def scale_volume(raw: np.ndarray, lo: float, hi: float,
                 channels: int) -> np.ndarray:
    """Min-max scale voxels of a volume whose values span ``[lo, hi]`` to
    float64 in [0,1], repeated ``channels`` times along a new last axis; a
    constant volume becomes 0. The values are stored once, in a (..., 1)
    array, and the result is a read-only ``np.broadcast_to`` view of it.
    They go straight into that array: a float64 temporary per crop, left
    between the images ``build_samples`` keeps, fragments the heap and
    raises the peak memory of the inference that follows."""
    plane = raw.shape + (1,)
    if hi > lo:
        out = np.subtract(raw[..., None], lo, out=np.empty(plane),
                          dtype=np.float64)
        out /= hi - lo
    else:
        out = np.zeros(plane)
    return np.broadcast_to(out, raw.shape + (channels,))


def crop_roi(volume: np.ndarray, instance: InstanceRecord,
             size=(32, 32)) -> np.ndarray:
    """The (T, H', W') window of a (D, H, W) volume, a view, centred on the
    modal centroid.

    Windows near a border are shifted (not padded) to stay inside the plane;
    a centre outside the plane is a ``SliceWindowError``.
    """
    depth, H, W = volume.shape
    hp, wp = size
    if H < hp or W < wp:
        raise CropError(f"plane {(H, W)} smaller than crop window {size}")
    start, cx, cy = instance.slice_start, instance.cx, instance.cy
    end = start + instance.slice_count
    where = f"subject {instance.subject_id}, roi {instance.roi_name!r}"
    if start < 0 or end > depth:
        raise SliceWindowError(f"{where}: slice window [{start}, {end}) "
                               f"outside depth {depth}")
    if not (0 <= cx < H and 0 <= cy < W):
        raise SliceWindowError(f"{where}: centre ({cx}, {cy}) outside plane "
                               f"{(H, W)}")
    top = min(max(cx - hp // 2, 0), H - hp)
    left = min(max(cy - wp // 2, 0), W - wp)
    return volume[start:end, top:top + hp, left:left + wp]


def iter_crops(records: Sequence[SubjectRecord],
               instances: Sequence[InstanceRecord], rois: Sequence[str],
               size=(32, 32), channels: int = 3) -> Iterator[tuple]:
    """Each record with its images, a crop per requested ROI, its volume
    loaded when the record is reached: the one crop loop.

    Each image is the ROI's window of the raw volume, min-max scaled by the
    whole volume's range to float64, with the plane repeated ``channels``
    times: (T, H', W', C), T being the instance's slice_count, which
    ``train.model_crops`` checks. Only the cropped voxels are scaled, and
    each is stored once: the image is a read-only view of one (T, H', W', 1)
    plane (see ``scale_volume``). A volume with a NaN or infinite voxel,
    which would scale every crop to NaN or 0, raises ``FormatError`` naming
    its path.
    """
    index = {(i.subject_id, i.roi_name): i for i in instances}
    for record in records:
        raw = load_volume(record.volume_path)
        _require_3d(raw.shape, record.volume_path)
        lo, hi = float(raw.min()), float(raw.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise FormatError(f"{record.volume_path} holds a non-finite "
                              f"voxel: min {lo}, max {hi}")
        images = []
        for roi in rois:
            inst = index.get((record.subject_id, roi))
            if inst is None:
                raise KeyError(
                    f"no instance for subject {record.subject_id}, roi {roi!r}")
            images.append(scale_volume(crop_roi(raw, inst, size), lo, hi,
                                       channels))
        yield record, images


def mixed_sample(record: SubjectRecord, images: list,
                 fit: FitStats) -> MixedSample:
    """The one join of a record's crops and its features scaled by ``fit``."""
    return MixedSample(record.subject_id, tabular_features(record, fit),
                       images, cdr_to_label(record.cdr))


def build_samples(records: Sequence[SubjectRecord],
                  instances: Sequence[InstanceRecord], rois: Sequence[str],
                  fit: FitStats, size=(32, 32),
                  channels: int = 3) -> list[MixedSample]:
    """One MixedSample per subject, each joined right after its crops."""
    return [mixed_sample(record, images, fit) for record, images
            in iter_crops(records, instances, rois, size, channels)]


def build_batches(samples: Sequence[MixedSample], batch_size: int,
                  rng: Optional[np.random.Generator] = None
                  ) -> Iterator[MixedBatch]:
    """Seeded shuffle (when rng given), then fixed-size batches. The checks
    and the shuffle's draw from ``rng`` run at the call; each batch is built,
    as lists of the group's own images per branch, when it is reached. Their
    shapes are ``model.encode_image_branch``'s to check."""
    if not samples:
        raise ValueError("no samples to batch")
    if batch_size < 1:
        raise ValueError(f"batch_size {batch_size} must be >= 1")
    order = list(range(len(samples)))
    if rng is not None:
        order = rng.permutation(len(samples)).tolist()

    def batches():
        for start in range(0, len(order), batch_size):
            group = [samples[i] for i in order[start:start + batch_size]]
            images = [[s.images[b] for s in group]
                      for b in range(len(group[0].images))]
            yield MixedBatch(
                subject_ids=[s.subject_id for s in group],
                tabular=np.stack([s.tabular for s in group]),
                images=images,
                labels=np.array([s.label for s in group], dtype=np.int64))
    return batches()


# ---------------------------------------------------------------------------
# synthetic data


# Fractional ellipsoid centres, one per ROI slot, spread through the volume.
_ROI_CENTRES = [(0.40, 0.30, 0.30), (0.40, 0.70, 0.70), (0.55, 0.35, 0.65),
                (0.55, 0.65, 0.35), (0.65, 0.30, 0.55), (0.65, 0.70, 0.45),
                (0.35, 0.50, 0.50), (0.70, 0.50, 0.70)]
_BASE_RADII = (6.0, 9.0, 9.0)
MAX_SYNTH_SUBJECTS = len(_ROI_CENTRES) * 1000
# The standard deviation of every voxel's Gaussian noise.
SYNTH_NOISE = 0.02


@dataclass(frozen=True)
class SynthConfig:
    subjects: int = 40
    dims: tuple = (48, 64, 64)
    separability: float = 1.0
    rois: tuple = ("hippocampus_left",)

    def __post_init__(self):
        if not 1 <= self.subjects <= MAX_SYNTH_SUBJECTS:
            raise ValueError(f"subjects {self.subjects} outside "
                             f"[1, {MAX_SYNTH_SUBJECTS}]")
        if len(self.dims) != 3 or not all(isinstance(d, (int, np.integer))
                                          for d in self.dims):
            raise ValueError(f"dims {self.dims} must be three ints (D, H, W)")
        if any(d < m for d, m in zip(self.dims, MIN_SYNTH_DIMS)):
            raise ValueError(
                f"dims {self.dims} below minimum {MIN_SYNTH_DIMS}")
        if not 0.0 <= self.separability <= 1.0:
            raise ValueError("separability must be in [0, 1]")
        if not self.rois:
            raise ValueError("at least one ROI name required")


def generate_subject(cfg: SynthConfig, seed: int, index: int):
    """One subject's volume, masks and metadata; deterministic in (seed, index).

    The volume is N(0.3, SYNTH_NOISE) background, float32 clipped to [0,1],
    with each ROI an axis-aligned ellipsoid of N(intensity, SYNTH_NOISE)
    voxels; AD subjects get larger, brighter ellipsoids as ``separability``
    grows. Each mask is the uint8 indicator of its ellipsoid, whose
    normalised distance is a sum of three 1-D terms over open coordinate
    grids, evaluated only inside the ellipsoid's bounding box.
    """
    if index >= MAX_SYNTH_SUBJECTS:
        raise ValueError("subject index out of range")
    rng = np.random.default_rng([int(seed), 0x5EED, int(index)])
    label = CN if index % 2 == 0 else AD
    dims = cfg.dims

    volume = rng.normal(0.3, SYNTH_NOISE, size=dims)
    masks = {}
    axes = [np.arange(d, dtype=np.float64) for d in dims]
    radius_gain = 1.0 + 0.25 * cfg.separability * (label == AD)
    intensity = 0.5 + 0.2 * cfg.separability * (label == AD)
    for k, roi in enumerate(cfg.rois):
        frac = _ROI_CENTRES[k % len(_ROI_CENTRES)]
        centre = [f * d + rng.integers(-2, 3) for f, d in zip(frac, dims)]
        radii = [r * radius_gain for r in _BASE_RADII]
        terms = [((a - c) / r) ** 2 for a, c, r in zip(axes, centre, radii)]
        # Adding a non-negative term never lowers a float sum, so no voxel
        # outside the span where each term is <= 1 is inside. Each term
        # falls and then rises along its axis, so the span is one run, and
        # never empty: every centre lies inside the volume.
        box = tuple(slice(i[0], i[-1] + 1)
                    for i in (np.flatnonzero(t <= 1.0) for t in terms))
        inside = sum(np.meshgrid(*[t[b] for t, b in zip(terms, box)],
                                 indexing="ij", sparse=True)) <= 1.0
        # A view of the box walks its voxels in the volume's C order, so
        # each draw lands on the voxel a full-volume mask would give it.
        region = volume[box]
        region[inside] = rng.normal(intensity, SYNTH_NOISE,
                                    size=int(inside.sum()))
        mask = np.zeros(dims, dtype=np.uint8)
        mask[box] = inside
        masks[roi] = mask
    volume = np.clip(volume, 0.0, 1.0, out=volume).astype(np.float32)

    age_mean = 74.36 if label == CN else 76.62
    age = float(rng.normal(age_mean, 8.0))
    while not 55.0 <= age <= 95.0:
        age = float(rng.normal(age_mean, 8.0))
    if label == CN:
        mmse = int(np.clip(round(rng.normal(29.0, 1.0)), 24, 30))
        cdr = 0.0
    else:
        mmse = int(np.clip(round(rng.normal(20.0, 4.0)), 0, 26))
        cdr = float(rng.choice([1.0, 2.0, 3.0]))
    gender = "F" if rng.random() < 0.5 else "M"
    meta = {
        "subject_id": f"S{index:04d}",
        "visit_date": f"2023-{1 + index % 12:02d}-{1 + index % 28:02d}",
        "age": round(age, 1),
        "mmse": mmse,
        "gender": gender,
        "cdr": cdr,
    }
    return volume, masks, meta


def synth_generate(cfg: SynthConfig, seed: int, out_dir) -> list[SubjectRecord]:
    """Write volumes, masks and the subject manifest; returns the records."""
    out_dir = Path(out_dir)
    (out_dir / "volumes").mkdir(parents=True, exist_ok=True)
    (out_dir / "masks").mkdir(parents=True, exist_ok=True)
    records = []
    for i in range(cfg.subjects):
        volume, masks, meta = generate_subject(cfg, seed, i)
        vol_path = out_dir / "volumes" / f"{meta['subject_id']}.vol"
        save_volume(volume, vol_path)
        roi_paths = {}
        for roi, mask in masks.items():
            mask_path = out_dir / "masks" / f"{meta['subject_id']}_{roi}.mask"
            save_volume(mask, mask_path)
            roi_paths[roi] = str(mask_path)
        records.append(SubjectRecord(volume_path=str(vol_path),
                                     roi_masks=roi_paths, **meta))
    save_manifest(records, out_dir / "manifest.jsonl")
    return records
