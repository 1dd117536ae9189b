"""Dataset construction: subject metadata, volume I/O, splits,
preprocessing, ROI instance selection, 3D crops, batches, and a synthetic
volume generator used in place of restricted clinical data.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

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


class FormatError(ValueError):
    """The volume container has a bad magic or malformed header."""


class TruncatedPayloadError(ValueError):
    """Declared dims and dtype disagree with the payload length."""


class DimOverflowError(ValueError):
    """Declared dimensions are implausibly large."""


class UnmappedCdrError(ValueError):
    """CDR 0.5 falls outside the two study classes."""


class EmptyMaskError(ValueError):
    """An ROI mask with no voxels cannot drive instance selection."""


@dataclass(frozen=True)
class SubjectRecord:
    subject_id: str
    visit_date: str  # ISO-8601, lexicographic order == chronological
    age: float
    mmse: int
    gender: str
    cdr: float
    volume_path: str
    roi_masks: dict

    def __post_init__(self):
        if not 0 <= self.mmse <= 30:
            raise ValueError(f"mmse {self.mmse} outside [0, 30]")
        if self.age <= 0:
            raise ValueError(f"age {self.age} must be positive")
        if float(self.cdr) not in VALID_CDR:
            raise ValueError(f"cdr {self.cdr} not in {VALID_CDR}")
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
    images: list  # per ROI branch: (T, H', W', C)
    label: int


@dataclass
class MixedBatch:
    subject_ids: list
    tabular: np.ndarray  # (B, F)
    images: list  # per ROI branch: (B, T, H', W', C)
    labels: np.ndarray  # (B,)


@dataclass(frozen=True)
class FitStats:
    """Min-max ranges fitted on the training split only."""
    age_min: float
    age_max: float
    mmse_min: float
    mmse_max: float

    def __post_init__(self):
        for name, lo, hi in (("age", self.age_min, self.age_max),
                             ("mmse", self.mmse_min, self.mmse_max)):
            if not hi > lo:
                raise ValueError(
                    f"degenerate {name} fit range [{lo}, {hi}]: constant feature")

    @classmethod
    def from_records(cls, records: Sequence[SubjectRecord]) -> "FitStats":
        ages = [r.age for r in records]
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
        fh.write(arr.tobytes())


def load_volume(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != VOLUME_MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r} in {path}")
    if len(blob) < 12:
        raise TruncatedPayloadError(
            f"{path} is {len(blob)} bytes, shorter than its 12-byte header")
    version, ndim = struct.unpack("<II", blob[4:12])
    if version != VOLUME_VERSION:
        raise FormatError(f"unsupported container version {version}")
    if ndim > 8:
        raise DimOverflowError(f"ndim {ndim} too large")
    offset = 12 + 4 * ndim
    if len(blob) < offset + 4:
        raise TruncatedPayloadError(
            f"{path} is {len(blob)} bytes, shorter than its "
            f"{offset + 4}-byte header")
    dims = struct.unpack(f"<{ndim}I", blob[12:offset])
    if any(d == 0 for d in dims) or math.prod(dims) > _MAX_VOXELS:
        raise DimOverflowError(f"dims {dims} overflow plausible bounds")
    (code,) = struct.unpack("<I", blob[offset:offset + 4])
    dtype = _DTYPE_CODES.get(code)
    if dtype is None:
        raise FormatError(f"unknown dtype code {code}")
    payload = blob[offset + 4:]
    expected = math.prod(dims) * dtype.itemsize
    if len(payload) != expected:
        raise TruncatedPayloadError(
            f"payload is {len(payload)} bytes, dims {dims} require {expected}")
    return np.frombuffer(payload, dtype=dtype).reshape(dims).copy()


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
    (not UTF-8 JSON, a missing key, a value of the wrong type or one
    ``SubjectRecord`` rejects) raises one ValueError naming file and line."""
    base = Path(path).parent
    records = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                records.append(_subject_record(json.loads(raw.decode("utf-8")),
                                               base))
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise ValueError(
                    f"{path}, line {lineno}: malformed subject record "
                    f"({exc!r})") from exc
    return records


def _subject_record(obj: dict, base: Path) -> SubjectRecord:
    rois = obj["rois"]
    if not isinstance(rois, dict):
        raise TypeError(f"rois {rois!r} is not an object")
    return SubjectRecord(
        subject_id=obj["subject_id"],
        visit_date=obj["visit_date"],
        age=float(obj["age"]),
        mmse=int(obj["mmse"]),
        gender=obj["gender"],
        cdr=float(obj["cdr"]),
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
    out = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != INSTANCE_HEADER:
            raise ValueError(f"unexpected instance CSV header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                sid, cls, roi, start, count, cx, cy = line.strip().split(",")
                out.append(InstanceRecord(sid, LABEL_CODES[cls], roi,
                                          int(start), int(count), int(cx),
                                          int(cy)))
            except (ValueError, KeyError) as exc:
                raise ValueError(
                    f"{path}, line {lineno}: malformed instance row "
                    f"{line.strip()!r}") from exc
    return out


# ---------------------------------------------------------------------------
# metadata operations


def cdr_to_label(cdr: float) -> int:
    cdr = float(cdr)
    if cdr not in VALID_CDR:
        raise ValueError(f"cdr {cdr} not in {VALID_CDR}")
    if cdr == 0.0:
        return CN
    if cdr >= 1.0:
        return AD
    raise UnmappedCdrError(
        "CDR 0.5 is outside the two study classes (0 -> CN, >=1 -> AD)")


def split_subjects(records: Sequence[SubjectRecord],
                   ratios=(0.70, 0.15, 0.15),
                   rng: Optional[np.random.Generator] = None):
    """Stratified subject-level split; rounding remainders go to train."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios {ratios} do not sum to 1")
    ids = [r.subject_id for r in records]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate subject ids: one record per subject")
    if len(records) < 3:
        raise ValueError("fewer subjects than split sets")
    rng = rng or np.random.default_rng()
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


def minmax_scale(values, fit_min: float, fit_max: float) -> np.ndarray:
    """(v - min)/(max - min), clamped to [0,1] for out-of-fit values."""
    if fit_max <= fit_min:
        raise ValueError(
            f"degenerate fit range [{fit_min}, {fit_max}]: constant feature")
    scaled = (np.asarray(values, dtype=np.float64) - fit_min) / (fit_max - fit_min)
    return np.clip(scaled, 0.0, 1.0)


def one_hot_gender(gender: str) -> np.ndarray:
    if gender == "F":
        return np.array([1.0, 0.0])
    if gender == "M":
        return np.array([0.0, 1.0])
    raise ValueError(f"unknown gender category {gender!r}")


def tabular_features(record: SubjectRecord, fit: FitStats) -> np.ndarray:
    """[age, mmse, gender one-hot] scaled to [0,1]; F=4."""
    age = minmax_scale([record.age], fit.age_min, fit.age_max)[0]
    mmse = minmax_scale([record.mmse], fit.mmse_min, fit.mmse_max)[0]
    return np.concatenate([[age, mmse], one_hot_gender(record.gender)])


# ---------------------------------------------------------------------------
# instance selection


def slice_window_select(mask: np.ndarray, window: int) -> int:
    """Start of the contiguous window maximizing mask voxel count."""
    depth = mask.shape[0]
    if depth < window:
        raise ValueError(f"volume depth {depth} < window {window}")
    counts = mask.reshape(depth, -1).astype(np.int64).sum(axis=1)
    if counts.sum() == 0:
        raise EmptyMaskError("mask has no voxels")
    sums = np.convolve(counts, np.ones(window, dtype=np.int64), mode="valid")
    return int(np.argmax(sums))  # argmax takes the first max: smallest start


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _mode_smallest(values: Sequence[int]) -> int:
    counts = Counter(values)
    best_count = max(counts.values())
    return min(v for v, c in counts.items() if c == best_count)


def modal_centroid(mask: np.ndarray, slice_start: int,
                   slice_count: int) -> tuple:
    """Per-axis statistical mode of the per-slice rounded mask centroids."""
    xs, ys = [], []
    for s in range(slice_start, slice_start + slice_count):
        rows, cols = np.nonzero(mask[s])
        if rows.size == 0:
            continue  # slices without mask pixels do not contribute
        xs.append(_round_half_up(float(rows.mean())))
        ys.append(_round_half_up(float(cols.mean())))
    if not xs:
        raise EmptyMaskError("no slice in the window has mask pixels")
    return _mode_smallest(xs), _mode_smallest(ys)


def select_instance(record: SubjectRecord, roi: str, slice_count: int,
                    mask: np.ndarray) -> InstanceRecord:
    start = slice_window_select(mask, slice_count)
    cx, cy = modal_centroid(mask, start, slice_count)
    return InstanceRecord(record.subject_id, cdr_to_label(record.cdr), roi,
                          start, slice_count, cx, cy)


def select_instances(records: Sequence[SubjectRecord], roi: str,
                     slice_count: int = 25) -> list[InstanceRecord]:
    out = []
    for record in records:
        path = record.roi_masks.get(roi)
        if path is None:
            raise KeyError(f"subject {record.subject_id} has no mask for {roi!r}")
        out.append(select_instance(record, roi, slice_count, load_volume(path)))
    return out


# ---------------------------------------------------------------------------
# volumes, crops, batches


def scale_volume(raw: np.ndarray) -> np.ndarray:
    """Min-max scale a raw volume to [0,1]; a constant volume becomes 0."""
    raw = np.asarray(raw, dtype=np.float64)
    lo, hi = float(raw.min()), float(raw.max())
    if hi > lo:
        return (raw - lo) / (hi - lo)
    return np.zeros_like(raw)


def crop_roi(volume: np.ndarray, instance: InstanceRecord,
             size=(32, 32), channels: int = 3) -> np.ndarray:
    """Extract the (T, H', W', C) crop of a scaled (D, H, W) volume, centred
    on the modal centroid.

    Windows near a border are shifted (not padded) to stay inside the plane.
    """
    depth, H, W = volume.shape
    hp, wp = size
    if H < hp or W < wp:
        raise ValueError(f"plane {(H, W)} smaller than crop window {size}")
    if instance.slice_start < 0 or instance.slice_start + instance.slice_count > depth:
        raise ValueError(
            f"slice window [{instance.slice_start}, "
            f"{instance.slice_start + instance.slice_count}) outside depth {depth}")
    top = min(max(instance.cx - hp // 2, 0), H - hp)
    left = min(max(instance.cy - wp // 2, 0), W - wp)
    stack = volume[instance.slice_start:
                   instance.slice_start + instance.slice_count,
                   top:top + hp, left:left + wp]
    return np.repeat(stack[..., None], channels, axis=-1)


def build_samples(records: Sequence[SubjectRecord],
                  instances: Sequence[InstanceRecord], rois: Sequence[str],
                  fit: FitStats, size=(32, 32),
                  channels: int = 3) -> list[MixedSample]:
    """Assemble one MixedSample per subject with a crop per requested ROI."""
    index = {(i.subject_id, i.roi_name): i for i in instances}
    samples = []
    for record in records:
        volume = scale_volume(load_volume(record.volume_path))
        images = []
        for roi in rois:
            inst = index.get((record.subject_id, roi))
            if inst is None:
                raise KeyError(
                    f"no instance for subject {record.subject_id}, roi {roi!r}")
            images.append(crop_roi(volume, inst, size, channels))
        samples.append(MixedSample(
            subject_id=record.subject_id,
            tabular=tabular_features(record, fit),
            images=images,
            label=cdr_to_label(record.cdr)))
    return samples


def build_batches(samples: Sequence[MixedSample], batch_size: int,
                  rng: Optional[np.random.Generator] = None) -> list[MixedBatch]:
    """Seeded shuffle (when rng given), then fixed-size batches."""
    if not samples:
        raise ValueError("no samples to batch")
    if batch_size < 1:
        raise ValueError(f"batch_size {batch_size} must be >= 1")
    order = list(range(len(samples)))
    if rng is not None:
        order = [int(i) for i in rng.permutation(len(samples))]
    batches = []
    for start in range(0, len(order), batch_size):
        group = [samples[i] for i in order[start:start + batch_size]]
        n_branches = len(group[0].images)
        batches.append(MixedBatch(
            subject_ids=[s.subject_id for s in group],
            tabular=np.stack([s.tabular for s in group]),
            images=[np.stack([s.images[b] for s in group])
                    for b in range(n_branches)],
            labels=np.array([s.label for s in group], dtype=np.int64)))
    return batches


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class SynthConfig:
    subjects: int = 40
    dims: tuple = (48, 64, 64)
    separability: float = 1.0
    rois: tuple = ("hippocampus_left",)
    noise_sigma: float = 0.02

    def __post_init__(self):
        if any(d < m for d, m in zip(self.dims, MIN_SYNTH_DIMS)):
            raise ValueError(
                f"dims {self.dims} below minimum {MIN_SYNTH_DIMS}")
        if not 0.0 <= self.separability <= 1.0:
            raise ValueError("separability must be in [0, 1]")
        if not self.rois:
            raise ValueError("at least one ROI name required")


# Fractional ellipsoid centres, one per ROI slot, spread through the volume.
_ROI_CENTRES = [(0.40, 0.30, 0.30), (0.40, 0.70, 0.70), (0.55, 0.35, 0.65),
                (0.55, 0.65, 0.35), (0.65, 0.30, 0.55), (0.65, 0.70, 0.45),
                (0.35, 0.50, 0.50), (0.70, 0.50, 0.70)]
_BASE_RADII = (6.0, 9.0, 9.0)


def generate_subject(cfg: SynthConfig, seed: int, index: int):
    """One subject's volume, masks and metadata; deterministic in (seed, index)."""
    if index >= len(_ROI_CENTRES) * 1000:
        raise ValueError("subject index out of range")
    rng = np.random.default_rng([int(seed), 0x5EED, int(index)])
    label = CN if index % 2 == 0 else AD
    dims = cfg.dims

    volume = rng.normal(0.3, cfg.noise_sigma, size=dims)
    masks = {}
    grids = np.meshgrid(*[np.arange(d, dtype=np.float64) for d in dims],
                        indexing="ij")
    radius_gain = 1.0 + 0.25 * cfg.separability * (label == AD)
    intensity = 0.5 + 0.2 * cfg.separability * (label == AD)
    for k, roi in enumerate(cfg.rois):
        frac = _ROI_CENTRES[k % len(_ROI_CENTRES)]
        centre = [f * d + rng.integers(-2, 3) for f, d in zip(frac, dims)]
        radii = [r * radius_gain for r in _BASE_RADII]
        dist = sum(((g - c) / r) ** 2
                   for g, c, r in zip(grids, centre, radii))
        mask = dist <= 1.0
        volume[mask] = rng.normal(intensity, cfg.noise_sigma,
                                  size=int(mask.sum()))
        masks[roi] = mask.astype(np.uint8)
    volume = np.clip(volume, 0.0, 1.0).astype(np.float32)

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
