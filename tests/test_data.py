import hashlib
import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from mixedvit import data as D
from mixedvit.data import (
    AD,
    CN,
    DimOverflowError,
    EmptyMaskError,
    FitStats,
    FormatError,
    InstanceRecord,
    SliceWindowError,
    SubjectRecord,
    SynthConfig,
    TruncatedPayloadError,
    UnmappedCdrError,
    build_batches,
    build_samples,
    cdr_to_label,
    crop_roi,
    generate_subject,
    load_instances,
    load_manifest,
    load_volume,
    modal_centroid,
    save_instances,
    save_manifest,
    save_volume,
    select_instances,
    slice_window_select,
    split_subjects,
    synth_generate,
    tabular_features,
)

from helpers import (
    reference_generate_subject,
    reference_images,
    reference_modal_centroid,
)

# The train/validation/test ratios that ``train`` and ``cv`` split by.
SPLIT = (0.70, 0.15, 0.15)


def record(sid="S0", date="2024-01-01", age=70.0, mmse=28, gender="F",
           cdr=0.0, vol="v.vol", rois=None):
    return SubjectRecord(sid, date, age, mmse, gender, cdr, vol, rois or {})


def best_threshold_accuracy(values, labels):
    """Brute-force single-feature threshold classifier (both directions)."""
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    svals = np.sort(values)
    cands = np.concatenate([[svals[0] - 1.0], (svals[1:] + svals[:-1]) / 2.0,
                            [svals[-1] + 1.0]])
    best = 0.0
    for t in cands:
        for sense in (1, -1):
            pred = (sense * values > sense * t).astype(int)
            best = max(best, float((pred == labels).mean()))
    return best


# --- metadata ---------------------------------------------------------------


def test_cdr_mapping():
    assert cdr_to_label(0) == CN
    assert cdr_to_label(2) == AD
    assert cdr_to_label(1) == AD
    with pytest.raises(UnmappedCdrError):
        cdr_to_label(0.5)
    with pytest.raises(ValueError):
        cdr_to_label(4)


def test_record_validation():
    with pytest.raises(ValueError):
        record(mmse=31)
    with pytest.raises(ValueError):
        record(age=-1)
    for age in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            record(age=age)
    with pytest.raises(ValueError):
        record(gender="X")
    with pytest.raises(ValueError, match="not in"):
        record(cdr=4.0)


def test_record_cdr_must_map_to_a_class():
    """A record holds only a CDR that cdr_to_label maps to CN or AD."""
    with pytest.raises(UnmappedCdrError):
        record(cdr=0.5)
    assert [cdr_to_label(record(cdr=c).cdr) for c in (0.0, 1.0, 2.0, 3.0)] \
        == [CN, AD, AD, AD]


def test_split_rejects_duplicate_ids():
    rows = [record(sid="A", date="2020-01-01"), record(sid="A"),
            record(sid="B"), record(sid="C")]
    with pytest.raises(D.PlanError, match="duplicate subject ids") as exc:
        split_subjects(rows, SPLIT, np.random.default_rng(0))
    assert "select_latest_visit" not in str(exc.value)


def test_split_420_subjects():
    rows = [record(sid=f"S{i:04d}", cdr=0.0 if i % 2 == 0 else 1.0)
            for i in range(420)]
    train, val, test = split_subjects(rows, SPLIT, np.random.default_rng(3))
    assert (len(train), len(val), len(test)) == (294, 63, 63)


def test_split_partition_law():
    rows = [record(sid=f"S{i}", cdr=0.0 if i % 3 == 0 else 2.0)
            for i in range(50)]
    train, val, test = split_subjects(rows, SPLIT, np.random.default_rng(4))
    ids = [r.subject_id for r in train + val + test]
    assert sorted(ids) == sorted(r.subject_id for r in rows)
    assert len(set(ids)) == len(ids)


def test_split_stratification_within_one():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n_cn = int(rng.integers(10, 60))
        n_ad = int(rng.integers(10, 60))
        rows = [record(sid=f"C{i}", cdr=0.0) for i in range(n_cn)]
        rows += [record(sid=f"A{i}", cdr=1.0) for i in range(n_ad)]
        train, val, test = split_subjects(rows, SPLIT,
                                          np.random.default_rng(trial))
        for subset, ratio in ((val, 0.15), (test, 0.15)):
            for label, total in ((CN, n_cn), (AD, n_ad)):
                got = sum(1 for r in subset if cdr_to_label(r.cdr) == label)
                assert abs(got - total * ratio) <= 1.0


@pytest.mark.parametrize("ranges", [(90.0, 60.0, 20.0, 30.0),
                                    (60.0, 90.0, 30.0, 28.0),
                                    (float("nan"), 90.0, 20.0, 30.0),
                                    ("60", "90", 20.0, 30.0),
                                    (60.0, 90.0, False, True),
                                    (-math.inf, 90.0, 20.0, 30.0),
                                    (60.0, 90.0, 20.0, math.inf)],
                         ids=["age_reversed", "mmse_reversed", "age_nan",
                              "age_text", "mmse_bool", "age_infinite",
                              "mmse_infinite"])
def test_fit_stats_rejects_a_range_that_is_not_two_ordered_numbers(ranges):
    with pytest.raises(ValueError, match="is not two ordered numbers"):
        FitStats(*ranges)


@pytest.mark.parametrize("age,mmse,want", [
    (70.0, 20, [0.0, 0.0]), (80.0, 25, [0.0, 0.5]), (60.0, 30, [0.0, 1.0]),
], ids=["at_the_constant", "above_it", "below_it"])
def test_constant_feature_scales_to_zero(age, mmse, want):
    """A zero-width range, an age constant over the training split, scales
    every age to 0, as ``scale_volume`` does a constant volume; MMSE keeps
    its [20, 30] scale."""
    feats = tabular_features(record(age=age, mmse=mmse),
                             FitStats(70.0, 70.0, 20.0, 30.0))
    np.testing.assert_array_equal(feats[:2], want)


def test_tabular_features_in_unit_range():
    fit = FitStats(60.0, 90.0, 20.0, 30.0)
    feats = tabular_features(record(age=95.0, mmse=18), fit)
    assert feats.shape == (4,)
    assert (feats >= 0).all() and (feats <= 1).all()


@pytest.mark.parametrize("age,mmse,gender,want", [
    (2.0, 2, "F", [0.0, 0.0, 1.0, 0.0]),
    (4.0, 4, "M", [0.5, 0.5, 0.0, 1.0]),
    (6.0, 6, "F", [1.0, 1.0, 1.0, 0.0]),
    (8.0, 0, "M", [1.0, 0.0, 0.0, 1.0]),
    (1.0, 30, "F", [0.0, 1.0, 1.0, 0.0]),
], ids=["low_ends", "midpoints", "high_ends", "age_above_mmse_below",
        "age_below_mmse_above"])
def test_tabular_features_scale_clamp_and_one_hot(age, mmse, gender, want):
    """Age and MMSE min-max scaled by the fit ranges [2, 6], clamped to
    [0, 1] outside them, then the gender one-hot (F, M). Another gender is
    refused by ``SubjectRecord``."""
    feats = tabular_features(record(age=age, mmse=mmse, gender=gender),
                             FitStats(2.0, 6.0, 2.0, 6.0))
    assert feats.dtype == np.float64
    np.testing.assert_array_equal(feats, want)


# --- instance selection -----------------------------------------------------


def _mask_with_counts(counts, plane=(12, 12)):
    mask = np.zeros((len(counts),) + plane, dtype=np.uint8)
    for s, c in enumerate(counts):
        flat = mask[s].reshape(-1)
        flat[:c] = 1
    return mask


def test_slice_window_triangular_oracle():
    counts = [100 - abs(s - 30) for s in range(61)]
    mask = _mask_with_counts(counts)
    start = slice_window_select(mask, 25)
    # brute-force sliding-window oracle
    sums = [sum(counts[a:a + 25]) for a in range(61 - 24)]
    assert start == int(np.argmax(sums)) == 18


def test_slice_window_single_mass():
    counts = [0] * 20
    counts[7] = 5
    assert slice_window_select(_mask_with_counts(counts, (3, 3)), 1) == 7


def test_slice_window_uniform_tie():
    assert slice_window_select(_mask_with_counts([4] * 30, (3, 3)), 25) == 0


def test_slice_window_errors():
    with pytest.raises(SliceWindowError, match="depth 10 < window 25"):
        slice_window_select(np.zeros((10, 4, 4), dtype=np.uint8), 25)
    with pytest.raises(EmptyMaskError):
        slice_window_select(np.zeros((30, 4, 4), dtype=np.uint8), 25)


def test_slice_window_counts_every_nonzero_voxel():
    """A voxel counts when it is nonzero, as in ``modal_centroid``: two 0.5
    voxels in slice 0 outweigh one 1.0 voxel in slice 3."""
    mask = np.zeros((5, 4, 4), dtype=np.float32)
    mask[0, 0, :2] = 0.5
    mask[3, 1, 1] = 1.0
    assert slice_window_select(mask, 1) == 0


def _mask_with_centroids(centroids, plane=(32, 32)):
    mask = np.zeros((len(centroids),) + plane, dtype=np.uint8)
    for s, c in enumerate(centroids):
        if c is not None:
            mask[s, c[0], c[1]] = 1
    return mask


def test_modal_centroid_constant():
    mask = _mask_with_centroids([(10, 12)] * 5)
    assert modal_centroid(mask, 0, 5) == (10, 12)


def test_modal_centroid_mode_by_counting():
    mask = _mask_with_centroids([(3, 4), (3, 4), (5, 6)])
    assert modal_centroid(mask, 0, 3) == (3, 4)


def test_modal_centroid_tie_smallest():
    mask = _mask_with_centroids([(3, 9), (3, 9), (5, 2), (5, 2)])
    assert modal_centroid(mask, 0, 4) == (3, 2)


def test_modal_centroid_permutation_invariant():
    rng = np.random.default_rng(8)
    cents = [(int(rng.integers(0, 30)), int(rng.integers(0, 30)))
             for _ in range(9)]
    base = modal_centroid(_mask_with_centroids(cents), 0, 9)
    for _ in range(20):
        perm = rng.permutation(9)
        shuffled = [cents[i] for i in perm]
        assert modal_centroid(_mask_with_centroids(shuffled), 0, 9) == base


def test_modal_centroid_skips_empty_slices():
    mask = _mask_with_centroids([(4, 4), None, (4, 4)])
    assert modal_centroid(mask, 0, 3) == (4, 4)
    with pytest.raises(EmptyMaskError):
        modal_centroid(_mask_with_centroids([None, None]), 0, 2)


def test_modal_centroid_rounding_half_up():
    mask = np.zeros((1, 10, 10), dtype=np.uint8)
    mask[0, 2, 2] = 1
    mask[0, 3, 3] = 1  # means (2.5, 2.5) -> round half-up (3, 3)
    assert modal_centroid(mask, 0, 1) == (3, 3)


def _random_mask(rng):
    """A small mask, uint8 or float32 with nonzero values of either sign, a
    few pixels per slice (so centroids tie) and some slices left empty."""
    depth = int(rng.integers(1, 10))
    plane = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
    mask = rng.random((depth,) + plane) < rng.uniform(0.0, 0.4)
    mask[rng.random(depth) < 0.3] = False
    if rng.random() < 0.5:
        return mask.astype(np.uint8)
    return (mask * rng.choice([1.0, -2.5, 0.5], size=mask.shape)) \
        .astype(np.float32)


def test_modal_centroid_equals_loop_reference():
    rng = np.random.default_rng(90)
    outcomes = {"centroid": 0, "empty": 0}
    for _ in range(300):
        mask = _random_mask(rng)
        start = int(rng.integers(0, mask.shape[0]))
        count = int(rng.integers(0, mask.shape[0] - start + 1))
        try:
            expected = reference_modal_centroid(mask, start, count)
        except EmptyMaskError:
            with pytest.raises(EmptyMaskError):
                modal_centroid(mask, start, count)
            outcomes["empty"] += 1
            continue
        got = modal_centroid(mask, start, count)
        assert got == expected and all(type(v) is int for v in got)
        outcomes["centroid"] += 1
    assert min(outcomes.values()) >= 50, outcomes


@pytest.mark.parametrize("start,count", [(-1, 3), (3, 3), (0, 6), (2, -1)])
def test_modal_centroid_window_outside_depth_raises(start, count):
    mask = np.ones((5, 4, 4), dtype=np.uint8)
    window = f"[{start}, {start + count}) outside depth 5"
    with pytest.raises(SliceWindowError, match=re.escape(window)):
        modal_centroid(mask, start, count)


# --- crops ------------------------------------------------------------------


def _volume(dims=(48, 64, 64), seed=0):
    return np.random.default_rng(seed).random(dims)


def test_crop_centered():
    vol = _volume()
    inst = InstanceRecord("S0", CN, "r", 5, 25, 16, 16)
    crop = crop_roi(vol, inst)
    np.testing.assert_array_equal(crop, vol[5:30, 0:32, 0:32])


def test_crop_clamped_near_border():
    vol = _volume()
    inst = InstanceRecord("S0", CN, "r", 0, 25, 5, 5)
    crop = crop_roi(vol, inst)
    np.testing.assert_array_equal(crop, vol[0:25, 0:32, 0:32])
    inst_far = InstanceRecord("S0", CN, "r", 0, 25, 63, 63)
    crop_far = crop_roi(vol, inst_far)
    np.testing.assert_array_equal(crop_far, vol[0:25, 32:64, 32:64])


def test_crop_shape_table_config():
    crop = crop_roi(_volume(), InstanceRecord("S0", CN, "r", 3, 25, 30, 30))
    assert crop.shape == (25, 32, 32)
    assert (crop >= 0).all() and (crop <= 1).all()


def test_crop_plane_too_small():
    vol = np.zeros((30, 20, 20))
    with pytest.raises(ValueError):
        crop_roi(vol, InstanceRecord("S0", CN, "r", 0, 25, 10, 10))


@pytest.mark.parametrize("start,window", [(-1, "[-1, 24)"), (6, "[6, 31)")])
def test_crop_slice_window_outside_depth_names_subject_and_roi(start, window):
    vol = np.zeros((30, 40, 40))
    message = f"subject S7, roi 'r': slice window {window} outside depth 30"
    with pytest.raises(D.SliceWindowError, match=re.escape(message)):
        crop_roi(vol, InstanceRecord("S7", CN, "r", start, 25, 10, 10))


@pytest.mark.parametrize("cx,cy", [(-5, 10), (500, 10), (40, 10),
                                   (10, -1), (10, 40)])
def test_crop_centre_outside_the_plane_names_subject_and_roi(cx, cy):
    """Only a centre inside the plane has its window shifted to the border;
    no selection writes one outside it."""
    vol = np.zeros((30, 40, 40))
    message = f"subject S7, roi 'r': centre ({cx}, {cy}) outside plane (40, 40)"
    with pytest.raises(D.SliceWindowError, match=re.escape(message)):
        crop_roi(vol, InstanceRecord("S7", CN, "r", 0, 25, cx, cy))


def test_crop_random_instances_always_inside():
    rng = np.random.default_rng(11)
    for _ in range(100):
        dims = (int(rng.integers(25, 40)), int(rng.integers(32, 70)),
                int(rng.integers(32, 70)))
        vol = rng.random(dims)
        inst = InstanceRecord("S", CN, "r", 0, dims[0] - 1,
                              int(rng.integers(0, dims[1])),
                              int(rng.integers(0, dims[2])))
        crop = crop_roi(vol, inst)
        assert crop.shape == (dims[0] - 1, 32, 32)
        # shifted-not-padded: every crop value exists in the source plane
        assert (crop >= 0).all() and (crop <= 1).all()


# --- container i/o ----------------------------------------------------------


def test_volume_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    for arr in (rng.random((4, 5, 6)).astype(np.float32),
                (rng.random((3, 7)) > 0.5).astype(np.uint8)):
        path = tmp_path / "a.vol"
        save_volume(arr, path)
        out = load_volume(path)
        np.testing.assert_array_equal(out, arr)
        assert out.dtype == arr.dtype
        save_volume(out, tmp_path / "b.vol")
        assert (tmp_path / "a.vol").read_bytes() == (tmp_path / "b.vol").read_bytes()


def test_volume_bad_magic(tmp_path):
    path = tmp_path / "bad.vol"
    path.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(FormatError,
                       match=re.escape(f"bad magic b'XXXX' in {path}")):
        load_volume(path)


def test_volume_load_is_writable(tmp_path):
    path = tmp_path / "w.vol"
    save_volume(np.arange(24, dtype=np.float32).reshape(2, 3, 4), path)
    out = load_volume(path)
    assert out.flags.writeable and out.flags.c_contiguous
    out[1, 2, 3] = -1.0
    assert out[1, 2, 3] == -1.0 and out.sum() == sum(range(23)) - 1.0


def test_volume_truncated(tmp_path):
    path = tmp_path / "t.vol"
    save_volume(np.zeros((4, 4), dtype=np.float32), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(TruncatedPayloadError):
        load_volume(path)


@pytest.mark.parametrize("size", [5, 12, 18])
def test_volume_shorter_than_header(tmp_path, size):
    # Magic, version and ndim fill 12 bytes, the 3 dims end at byte 24 and
    # the dtype code at byte 28.
    path = tmp_path / "h.vol"
    save_volume(np.zeros((2, 3, 4), dtype=np.float32), path)
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(TruncatedPayloadError):
        load_volume(path)


def _patched(blob: bytes, offset: int, value: int) -> bytes:
    return blob[:offset] + struct.pack("<I", value) + blob[offset + 4:]


# A (2, 3, 4) float32 container: magic, version at byte 4, ndim at 8, dims
# at 12, 16 and 20, dtype code at 24 and 96 payload bytes from 28.
@pytest.mark.parametrize("damage,error", [
    (lambda b: b"XXXX" + b[4:], FormatError),
    (lambda b: b[:10], TruncatedPayloadError),
    (lambda b: _patched(b, 4, 3), FormatError),
    (lambda b: _patched(b, 8, 9), DimOverflowError),
    (lambda b: b[:20], TruncatedPayloadError),
    (lambda b: _patched(b, 16, 0), DimOverflowError),
    (lambda b: _patched(b, 24, 7), FormatError),
    (lambda b: b[:-8], TruncatedPayloadError),
], ids=["magic", "short_header", "version", "ndim", "short_dims", "dims",
        "dtype_code", "payload_length"])
def test_volume_error_names_the_file(tmp_path, damage, error):
    path = tmp_path / "damaged.vol"
    save_volume(np.zeros((2, 3, 4), dtype=np.float32), path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(error, match=re.escape(str(path))):
        load_volume(path)


def test_volume_dim_overflow(tmp_path):
    import struct
    path = tmp_path / "o.vol"
    header = b"MIV1" + struct.pack("<II", 1, 3)
    header += struct.pack("<3I", 1 << 30, 1 << 30, 1 << 30)
    header += struct.pack("<I", 1)
    path.write_bytes(header)
    with pytest.raises(D.DimOverflowError):
        load_volume(path)


def test_manifest_round_trip(tmp_path):
    cfg = SynthConfig(subjects=4, rois=("roi_a", "roi_b"))
    records = synth_generate(cfg, 5, tmp_path)
    loaded = load_manifest(tmp_path / "manifest.jsonl")
    assert loaded == records


@pytest.mark.parametrize("edit", [
    lambda obj: obj.pop("rois"),
    lambda obj: obj.update(mmse=99),
    lambda obj: obj.update(rois=["x"]),
    lambda obj: obj.update(age=None),
    lambda obj: obj.update(subject_id="S0"),
    lambda obj: obj.update(subject_id=7),
    lambda obj: obj.update(subject_id="S,1"),
    lambda obj: obj.update(subject_id="S\n1"),
    lambda obj: obj.update(subject_id=""),
    "{not json",
    "[1, 2]",
    b"\xff\xfe",
    lambda obj: obj.update(mmse=27.5),
    lambda obj: obj.update(mmse=28.0),
    lambda obj: obj.update(mmse="28"),
    lambda obj: obj.update(mmse=True),
    lambda obj: obj.update(age="70"),
    lambda obj: obj.update(age=True),
    lambda obj: obj.update(cdr="0"),
    lambda obj: obj.update(cdr=True),
    '{"age": 70.0, "cdr": 0.0, "cdr": 1.0, "gender": "F", "mmse": 28, '
    '"rois": {"hip": "S1.mask"}, "subject_id": "S1", '
    '"visit_date": "2023-01-01", "volume": "S1.vol"}',
], ids=["no_rois", "mmse_99", "rois_not_object", "age_null",
        "repeated_subject", "subject_id_number", "subject_id_comma",
        "subject_id_line_break", "subject_id_empty", "not_json",
        "not_object", "not_utf8", "mmse_fraction", "mmse_float",
        "mmse_text", "mmse_true", "age_text", "age_true", "cdr_text",
        "cdr_true", "cdr_twice"])
def test_manifest_malformed_line(tmp_path, edit):
    """A value that is not what its field holds is refused, not coerced:
    ``data.is_number`` for age and CDR, and an int for MMSE. A key given
    twice is refused, not read as its last value."""
    path = _manifest_of_three(tmp_path)
    lines = path.read_bytes().splitlines()
    if callable(edit):
        obj = json.loads(lines[1])
        edit(obj)
        lines[1] = json.dumps(obj).encode()
    else:
        lines[1] = edit if isinstance(edit, bytes) else edit.encode()
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ValueError, match="line 2"):
        load_manifest(path)


def _manifest_of_three(tmp_path):
    path = tmp_path / "manifest.jsonl"
    save_manifest([SubjectRecord(f"S{i}", "2023-01-01", 70.0, 28, "F", 0.0,
                                 str(tmp_path / f"S{i}.vol"),
                                 {"hip": str(tmp_path / f"S{i}.mask")})
                   for i in range(3)], path)
    return path


def test_manifest_integer_age_and_cdr_load_as_written(tmp_path):
    """JSON 70 and 0 are numbers: they load, with the type the line gives
    them."""
    path = _manifest_of_three(tmp_path)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    obj.update(age=70, cdr=0)
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    record = load_manifest(path)[1]
    assert (record.age, record.cdr) == (70, 0)
    assert type(record.age) is type(record.cdr) is int


def test_instance_csv_round_trip(tmp_path):
    rows = [InstanceRecord("S0", CN, "hip", 3, 25, 10, 12),
            InstanceRecord("S1", AD, "hip", 5, 25, 9, 30)]
    path = tmp_path / "inst.csv"
    save_instances(rows, path)
    assert load_instances(path) == rows
    assert path.read_text().splitlines()[0] == \
        "subject_id,class,roi,slice_start,slice_count,cx,cy"


@pytest.mark.parametrize("row", ["S2,CN,hip,3,25", "S2,MCI,hip,3,25,10,12",
                                 "S2,AD,hip,three,25,10,12",
                                 "S2,AD,hip,3,0,10,12",
                                 "S2,AD,hip,3,-3,10,12",
                                 "S0,CN,hip,4,25,10,12",
                                 "S2,AD,hip,3,25,10,12,7",
                                 "S2,AD,hip,3,25,1_2,12",
                                 "S2,AD,hip,3,25,\uff11\uff12,12",
                                 "S2,AD,hip,3,25,10, 14 ",
                                 "S2,AD,hip,+10,25,10,12",
                                 "S2,AD,hip,3,25,010,12",
                                 "S2,AD,hip,-0,25,10,12"])
def test_instance_csv_malformed_row(tmp_path, row):
    """Each integer field only in the form ``save_instances`` writes it."""
    path = tmp_path / "inst.csv"
    save_instances([InstanceRecord("S0", CN, "hip", 3, 25, 10, 12)], path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(row + "\n")
    with pytest.raises(ValueError, match="line 3"):
        load_instances(path)


@pytest.mark.parametrize("header", [
    "  subject_id,class,roi,slice_start,slice_count,cx,cy \t",
    "subject_id,class,roi,slice_start,slice_count,cx,cy ",
    "SUBJECT_ID,class,roi,slice_start,slice_count,cx,cy",
    "", None], ids=["padded", "trailing_space", "upper_case", "blank",
                    "empty_file"])
def test_instance_csv_header_only_as_written(tmp_path, header):
    """The header is the first line, exactly as ``save_instances`` writes
    it; an empty file (None) has none."""
    path = tmp_path / "inst.csv"
    save_instances([InstanceRecord("S0", CN, "hip", 3, 25, 10, 12)], path)
    rows = path.read_text().splitlines()
    path.write_text("" if header is None
                    else "\n".join([header] + rows[1:]) + "\n")
    with pytest.raises(ValueError, match=f"{path}, line 1: "):
        load_instances(path)


def test_crlf_lines_load_as_their_lf_copies(tmp_path):
    """A manifest and an instance table whose lines end in CRLF load to the
    records of their LF copies."""
    table = tmp_path / "inst.csv"
    save_instances([InstanceRecord("S0", CN, "hip", 3, 25, 10, 12),
                    InstanceRecord("S1", AD, "hip", 5, 25, 9, 30)], table)
    for path, load in ((_manifest_of_three(tmp_path), load_manifest),
                       (table, load_instances)):
        crlf = path.with_name("crlf_" + path.name)
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert load(crlf) == load(path) and len(load(path)) > 1


# --- batches ----------------------------------------------------------------


def _tiny_samples(n):
    rng = np.random.default_rng(13)
    return [D.MixedSample(f"S{i}", rng.random(4),
                          [rng.random((2, 4, 4, 1))], i % 2)
            for i in range(n)]


def test_batch_sizes_14_by_6():
    batches = build_batches(_tiny_samples(14), 6, np.random.default_rng(1))
    assert [len(b.subject_ids) for b in batches] == [6, 6, 2]


def test_batch_seeded_shuffle_repeats():
    samples = _tiny_samples(14)
    a = build_batches(samples, 6, np.random.default_rng(2))
    b = build_batches(samples, 6, np.random.default_rng(2))
    assert [x.subject_ids for x in a] == [x.subject_ids for x in b]


def test_batch_permutation_law():
    samples = _tiny_samples(13)
    batches = build_batches(samples, 5, np.random.default_rng(3))
    seen = [sid for b in batches for sid in b.subject_ids]
    assert sorted(seen) == sorted(s.subject_id for s in samples)


def _view_samples(n, channels=3):
    """Samples with two image branches, each a read-only view of one stored
    plane at ``channels`` channels, as ``build_samples`` makes them."""
    rng = np.random.default_rng(17)
    return [D.MixedSample(f"S{i}", rng.random(4),
                          [D.scale_volume(rng.random((2, 4, 4)), 0.0, 1.0,
                                          channels) for _ in range(2)],
                          i % 2)
            for i in range(n)]


def test_batch_empty_errors():
    with pytest.raises(ValueError):
        build_batches([], 6, np.random.default_rng(0))


@pytest.mark.parametrize("batch_size", [0, -2])
def test_batch_size_below_one_errors_at_the_call(batch_size):
    with pytest.raises(ValueError, match="batch_size"):
        build_batches(_tiny_samples(3), batch_size)  # never iterated


def test_batch_shuffle_draws_at_the_call():
    """The shuffle draws one permutation from ``rng`` when build_batches is
    called, whether or not its batches are then iterated."""
    samples = _tiny_samples(14)
    iterated, not_iterated, direct = (np.random.default_rng(4)
                                      for _ in range(3))
    seen = [sid for b in build_batches(samples, 6, iterated)
            for sid in b.subject_ids]
    build_batches(samples, 6, not_iterated)
    order = direct.permutation(14)
    assert seen == [samples[i].subject_id for i in order]
    assert (iterated.bit_generator.state == not_iterated.bit_generator.state
            == direct.bit_generator.state)


def test_batches_equal_stacks_of_full_channel_copies():
    """Each branch of a batch is a list of the group's own image objects,
    in batch order: no batch copies an image."""
    samples = _view_samples(13)
    by_id = {s.subject_id: s for s in samples}
    batches = list(build_batches(samples, 5, np.random.default_rng(3)))
    assert [len(b.subject_ids) for b in batches] == [5, 5, 3]
    for batch in batches:
        group = [by_id[sid] for sid in batch.subject_ids]
        assert len(batch.images) == 2
        for b, images in enumerate(batch.images):
            assert isinstance(images, list)
            assert len(images) == len(group)
            assert all(image is s.images[b]
                       for image, s in zip(images, group, strict=True))


# --- synthetic generator ----------------------------------------------------


def test_synth_dims_too_small():
    with pytest.raises(ValueError):
        SynthConfig(subjects=2, dims=(10, 10, 10))


@pytest.mark.parametrize("dims", [(48, 64), (48, 64, 64, 2), (48.0, 64, 64)])
def test_synth_dims_must_be_three_ints(dims):
    with pytest.raises(ValueError, match="three ints"):
        SynthConfig(subjects=2, dims=dims)


def test_synth_threshold_oracle_separable():
    cfg = SynthConfig(subjects=100, separability=1.0)
    values, labels = [], []
    for i in range(cfg.subjects):
        volume, masks, meta = generate_subject(cfg, 77, i)
        roi = cfg.rois[0]
        values.append(float(volume[masks[roi] == 1].mean()))
        labels.append(cdr_to_label(meta["cdr"]))
    assert best_threshold_accuracy(values, labels) == 1.0


def test_synth_zero_separability_images_uninformative():
    cfg = SynthConfig(subjects=60, separability=0.0)
    values, labels = [], []
    for i in range(cfg.subjects):
        volume, masks, meta = generate_subject(cfg, 78, i)
        values.append(float(volume[masks[cfg.rois[0]] == 1].mean()))
        labels.append(cdr_to_label(meta["cdr"]))
    assert best_threshold_accuracy(values, labels) < 0.75


def test_synth_mmse_informative_at_zero_separability():
    cfg = SynthConfig(subjects=60, separability=0.0)
    mmse, labels = [], []
    for i in range(cfg.subjects):
        _, _, meta = generate_subject(cfg, 79, i)
        mmse.append(meta["mmse"])
        labels.append(cdr_to_label(meta["cdr"]))
    assert best_threshold_accuracy(mmse, labels) >= 0.95


def test_synth_byte_identical(tmp_path):
    cfg = SynthConfig(subjects=3)
    synth_generate(cfg, 9, tmp_path / "a")
    synth_generate(cfg, 9, tmp_path / "b")
    for rel in sorted(p.relative_to(tmp_path / "a")
                      for p in (tmp_path / "a").rglob("*") if p.is_file()):
        assert (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes(), rel


def test_synth_balanced_classes(tmp_path):
    records = synth_generate(SynthConfig(subjects=40), 7, tmp_path)
    labels = [cdr_to_label(r.cdr) for r in records]
    assert labels.count(CN) == labels.count(AD) == 20


def test_select_instances_end_to_end(tmp_path):
    cfg = SynthConfig(subjects=6, rois=("hippocampus_left",))
    records = synth_generate(cfg, 21, tmp_path)
    instances = select_instances(records, "hippocampus_left", 25)
    assert len(instances) == 6
    for inst in instances:
        assert 0 <= inst.slice_start <= cfg.dims[0] - 25
        assert 0 <= inst.cx < cfg.dims[1]
        assert 0 <= inst.cy < cfg.dims[2]


def test_build_samples_end_to_end(tmp_path):
    cfg = SynthConfig(subjects=6, rois=("roi_x", "roi_y"))
    records = synth_generate(cfg, 22, tmp_path)
    instances = (select_instances(records, "roi_x", 25)
                 + select_instances(records, "roi_y", 25))
    fit = FitStats.from_records(records)
    samples = build_samples(records, instances, ["roi_x", "roi_y"], fit)
    assert len(samples) == 6
    for s in samples:
        assert len(s.images) == 2
        for image in s.images:
            assert image.shape == (25, 32, 32, 3)
            assert (image >= 0).all() and (image <= 1).all()
            np.testing.assert_array_equal(image[..., 0], image[..., 1])
            np.testing.assert_array_equal(image[..., 0], image[..., 2])
        assert (s.tabular >= 0).all() and (s.tabular <= 1).all()


def _assert_equals_reference(cfg, seed, index):
    """Returns the masks of ``generate_subject`` after checking its every
    output byte against the dense-grid reference."""
    volume, masks, meta = generate_subject(cfg, seed, index)
    ref_volume, ref_masks, ref_meta = reference_generate_subject(
        cfg, seed, index)
    assert volume.dtype == ref_volume.dtype
    assert volume.tobytes() == ref_volume.tobytes()
    assert masks.keys() == ref_masks.keys()
    for roi in masks:
        assert masks[roi].dtype == ref_masks[roi].dtype
        assert masks[roi].shape == ref_masks[roi].shape
        assert masks[roi].tobytes() == ref_masks[roi].tobytes()
    assert meta == ref_meta
    return masks


NINE_ROIS = tuple(f"roi_{k}" for k in range(9))  # the centre table wraps


@pytest.mark.parametrize("dims", [(33, 40, 40), (48, 64, 64)])
@pytest.mark.parametrize("rois", [("roi_x",), ("roi_x", "roi_y"), NINE_ROIS])
@pytest.mark.parametrize("seed", [0, 5, 31])
def test_generate_subject_equals_dense_grid_reference(seed, rois, dims):
    cfg = SynthConfig(subjects=2, dims=dims, rois=rois)
    for index in range(cfg.subjects):  # one CN and one AD subject
        _assert_equals_reference(cfg, seed, index)


@pytest.mark.parametrize("separability", [0.0, 0.37])
@pytest.mark.parametrize("dims", [(33, 40, 40), (48, 64, 64)])
@pytest.mark.parametrize("rois", [("roi_x", "roi_y"), NINE_ROIS])
@pytest.mark.parametrize("seed", [0, 5])
def test_generate_subject_equals_dense_grid_reference_below_separability_1(
        seed, rois, dims, separability):
    cfg = SynthConfig(subjects=2, dims=dims, rois=rois,
                      separability=separability)
    for index in range(cfg.subjects):
        _assert_equals_reference(cfg, seed, index)


def test_generate_subject_clipped_ellipsoid_equals_reference():
    """An ellipsoid cut by the volume's border: its bounding box is clipped
    on two axes, and the output still matches the reference."""
    cfg = SynthConfig(subjects=2, dims=(33, 40, 40), rois=("roi_x", "roi_y"))
    mask = _assert_equals_reference(cfg, 31, 1)["roi_y"]
    assert [axis for axis in range(3)
            if mask.take(0, axis=axis).any()
            or mask.take(-1, axis=axis).any()] == [1, 2]


def test_generate_subject_transient_memory_is_roi_sized():
    """Each ellipsoid is evaluated in its bounding box, so one call's peak
    stays below two float64 volumes: the volume itself, its float32 copy
    and the uint8 masks."""
    cfg = SynthConfig(subjects=2, dims=(48, 64, 64), rois=("roi_x", "roi_y"))
    generate_subject(cfg, 3, 1)  # first-call allocations are not the call's
    tracemalloc.start()
    try:
        generate_subject(cfg, 3, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * np.prod(cfg.dims) * 8


def test_synth_output_is_pinned(tmp_path):
    """The SHA-256 of every file a tiny synth run writes: any change to the
    generated data, the container or the manifest shows here."""
    synth_generate(SynthConfig(subjects=2, dims=(33, 40, 40),
                               rois=("roi_x", "roi_y")), 5, tmp_path)
    digest = hashlib.sha256()
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\n")
        digest.update(path.read_bytes())
    assert digest.hexdigest() == \
        "fd73fc398ffc1731a0826ac98fa9df2bb37addb1c4034f36c21b2f4009c8c934"


def _raw_volume(kind: str) -> np.ndarray:
    rng = np.random.default_rng(23)
    dims = (30, 40, 44)
    if kind == "float32":
        return rng.normal(0.3, 0.2, size=dims).astype(np.float32)
    if kind == "uint8":
        return rng.integers(3, 250, size=dims).astype(np.uint8)
    if kind == "constant_zero":
        return np.zeros(dims, dtype=np.float32)
    return np.full(dims, 7, dtype=np.uint8)  # "constant_uint8"


@pytest.mark.parametrize("kind", ["float32", "constant_zero"])
def test_sample_images_are_read_only_views_of_one_plane(tmp_path, kind):
    save_volume(_raw_volume(kind), tmp_path / "v.vol")
    records = [record(sid="S0", vol=str(tmp_path / "v.vol"))]
    instances = [InstanceRecord("S0", CN, "a", 2, 25, 16, 20)]
    [sample] = build_samples(records, instances, ["a"],
                             FitStats(60.0, 90.0, 0.0, 30.0))
    [image] = sample.images
    assert image.shape == (25, 32, 32, 3) and image.strides[-1] == 0
    before = np.array(image)
    with pytest.raises(ValueError, match="read-only"):
        image[0, 0, 0, 1] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        image += 1.0
    assert np.array(image).tobytes() == before.tobytes()
    for c in range(3):
        np.testing.assert_array_equal(image[..., c], before[..., 0])


@pytest.mark.parametrize("channels", [2, 3])
def test_every_crop_has_a_stride_0_channel_axis(tmp_path, channels):
    """``model.tubelet_embed`` projects one channel of an image whose
    channel axis has stride 0, and all of any other: a crop whose channels
    were materialised would lose that fold without failing anything else."""
    records, instances = [], []
    for i, kind in enumerate(("float32", "uint8", "constant_zero")):
        save_volume(_raw_volume(kind), tmp_path / f"{kind}.vol")
        records.append(record(sid=f"S{i}", vol=str(tmp_path / f"{kind}.vol")))
        instances += [InstanceRecord(f"S{i}", CN, "a", 2, 25, 16, 20),
                      InstanceRecord(f"S{i}", CN, "b", 5, 25, 0, 43)]
    crops = list(D.iter_crops(records, instances, ["a", "b"],
                              channels=channels))
    assert len(crops) == 3
    for _record, images in crops:
        assert len(images) == 2
        for image in images:
            assert image.shape == (25, 32, 32, channels)
            assert image.strides[-1] == 0


@pytest.mark.parametrize("kind", ["float32", "uint8", "constant_zero",
                                  "constant_uint8"])
def test_build_samples_equals_scale_then_crop_reference(tmp_path, kind):
    save_volume(_raw_volume(kind), tmp_path / "v.vol")
    records = [record(sid="S0", vol=str(tmp_path / "v.vol"))]
    instances = [InstanceRecord("S0", CN, "a", 2, 25, 16, 20),
                 InstanceRecord("S0", CN, "b", 5, 25, 0, 43),
                 InstanceRecord("S0", CN, "c", 0, 8, 39, 1)]
    fit = FitStats(60.0, 90.0, 0.0, 30.0)
    for size, channels in (((32, 32), 3), ((16, 24), 1)):
        [sample] = build_samples(records, instances, ["a", "b", "c"], fit,
                                 size, channels)
        expected = reference_images(load_volume(tmp_path / "v.vol"),
                                    instances, size, channels)
        for image, ref in zip(sample.images, expected, strict=True):
            assert image.dtype == ref.dtype and image.shape == ref.shape
            assert image.tobytes() == ref.tobytes()


@pytest.mark.parametrize("voxel", [np.nan, np.inf, -np.inf])
def test_build_samples_refuses_a_non_finite_voxel(tmp_path, voxel):
    raw = np.random.default_rng(23).random((30, 40, 44)).astype(np.float32)
    raw[4, 5, 6] = voxel
    path = tmp_path / "v.vol"
    save_volume(raw, path)
    records = [record(sid="S0", vol=str(path))]
    instances = [InstanceRecord("S0", CN, "a", 2, 25, 16, 20)]
    with pytest.raises(FormatError, match=re.escape(f"{path} holds a "
                                                    "non-finite voxel")):
        build_samples(records, instances, ["a"],
                      FitStats(60.0, 90.0, 0.0, 30.0))
