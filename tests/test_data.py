import json

import numpy as np
import pytest

from mixedvit import data as D
from mixedvit.data import (
    AD,
    CN,
    EmptyMaskError,
    FitStats,
    FormatError,
    InstanceRecord,
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
    minmax_scale,
    modal_centroid,
    one_hot_gender,
    save_instances,
    save_manifest,
    save_volume,
    scale_volume,
    select_instances,
    slice_window_select,
    split_subjects,
    synth_generate,
    tabular_features,
)


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
    with pytest.raises(ValueError):
        record(gender="X")


def test_split_rejects_duplicate_ids():
    rows = [record(sid="A", date="2020-01-01"), record(sid="A"),
            record(sid="B"), record(sid="C")]
    with pytest.raises(ValueError, match="duplicate subject ids") as exc:
        split_subjects(rows, rng=np.random.default_rng(0))
    assert "select_latest_visit" not in str(exc.value)


def test_split_420_subjects():
    rows = [record(sid=f"S{i:04d}", cdr=0.0 if i % 2 == 0 else 1.0)
            for i in range(420)]
    train, val, test = split_subjects(rows, rng=np.random.default_rng(3))
    assert (len(train), len(val), len(test)) == (294, 63, 63)


def test_split_partition_law():
    rows = [record(sid=f"S{i}", cdr=0.0 if i % 3 == 0 else 2.0)
            for i in range(50)]
    train, val, test = split_subjects(rows, rng=np.random.default_rng(4))
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
        train, val, test = split_subjects(rows, rng=np.random.default_rng(trial))
        for subset, ratio in ((val, 0.15), (test, 0.15)):
            for label, total in ((CN, n_cn), (AD, n_ad)):
                got = sum(1 for r in subset if cdr_to_label(r.cdr) == label)
                assert abs(got - total * ratio) <= 1.0


def test_minmax_scale_endpoints():
    np.testing.assert_allclose(minmax_scale([2, 4, 6], 2, 6), [0, 0.5, 1])


def test_minmax_scale_clamps():
    assert minmax_scale([8], 2, 6)[0] == 1.0
    assert minmax_scale([0], 2, 6)[0] == 0.0


def test_minmax_scale_degenerate():
    with pytest.raises(ValueError):
        minmax_scale([1, 2], 5, 5)


def test_one_hot_gender():
    np.testing.assert_array_equal(one_hot_gender("F"), [1, 0])
    np.testing.assert_array_equal(one_hot_gender("M"), [0, 1])
    with pytest.raises(ValueError):
        one_hot_gender("X")


@pytest.mark.parametrize("ranges", [(70.0, 70.0, 20.0, 30.0),
                                    (60.0, 90.0, 28.0, 28.0),
                                    (90.0, 60.0, 20.0, 30.0)],
                         ids=["age_zero_width", "mmse_zero_width",
                              "age_reversed"])
def test_fit_stats_rejects_degenerate_range(ranges):
    with pytest.raises(ValueError, match="degenerate"):
        FitStats(*ranges)


def test_tabular_features_in_unit_range():
    fit = FitStats(60.0, 90.0, 20.0, 30.0)
    feats = tabular_features(record(age=95.0, mmse=18), fit)
    assert feats.shape == (4,)
    assert (feats >= 0).all() and (feats <= 1).all()


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
    with pytest.raises(ValueError):
        slice_window_select(np.zeros((10, 4, 4), dtype=np.uint8), 25)
    with pytest.raises(EmptyMaskError):
        slice_window_select(np.zeros((30, 4, 4), dtype=np.uint8), 25)


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


# --- crops ------------------------------------------------------------------


def _volume(dims=(48, 64, 64), seed=0):
    return scale_volume(np.random.default_rng(seed).random(dims))


def test_crop_centered():
    vol = _volume()
    inst = InstanceRecord("S0", CN, "r", 5, 25, 16, 16)
    crop = crop_roi(vol, inst)
    np.testing.assert_array_equal(
        crop[..., 0], vol[5:30, 0:32, 0:32])


def test_crop_clamped_near_border():
    vol = _volume()
    inst = InstanceRecord("S0", CN, "r", 0, 25, 5, 5)
    crop = crop_roi(vol, inst)
    np.testing.assert_array_equal(crop[..., 0], vol[0:25, 0:32, 0:32])
    inst_far = InstanceRecord("S0", CN, "r", 0, 25, 63, 63)
    crop_far = crop_roi(vol, inst_far)
    np.testing.assert_array_equal(
        crop_far[..., 0], vol[0:25, 32:64, 32:64])


def test_crop_shape_table_config():
    crop = crop_roi(_volume(), InstanceRecord("S0", CN, "r", 3, 25, 30, 30))
    assert crop.shape == (25, 32, 32, 3)
    assert (crop >= 0).all() and (crop <= 1).all()
    np.testing.assert_array_equal(crop[..., 0], crop[..., 1])
    np.testing.assert_array_equal(crop[..., 0], crop[..., 2])


def test_crop_plane_too_small():
    vol = scale_volume(np.zeros((30, 20, 20)))
    with pytest.raises(ValueError):
        crop_roi(vol, InstanceRecord("S0", CN, "r", 0, 25, 10, 10))


def test_crop_random_instances_always_inside():
    rng = np.random.default_rng(11)
    for _ in range(100):
        dims = (int(rng.integers(25, 40)), int(rng.integers(32, 70)),
                int(rng.integers(32, 70)))
        vol = scale_volume(rng.random(dims))
        inst = InstanceRecord("S", CN, "r", 0, dims[0] - 1,
                              int(rng.integers(0, dims[1])),
                              int(rng.integers(0, dims[2])))
        crop = crop_roi(vol, inst)
        assert crop.shape == (dims[0] - 1, 32, 32, 3)
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
    with pytest.raises(FormatError):
        load_volume(path)


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
    "{not json",
    "[1, 2]",
    b"\xff\xfe",
], ids=["no_rois", "mmse_99", "rois_not_object", "age_null", "not_json",
        "not_object", "not_utf8"])
def test_manifest_malformed_line(tmp_path, edit):
    path = tmp_path / "manifest.jsonl"
    save_manifest([SubjectRecord(f"S{i}", "2023-01-01", 70.0, 28, "F", 0.0,
                                 str(tmp_path / f"S{i}.vol"),
                                 {"hip": str(tmp_path / f"S{i}.mask")})
                   for i in range(3)], path)
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


def test_instance_csv_round_trip(tmp_path):
    rows = [InstanceRecord("S0", CN, "hip", 3, 25, 10, 12),
            InstanceRecord("S1", AD, "hip", 5, 25, 9, 30)]
    path = tmp_path / "inst.csv"
    save_instances(rows, path)
    assert load_instances(path) == rows
    assert path.read_text().splitlines()[0] == \
        "subject_id,class,roi,slice_start,slice_count,cx,cy"


@pytest.mark.parametrize("row", ["S2,CN,hip,3,25", "S2,MCI,hip,3,25,10,12",
                                 "S2,AD,hip,three,25,10,12"])
def test_instance_csv_malformed_row(tmp_path, row):
    path = tmp_path / "inst.csv"
    save_instances([InstanceRecord("S0", CN, "hip", 3, 25, 10, 12)], path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(row + "\n")
    with pytest.raises(ValueError, match="line 3"):
        load_instances(path)


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


def test_batch_empty_errors():
    with pytest.raises(ValueError):
        build_batches([], 6, np.random.default_rng(0))


# --- synthetic generator ----------------------------------------------------


def test_synth_dims_too_small():
    with pytest.raises(ValueError):
        SynthConfig(subjects=2, dims=(10, 10, 10))


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
        assert s.images[0].shape == (25, 32, 32, 3)
        assert (s.tabular >= 0).all() and (s.tabular <= 1).all()
