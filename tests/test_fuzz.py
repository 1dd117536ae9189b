"""Truncated and bit-flipped copies of each container format: a loader
either returns or raises one of its documented errors, never KeyError,
struct.error, IndexError, TypeError or another stray exception. A damaged
checkpoint that loads must hold only original, unchanged values, and a
damaged manifest or instance table that loads only what its lines say, in
the form its writer writes it. Likewise any JSON object over the config
keys builds the configs or raises UsageError."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedvit import data as D
from mixedvit import metrics as ME
from mixedvit import model as M
from mixedvit.cli import CONFIG_KEYS, UsageError, build_configs, load_config
from mixedvit.tensor import Tensor


def _volume(path):
    D.save_volume(np.arange(60, dtype=np.float32).reshape(3, 4, 5), path)


def _load_volume(path):
    """``load_volume``, asserting that each ``FormatError`` it raises names
    the file, and that a volume it returns is 3-D."""
    try:
        volume = D.load_volume(path)
    except D.FormatError as exc:
        assert str(path) in str(exc), exc
        raise
    assert volume.ndim == 3


CHECKPOINT = {"a": Tensor(np.ones((2, 3))), "b": Tensor(np.zeros(4)),
              "c": Tensor(np.ones(())),
              "d": Tensor(np.arange(6.0).reshape(3, 2))}


def _checkpoint(path):
    M.save_checkpoint(path, CHECKPOINT)


def _load_checkpoint(path):
    """``load_checkpoint``, asserting that every name it returns is an
    original one with its original shape and bit-identical values."""
    for name, param in M.load_checkpoint(path).items():
        want = CHECKPOINT[name].data
        assert param.data.shape == want.shape, name
        assert param.data.tobytes() == want.tobytes(), name


def _manifest(path):
    D.save_manifest([D.SubjectRecord(
        f"S{i}", f"2023-0{i + 1}-01", 70.5 + i, 28 - 9 * i, "FM"[i % 2],
        float(i), str(path.parent / f"v{i}.vol"),
        {"hip": str(path.parent / f"m{i}.mask")}) for i in range(3)], path)


def _load_manifest(path):
    """``load_manifest``, asserting that each non-path field of a record it
    returns has the JSON value and type of its line."""
    lines = [raw for raw in path.read_bytes().split(b"\n") if raw.strip()]
    records = D.load_manifest(path)
    assert len(records) == len(lines)
    for record, raw in zip(records, lines):
        obj = json.loads(raw.decode("utf-8"))
        for key in ("subject_id", "visit_date", "age", "mmse", "gender",
                    "cdr"):
            value = getattr(record, key)
            assert (type(value), value) == (type(obj[key]), obj[key]), key


def _instances(path):
    D.save_instances([D.InstanceRecord(f"S{i}", i % 2, "hip", 3 + i, 25,
                                       10 * i, 12) for i in range(3)], path)


def _load_instances(path):
    """``load_instances``, asserting that each row it accepts, a line up to
    its LF or CRLF, is exactly what ``save_instances`` writes for the record
    it returned."""
    records = D.load_instances(path)
    rows = [raw for raw in path.read_bytes().split(b"\n")[1:] if raw.strip()]
    assert len(records) == len(rows)
    for record, row in zip(records, rows):
        written = path.with_name("written")
        D.save_instances([record], written)
        assert row.removesuffix(b"\r") == written.read_bytes().split(b"\n")[1]


def _metrics(path):
    cm = ME.ConfusionMatrix(tp=1, fp=0, tn=1, fn=0)
    reports = [ME.FoldReport(i, 0.5 + 0.25 * i, 0.75, cm, [], [])
               for i in range(3)]
    path.write_text(json.dumps(ME.metrics_payload(reports)))


def _config(path):
    path.write_text(json.dumps({"embed_dim": 8, "heads": 2,
                                "tubelet": [4, 8, 8], "dropout_rate": 0.1}))


# format -> (writer of a valid file, loader, the errors it documents)
FORMATS = {
    "volume": (_volume, _load_volume, (D.FormatError,)),
    "checkpoint": (_checkpoint, _load_checkpoint, (M.CheckpointError,)),
    "manifest": (_manifest, _load_manifest, (ValueError,)),
    "instances": (_instances, _load_instances, (ValueError,)),
    "metrics": (_metrics, ME.load_fold_accuracies, (ValueError,)),
    "config": (_config, load_config, (UsageError,)),
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_file_raises_only_documented_errors(tmp_path_factory, fmt,
                                                    data):
    write, load, errors = FORMATS[fmt]
    path = tmp_path_factory.mktemp(fmt) / "file"
    write(path)
    blob = bytearray(path.read_bytes())
    for bit in data.draw(st.lists(st.integers(0, 8 * len(blob) - 1),
                                  max_size=3)):
        blob[bit // 8] ^= 1 << (bit % 8)
    cut = data.draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))
    path.write_bytes(bytes(blob[:cut]))
    try:
        load(path)
    except errors:
        pass


@pytest.mark.parametrize("age", ["NaN", "Infinity", "-Infinity", "1e309"])
def test_manifest_non_finite_age_names_the_line(tmp_path, age):
    """Python's json reads NaN and Infinity, and 1e309 as inf; a record
    must refuse them all."""
    path = tmp_path / "manifest.jsonl"
    _manifest(path)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    obj["age"] = "AGE"
    lines[1] = json.dumps(obj).replace('"AGE"', age)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 2: .*must be positive and "
                                         "finite"):
        D.load_manifest(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


def _typed(default):
    """Values of a config key's type, in and past its range: a tuple key
    takes a list of ints, of about the default's length."""
    if isinstance(default, tuple):
        return st.lists(st.integers(-1, 64) | st.integers(),
                        min_size=len(default) - 1, max_size=len(default) + 1)
    if isinstance(default, float):
        return st.floats(-0.5, 1.5) | st.floats()
    return st.integers(-1, 64) | st.integers()


# Keys with values of their type, and at most one key with any JSON value.
CONFIG_OBJECTS = st.builds(
    lambda typed, wild: {**typed, **wild},
    st.fixed_dictionaries({}, optional={
        key: _typed(default) for key, default in CONFIG_KEYS.items()}),
    st.dictionaries(st.sampled_from(sorted(CONFIG_KEYS)), JSON_VALUES,
                    max_size=1))


@settings(max_examples=200, deadline=None)
@given(config=CONFIG_OBJECTS,
       mode=st.sampled_from([M.MODE_MIXED, M.MODE_IMAGE_ONLY]),
       num_branches=st.integers(1, 3))
def test_config_object_builds_or_raises_usage_error(config, mode,
                                                    num_branches):
    try:
        build_configs(config, mode, num_branches, 0)
    except UsageError:
        pass
