"""Truncated and bit-flipped copies of each container format: a loader
either returns or raises one of its documented errors, never KeyError,
struct.error, IndexError, TypeError or another stray exception. A damaged
checkpoint that loads must hold only original, unchanged values. Likewise
any JSON object over the config keys builds the configs or raises
UsageError."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedvit import data as D
from mixedvit import metrics as ME
from mixedvit import model as M
from mixedvit.cli import CONFIG_KEYS, UsageError, build_configs
from mixedvit.tensor import Tensor


def _volume(path):
    D.save_volume(np.arange(60, dtype=np.float32).reshape(3, 4, 5), path)


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


def _instances(path):
    D.save_instances([D.InstanceRecord(f"S{i}", i % 2, "hip", 3 + i, 25,
                                       10 * i, 12) for i in range(3)], path)


def _metrics(path):
    cm = ME.ConfusionMatrix(tp=1, fp=0, tn=1, fn=0)
    reports = [ME.FoldReport(i, 0.5 + 0.25 * i, 0.75, cm, [], [])
               for i in range(3)]
    path.write_text(json.dumps(ME.metrics_payload(reports)))


# format -> (writer of a valid file, loader, the errors it documents)
FORMATS = {
    "volume": (_volume, D.load_volume,
               (D.FormatError, D.TruncatedPayloadError, D.DimOverflowError)),
    "checkpoint": (_checkpoint, _load_checkpoint, (M.CheckpointError,)),
    "manifest": (_manifest, D.load_manifest, (ValueError,)),
    "instances": (_instances, D.load_instances, (ValueError,)),
    "metrics": (_metrics, ME.load_fold_accuracies, (ValueError,)),
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
