import dataclasses
import hashlib
import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mixedvit.cli import (
    CONFIG_KEYS,
    build_configs,
    build_parser,
    main,
    synth_config,
)
from mixedvit.data import (
    FitStats,
    PlanError,
    SynthConfig,
    cdr_to_label,
    holdout_split,
    load_manifest,
    load_volume,
    save_manifest,
    save_volume,
)
from mixedvit.metrics import stratified_kfold
from mixedvit.model import ModelConfig, init_params, save_checkpoint
from mixedvit.train import DivergenceError, TrainConfig

TINY_CONFIG = {
    "image_dims": [8, 16, 16, 1], "tubelet": [4, 8, 8], "embed_dim": 8,
    "depth": 1, "heads": 2, "tabular_hidden": [8, 4], "initial_lr": 3e-3,
    "batch_size": 4, "epochs": 4, "dropout_rate": 0.1,
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    rc = main(["synth", "--out", str(root / "data"), "--subjects", "14",
               "--seed", "5", "--dims", "33,40,40",
               "--rois", "hippocampus_left,fornix_right"])
    assert rc == 0
    rc = main(["select", "--manifest", str(root / "data" / "manifest.jsonl"),
               "--roi", "hippocampus_left,fornix_right", "--slices", "8",
               "--out", str(root / "instances.csv")])
    assert rc == 0
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    return root


def test_synth_writes_expected_files(tmp_path):
    rc = main(["synth", "--out", str(tmp_path / "d"), "--subjects", "4",
               "--seed", "1"])
    assert rc == 0
    assert (tmp_path / "d" / "manifest.jsonl").exists()
    assert (tmp_path / "d" / "run_manifest.json").exists()
    vols = list((tmp_path / "d" / "volumes").glob("*.vol"))
    assert len(vols) == 4


def test_synth_identical_checksums(tmp_path):
    for name in ("a", "b"):
        assert main(["synth", "--out", str(tmp_path / name), "--subjects", "4",
                     "--seed", "3"]) == 0
    man_a = json.loads((tmp_path / "a" / "run_manifest.json").read_text())
    man_b = json.loads((tmp_path / "b" / "run_manifest.json").read_text())
    assert man_a["outputs"] == man_b["outputs"]


def test_synth_manifest_lists_only_what_synth_wrote(tmp_path):
    """A second run into a used directory holding a stray file lists just
    the files it wrote, each with the hash of its bytes on disk."""
    out = tmp_path / "d"
    out.mkdir()
    (out / "notes.txt").write_text("not synth's")
    for subjects in ("3", "2"):
        assert main(["synth", "--out", str(out), "--subjects", subjects,
                     "--seed", "4", "--dims", "33,40,40",
                     "--rois", "roi_x,roi_y"]) == 0
    outputs = json.loads((out / "run_manifest.json").read_text())["outputs"]
    written = {"manifest.jsonl": out / "manifest.jsonl"}
    for sid in ("S0000", "S0001"):
        written[f"{sid}.vol"] = out / "volumes" / f"{sid}.vol"
        for roi in ("roi_x", "roi_y"):
            written[f"{sid}_{roi}.mask"] = out / "masks" / f"{sid}_{roi}.mask"
    assert outputs.keys() == written.keys()
    for name, path in written.items():
        assert outputs[name] == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("dims,message", [
    ("10,10,10", "dims (10, 10, 10) below minimum (33, 40, 40)"),
    ("33,40", "dims must be D,H,W, got '33,40'"),
], ids=["too_small", "two_dims"])
def test_synth_unusable_dims_exit_2(tmp_path, capsys, dims, message):
    rc = main(["synth", "--out", str(tmp_path / "d"), "--subjects", "4",
               "--dims", dims])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("subjects", ["0", "-1", "8001"])
def test_synth_subjects_out_of_range_exits_2(tmp_path, capsys, subjects):
    """A count outside [1, 8000] is refused before anything is written:
    generate_subject has no subject index past 7999."""
    out = tmp_path / "d"
    out.mkdir()
    assert main(["synth", "--out", str(out), "--subjects", subjects]) == 2
    err = capsys.readouterr().err
    assert f"subjects {subjects} outside [1, 8000]" in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


def test_select_row_count(dataset):
    rows = (dataset / "instances.csv").read_text().splitlines()
    assert len(rows) == 1 + 14 * 2  # header + subjects x rois


def test_select_missing_roi_exits_1(dataset, capsys):
    rc = main(["select", "--manifest", str(dataset / "data" / "manifest.jsonl"),
               "--roi", "amygdala", "--slices", "8",
               "--out", str(dataset / "nope.csv")])
    assert rc == 1
    assert "S0000" in capsys.readouterr().err


def test_select_slices_exceeding_depth_exits_2(dataset, capsys):
    rc = main(["select", "--manifest", str(dataset / "data" / "manifest.jsonl"),
               "--roi", "hippocampus_left", "--slices", "99",
               "--out", str(dataset / "nope.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--slices 99 exceeds a volume's depth (subject S0000:" in err
    assert "Traceback" not in err


def test_select_subject_with_an_empty_mask_exits_1(dataset, tmp_path, capsys):
    """A subject whose hippocampus mask holds only zeros cannot be selected:
    exit 1, naming the subject, and no instance table."""
    records = load_manifest(dataset / "data" / "manifest.jsonl")
    empty = tmp_path / "empty.mask"
    save_volume(np.zeros((33, 40, 40), dtype=np.uint8), empty)
    masks = {**records[3].roi_masks, "hippocampus_left": str(empty)}
    manifest = tmp_path / "manifest.jsonl"
    save_manifest(records[:3] + [dataclasses.replace(records[3],
                                                     roi_masks=masks)]
                  + records[4:], manifest)
    out = tmp_path / "instances.csv"
    rc = main(["select", "--manifest", str(manifest), "--roi",
               "hippocampus_left", "--slices", "8", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"subject {records[3].subject_id}: mask has no voxels" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_select_slices_below_one_exits_2(dataset, capsys):
    for slices in ("0", "-1"):
        rc = main(["select", "--manifest",
                   str(dataset / "data" / "manifest.jsonl"),
                   "--roi", "hippocampus_left", "--slices", slices,
                   "--out", str(dataset / "nope.csv")])
        assert rc == 2
        assert "--slices must be >= 1" in capsys.readouterr().err
    assert not (dataset / "nope.csv").exists()


@pytest.mark.parametrize("edit", [
    {}, {"image_dims": [8, 16, 16, 3]}, {"depth": 2},
], ids=["one_channel", "three_channels", "depth_2"])
def test_train_and_eval_round_trip(dataset, tmp_path, capsys, edit):
    """At 3 channels each image is a broadcast view of one stored plane,
    whose one channel the model cuts into its patches. The last
    encoder block computes the class row alone, so a depth-1 model never
    runs a block on every row; depth 2 does."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_CONFIG, **edit}))
    out = tmp_path / "model"
    rc = main(["train", "--instances", str(dataset / "instances.csv"),
               "--manifest", str(dataset / "data" / "manifest.jsonl"),
               "--config", str(config), "--mode", "mixed",
               "--rois", "hippocampus_left", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    for name in ("checkpoint.npz", "history.csv", "metrics.json", "roc.csv",
                 "config.json", "run_manifest.json"):
        assert (out / name).exists(), name
    payload = json.loads((out / "metrics.json").read_text())
    assert set(payload) == {"folds", "summary"}
    assert len(payload["folds"]) == 1

    svg = tmp_path / "roc.svg"
    rc = main(["eval", "--model", str(out),
               "--instances", str(dataset / "instances.csv"),
               "--manifest", str(dataset / "data" / "manifest.jsonl"),
               "--out", str(tmp_path / "eval.json"),
               "--roc-svg", str(svg)])
    assert rc == 0
    tree = ET.parse(svg)
    polylines = tree.getroot().findall(
        ".//{http://www.w3.org/2000/svg}polyline")
    assert len(polylines) == 1
    title = tree.getroot().find(".//{http://www.w3.org/2000/svg}title")
    assert "AUC" in title.text
    metrics = json.loads((tmp_path / "eval.json").read_text())
    assert 0.0 <= metrics["folds"][0]["auc"] <= 1.0


def test_eval_bad_checkpoint_exits_1(dataset, tmp_path):
    model = tmp_path / "broken"
    model.mkdir()
    (model / "config.json").write_text("{}")
    for blob in (b"JUNKJUNKJUNK", b"PK\x03\x04x"):  # not a zip, short header
        (model / "checkpoint.npz").write_bytes(blob)
        rc = main(["eval", "--model", str(model),
                   "--instances", str(dataset / "instances.csv"),
                   "--manifest", str(dataset / "data" / "manifest.jsonl"),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 1


def test_eval_model_directory_of_the_old_format_exits_1(dataset, tmp_path,
                                                       capsys):
    """A model directory from before checkpoints were .npz holds
    checkpoint.mwt, which eval does not read."""
    model = tmp_path / "model"
    model.mkdir()
    (model / "checkpoint.mwt").write_bytes(b"MWT1" + bytes(12))
    (model / "config.json").write_text(json.dumps(_snapshot()))
    rc = main(["eval", "--model", str(model),
               "--instances", str(dataset / "instances.csv"),
               "--manifest", str(dataset / "data" / "manifest.jsonl"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"checkpoint not found: {model / 'checkpoint.npz'}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


def test_eval_damaged_checkpoint_exits_1(dataset, tmp_path, capsys):
    """One byte flipped in the middle of a checkpoint train wrote."""
    model = _init_model_dir(tmp_path / "model", _snapshot())
    path = model / "checkpoint.npz"
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    out = tmp_path / "m.json"
    assert main(_eval_argv(dataset, model,
                           dataset / "data" / "manifest.jsonl", out)) == 1
    err = capsys.readouterr().err
    assert f"unreadable checkpoint {path}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf],
                         ids=["nan", "inf"])
def test_eval_checkpoint_holding_nan_or_inf_exits_1(dataset, tmp_path, capsys,
                                                    value):
    """A non-finite weight makes every score NaN, which ROC and AUC would
    still rank: eval refuses the checkpoint and writes nothing."""
    params = init_params(TINY_MODEL, 0)
    params["head.bias"].data[0] = value
    model = _init_model_dir(tmp_path / "model", _snapshot())
    save_checkpoint(model / "checkpoint.npz", params)
    out = tmp_path / "m.json"
    assert main(_eval_argv(dataset, model,
                           dataset / "data" / "manifest.jsonl", out)) == 1
    err = capsys.readouterr().err
    assert "checkpoint member 'head.bias' is not finite" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [model]


def test_cv_summary_and_determinism(dataset, tmp_path, capsys):
    outs = []
    for name in ("cv1", "cv2"):
        out = tmp_path / name
        rc = main(["cv", "--instances", str(dataset / "instances.csv"),
                   "--manifest", str(dataset / "data" / "manifest.jsonl"),
                   "--config", str(dataset / "config.json"),
                   "--rois", "hippocampus_left", "--seed", "9",
                   "--folds", "7", "--no-holdout-test", "--out", str(out)])
        assert rc == 0
        outs.append(out)
    text = capsys.readouterr().out
    assert "±" in text
    payload = json.loads((outs[0] / "metrics.json").read_text())
    assert len(payload["folds"]) == 7
    assert (outs[0] / "metrics.json").read_bytes() == \
        (outs[1] / "metrics.json").read_bytes()
    for i in range(7):
        assert (outs[0] / f"roc_fold{i}.csv").exists()


@pytest.mark.parametrize("rois,jobs,extra", [
    ("hippocampus_left", "3", ["--seed", "4", "--folds", "7",
                               "--no-holdout-test"]),
    ("hippocampus_left,fornix_right", "2", ["--seed", "2", "--folds", "3"]),
], ids=["one_roi", "two_rois"])
def test_cv_jobs_matches_serial(dataset, tmp_path, rois, jobs, extra):
    outs = []
    for name, n in (("serial", "1"), ("parallel", jobs)):
        out = tmp_path / name
        rc = main(["cv", "--instances", str(dataset / "instances.csv"),
                   "--manifest", str(dataset / "data" / "manifest.jsonl"),
                   "--config", str(dataset / "config.json"),
                   "--rois", rois, "--jobs", n, "--out", str(out), *extra])
        assert rc == 0
        outs.append(out)
    assert (outs[0] / "metrics.json").read_bytes() == \
        (outs[1] / "metrics.json").read_bytes()


def test_cv_jobs_keeps_the_bits_at_the_paper_shape(tmp_path):
    """The bit contract at the paper's model config, where BLAS may split a
    product between its threads: cv --jobs 2 writes every byte that
    --jobs 1 writes."""
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--subjects", "24",
                 "--seed", "3", "--dims", "33,40,40"]) == 0
    assert main(["select", "--manifest", str(data / "manifest.jsonl"),
                 "--roi", "hippocampus_left",
                 "--out", str(tmp_path / "instances.csv")]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 2}))
    written = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["cv", "--instances", str(tmp_path / "instances.csv"),
                     "--manifest", str(data / "manifest.jsonl"),
                     "--config", str(config), "--rois", "hippocampus_left",
                     "--folds", "3", "--jobs", jobs, "--out", str(out)]) == 0
        outputs = json.loads((out / "run_manifest.json").read_text())[
            "outputs"]
        written.append({name: (out / name).read_bytes() for name in outputs})
    assert sorted(written[0]) == ["metrics.json", "roc_fold0.csv",
                                  "roc_fold1.csv", "roc_fold2.csv"]
    assert written[0] == written[1]


def _cv_auc(root: Path, seed: int, separability: float, mode: str,
            slices: int = 8, config: dict | None = None) -> float:
    """Mean fold AUC of a 4-fold cv in ``mode`` over 40 synthetic subjects
    at ``separability`` on one ROI: ``config`` on ``slices`` slices, by
    default the tiny config with d=16 and 10 epochs on 8."""
    data = root / f"data_{separability}"
    if not data.exists():
        assert main(["synth", "--out", str(data), "--subjects", "40",
                     "--seed", str(seed), "--dims", "33,40,40",
                     "--separability", str(separability)]) == 0
        assert main(["select", "--manifest", str(data / "manifest.jsonl"),
                     "--roi", "hippocampus_left", "--slices", str(slices),
                     "--out", str(data / "instances.csv")]) == 0
    if config is None:
        config = {**TINY_CONFIG, "embed_dim": 16, "epochs": 10}
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    out = root / f"cv_{mode}_{separability}"
    assert main(["cv", "--instances", str(data / "instances.csv"),
                 "--manifest", str(data / "manifest.jsonl"),
                 "--config", str(config_path), "--rois", "hippocampus_left",
                 "--mode", mode, "--folds", "4", "--no-holdout-test",
                 "--seed", "2", "--out", str(out)]) == 0
    return json.loads((out / "metrics.json").read_text())["summary"][
        "auc_mean"]


# Each fold holds 5 CN and 5 AD subjects. Without signal a fold's AUC is a
# Mann-Whitney statistic with mean 0.5 and sd sqrt(11 / 300) = 0.19, so the
# mean of 4 folds, taken as independent, has sd 0.096: chance +- 3 sd is
# [0.21, 0.79].
CHANCE_BAND = 3 * math.sqrt(11 / 300) / math.sqrt(4)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_image_only_cv_learns_the_image_signal(tmp_path, seed):
    """The image branch alone ranks the classes when the ROI carries the
    signal, and a separability-0 control on the same subjects, whose images
    carry none, stays at chance: a branch that never receives the image
    signal fails.

    The control must stay within ``CHANCE_BAND`` of 0.5; the separable run
    must pass its upper end, and the control. Measured: 1.0 against 0.52,
    0.46 and 0.67 at seeds 5, 6 and 7."""
    control = _cv_auc(tmp_path, seed, 0.0, "image-only")
    separable = _cv_auc(tmp_path, seed, 1.0, "image-only")
    assert abs(control - 0.5) <= CHANCE_BAND
    assert separable > max(0.5 + CHANCE_BAND, control)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [5, 6, 7])
def test_image_only_cv_learns_the_image_signal_at_the_paper_shape(tmp_path,
                                                                  seed):
    """The pair above at the paper's config, for 15 epochs, on 25 slices:
    8 heads over 81 tokens in every one of 4 blocks, at LR 1e-4, which no
    tier-1 learning test runs. Held to the same bounds. Measured: 1.00
    against 0.63, 0.49 and 0.45 at seeds 5, 6 and 7."""
    control = _cv_auc(tmp_path, seed, 0.0, "image-only", 25, {"epochs": 15})
    separable = _cv_auc(tmp_path, seed, 1.0, "image-only", 25,
                        {"epochs": 15})
    assert abs(control - 0.5) <= CHANCE_BAND
    assert separable > max(0.5 + CHANCE_BAND, control)


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_mixed_cv_learns_the_tabular_signal(tmp_path, seed):
    """At separability 0 the images carry no signal but MMSE still does, so
    mixed mode must rank the classes through its tabular branch: above the
    upper end of ``CHANCE_BAND`` and above the image-only control on the
    same subjects. A tabular branch that never receives its features fails.
    Measured: 0.84, 0.83 and 0.91 against 0.52, 0.46 and 0.67 at seeds 5,
    6 and 7."""
    control = _cv_auc(tmp_path, seed, 0.0, "image-only")
    mixed = _cv_auc(tmp_path, seed, 0.0, "mixed")
    assert mixed > max(0.5 + CHANCE_BAND, control)


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cv_jobs_below_one_exits_2(dataset, tmp_path, capsys, jobs):
    # The manifest does not exist: --jobs is refused before data is read.
    rc = main(["cv", "--instances", str(dataset / "instances.csv"),
               "--manifest", str(tmp_path / "missing.jsonl"),
               "--rois", "hippocampus_left", "--jobs", jobs,
               "--out", str(tmp_path / "cv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"--jobs must be >= 1, got {jobs}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "cv").exists()


@pytest.mark.parametrize("config,message,command", [
    ({"tubelet": "abc"}, "'tubelet'", "cv"),
    ({"tubelet": [5, "8", 8]}, "'tubelet'", "cv"),
    ({"epochs": 2.5}, "'epochs'", "cv"),
    ({"dropout_rate": True}, "'dropout_rate'", "cv"),
    ({"optimizer": "adam"}, "'optimizer'", "cv"),
    ({"tubelet": [5, 8]}, "tubelet (5, 8) must be (t, h, w)", "cv"),
    ([1, 2], "JSON object", "cv"),
    ({"heads": 0}, "heads must be >= 1, got 0", "cv"),
    ({"tubelet": [0, 8, 8]}, "every tubelet entry must be >= 1", "cv"),
    ({"embed_dim": 0}, "embed_dim must be >= 1, got 0", "cv"),
    ({"tabular_hidden": [0]}, "every tabular_hidden entry must be >= 1",
     "cv"),
    ({"tabular_hidden": [-2, 4]}, "every tabular_hidden entry must be >= 1",
     "cv"),
    ({"mlp_ratio": 2.0}, "unknown config keys: ['mlp_ratio']", "cv"),
    ({"decay_steps": 100_000}, "unknown config keys: ['decay_steps']", "cv"),
    ({"decay_rate": 0.9}, "unknown config keys: ['decay_rate']", "cv"),
    ({"adam_beta1": 0.9}, "unknown config keys: ['adam_beta1']", "cv"),
    ({"adam_beta2": 0.999}, "unknown config keys: ['adam_beta2']", "cv"),
    ({"adam_eps": 1e-8}, "unknown config keys: ['adam_eps']", "cv"),
    ({"heads": 0}, "heads must be >= 1, got 0", "train"),
    ({"adam_beta1": 0.9}, "unknown config keys: ['adam_beta1']", "train"),
    (None, "config file not found", "train"),
    ("{not json", "is not valid JSON", "train"),
    (None, "config file not found", "cv"),
    (b'{"note": "caf\xe9"}', "is not valid JSON: 'utf-8' codec", "train"),
    (b'{"epochs": ' + b"1" * 5000 + b"}", "is not valid JSON: Exceeds the "
     "limit (4300 digits)", "train"),
    (json.dumps(TINY_CONFIG)[:-1] + ', "heads": 4}',
     "is not valid JSON: key 'heads' repeats", "train"),
    (b"[" * 100_000, "is not valid JSON: JSON nested too deeply", "train"),
    (b'{"note": "caf\xe9"}', "is not valid JSON: 'utf-8' codec", "cv"),
    (b'{"epochs": ' + b"1" * 5000 + b"}", "is not valid JSON: Exceeds the "
     "limit (4300 digits)", "cv"),
    (json.dumps(TINY_CONFIG)[:-1] + ', "heads": 4}',
     "is not valid JSON: key 'heads' repeats", "cv"),
    (b"[" * 100_000, "is not valid JSON: JSON nested too deeply", "cv"),
    ('{"heads": 2, "\\ud800": 1}',
     "is not valid JSON: a string holds the lone surrogate", "train"),
    ('{"heads": 2, "\\ud800": 1}',
     "is not valid JSON: a string holds the lone surrogate", "cv"),
], ids=["str_for_list", "str_in_list", "float_for_int", "bool_for_float",
        "removed_optimizer_key", "short_tuple", "not_object", "heads_0",
        "tubelet_0", "embed_dim_0", "tabular_width_0",
        "tabular_width_negative", "removed_key_mlp_ratio",
        "removed_key_decay_steps", "removed_key_decay_rate",
        "removed_key_adam_beta1", "removed_key_adam_beta2",
        "removed_key_adam_eps", "heads_0_train",
        "removed_key_adam_beta1_train", "missing_train", "not_json_train",
        "missing", "not_utf8_train", "long_int_train", "repeated_key_train",
        "nested_train", "not_utf8", "long_int", "repeated_key", "nested",
        "lone_surrogate_train", "lone_surrogate"])
def test_cv_config_value_of_wrong_type_exits_2(dataset, tmp_path, capsys,
                                               config, message, command):
    """A malformed config, or none at the path given (None), is a usage
    error for cv, and for train in the cases marked so; a string or bytes
    is the file's content. A key given twice is refused, not read as its
    last value."""
    bad = tmp_path / "bad.json"
    if isinstance(config, bytes):
        bad.write_bytes(config)
    elif config is not None:
        bad.write_text(config if isinstance(config, str)
                       else json.dumps(config))
    assert main(_command_argv(dataset, tmp_path, command, bad)) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_build_configs_defaults_are_the_dataclass_defaults():
    assert build_configs({}, "mixed", 1, 0) == (
        ModelConfig(num_branches=1, mode="mixed"), TrainConfig(seed=0))
    assert set(CONFIG_KEYS) == {
        "image_dims", "tubelet", "embed_dim", "depth", "heads",
        "dropout_rate", "tabular_hidden", "initial_lr", "batch_size",
        "epochs"}


def test_synth_and_select_defaults_are_the_dataclass_defaults():
    """synth's flags default to SynthConfig's fields, and select's --slices
    to the T of ModelConfig's image_dims; a given flag overrides."""
    parser = build_parser()
    assert synth_config(parser.parse_args(["synth", "--out", "o"])) == \
        SynthConfig()
    given = parser.parse_args([
        "synth", "--out", "o", "--subjects", "3", "--dims", "33,40,40",
        "--separability", "0", "--rois", "hippocampus_left,fornix_right"])
    assert synth_config(given) == SynthConfig(
        3, (33, 40, 40), 0.0, ("hippocampus_left", "fornix_right"))
    args = parser.parse_args(["select", "--manifest", "m", "--roi", "r",
                              "--out", "o"])
    assert args.slices == ModelConfig().image_dims[0]


# The model TINY_CONFIG describes, for one ROI in mixed mode.
TINY_MODEL, _ = build_configs(TINY_CONFIG, "mixed", 1, 0)


def _snapshot() -> dict:
    """A config.json as ``train`` writes it, for a one-ROI mixed model."""
    return {"config": {**CONFIG_KEYS, **TINY_CONFIG},
            "rois": ["hippocampus_left"], "mode": "mixed",
            "fit": dataclasses.asdict(FitStats(60.0, 90.0, 10.0, 30.0))}


def _old_layout(snap):
    """The layout train wrote before config.json held one flat config."""
    config = snap.pop("config")
    snap["model"] = dataclasses.asdict(TINY_MODEL)
    snap["train"] = {"batch_size": config["batch_size"]}


def _without(key, inner=None):
    def edit(snap):
        (snap[inner] if inner else snap).pop(key)
    return edit


def _set(value, key, inner=None):
    def edit(snap):
        (snap[inner] if inner else snap)[key] = value
    return edit


@pytest.mark.parametrize("edit", [
    "{not json", "{}", '{"model": {}}', "[]",
    _without("fit"), _without("rois"), _without("heads", "config"),
    _set([3, 8, 8], "tubelet", "config"), _set("x", "embed_dim", "config"),
    _set(0, "batch_size", "config"), _set({"age": 1}, "fit"),
    _set({"age_min": 69.1, "age_max": 60.0, "mmse_min": 10.0,
          "mmse_max": 30.0}, "fit"),
    _set({"age_min": "60", "age_max": "90", "mmse_min": 10.0,
          "mmse_max": 30.0}, "fit"),
    _set(4.5, "batch_size", "config"), _set(8.0, "embed_dim", "config"),
    _set(2.0, "heads", "config"), _set([4.0, 8, 8], "tubelet", "config"),
    _set(0.2, "dropout", "config"), _set(list(CONFIG_KEYS), "config"),
    _old_layout, _set(0.9, "adam_beta1", "config"),
    _set({"age_min": -math.inf, "age_max": math.inf, "mmse_min": 10.0,
          "mmse_max": 30.0}, "fit"),
    _set([["hippocampus_left"]], "rois"), _set("hippocampus_left", "rois"),
    _set(["hippocampus_left", "hippocampus_left"], "rois"),
    _set([], "rois"), _set(["a,b"], "rois"),
    json.dumps(_snapshot())[:-1] + ', "mode": "image-only"}',
], ids=["not_json", "empty", "empty_model", "not_object", "no_fit", "no_rois",
        "no_heads", "tubelet_not_dividing", "embed_dim_text", "batch_size_0",
        "fit_fields", "fit_reversed", "fit_text", "batch_size_float", "embed_dim_float",
        "heads_float", "tubelet_float", "old_dropout_key", "config_not_object",
        "old_layout", "old_adam_key", "fit_infinite", "rois_nested",
        "rois_text", "rois_repeated", "rois_empty", "rois_comma",
        "mode_twice"])
def test_eval_malformed_config_exits_1(dataset, tmp_path, capsys, edit):
    model = tmp_path / "model"
    model.mkdir()
    save_checkpoint(model / "checkpoint.npz", {})
    argv = ["eval", "--model", str(model),
            "--instances", str(dataset / "instances.csv"),
            "--manifest", str(dataset / "data" / "manifest.jsonl"),
            "--out", str(tmp_path / "m.json")]
    # The intact snapshot gets past config.json to the empty checkpoint.
    (model / "config.json").write_text(json.dumps(_snapshot()))
    assert main(argv) == 1
    assert "checkpoint does not match" in capsys.readouterr().err
    if callable(edit):
        snapshot = _snapshot()
        edit(snapshot)
        edit = json.dumps(snapshot)
    (model / "config.json").write_text(edit)
    assert main(argv) == 1
    assert f"{model / 'config.json'} is not a usable model config" in \
        capsys.readouterr().err


def _subset_manifest(dataset, path, keep) -> Path:
    """A manifest at ``path`` holding the dataset's records that ``keep``
    accepts; volume paths stay valid because they are written absolute."""
    records = load_manifest(dataset / "data" / "manifest.jsonl")
    save_manifest([r for r in records if keep(r)], path)
    return path


def _train_argv(dataset, manifest, config, out, seed="2"):
    return ["train", "--instances", str(dataset / "instances.csv"),
            "--manifest", str(manifest), "--config", str(config),
            "--rois", "hippocampus_left", "--seed", seed, "--out", str(out)]


def test_train_test_split_without_both_classes_exits_2(dataset, tmp_path,
                                                       capsys):
    # 8 subjects leave one subject for the test split: no ROC to score.
    ids = sorted(r.subject_id for r in load_manifest(
        dataset / "data" / "manifest.jsonl"))[:8]
    manifest = _subset_manifest(dataset, tmp_path / "manifest.jsonl",
                                lambda r: r.subject_id in ids)
    out = tmp_path / "model"
    rc = main(_train_argv(dataset, manifest, dataset / "config.json", out))
    assert rc == 2
    assert "the test split has no" in capsys.readouterr().err
    assert not (out / "history.csv").exists()


def _init_model_dir(path, snapshot) -> Path:
    """A model directory as ``train`` writes it for ``TINY_MODEL``, holding
    initial parameters and ``snapshot`` as its config.json."""
    path.mkdir()
    save_checkpoint(path / "checkpoint.npz", init_params(TINY_MODEL, 0))
    (path / "config.json").write_text(json.dumps(snapshot))
    return path


def _eval_argv(dataset, model, manifest, out):
    return ["eval", "--model", str(model),
            "--instances", str(dataset / "instances.csv"),
            "--manifest", str(manifest), "--out", str(out)]


def test_eval_subjects_of_one_class_exits_1(dataset, tmp_path, capsys):
    model = _init_model_dir(tmp_path / "model", _snapshot())
    manifest = _subset_manifest(dataset, tmp_path / "manifest.jsonl",
                                lambda r: r.cdr == 0.0)
    out = tmp_path / "m.json"
    assert main(_eval_argv(dataset, model, manifest, out)) == 1
    assert "the evaluation set has no AD subject" in capsys.readouterr().err
    assert not out.exists()


def test_eval_rois_for_two_branches_exits_1(dataset, tmp_path, capsys):
    # Two ROIs make a two-branch model, which the one-branch checkpoint
    # does not fit.
    snapshot = _snapshot()
    snapshot["rois"] = ["hippocampus_left", "fornix_right"]
    model = _init_model_dir(tmp_path / "model", snapshot)
    out = tmp_path / "m.json"
    assert main(_eval_argv(dataset, model,
                           dataset / "data" / "manifest.jsonl", out)) == 1
    assert "checkpoint does not match" in capsys.readouterr().err
    assert not out.exists()


def test_train_config_round_trips_through_config_flag(dataset, tmp_path):
    """The config object train saves, passed back as --config, trains the
    same model: every key is saved, so no default is read twice."""
    manifest = dataset / "data" / "manifest.jsonl"
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(_train_argv(dataset, manifest, dataset / "config.json",
                            first)) == 0
    config = tmp_path / "saved.json"
    config.write_text(json.dumps(
        json.loads((first / "config.json").read_text())["config"]))
    assert main(_train_argv(dataset, manifest, config, second)) == 0
    for name in ("checkpoint.npz", "history.csv", "metrics.json", "roc.csv",
                 "config.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("seed", ["0", "2"])
def test_train_at_unit_lr_never_sits_at_a_floor(dataset, tmp_path, capsys,
                                                seed):
    """At initial_lr=1 the head saturates. A floored loss would repeat one
    value epoch after epoch; without a floor the run either trains on with
    finite, changing losses or stops with exit 1 before an update."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_CONFIG, "initial_lr": 1.0}))
    out = tmp_path / "model"
    rc = main(_train_argv(dataset, dataset / "data" / "manifest.jsonl",
                          config, out, seed))
    if rc == 1:
        assert "at epoch" in capsys.readouterr().err
        assert not (out / "history.csv").exists()
        return
    assert rc == 0
    rows = np.loadtxt(out / "history.csv", delimiter=",", skiprows=1)
    train_loss, val_loss = rows[:, 1], rows[:, 2]
    assert np.isfinite(rows).all()
    assert len(set(val_loss)) == len(val_loss)
    assert len(set(train_loss)) == len(train_loss)


@pytest.mark.parametrize("command", ["train", "cv"])
def test_divergence_exits_1(dataset, tmp_path, capsys, monkeypatch, command):
    # cv maps PlanError to exit 2, so a divergence must not be one.
    def diverge(*args, **kwargs):
        raise DivergenceError("loss inf at epoch 0, step 0")

    # train.fit, which every command fits through, looks train up here.
    monkeypatch.setattr("mixedvit.train.train", diverge)
    assert main(_command_argv(dataset, tmp_path, command,
                              dataset / "config.json")) == 1
    assert "loss inf at epoch 0, step 0" in capsys.readouterr().err


def test_select_manifest_line_without_rois_exits_1(dataset, tmp_path, capsys):
    lines = (dataset / "data" / "manifest.jsonl").read_text().splitlines()
    obj = json.loads(lines[0])
    del obj["rois"]
    bad = tmp_path / "manifest.jsonl"  # line 1 fails before any path is read
    bad.write_text("\n".join([json.dumps(obj)] + lines[1:]) + "\n")
    rc = main(["select", "--manifest", str(bad), "--roi", "hippocampus_left",
               "--slices", "8", "--out", str(tmp_path / "inst.csv")])
    assert rc == 1
    assert f"{bad}, line 1: malformed subject record" in capsys.readouterr().err


def test_cv_malformed_instance_row_exits_1(dataset, tmp_path, capsys):
    bad = tmp_path / "instances.csv"
    bad.write_text((dataset / "instances.csv").read_text()
                   + "S999,CN,hippocampus_left,3,8\n")
    rc = main(["cv", "--instances", str(bad),
               "--manifest", str(dataset / "data" / "manifest.jsonl"),
               "--config", str(dataset / "config.json"),
               "--rois", "hippocampus_left", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "malformed instance row" in capsys.readouterr().err


def test_cv_unknown_config_key_exits_2(dataset, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": 1}))
    rc = main(["cv", "--instances", str(dataset / "instances.csv"),
               "--manifest", str(dataset / "data" / "manifest.jsonl"),
               "--config", str(bad), "--rois", "hippocampus_left",
               "--out", str(tmp_path / "x")])
    assert rc == 2


def _tune_argv(dataset, space, out, *extra, manifest=None):
    return ["tune", "--space", str(space), "--max-resource", "2",
            "--eta", "2", "--seed", "1",
            "--manifest", str(manifest or dataset / "data" / "manifest.jsonl"),
            "--instances", str(dataset / "instances.csv"),
            "--rois", "hippocampus_left",
            "--config", str(dataset / "config.json"), "--out", str(out),
            *extra]


def _space(tmp_path, spec) -> Path:
    """A space file holding ``spec``, as JSON, or as its text if a str."""
    path = tmp_path / "space.json"
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    return path


def test_tune_deterministic(dataset, tmp_path):
    space = _space(tmp_path, {
        "initial_lr": {"type": "log_uniform", "lo": 1e-3, "hi": 1e-2},
        "dropout_rate": {"type": "choice", "values": [0.1, 0.2, 0.3]},
    })
    logs = []
    for name in ("t1", "t2"):
        rc = main(_tune_argv(dataset, space, tmp_path / name, "--seed", "8"))
        assert rc == 0
        logs.append((tmp_path / name / "trials.csv").read_bytes())
    assert logs[0] == logs[1]

    from mixedvit.tuning import bracket_schedule
    rows = logs[0].decode().splitlines()[1:]
    planned_rows = sum(n for b in bracket_schedule(2, 2) for n, _ in b.rounds)
    assert len(rows) == planned_rows


@pytest.mark.parametrize("dim,message", [
    ({"type": "mystery"}, "unknown dimension type 'mystery'"),
    ({"type": "choice", "values": 5}, "values 5 is not a list"),
    ({"type": "uniform", "lo": [1], "hi": 0.01}, "lo [1] is not a number"),
    ({"type": "uniform", "lo": None, "hi": 0.01}, "lo None is not a number"),
    ({"type": "choice", "values": {"a": 1}}, "values {'a': 1} is not a list"),
    ({"type": "uniform", "lo": True, "hi": 0.01}, "lo True is not a number"),
], ids=["unknown_type", "int_values", "list_lo", "null_lo", "object_values",
        "true_lo"])
def test_tune_malformed_space_exits_2(dataset, tmp_path, capsys, dim,
                                      message):
    space = _space(tmp_path, {"initial_lr": dim})
    assert main(_tune_argv(dataset, space, tmp_path / "t")) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "t").exists()


def test_tune_train_objective(dataset, tmp_path):
    space = _space(tmp_path, {
        "initial_lr": {"type": "log_uniform", "lo": 1e-3, "hi": 1e-2},
    })
    out = tmp_path / "tt"
    assert main(_tune_argv(dataset, space, out)) == 0
    best = json.loads((out / "best_config.json").read_text())
    assert 0.0 <= best["score"] <= 1.0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["inputs"] == [
        str(dataset / "config.json"), str(space),
        str(dataset / "data" / "manifest.jsonl"),
        str(dataset / "instances.csv")]
    config = manifest["config"]
    assert config["rois"] == ["hippocampus_left"] and config["mode"] == "mixed"
    assert config["base_config"]["embed_dim"] == TINY_CONFIG["embed_dim"]
    assert "objective" not in config


def test_tune_tubelet_choice_runs(dataset, tmp_path):
    space = _space(tmp_path, {
        "tubelet": {"type": "choice", "values": [[4, 8, 8], [8, 8, 8]]},
    })
    out = tmp_path / "tt"
    assert main(_tune_argv(dataset, space, out)) == 0
    tried = {tuple(json.loads(row.split(",", 5)[5].strip('"')
                              .replace('""', '"'))["tubelet"])
             for row in (out / "trials.csv").read_text().splitlines()[1:]}
    assert tried <= {(4, 8, 8), (8, 8, 8)}


@pytest.mark.parametrize("spec,extra,message", [
    ({"embed_dim": {"type": "uniform", "lo": 8, "hi": 16}}, [],
     "ranges only float"),
    ({"embed_dim": {"type": "choice", "values": [8, 9]}}, [], "embed_dim"),
    ({"batch_size": {"type": "choice", "values": [4.5]}}, [], "'batch_size'"),
    ({"batch_size": {"type": "uniform", "lo": 2, "hi": 6}}, [],
     "ranges only float"),
    ({"epochs": {"type": "choice", "values": [1, 2]}}, [], "'epochs'"),
    ({"tubelet_t": {"type": "choice", "values": [4, 8]}}, [], "'tubelet_t'"),
    ({"heads": {"type": "choice", "values": [3]}}, [], "heads"),
    ({"initial_lr": {"type": "log_uniform", "lo": 1e-3, "hi": 1e-2}},
     ["--max-resource", "0.5"], "R=0.5 must be >= 1"),
    ({"initial_lr": {"type": "log_uniform", "lo": 1e-3, "hi": 1e-2}},
     ["--eta", "1"], "eta=1.0 must be >= 2"),
    ({"decay_rate": {"type": "uniform", "lo": 0.5, "hi": 0.9}}, [],
     "'decay_rate'"),
    ({"initial_lr": {"type": "log_uniform", "lo": 1e-3, "hi": 1e-2}},
     ["--max-resource", "inf"], "R=inf must be finite"),
    ({"initial_lr": {"type": "log_uniform", "lo": 1e-3, "hi": 1e-2}},
     ["--max-resource", "nan"], "R=nan must be finite"),
    ({"initial_lr": {"type": "log_uniform", "lo": 1e-3, "hi": 1e-2}},
     ["--eta", "nan"], "eta=nan must be finite"),
    ({"initial_lr": {"type": "log_uniform", "lo": 1e-3, "hi": 1e-2}},
     ["--eta", "inf"], "eta=inf must be finite"),
    ({"initial_lr": {"type": "log_uniform", "lo": 1e-3, "hi": 1e-2}},
     ["--max-resource", "1e15"], "plans more than 100,000 evaluations"),
    ({"initial_lr": {"type": "log_uniform", "lo": 1e-3, "hi": 1e-2}},
     ["--max-resource", "1.7e308"], "plans more than 100,000 evaluations"),
    ({"initial_lr": {"type": "log_uniform", "lo": 1e-3, "hi": 1e-2}},
     ["--max-resource", "1e308", "--eta", "1e308"],
     "plans more than 100,000 evaluations"),
    ({"initial_lr": {"type": "log_uniform", "lo": 1e-3, "hi": 1e-2}},
     ["--max-resource", "1.7976931348623157e308", "--eta", "2.5"],
     "plans more than 100,000 evaluations"),
    (None, [], "space file not found"),
    ('{"initial_lr": {"type": "log_uniform", "lo": 1e-3, "hi": 1e-2}, '
     '"initial_lr": {"type": "choice", "values": [0.1]}}', [],
     "space.json, --max-resource or --eta: key 'initial_lr' repeats"),
    ('{"initial_lr": {"type": "log_uniform", "lo": 1e-3, "hi": 1e-2, '
     '"note": "\\udfff"}}', [],
     "space.json, --max-resource or --eta: a string holds the lone "
     "surrogate"),
], ids=["uniform_embed_dim", "embed_dim_not_dividing", "float_batch_size",
        "uniform_batch_size", "epochs", "unknown_key", "heads_not_dividing",
        "max_resource_half", "eta_1", "removed_decay_rate", "max_resource_inf",
        "max_resource_nan", "eta_nan", "eta_inf", "max_resource_1e15",
        "max_resource_1.7e308", "max_resource_and_eta_1e308",
        "max_resource_float_max", "space_missing", "initial_lr_twice",
        "lone_surrogate"])
def test_tune_unusable_space_or_budget_exits_2(dataset, tmp_path, capsys,
                                                spec, extra, message):
    # The manifest does not exist: these are refused before data is read.
    # A spec of None names a space file that does not exist.
    space = (tmp_path / "missing.json" if spec is None
             else _space(tmp_path, spec))
    argv = _tune_argv(dataset, space, tmp_path / "t", *extra,
                      manifest=tmp_path / "missing.jsonl")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err
    assert not (tmp_path / "t").exists()


def test_tune_embed_dim_space_trains_each_width(dataset, tmp_path,
                                                 monkeypatch):
    """A space over embed_dim is applied: each trial trains its width."""
    import mixedvit.train as TR
    widths = []
    real_fit = TR.fit

    def spy(model_cfg, *args):
        widths.append(model_cfg.embed_dim)
        return real_fit(model_cfg, *args)

    monkeypatch.setattr(TR, "fit", spy)
    space = _space(tmp_path, {"embed_dim": {"type": "choice",
                                            "values": [8, 16]}})
    out = tmp_path / "t"
    assert main(_tune_argv(dataset, space, out)) == 0
    logged = [json.loads(row.split(",", 5)[5].strip('"')
                         .replace('""', '"'))["embed_dim"]
              for row in (out / "trials.csv").read_text().splitlines()[1:]]
    assert widths == logged


def test_tune_trains_and_selects_outside_the_test_split(dataset, tmp_path,
                                                        monkeypatch):
    """At one --seed, every tune trial trains on train's training subjects
    and selects on its validation subjects, so none of the test subjects
    that train scores is trained or validated on."""
    import mixedvit.train as TR
    plans = []
    real_fit = TR.fit

    def spy(model_cfg, train_cfg, plan, *args):
        plans.append(plan)
        return real_fit(model_cfg, train_cfg, plan, *args)

    monkeypatch.setattr(TR, "fit", spy)
    space = _space(tmp_path, {
        "initial_lr": {"type": "log_uniform", "lo": 1e-3, "hi": 1e-2}})
    assert main(_tune_argv(dataset, space, tmp_path / "t")) == 0  # --seed 1
    tune_plans = plans[:]
    plans.clear()
    assert main(_train_argv(dataset, dataset / "data" / "manifest.jsonl",
                            dataset / "config.json", tmp_path / "m",
                            seed="1")) == 0
    (train_plan,) = plans

    def ids(records):
        return sorted(r.subject_id for r in records)

    test_ids = set(ids(train_plan.scored))
    assert tune_plans and test_ids
    for plan in tune_plans:
        assert not test_ids & set(ids(plan.train) + ids(plan.val))
        assert ids(plan.train) == ids(train_plan.train)
        assert ids(plan.val) == ids(train_plan.val)


@pytest.mark.parametrize("seed", range(5))
def test_tune_image_dims_choice_the_table_lacks_exits_2_before_any_trial(
        dataset, tmp_path, capsys, monkeypatch, seed):
    """The instance table selects 8 slices: a space with a 12-slice
    image_dims choice is refused once the table is read, whichever choice
    the seed draws first, before any trial trains."""
    fits = []
    monkeypatch.setattr("mixedvit.train.fit", lambda *args: fits.append(args))
    space = _space(tmp_path, {"image_dims": {
        "type": "choice", "values": [[8, 16, 16, 1], [12, 16, 16, 1]]}})
    argv = _tune_argv(dataset, space, tmp_path / "t", "--seed", str(seed))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert ("slice_count 8 is not the T of image_dims (12, 16, 16, 1)"
            in err)
    assert "Traceback" not in err
    assert fits == []
    assert not (tmp_path / "t" / "trials.csv").exists()


@pytest.mark.parametrize("config,spec,message", [
    ({"embed_dim": 16},
     {"embed_dim": {"type": "choice", "values": [16, 24]},
      "heads": {"type": "choice", "values": [2, 16]}},
     "embed_dim 24 not divisible by heads 16"),
    ({}, {"image_dims": {"type": "choice",
                         "values": [[8, 32, 32, 3], [8, 48, 48, 3]]}},
     "image_dims (8, 48, 48, 3) do not fit the volumes"),
], ids=["embed_dim_with_heads", "image_dims_plane"])
def test_tune_space_with_a_trial_that_cannot_run_exits_2_before_any_trial(
        dataset, tmp_path, capsys, monkeypatch, config, spec, message):
    """Every value fits the config alone, but at --seed 3 the fourth trial
    pairs embed_dim 24 with 16 heads, and the volumes' 40x40 plane has no
    48x48 crop: both are refused before the first trial trains."""
    fits = []
    monkeypatch.setattr("mixedvit.train.fit", lambda *args: fits.append(args))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY_CONFIG, **config}))
    argv = _tune_argv(dataset, _space(tmp_path, spec), tmp_path / "t",
                      "--seed", "3", "--config", str(path))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert fits == []
    assert not (tmp_path / "t" / "trials.csv").exists()


def test_tune_budget_defaults_equal_the_values_given():
    """The default --max-resource and --eta are the floats that the same
    values given on the command line parse to, so they plan one search."""
    argv = ["tune", "--space", "s", "--instances", "i", "--manifest", "m",
            "--rois", "r", "--out", "o"]
    default = build_parser().parse_args(argv)
    given = build_parser().parse_args(
        argv + ["--max-resource", "27", "--eta", "3"])
    for name in ("max_resource", "eta"):
        got, want = getattr(default, name), getattr(given, name)
        assert (type(got), got) == (type(want), want) == (float, want)
    assert json.dumps(default.eta) == "3.0"


def test_tune_three_subjects_exits_2(dataset, tmp_path, capsys):
    # The 70/15/15 held-out split of 3 subjects leaves no validation
    # subject.
    ids = sorted(r.subject_id for r in load_manifest(
        dataset / "data" / "manifest.jsonl"))[:3]
    manifest = _subset_manifest(dataset, tmp_path / "manifest.jsonl",
                                lambda r: r.subject_id in ids)
    space = _space(tmp_path, {
        "initial_lr": {"type": "log_uniform", "lo": 1e-3, "hi": 1e-2}})
    argv = _tune_argv(dataset, space, tmp_path / "t", manifest=manifest)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "no validation subjects" in err and "Traceback" not in err


def _constant_age_manifest(dataset, path) -> Path:
    """The dataset's manifest at ``path`` with every age set to 70."""
    records = load_manifest(dataset / "data" / "manifest.jsonl")
    save_manifest([dataclasses.replace(r, age=70.0) for r in records], path)
    return path


@pytest.mark.parametrize("mode", ["image-only", "mixed"])
def test_constant_age_trains_and_evaluates(dataset, tmp_path, capsys, mode):
    """Every age is 70: the age range fitted on the training subjects has
    zero width, and every age scales to 0. An image-only model, which never
    reads it, and a mixed one both train, and eval reads the saved range."""
    manifest = _constant_age_manifest(dataset, tmp_path / "manifest.jsonl")
    out = tmp_path / "model"
    argv = _train_argv(dataset, manifest, dataset / "config.json", out)
    assert main(argv + ["--mode", mode]) == 0
    fit = json.loads((out / "config.json").read_text())["fit"]
    assert fit["age_min"] == fit["age_max"] == 70.0
    assert main(_eval_argv(dataset, out, manifest, tmp_path / "m.json")) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_cv_refused_last_fold_exits_2_before_any_training(dataset, tmp_path,
                                                          capsys, monkeypatch):
    """Every fold is planned before any fold trains: a plan refused for the
    last fold alone exits 2 with no training step taken."""
    import mixedvit.metrics as ME
    import mixedvit.train as TR

    def plan(train, val, scored, scored_name):
        if scored_name == "held-out fold 3":
            raise PlanError(f"{scored_name} refused")
        return TR.FitPlan(train, val, scored, scored_name)

    monkeypatch.setattr(ME, "FitPlan", plan)
    calls = []

    def counting(name):
        real = getattr(TR, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(TR, name, wrapper)

    # train.fit calls train; every training step calls adam_update.
    counting("train")
    counting("adam_update")
    argv = _train_argv(dataset, dataset / "data" / "manifest.jsonl",
                       dataset / "config.json", tmp_path / "out")
    argv = ["cv"] + argv[1:] + ["--folds", "4", "--no-holdout-test"]
    assert main(argv) == 2
    assert "held-out fold 3 refused" in capsys.readouterr().err
    assert calls == []


def _command_argv(dataset, tmp_path, command, config):
    """argv running ``command`` (train, cv or tune) on the dataset with
    ``config`` as its --config file."""
    if command == "tune":
        space = _space(tmp_path, {
            "initial_lr": {"type": "log_uniform", "lo": 1e-3, "hi": 1e-2}})
        return _tune_argv(dataset, space, tmp_path / "out",
                          "--config", str(config))
    argv = _train_argv(dataset, dataset / "data" / "manifest.jsonl", config,
                       tmp_path / "out")
    if command == "cv":
        argv = ["cv"] + argv[1:] + ["--folds", "3", "--no-holdout-test"]
    return argv


@pytest.mark.parametrize("command", ["train", "cv", "eval"])
def test_run_manifest_inputs_name_each_file_read(dataset, tmp_path, command):
    """A run manifest's inputs are the paths given to --config, --space,
    --model, --manifest and --instances, in that order: train and cv list
    the config file they read, eval the model directory."""
    data = dataset / "data" / "manifest.jsonl"
    if command == "eval":
        first = _init_model_dir(tmp_path / "model", _snapshot())
        argv = _eval_argv(dataset, first, data, tmp_path / "m.json")
        manifest = tmp_path / "m.json.manifest.json"
    else:
        first = dataset / "config.json"
        argv = _command_argv(dataset, tmp_path, command, first)
        manifest = tmp_path / "out" / "run_manifest.json"
    assert main(argv) == 0
    assert json.loads(manifest.read_text())["inputs"] == [
        str(first), str(data), str(dataset / "instances.csv")]


@pytest.mark.parametrize("command, flag", [
    ("train", "--config"), ("cv", "--config"), ("tune", "--config"),
    ("tune", "--space")])
def test_config_or_space_that_is_a_directory_exits_2(dataset, tmp_path,
                                                     capsys, command, flag):
    """A ``--config`` or ``--space`` path with no file to read is a usage
    error, a directory as much as a missing path."""
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = _command_argv(dataset, tmp_path, command, dataset / "config.json")
    argv += [flag, str(folder)]  # the last of a repeated flag wins
    assert main(argv) == 2
    err = capsys.readouterr().err
    what = "config" if flag == "--config" else "space"
    assert f"{what} file {folder} cannot be read" in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "cv", "tune"])
@pytest.mark.parametrize("dims", [[8, 48, 48, 1], [12, 16, 16, 1]],
                         ids=["plane_too_large", "slices_not_selected"])
def test_image_dims_that_do_not_fit_the_crops_exit_2(dataset, tmp_path, capsys,
                                                     monkeypatch, command,
                                                     dims):
    """The volumes are 33x40x40 and the instance table selects 8 slices: a
    48x48 plane or 12 slices is refused before any Adam step."""
    steps = []
    monkeypatch.setattr("mixedvit.train.adam_update",
                        lambda *args: steps.append(args))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_CONFIG, "image_dims": dims}))
    assert main(_command_argv(dataset, tmp_path, command, config)) == 2
    assert f"image_dims {tuple(dims)}" in capsys.readouterr().err
    assert steps == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "cv", "tune"])
@pytest.mark.parametrize("config,message", [
    ({"embed_dim": 800_000_000}, "parameters exceed the budget of 20,000,000"),
    ({"tabular_hidden": [4_000_000_000]},
     "parameters exceed the budget of 20,000,000"),
    ({"depth": 200_000_000}, "parameters exceed the budget of 20,000,000"),
    ({"tubelet": [1, 1, 1], "image_dims": [25, 32, 32, 1]},
     "8 heads over 25,601 tokens take 41,946,316,864 bytes of attention "
     "scores per element, over the budget of 134,217,728"),
], ids=["wide", "wide_tabular", "deep", "one_voxel_tubelet"])
def test_config_over_the_parameter_budget_exits_2_before_reading_data(
        dataset, tmp_path, capsys, command, config, message):
    """The configs are built, and the parameter and attention budgets
    checked, before the manifest and instance table are read: here neither
    exists. A 1x1x1 tubelet over a 25x32x32 crop has 1,772,138 parameters,
    under their budget, but 42 GB of attention scores per batch element."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = _command_argv(dataset, tmp_path, command, path)
    for flag in ("--manifest", "--instances"):
        argv[argv.index(flag) + 1] = str(tmp_path / "missing")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _argv_with_instances(dataset, tmp_path, command, table):
    """argv running ``command`` (train, eval, cv or tune) on the dataset's
    manifest with ``table`` as its instance table."""
    if command == "eval":
        argv = _eval_argv(dataset, _init_model_dir(tmp_path / "model",
                                                   _snapshot()),
                          dataset / "data" / "manifest.jsonl",
                          tmp_path / "out" / "m.json")
    else:
        argv = _command_argv(dataset, tmp_path, command,
                             dataset / "config.json")
    argv[argv.index("--instances") + 1] = str(table)
    return argv


@pytest.mark.parametrize("command", ["train", "eval", "cv", "tune"])
@pytest.mark.parametrize("edit,count", [
    (lambda index, count: "9" if index % 2 == 0 else count, 9),
    (lambda index, count: "12", 12),
], ids=["mixed_depth", "all_mismatched"])
def test_slice_count_not_image_dims_exits_2_before_any_volume_is_read(
        dataset, tmp_path, capsys, monkeypatch, command, edit, count):
    """image_dims take 8 slices: an instance table with rows of another
    slice count is refused, naming the first such row, before any volume
    is read."""
    def load_volume(path):
        raise AssertionError(f"{path} read")
    monkeypatch.setattr("mixedvit.data.load_volume", load_volume)
    rows = (dataset / "instances.csv").read_text().splitlines()
    for i in range(1, len(rows)):
        fields = rows[i].split(",")
        fields[4] = edit(i - 1, fields[4])  # slice_count
        rows[i] = ",".join(fields)
    table = tmp_path / "instances.csv"
    table.write_text("\n".join(rows) + "\n")
    assert rows[1].startswith("S0000,CN,hippocampus_left,")
    assert main(_argv_with_instances(dataset, tmp_path, command,
                                     table)) == 2
    assert capsys.readouterr().err == (
        f"error: subject S0000, roi 'hippocampus_left': slice_count {count} "
        f"is not the T of image_dims (8, 16, 16, 1)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "eval", "cv", "tune"])
def test_slice_window_past_the_volume_exits_1(dataset, tmp_path, capsys,
                                              command):
    """The volumes are 33 slices deep: a row selecting slices [30, 38) is a
    malformed instance table, found when the volume is cropped."""
    rows = (dataset / "instances.csv").read_text().splitlines()
    i = next(i for i, row in enumerate(rows) if ",hippocampus_left," in row)
    fields = rows[i].split(",")
    fields[3] = "30"  # slice_start
    rows[i] = ",".join(fields)
    bad = tmp_path / "instances.csv"
    bad.write_text("\n".join(rows) + "\n")
    assert main(_argv_with_instances(dataset, tmp_path, command, bad)) == 1
    err = capsys.readouterr().err
    assert (f"malformed instance table {bad}: subject {fields[0]}, roi "
            f"'hippocampus_left': slice window [30, 38) outside depth 33"
            in err)
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "eval", "cv", "tune"])
@pytest.mark.parametrize("cx", ["-5", "500"])
def test_centre_outside_the_plane_exits_1(dataset, tmp_path, capsys, command,
                                          cx):
    """The volumes' planes are 40 wide: a row whose centre lies outside
    one is a malformed instance table, found when the volume is cropped,
    and not a window shifted to the border."""
    rows = (dataset / "instances.csv").read_text().splitlines()
    i = next(i for i, row in enumerate(rows) if ",hippocampus_left," in row)
    fields = rows[i].split(",")
    fields[5] = cx
    rows[i] = ",".join(fields)
    bad = tmp_path / "instances.csv"
    bad.write_text("\n".join(rows) + "\n")
    assert main(_argv_with_instances(dataset, tmp_path, command, bad)) == 1
    err = capsys.readouterr().err
    assert (f"malformed instance table {bad}: subject {fields[0]}, roi "
            f"'hippocampus_left': centre ({cx}, {fields[6]}) outside plane "
            f"(40, 40)" in err)
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _argv_with_manifest(dataset, tmp_path, command, manifest):
    """argv running ``command`` (select, train, eval, cv or tune) on the
    dataset's instance table with ``manifest`` as its manifest."""
    if command == "select":
        return ["select", "--manifest", str(manifest), "--roi",
                "hippocampus_left", "--slices", "8",
                "--out", str(tmp_path / "out" / "instances.csv")]
    if command == "eval":
        return _eval_argv(dataset, _init_model_dir(tmp_path / "model",
                                                   _snapshot()),
                          manifest, tmp_path / "out" / "m.json")
    argv = _command_argv(dataset, tmp_path, command, dataset / "config.json")
    argv[argv.index("--manifest") + 1] = str(manifest)
    return argv


def _counting(monkeypatch, target: str) -> list:
    """The arguments of each call to ``target``, which still runs."""
    module, name = target.rsplit(".", 1)
    real = getattr(sys.modules[module], name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(target, spy)
    return calls


@pytest.mark.parametrize("command,extra", [
    ("train", []), ("eval", []), ("cv", ["--jobs", "1"]),
    ("cv", ["--jobs", "2"]), ("tune", [])],
    ids=["train", "eval", "cv_jobs1", "cv_jobs2", "tune_two_image_dims"])
def test_each_command_reads_each_volume_once_per_image_dims(
        dataset, tmp_path, monkeypatch, command, extra):
    """A command builds its crops once, before training: train, eval and
    every fold of cv read each volume once, and tune each volume of its
    training and validation subjects once per image_dims value."""
    records = load_manifest(dataset / "data" / "manifest.jsonl")
    reads = _counting(monkeypatch, "mixedvit.data.load_volume")
    if command == "tune":
        space = _space(tmp_path, {"image_dims": {
            "type": "choice", "values": [[8, 16, 16, 1], [8, 24, 24, 1]]}})
        argv = _tune_argv(dataset, space, tmp_path / "out")
        train_set, val_set, _test = holdout_split(records, 1)  # --seed 1
        expected = {r.volume_path: 2 for r in train_set + val_set}
    else:
        argv = _argv_with_manifest(dataset, tmp_path, command,
                                   dataset / "data" / "manifest.jsonl")
        expected = {r.volume_path: 1 for r in records}
    assert main(argv + extra) == 0
    assert Counter(path for (path,) in reads) == expected


@pytest.mark.parametrize("command", ["train", "cv"])
def test_nan_voxel_in_a_scored_subject_exits_1_before_any_training(
        dataset, tmp_path, capsys, monkeypatch, command):
    """A subject that train scores on its test split, or that cv scores in
    held-out fold 0, has a NaN voxel: the crops are built before training,
    so the command exits 1 before its first Adam step."""
    records = load_manifest(dataset / "data" / "manifest.jsonl")
    if command == "train":  # seed 2, as _train_argv gives
        scored = holdout_split(records, 2)[2]
    else:  # --folds 3 --no-holdout-test at seed 2
        labels = {r.subject_id: cdr_to_label(r.cdr) for r in records}
        held = stratified_kfold(list(labels), labels, 3,
                                np.random.default_rng([2, 23]))[0]
        scored = [r for r in records if r.subject_id in held]
    victim = scored[0]
    volume = load_volume(victim.volume_path).copy()
    volume[0, 0, 0] = np.nan
    bad = tmp_path / "nan.vol"
    save_volume(volume, bad)
    manifest = tmp_path / "manifest.jsonl"
    save_manifest([dataclasses.replace(r, volume_path=str(bad))
                   if r is victim else r for r in records], manifest)
    steps = _counting(monkeypatch, "mixedvit.train.adam_update")
    assert main(_argv_with_manifest(dataset, tmp_path, command,
                                    manifest)) == 1
    err = capsys.readouterr().err
    assert f"{bad} holds a non-finite voxel" in err
    assert "Traceback" not in err
    assert steps == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "cv", "tune"])
def test_out_under_a_regular_file_exits_1_before_any_training(
        dataset, tmp_path, capsys, monkeypatch, command):
    """--out is created after every check and before the first training
    step, so an --out that cannot be a directory costs no training."""
    (tmp_path / "file").write_text("a regular file")
    argv = _command_argv(dataset, tmp_path, command, dataset / "config.json")
    argv[argv.index("--out") + 1] = str(tmp_path / "file" / "out")
    steps = _counting(monkeypatch, "mixedvit.train.adam_update")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "file" / "out") in err
    assert "Traceback" not in err
    assert steps == []


@pytest.mark.parametrize("command", ["train", "eval", "cv", "tune"])
def test_corrupt_volume_exits_1(dataset, tmp_path, capsys, command):
    """One subject's volume has XXXX over its magic: a runtime failure for
    every command that reads it, never a usage error."""
    records = load_manifest(dataset / "data" / "manifest.jsonl")
    bad = tmp_path / "bad.vol"
    bad.write_bytes(b"XXXX" + Path(records[0].volume_path).read_bytes()[4:])
    manifest = tmp_path / "manifest.jsonl"
    save_manifest([dataclasses.replace(records[0], volume_path=str(bad))]
                  + records[1:], manifest)
    assert main(_argv_with_manifest(dataset, tmp_path, command,
                                    manifest)) == 1
    err = capsys.readouterr().err
    assert f"bad magic b'XXXX' in {bad}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["select", "train", "eval", "cv", "tune"])
def test_volume_or_mask_not_3d_exits_1_naming_it(dataset, tmp_path, capsys,
                                                 command):
    """One subject's volume (for select, its hippocampus mask) saved as
    (33, 40, 40, 1): every reader of subject data refuses it, naming the
    file and its dims, before anything is written."""
    records = load_manifest(dataset / "data" / "manifest.jsonl")
    bad = tmp_path / "bad.vol"
    if command == "select":
        path = records[0].roi_masks["hippocampus_left"]
        save_volume(load_volume(path)[..., None], bad)
        record = dataclasses.replace(records[0], roi_masks={
            **records[0].roi_masks, "hippocampus_left": str(bad)})
    else:
        save_volume(load_volume(records[0].volume_path)[..., None], bad)
        record = dataclasses.replace(records[0], volume_path=str(bad))
    manifest = tmp_path / "manifest.jsonl"
    save_manifest([record] + records[1:], manifest)
    assert main(_argv_with_manifest(dataset, tmp_path, command,
                                    manifest)) == 1
    err = capsys.readouterr().err
    assert f"error: {bad} holds a 4-D array of dims (33, 40, 40, 1)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_train_volume_of_unknown_version_exits_1_naming_it(dataset, tmp_path,
                                                           capsys):
    """One of 14 volumes has its version byte flipped from 1 to 3: the error
    must say which file is damaged."""
    records = load_manifest(dataset / "data" / "manifest.jsonl")
    blob = bytearray(Path(records[3].volume_path).read_bytes())
    blob[4] ^= 0x02
    bad = tmp_path / "bad.vol"
    bad.write_bytes(bytes(blob))
    manifest = tmp_path / "manifest.jsonl"
    save_manifest(records[:3] + [dataclasses.replace(records[3],
                                                     volume_path=str(bad))]
                  + records[4:], manifest)
    assert main(_argv_with_manifest(dataset, tmp_path, "train",
                                    manifest)) == 1
    err = capsys.readouterr().err
    assert f"unsupported container version 3 in {bad}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["select", "train", "eval", "cv", "tune"])
@pytest.mark.parametrize("case", ["cdr_05", "repeated_subject", "missing",
                                  "subject_id_number", "subject_id_comma",
                                  "mmse_fraction", "mmse_float", "mmse_text",
                                  "mmse_true", "age_text", "age_true",
                                  "cdr_text", "cdr_true", "cdr_twice",
                                  "subject_id_lone_surrogate"])
def test_unusable_manifest_exits_1(dataset, tmp_path, capsys, command, case):
    """CDR 0.5 (MCI) is neither class, a subject listed twice would be
    scored twice by eval, a subject id must be a string that the
    comma-separated instance table can hold, and age, MMSE and CDR are
    numbers, MMSE an int, not values a reader would coerce, and a key given
    twice is not read as its last value, nor is a string holding a lone
    surrogate, which no UTF-8 file can hold, read at all: loading the
    manifest fails, naming the file and line, before any command does its
    work, as it does for a manifest that is not there."""
    lines = (dataset / "data" / "manifest.jsonl").read_text().splitlines()
    manifest = tmp_path / "manifest.jsonl"
    edits = {"cdr_05": ("cdr", 0.5, "CDR 0.5 is outside the two study "
                                    "classes"),
             "subject_id_number": ("subject_id", 7, "subject_id 7 is not"),
             "subject_id_comma": ("subject_id", "S,1", "subject_id 'S,1'"),
             "mmse_fraction": ("mmse", 27.5, "mmse 27.5 is not an int"),
             "mmse_float": ("mmse", 28.0, "mmse 28.0 is not an int"),
             "mmse_text": ("mmse", "28", "mmse '28' is not an int"),
             "mmse_true": ("mmse", True, "mmse True is not an int"),
             "age_text": ("age", "70", "age '70' must be positive and "
                                       "finite"),
             "age_true": ("age", True, "age True must be positive"),
             "cdr_text": ("cdr", "0", "cdr '0' not in"),
             "cdr_true": ("cdr", True, "cdr True not in"),
             "subject_id_lone_surrogate": ("subject_id", "S\ud800",
                                           "a string holds the lone "
                                           "surrogate")}
    if case in edits:
        key, value, message = edits[case]
        obj = json.loads(lines[2])
        obj[key] = value
        lines[2] = json.dumps(obj)
        messages = [f"{manifest}, line 3: malformed subject record", message]
    elif case == "repeated_subject":
        sid = json.loads(lines[3])["subject_id"]
        lines.append(lines[3])
        messages = [f"{manifest}, line 15: subject {sid} repeats line 4"]
    elif case == "cdr_twice":  # a CN subject, AD by its last value
        assert '"cdr": 0.0, ' in lines[2]
        lines[2] = lines[2].replace('"cdr": 0.0, ', '"cdr": 0.0, "cdr": 1.0, ')
        messages = [f"{manifest}, line 3: malformed subject record",
                    "key 'cdr' repeats"]
    else:
        messages = [f"manifest not found: {manifest}"]
    if case != "missing":
        manifest.write_text("\n".join(lines) + "\n")
    assert main(_argv_with_manifest(dataset, tmp_path, command,
                                    manifest)) == 1
    err = capsys.readouterr().err
    assert all(message in err for message in messages), err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "eval", "cv", "tune"])
@pytest.mark.parametrize("case", ["repeated_row", "class_not_the_cdrs",
                                  "no_row_of_the_roi", "not_utf8_row",
                                  "padded_header"])
def test_unusable_instance_table_exits_1(dataset, tmp_path, capsys, command,
                                         case):
    """A second row for one subject and ROI would silently replace the
    first, and a row's class must be the class of its subject's CDR in the
    manifest; a table with no row of the ROI used leaves no subject. A row
    that is not UTF-8 is named by its line, and the header must be exactly
    as ``select`` writes it."""
    rows = (dataset / "instances.csv").read_text().splitlines()
    fields = rows[1].split(",")
    assert fields[1:3] == ["CN", "hippocampus_left"]
    table = tmp_path / "instances.csv"
    if case == "repeated_row":
        fields[3] = str(int(fields[3]) + 1)  # slice_start
        rows.append(",".join(fields))
        message = (f"{table}, line {len(rows)}: subject {fields[0]}, roi "
                   f"'hippocampus_left' repeats line 2")
    elif case == "class_not_the_cdrs":
        fields[1] = "AD"
        rows[1] = ",".join(fields)
        message = (f"{table}: subject {fields[0]}, roi 'hippocampus_left' has "
                   f"class AD, but its CDR in "
                   f"{dataset / 'data' / 'manifest.jsonl'} makes it CN")
    elif case == "no_row_of_the_roi":
        rows = [row for row in rows if ",hippocampus_left," not in row]
        message = "have instances for all of ['hippocampus_left']"
    elif case == "not_utf8_row":
        rows[1] = "\udcff" + rows[1]  # written as the byte 0xff
        message = (f"{table}, line 2: malformed instance row "
                   f"(UnicodeDecodeError(")
    else:
        rows[0] = f"  {rows[0]} \t"
        message = f"{table}, line 1: b'  subject_id,"
    table.write_bytes(("\n".join(rows) + "\n").encode("utf-8",
                                                       "surrogateescape"))
    assert main(_argv_with_instances(dataset, tmp_path, command,
                                     table)) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# The role each named file has in cli's messages.
ROLES = {"--manifest": "manifest", "--instances": "instance table",
         "--metrics": "metrics file", "checkpoint.npz": "checkpoint",
         "config.json": "model config"}


def _argv_naming(dataset, tmp_path, command, role):
    """argv running ``command`` on the dataset, and the path it names as
    the file of ``role``, where nothing is: a flag's value, or a file of
    eval's model directory, which is removed."""
    path = tmp_path / "named"
    if role == "--manifest":
        return _argv_with_manifest(dataset, tmp_path, command, path), path
    if role == "--instances":
        return _argv_with_instances(dataset, tmp_path, command, path), path
    if role == "--metrics":
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"folds": [
            {"fold": i, "accuracy": 0.5} for i in range(3)], "summary": {}}))
        return ["compare", "--metrics", str(good), str(path)], path
    model = _init_model_dir(tmp_path / "model", _snapshot())
    (model / role).unlink()
    return _eval_argv(dataset, model, dataset / "data" / "manifest.jsonl",
                      tmp_path / "out" / "m.json"), model / role


# Each command with each file it reads whose path the command line names.
NAMED = [("select", "--manifest"), ("train", "--manifest"),
         ("cv", "--manifest"), ("tune", "--manifest"), ("eval", "--manifest"),
         ("train", "--instances"), ("cv", "--instances"),
         ("tune", "--instances"), ("eval", "--instances"),
         ("compare", "--metrics"), ("eval", "checkpoint.npz"),
         ("eval", "config.json")]


@pytest.mark.parametrize("command,role,kind", [
    *[(command, role, "directory") for command, role in NAMED],
    *[(command, role, "missing") for command, role in NAMED
      if role in ("--instances", "config.json")]])
def test_named_file_that_cannot_be_read_exits_1(dataset, tmp_path, capsys,
                                                command, role, kind):
    """A path a command names that is a directory, or is not there, exits
    1, naming the file's role and the path, before anything is written.
    (Other tests cover a missing manifest, checkpoint and metrics file.)"""
    argv, path = _argv_naming(dataset, tmp_path, command, role)
    if kind == "directory":
        path.mkdir()
    assert main(argv) == 1
    captured = capsys.readouterr()
    what = ROLES[role]
    message = (f"{what} not found: {path}" if kind == "missing"
               else f"{what} {path} cannot be read: Is a directory")
    assert captured.err == f"error: {message}\n", captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_eval_roc_svg_into_a_directory_not_yet_there(dataset, tmp_path):
    """eval creates the parent of --roc-svg, as it does --out's, before it
    writes anything, and lists the SVG in its run manifest."""
    model = _init_model_dir(tmp_path / "model", _snapshot())
    out, svg = tmp_path / "m.json", tmp_path / "nodir" / "roc.svg"
    argv = _eval_argv(dataset, model, dataset / "data" / "manifest.jsonl",
                      out)
    assert main(argv + ["--roc-svg", str(svg)]) == 0
    root = ET.parse(svg).getroot()
    assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 1
    run = json.loads(out.with_name("m.json.manifest.json").read_text())
    assert run["outputs"]["roc.svg"] == hashlib.sha256(
        svg.read_bytes()).hexdigest()


# Each file output of select and eval, by the name cli gives it, and its
# path under tmp_path / "out".
FILE_OUTPUTS = {
    ("select", "--out"): "instances.csv",
    ("select", "run manifest"): "instances.csv.manifest.json",
    ("eval", "--out"): "m.json", ("eval", "ROC table"): "m_roc.csv",
    ("eval", "run manifest"): "m.json.manifest.json",
    ("eval", "--roc-svg"): "roc.svg"}


@pytest.mark.parametrize("command,what", [
    ("synth", "--out"), ("train", "--out"), ("cv", "--out"), ("tune", "--out"),
    *FILE_OUTPUTS])
def test_output_that_cannot_be_written_exits_1(dataset, tmp_path, capsys,
                                               command, what):
    """An output path that cannot be written, a regular file as the --out
    directory or a directory as an output file, exits 1 naming the output
    and the path, and nothing is written: select and eval check every file
    they write, their run manifests among them, before they write any."""
    out = tmp_path / "out"
    if command == "synth":
        argv = ["synth", "--out", str(out), "--subjects", "4"]
    elif command != "eval":
        argv = _argv_with_manifest(dataset, tmp_path, command,
                                   dataset / "data" / "manifest.jsonl")
    else:
        argv = _eval_argv(dataset, _init_model_dir(tmp_path / "model",
                                                   _snapshot()),
                          dataset / "data" / "manifest.jsonl", out / "m.json")
        argv += ["--roc-svg", str(out / "roc.svg")]
    if command in ("synth", "train", "cv", "tune"):
        bad, strerror = out, "File exists"
        out.write_text("")
    else:
        bad, strerror = out / FILE_OUTPUTS[command, what], "Is a directory"
        bad.mkdir(parents=True)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {what} {bad} cannot be written: "
                            f"{strerror}\n"), captured.err
    assert captured.out == ""
    if out.is_dir():
        assert list(out.rglob("*")) == [bad]
    else:
        assert out.read_text() == ""


@pytest.mark.parametrize("command", ["synth", "train", "cv", "tune"])
def test_negative_seed_exits_2(dataset, tmp_path, capsys, command):
    if command == "synth":
        argv = ["synth", "--out", str(tmp_path / "out"), "--subjects", "4"]
    else:
        argv = _command_argv(dataset, tmp_path, command,
                             dataset / "config.json")
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: must be >= 0, got -1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["synth", "select", "train", "cv", "tune"])
@pytest.mark.parametrize("rois,message", [
    ("hippocampus_left,hippocampus_left", "repeated ROI name"),
    (",", "empty ROI list"),
], ids=["repeated", "empty"])
def test_unusable_roi_list_exits_2_before_reading(dataset, tmp_path, capsys,
                                                  command, rois, message):
    """A repeated ROI name, or a list of none, is refused before any input
    is read: the manifest given does not exist, which would exit 1 had it
    been read."""
    missing = str(tmp_path / "missing.jsonl")
    out = tmp_path / "out"
    if command == "synth":
        argv = ["synth", "--out", str(out), "--subjects", "2", "--rois", rois]
    elif command == "select":
        argv = ["select", "--manifest", missing, "--roi", rois, "--slices",
                "8", "--out", str(out / "instances.csv")]
    else:
        argv = _command_argv(dataset, tmp_path, command,
                             dataset / "config.json")
        argv[argv.index("--rois") + 1] = rois
        argv[argv.index("--manifest") + 1] = missing
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_compare_identical_fail_to_reject(dataset, tmp_path, capsys):
    metrics = tmp_path / "m.json"
    metrics.write_text(json.dumps({
        "folds": [{"fold": i, "accuracy": 0.9, "auc": 0.9,
                   "confusion": {"tp": 1, "fp": 0, "tn": 1, "fn": 0}}
                  for i in range(7)],
        "summary": {}}))
    rc = main(["compare", "--metrics", str(metrics), str(metrics),
               "--test", "ttest"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "p=1.000000" in out and "fail to reject" in out


def test_compare_anova_equals_ttest_squared(tmp_path, capsys):
    rng = np.random.default_rng(0)
    paths = []
    for j in range(2):
        path = tmp_path / f"m{j}.json"
        path.write_text(json.dumps({
            "folds": [{"fold": i, "accuracy": float(rng.uniform(0.7, 0.9 + 0.1 * j)),
                       "auc": 0.9, "confusion": {}} for i in range(7)],
            "summary": {}}))
        paths.append(str(path))
    assert main(["compare", "--metrics", *paths, "--test", "ttest"]) == 0
    p_t = float(capsys.readouterr().out.splitlines()[0].split("p=")[1])
    assert main(["compare", "--metrics", *paths, "--test", "anova"]) == 0
    p_f = float(capsys.readouterr().out.splitlines()[0].split("p=")[1])
    assert abs(p_t - p_f) < 1e-9


def test_compare_separated_rejects(tmp_path, capsys):
    paths = []
    rng = np.random.default_rng(1)
    for j, base in enumerate((0.6, 0.95)):
        path = tmp_path / f"s{j}.json"
        path.write_text(json.dumps({
            "folds": [{"fold": i,
                       "accuracy": float(np.clip(base + rng.normal(0, 0.01), 0, 1)),
                       "auc": 0.9, "confusion": {}} for i in range(7)],
            "summary": {}}))
        paths.append(str(path))
    assert main(["compare", "--metrics", *paths]) == 0
    assert "reject H0 at 0.05" in capsys.readouterr().out


@pytest.mark.parametrize("test,files", [("ttest", 1), ("anova", 1),
                                        ("ttest", 3)])
def test_compare_wrong_number_of_files_exits_2(tmp_path, capsys, test, files):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "folds": [{"fold": i, "accuracy": 0.9} for i in range(7)],
        "summary": {}}))
    assert main(["compare", "--metrics", *[str(path)] * files,
                 "--test", test]) == 2
    captured = capsys.readouterr()
    need = "exactly" if test == "ttest" else "at least"
    assert (f"--test {test} needs {need} 2 metrics files, got {files}"
            in captured.err)
    assert "Traceback" not in captured.err and captured.out == ""


def test_compare_too_few_folds_exits_2(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"folds": [{"fold": 0, "accuracy": 1.0}],
                                "summary": {}}))
    assert main(["compare", "--metrics", str(path), str(path)]) == 2


@pytest.mark.parametrize("accuracy", ['"x"', "NaN", "true", "1.5", "-0.1"])
def test_compare_malformed_accuracy_exits_2(tmp_path, capsys, accuracy):
    """Python's json reads NaN, and true is an int to isinstance: a fold
    accuracy must be a finite number in [0, 1]."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "folds": [{"fold": i, "accuracy": 0.5 if i else "ACC"}
                  for i in range(3)],
        "summary": {}}).replace('"ACC"', accuracy))
    assert main(["compare", "--metrics", str(path), str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "fold 0: accuracy" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case,test", [
    ("missing_file", "ttest"), ("zero_variance", "ttest"),
    ("zero_variance", "anova")],
    ids=["missing_file", "zero_variance", "zero_variance_anova"])
def test_compare_runtime_failure_exits_1(tmp_path, capsys, case, test):
    """A metrics file that is not there, or two sets of constant fold
    accuracies with different means, whose t and F statistics are
    undefined."""
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, accuracy in zip(paths, (0.5, 0.7)):
        path.write_text(json.dumps({
            "folds": [{"fold": i, "accuracy": accuracy} for i in range(3)],
            "summary": {}}))
    if case == "missing_file":
        paths[1].unlink()
        message = f"metrics file not found: {paths[1]}"
    else:  # the t-test is ANOVA's two-group case, and raises its error
        message = "zero within-group variance with unequal means"
    assert main(["compare", "--metrics", *map(str, paths),
                 "--test", test]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_compare_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["compare", "--metrics", str(path), str(path)]) == 2
    assert f"{path}: not a metrics JSON" in capsys.readouterr().err


def test_compare_metrics_file_repeating_a_key_exits_2(tmp_path, capsys):
    """A fold that gives its accuracy twice is refused, not read as its
    last value."""
    path = tmp_path / "bad.json"
    path.write_text('{"folds": [{"fold": 0, "accuracy": 0.5, "accuracy": 0.9}'
                    ', {"fold": 1, "accuracy": 0.7}], "summary": {}}')
    assert main(["compare", "--metrics", str(path), str(path)]) == 2
    captured = capsys.readouterr()
    assert f"{path}: not a metrics JSON: key 'accuracy' repeats" in \
        captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_run_manifest_contents(dataset):
    manifest = json.loads(
        (dataset / "data" / "run_manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert "duration_seconds" in manifest
    assert all(len(h) == 64 for h in manifest["outputs"].values())


@pytest.mark.parametrize("command", ["train", "cv", "tune"])
def test_config_help_lists_every_key(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    assert all(key in out for key in CONFIG_KEYS)
    assert "dropout_rate 0.2" in out and "image_dims [25, 32, 32, 3]" in out


def test_console_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "mixedvit", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "synth" in proc.stdout
