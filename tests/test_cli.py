import dataclasses
import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from mixedvit.cli import main
from mixedvit.data import FitStats, load_manifest, save_manifest
from mixedvit.model import ModelConfig, init_params, save_checkpoint
from mixedvit.train import DivergenceError, TrainConfig

TINY_CONFIG = {
    "slice_count": 8, "image_size": [16, 16], "channels": 1,
    "tubelet": [4, 8, 8], "embed_dim": 8, "depth": 1, "heads": 2,
    "tabular_hidden": [8, 4], "initial_lr": 3e-3, "batch_size": 4,
    "epochs": 4, "dropout": 0.1,
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


def test_synth_dims_too_small_exits_2(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "d"), "--subjects", "4",
               "--dims", "10,10,10"])
    assert rc == 2


def test_select_row_count(dataset):
    rows = (dataset / "instances.csv").read_text().splitlines()
    assert len(rows) == 1 + 14 * 2  # header + subjects x rois


def test_select_missing_roi_exits_1(dataset, capsys):
    rc = main(["select", "--manifest", str(dataset / "data" / "manifest.jsonl"),
               "--roi", "amygdala", "--slices", "8",
               "--out", str(dataset / "nope.csv")])
    assert rc == 1
    assert "S0000" in capsys.readouterr().err


def test_select_slices_exceeding_depth_exits_2(dataset):
    rc = main(["select", "--manifest", str(dataset / "data" / "manifest.jsonl"),
               "--roi", "hippocampus_left", "--slices", "99",
               "--out", str(dataset / "nope.csv")])
    assert rc == 2


def test_select_slices_below_one_exits_2(dataset, capsys):
    for slices in ("0", "-1"):
        rc = main(["select", "--manifest",
                   str(dataset / "data" / "manifest.jsonl"),
                   "--roi", "hippocampus_left", "--slices", slices,
                   "--out", str(dataset / "nope.csv")])
        assert rc == 2
        assert "--slices must be >= 1" in capsys.readouterr().err
    assert not (dataset / "nope.csv").exists()


def test_train_and_eval_round_trip(dataset, tmp_path, capsys):
    out = tmp_path / "model"
    rc = main(["train", "--instances", str(dataset / "instances.csv"),
               "--manifest", str(dataset / "data" / "manifest.jsonl"),
               "--config", str(dataset / "config.json"), "--mode", "mixed",
               "--rois", "hippocampus_left", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    for name in ("checkpoint.mwt", "history.csv", "metrics.json", "roc.csv",
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
    for blob in (b"JUNKJUNKJUNK", b"MWT1x"):  # bad magic, short header
        (model / "checkpoint.mwt").write_bytes(blob)
        rc = main(["eval", "--model", str(model),
                   "--instances", str(dataset / "instances.csv"),
                   "--manifest", str(dataset / "data" / "manifest.jsonl"),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 1


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


def test_cv_jobs_matches_serial(dataset, tmp_path):
    outs = []
    for name, jobs in (("serial", "1"), ("parallel", "3")):
        out = tmp_path / name
        rc = main(["cv", "--instances", str(dataset / "instances.csv"),
                   "--manifest", str(dataset / "data" / "manifest.jsonl"),
                   "--config", str(dataset / "config.json"),
                   "--rois", "hippocampus_left", "--seed", "4",
                   "--folds", "7", "--no-holdout-test", "--jobs", jobs,
                   "--out", str(out)])
        assert rc == 0
        outs.append(out)
    assert (outs[0] / "metrics.json").read_bytes() == \
        (outs[1] / "metrics.json").read_bytes()


@pytest.mark.parametrize("config,message", [
    ({"tubelet": "abc"}, "'tubelet'"),
    ({"tubelet": [5, "8", 8]}, "'tubelet'"),
    ({"epochs": 2.5}, "'epochs'"),
    ({"dropout": True}, "'dropout'"),
    ({"optimizer": 1}, "'optimizer'"),
    ([1, 2], "JSON object"),
], ids=["str_for_list", "str_in_list", "float_for_int", "bool_for_float",
        "int_for_str", "not_object"])
def test_cv_config_value_of_wrong_type_exits_2(dataset, tmp_path, capsys,
                                               config, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    rc = main(["cv", "--instances", str(dataset / "instances.csv"),
               "--manifest", str(dataset / "data" / "manifest.jsonl"),
               "--config", str(bad), "--rois", "hippocampus_left",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert message in capsys.readouterr().err


# The model TINY_CONFIG describes, for one ROI in mixed mode.
TINY_MODEL = ModelConfig(image_dims=(8, 16, 16, 1), tubelet=(4, 8, 8),
                         embed_dim=8, depth=1, heads=2, tabular_hidden=(8, 4))


def _snapshot() -> dict:
    """A config.json as ``train`` writes it, for a one-ROI mixed model."""
    return {"model": dataclasses.asdict(TINY_MODEL),
            "train": dataclasses.asdict(TrainConfig()),
            "rois": ["hippocampus_left"], "mode": "mixed",
            "fit": dataclasses.asdict(FitStats(60.0, 90.0, 10.0, 30.0))}


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
    _without("fit"), _without("rois"), _without("heads", "model"),
    _set([3, 8, 8], "tubelet", "model"), _set("x", "embed_dim", "model"),
    _set(0, "batch_size", "train"), _set({"age": 1}, "fit"),
    _set(["hippocampus_left", "fornix_right"], "rois"),
    _set({"age_min": 69.1, "age_max": 69.1, "mmse_min": 10.0,
          "mmse_max": 30.0}, "fit"),
], ids=["not_json", "empty", "empty_model", "not_object", "no_fit", "no_rois",
        "no_heads", "tubelet_not_dividing", "embed_dim_text", "batch_size_0",
        "fit_fields", "rois_for_two_branches", "fit_zero_width"])
def test_eval_malformed_config_exits_1(dataset, tmp_path, capsys, edit):
    model = tmp_path / "model"
    model.mkdir()
    save_checkpoint(model / "checkpoint.mwt", {})
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
    save_checkpoint(path / "checkpoint.mwt", init_params(TINY_MODEL, 0))
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


def test_eval_loads_config_with_num_classes(dataset, tmp_path):
    # config.json files written while ModelConfig had a num_classes field.
    snapshot = _snapshot()
    snapshot["model"]["num_classes"] = 2
    model = _init_model_dir(tmp_path / "model", snapshot)
    out = tmp_path / "m.json"
    assert main(_eval_argv(dataset, model,
                           dataset / "data" / "manifest.jsonl", out)) == 0
    assert out.exists()


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
    # cv maps ValueError to exit 2, so a divergence must not be one.
    def diverge(*args, **kwargs):
        raise DivergenceError("loss inf at epoch 0, step 0")

    monkeypatch.setattr("mixedvit.train.train", diverge)
    monkeypatch.setattr("mixedvit.metrics.train", diverge)
    argv = _train_argv(dataset, dataset / "data" / "manifest.jsonl",
                       dataset / "config.json", tmp_path / "out")
    if command == "cv":
        argv = ["cv"] + argv[1:] + ["--folds", "3", "--no-holdout-test"]
    assert main(argv) == 1
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


def test_tune_toy_deterministic(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "initial_lr": {"type": "log_uniform", "lo": 1e-5, "hi": 1e-3},
        "dropout": {"type": "choice", "values": [0.1, 0.2, 0.3]},
    }))
    logs = []
    for name in ("t1", "t2"):
        rc = main(["tune", "--space", str(space), "--max-resource", "9",
                   "--eta", "3", "--seed", "8", "--objective", "toy",
                   "--out", str(tmp_path / name)])
        assert rc == 0
        logs.append((tmp_path / name / "trials.csv").read_text())
    assert logs[0] == logs[1]

    from mixedvit.tuning import bracket_schedule
    rows = logs[0].splitlines()[1:]
    planned_rows = sum(n for b in bracket_schedule(9, 3) for n, _ in b.rounds)
    assert len(rows) == planned_rows

    best = json.loads((tmp_path / "t1" / "best_config.json").read_text())
    # analytic argmax of the toy objective over the sampled lrs
    import math
    sampled = []
    for row in rows:
        cfg = json.loads(row.split(",", 5)[5].strip('"').replace('""', '"'))
        sampled.append(cfg["initial_lr"])
    target = min(sampled, key=lambda lr: abs(math.log(lr / 3e-4)))
    assert best["config"]["initial_lr"] == target


def test_tune_malformed_space_exits_2(tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"x": {"type": "mystery"}}))
    rc = main(["tune", "--space", str(space), "--out", str(tmp_path / "t")])
    assert rc == 2


def test_tune_train_objective(dataset, tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "initial_lr": {"type": "log_uniform", "lo": 1e-3, "hi": 1e-2},
    }))
    rc = main(["tune", "--space", str(space), "--max-resource", "2",
               "--eta", "2", "--seed", "1", "--objective", "train",
               "--manifest", str(dataset / "data" / "manifest.jsonl"),
               "--instances", str(dataset / "instances.csv"),
               "--rois", "hippocampus_left",
               "--config", str(dataset / "config.json"),
               "--out", str(tmp_path / "tt")])
    assert rc == 0
    best = json.loads((tmp_path / "tt" / "best_config.json").read_text())
    assert 0.0 <= best["score"] <= 1.0


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


def test_compare_too_few_folds_exits_2(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"folds": [{"fold": 0, "accuracy": 1.0}],
                                "summary": {}}))
    assert main(["compare", "--metrics", str(path), str(path)]) == 2


def test_run_manifest_contents(dataset):
    manifest = json.loads(
        (dataset / "data" / "run_manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert "duration_seconds" in manifest
    assert all(len(h) == 64 for h in manifest["outputs"].values())


def test_console_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "mixedvit", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "synth" in proc.stdout
