"""Command-line entry point: synthesize data, select ROI instances, train,
cross-validate, tune, evaluate, and statistically compare models.

``train``, ``cv`` and ``tune`` fit through ``train.FitPlan`` and
``train.fit``: a split that cannot be trained or scored exits 2 before any
training. A ``tune`` space names ``DEFAULT_CONFIG`` keys other than
``epochs``; a trial merges its values as ``--config`` merges overrides.

Exit codes: 0 success, 1 runtime/I-O failure, 2 usage/config error.
Every run writes a manifest with a config snapshot and output checksums.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import data as D
from . import metrics as ME
from . import model as MO
from . import train as TR
from . import tuning as TU

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad arguments or configuration; exits 2."""


class RuntimeFailure(Exception):
    """I/O or data failure at run time; exits 1."""


# Table 2 hyperparameters plus the architecture knobs they do not pin down.
DEFAULT_CONFIG = {
    "slice_count": 25,
    "image_size": [32, 32],
    "channels": 3,
    "learning_rate_schedule": "exponential_decay",
    "decay_steps": 100000,
    "decay_rate": 0.9,
    "optimizer": "adam",
    "initial_lr": 1e-4,
    "dropout": 0.2,
    "batch_size": 6,
    "epochs": 250,
    "tubelet": [5, 8, 8],
    "embed_dim": 64,
    "depth": 4,
    "heads": 8,
    "mlp_ratio": 2.0,
    "tabular_hidden": [16, 8],
    "adam_beta1": 0.9,
    "adam_beta2": 0.999,
    "adam_eps": 1e-8,
}


def _same_type(value, default) -> bool:
    """Whether a config value has the type of its default: an int passes
    for a float, and a list's elements are checked against the default's."""
    if isinstance(default, list):
        return isinstance(value, list) and all(
            _same_type(v, default[0]) for v in value)
    if isinstance(value, bool):  # JSON true is an int to isinstance
        return isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def merge_config(cfg: dict, overrides: dict) -> dict:
    """``cfg`` with ``overrides`` applied; UsageError for an unknown key, a
    value without its default's type or an unsupported optimizer/schedule."""
    unknown = set(overrides) - set(DEFAULT_CONFIG)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in overrides.items():
        if not _same_type(value, DEFAULT_CONFIG[key]):
            raise UsageError(f"config key {key!r} must have the type of "
                             f"{DEFAULT_CONFIG[key]!r}, got {value!r}")
    cfg = {**cfg, **overrides}
    if cfg["optimizer"] != "adam":
        raise UsageError(f"unsupported optimizer {cfg['optimizer']!r}")
    if cfg["learning_rate_schedule"] != "exponential_decay":
        raise UsageError(
            f"unsupported schedule {cfg['learning_rate_schedule']!r}")
    return cfg


def load_config(path) -> dict:
    if path is None:
        return dict(DEFAULT_CONFIG)
    try:
        with open(path, encoding="utf-8") as fh:
            overrides = json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(overrides, dict):
        raise UsageError(f"config file {path} does not hold a JSON object")
    return merge_config(DEFAULT_CONFIG, overrides)


def model_config_from(cfg: dict, mode: str, num_branches: int) -> MO.ModelConfig:
    H, W = cfg["image_size"]
    try:
        return MO.ModelConfig(
            image_dims=(cfg["slice_count"], H, W, cfg["channels"]),
            tubelet=tuple(cfg["tubelet"]),
            embed_dim=cfg["embed_dim"],
            depth=cfg["depth"],
            heads=cfg["heads"],
            mlp_ratio=cfg["mlp_ratio"],
            dropout_rate=cfg["dropout"],
            tabular_dim=4,
            tabular_hidden=tuple(cfg["tabular_hidden"]),
            num_branches=num_branches,
            mode=mode)
    except MO.ConfigError as exc:
        raise UsageError(str(exc)) from exc


def train_config_from(cfg: dict, seed: int) -> TR.TrainConfig:
    # Each TrainConfig field but the seed is the config key of its name.
    names = [f.name for f in dataclasses.fields(TR.TrainConfig)]
    try:
        return TR.TrainConfig(seed=seed,
                              **{k: cfg[k] for k in names if k != "seed"})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def write_run_manifest(path: Path, command: str, config: dict, seed,
                       inputs, outputs, started: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": [str(p) for p in inputs],
        "outputs": {Path(p).name: hashlib.sha256(Path(p).read_bytes())
                    .hexdigest() for p in outputs},
        "duration_seconds": time.time() - started,
    }
    _write_json(path, manifest)


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _parse_dims(text: str):
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse dims {text!r}") from exc
    if len(dims) != 3:
        raise UsageError(f"dims must be D,H,W, got {text!r}")
    return dims


def _parse_rois(text: str):
    rois = [r.strip() for r in text.split(",") if r.strip()]
    if not rois:
        raise UsageError("empty ROI list")
    return rois


def _load(loader, path, what: str) -> list:
    try:
        return loader(path)
    except FileNotFoundError as exc:
        raise RuntimeFailure(f"{what} not found: {path}") from exc
    except ValueError as exc:
        raise RuntimeFailure(str(exc)) from exc


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    started = time.time()
    dims = _parse_dims(args.dims)
    rois = _parse_rois(args.rois)
    try:
        cfg = D.SynthConfig(subjects=args.subjects, dims=dims,
                            separability=args.separability, rois=tuple(rois),
                            noise_sigma=args.noise)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = D.synth_generate(cfg, args.seed, out)
    outputs = sorted(p for p in out.rglob("*") if p.is_file())
    write_run_manifest(out / "run_manifest.json", "synth",
                       dataclasses.asdict(cfg), args.seed, [], outputs,
                       started)
    n_cn = sum(1 for r in records if D.cdr_to_label(r.cdr) == D.CN)
    print(f"wrote {len(records)} subjects ({n_cn} CN / "
          f"{len(records) - n_cn} AD) to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# select


def cmd_select(args) -> int:
    started = time.time()
    if args.slices < 1:
        raise UsageError(f"--slices must be >= 1, got {args.slices}")
    records = _load(D.load_manifest, args.manifest, "manifest")
    rois = _parse_rois(args.roi)
    instances = []
    for roi in rois:
        for record in records:
            mask_path = record.roi_masks.get(roi)
            if mask_path is None:
                raise RuntimeFailure(
                    f"subject {record.subject_id} has no mask for roi {roi!r}")
            mask = D.load_volume(mask_path)
            if mask.shape[0] < args.slices:
                raise UsageError(
                    f"--slices {args.slices} exceeds volume depth "
                    f"{mask.shape[0]}")
            try:
                instances.append(
                    D.select_instance(record, roi, args.slices, mask))
            except D.EmptyMaskError as exc:
                raise RuntimeFailure(
                    f"subject {record.subject_id}: {exc}") from exc
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    D.save_instances(instances, out)
    write_run_manifest(out.with_suffix(out.suffix + ".manifest.json"),
                       "select", {"roi": rois, "slices": args.slices}, None,
                       [args.manifest], [out], started)
    print(f"wrote {len(instances)} instances to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def _dataset_for(args, rois):
    records = _load(D.load_manifest, args.manifest, "manifest")
    instances = _load(D.load_instances, args.instances, "instance table")
    have = {(i.subject_id, i.roi_name) for i in instances}
    usable = [r for r in records
              if all((r.subject_id, roi) in have for roi in rois)]
    if not usable:
        raise RuntimeFailure(
            f"no subjects in {args.manifest} have instances for all of {rois}")
    return usable, instances


def cmd_train(args) -> int:
    started = time.time()
    rois = _parse_rois(args.rois)
    cfg = load_config(args.config)
    model_cfg = model_config_from(cfg, args.mode, len(rois))
    train_cfg = train_config_from(cfg, args.seed)
    records, instances = _dataset_for(args, rois)

    try:
        tr, va, te = D.split_subjects(records, (0.70, 0.15, 0.15),
                                      np.random.default_rng([args.seed, 11]))
        plan = TR.FitPlan(tr, va, te, "the test split")
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    best, history, preds = TR.fit(model_cfg, train_cfg, plan, instances, rois)
    report = ME.evaluate_fold(preds, 0)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    MO.save_checkpoint(out / "checkpoint.mwt", best)
    TR.save_history(history, out / "history.csv")
    ME.save_metrics([report], out / "metrics.json")
    ME.save_roc_csv(report.roc, out / "roc.csv")
    snapshot = {"model": dataclasses.asdict(model_cfg),
                "train": dataclasses.asdict(train_cfg),
                "rois": rois, "mode": args.mode,
                "fit": dataclasses.asdict(plan.stats)}
    _write_json(out / "config.json", snapshot)
    outputs = [out / n for n in ("checkpoint.mwt", "history.csv",
                                 "metrics.json", "roc.csv", "config.json")]
    write_run_manifest(out / "run_manifest.json", "train", snapshot,
                       args.seed, [args.manifest, args.instances], outputs,
                       started)
    print(f"test accuracy {report.accuracy:.4f}, auc {report.auc:.4f}")
    return EXIT_OK


def cmd_cv(args) -> int:
    started = time.time()
    rois = _parse_rois(args.rois)
    cfg = load_config(args.config)
    model_cfg = model_config_from(cfg, args.mode, len(rois))
    train_cfg = train_config_from(cfg, args.seed)
    records, instances = _dataset_for(args, rois)
    try:
        reports, summary = ME.cv_run(records, instances, rois, model_cfg,
                                     train_cfg, k=args.folds, seed=args.seed,
                                     holdout_test=not args.no_holdout_test,
                                     jobs=args.jobs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ME.save_metrics(reports, out / "metrics.json")
    for r in reports:
        ME.save_roc_csv(r.roc, out / f"roc_fold{r.fold_index}.csv")
    snapshot = {"model": dataclasses.asdict(model_cfg),
                "train": dataclasses.asdict(train_cfg),
                "rois": rois, "mode": args.mode, "folds": args.folds,
                "holdout_test": not args.no_holdout_test}
    outputs = [out / "metrics.json"] + \
        [out / f"roc_fold{r.fold_index}.csv" for r in reports]
    write_run_manifest(out / "run_manifest.json", "cv", snapshot, args.seed,
                       [args.manifest, args.instances], outputs, started)
    print(ME.summary_line(summary))
    return EXIT_OK


# ---------------------------------------------------------------------------
# tune


def _check_space(space: dict, cfg: dict, mode: str, num_branches: int):
    """Reject a dimension that a trial could not apply: one not named after
    a config key other than ``epochs``, a range over a key that is not a
    float, or a value (each choice, both ends of a range) that ``--config``
    or the model and training configs would refuse."""
    for name, dim in space.items():
        ranged = not isinstance(dim, TU.Choice)
        if name == "epochs" or name not in DEFAULT_CONFIG or (
                ranged and not isinstance(DEFAULT_CONFIG[name], float)):
            raise UsageError(f"space dimension {name!r}: tune sets config "
                             f"keys other than epochs, ranges only float ones")
        for value in (dim.lo, dim.hi) if ranged else dim.values:
            merged = merge_config(cfg, {name: value})
            model_config_from(merged, mode, num_branches)
            train_config_from(merged, 0)


def cmd_tune(args) -> int:
    started = time.time()
    try:
        with open(args.space, encoding="utf-8") as fh:
            space = TU.parse_space(json.load(fh))
        TU.bracket_schedule(args.max_resource, args.eta)
    except FileNotFoundError as exc:
        raise UsageError(f"space file not found: {args.space}") from exc
    except ValueError as exc:  # bad JSON, SpaceError or the Hyperband budget
        raise UsageError(f"malformed search space, --max-resource or "
                         f"--eta: {exc}") from exc
    rois = _parse_rois(args.rois)
    cfg = load_config(args.config)
    _check_space(space, cfg, args.mode, len(rois))
    records, instances = _dataset_for(args, rois)
    try:
        tr, va, _ = D.split_subjects(records, (0.85, 0.15, 0.0),
                                     np.random.default_rng([args.seed, 17]))
        plan = TR.FitPlan(tr, va)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    def objective(sampled: dict, epochs: int) -> float:
        merged = merge_config(cfg, {**sampled, "epochs": epochs})
        _best, history, _ = TR.fit(
            model_config_from(merged, args.mode, len(rois)),
            train_config_from(merged, args.seed), plan, instances, rois)
        # The best-validation checkpoint's accuracy on the validation set.
        return max(h.val_accuracy for h in history)

    best, log = TU.hyperband_run(space, objective, args.max_resource,
                                 args.eta, args.seed)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    TU.save_trial_log(log, out / "trials.csv")
    _write_json(out / "best_config.json",
                {"config": best.config, "score": best.score,
                 "trial_id": best.trial_id, "resource": best.resource})
    write_run_manifest(out / "run_manifest.json", "tune",
                       {"base_config": cfg, "rois": rois, "mode": args.mode,
                        "space": str(args.space),
                        "max_resource": args.max_resource, "eta": args.eta},
                       args.seed, [args.space, args.manifest, args.instances],
                       [out / "trials.csv", out / "best_config.json"], started)
    print(f"best trial {best.trial_id}: score {best.score:.4f}, "
          f"config {json.dumps(best.config, sort_keys=True)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _roc_svg(points, auc_value: float) -> str:
    size, margin = 320, 40
    span = size - 2 * margin

    def sx(fpr):
        return margin + fpr * span

    def sy(tpr):
        return size - margin - tpr * span

    coords = " ".join(f"{sx(p.fpr):.2f},{sy(p.tpr):.2f}" for p in points)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}">'
        f"<title>ROC curve, AUC={auc_value:.4f}</title>"
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        f'fill="none" stroke="#999"/>'
        f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" '
        f'y2="{margin}" stroke="#ccc" stroke-dasharray="4"/>'
        f'<polyline points="{coords}" fill="none" stroke="#0066cc" '
        f'stroke-width="2"/>'
        f"</svg>\n")


def _load_snapshot(path: Path) -> tuple:
    """(model config, ROIs, fit ranges, batch size) from the config.json a
    ``train`` run wrote; a malformed file is a RuntimeFailure naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            snapshot = json.load(fh)
        m = snapshot["model"]
        fields = {f.name: m[f.name] for f in dataclasses.fields(MO.ModelConfig)}
        model_cfg = MO.ModelConfig(**{k: tuple(v) if isinstance(v, list) else v
                                      for k, v in fields.items()})
        rois = snapshot["rois"]
        if len(rois) != model_cfg.num_branches:
            raise ValueError(f"{len(rois)} rois for "
                             f"{model_cfg.num_branches} image branches")
        fit = D.FitStats(**snapshot["fit"])
        # TrainConfig checks the batch size as it does for a train run.
        batch_size = TR.TrainConfig(
            batch_size=snapshot["train"]["batch_size"]).batch_size
    except (ValueError, KeyError, TypeError) as exc:
        raise RuntimeFailure(
            f"{path} is not a usable model config: {exc!r}") from exc
    return model_cfg, rois, fit, batch_size


def cmd_eval(args) -> int:
    started = time.time()
    model_dir = Path(args.model)
    try:
        params = MO.load_checkpoint(model_dir / "checkpoint.mwt")
        model_cfg, rois, fit, batch_size = _load_snapshot(
            model_dir / "config.json")
    except FileNotFoundError as exc:
        raise RuntimeFailure(f"model directory incomplete: {exc}") from exc
    except MO.CheckpointError as exc:
        raise RuntimeFailure(str(exc)) from exc
    expected = {name: shape for name, shape in MO.param_shapes(model_cfg).items()}
    got = {name: p.shape for name, p in params.items()}
    if expected != got:
        raise RuntimeFailure("checkpoint does not match its model config")
    records, instances = _dataset_for(args, rois)
    TR.require_both_classes(records, "the evaluation set", RuntimeFailure)
    samples = D.build_samples(records, instances, rois, fit, *model_cfg.crop)
    preds = TR.predict(model_cfg, params, samples, batch_size)
    report = ME.evaluate_fold(preds, 0)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    ME.save_metrics([report], out)
    roc_path = out.with_name(out.stem + "_roc.csv")
    ME.save_roc_csv(report.roc, roc_path)
    outputs = [out, roc_path]
    if args.roc_svg:
        Path(args.roc_svg).write_text(_roc_svg(report.roc, report.auc),
                                      encoding="utf-8")
        outputs.append(Path(args.roc_svg))
    write_run_manifest(out.with_suffix(out.suffix + ".manifest.json"),
                       "eval", {"model": str(model_dir)}, None,
                       [args.manifest, args.instances], outputs, started)
    print(f"accuracy {report.accuracy:.4f}, auc {report.auc:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare


def _fold_accuracies(path) -> list:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        accs = [f["accuracy"] for f in payload["folds"]]
    except FileNotFoundError as exc:
        raise RuntimeFailure(f"metrics file not found: {path}") from exc
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise UsageError(f"{path} is not a metrics JSON: {exc}") from exc
    if len(accs) < 2:
        raise UsageError(f"{path} has {len(accs)} folds; need at least 2")
    return accs


def cmd_compare(args) -> int:
    groups = [_fold_accuracies(p) for p in args.metrics]
    if args.test == "ttest" and len(groups) != 2:
        raise UsageError("--test ttest needs exactly 2 metrics files")
    try:
        if args.test == "ttest":
            t, df, p = ME.t_test(groups[0], groups[1])
            print(f"t={t:.6f} df={df} p={p:.6f}")
        else:
            f, dfb, dfw, p = ME.one_way_anova(groups)
            print(f"F={f:.6f} df=({dfb},{dfw}) p={p:.6f}")
    except ME.DegenerateVarianceError as exc:
        raise RuntimeFailure(str(exc)) from exc
    verdict = "reject H0 at 0.05" if p < 0.05 else "fail to reject H0 at 0.05"
    print(verdict)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedvit",
        description="Mixed tabular + 3D-image transformer pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--subjects", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", default="48,64,64")
    p.add_argument("--separability", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--rois", default="hippocampus_left")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("select", help="select ROI instances")
    p.add_argument("--manifest", required=True)
    p.add_argument("--roi", required=True,
                   help="ROI name (comma-separated for several)")
    p.add_argument("--slices", type=int, default=25)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select)

    for name, fn, text in (("train", cmd_train, "train a model"),
                           ("cv", cmd_cv, "cross-validate a model"),
                           ("tune", cmd_tune, "Hyperband search")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--instances", required=True)
        p.add_argument("--manifest", required=True)
        p.add_argument("--config", default=None)
        p.add_argument("--mode", choices=["mixed", "image-only"],
                       default="mixed")
        p.add_argument("--rois", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)
        if name == "cv":
            p.add_argument("--folds", type=int, default=7)
            p.add_argument("--jobs", type=int, default=1)
            p.add_argument("--no-holdout-test", action="store_true",
                           help="cross-validate over all subjects instead of "
                                "holding out the 15%% test split")
        if name == "tune":
            p.add_argument("--space", required=True,
                           help="JSON object of dimensions named after "
                                "config keys other than epochs: a choice of "
                                "values of the key's type, or a uniform or "
                                "log_uniform float range")
            p.add_argument("--max-resource", type=float, default=27,
                           help="most epochs of one trial (>= 1)")
            p.add_argument("--eta", type=float, default=3,
                           help="culling factor (>= 2)")
        p.set_defaults(func=fn)

    p = sub.add_parser("eval", help="evaluate a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--roc-svg", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="hypothesis test over fold accuracies")
    p.add_argument("--metrics", nargs="+", required=True)
    p.add_argument("--test", choices=["ttest", "anova"], default="ttest")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (OSError, D.FormatError, D.TruncatedPayloadError,
            D.DimOverflowError, MO.CheckpointError, TR.DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
