"""Command-line entry point: synthesize data, select ROI instances, train,
cross-validate, tune, evaluate, and statistically compare models.

``build_configs`` is the one way to a ``ModelConfig`` and a ``TrainConfig``:
``--config`` files, ``tune`` spaces and trials, and the ``config.json`` that
``eval`` reads all go through it. Its keys are the dataclass fields but
``num_branches``, ``mode`` and ``seed`` (set by ``--rois``, ``--mode`` and
``--seed``). A value must have its default's type (a JSON list for a
tuple); an absent key keeps its dataclass default, and an unknown key is a
usage error.

``train`` writes ``config.json`` as ``{"config": {...}, "rois": [...],
"mode": ..., "fit": {...}}``. ``config`` holds every key, so a later change
of a default cannot change what a saved model means, and ``fit`` holds the
``FitStats`` ranges; ``eval`` refuses any other layout, and so any older
``config.json`` that holds a key which is now a constant (the decay and
Adam settings, ``mlp_ratio``).

``train`` writes the weights to ``checkpoint.npz``, an ``.npz`` of float64
arrays keyed by parameter name, which is the only file ``eval`` reads them
from.

``train``, ``cv`` and ``tune`` share one held-out split at ``--seed``,
``data.holdout_split``: ``train`` scores its test subjects, and ``cv``
(without ``--no-holdout-test``) and ``tune`` leave them out. All three fit
through ``train.FitPlan`` and ``train.fit``: a split that cannot be trained
or scored (``PlanError``) exits 2 before any training. ``train``, ``cv``,
``tune`` and ``eval`` each build every crop they need once, before any
training (``train.model_crops``; ``tune`` one set for each image_dims value
its space can take), and that build is the check that the crops fit: they
exit 2 before any volume is read when an instance-table row of a ROI they
use selects a slice count other than image_dims' T, and before any training
when the image_dims plane is larger than a volume's, and a volume that
cannot be cropped exits 1 before any training. Only then do ``train``,
``cv`` and ``tune`` create ``--out``. A model config over the parameter or
attention budget, in any trial ``tune`` plans, and a ``tune`` budget
planning more than ``tuning.MAX_EVALUATIONS`` evaluations, exit 2 before
any data is read. A corrupt volume or checkpoint, NaN or inf in a
checkpoint array among it, makes every command that reads it exit 1, as
does a manifest line whose age, MMSE or CDR is not a ``data.is_number``
(``"70"`` or ``true`` is not coerced) or whose MMSE is not an int, whose
CDR is neither 0 (CN) nor >= 1 (AD), or that repeats a subject, and an
instance-table row with an integer field that ``select`` would not write
so (``+10``, ``010``), that repeats a subject and ROI, whose class is not
that of its subject's CDR, or whose slice window runs past its volume's
depth or whose centre lies outside its plane. An age or MMSE constant over
the training subjects is accepted: it scales to 0, as a constant volume
does, so an image-only run, which never reads it, is not refused for it; a
``fit`` range end that is not finite makes ``eval`` exit 1. ``compare``
reads each metrics file through ``metrics.load_fold_accuracies``: one with
fewer than 2 folds, or a fold accuracy that is not a ``data.is_number`` in
[0, 1], exits 2. ``--test ttest`` is ``--test anova`` of two files, with
t = sign(mean difference) * sqrt(F).

Every text file a command reads is read as bytes, its JSON through
``data.parse_json`` and the lines of the manifest and instance table
through ``data``'s one line loop, which names file and line. A file that is
not UTF-8, a JSON object that repeats a key, a JSON string holding a lone
surrogate, or an instance-table header not exactly as ``select`` writes
it, is malformed. A missing, unreadable (a directory) or malformed
``--config`` or ``--space`` file exits 2; a missing or malformed manifest,
instance table or ``eval``'s ``config.json`` exits 1; a missing metrics file
exits 1, and a malformed one 2.

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


# The config keys and their defaults: every field of the two configs but
# those that --rois, --mode and --seed set.
CONFIG_KEYS = {f.name: f.default
               for cls in (MO.ModelConfig, TR.TrainConfig)
               for f in dataclasses.fields(cls)
               if f.name not in ("num_branches", "mode", "seed")}


def _same_type(value, default) -> bool:
    """Whether a config value has the type of its default: a float key takes
    any ``data.is_number``, a tuple default a list of its elements' type."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(
            _same_type(v, default[0]) for v in value)
    if isinstance(default, float):
        return D.is_number(value)
    return type(value) is type(default)


def build_configs(config, mode: str, num_branches: int, seed: int) -> tuple:
    """(ModelConfig, TrainConfig) from a flat dict of config keys; a key it
    leaves out keeps its dataclass default. UsageError for an unknown key,
    a value without its default's type or a value either config refuses."""
    unknown = set(config) - set(CONFIG_KEYS)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in config.items():
        if not _same_type(value, CONFIG_KEYS[key]):
            raise UsageError(f"config key {key!r} must have the type of "
                             f"{CONFIG_KEYS[key]!r}, got {value!r}")
    values = {k: tuple(v) if isinstance(v, list) else v
              for k, v in config.items()}
    model_keys = {f.name for f in dataclasses.fields(MO.ModelConfig)}
    try:
        return (MO.ModelConfig(num_branches=num_branches, mode=mode,
                               **{k: v for k, v in values.items()
                                  if k in model_keys}),
                TR.TrainConfig(seed=seed, **{k: v for k, v in values.items()
                                             if k not in model_keys}))
    except ValueError as exc:  # ConfigError or a TrainConfig range
        raise UsageError(str(exc)) from exc


def _config_of(model_cfg: MO.ModelConfig, train_cfg: TR.TrainConfig) -> dict:
    """Every config key with its value in the two configs: what
    ``build_configs`` takes to rebuild them."""
    return {k: v for cfg in (model_cfg, train_cfg)
            for k, v in dataclasses.asdict(cfg).items() if k in CONFIG_KEYS}


def _usage_bytes(path, what: str) -> bytes:
    """The bytes of a ``--config`` or ``--space`` file; a ``UsageError``
    when there is none to read: a missing path, a directory, or a file the
    process may not read."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise UsageError(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise UsageError(f"{what} {path} cannot be read: {exc.strerror}") \
            from exc


def load_config(path) -> dict:
    """The config keys in the ``--config`` file (none without one)."""
    if path is None:
        return {}
    try:
        config = D.parse_json(_usage_bytes(path, "config file"))
    except ValueError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"config file {path} does not hold a JSON object")
    return config


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
    if len(set(rois)) != len(rois):
        raise UsageError(f"repeated ROI name in {text!r}")
    return rois


def _load(loader, path, what: str, malformed=RuntimeFailure) -> list:
    """A missing file raises RuntimeFailure, a malformed one ``malformed``."""
    try:
        return loader(path)
    except FileNotFoundError as exc:
        raise RuntimeFailure(f"{what} not found: {path}") from exc
    except ValueError as exc:
        raise malformed(str(exc)) from exc


# ---------------------------------------------------------------------------
# synth


def synth_config(args) -> D.SynthConfig:
    """The ``SynthConfig`` that synth's flags give; a flag left out keeps
    its dataclass default."""
    given = {"subjects": args.subjects, "separability": args.separability,
             "dims": None if args.dims is None else _parse_dims(args.dims),
             "rois": None if args.rois is None
             else tuple(_parse_rois(args.rois))}
    try:
        return D.SynthConfig(**{k: v for k, v in given.items()
                                if v is not None})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_synth(args) -> int:
    started = time.time()
    cfg = synth_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = D.synth_generate(cfg, args.seed, out)
    outputs = [out / "manifest.jsonl"] + [
        p for r in records for p in (r.volume_path, *r.roi_masks.values())]
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
    rois = _parse_rois(args.roi)
    records = _load(D.load_manifest, args.manifest, "manifest")
    try:
        instances = [inst for roi in rois
                     for inst in D.select_instances(records, roi, args.slices)]
    except D.SliceWindowError as exc:  # main's handler reads --instances
        raise UsageError(f"--slices {args.slices} exceeds a volume's depth "
                         f"({exc})") from exc
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
    """The manifest's subjects that have an instance of every ROI, and the
    instance table. ``RuntimeFailure`` for a row whose class is not that of
    its subject's CDR in the manifest, or when no subject is left."""
    records = _load(D.load_manifest, args.manifest, "manifest")
    instances = _load(D.load_instances, args.instances, "instance table")
    labels = {r.subject_id: D.cdr_to_label(r.cdr) for r in records}
    for inst in instances:
        label = labels.get(inst.subject_id, inst.class_label)
        if label != inst.class_label:
            raise RuntimeFailure(
                f"{args.instances}: subject {inst.subject_id}, roi "
                f"{inst.roi_name!r} has class "
                f"{D.LABEL_NAMES[inst.class_label]}, but its CDR in "
                f"{args.manifest} makes it {D.LABEL_NAMES[label]}")
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
    model_cfg, train_cfg = build_configs(load_config(args.config), args.mode,
                                         len(rois), args.seed)
    records, instances = _dataset_for(args, rois)
    plan = TR.FitPlan(*D.holdout_split(records, args.seed), "the test split")
    crops = TR.model_crops(model_cfg.image_dims, records, instances, rois)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    best, history, preds = TR.fit(model_cfg, train_cfg, plan, crops)
    report = ME.evaluate_fold(preds, 0)
    MO.save_checkpoint(out / "checkpoint.npz", best)
    TR.save_rows(history, TR.EpochStats, out / "history.csv")
    _write_json(out / "metrics.json", ME.metrics_payload([report]))
    TR.save_rows(report.roc, ME.RocPoint, out / "roc.csv")
    snapshot = {"config": _config_of(model_cfg, train_cfg), "rois": rois,
                "mode": args.mode, "fit": dataclasses.asdict(plan.stats)}
    _write_json(out / "config.json", snapshot)
    outputs = [out / n for n in ("checkpoint.npz", "history.csv",
                                 "metrics.json", "roc.csv", "config.json")]
    write_run_manifest(out / "run_manifest.json", "train", snapshot,
                       args.seed, [args.manifest, args.instances], outputs,
                       started)
    print(f"test accuracy {report.accuracy:.4f}, auc {report.auc:.4f}")
    return EXIT_OK


def cmd_cv(args) -> int:
    started = time.time()
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    rois = _parse_rois(args.rois)
    model_cfg, train_cfg = build_configs(load_config(args.config), args.mode,
                                         len(rois), args.seed)
    records, instances = _dataset_for(args, rois)
    run_folds = ME.cv_prepare(records, instances, rois, model_cfg, train_cfg,
                              k=args.folds, seed=args.seed,
                              holdout_test=not args.no_holdout_test,
                              jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    reports, summary = run_folds()
    _write_json(out / "metrics.json", ME.metrics_payload(reports))
    for r in reports:
        TR.save_rows(r.roc, ME.RocPoint, out / f"roc_fold{r.fold_index}.csv")
    snapshot = {"config": _config_of(model_cfg, train_cfg), "rois": rois,
                "mode": args.mode, "folds": args.folds,
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
    float, or a value (each choice, both ends of a range) that
    ``build_configs`` refuses on top of ``cfg``."""
    for name, dim in space.items():
        ranged = not isinstance(dim, TU.Choice)
        if name == "epochs" or name not in CONFIG_KEYS or (
                ranged and not isinstance(CONFIG_KEYS[name], float)):
            raise UsageError(f"space dimension {name!r}: tune sets config "
                             f"keys other than epochs, ranges only float ones")
        for value in (dim.lo, dim.hi) if ranged else dim.values:
            build_configs({**cfg, name: value}, mode, num_branches, 0)


def cmd_tune(args) -> int:
    started = time.time()
    rois = _parse_rois(args.rois)
    try:
        space = TU.parse_space(D.parse_json(_usage_bytes(args.space,
                                                         "space file")))
        TU.bracket_schedule(args.max_resource, args.eta)
    except ValueError as exc:  # bad JSON, SpaceError or the Hyperband budget
        raise UsageError(f"malformed search space {args.space}, "
                         f"--max-resource or --eta: {exc}") from exc
    cfg = load_config(args.config)
    base = _config_of(*build_configs(cfg, args.mode, len(rois), args.seed))
    _check_space(space, cfg, args.mode, len(rois))
    # Values that pass alone can fail together (embed_dim and heads).
    trials = TU.hyperband_plan(space, args.max_resource, args.eta, args.seed)
    for sampled in [c for _bracket, configs in trials for c in configs]:
        build_configs({**cfg, **sampled}, args.mode, len(rois), args.seed)
    records, instances = _dataset_for(args, rois)
    dims = space.get("image_dims", TU.Choice((base["image_dims"],)))
    dims = dict.fromkeys(map(tuple, dims.values))  # each value once
    for value in dims:
        TR.check_slice_counts(value, instances, rois)
    tr, va, _test = D.holdout_split(records, args.seed)
    plan = TR.FitPlan(tr, va)
    crops = {value: TR.model_crops(value, [*tr, *va], instances, rois)
             for value in dims}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def objective(sampled: dict, epochs: int) -> float:
        model_cfg, train_cfg = build_configs(
            {**cfg, **sampled, "epochs": epochs}, args.mode, len(rois),
            args.seed)
        _best, history, _ = TR.fit(model_cfg, train_cfg, plan,
                                   crops[model_cfg.image_dims])
        # The best-validation checkpoint's accuracy on the validation set.
        return max(h.val_accuracy for h in history)

    best, log = TU.hyperband_run(trials, objective)
    TU.save_trial_log(log, out / "trials.csv")
    _write_json(out / "best_config.json",
                {"config": best.config, "score": best.score,
                 "trial_id": best.trial_id, "resource": best.resource})
    write_run_manifest(out / "run_manifest.json", "tune",
                       {"base_config": base, "rois": rois, "mode": args.mode,
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
    coords = " ".join(f"{margin + p.fpr * span:.2f},"
                      f"{size - margin - p.tpr * span:.2f}" for p in points)
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


def cmd_eval(args) -> int:
    started = time.time()
    model_dir = Path(args.model)
    path = model_dir / "config.json"
    try:  # main maps a CheckpointError to exit 1
        params = MO.load_checkpoint(model_dir / "checkpoint.npz")
        text = path.read_bytes()
    except FileNotFoundError as exc:
        raise RuntimeFailure(f"model directory incomplete: {exc}") from exc
    try:
        snapshot = D.parse_json(text)
        rois, config = snapshot["rois"], snapshot["config"]
        if _parse_rois(",".join(rois)) != rois:  # the rule of --rois
            raise ValueError(f"rois {rois!r} is not a list of ROI names")
        missing = set(CONFIG_KEYS) - set(config)
        if missing:  # a default must not fill in what a saved model means
            raise ValueError(f"config lacks keys {sorted(missing)}")
        model_cfg, train_cfg = build_configs(config, snapshot["mode"],
                                             len(rois), 0)
        fit = D.FitStats(**snapshot["fit"])
    except (UsageError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise RuntimeFailure(
            f"{path} is not a usable model config: {exc!r}") from exc
    if MO.param_shapes(model_cfg) != {n: p.shape for n, p in params.items()}:
        raise RuntimeFailure("checkpoint does not match its model config")
    records, instances = _dataset_for(args, rois)
    TR.require_both_classes(records, "the evaluation set", RuntimeFailure)
    crops = TR.model_crops(model_cfg.image_dims, records, instances, rois)
    samples = [D.mixed_sample(r, crops[r.subject_id], fit) for r in records]
    preds = TR.predict(model_cfg, params, samples, train_cfg.batch_size)
    report = ME.evaluate_fold(preds, 0)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out, ME.metrics_payload([report]))
    roc_path = out.with_name(out.stem + "_roc.csv")
    TR.save_rows(report.roc, ME.RocPoint, roc_path)
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


def cmd_compare(args) -> int:
    n = len(args.metrics)
    if n < 2 or (args.test == "ttest" and n > 2):
        need = "exactly" if args.test == "ttest" else "at least"
        raise UsageError(
            f"--test {args.test} needs {need} 2 metrics files, got {n}")
    groups = [_load(ME.load_fold_accuracies, p, "metrics file", UsageError)
              for p in args.metrics]
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


def _seed(text: str) -> int:
    seed = int(text)  # argparse reports a ValueError as an invalid value
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedvit",
        description="Mixed tabular + 3D-image transformer pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed, default=0,
                        help="seed of every random draw (>= 0)")
    keys = ", ".join(f"{k} {json.dumps(v)}" for k, v in CONFIG_KEYS.items())

    p = sub.add_parser("synth", parents=[seeded],
                       help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--subjects", type=int)
    p.add_argument("--dims", help="D,H,W")
    p.add_argument("--separability", type=float)
    p.add_argument("--rois", help="comma-separated ROI names")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("select", help="select ROI instances")
    p.add_argument("--manifest", required=True)
    p.add_argument("--roi", required=True,
                   help="ROI name (comma-separated for several)")
    p.add_argument("--slices", type=int,
                   default=MO.ModelConfig.image_dims[0],
                   help="slices per instance; by default the T of the "
                        "model's image_dims")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select)

    for name, fn, text in (("train", cmd_train, "train a model"),
                           ("cv", cmd_cv, "cross-validate a model"),
                           ("tune", cmd_tune, "Hyperband search")):
        p = sub.add_parser(name, parents=[seeded], help=text)
        p.add_argument("--instances", required=True)
        p.add_argument("--manifest", required=True)
        p.add_argument("--config", default=None,
                       help=f"JSON object setting any of these keys, shown "
                            f"with their defaults: {keys}")
        p.add_argument("--mode", choices=["mixed", "image-only"],
                       default="mixed")
        p.add_argument("--rois", required=True)
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
            p.add_argument("--max-resource", type=float, default=27.0,
                           help="most epochs of one trial (>= 1); a "
                                "budget that plans more than "
                                f"{TU.MAX_EVALUATIONS:,} evaluations is "
                                "refused")
            p.add_argument("--eta", type=float, default=3.0,
                           help="culling factor (>= 2); a bracket stops once "
                                "one config is left, so with a fractional "
                                "eta it can end below --max-resource epochs")
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
    except (UsageError, MO.ConfigError, D.PlanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except D.SliceWindowError as exc:  # found only once the volume is read
        print(f"error: malformed instance table {args.instances}: {exc}",
              file=sys.stderr)
        return EXIT_RUNTIME
    except (RuntimeFailure, OSError, D.FormatError, D.TruncatedPayloadError,
            D.DimOverflowError, D.EmptyMaskError, MO.CheckpointError,
            TR.DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
