"""The benchmark's workloads: set-up, one timed cycle, and correctness checks.

Each workload drives ``mixedvit``'s public API through module attributes
(``data.build_samples``, ``train.train``, ...), so the tracer's wrappers see
every call. A cycle is the unit the timed loop repeats; it reports its wall
time and how many operations (train steps, predict batches, CV folds or
subjects prepared) it attempted and how many failed a check.

Golden values are computed on fixed inputs (seed 0), independent of the
workload seed, and compared with ``golden.json``; ``record_golden.py``
rewrites that file when the numbers are meant to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mixedvit import cli, data, metrics, model, tensor, train

GOLDEN_PATH = Path(__file__).with_name("golden.json")
ROIS = ("hippocampus_left", "hippocampus_right")
SLICES = 25
GOLDEN_SEED = 0

# Probabilities may move by this much (absolute), gradients and the Adam
# step by this share of their norm, and the training-mode loss by this
# share of itself before a golden check fails. Exact rewrites of an op (a
# different BLAS call order, a fused kernel) stay far below all three; a
# changed formula does not. A rewrite that draws dropout masks from the rng
# in another order changes the training-mode values and needs new golden
# values.
PROB_ATOL = 1e-10
GRAD_RTOL = 1e-8
LOSS_RTOL = 1e-10

# Workload sizes: "full" is what the benchmark measures, "tiny" is for the
# smoke test. ``model`` holds ModelConfig overrides.
SIZES = {
    "train_paper": {
        "full": {"subjects": 30, "val": 6, "epochs": 2, "batch": 6,
                 "dims": (48, 64, 64), "model": {}},
        "tiny": {"subjects": 6, "val": 2, "epochs": 1, "batch": 2,
                 "dims": (33, 40, 40),
                 "model": {"embed_dim": 16, "depth": 1, "heads": 2}},
    },
    "infer_paper": {
        "full": {"subjects": 30, "batch": 6, "dims": (48, 64, 64),
                 "model": {}},
        "tiny": {"subjects": 4, "batch": 2, "dims": (33, 40, 40),
                 "model": {"embed_dim": 16, "depth": 1, "heads": 2}},
    },
    "cv_coarse": {
        "full": {"subjects": 24, "folds": 3, "epochs": 3, "batch": 8,
                 "dims": (48, 64, 64), "model": {}},
        "tiny": {"subjects": 12, "folds": 3, "epochs": 1, "batch": 4,
                 "dims": (33, 40, 40),
                 "model": {"embed_dim": 16, "depth": 1, "heads": 2}},
    },
    "prep_synth": {
        "full": {"subjects": 16, "dims": (48, 64, 64)},
        "tiny": {"subjects": 4, "dims": (33, 40, 40)},
    },
}


@dataclass
class Cycle:
    seconds: float
    attempted: int
    failed: int
    figures: dict = field(default_factory=dict)  # e.g. {"train_s": 1.9}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finite_unit(values) -> bool:
    arr = np.asarray(values, dtype=np.float64)
    return bool(np.isfinite(arr).all() and (arr >= 0.0).all()
                and (arr <= 1.0).all())


class Workload:
    """Base: subclasses set ``name`` and implement set-up, cycle and checks."""

    name = ""

    def __init__(self, size: str, seed: int, work: Path):
        self.spec = SIZES[self.name][size]
        self.seed = seed
        self.work = work
        self.golden_key = f"{self.name}/{size}"

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self) -> Cycle:
        raise NotImplementedError

    def figures(self, seconds: float, cycles: list) -> dict:
        """Workload-specific figures as name -> (value, unit), given the
        run's cycle time ``seconds`` and its timed cycles."""
        raise NotImplementedError

    def check(self) -> list:
        """Run the end-of-run checks; returns one message per failed check."""
        raise NotImplementedError

    def golden(self) -> dict:
        raise NotImplementedError

    def check_golden(self, actual: dict) -> list:
        """Compare golden values computed now with those in golden.json."""
        if "error" in actual:
            return [actual["error"]]
        expected = json.loads(GOLDEN_PATH.read_text())[self.golden_key]
        return _compare_golden(actual, expected)


def _row_failures(probs: np.ndarray) -> list:
    """Every probability row lies in [0, 1] and sums to 1."""
    failures = []
    if not _finite_unit(probs):
        failures.append("probability outside [0, 1]")
    if np.abs(probs.sum(axis=1) - 1.0).max() > 1e-12:
        failures.append("probability row does not sum to 1")
    return failures


def _digest(arrays: dict) -> dict:
    """name -> [norm, probe, size]; the probe is a fixed +-1 vector per name."""
    out = {}
    for name, a in arrays.items():
        probe = np.random.default_rng(zlib.crc32(name.encode())).choice(
            [-1.0, 1.0], size=a.shape)
        out[name] = [float(np.linalg.norm(a)), float((a * probe).sum()),
                     int(a.size)]
    return out


def _compare_golden(actual: dict, expected: dict) -> list:
    failures = []
    for key, want in expected.items():
        got = actual[key]
        if key in ("probs", "train_probs"):
            diff = float(np.abs(np.asarray(got) - np.asarray(want)).max())
            if diff > PROB_ATOL:
                failures.append(f"{key} differ by {diff:.3g}")
        elif key in ("grads", "train_grads", "adam_step"):
            for name, (norm, probe, size) in want.items():
                g_norm, g_probe, _ = got[name]
                # |probe| <= norm * sqrt(size): the probe is a +-1 vector.
                if (abs(g_norm - norm) > GRAD_RTOL * norm
                        or abs(g_probe - probe)
                        > GRAD_RTOL * norm * math.sqrt(size)):
                    failures.append(f"{key} of {name} differs from golden")
        elif key == "train_loss":
            if abs(got - want) > LOSS_RTOL * abs(want):
                failures.append(f"train_loss {got!r} != golden {want!r}")
        elif got != want:
            failures.append(f"{key} {got} != golden {want}")
    return failures


class _ModelWorkload(Workload):
    """Shared golden check for the workloads that run the model."""

    def model_config(self):
        raise NotImplementedError

    def golden(self) -> dict:
        """Eval-mode probabilities and gradients at init on fixed inputs,
        then a training-mode step: dropout from a fixed rng, its loss and
        gradients, and the parameter change made by one Adam update."""
        cfg = self.model_config()
        batch = self.spec["batch"]
        rng = np.random.default_rng(GOLDEN_SEED)
        tabular = rng.random((batch, cfg.tabular_dim))
        if cfg.mode != model.MODE_MIXED:
            tabular = None
        volumes = [rng.random((batch, *cfg.image_dims))
                   for _ in range(cfg.num_branches)]
        labels = np.arange(batch) % 2
        values = {}
        for training in (False, True):
            params = model.init_params(cfg, GOLDEN_SEED)
            drop_rng = np.random.default_rng([GOLDEN_SEED, 202])
            with tensor.Tape():
                probs = model.forward_batch(cfg, params, tabular, volumes,
                                            training=training, rng=drop_rng)
                loss = train.batch_loss(probs, labels)
            tensor.backward(loss)
            grads = {name: np.zeros(p.shape) if p.grad is None else p.grad
                     for name, p in params.items()}
            if not training:
                values.update(probs=probs.data.tolist(), grads=_digest(grads))
                continue
            before = {name: p.data.copy() for name, p in params.items()}
            train_cfg = train.TrainConfig()
            train.adam_update(params, grads,
                              train.OptimizerState.for_params(params),
                              train.lr_at_step(train_cfg, 0), train_cfg)
            values.update(
                train_probs=probs.data.tolist(), train_loss=loss.item(),
                train_grads=_digest(grads),
                adam_step=_digest({name: p.data - before[name]
                                   for name, p in params.items()}))
        return values

    def check(self) -> list:
        actual = self.golden()
        return (_row_failures(np.asarray(actual["probs"]))
                + _row_failures(np.asarray(actual["train_probs"]))
                + self.check_golden(actual))


class _PaperWorkload(_ModelWorkload):
    """Samples at the paper-default config: mixed mode, one ROI."""

    def model_config(self):
        return model.ModelConfig(**self.spec["model"])

    def setup(self) -> None:
        spec = self.spec
        out = self.work / "data"
        shutil.rmtree(out, ignore_errors=True)
        records = data.synth_generate(
            data.SynthConfig(subjects=spec["subjects"], dims=spec["dims"],
                             rois=ROIS[:1]), self.seed, out)
        instances = data.select_instances(records, ROIS[0], SLICES)
        fit = data.FitStats.from_records(records)
        self.samples = data.build_samples(records, instances, ROIS[:1], fit)
        self.cfg = self.model_config()
        self.first = None


class TrainPaper(_PaperWorkload):
    """``train.train`` at the paper config."""

    name = "train_paper"

    def setup(self) -> None:
        super().setup()
        spec = self.spec
        n_train = spec["subjects"] - spec["val"]
        self.train_set = self.samples[:n_train]
        self.val_set = self.samples[n_train:]
        self.train_cfg = train.TrainConfig(batch_size=spec["batch"],
                                           epochs=spec["epochs"],
                                           seed=self.seed)

    def cycle(self) -> Cycle:
        spec = self.spec
        params = model.init_params(self.cfg, self.seed)
        t0 = time.perf_counter()
        best, history = train.train(self.cfg, params, self.train_set,
                                    self.val_set, self.train_cfg)
        seconds = time.perf_counter() - t0
        steps = spec["epochs"] * math.ceil(len(self.train_set) / spec["batch"])
        losses = [(h.train_loss, h.val_loss) for h in history]
        ok = bool(np.isfinite(losses).all())
        if self.first is None:
            self.first = losses
        ok = ok and losses == self.first  # same seed, same numbers
        self.best = best
        return Cycle(seconds=seconds, attempted=steps,
                     failed=0 if ok else steps,
                     figures={"loss": history[-1].train_loss})

    def figures(self, seconds: float, cycles: list) -> dict:
        n_train = self.spec["epochs"] * len(self.train_set)
        return {
            "train_samples_per_s": (n_train / seconds, "samples/s"),
            "train_loss_final": (cycles[0].figures["loss"], "nats"),
        }

    def check(self) -> list:
        """Golden checks, then probability rows of the trained model."""
        failures = super().check()
        for batch in data.build_batches(self.samples, self.spec["batch"]):
            failures += _row_failures(model.forward_batch(
                self.cfg, self.best, batch.tabular, batch.images,
                training=False).data)
        return failures


class InferPaper(_PaperWorkload):
    """``train.predict`` over every sample at the paper config.

    The parameters are ``init_params`` for the seed: eval-mode forward
    passes cost the same whatever the weights, and set-up stays free of
    training, which ``train_paper`` measures.
    """

    name = "infer_paper"

    def setup(self) -> None:
        super().setup()
        self.params = model.init_params(self.cfg, self.seed)

    def cycle(self) -> Cycle:
        batch = self.spec["batch"]
        t0 = time.perf_counter()
        preds = train.predict(self.cfg, self.params, self.samples, batch)
        seconds = time.perf_counter() - t0
        batches = math.ceil(len(self.samples) / batch)
        p_ad = [p.p_ad for p in preds]
        ok = _finite_unit(p_ad) and len(preds) == len(self.samples)
        if self.first is None:
            self.first = p_ad
        ok = ok and p_ad == self.first  # same seed, same numbers
        return Cycle(seconds=seconds, attempted=batches,
                     failed=0 if ok else batches)

    def figures(self, seconds: float, cycles: list) -> dict:
        return {"infer_samples_per_s": (len(self.samples) / seconds,
                                        "samples/s")}


class CvCoarse(_ModelWorkload):
    """``metrics.cv_run`` at tubelet 25x8x8, image-only, two ROI branches."""

    name = "cv_coarse"

    def model_config(self):
        overrides = {"tubelet": (25, 8, 8), "mode": model.MODE_IMAGE_ONLY,
                     "num_branches": len(ROIS), **self.spec["model"]}
        return model.ModelConfig(**overrides)

    def setup(self) -> None:
        spec = self.spec
        out = self.work / "data"
        shutil.rmtree(out, ignore_errors=True)
        self.records = data.synth_generate(
            data.SynthConfig(subjects=spec["subjects"], dims=spec["dims"],
                             rois=ROIS), self.seed, out)
        self.instances = [inst for roi in ROIS
                          for inst in data.select_instances(self.records, roi,
                                                            SLICES)]
        self.cfg = self.model_config()
        self.train_cfg = train.TrainConfig(batch_size=spec["batch"],
                                           epochs=spec["epochs"],
                                           seed=self.seed)
        self.first = None

    def cycle(self) -> Cycle:
        k = self.spec["folds"]
        t0 = time.perf_counter()
        reports, summary = metrics.cv_run(self.records, self.instances,
                                          list(ROIS), self.cfg,
                                          self.train_cfg, k=k, seed=self.seed)
        seconds = time.perf_counter() - t0
        ok = len(reports) == k and all(
            _finite_unit([r.accuracy, r.auc] + [p.p_ad for p in r.predictions])
            for r in reports)
        if self.first is None:
            self.first = summary
        ok = ok and summary == self.first  # same seed, same numbers
        return Cycle(seconds=seconds, attempted=k, failed=0 if ok else k)

    def figures(self, seconds: float, cycles: list) -> dict:
        return {"cv_s": (seconds, "s")}


class PrepSynth(Workload):
    """``cli synth`` and ``cli select`` for two ROIs, then ``build_samples``."""

    name = "prep_synth"

    def _pipeline(self, out: Path, seed: int, subjects: int):
        """Returns (samples, error); error is None when both commands exit 0."""
        shutil.rmtree(out, ignore_errors=True)
        dims = ",".join(str(d) for d in self.spec["dims"])
        rois = ",".join(ROIS)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), \
                contextlib.redirect_stderr(captured):
            rc = cli.main(["synth", "--out", str(out), "--subjects",
                           str(subjects), "--seed", str(seed), "--dims", dims,
                           "--rois", rois])
            if rc == 0:
                rc = cli.main(["select", "--manifest",
                               str(out / "manifest.jsonl"), "--roi", rois,
                               "--slices", str(SLICES),
                               "--out", str(out / "instances.csv")])
        if rc != 0:
            return None, f"cli exit {rc}: {captured.getvalue().strip()}"
        records = data.load_manifest(out / "manifest.jsonl")
        instances = data.load_instances(out / "instances.csv")
        fit = data.FitStats.from_records(records)
        return data.build_samples(records, instances, ROIS, fit), None

    def setup(self) -> None:
        """Run the pipeline once untimed: warms lazy imports and the disk."""
        _samples, error = self._pipeline(self.work / "prep", self.seed,
                                         self.spec["subjects"])
        if error:
            raise RuntimeError(f"prep_synth warm-up failed: {error}")
        self.first = None
        self.error = None

    def cycle(self) -> Cycle:
        subjects = self.spec["subjects"]
        out = self.work / "prep"
        shutil.rmtree(out, ignore_errors=True)  # not timed: leaves no work
        t0 = time.perf_counter()
        samples, error = self._pipeline(out, self.seed, subjects)
        seconds = time.perf_counter() - t0
        ok = error is None and len(samples) == subjects and all(
            img.shape == (SLICES, 32, 32, 3) and _finite_unit(img)
            for s in samples for img in s.images)
        if ok:
            digest = _sha256(out / "instances.csv")
            if self.first is None:
                self.first = digest
            ok = digest == self.first  # same seed, same instance table
        self.error = self.error or error
        return Cycle(seconds=seconds, attempted=subjects,
                     failed=0 if ok else subjects)

    def figures(self, seconds: float, cycles: list) -> dict:
        return {"prep_subjects_per_s": (self.spec["subjects"] / seconds,
                                        "subjects/s")}

    def golden(self) -> dict:
        """Checksums of the instance table, manifest, volumes and masks."""
        out = self.work / "golden"
        _samples, error = self._pipeline(out, GOLDEN_SEED,
                                         self.spec["subjects"])
        if error:
            return {"error": error}
        volumes = hashlib.sha256()
        for path in sorted(out.glob("*/*.vol")) + sorted(out.glob("*/*.mask")):
            volumes.update(f"{path.relative_to(out).as_posix()} "
                           f"{_sha256(path)}\n".encode())
        return {"instances_sha256": _sha256(out / "instances.csv"),
                "manifest_sha256": _sha256(out / "manifest.jsonl"),
                "volumes_sha256": volumes.hexdigest()}

    def check(self) -> list:
        """Golden checksums, then the run manifests' recorded output hashes."""
        failures = [self.error] if self.error else []
        actual = self.golden()
        failures += self.check_golden(actual)
        if "error" in actual:
            return failures
        out = self.work / "golden"
        files = {p.name: p for p in out.rglob("*") if p.is_file()}
        for manifest in (out / "run_manifest.json",
                         out / "instances.csv.manifest.json"):
            recorded = json.loads(manifest.read_text())["outputs"]
            for name, digest in recorded.items():
                if _sha256(files[name]) != digest:
                    failures.append(f"{manifest.name}: sha256 of {name} "
                                    "does not match the file")
        return failures


WORKLOADS = {w.name: w for w in (TrainPaper, InferPaper, CvCoarse,
                                  PrepSynth)}
