"""Command-line front end.

Subcommands cover the whole pipeline: synth, train, localize, order,
evaluate, stats, and run-all. A standalone stage reads what earlier stages
wrote to the --out tree; run-all hands each stage's products to the next in
memory, so its files are outputs only. Every configuration key has a documented
default, may appear in a "key = value" config file (full-line # comments),
and may be overridden by a flag of the same name; flags beat the file, the
file beats defaults. Five keys are run-wide (out, manifest, seed, task_name,
k); every other key is a field of SynthSpec, TrainConfig or PcmConfig
declared with ``core.setting``, which gives its name, default and help, and
its default's type (int or float) gives its parser, so a new field of those
configs is a key with no edit here. Every output is written atomically by
core's one file writer, and a fixed seed makes every command
byte-reproducible. run-all builds every stage's config before it writes a
file, so a bad setting fails first.

Stage seeding: generation uses the seed as given, training uses seed + 1,
and localization (cut clustering and baselines) uses seed + 2, so stages
draw from unrelated streams.

Process policy: ``main`` runs numpy's bundled OpenBLAS on one thread, so
products round the same on any CPU count, and on glibc keeps freed memory on
the heap, so a training step reuses the last step's temporaries instead of
faulting fresh pages in. Library callers keep their own BLAS setting and
allocator.

Exit codes: 0 success; each failure's code, stderr prefix and --help line
come from the one table ``_FAILURES``.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .core import (
    FeatureSequence,
    FileFormatError,
    KeyStepAssignment,
    ManifestEntry,
    TaskAnnotation,
    TaskManifest,
    _read_text,
    _write_file,
    annotation_to_assignment,
    format_manifest,
    load_assignment_file,
    load_manifest,
    save_annotation_file,
    save_assignment_file,
    save_features,
)
from .embed import (
    EmbedderParams,
    TrainConfig,
    embed_sequence,
    format_loss_trace,
    load_params,
    save_params,
    train_embedder,
)
from .metrics import dataset_stats, format_report, format_stats, full_report
from .order import format_order, keystep_order
from .procut import PcmConfig, localize
from .synthbench import SynthSpec, compare_methods, format_benchmark, generate

__all__ = ["main", "run"]


class ConfigError(Exception):
    """Unknown key, bad syntax, or unparseable value in configuration."""


# ---------------------------------------------------------------------------
# Configuration keys
# ---------------------------------------------------------------------------


def _parse_int(text: str) -> int:
    try:
        return int(text.strip(), 10)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_u64(text: str) -> int:
    value = _parse_int(text)
    if not (0 <= value < 2**64):
        raise ConfigError(f"expected an unsigned 64-bit integer, got {value}")
    return value


def _parse_float(text: str) -> float:
    try:
        value = float(text.strip())
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


@dataclass(frozen=True)
class KeySpec:
    name: str
    parse: Callable[[str], object]
    default: object
    help: str


_TYPE_PARSERS: dict[type, Callable[[str], object]] = {int: _parse_int, float: _parse_float}


def _field_keys(cls) -> list[KeySpec]:
    """A stage config's fields declared by ``setting`` as keys, parsed by their
    default's type; a type other than int or float raises TypeError."""
    specs = []
    for field in fields(cls):
        if "help" not in field.metadata:
            continue  # K and seed, which each stage sets itself
        parse = _TYPE_PARSERS.get(type(field.default))
        if parse is None:
            raise TypeError(f"{cls.__name__}.{field.name}: no parser for {field.default!r}")
        specs.append(KeySpec(field.name, parse, field.default, field.metadata["help"]))
    return specs


KEY_SPECS: tuple[KeySpec, ...] = (
    KeySpec("out", str.strip, ".", "output directory"),
    KeySpec("manifest", str.strip, "", "manifest path (default: <out>/manifest.csv)"),
    KeySpec("seed", _parse_u64, SynthSpec.seed, "global seed; stages derive their own streams"),
    KeySpec("task_name", str.strip, "synthetic", "task name for generated data"),
    KeySpec("k", _parse_int, SynthSpec.K,
            "number of key-steps (localize/order default to the manifest's)"),
    *_field_keys(SynthSpec),
    *_field_keys(TrainConfig),
    *_field_keys(PcmConfig),
)

_KEYS = {spec.name: spec for spec in KEY_SPECS}


def parse_config_file(path: Path) -> dict[str, str]:
    """Read ``key = value`` lines; full-line # comments and blanks allowed."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(_read_text(path, ConfigError).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def resolve_config(args: argparse.Namespace) -> tuple[dict[str, object], set[str]]:
    """Merge defaults, config file, and flags; flags win, file beats defaults.

    Returns the typed configuration plus the set of keys given explicitly
    (by file or flag).
    """
    values: dict[str, object] = {spec.name: spec.default for spec in KEY_SPECS}
    explicit: set[str] = set()
    if args.config is not None:
        for key, text in parse_config_file(Path(args.config)).items():
            values[key] = _KEYS[key].parse(text)
            explicit.add(key)
    for spec in KEY_SPECS:
        flag_value = getattr(args, spec.name)
        if flag_value is not None:
            values[spec.name] = spec.parse(flag_value)
            explicit.add(spec.name)
    return values, explicit


# ---------------------------------------------------------------------------
# Stage products
# ---------------------------------------------------------------------------


def _stage_config(cls, cfg: dict[str, object], **given):
    """A stage's config dataclass; each field not ``given`` takes the
    configuration key of the same name."""
    taken = {field.name: cfg[field.name] for field in fields(cls) if field.name not in given}
    return cls(**taken, **given)


class _Run:
    """One invocation's products, handed from stage to stage.

    A stage stores what it makes here. A product that no stage of this
    invocation made is read from the ``--out`` tree on first use, so
    ``run-all`` reads no file.
    """

    def __init__(self, cfg: dict[str, object], explicit: set[str]):
        self.cfg, self.explicit = cfg, explicit
        self.out = Path(str(cfg["out"]))
        self.manifest_path = Path(str(cfg["manifest"]) or self.out / "manifest.csv")

    @cached_property
    def synth_spec(self) -> SynthSpec:
        return _stage_config(SynthSpec, self.cfg, K=self.cfg["k"])

    @cached_property
    def train_config(self) -> TrainConfig:
        return _stage_config(TrainConfig, self.cfg, seed=int(self.cfg["seed"]) + 1)

    def pcm_config(self, K: int) -> PcmConfig:
        return _stage_config(PcmConfig, self.cfg, K=K, seed=int(self.cfg["seed"]) + 2)

    @cached_property
    def manifest(self) -> TaskManifest:
        return load_manifest(self.manifest_path)

    @cached_property
    def sequences(self) -> list[FeatureSequence]:
        return self.manifest.load_feature_sequences()

    @cached_property
    def annotation(self) -> TaskAnnotation:
        return self.manifest.load_annotation()

    @cached_property
    def params(self) -> EmbedderParams:
        return load_params(self.out / "params.cncp")

    @cached_property
    def embeddings(self) -> dict[str, np.ndarray]:
        return {seq.video_id: embed_sequence(self.params, seq) for seq in self.sequences}

    @cached_property
    def labels(self) -> dict[str, np.ndarray]:
        entries = self.manifest.entries
        return {e.video_id: load_assignment_file(self.labels_path(e.video_id)) for e in entries}

    @cached_property
    def gt(self) -> KeyStepAssignment:
        """Ground truth at each video's frame count and rate from its feature header."""
        annotation = self.annotation
        headers = self.manifest.headers
        counts = {video_id: T for video_id, (T, _, _) in headers.items()}
        rates = {video_id: fps for video_id, (_, _, fps) in headers.items()}
        return annotation_to_assignment(annotation, counts, rates)

    def labels_path(self, video_id: str) -> Path:
        return self.out / "assignments" / f"{video_id}.csv"

    def assignment(self, K: int) -> KeyStepAssignment:
        """``labels`` over K key-steps; a label outside 0..K fails naming its file."""
        for video_id, labels in self.labels.items():
            try:
                KeyStepAssignment(per_video={video_id: labels}, K=K)
            except ValueError as exc:
                raise ValueError(f"{self.labels_path(video_id)}: {exc}") from None
        return KeyStepAssignment(per_video=self.labels, K=K)


def _resolved_k(run: _Run) -> int:
    return int(run.cfg["k"]) if "k" in run.explicit else run.manifest.K


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(run: _Run) -> None:
    spec = run.synth_spec
    sequences, annotation = generate(spec, task_name=str(run.cfg["task_name"]))
    entries = [
        ManifestEntry(
            video_id=seq.video_id,
            feature_path=run.out / "features" / f"{seq.video_id}.feat",
            annotation_path=run.out / "annotations" / f"{seq.video_id}.csv",
        )
        for seq in sequences
    ]
    manifest = TaskManifest(task_name=annotation.task_name, K=spec.K, entries=entries)
    text = format_manifest(run.manifest_path, manifest)  # fails before any file is written
    for seq, entry in zip(sequences, entries):
        save_features(entry.feature_path, seq)
        save_annotation_file(entry.annotation_path, annotation.per_video[seq.video_id])
    _write_file(run.manifest_path, text)
    run.manifest, run.sequences, run.annotation = manifest, sequences, annotation
    counts = {seq.video_id: seq.num_frames for seq in sequences}
    run.gt = annotation_to_assignment(annotation, counts, {s.video_id: s.fps for s in sequences})


def cmd_train(run: _Run) -> None:
    result = train_embedder(run.sequences, run.train_config)
    save_params(run.out / "params.cncp", result.params)
    _write_file(run.out / "loss_trace.csv", format_loss_trace(result.loss_trace))
    run.params = result.params


def cmd_localize(run: _Run) -> None:
    assignment = localize(run.embeddings, run.pcm_config(_resolved_k(run)))
    for video_id, labels in assignment.per_video.items():
        save_assignment_file(run.labels_path(video_id), labels)
    run.labels = assignment.per_video


def cmd_order(run: _Run) -> None:
    ordering = keystep_order(run.assignment(_resolved_k(run)))
    _write_file(run.out / "order.csv", format_order(ordering))


def cmd_evaluate(run: _Run) -> None:
    gt = run.gt
    _write_file(run.out / "metrics.csv", format_report(full_report(run.assignment(gt.K), gt)))


def cmd_stats(run: _Run) -> None:
    _write_file(run.out / "stats.csv", format_stats(dataset_stats(run.annotation)))


def cmd_run_all(run: _Run) -> None:
    # Every stage's settings fail here, before a file is written or a step
    # trained; localization clusters into the generated task's K.
    _, _, pcm = run.synth_spec, run.train_config, run.pcm_config(run.synth_spec.K)
    cmd_synth(run)
    cmd_train(run)
    cmd_localize(run)
    cmd_order(run)
    cmd_evaluate(run)
    cmd_stats(run)
    gt = run.gt
    results = compare_methods(run.embeddings, gt, pcm, run.assignment(gt.K))
    _write_file(run.out / "benchmark.csv", format_benchmark(results))


_COMMANDS = {
    "synth": (cmd_synth, "generate a planted synthetic task"),
    "train": (cmd_train, "train the embedder on a manifest"),
    "localize": (cmd_localize, "cut frames into key-steps vs background"),
    "order": (cmd_order, "order discovered key-steps by mean position"),
    "evaluate": (cmd_evaluate, "score assignments against annotations"),
    "stats": (cmd_stats, "dataset statistics from annotations"),
    "run-all": (cmd_run_all, "full pipeline plus benchmark table"),
}

# (exception types, exit code, stderr prefix, --help text); main takes the
# first row that matches, so a subclass comes before its base.
_FAILURES: tuple[tuple[tuple[type[Exception], ...], int, str, str], ...] = (
    ((ConfigError,), 2, "config error",
     "usage or configuration error (unknown key, bad value syntax)"),
    ((FileNotFoundError,), 3, "missing file", "missing input file"),
    ((FileFormatError,), 4, "bad file format", "malformed input file"),
    ((FloatingPointError,), 6, "numeric failure", "numeric failure"),
    ((ValueError, KeyError), 5, "invalid input", "invalid value or domain error"),
    ((Exception,), 1, "unexpected error", "unexpected error"),
)

_EPILOG = "exit codes:\n  0  success\n" + "".join(
    f"  {code}  {text}\n" for _, code, _, text in sorted(_FAILURES, key=lambda row: row[1])
) + """
configuration keys (file "key = value" lines or flags of the same name):
""" + "\n".join(
    f"  {spec.name:<25} default {spec.default!r}: {spec.help}" for spec in KEY_SPECS
) + """

negative values: a flag takes "-0.5" as its value, but a negative number in
exponent form reads as another flag, so join it with "=":
  --background_bias=-1e-3
"""


def build_parser() -> argparse.ArgumentParser:
    layout = {"epilog": _EPILOG, "formatter_class": argparse.RawDescriptionHelpFormatter}
    parser = argparse.ArgumentParser(
        prog="proclearn",
        description="Key-step discovery pipeline: correspondence learning, "
        "graph-cut localization, ordering, and evaluation.",
        **layout,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, description) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=description, **layout)
        sub.add_argument("--config", default=None, help="path to a key = value config file")
        for spec in KEY_SPECS:
            sub.add_argument(f"--{spec.name}", default=None, metavar="V", help=spec.help)
    return parser


def run(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    cfg, explicit = resolve_config(args)
    _COMMANDS[args.command][0](_Run(cfg, explicit))


# glibc's mallopt parameters (malloc.h) and the values main sets: blocks up
# to 32 MB (glibc's largest mmap threshold on 64-bit) come from the heap, and
# up to 3 MB free at its top stay there. Of the trim thresholds swept, 3 MB is
# the smallest that keeps a training step from faulting pages back in on
# 5x200, 30x200, 10x512 and 10x1000 frames (2.5 MB left 22 faults a step on
# 30x200, 2 MB 930 on 10x1000); glibc's default policy left 510 on 5x200.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _set_process_policy() -> None:
    """Set the process-wide policies the command's speed and bytes depend on.

    numpy's bundled OpenBLAS runs on one thread, whose products round the same
    on any CPU count. glibc's malloc keeps freed memory on the heap, so each
    training step reuses the last step's temporaries instead of faulting fresh
    pages in. A numpy built on another BLAS, or a libc without ``mallopt``,
    keeps its own setting.
    """
    import ctypes

    try:
        blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
        set_threads = blas.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        pass
    else:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):  # TypeError: Windows loads no CDLL(None)
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 3 << 20)


def main(argv: list[str] | None = None) -> int:
    _set_process_policy()
    try:
        run(argv)
    except Exception as exc:
        _, code, prefix, _ = next(row for row in _FAILURES if isinstance(exc, row[0]))
        detail = exc.filename if isinstance(exc, FileNotFoundError) and exc.filename else exc
        print(f"proclearn: {prefix}: {detail}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
