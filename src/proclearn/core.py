"""Domain types, file ingestion, and frame/segment conversions.

File formats owned by this module (all little-endian, all float64):

* Feature file: magic ``CNCF``, u32 version=1, u32 T, u32 D, f64 fps,
  then T*D f64 values in row-major order.
* Annotation file: UTF-8 CSV with exactly one header line ``start,end,label``
  followed by one segment per line (seconds, seconds, integer label).
  One file per video, named ``<video_id>.csv``.
* Task manifest: first line ``task,<task_name>,<K>``, then one line per
  video: ``<video_id>,<feature_file>,<annotation_file_or_dash>``. Paths are
  resolved relative to the manifest's directory. Video ids are unique plain
  file names.

Each file family has one reader and one writer here, used by every module:
``_csv_rows`` and ``_csv_text`` for CSV tables, which split lines by one rule,
``_fields``, so a row is written only if it reads back unchanged (floats with
6 decimals); ``_binary_fields`` and ``_write_binary`` for the f64 binary files
(features here, embedder parameters in ``embed``). Every writer ends in the
atomic ``_write_file`` (a temp file in the target's directory, then a rename).
Every text file, the CLI's config file too, is read as UTF-8 by ``_read_text``.

Everything here is a pure function over immutable inputs; values are safe
to share across threads for reading. ``_parallel_map`` is the package's one
source of threads: it runs a stage's independent jobs on the calling thread
and threads it starts for that call, yields their results in order, and joins
its threads before it returns.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

FEATURE_MAGIC = b"CNCF"
FEATURE_VERSION = 1

__all__ = [
    "FileFormatError",
    "TruncatedFileError",
    "AnnotationError",
    "FeatureSequence",
    "KeyStepSegment",
    "TaskAnnotation",
    "KeyStepAssignment",
    "TaskManifest",
    "ManifestEntry",
    "load_features",
    "load_feature_header",
    "save_features",
    "parse_annotation_file",
    "save_annotation_file",
    "segments_to_frame_labels",
    "load_manifest",
    "save_manifest",
    "format_manifest",
    "load_assignment_file",
    "save_assignment_file",
]


class FileFormatError(ValueError):
    """An artifact file does not conform to its declared format."""


class TruncatedFileError(FileFormatError):
    """An artifact file ends before its declared payload."""


class AnnotationError(ValueError):
    """Annotation content violates task constraints."""


def setting(default, help: str):
    """A stage-config field that is also the configuration key of its name,
    parsed by its default's type."""
    return field(default=default, metadata={"help": help})


def _write_file(path: str | Path, data: str | bytes) -> None:
    """Write ``data`` (text as UTF-8) through a ``.<name>.*`` temp file in the target's
    directory, made if missing, renamed over the target; a failure leaves the target.

    The temp file is created with mode 0666 less the umask, as ``open`` would."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}"
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Threads overlap only inside numpy operations, which release the interpreter
# lock; each operation costs a lock handoff. Below this many entries in the
# arrays a job's operations work on, the handoffs cost about as much as the
# overlap saves or more. On 2 shared vCPUs a training loss took 3.0 ms alone
# and 4.5 ms on two threads at 100 x 100 frames, 9.2 and 8.2 ms at 200 x 200
# (no gain over a 30-video, 40-step run-all), and 22 and 17 ms at 300 x 300.
_MIN_PARALLEL_ENTRIES = 1 << 16


def _parallel_map(fn, items, entries: int):
    """Yield ``fn(x)`` for each of ``items``, in item order, using every CPU.

    With n = ``_cpu_count()``, the calling thread runs items 0, n, 2n, ... itself
    and n - 1 threads started for this call run the rest; at most 2n items are
    in flight. Every job runs under the caller's numpy error state. A job that
    raises stops the map: unstarted jobs are cancelled, running ones awaited,
    and the first failing item's exception is raised. The threads are joined
    before the map returns, raises or is closed, so none outlives the call.
    With n = 1, and when the jobs' typical operation covers fewer than
    ``_MIN_PARALLEL_ENTRIES`` array ``entries``, the jobs run in order in the
    calling thread. Callers combine the results in item order, so results do
    not depend on n. This is the package's one source of threads.
    """
    items = list(items)
    n = _cpu_count()
    if n < 2 or entries < _MIN_PARALLEL_ENTRIES or len(items) < 2:
        yield from map(fn, items)
        return
    errors = np.geterr()

    def job(item):
        with np.errstate(**errors):
            return fn(item)

    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(n - 1, thread_name_prefix="proclearn")
    pending, submitted = {}, 0
    try:
        for i, item in enumerate(items):
            for j in range(submitted, min(i + 2 * n, len(items))):
                if j % n:
                    pending[j] = pool.submit(job, items[j])
            submitted = i + 2 * n
            yield pending.pop(i).result() if i % n else job(item)
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass(frozen=True)
class FeatureSequence:
    """One video's per-frame feature matrix (T x D float64) plus frame rate."""

    video_id: str
    features: np.ndarray
    fps: float

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError(
                f"features must be a T x D matrix with T,D >= 1, got shape {feats.shape}"
            )
        if not np.isfinite(feats).all():
            raise ValueError(f"non-finite feature entry in video {self.video_id!r}")
        if not (0 < self.fps < np.inf):
            raise ValueError(f"fps must be positive and finite, got {self.fps}")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "fps", float(self.fps))

    @property
    def num_frames(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def duration(self) -> float:
        """Video length in seconds implied by frame count and rate."""
        return self.num_frames / self.fps


@dataclass(frozen=True)
class KeyStepSegment:
    """A ground-truth segment [start_s, end_s) carrying a key-step label."""

    start_s: float
    end_s: float
    label_id: int

    def __post_init__(self):
        # Normalize numpy scalars so serialization sees plain Python types.
        object.__setattr__(self, "start_s", float(self.start_s))
        object.__setattr__(self, "end_s", float(self.end_s))
        object.__setattr__(self, "label_id", int(self.label_id))
        if self.start_s < 0:
            raise AnnotationError(f"segment start {self.start_s} < 0")
        if not (self.start_s < self.end_s):
            raise AnnotationError(
                f"segment start {self.start_s} must precede end {self.end_s}"
            )
        if self.label_id < 1:
            raise AnnotationError(f"label_id {self.label_id} < 1")


@dataclass(frozen=True)
class TaskAnnotation:
    """Ground-truth key-step segments for every video of one task.

    Exposes the per-video summary quantities used by the dataset statistics:
    video count N, key-step count K, unique labels u_n, annotated segment
    count g_n, summed key-step duration t_k^n, and video duration t_v^n.
    """

    task_name: str
    K: int
    per_video: dict[str, list[KeyStepSegment]]
    durations: dict[str, float]

    def __post_init__(self):
        if self.K < 1:
            raise AnnotationError(f"K must be >= 1, got {self.K}")
        for video_id, segments in self.per_video.items():
            if video_id not in self.durations:
                raise AnnotationError(f"no duration for video {video_id!r}")
            duration = self.durations[video_id]
            if not (duration > 0):
                raise AnnotationError(f"duration of {video_id!r} must be positive")
            _check_segments(segments, duration, self.K, repr(video_id))

    @property
    def num_videos(self) -> int:
        return len(self.per_video)

    def unique_labels(self, video_id: str) -> int:
        """u_n: number of distinct key-step labels annotated in one video."""
        return len({seg.label_id for seg in self.per_video[video_id]})

    def segment_count(self, video_id: str) -> int:
        """g_n: number of annotated segments in one video."""
        return len(self.per_video[video_id])

    def keystep_duration(self, video_id: str) -> float:
        """t_k^n: total seconds covered by key-step segments in one video."""
        return sum(seg.end_s - seg.start_s for seg in self.per_video[video_id])

    def video_duration(self, video_id: str) -> float:
        """t_v^n: length of one video in seconds."""
        return self.durations[video_id]


@dataclass(frozen=True)
class KeyStepAssignment:
    """Per-frame labels in {0..K} for every video; 0 is background."""

    per_video: dict[str, np.ndarray]
    K: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        coerced = {}
        for video_id, labels in self.per_video.items():
            arr = np.asarray(labels, dtype=np.int64)
            if arr.ndim != 1:
                raise ValueError(f"{video_id!r}: labels must be a 1-d array")
            if arr.size and (arr.min() < 0 or arr.max() > self.K):
                raise ValueError(
                    f"{video_id!r}: labels must lie in 0..{self.K}, "
                    f"got range [{arr.min()}, {arr.max()}]"
                )
            coerced[video_id] = arr
        object.__setattr__(self, "per_video", coerced)


# ---------------------------------------------------------------------------
# Feature files
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIIId")


def save_features(path: str | Path, sequence: FeatureSequence) -> None:
    """Write a feature file in the binary ``CNCF`` format."""
    values = (*sequence.features.shape, sequence.fps)
    _write_binary(path, _HEADER, FEATURE_MAGIC, FEATURE_VERSION, values, [sequence.features])


def _write_binary(path, layout, magic, version, values, arrays) -> None:
    """Write a ``layout`` header of magic, version and ``values``, then each
    array's entries as little-endian f64 in row-major order."""
    blobs = [np.ascontiguousarray(arr, dtype="<f8").tobytes() for arr in arrays]
    _write_file(path, layout.pack(magic, version, *values) + b"".join(blobs))


def _binary_fields(path, head, size, layout, magic, version, floats: Callable[..., int]):
    """The fields after magic and version of a ``size``-byte binary file whose
    ``head`` starts with a ``layout`` header and ``floats(*fields)`` f64 values follow."""
    if size < layout.size:
        raise TruncatedFileError(f"{path}: file shorter than its {layout.size}-byte header")
    found_magic, found_version, *values = layout.unpack_from(head)
    if found_magic != magic:
        raise FileFormatError(f"{path}: bad magic {found_magic!r}")
    if found_version != version:
        raise FileFormatError(f"{path}: unsupported version {found_version}")
    held, expected = size - layout.size, 8 * floats(*values)
    if held < expected:
        raise TruncatedFileError(f"{path}: payload holds {held} bytes, expected {expected}")
    if held > expected:
        raise FileFormatError(f"{path}: {held - expected} trailing bytes")
    return values


def _parse_header(path: Path, head: bytes, size: int) -> tuple[int, int, float]:
    """Check a feature file's header against the file's byte size; return T, D, fps."""
    T, D, fps = _binary_fields(
        path, head, size, _HEADER, FEATURE_MAGIC, FEATURE_VERSION, lambda T, D, fps: T * D
    )
    if T < 1 or D < 1:
        raise FileFormatError(f"{path}: header declares empty matrix ({T} x {D})")
    if not 0 < fps < np.inf:
        raise FileFormatError(f"{path}: header declares fps {fps}; it must be positive and finite")
    return T, D, fps


def load_feature_header(path: str | Path) -> tuple[int, int, float]:
    """Read only a feature file's header and return T, D, fps.

    Applies every check of ``load_features`` except the payload's finiteness;
    the payload length comes from the file size.
    """
    path = Path(path)
    with path.open("rb") as handle:
        head = handle.read(_HEADER.size)
        size = os.fstat(handle.fileno()).st_size
    return _parse_header(path, head, size)


def load_features(path: str | Path, video_id: str | None = None) -> FeatureSequence:
    """Read a feature file, rejecting malformed headers and non-finite data.

    ``video_id`` defaults to the file's stem.
    """
    path = Path(path)
    raw = path.read_bytes()
    T, D, fps = _parse_header(path, raw, len(raw))
    feats = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(T, D)
    if not np.isfinite(feats).all():
        bad = np.argwhere(~np.isfinite(feats))[0]
        raise ValueError(f"{path}: non-finite value at row {bad[0]}, column {bad[1]}")
    return FeatureSequence(
        video_id=video_id if video_id is not None else path.stem,
        features=feats.astype(np.float64),
        fps=fps,
    )


# ---------------------------------------------------------------------------
# CSV files
# ---------------------------------------------------------------------------


def _fields(line: str) -> list[str]:
    """A CSV line's fields as read: the stripped line split on commas; a blank line has none."""
    line = line.strip()
    return line.split(",") if line else []


def _read_text(path: Path, error: type[Exception] = FileFormatError) -> str:
    """A text file's contents; bytes that are not UTF-8 raise ``error`` naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _csv_rows(path: Path, header: str, types: tuple[Callable[[str], object], ...]):
    """A CSV file's header fields and (line number, fields parsed by ``types``) rows.

    Blank lines count in line numbers only; ``<name>`` in ``header`` matches anything."""
    lines = enumerate(_read_text(path).splitlines(), start=1)
    numbered = [(lineno, parts) for lineno, line in lines if (parts := _fields(line))]
    pattern = header.split(",")
    head = numbered[0][1] if numbered else []
    if len(head) != len(pattern) or any(
        want != got for want, got in zip(pattern, head) if not want.startswith("<")
    ):
        raise FileFormatError(f"{path}: missing '{header}' header")
    rows = []
    for lineno, parts in numbered[1:]:
        if len(parts) != len(types):
            got = f"expected {len(types)} fields, got {len(parts)}"
            raise FileFormatError(f"{path}:{lineno}: {got}")
        try:
            rows.append((lineno, [parse(part) for parse, part in zip(types, parts)]))
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    return head, rows


def _csv_text(rows) -> str:
    """CSV text with one line per row: floats with 6 decimals, anything else by ``str``.

    A row whose line ``_fields`` would read back differently, or holding a line
    break (anything ``str.splitlines`` splits on), raises ValueError naming it."""
    lines = []
    for row in rows:
        fields = [f"{value:.6f}" if isinstance(value, float) else str(value) for value in row]
        line = ",".join(fields)
        if _fields(line) != fields or (line + "\n").splitlines() != [line]:
            raise ValueError(
                f"CSV row {row!r} would not read back as written: a field holds a comma"
                " or a line break, or the line is blank or has whitespace at an end"
            )
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Annotation files
# ---------------------------------------------------------------------------

ANNOTATION_HEADER = "start,end,label"


def parse_annotation_file(
    path: str | Path, duration: float, K: int
) -> list[KeyStepSegment]:
    """Parse and validate one video's annotation CSV.

    Segments must carry labels in 1..K, lie within [0, duration], and be
    pairwise non-overlapping (repeating a label in disjoint segments is fine).
    """
    path = Path(path)
    _, rows = _csv_rows(path, ANNOTATION_HEADER, (float, float, int))
    segments = [KeyStepSegment(*values) for _, values in rows]
    _check_segments(segments, duration, K, str(path))
    return segments


def _check_segments(
    segments: list[KeyStepSegment], duration: float, K: int, where: str
) -> None:
    """Reject labels above K, ends past ``duration``, and overlapping segments.

    ``where`` names the file or video in the error message.
    """
    for seg in segments:
        if seg.label_id > K:
            raise AnnotationError(f"{where}: label {seg.label_id} exceeds K={K}")
        if seg.end_s > duration + 1e-9:
            raise AnnotationError(
                f"{where}: segment end {seg.end_s} exceeds duration {duration}"
            )
    ordered = sorted(segments, key=lambda s: s.start_s)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.start_s < prev.end_s:
            raise AnnotationError(
                f"{where}: segments ({prev.start_s},{prev.end_s}) and "
                f"({cur.start_s},{cur.end_s}) overlap"
            )


def save_annotation_file(path: str | Path, segments: list[KeyStepSegment]) -> None:
    """Write segments as CSV; times are written exactly, by ``repr``."""
    rows = [(repr(seg.start_s), repr(seg.end_s), seg.label_id) for seg in segments]
    _write_file(path, _csv_text([ANNOTATION_HEADER.split(","), *rows]))


def segments_to_frame_labels(
    annotation: TaskAnnotation, video_id: str, T: int, fps: float
) -> np.ndarray:
    """Rasterize one video's segments to a length-T frame-label array.

    Frame i takes a segment's label iff its center timestamp (i + 0.5) / fps
    lies in [start_s, end_s); uncovered frames are background (0). Half-open
    ends keep shared boundaries from assigning a frame twice.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not 0 < fps < np.inf:
        raise ValueError(f"fps must be positive and finite, got {fps}")
    labels = np.zeros(T, dtype=np.int64)
    centers = (np.arange(T) + 0.5) / fps
    for seg in annotation.per_video.get(video_id, []):
        inside = (centers >= seg.start_s) & (centers < seg.end_s)
        labels[inside] = seg.label_id
    return labels


def annotation_to_assignment(
    annotation: TaskAnnotation,
    frame_counts: dict[str, int],
    fps: float | dict[str, float] = 1.0,
) -> KeyStepAssignment:
    """Rasterize ground-truth segments into per-frame labels.

    ``fps`` is one frame rate for every video or a rate per video.
    """
    rates = fps if isinstance(fps, dict) else dict.fromkeys(frame_counts, fps)
    per_video = {
        video_id: segments_to_frame_labels(annotation, video_id, T, rates[video_id])
        for video_id, T in frame_counts.items()
    }
    return KeyStepAssignment(per_video=per_video, K=annotation.K)


# ---------------------------------------------------------------------------
# Task manifests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestEntry:
    video_id: str
    feature_path: Path
    annotation_path: Path | None


@dataclass(frozen=True)
class TaskManifest:
    task_name: str
    K: int
    entries: list[ManifestEntry] = field(default_factory=list)

    def load_feature_sequences(self) -> list[FeatureSequence]:
        return [
            load_features(entry.feature_path, video_id=entry.video_id)
            for entry in self.entries
        ]

    @cached_property
    def headers(self) -> dict[str, tuple[int, int, float]]:
        """Each video's feature header (T, D, fps), read once per manifest."""
        return {e.video_id: load_feature_header(e.feature_path) for e in self.entries}

    def load_annotation(self) -> TaskAnnotation:
        """Load ground truth for every annotated video; requires all entries annotated.

        Durations come from the feature files' headers alone.
        """
        per_video = {}
        durations = {}
        for entry in self.entries:
            if entry.annotation_path is None:
                raise AnnotationError(
                    f"video {entry.video_id!r} has no annotation file in the manifest"
                )
            T, _, fps = self.headers[entry.video_id]
            duration = T / fps
            per_video[entry.video_id] = parse_annotation_file(
                entry.annotation_path, duration, self.K
            )
            durations[entry.video_id] = duration
        return TaskAnnotation(
            task_name=self.task_name, K=self.K, per_video=per_video, durations=durations
        )


def load_manifest(path: str | Path) -> TaskManifest:
    """Read a manifest. Video ids name files (``assignments/<id>.csv``), so each
    must be a unique plain file name: not empty, ``.`` or ``..``, and holding
    no path separator."""
    path = Path(path)
    base = path.parent
    head, rows = _csv_rows(path, "task,<task_name>,<K>", (str, str, str))
    try:
        K = int(head[2])
    except ValueError:
        raise FileFormatError(f"{path}: K must be an integer, got {head[2]!r}") from None
    if K < 1:
        raise FileFormatError(f"{path}: K must be >= 1, got {K}")
    entries, first_line = [], {}
    separators = {"/", os.sep, os.altsep} - {None}
    for lineno, (video_id, feature_file, annotation_file) in rows:
        if video_id in ("", ".", "..") or any(sep in video_id for sep in separators):
            raise FileFormatError(f"{path}:{lineno}: video id {video_id!r} is not a file name")
        if video_id in first_line:
            where = f"{path}:{lineno}: video id {video_id!r}"
            raise FileFormatError(f"{where} repeats line {first_line[video_id]}")
        first_line[video_id] = lineno
        annotation_path = None if annotation_file == "-" else base / annotation_file
        entries.append(ManifestEntry(video_id, base / feature_file, annotation_path))
    if not entries:
        raise FileFormatError(f"{path}: manifest lists no videos")
    return TaskManifest(task_name=head[1], K=K, entries=entries)


def save_manifest(path: str | Path, manifest: TaskManifest) -> None:
    """Write ``format_manifest(path, manifest)`` to ``path``."""
    _write_file(path, format_manifest(path, manifest))


def format_manifest(path: str | Path, manifest: TaskManifest) -> str:
    """A manifest's text as stored at ``path``; stored paths are made relative
    to the manifest directory.

    Entry paths are read as given from the working directory. Those outside
    the manifest's directory are stored absolute. A name or path that would
    not read back as written (see ``_csv_text``) raises ValueError.
    """
    base = Path(path).parent
    rows = [("task", manifest.task_name, manifest.K)]
    for entry in manifest.entries:
        annotation = entry.annotation_path
        annotation = "-" if annotation is None else _relative_to(annotation, base)
        rows.append((entry.video_id, _relative_to(entry.feature_path, base), annotation))
    return _csv_text(rows)


def _relative_to(target: Path, base: Path) -> str:
    target, base = Path(os.path.abspath(target)), Path(os.path.abspath(base))
    try:
        return target.relative_to(base).as_posix()
    except ValueError:
        return target.as_posix()


# ---------------------------------------------------------------------------
# Assignment files
# ---------------------------------------------------------------------------

ASSIGNMENT_HEADER = "frame,label"


def save_assignment_file(path: str | Path, labels: np.ndarray) -> None:
    rows = [(i, int(label)) for i, label in enumerate(labels)]
    _write_file(path, _csv_text([ASSIGNMENT_HEADER.split(","), *rows]))


def load_assignment_file(path: str | Path) -> np.ndarray:
    path = Path(path)
    _, rows = _csv_rows(path, ASSIGNMENT_HEADER, (int, int))
    labels = []
    for lineno, (frame, label) in rows:
        if frame != len(labels):
            raise FileFormatError(f"{path}:{lineno}: frames must be contiguous from 0")
        labels.append(label)
    return np.asarray(labels, dtype=np.int64)
