from __future__ import annotations

import importlib
import os
import pkgutil
import re
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proclearn
from proclearn import core
from proclearn.core import (
    AnnotationError,
    FeatureSequence,
    FileFormatError,
    KeyStepAssignment,
    KeyStepSegment,
    ManifestEntry,
    TaskAnnotation,
    TaskManifest,
    TruncatedFileError,
    load_assignment_file,
    load_feature_header,
    load_features,
    load_manifest,
    parse_annotation_file,
    save_annotation_file,
    save_assignment_file,
    save_features,
    save_manifest,
    segments_to_frame_labels,
    _csv_rows,
    _csv_text,
)


def _sequence(T=4, D=3, fps=2.0, video_id="v0", seed=0):
    rng = np.random.default_rng(seed)
    return FeatureSequence(video_id=video_id, features=rng.standard_normal((T, D)), fps=fps)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


def test_feature_sequence_coerces_and_exposes_shape():
    seq = FeatureSequence(video_id="a", features=[[1, 2], [3, 4]], fps=2.0)
    assert seq.features.dtype == np.float64
    assert seq.num_frames == 2
    assert seq.feature_dim == 2
    assert seq.duration == 1.0


@pytest.mark.parametrize(
    "features",
    [np.zeros((0, 3)), np.zeros((3, 0)), np.zeros(3)],
)
def test_feature_sequence_rejects_bad_shape(features):
    with pytest.raises(ValueError):
        FeatureSequence(video_id="a", features=features, fps=1.0)


def test_feature_sequence_rejects_nonfinite_and_bad_fps():
    with pytest.raises(ValueError):
        FeatureSequence(video_id="a", features=[[np.nan]], fps=1.0)
    for fps in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="fps"):
            FeatureSequence(video_id="a", features=[[1.0]], fps=fps)


def test_segment_validation():
    seg = KeyStepSegment(0.5, 1.5, 2)
    assert seg.label_id == 2
    with pytest.raises(AnnotationError):
        KeyStepSegment(-0.1, 1.0, 1)
    with pytest.raises(AnnotationError):
        KeyStepSegment(1.0, 1.0, 1)
    with pytest.raises(AnnotationError):
        KeyStepSegment(0.0, 1.0, 0)


def test_annotation_accepts_abutting_and_repeated_labels():
    ann = TaskAnnotation(
        task_name="t",
        K=2,
        per_video={"v": [KeyStepSegment(0, 1, 1), KeyStepSegment(1, 2, 1)]},
        durations={"v": 2.0},
    )
    assert ann.unique_labels("v") == 1
    assert ann.segment_count("v") == 2
    assert ann.keystep_duration("v") == 2.0
    assert ann.video_duration("v") == 2.0
    assert ann.num_videos == 1


def test_annotation_rejects_overlap_label_range_and_duration():
    with pytest.raises(AnnotationError):
        TaskAnnotation(
            task_name="t",
            K=2,
            per_video={"v": [KeyStepSegment(0, 1.5, 1), KeyStepSegment(1.0, 2, 2)]},
            durations={"v": 2.0},
        )
    with pytest.raises(AnnotationError):
        TaskAnnotation(
            task_name="t", K=2, per_video={"v": [KeyStepSegment(0, 1, 3)]}, durations={"v": 2.0}
        )
    with pytest.raises(AnnotationError):
        TaskAnnotation(
            task_name="t", K=2, per_video={"v": [KeyStepSegment(0, 3, 1)]}, durations={"v": 2.0}
        )
    with pytest.raises(AnnotationError):
        TaskAnnotation(task_name="t", K=2, per_video={"v": []}, durations={})
    with pytest.raises(AnnotationError):
        TaskAnnotation(task_name="t", K=0, per_video={}, durations={})


def test_assignment_validates_label_range():
    a = KeyStepAssignment(per_video={"v": [0, 1, 2]}, K=2)
    assert a.per_video["v"].dtype == np.int64
    with pytest.raises(ValueError):
        KeyStepAssignment(per_video={"v": [0, 3]}, K=2)
    with pytest.raises(ValueError):
        KeyStepAssignment(per_video={"v": [-1]}, K=2)
    with pytest.raises(ValueError):
        KeyStepAssignment(per_video={"v": [0]}, K=0)


# ---------------------------------------------------------------------------
# Feature files
# ---------------------------------------------------------------------------


def test_feature_roundtrip(tmp_path):
    seq = _sequence()
    path = tmp_path / "clip.feat"
    save_features(path, seq)
    loaded = load_features(path)
    assert loaded.video_id == "clip"
    assert loaded.fps == seq.fps
    np.testing.assert_array_equal(loaded.features, seq.features)
    named = load_features(path, video_id="other")
    assert named.video_id == "other"
    assert load_feature_header(path) == (seq.num_frames, seq.feature_dim, seq.fps)


def test_feature_file_header_errors(tmp_path):
    path = tmp_path / "bad.feat"
    for load in (load_features, load_feature_header):
        path.write_bytes(b"CN")
        with pytest.raises(TruncatedFileError):
            load(path)
        path.write_bytes(struct.pack("<4sIIId", b"XXXX", 1, 1, 1, 1.0) + b"\x00" * 8)
        with pytest.raises(FileFormatError):
            load(path)
        path.write_bytes(struct.pack("<4sIIId", b"CNCF", 9, 1, 1, 1.0) + b"\x00" * 8)
        with pytest.raises(FileFormatError):
            load(path)
        path.write_bytes(struct.pack("<4sIIId", b"CNCF", 1, 0, 1, 1.0))
        with pytest.raises(FileFormatError):
            load(path)
        path.write_bytes(struct.pack("<4sIIId", b"CNCF", 1, 1, 1, 0.0) + b"\x00" * 8)
        with pytest.raises(ValueError, match="fps"):
            load(path)


def test_feature_file_payload_errors(tmp_path):
    path = tmp_path / "bad.feat"
    header = struct.pack("<4sIIId", b"CNCF", 1, 2, 1, 1.0)
    for load in (load_features, load_feature_header):
        path.write_bytes(header + b"\x00" * 8)
        with pytest.raises(TruncatedFileError):
            load(path)
        path.write_bytes(header + b"\x00" * 24)
        with pytest.raises(FileFormatError, match="trailing"):
            load(path)
    payload = struct.pack("<2d", 1.0, float("nan"))
    path.write_bytes(header + payload)
    with pytest.raises(ValueError, match="row 1"):
        load_features(path)


# ---------------------------------------------------------------------------
# Annotation files
# ---------------------------------------------------------------------------


def test_annotation_file_roundtrip(tmp_path):
    segments = [KeyStepSegment(0.0, 1.25, 1), KeyStepSegment(2.5, 3.0, 2)]
    path = tmp_path / "v.csv"
    save_annotation_file(path, segments)
    parsed = parse_annotation_file(path, duration=4.0, K=2)
    assert parsed == segments


def test_annotation_file_header_and_field_errors(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("begin,end,label\n0,1,1\n")
    with pytest.raises(FileFormatError):
        parse_annotation_file(path, 2.0, 2)
    path.write_text("start,end,label\n0,1\n")
    with pytest.raises(FileFormatError):
        parse_annotation_file(path, 2.0, 2)
    path.write_text("start,end,label\n0,one,1\n")
    with pytest.raises(FileFormatError):
        parse_annotation_file(path, 2.0, 2)


def test_annotation_file_domain_errors(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("start,end,label\n0,1,3\n")
    with pytest.raises(AnnotationError):
        parse_annotation_file(path, 2.0, 2)
    path.write_text("start,end,label\n0,5,1\n")
    with pytest.raises(AnnotationError):
        parse_annotation_file(path, 2.0, 2)
    path.write_text("start,end,label\n0,1.5,1\n1.0,2,2\n")
    with pytest.raises(AnnotationError):
        parse_annotation_file(path, 2.0, 2)


def test_annotation_file_skips_blank_lines(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("start,end,label\n\n0,1,1\n\n")
    assert parse_annotation_file(path, 2.0, 2) == [KeyStepSegment(0, 1, 1)]


# ---------------------------------------------------------------------------
# Frame rasterization
# ---------------------------------------------------------------------------


def test_segments_to_frame_labels_worked_example():
    # Segment [1.0, 2.0) at 2 fps: frame centers 0.25..2.75, label frames 2,3.
    ann = TaskAnnotation(
        task_name="t", K=1, per_video={"v": [KeyStepSegment(1.0, 2.0, 1)]}, durations={"v": 3.0}
    )
    labels = segments_to_frame_labels(ann, "v", T=6, fps=2.0)
    np.testing.assert_array_equal(labels, [0, 0, 1, 1, 0, 0])


def test_segments_to_frame_labels_half_open_boundary():
    ann = TaskAnnotation(
        task_name="t",
        K=2,
        per_video={"v": [KeyStepSegment(0, 1, 1), KeyStepSegment(1, 2, 2)]},
        durations={"v": 2.0},
    )
    np.testing.assert_array_equal(segments_to_frame_labels(ann, "v", 2, 1.0), [1, 2])


def test_segments_to_frame_labels_validates_and_defaults():
    ann = TaskAnnotation(task_name="t", K=1, per_video={}, durations={})
    np.testing.assert_array_equal(segments_to_frame_labels(ann, "missing", 3, 1.0), [0, 0, 0])
    with pytest.raises(ValueError):
        segments_to_frame_labels(ann, "missing", 0, 1.0)
    with pytest.raises(ValueError):
        segments_to_frame_labels(ann, "missing", 3, 0.0)


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def _write_task(tmp_path: Path, annotated=True):
    entries = []
    for vid in ("va", "vb"):
        seq = _sequence(video_id=vid, seed=hash(vid) % 100)
        feature_path = tmp_path / "feats" / f"{vid}.feat"
        feature_path.parent.mkdir(exist_ok=True)
        save_features(feature_path, seq)
        annotation_path = None
        if annotated:
            annotation_path = tmp_path / f"{vid}.csv"
            save_annotation_file(annotation_path, [KeyStepSegment(0, 1, 1)])
        entries.append(ManifestEntry(vid, feature_path, annotation_path))
    return TaskManifest(task_name="demo", K=2, entries=entries)


def test_manifest_roundtrip(tmp_path):
    manifest = _write_task(tmp_path)
    path = tmp_path / "manifest.csv"
    save_manifest(path, manifest)
    text = path.read_text()
    assert text.splitlines()[0] == "task,demo,2"
    assert "feats/va.feat" in text
    loaded = load_manifest(path)
    assert loaded.K == 2
    assert [e.video_id for e in loaded.entries] == ["va", "vb"]
    sequences = loaded.load_feature_sequences()
    assert [s.video_id for s in sequences] == ["va", "vb"]
    ann = loaded.load_annotation()
    assert ann.keystep_duration("va") == 1.0


def test_manifest_dash_marks_unannotated(tmp_path):
    manifest = _write_task(tmp_path, annotated=False)
    path = tmp_path / "manifest.csv"
    save_manifest(path, manifest)
    assert ",-" in path.read_text()
    loaded = load_manifest(path)
    assert loaded.entries[0].annotation_path is None
    with pytest.raises(AnnotationError):
        loaded.load_annotation()


def test_manifest_stores_relative_entries_from_working_directory(tmp_path, monkeypatch):
    manifest = _write_task(tmp_path)
    monkeypatch.chdir(tmp_path.parent)
    relative = [
        ManifestEntry(
            e.video_id,
            e.feature_path.relative_to(tmp_path.parent),
            e.annotation_path.relative_to(tmp_path.parent),
        )
        for e in manifest.entries
    ]
    path = tmp_path / "manifest.csv"
    save_manifest(path, TaskManifest(task_name="demo", K=2, entries=relative))
    assert path.read_text().splitlines()[1] == "va,feats/va.feat,va.csv"
    (tmp_path / "sub").mkdir()
    save_manifest(tmp_path / "sub" / "manifest.csv", manifest)
    outside = (tmp_path / "sub" / "manifest.csv").read_text().splitlines()[1]
    assert outside.split(",")[1] == (tmp_path / "feats" / "va.feat").as_posix()


def test_a_failed_save_leaves_the_target_and_no_temp_file(tmp_path, monkeypatch):
    manifest = _write_task(tmp_path)
    path = tmp_path / "manifest.csv"
    save_manifest(path, manifest)
    before = path.read_bytes()
    entry = manifest.entries[0]
    unstorable = TaskManifest("demo", 2, [ManifestEntry(" v", entry.feature_path, None)])
    with pytest.raises(ValueError, match="' v'"):
        save_manifest(path, unstorable)
    assert path.read_bytes() == before

    def refuse(*_):
        raise OSError("disk full")

    monkeypatch.setattr(core.os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        save_manifest(path, TaskManifest("other", 2, manifest.entries))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.glob(".*")] == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_saved_files_take_their_mode_from_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        save_features(tmp_path / "v.feat", _sequence())
        save_assignment_file(tmp_path / "v.csv", np.zeros(3, dtype=np.int64))
    finally:
        os.umask(old)
    for name in ("v.feat", "v.csv"):
        assert (tmp_path / name).stat().st_mode & 0o777 == mode


def test_manifest_errors_count_blank_lines(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("task,demo,2\nva,a.feat,-\n\n\nvb,b.feat\n")
    with pytest.raises(FileFormatError, match=r"manifest.csv:5: expected 3 fields"):
        load_manifest(path)


def test_manifest_format_errors(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("")
    with pytest.raises(FileFormatError):
        load_manifest(path)
    path.write_text("job,demo,2\n")
    with pytest.raises(FileFormatError):
        load_manifest(path)
    path.write_text("task,demo,two\n")
    with pytest.raises(FileFormatError):
        load_manifest(path)
    path.write_text("task,demo,0\nv,a.feat,-\n")
    with pytest.raises(FileFormatError):
        load_manifest(path)
    path.write_text("task,demo,2\n")
    with pytest.raises(FileFormatError):
        load_manifest(path)
    path.write_text("task,demo,2\nv,a.feat\n")
    with pytest.raises(FileFormatError):
        load_manifest(path)


@pytest.mark.parametrize("video_id", ["", ".", "..", "../../escaped", "a/b", "/abs"])
def test_manifest_rejects_a_video_id_that_is_not_a_plain_file_name(tmp_path, video_id):
    path = tmp_path / "manifest.csv"
    path.write_text(f"task,demo,2\nva,a.feat,-\n{video_id},b.feat,-\n")
    with pytest.raises(FileFormatError, match=r"manifest.csv:3: video id .* is not a file name"):
        load_manifest(path)


def test_manifest_rejects_a_video_id_holding_the_alternative_separator(tmp_path, monkeypatch):
    path = tmp_path / "manifest.csv"
    path.write_text("task,demo,2\na\\b,a.feat,-\n")
    monkeypatch.setattr(core.os, "altsep", "\\")  # as on Windows
    with pytest.raises(FileFormatError, match=r"manifest.csv:2: video id"):
        load_manifest(path)


def test_manifest_rejects_a_repeated_video_id_naming_its_first_line(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("task,demo,2\nva,a.feat,-\n\nvb,b.feat,-\nva,c.feat,-\n")
    with pytest.raises(FileFormatError, match=r"manifest.csv:5: video id 'va' repeats line 2$"):
        load_manifest(path)


# ---------------------------------------------------------------------------
# Assignment files
# ---------------------------------------------------------------------------


def test_assignment_roundtrip(tmp_path):
    path = tmp_path / "v.csv"
    save_assignment_file(path, np.array([0, 2, 1]))
    assert path.read_text() == "frame,label\n0,0\n1,2\n2,1\n"
    np.testing.assert_array_equal(load_assignment_file(path), [0, 2, 1])


def test_assignment_file_errors_count_blank_lines(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("frame,label\n0,1\n\n\n1,x\n")
    with pytest.raises(FileFormatError, match=r"v.csv:5: "):
        load_assignment_file(path)
    path.write_text("frame,label\n\n0,1\n\n1,2\n")
    np.testing.assert_array_equal(load_assignment_file(path), [1, 2])
    path.write_text("frame,label\n0,1\n\n2,2\n")
    with pytest.raises(FileFormatError, match=r"v.csv:4: frames must be contiguous"):
        load_assignment_file(path)


def test_csv_readers_share_the_header_and_row_rules(tmp_path):
    path = tmp_path / "v.csv"
    readers = {
        "start,end,label": (lambda p: parse_annotation_file(p, 9.0, 2), "0,1,1"),
        "frame,label": (load_assignment_file, "0,1"),
        "task,demo,2": (load_manifest, "v,a.feat,-"),
    }
    for header, (read, row) in readers.items():
        width = len(row.split(","))
        path.write_text(f"\n\n{header}\n{row}\n")
        read(path)  # blank lines before the header are skipped
        path.write_text(f"\n{header}\n{row}\n\n{row},9\n")
        with pytest.raises(
            FileFormatError, match=rf"v.csv:5: expected {width} fields, got {width + 1}$"
        ):
            read(path)
        path.write_text(f"{row}\n")
        with pytest.raises(FileFormatError, match="header"):
            read(path)


# Any text, surrogates aside: _csv_text must refuse what _csv_rows cannot
# read back as written.
_CSV_FIELDS = {
    str: st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    int: st.integers(),
    float: st.floats(allow_nan=False, allow_infinity=False),
}

_CSV_TABLES = st.lists(st.sampled_from(list(_CSV_FIELDS)), min_size=1, max_size=4).flatmap(
    lambda types: st.tuples(
        st.just(tuple(types)),
        st.lists(st.tuples(*(_CSV_FIELDS[t] for t in types)), max_size=5),
    )
)


@settings(max_examples=60, deadline=None)
@given(_CSV_TABLES)
def test_csv_text_round_trips_through_csv_rows(tmp_path_factory, table):
    types, rows = table
    header = tuple(f"c{i}" for i in range(len(types)))
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    try:
        text = _csv_text([header, *rows])
    except ValueError:
        return
    path.write_text(text, encoding="utf-8")
    head, read = _csv_rows(path, ",".join(header), types)
    assert head == list(header)
    expected = [
        [float(f"{value:.6f}") if isinstance(value, float) else value for value in row]
        for row in rows
    ]
    assert [values for _, values in read] == expected
    assert [lineno for lineno, _ in read] == list(range(2, len(rows) + 2))


@pytest.mark.parametrize("bad", [",", "\n", "\r", "\u2028"], ids=["comma", "lf", "cr", "u2028"])
@pytest.mark.parametrize("template", ["a{}b", "ab{}"])
def test_csv_text_rejects_a_field_with_a_comma_or_line_break(bad, template):
    row = ("video", template.format(bad), 3)
    with pytest.raises(ValueError, match=re.escape(repr(row))):
        _csv_text([("id", "path", "n"), row])


@pytest.mark.parametrize(
    "row", [(" v", "f.feat", "-"), ("v", "f.feat", "a.csv "), ("\t",), ("",)]
)
def test_csv_text_rejects_a_line_that_reads_back_changed(row):
    with pytest.raises(ValueError, match=re.escape(repr(row))):
        _csv_text([("id",), row])


def test_csv_text_writes_floats_with_6_decimals_and_the_rest_by_str():
    text = _csv_text([("a", 1, 0.5, np.float64(1 / 3), np.int64(7), "2.5")])
    assert text == "a,1,0.500000,0.333333,7,2.5\n"


def test_assignment_file_errors(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("label,frame\n0,0\n")
    with pytest.raises(FileFormatError):
        load_assignment_file(path)
    path.write_text("frame,label\n1,0\n")
    with pytest.raises(FileFormatError, match="contiguous"):
        load_assignment_file(path)
    path.write_text("frame,label\n0,0,9\n")
    with pytest.raises(FileFormatError):
        load_assignment_file(path)
    path.write_text("frame,label\n0,x\n")
    with pytest.raises(FileFormatError):
        load_assignment_file(path)


# ---------------------------------------------------------------------------
# Package
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "module", sorted(info.name for info in pkgutil.iter_modules(proclearn.__path__))
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"proclearn.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------


def _pmap(fn, items):
    return list(core._parallel_map(fn, items, 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_parallel_map_yields_in_item_order_and_the_caller_runs_every_nth(cpus, n):
    cpus(n)
    caller = threading.get_ident()

    def job(i):
        time.sleep(0.002 * ((7 * i) % 5))  # later items often finish first
        return i, threading.get_ident() == caller

    results = _pmap(job, range(12))
    assert [i for i, _ in results] == list(range(12))
    assert [on_caller for _, on_caller in results] == [i % n == 0 for i in range(12)]


def test_parallel_map_cancels_unstarted_jobs_and_raises_the_first_failure(cpus):
    cpus(2)
    started, finished = [], []
    running = threading.Event()

    def job(i):
        started.append(i)
        if i == 0:
            assert running.wait(30)
            raise KeyError("item 0")
        running.set()
        time.sleep(0.2)
        finished.append(i)
        raise KeyError(f"item {i}")

    with pytest.raises(KeyError, match="item 0"):
        _pmap(job, range(10))
    # Item 1 ran and was awaited before the raise; item 3, queued behind it
    # on the one pool thread, was cancelled, and no later item started.
    assert sorted(started) == [0, 1] and finished == [1]


def test_parallel_map_raises_the_failure_of_the_first_item_in_order(cpus):
    cpus(3)

    def job(i):
        if i == 1:
            time.sleep(0.05)  # both fail on the pool, item 2 first
        if i in (1, 2):
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="item 1"):
        _pmap(job, range(4))


def test_parallel_map_runs_a_call_from_inside_a_job_inline(cpus):
    cpus(2)

    def outer(i):
        here = threading.get_ident()
        inner = _pmap(lambda j: (i * 10 + j, threading.get_ident()), range(4))
        return [value for value, thread in inner if thread == here]

    results = []  # a nested call that waited on the busy pool would hang: bound it
    runner = threading.Thread(target=lambda: results.append(_pmap(outer, range(3))), daemon=True)
    runner.start()
    runner.join(30)
    assert not runner.is_alive()
    assert results == [[[0, 1, 2, 3], [10, 11, 12, 13], [20, 21, 22, 23]]]


def test_parallel_map_jobs_run_under_the_callers_error_state(cpus):
    cpus(2)

    def overflow(i):
        return np.float64(1e308) * (10.0 if i == 1 else 1.0)

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            _pmap(overflow, range(2))  # item 1 runs on the pool
    with np.errstate(over="ignore"):
        assert _pmap(overflow, range(2)) == [1e308, np.inf]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_parallel_map_replaces_a_pool_made_before_a_fork(cpus):
    cpus(2)
    assert _pmap(abs, [-1, -2, -3]) == [1, 2, 3]
    parent_pool = core._pool
    pid = os.fork()
    if pid == 0:  # child: the parent's pool has no threads here
        code = 1
        try:
            ok = _pmap(abs, [-4, -5, -6]) == [4, 5, 6]
            code = 0 if ok and core._pool is not parent_pool else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung on its parent's pool")
    assert os.waitstatus_to_exitcode(done[1]) == 0
    assert core._pool is parent_pool


def test_importing_proclearn_imports_no_pool_and_starts_no_thread():
    code = (
        "import sys, threading, proclearn.cli; "
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)"
    )
    src = str(Path(proclearn.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1", "False"]
