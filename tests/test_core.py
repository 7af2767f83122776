from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
import pytest

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
    with pytest.raises(ValueError):
        FeatureSequence(video_id="a", features=[[1.0]], fps=0.0)


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
