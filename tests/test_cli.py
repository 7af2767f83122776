from __future__ import annotations

import ctypes
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest

from proclearn.cli import (
    KEY_SPECS,
    ConfigError,
    _COMMANDS,
    _FAILURES,
    _field_keys,
    build_parser,
    main,
    parse_config_file,
    resolve_config,
)
from proclearn.core import (
    FeatureSequence,
    load_assignment_file,
    load_feature_header,
    load_manifest,
    save_assignment_file,
    save_features,
    setting,
)
from proclearn.embed import TrainConfig, load_params, save_params
from proclearn.procut import PcmConfig
from proclearn.synthbench import SynthSpec

SRC = str(Path(__file__).resolve().parent.parent / "src")

TINY = [
    "--k", "2",
    "--num_videos", "2",
    "--frames_per_video", "20",
    "--feature_dim", "4",
    "--steps", "3",
    "--hidden_dim", "8",
    "--embed_dim", "4",
    "--kmeans_restarts", "2",
    "--seed", "3",
]


def _run(command, out, *extra):
    return main([command, "--out", str(out), *TINY, *extra])


def _tree(root):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


# ---------------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------------


def test_config_file_accepts_comments_and_blanks(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# training\n"
        "\n"
        "steps = 12\n"
        "learning_rate = 0.05\n"
        "noise_sigma=0.2\n"
    )
    raw = parse_config_file(config)
    assert raw == {"steps": "12", "learning_rate": "0.05", "noise_sigma": "0.2"}


@pytest.mark.parametrize(
    "text",
    [
        "mystery = 1\n",
        "steps = 1\nsteps = 2\n",
        "steps 12\n",
    ],
)
def test_config_file_rejects_bad_lines(tmp_path, text):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    with pytest.raises(ConfigError):
        parse_config_file(config)


def test_config_file_is_read_as_utf8(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes("task_name = caf\u00e9\n".encode("utf-8"))
    assert parse_config_file(config) == {"task_name": "caf\u00e9"}
    config.write_bytes("task_name = caf\u00e9\n".encode("latin-1"))
    assert main(["synth", "--out", str(tmp_path / "out"), "--config", str(config)]) == 2
    assert "run.cfg: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_flags_beat_file_beats_default(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("seed = 11\nsteps = 9\n")
    args = build_parser().parse_args(
        ["train", "--config", str(config), "--seed", "12"]
    )
    values, explicit = resolve_config(args)
    assert values["seed"] == 12
    assert values["steps"] == 9
    assert values["learning_rate"] == 0.01
    assert explicit == {"seed", "steps"}


@pytest.mark.parametrize(
    "flags, expected",
    [(["--background_bias=-1e-3"], -1e-3), (["--background_bias", "-0.5"], -0.5)],
)
def test_negative_background_bias_resolves(flags, expected):
    values, explicit = resolve_config(build_parser().parse_args(["localize", *flags]))
    assert values["background_bias"] == expected
    assert explicit == {"background_bias"}


@pytest.mark.parametrize(
    "flags",
    [
        ["--seed", "not-a-number"],
        ["--seed", "-1"],
        ["--steps", "3.5"],
        ["--noise_sigma", "inf"],
    ],
)
def test_unparseable_values_exit_with_usage_error(tmp_path, flags):
    assert main(["synth", "--out", str(tmp_path), *flags]) == 2


def test_config_error_in_file_exits_with_usage_error(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("bogus = 1\n")
    assert main(["synth", "--out", str(tmp_path), "--config", str(config)]) == 2


def test_a_bad_value_names_its_key_and_where_it_was_given(tmp_path, capsys):
    out, config = tmp_path / "out", tmp_path / "run.cfg"
    config.write_text("# training\n\nsteps = abc\n")
    assert main(["synth", "--out", str(out), "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"proclearn: config error: {config}:3: steps: expected an integer, got 'abc'" in err
    assert main(["synth", "--out", str(out), "--steps", "1.5"]) == 2
    err = capsys.readouterr().err
    assert "proclearn: config error: --steps: expected an integer, got '1.5'" in err
    assert not out.exists()


def test_every_stage_config_field_is_a_key_with_its_default():
    keys = {spec.name: spec for spec in KEY_SPECS}
    for cls in (SynthSpec, TrainConfig, PcmConfig):
        for field in fields(cls):
            if field.name in ("K", "seed"):
                continue
            assert keys[field.name].default == field.default, field.name
            assert keys[field.name].help == field.metadata["help"], field.name
    assert keys["k"].default == SynthSpec.K
    assert keys["seed"].default == SynthSpec.seed


_FLOAT_SETTINGS = [
    pytest.param(cls, field.name, id=field.name)
    for cls in (SynthSpec, TrainConfig, PcmConfig)
    for field in fields(cls)
    if "range" in field.metadata and isinstance(field.default, float)
]


@pytest.mark.parametrize("cls, name", _FLOAT_SETTINGS)
def test_a_float_setting_must_be_finite(cls, name):
    for value in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            cls(**{name: value})


def test_a_key_of_an_unparseable_type_fails():
    @dataclass(frozen=True)
    class Odd:
        name: str = setting("x", "a free-text setting")

    with pytest.raises(TypeError, match="Odd.name"):
        _field_keys(Odd)


def test_unknown_flag_raises_argparse_exit():
    with pytest.raises(SystemExit) as excinfo:
        main(["synth", "--bogus", "1"])
    assert excinfo.value.code == 2


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "exit codes:" in out
    for _, code, _, text in _FAILURES:
        assert out.count(f"\n  {code}  ") == 1 and f"\n  {code}  {text}\n" in out
    assert "foreground_ratio_target" in out
    assert "--background_bias=-1e-3" in out


# ---------------------------------------------------------------------------
# Pipeline commands
# ---------------------------------------------------------------------------


def test_synth_writes_manifest_features_annotations(tmp_path):
    out = tmp_path / "out"
    assert _run("synth", out) == 0
    manifest = load_manifest(out / "manifest.csv")
    assert manifest.K == 2
    assert [entry.video_id for entry in manifest.entries] == ["video_00", "video_01"]
    sequences = manifest.load_feature_sequences()
    assert all(seq.features.shape == (20, 4) for seq in sequences)
    assert manifest.load_annotation().K == 2


def test_train_then_localize_then_downstream(tmp_path):
    out = tmp_path / "out"
    assert _run("synth", out) == 0
    assert _run("train", out) == 0
    assert (out / "params.cncp").exists()
    trace_lines = (out / "loss_trace.csv").read_text().splitlines()
    assert trace_lines[0] == "step,loss"
    assert len(trace_lines) == 1 + 3

    assert _run("localize", out) == 0
    labels = load_assignment_file(out / "assignments" / "video_00.csv")
    assert labels.shape == (20,)
    assert labels.min() >= 0 and labels.max() <= 2

    assert _run("order", out) == 0
    order_line = (out / "order.csv").read_text()
    assert order_line.startswith("order,")

    assert _run("evaluate", out) == 0
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert any(line.startswith("summary,mean_f1,") for line in metrics)

    assert _run("stats", out) == 0
    stats = (out / "stats.csv").read_text().splitlines()
    assert stats[0] == "stat,value"


def test_localize_defaults_to_manifest_k(tmp_path):
    out = tmp_path / "out"
    assert _run("synth", out) == 0
    assert _run("train", out) == 0
    args = [arg for pair in zip(TINY[::2], TINY[1::2]) if pair[0] != "--k" for arg in pair]
    assert main(["localize", "--out", str(out), *args]) == 0
    labels = load_assignment_file(out / "assignments" / "video_00.csv")
    assert labels.max() <= 2


def test_custom_manifest_path(tmp_path):
    out = tmp_path / "out"
    manifest = tmp_path / "elsewhere" / "my_manifest.csv"
    assert _run("synth", out, "--manifest", str(manifest)) == 0
    assert manifest.exists()
    assert not (out / "manifest.csv").exists()
    assert _run("stats", out, "--manifest", str(manifest)) == 0


def test_run_all_produces_every_artifact(tmp_path):
    out = tmp_path / "out"
    assert _run("run-all", out) == 0
    for name in (
        "manifest.csv",
        "params.cncp",
        "loss_trace.csv",
        "order.csv",
        "metrics.csv",
        "stats.csv",
        "benchmark.csv",
    ):
        assert (out / name).exists(), name
    benchmark = (out / "benchmark.csv").read_text().splitlines()
    assert benchmark[0].startswith("method,")
    assert [line.split(",")[0] for line in benchmark[1:]] == ["cnc", "cluster_all", "random"]


def test_run_all_localizes_once(tmp_path, monkeypatch):
    import proclearn.cli
    import proclearn.synthbench

    calls = []

    def counted(localize):
        def wrapper(*args):
            calls.append(args)
            return localize(*args)

        return wrapper

    for module in (proclearn.cli, proclearn.synthbench):
        monkeypatch.setattr(module, "localize", counted(module.localize))
    assert _run("run-all", tmp_path / "out") == 0
    assert len(calls) == 1


def test_run_all_reads_no_file_it_wrote(tmp_path, monkeypatch):
    import proclearn.cli
    import proclearn.core
    import proclearn.embed

    def refuse(*args, **kwargs):
        raise AssertionError(f"run-all read a file: {args}")

    readers = (
        "load_manifest",
        "load_features",
        "load_feature_header",
        "load_params",
        "load_assignment_file",
        "parse_annotation_file",
    )
    for module in (proclearn.cli, proclearn.core, proclearn.embed):
        for name in readers:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert _run("run-all", tmp_path / "out") == 0


def test_run_all_matches_the_standalone_stages(tmp_path):
    assert _run("run-all", tmp_path / "all") == 0
    for command in ("synth", "train", "localize", "order", "evaluate", "stats"):
        assert _run(command, tmp_path / "staged") == 0
    expected = _tree(tmp_path / "all")
    del expected["benchmark.csv"]
    assert _tree(tmp_path / "staged") == expected


def test_evaluate_reads_each_feature_header_once(tmp_path, monkeypatch):
    import proclearn.cli
    import proclearn.core

    out = tmp_path / "out"
    assert _run("run-all", out) == 0
    expected = (out / "metrics.csv").read_bytes()
    calls = []

    def counted(path):
        calls.append(path)
        return load_feature_header(path)

    for module in (proclearn.cli, proclearn.core):
        if hasattr(module, "load_feature_header"):
            monkeypatch.setattr(module, "load_feature_header", counted)
    assert _run("evaluate", out) == 0
    assert len(calls) == len(load_manifest(out / "manifest.csv").entries)
    assert (out / "metrics.csv").read_bytes() == expected


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, proclearn.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_run_all_is_byte_reproducible(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert _run("run-all", first) == 0
    assert _run("run-all", second) == 0
    assert _tree(first) == _tree(second)


def test_run_all_does_not_depend_on_the_blas_thread_count(tmp_path):
    # At 400 frames OpenBLAS on 2 threads rounds some products differently
    # than on 1 (at 200 it does not), so the CLI must pin it to one.
    args = ["--seed", "3", "--num_videos", "8", "--steps", "30", "--frames_per_video", "400"]
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        command = [sys.executable, "-m", "proclearn.cli", "run-all", "--out", str(out), *args]
        result = subprocess.run(command, capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        trees.append(_tree(out))
    assert trees[0] == trees[1]


@pytest.mark.skipif(
    not np.__config__.CONFIG["Build Dependencies"]["blas"]["name"].startswith("scipy-openblas"),
    reason="numpy is not built on its bundled OpenBLAS",
)
def test_the_process_policy_runs_numpys_openblas_on_one_thread():
    code = (
        "import ctypes, numpy as np; from proclearn.cli import _set_process_policy; "
        "lib = ctypes.CDLL(np._core._multiarray_umath.__file__); "
        "before = lib.scipy_openblas_get_num_threads64_(); _set_process_policy(); "
        "print(before, lib.scipy_openblas_get_num_threads64_())"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": path}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    before, after = result.stdout.split()
    assert after == "1", f"{before} threads before the pin, {after} after"


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except TypeError:  # Windows loads no CDLL(None)
        return False


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_run_all_keeps_its_heap_between_steps_and_skips_numpy_ma(tmp_path):
    # On glibc's default policy the heap's freed top goes back to the OS after
    # each training step and the next step faults it in again: hundreds of
    # faults a step on the default task, against about 1 with the CLI's policy.
    # -X importtime lists every module the run imports, lazy ones included.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    faults = {}
    for steps in (10, 60):
        out = tmp_path / f"steps{steps}"
        command = [sys.executable, "-X", "importtime", "-m", "proclearn.cli", "run-all",
                   "--out", str(out), "--steps", str(steps)]
        with open(tmp_path / f"steps{steps}.stderr", "w+") as err:
            proc = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=err, env=env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)  # Popen did not reap it
            err.seek(0)
            stderr = err.read()
        assert proc.returncode == 0, stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()
                    if line.startswith("import time:")}
        assert "numpy" in imported and "numpy.ma" not in imported
        faults[steps] = usage.ru_minflt
    if _libc_has_mallopt():
        assert (faults[60] - faults[10]) / 50 < 10, faults


def test_run_all_with_relative_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run("run-all", "demo") == 0
    assert _run("run-all", tmp_path / "absolute") == 0
    assert _tree(tmp_path / "demo") == _tree(tmp_path / "absolute")


def test_no_temp_files_left_behind(tmp_path):
    out = tmp_path / "out"
    assert _run("run-all", out) == 0
    stray = [p for p in out.rglob(".*") if p.is_file()]
    assert stray == []


# ---------------------------------------------------------------------------
# Failure exit codes
# ---------------------------------------------------------------------------


def test_missing_manifest_exits_3(tmp_path):
    assert _run("train", tmp_path / "void") == 3


def test_an_unreadable_input_exits_3_naming_the_path(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert _run("synth", out) == 0
    directory = tmp_path / "a-directory"
    directory.mkdir()
    capsys.readouterr()
    assert _run("stats", out, "--manifest", str(directory)) == 3
    assert f"proclearn: missing or unreadable file: {directory}: " in capsys.readouterr().err
    assert _run("stats", out, "--config", str(directory)) == 3
    assert f"unreadable file: {directory}: " in capsys.readouterr().err
    feature = out / "features" / "video_01.feat"
    feature.unlink()
    feature.mkdir()
    for command in ("train", "stats"):
        assert _run(command, out) == 3
        assert f"unreadable file: {feature}: " in capsys.readouterr().err
    feature.rmdir()
    assert _run("synth", out) == 0
    # A process run as root reads a file whatever its mode bits, so the read
    # is denied in the reader rather than by chmod.
    opened = Path.open

    def denied(path, *args, **kwargs):
        if path.name == "video_01.csv":
            raise PermissionError(13, "Permission denied", str(path))
        return opened(path, *args, **kwargs)

    monkeypatch.setattr(Path, "open", denied)
    capsys.readouterr()
    assert _run("stats", out) == 3
    err = capsys.readouterr().err
    assert f"unreadable file: {out / 'annotations' / 'video_01.csv'}: Permission denied" in err


def test_an_annotation_segment_error_exits_5_naming_the_file_and_line(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("synth", out) == 0
    annotation = out / "annotations" / "video_00.csv"
    annotation.write_text("start,end,label\nnan,5.0,1\n")
    capsys.readouterr()
    assert _run("stats", out) == 5
    assert f"{annotation}:2: segment start nan must precede end 5.0" in capsys.readouterr().err


def test_malformed_manifest_exits_4(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.csv").write_text("not,a,manifest\njunk\n")
    assert _run("stats", out) == 4


@pytest.mark.parametrize("fps", [0.0, float("nan"), float("inf")])
def test_a_bad_fps_in_a_feature_header_exits_4_naming_the_file(tmp_path, capsys, fps):
    out = tmp_path / "out"
    for command in ("synth", "train", "localize"):
        assert _run(command, out) == 0
    feature = out / "features" / "video_01.feat"
    raw = feature.read_bytes()
    feature.write_bytes(raw[:16] + struct.pack("<d", fps) + raw[24:])
    capsys.readouterr()
    for command in ("train", "evaluate", "stats"):
        assert _run(command, out) == 4
        assert f"video_01.feat: header declares fps {fps}" in capsys.readouterr().err


def test_a_table_that_is_not_utf8_exits_4_naming_the_file(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("synth", out) == 0
    capsys.readouterr()
    binary = out / "features" / "video_00.feat"
    assert _run("stats", out, "--manifest", str(binary)) == 4
    assert "video_00.feat: not UTF-8 text" in capsys.readouterr().err
    annotation = out / "annotations" / "video_01.csv"
    annotation.write_bytes(annotation.read_bytes() + b"1.0,2.0,1 \xff\n")
    assert _run("stats", out) == 4
    assert "video_01.csv: not UTF-8 text" in capsys.readouterr().err


def test_invalid_domain_exits_5(tmp_path):
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--k", "0"]) == 5
    assert _run("synth", out) == 0
    assert _run("train", out, "--steps", "-5") == 5
    assert not (out / "params.cncp").exists()
    assert _run("train", out) == 0
    assert _run("localize", out, "--k", "0") == 5


def test_localize_rejects_k_above_the_frame_count(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("synth", out) == 0
    assert _run("train", out) == 0
    capsys.readouterr()
    assert _run("localize", out, "--k", "41") == 5
    err = capsys.readouterr().err
    assert "K=41" in err and "40 frames" in err
    assert not (out / "assignments").exists()


def test_out_of_range_assignment_names_its_file_and_exits_5(tmp_path, capsys):
    out = tmp_path / "out"
    for command in ("synth", "train", "localize"):
        assert _run(command, out) == 0
    save_assignment_file(out / "assignments" / "video_01.csv", np.full(20, 3))
    capsys.readouterr()
    for command in ("order", "evaluate"):
        assert _run(command, out) == 5
        err = capsys.readouterr().err
        assert "assignments/video_01.csv" in err and "0..2" in err


def test_run_all_rejects_a_task_name_the_manifest_cannot_store(tmp_path):
    out = tmp_path / "out"
    assert _run("run-all", out, "--task_name", "a,b") == 5
    assert not out.exists()


def _just_outside(default, relation, bound):
    """The value of ``default``'s type nearest ``bound`` that breaks ``relation``."""
    if relation in ("<", ">"):
        return type(default)(bound)
    up = relation == "<="
    if isinstance(default, int):
        return bound + 1 if up else bound - 1
    return float(np.nextafter(bound, np.inf if up else -np.inf))


_OUT_OF_RANGE = [
    pytest.param(
        field.name, relation, bound, _just_outside(field.default, relation, bound),
        id=f"{field.name}{relation}{bound}",
    )
    for cls in (SynthSpec, TrainConfig, PcmConfig)
    for field in fields(cls)
    if field.metadata.get("help")  # a key; K's range is k's, tested below
    for relation, _, bound in field.metadata["range"]
]


@pytest.mark.parametrize("key, relation, bound, value", _OUT_OF_RANGE)
def test_every_command_fails_first_just_outside_each_declared_range(
    tmp_path, capsys, key, relation, bound, value
):
    # --out does not exist, so a command that read an input first would exit 3.
    out = tmp_path / "out"
    for command in _COMMANDS:
        assert main([command, "--out", str(out), f"--{key}={value!r}"]) == 5, command
        message = f"--{key}: {key} must be {relation} {bound}, got {value!r}\n"
        assert message in capsys.readouterr().err, command
        assert not out.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("noise_sigma", "-0.5", "must be >= 0, got -0.5"),
        ("steps", "-3", "must be >= 0, got -3"),
        ("kmeans_restarts", "0", "must be >= 1, got 0"),
    ],
    ids=["SynthSpec", "TrainConfig", "PcmConfig"],
)
def test_every_command_fails_first_on_a_config_file_value_out_of_range(
    tmp_path, capsys, key, value, message
):
    config, out = tmp_path / "run.cfg", tmp_path / "out"
    config.write_text(f"# out of range\n{key} = {value}\n")
    for command in _COMMANDS:
        assert main([command, "--out", str(out), "--config", str(config)]) == 5, command
        assert f"{config}:2: {key}: {key} {message}\n" in capsys.readouterr().err, command
        assert not out.exists()


def test_every_command_rejects_k_below_1_first(tmp_path, capsys):
    # --out does not exist, so a command that read an input first would exit 3.
    config, out = tmp_path / "run.cfg", tmp_path / "out"
    config.write_text("# K comes from k\nk = 0\n")
    for command in _COMMANDS:
        assert main([command, "--out", str(out), "--k", "0"]) == 5, command
        message = "proclearn: invalid input: --k: K must be >= 1, got 0\n"
        assert capsys.readouterr().err == message, command
        assert main([command, "--out", str(out), "--config", str(config)]) == 5, command
        message = f"proclearn: invalid input: {config}:2: k: K must be >= 1, got 0\n"
        assert capsys.readouterr().err == message, command
        assert not out.exists()


def test_help_shows_each_declared_range(capsys):
    with pytest.raises(SystemExit):
        main(["run-all", "--help"])
    lines = capsys.readouterr().out.splitlines()
    for line in [
        "  foreground_ratio_target   default 0.6: target key-step frame fraction (> 0, <= 1)",
        "  hidden_dim                default 32: embedder hidden width (>= 1)",
        "  background_bias           default 0.0: unary offset raising background prevalence",
        "  k                         default 5: number of key-steps (localize/order default to"
        " the manifest's) (>= 1)",
    ]:
        assert line in lines


def _rename_manifest_row(manifest: Path, row: int, video_id: str) -> None:
    lines = manifest.read_text().splitlines()
    lines[row] = f"{video_id},{lines[row].split(',', 1)[1]}"
    manifest.write_text("\n".join(lines) + "\n")


def test_a_manifest_id_leading_out_of_out_exits_4_and_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = Path("trav") / "run"
    for command in ("synth", "train"):
        assert _run(command, out) == 0
    _rename_manifest_row(out / "manifest.csv", 1, "../../escaped")
    assert _run("localize", out) == 4
    assert [p.name for p in Path("trav").iterdir()] == ["run"]
    assert not (out / "assignments").exists()


def test_a_repeated_manifest_id_exits_4_naming_both_lines(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("synth", out) == 0
    _rename_manifest_row(out / "manifest.csv", 2, "video_00")
    capsys.readouterr()
    for command in ("train", "localize"):
        assert _run(command, out) == 4
        assert "manifest.csv:3: video id 'video_00' repeats line 2" in capsys.readouterr().err
    assert not (out / "params.cncp").exists()


def test_localize_names_the_video_whose_feature_width_differs(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("synth", out) == 0
    assert _run("train", out) == 0
    assert _run("synth", out, "--feature_dim", "8") == 0
    capsys.readouterr()
    assert _run("localize", out) == 5
    err = capsys.readouterr().err
    assert "video 'video_00': feature dim 8" in err
    assert not (out / "assignments").exists()


def test_train_names_a_one_frame_video_and_exits_5(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("synth", out) == 0
    entry = load_manifest(out / "manifest.csv").entries[1]
    save_features(
        entry.feature_path,
        FeatureSequence(video_id=entry.video_id, features=np.ones((1, 4)), fps=1.0),
    )
    capsys.readouterr()
    assert _run("train", out) == 5
    assert entry.video_id in capsys.readouterr().err
    assert not (out / "params.cncp").exists()


def test_localize_names_a_non_finite_embedding_and_exits_5(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("synth", out) == 0
    assert _run("train", out) == 0
    params = load_params(out / "params.cncp")
    # Output weights this large overflow every embedding row to NaN.
    save_params(out / "params.cncp", replace(params, W2=np.full_like(params.W2, 1e308)))
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert _run("localize", out) == 5
    err = capsys.readouterr().err
    assert "'video_00'" in err and "non-finite" in err
    assert not (out / "assignments").exists()


def test_a_bad_parameter_file_exits_5_naming_it(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("synth", out) == 0
    assert _run("train", out) == 0
    path = out / "params.cncp"
    raw = path.read_bytes()
    E = load_params(path).embed_dim
    # The last entry is b2's; a header of H = 0 holds b2's E entries alone.
    for data, message in [
        (raw[:-8] + struct.pack("<d", float("nan")), "non-finite entries in b2"),
        (raw[:12] + struct.pack("<II", 0, E) + bytes(8 * E), "hidden_dim must be >= 1, got 0"),
    ]:
        path.write_bytes(data)
        capsys.readouterr()
        assert _run("localize", out) == 5
        assert f"proclearn: invalid input: {path}: {message}\n" in capsys.readouterr().err
        assert not (out / "assignments").exists()


def test_diverging_training_exits_6_from_train(tmp_path, capsys):
    # 1e300 overflows the next step's embedding; 1e308 overflows the update itself.
    for rate, cause in [("1e300", "embedding norm"), ("1e308", "overflow encountered")]:
        out = tmp_path / rate
        assert _run("run-all", out, "--learning_rate", rate) == 6
        err = capsys.readouterr().err
        assert cause in err
        assert "training step " in err and "'video_00'" in err
        assert not (out / "params.cncp").exists()


@pytest.mark.parametrize("rate", ["0", "-0.5"])
def test_non_positive_learning_rate_exits_5(tmp_path, capsys, rate):
    out = tmp_path / "out"
    assert _run("synth", out) == 0
    capsys.readouterr()
    assert _run("train", out, "--learning_rate", rate) == 5
    assert "learning_rate" in capsys.readouterr().err
    assert not (out / "params.cncp").exists()


def test_numeric_failure_exits_6(tmp_path):
    out = tmp_path / "out"
    assert _run("synth", out) == 0
    with np.errstate(all="ignore"):
        code = _run("train", out, "--temperature", "5e-324")
    assert code == 6


# ---------------------------------------------------------------------------
# One failure table for every input
# ---------------------------------------------------------------------------

# Each input kind: its path in the tree, the command that reads it, and the
# bytes of each content fault made from the file's own bytes.
_NAN = struct.pack("<d", float("nan"))


def _cut_last_line(data: bytes) -> bytes:
    """The text with its last line ending after that line's first comma."""
    start = data.rindex(b"\n", 0, len(data) - 1) + 1
    return data[: data.index(b",", start) + 1]


_INPUTS = {
    "manifest": ("manifest.csv", "stats", {
        "undecodable": lambda data: data + b"video_\xff,x,-\n",
        "truncated": _cut_last_line,
        "non-finite": lambda data: b"task,synthetic,nan" + data[data.index(b"\n"):],
        "out-of-domain": lambda data: b"task,synthetic,0" + data[data.index(b"\n"):],
    }),
    "config": ("run.cfg", "stats", {
        "undecodable": lambda data: data + b"task_name = \xff\n",
        "truncated": lambda data: data[: data.rindex(b"=") + 1],
        "non-finite": lambda data: data + b"learning_rate = nan\n",
        "out-of-domain": lambda data: data + b"steps = -3\n",
    }),
    "feature": ("features/video_01.feat", "localize", {
        "undecodable": lambda data: b"JUNK" + data[4:],
        "truncated": lambda data: data[:-8],
        "non-finite": lambda data: data[:-8] + _NAN,
        "out-of-domain": lambda data: data[:16] + struct.pack("<d", 0.0) + data[24:],
    }),
    "annotation": ("annotations/video_01.csv", "stats", {
        "undecodable": lambda data: data + b"1.0,2.0,1 \xff\n",
        "truncated": _cut_last_line,
        "non-finite": lambda data: data + b"nan,0.5,1\n",
        "out-of-domain": lambda data: data + b"0.0,0.1,9\n",
    }),
    "assignment": ("assignments/video_01.csv", "evaluate", {
        "undecodable": lambda data: data + b"40,\xff\n",
        "truncated": _cut_last_line,
        "non-finite": lambda data: data + b"40,nan\n",
        "out-of-domain": lambda data: data + b"40,9\n",
    }),
    "params": ("params.cncp", "localize", {
        "undecodable": lambda data: b"JUNK" + data[4:],
        "truncated": lambda data: data[:-8],
        "non-finite": lambda data: data[:-8] + _NAN,
        # H = 0: the payload then holds b2's E entries alone.
        "out-of-domain": lambda data: data[:12] + struct.pack("<I", 0) + data[16:20]
        + bytes(8 * struct.unpack_from("<I", data, 16)[0]),
    }),
}

# The exit code each fault gives each input kind.
_FAILURE_TABLE = {
    #              missing directory undecodable truncated non-finite out-of-domain
    "manifest":   (3,      3,        4,          4,        4,         4),
    "config":     (3,      3,        2,          2,        2,         5),
    "feature":    (3,      3,        4,          4,        5,         4),
    "annotation": (3,      3,        4,          4,        5,         5),
    "assignment": (3,      3,        4,          4,        4,         5),
    "params":     (3,      3,        4,          4,        5,         5),
}
_FAULTS = ("missing", "directory", "undecodable", "truncated", "non-finite", "out-of-domain")

# The rows whose fault lies on one line, the file's last: their message names
# ``path:line``; every other row names the path alone.
_ONE_LINE = {
    ("manifest", "truncated"),
    ("config", "truncated"), ("config", "non-finite"), ("config", "out-of-domain"),
    ("annotation", "truncated"), ("annotation", "non-finite"), ("annotation", "out-of-domain"),
    ("assignment", "truncated"), ("assignment", "non-finite"),
}


@pytest.fixture(scope="module")
def base_tree(tmp_path_factory):
    """One small run-all tree, with a config file, that each row copies."""
    out = tmp_path_factory.mktemp("failure-table") / "out"
    args = ["--num_videos", "3", "--frames_per_video", "40", "--steps", "3"]
    assert main(["run-all", "--out", str(out), *args]) == 0
    (out / "run.cfg").write_text("# a valid config\nseed = 3\n")
    return out


@pytest.mark.parametrize(
    "kind, fault, code",
    [
        pytest.param(kind, fault, code, id=f"{kind}-{fault}")
        for kind, codes in _FAILURE_TABLE.items()
        for fault, code in zip(_FAULTS, codes)
    ],
)
def test_every_input_fault_exits_with_its_code_naming_the_file(
    tmp_path, capsys, base_tree, kind, fault, code
):
    out = tmp_path / "out"
    shutil.copytree(base_tree, out)
    relative, command, content_faults = _INPUTS[kind]
    path = out / relative
    source = str(path)
    if fault in ("missing", "directory"):
        path.unlink()
        if fault == "directory":
            path.mkdir()
    else:
        path.write_bytes(data := content_faults[fault](path.read_bytes()))
        if (kind, fault) in _ONE_LINE:
            source = f"{path}:{len(data.splitlines())}"
    capsys.readouterr()
    assert main([command, "--out", str(out), "--config", str(out / "run.cfg")]) == code
    prefix = next(prefix for _, row_code, prefix, _ in _FAILURES if row_code == code)
    # A missing file's message is its path alone; any other names its source first.
    named = f"{source}\n" if fault == "missing" else f"{source}: "
    assert capsys.readouterr().err.startswith(f"proclearn: {prefix}: {named}")


@pytest.mark.parametrize("command", ["evaluate", "order"])
@pytest.mark.parametrize("label", ["99999999999999999999999", "-99999999999999999999999"])
def test_an_assignment_label_outside_int64_exits_4_naming_its_line(
    tmp_path, capsys, base_tree, command, label
):
    out = tmp_path / "out"
    shutil.copytree(base_tree, out)
    path = out / "assignments" / "video_02.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = f"1,{label}\n"
    path.write_text("".join(lines))
    capsys.readouterr()
    assert main([command, "--out", str(out)]) == 4
    message = f"proclearn: bad file format: {path}:3: expected a 64-bit integer, got {label}\n"
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("text", ["1_0", "\u0663", "\uff15"], ids=["_", "arabic", "fullwidth"])
@pytest.mark.parametrize("kind", ["flag", "config", "manifest", "annotation", "frame", "label"])
def test_every_number_read_from_text_rejects_underscores_and_non_ascii_digits(
    tmp_path, capsys, base_tree, kind, text
):
    out = tmp_path / "out"
    shutil.copytree(base_tree, out)
    manifest = (out / "manifest.csv").read_text()
    # kind: (command, file in the tree, its new text, the message's source after the file)
    edits = {
        "config": ("synth", "run.cfg", f"seed = {text}\n", ":1: seed"),
        "manifest": ("stats", "manifest.csv", f"task,synthetic,{text}\n"
                     + manifest.split("\n", 1)[1], ""),
        "annotation": ("stats", "annotations/video_01.csv",
                       f"start,end,label\n0.0,{text},1\n", ":2"),
        "frame": ("evaluate", "assignments/video_01.csv", f"frame,label\n{text},0\n", ":2"),
        "label": ("evaluate", "assignments/video_01.csv", f"frame,label\n0,{text}\n", ":2"),
    }
    capsys.readouterr()
    if kind == "flag":
        code = main(["synth", "--out", str(tmp_path / "new"), "--seed", text])
        source, expected = "--seed", (2, "config error")
    else:
        command, relative, data, line = edits[kind]
        (out / relative).write_text(data)
        code = main([command, "--out", str(tmp_path / "new" if command == "synth" else out),
                     "--config", str(out / "run.cfg")])
        source = f"{out / relative}{line}"
        expected = (2, "config error") if kind == "config" else (4, "bad file format")
    noun = "a number" if kind == "annotation" else "an integer"
    assert (code, capsys.readouterr().err) == (
        expected[0], f"proclearn: {expected[1]}: {source}: expected {noun}, got {text!r}\n"
    )
    assert not (tmp_path / "new").exists()


def test_stats_on_a_task_without_key_step_segments_exits_5_naming_the_manifest(
    tmp_path, capsys, base_tree
):
    out = tmp_path / "out"
    shutil.copytree(base_tree, out)
    for path in (out / "annotations").iterdir():
        path.write_text("start,end,label\n")
    capsys.readouterr()
    assert main(["stats", "--out", str(out)]) == 5
    message = f"{out / 'manifest.csv'}: no key-step segments; repetition rate undefined"
    assert capsys.readouterr().err == f"proclearn: invalid input: {message}\n"
    assert (out / "stats.csv").read_bytes() == (base_tree / "stats.csv").read_bytes()


@pytest.mark.parametrize("keep", [39, 41])
def test_an_assignment_of_the_wrong_length_exits_5_naming_its_file(
    tmp_path, capsys, base_tree, keep
):
    out = tmp_path / "out"
    shutil.copytree(base_tree, out)
    path = out / "assignments" / "video_02.csv"
    save_assignment_file(path, np.resize(load_assignment_file(path), keep))
    capsys.readouterr()
    assert main(["evaluate", "--out", str(out)]) == 5
    message = f"proclearn: invalid input: {path}: {keep} labels for 40 frames\n"
    assert capsys.readouterr().err == message
    assert (out / "metrics.csv").read_bytes() == (base_tree / "metrics.csv").read_bytes()


def test_order_on_an_all_background_tree_exits_5_naming_the_assignments(
    tmp_path, capsys, base_tree
):
    out = tmp_path / "out"
    shutil.copytree(base_tree, out)
    assignments = out / "assignments"
    for path in assignments.iterdir():
        save_assignment_file(path, np.zeros(40, dtype=np.int64))
    capsys.readouterr()
    assert main(["order", "--out", str(out)]) == 5
    message = "assignment contains no key-step frames to order"
    assert capsys.readouterr().err == f"proclearn: invalid input: {assignments}: {message}\n"
