from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest

from proclearn.cli import (
    KEY_SPECS,
    ConfigError,
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


def test_malformed_manifest_exits_4(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.csv").write_text("not,a,manifest\njunk\n")
    assert _run("stats", out) == 4


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


@pytest.mark.parametrize(
    "flag", [("--smoothness", "-1"), ("--kmeans_restarts", "0"), ("--learning_rate", "0")]
)
def test_run_all_checks_every_stage_setting_before_it_writes(tmp_path, capsys, flag):
    out = tmp_path / "out"
    assert _run("run-all", out, *flag) == 5
    assert flag[0][2:] in capsys.readouterr().err
    assert not out.exists()


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
