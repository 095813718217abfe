import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diffenh import cli, signal

GOLDEN = Path(__file__).parent / "golden"

HELP_CASES = [
    ("help_root.txt", ["--help"]),
    ("help_train.txt", ["train", "--help"]),
    ("help_enhance.txt", ["enhance", "--help"]),
    ("help_sample.txt", ["sample", "--help"]),
    ("help_validate_sde.txt", ["validate-sde", "--help"]),
    ("help_benchmark.txt", ["benchmark", "--help"]),
]


@pytest.mark.parametrize("golden,argv", HELP_CASES, ids=[c[0] for c in HELP_CASES])
def test_help_matches_golden(golden, argv, capsys):
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "diffenh.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "help_root.txt").read_text()


def test_import_loads_no_scipy():
    # WAV input and output are numpy code, so start-up pays for no scipy module
    code = ("import diffenh, diffenh.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_no_command_is_usage_error(capsys):
    assert cli.main([]) == cli.EXIT_USAGE
    assert "a command is required" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert cli.main(["validate-sde", "--no-such-flag"]) == cli.EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_validate_sde_pass_and_fail(capsys):
    assert cli.main(["validate-sde"]) == cli.EXIT_OK
    assert "PASS" in capsys.readouterr().out
    # two RK4 steps are far too coarse to meet the tolerance
    assert cli.main(["validate-sde", "--ode-steps", "2"]) == cli.EXIT_VALIDATION
    assert "FAIL" in capsys.readouterr().out


def test_missing_checkpoint_is_io_error(tmp_path, capsys):
    rc = cli.main(
        ["sample", "--ckpt", str(tmp_path / "nope.bin"), "--output", str(tmp_path / "o.wav")]
    )
    assert rc == cli.EXIT_IO
    assert "error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "tiny.bin"
    rc = cli.main(
        [
            "train", "--synthetic", "gaussian", "--out", str(path),
            "--items", "2", "--bins", "8", "--frames", "16", "--patch-frames", "8",
            "--hidden", "8", "--epochs", "1", "--steps-per-epoch", "2", "--seed", "0",
        ]
    )
    assert rc == cli.EXIT_OK
    assert path.exists()
    return path


def test_train_writes_checkpoint(tiny_ckpt, capsys):
    # fixture already ran the command; a fresh run must be deterministic
    other = tiny_ckpt.parent / "again.bin"
    rc = cli.main(
        [
            "train", "--synthetic", "gaussian", "--out", str(other),
            "--items", "2", "--bins", "8", "--frames", "16", "--patch-frames", "8",
            "--hidden", "8", "--epochs", "1", "--steps-per-epoch", "2", "--seed", "0",
        ]
    )
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "# seed=0" in out
    assert "epoch 1: loss" in out
    assert other.read_bytes() == tiny_ckpt.read_bytes()


def test_train_without_data_source_is_usage_error(tmp_path, capsys):
    rc = cli.main(["train", "--out", str(tmp_path / "x.bin")])
    assert rc == cli.EXIT_USAGE
    assert "needs --data DIR or --synthetic" in capsys.readouterr().err


def _write_noisy(tmp_path, n=2000, rate=16000, seed=3):
    rng = np.random.default_rng(seed)
    clean = signal.Waveform(0.3 * np.sin(2 * np.pi * 440 * np.arange(n) / rate), rate)
    noisy, _ = signal.mix_at_snr(
        clean, signal.Waveform(rng.standard_normal(n), rate), 5.0, seed=seed
    )
    peak = np.max(np.abs(noisy.samples))
    noisy = signal.Waveform(noisy.samples / (2 * peak), rate)
    clean = signal.Waveform(clean.samples / (2 * peak), rate)
    noisy_path, clean_path = tmp_path / "noisy.wav", tmp_path / "clean.wav"
    signal.save_wav(noisy_path, noisy)
    signal.save_wav(clean_path, clean)
    return noisy_path, clean_path


FAST_ENHANCE = [
    "--em-iters", "1", "--reverse-steps", "4", "--batch", "1",
    "--window-len", "64", "--hop", "16",
]


def test_enhance_with_metrics_and_report(tiny_ckpt, tmp_path, capsys):
    noisy_path, clean_path = _write_noisy(tmp_path)
    out_path = tmp_path / "enhanced.wav"
    rep_path = tmp_path / "report.json"
    rc = cli.main(
        [
            "enhance", "--input", str(noisy_path), "--ckpt", str(tiny_ckpt),
            "--output", str(out_path), "--clean", str(clean_path),
            "--report", str(rep_path), "--seed", "1", *FAST_ENHANCE,
        ]
    )
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "# seed=1" in out
    assert "si_sdr_db=" in out and "delta_db=" in out
    assert out_path.exists()
    enhanced = signal.load_wav(out_path)
    assert len(enhanced) == len(signal.load_wav(noisy_path))
    payload = json.loads(rep_path.read_text())
    assert set(payload) == {"si_sdr_db", "input_si_sdr_db", "delta_db"}


@pytest.mark.parametrize("fault", [ValueError, RuntimeError])
def test_internal_fault_is_exit_5_in_one_line(fault, tiny_ckpt, tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise fault("invariant broken")

    monkeypatch.setattr(cli, "enhance_waveform", broken)
    noisy_path, _ = _write_noisy(tmp_path)
    out_path = tmp_path / "o.wav"
    rc = cli.main(["enhance", "--input", str(noisy_path), "--ckpt", str(tiny_ckpt),
                   "--output", str(out_path), *FAST_ENHANCE])
    assert rc == cli.EXIT_INTERNAL == 5
    err = capsys.readouterr().err
    assert err == f"diffenh: internal error: {fault.__name__}: invariant broken\n"
    assert "Traceback" not in err and not out_path.exists()


def test_enhance_rejects_wrong_sample_rate(tiny_ckpt, tmp_path, capsys):
    wav = signal.Waveform(np.zeros(1000) + 0.1, 8000)
    path = tmp_path / "slow.wav"
    signal.save_wav(path, wav)
    rc = cli.main(
        ["enhance", "--input", str(path), "--ckpt", str(tiny_ckpt),
         "--output", str(tmp_path / "o.wav"), *FAST_ENHANCE]
    )
    assert rc == cli.EXIT_IO
    assert "16 kHz" in capsys.readouterr().err


def test_enhance_takes_its_schedule_from_the_checkpoint(tmp_path, capsys):
    from diffenh import score
    from diffenh.em import EnhancementConfig, enhance_waveform

    ckpt = tmp_path / "gamma2.bin"
    assert cli.main(
        ["train", "--synthetic", "gaussian", "--out", str(ckpt), "--gamma", "2.0",
         "--items", "2", "--bins", "8", "--frames", "16", "--patch-frames", "8",
         "--hidden", "8", "--epochs", "1", "--steps-per-epoch", "2"]
    ) == cli.EXIT_OK
    noisy_path, _ = _write_noisy(tmp_path)
    out_path = tmp_path / "o.wav"
    args = ["enhance", "--input", str(noisy_path), "--ckpt", str(ckpt),
            "--output", str(out_path), *FAST_ENHANCE]
    assert cli.main(args) == cli.EXIT_OK
    model, sched = score.load_checkpoint(ckpt)
    assert sched.gamma == 2.0
    expected = enhance_waveform(signal.load_wav(noisy_path), model, sched,
                                signal.StftConfig(window_len=64, hop=16),
                                EnhancementConfig(em_iters=1, reverse_steps=4, batch=1))
    expected_path = tmp_path / "expected.wav"
    signal.save_wav(expected_path, expected)
    assert np.array_equal(signal.load_wav(out_path).samples, signal.load_wav(expected_path).samples)
    capsys.readouterr()
    # the schedule is the checkpoint's: enhance has no flag to set it
    assert cli.main(args + ["--gamma", "2.0"]) == cli.EXIT_USAGE
    assert "--gamma" in capsys.readouterr().err


def test_sample_writes_wav_and_dump(tiny_ckpt, tmp_path, capsys):
    wav_path = tmp_path / "sample.wav"
    dump_path = tmp_path / "sample.spec"
    rc = cli.main(
        [
            "sample", "--ckpt", str(tiny_ckpt), "--output", str(wav_path),
            "--dump-spec", str(dump_path), "--frames", "8",
            "--reverse-steps", "4", "--window-len", "64", "--hop", "16",
        ]
    )
    assert rc == cli.EXIT_OK
    spec = signal.load_spectrogram(dump_path)
    assert spec.shape == (33, 8)
    assert len(signal.load_wav(wav_path)) == 7 * 16
    capsys.readouterr()


def test_sample_requires_some_output(tiny_ckpt, capsys):
    assert cli.main(["sample", "--ckpt", str(tiny_ckpt)]) == cli.EXIT_USAGE
    assert "--output and/or --dump-spec" in capsys.readouterr().err


def test_config_file_merge_explicit_flags_win(tiny_ckpt, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n\nframes = 8\nreverse_steps = 4\nseed = 7\nwindow_len = 64\nhop = 16\n")
    dump = tmp_path / "a.spec"
    rc = cli.main(
        ["sample", "--config", str(cfg), "--ckpt", str(tiny_ckpt),
         "--dump-spec", str(dump), "--seed", "9"]
    )
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "# seed=9" in out  # explicit flag beats the config value
    assert signal.load_spectrogram(dump).shape == (33, 8)


def test_config_value_may_start_with_a_dash(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("snrs = -5,0,5\n")
    argv = cli._merge_config(["benchmark", "--config", str(cfg), "--ckpt", "c.bin"])
    assert cli.build_parser().parse_args(argv).snrs == "-5,0,5"


@pytest.mark.parametrize("flag", ["--c", "--con", "--conf", "--confi"])
def test_abbreviated_config_flag_is_a_usage_error(flag, tmp_path, capsys):
    # the subcommand parser would accept the abbreviation, but the file would
    # never be merged: validate-sde used to print PASS here
    two = tmp_path / "two.cfg"
    two.write_text("ode_steps = 2\n")
    assert cli.main(["validate-sde", "--config", str(two)]) == cli.EXIT_VALIDATION
    assert "FAIL" in capsys.readouterr().out
    for argv in ([flag, str(two)], [f"{flag}={two}"]):
        assert cli.main(["validate-sde", *argv]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "--config" in captured.err and "PASS" not in captured.out


@pytest.mark.parametrize("key", ["config", "conf"])
def test_config_file_naming_a_config_file_is_a_usage_error(key, tmp_path, capsys):
    # only the command line's --config is merged: validate-sde used to print PASS here
    two = tmp_path / "two.cfg"
    two.write_text("ode_steps = 2\n")
    outer = tmp_path / "outer.cfg"
    outer.write_text(f"# nested\n{key} = {two}\n")
    assert cli.main(["validate-sde", "--config", str(outer)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert f"{outer}:2:" in captured.err and "PASS" not in captured.out


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("frames 8\n")
    assert cli.main(["validate-sde", "--config", str(bad)]) == cli.EXIT_USAGE
    assert "expected key=value" in capsys.readouterr().err
    assert cli.main(["validate-sde", "--config", str(tmp_path / "gone.cfg")]) == cli.EXIT_IO
    capsys.readouterr()


def test_benchmark_synthetic_deterministic(tiny_ckpt, tmp_path, capsys):
    rep_a, rep_b = tmp_path / "a.json", tmp_path / "b.json"
    args = [
        "benchmark", "--ckpt", str(tiny_ckpt), "--synthetic",
        "--utterances", "1", "--frames", "16", "--snrs", "0",
        "--seed", "4", *FAST_ENHANCE,
    ]
    assert cli.main(args + ["--report", str(rep_a)]) == cli.EXIT_OK
    assert cli.main(args + ["--report", str(rep_b), "--jobs", "2"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "aggregate over 1:" in out
    a, b = json.loads(rep_a.read_text()), json.loads(rep_b.read_text())
    assert a == b  # thread count must not change results
    assert a["aggregate"]["count"] == 1
    assert a["files"][0]["file"] == "synthetic-000@+0dB"


def test_benchmark_requires_source(tiny_ckpt, capsys):
    assert cli.main(["benchmark", "--ckpt", str(tiny_ckpt)]) == cli.EXIT_USAGE
    assert "--synthetic or both" in capsys.readouterr().err


def test_benchmark_wav_dirs(tiny_ckpt, tmp_path, capsys):
    clean_dir, noise_dir = tmp_path / "clean", tmp_path / "noise"
    clean_dir.mkdir()
    noise_dir.mkdir()
    rng = np.random.default_rng(0)
    for i in range(2):
        signal.save_wav(
            clean_dir / f"c{i}.wav",
            signal.Waveform(0.2 * np.sin(2 * np.pi * (300 + 100 * i) * np.arange(1600) / 16000), 16000),
        )
    signal.save_wav(noise_dir / "n0.wav", signal.Waveform(0.2 * rng.standard_normal(1600), 16000))
    rc = cli.main(
        [
            "benchmark", "--ckpt", str(tiny_ckpt), "--clean-dir", str(clean_dir),
            "--noise-dir", str(noise_dir), "--snrs", "0,5", *FAST_ENHANCE,
        ]
    )
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "aggregate over 4:" in out
    assert "c0.wav@+0dB" in out and "c1.wav@+5dB" in out


_FAST_SAMPLE = "--frames 8 --reverse-steps 2 --window-len 64 --hop 16"
_FAST_TRAIN = ("--synthetic gaussian --items 1 --bins 4 --frames 8 --patch-frames 8 "
               "--hidden 4 --epochs 1 --steps-per-epoch 1")
_FAST = " ".join(FAST_ENHANCE)

# (id, argv, offending path); {gone} is a directory that does not exist
IO_CASES = [
    ("missing --config", "validate-sde --config {gone}/run.cfg", "{gone}/run.cfg"),
    ("missing --ckpt", "sample --ckpt {gone}/c.bin --output {tmp}/o.wav", "{gone}/c.bin"),
    ("missing --input", "enhance --input {gone}/n.wav --ckpt {ckpt} --output {tmp}/o.wav "
     + _FAST, "{gone}/n.wav"),
    ("unwritable enhance --output", "enhance --input {noisy} --ckpt {ckpt} "
     "--output {gone}/o.wav " + _FAST, "{gone}/o.wav"),
    ("unwritable sample --output", "sample --ckpt {ckpt} --output {gone}/s.wav " + _FAST_SAMPLE,
     "{gone}/s.wav"),
    ("unwritable enhance --report", "enhance --input {noisy} --ckpt {ckpt} --output {tmp}/o.wav "
     "--clean {clean} --report {gone}/r.json " + _FAST, "{gone}/r.json"),
    ("unwritable benchmark --report", "benchmark --ckpt {ckpt} --synthetic --utterances 1 "
     "--frames 16 --snrs 0 --report {gone}/b.json " + _FAST, "{gone}/b.json"),
    ("unwritable --dump-spec", "sample --ckpt {ckpt} --dump-spec {gone}/s.spec " + _FAST_SAMPLE,
     "{gone}/s.spec"),
    ("unwritable train --out", "train --out {gone}/t.bin " + _FAST_TRAIN, "{gone}/t.bin"),
    ("unlistable --data", "train --data {gone} --out {tmp}/t.bin", "{gone}"),
    ("unlistable --clean-dir", "benchmark --ckpt {ckpt} --clean-dir {gone} --noise-dir {tmp} "
     + _FAST, "{gone}"),
]


@pytest.mark.parametrize("argv,offending", [c[1:] for c in IO_CASES], ids=[c[0] for c in IO_CASES])
def test_os_errors_exit_io_and_name_the_path(argv, offending, tiny_ckpt, tmp_path, capsys):
    noisy_path, clean_path = _write_noisy(tmp_path)
    paths = {"tmp": tmp_path, "gone": tmp_path / "gone", "ckpt": tiny_ckpt,
             "noisy": noisy_path, "clean": clean_path}
    assert cli.main([tok.format(**paths) for tok in argv.split()]) == cli.EXIT_IO
    assert offending.format(**paths) in capsys.readouterr().err


def test_enhance_checks_reference_length_before_enhancing(tiny_ckpt, tmp_path, capsys):
    noisy_path, _ = _write_noisy(tmp_path, n=2000)
    (tmp_path / "short").mkdir()
    _, short_clean = _write_noisy(tmp_path / "short", n=1000)
    out_path = tmp_path / "o.wav"
    rc = cli.main(
        ["enhance", "--input", str(noisy_path), "--ckpt", str(tiny_ckpt),
         "--output", str(out_path), "--clean", str(short_clean), *FAST_ENHANCE]
    )
    assert rc == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert "length mismatch" in captured.err
    assert "wrote" not in captured.out
    assert not out_path.exists()


def test_enhance_silent_reference_is_rejected_before_enhancing(tiny_ckpt, tmp_path, capsys):
    noisy_path, _ = _write_noisy(tmp_path)
    silent = tmp_path / "silent.wav"
    signal.save_wav(silent, signal.Waveform(np.zeros(2000), 16000))
    out_path = tmp_path / "o.wav"
    rc = cli.main(
        ["enhance", "--input", str(noisy_path), "--ckpt", str(tiny_ckpt),
         "--output", str(out_path), "--clean", str(silent), *FAST_ENHANCE]
    )
    assert rc == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert f"--clean: {silent} is silent" in captured.err
    assert "wrote" not in captured.out
    assert not out_path.exists()


@pytest.mark.parametrize("flag", ["--clean-dir", "--noise-dir"])
def test_benchmark_silent_file_is_rejected_before_enhancing(flag, tiny_ckpt, tmp_path, capsys):
    dirs = {"--clean-dir": tmp_path / "clean", "--noise-dir": tmp_path / "noise"}
    for directory in dirs.values():
        directory.mkdir()
        signal.save_wav(directory / "a.wav", signal.Waveform(
            0.2 * np.random.default_rng(0).standard_normal(1600), 16000))
    silent = dirs[flag] / "0.wav"  # sorts first, so it is paired
    signal.save_wav(silent, signal.Waveform(np.zeros(1600), 16000))
    report = tmp_path / "r.json"
    rc = cli.main(["benchmark", "--ckpt", str(tiny_ckpt), "--clean-dir", str(dirs["--clean-dir"]),
                   "--noise-dir", str(dirs["--noise-dir"]), "--snrs", "0", "--report", str(report),
                   *FAST_ENHANCE])
    assert rc == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert f"{flag}: {silent} is silent" in captured.err
    assert "dB out" not in captured.out
    assert not report.exists()


def test_readme_commands_parse():
    # every documented invocation must survive the parse-time flag checks
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = readme.replace("\\\n", " ").splitlines()
    commands = [shlex.split(ln, comments=True) for ln in lines if ln.startswith("diffenh ")]
    assert len(commands) >= 6
    for argv in commands:
        assert cli.build_parser().parse_args(argv[1:]).command == argv[1]


def test_enhance_with_nonfinite_checkpoint_is_numeric_error(tiny_ckpt, tmp_path, capsys):
    from diffenh import score

    model, sched = score.load_checkpoint(tiny_ckpt)
    model.ema_params = [(np.full_like(W, np.inf), b) for W, b in model.ema_params]
    bad = tmp_path / "inf.bin"
    score.save_checkpoint(model, sched, bad)
    noisy_path, _ = _write_noisy(tmp_path)
    out_path = tmp_path / "o.wav"
    rc = cli.main(
        ["enhance", "--input", str(noisy_path), "--ckpt", str(bad),
         "--output", str(out_path), *FAST_ENHANCE]
    )
    assert rc == cli.EXIT_NUMERIC
    assert "non-finite score" in capsys.readouterr().err
    assert not out_path.exists()


def test_training_divergence_is_numeric_error(tmp_path, capsys):
    # a step this large overflows the float32 weights, so the next loss is nan
    rc = cli.main(
        ["train", "--synthetic", "gaussian", "--items", "1", "--bins", "4", "--frames", "8",
         "--patch-frames", "8", "--hidden", "4", "--epochs", "1", "--steps-per-epoch", "3",
         "--lr", "1e39", "--out", str(tmp_path / "t.bin")]
    )
    assert rc == cli.EXIT_NUMERIC
    assert "training diverged" in capsys.readouterr().err
    assert not (tmp_path / "t.bin").exists()


def test_enhance_silent_input_gives_silence(tiny_ckpt, tmp_path, capsys):
    silent = tmp_path / "silent.wav"
    signal.save_wav(silent, signal.Waveform(np.zeros(2000), 16000))
    out_path = tmp_path / "o.wav"
    rc = cli.main(
        ["enhance", "--input", str(silent), "--ckpt", str(tiny_ckpt),
         "--output", str(out_path), *FAST_ENHANCE]
    )
    assert rc == cli.EXIT_OK
    capsys.readouterr()
    out = signal.load_wav(out_path)
    assert len(out) == 2000
    assert not np.any(out.samples)


@pytest.mark.parametrize("command", ["enhance", "benchmark"])
def test_rank_above_frame_count_is_rejected_before_enhancing(command, tiny_ckpt, tmp_path, capsys):
    # 100 samples at the default 510-sample window make a single STFT frame
    short, _ = _write_noisy(tmp_path, n=100)
    out_path = tmp_path / "o.wav"
    if command == "enhance":
        argv = ["enhance", "--input", str(short), "--output", str(out_path)]
    else:
        argv = ["benchmark", "--clean-dir", str(tmp_path), "--noise-dir", str(tmp_path),
                "--report", str(out_path)]
    rc = cli.main(argv + ["--ckpt", str(tiny_ckpt), "--em-iters", "1", "--reverse-steps", "4",
                          "--batch", "1"])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--nmf-rank 4" in err and "1 STFT frame(s)" in err
    assert not out_path.exists()


# (id, argv, flag the error must name); {out} is the one file the command may write
NOTHING_TO_DO_CASES = [
    ("train --patch-frames 0", "train " + _FAST_TRAIN + " --patch-frames 0 --out {out}",
     "--patch-frames"),
    ("train --bins 0", "train " + _FAST_TRAIN + " --bins 0 --out {out}", "--bins"),
    ("train --batch 0", "train " + _FAST_TRAIN + " --batch 0 --out {out}", "--batch"),
    ("train --items 0", "train " + _FAST_TRAIN + " --items 0 --out {out}", "--items"),
    ("benchmark --utterances 0", "benchmark --ckpt {ckpt} --synthetic --utterances 0 "
     "--frames 16 --snrs 0 --report {out} " + _FAST, "--utterances"),
    ("sample --frames 0", "sample --ckpt {ckpt} --output {out} --frames 0 --reverse-steps 2 "
     "--window-len 64 --hop 16", "--frames"),
    ("sample --frames 1", "sample --ckpt {ckpt} --output {out} --frames 1 --reverse-steps 2 "
     "--window-len 64 --hop 16", "--frames"),
    ("validate-sde --ode-steps 0", "validate-sde --ode-steps 0", "--ode-steps"),
    ("validate-sde --ode-steps -5", "validate-sde --ode-steps -5", "--ode-steps"),
    ("sample --bins 0", "sample --ckpt {ckpt} --dump-spec {out} --bins 0 --frames 4 "
     "--reverse-steps 2", "--bins"),
    ("sample --bins -3", "sample --ckpt {ckpt} --dump-spec {out} --bins -3 --frames 4 "
     "--reverse-steps 2", "--bins"),
    ("benchmark --frames 1", "benchmark --ckpt {ckpt} --synthetic --utterances 1 --frames 1 "
     "--snrs 0 --report {out} " + _FAST, "--frames"),
    ("benchmark --frames 0", "benchmark --ckpt {ckpt} --synthetic --utterances 1 --frames 0 "
     "--snrs 0 --report {out} " + _FAST, "--frames"),
    # 3 frames make (3 - 1) * 16 = 32 samples, which give 3 STFT frames: rank 4 cannot fit
    ("benchmark --synthetic --nmf-rank 4", "benchmark --ckpt {ckpt} --synthetic --utterances 1 "
     "--frames 3 --nmf-rank 4 --snrs 0 --report {out} " + _FAST, "--nmf-rank"),
    ("train --hidden 0", "train " + _FAST_TRAIN + " --hidden 0 --out {out}", "--hidden"),
    ("train --hidden 8,-2", "train " + _FAST_TRAIN + " --hidden 8,-2 --out {out}", "--hidden"),
    ("train --hidden 8,", "train " + _FAST_TRAIN + " --hidden 8, --out {out}", "--hidden"),
    ("train --hidden 8,,8", "train " + _FAST_TRAIN + " --hidden 8,,8 --out {out}", "--hidden"),
    ("train --hidden 2.5", "train " + _FAST_TRAIN + " --hidden 2.5 --out {out}", "--hidden"),
    ("train --hidden wide", "train " + _FAST_TRAIN + " --hidden wide --out {out}", "--hidden"),
    ("benchmark --jobs 0", "benchmark --ckpt {ckpt} --synthetic --utterances 1 --frames 16 "
     "--snrs 0 --jobs 0 --report {out} " + _FAST, "--jobs"),
    ("benchmark --jobs -3", "benchmark --ckpt {ckpt} --clean-dir {out} --noise-dir {out} "
     "--jobs -3 " + _FAST, "--jobs"),
    ("enhance --em-iters 0", "enhance --input {noisy} --ckpt {ckpt} --output {out} " + _FAST
     + " --em-iters 0", "--em-iters"),
    ("enhance --hop 0", "enhance --input {noisy} --ckpt {ckpt} --output {out} " + _FAST
     + " --hop 0", "--hop"),
    ("enhance --seed -1", "enhance --input {noisy} --ckpt {ckpt} --output {out} " + _FAST
     + " --seed -1", "--seed"),
    ("train --seed -1", "train " + _FAST_TRAIN + " --seed -1 --out {out}", "--seed"),
    ("sample --reverse-steps 0", "sample --ckpt {ckpt} --dump-spec {out} --frames 4 "
     "--reverse-steps 0", "--reverse-steps"),
    # 16 bins make a grid that 64-sample windows cannot synthesize, so nothing may be written
    ("sample --output --bins 16", "sample --ckpt {ckpt} --output {out}.wav --bins 16 "
     "--dump-spec {out} --frames 4 --reverse-steps 2 --window-len 64 --hop 16", "--bins"),
    ("benchmark --synthetic --em-iters 0", "benchmark --ckpt {ckpt} --synthetic --utterances 1 "
     "--frames 16 --snrs 0 --report {out} " + _FAST + " --em-iters 0", "--em-iters"),
    ("benchmark --snrs x", "benchmark --ckpt {ckpt} --synthetic --utterances 1 --frames 16 "
     "--snrs x --report {out} " + _FAST, "--snrs"),
    ("benchmark --snrs nan", "benchmark --ckpt {ckpt} --synthetic --utterances 1 --frames 16 "
     "--snrs nan --report {out} " + _FAST, "--snrs"),
    ("benchmark --snrs inf", "benchmark --ckpt {ckpt} --synthetic --utterances 1 --frames 16 "
     "--snrs 0,inf --report {out} " + _FAST, "--snrs"),
    ("benchmark --snrs -inf", "benchmark --ckpt {ckpt} --synthetic --utterances 1 --frames 16 "
     "--snrs=-inf --report {out} " + _FAST, "--snrs"),
]


@pytest.mark.parametrize("argv,flag", [c[1:] for c in NOTHING_TO_DO_CASES],
                         ids=[c[0] for c in NOTHING_TO_DO_CASES])
def test_inputs_that_produce_nothing_are_usage_errors(argv, flag, tiny_ckpt, tmp_path, capsys):
    out = tmp_path / "out"
    noisy, _ = _write_noisy(tmp_path)
    rc = cli.main([tok.format(out=out, ckpt=tiny_ckpt, noisy=noisy) for tok in argv.split()])
    assert rc == cli.EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not out.exists()


_CKPT_CASES = [c for c in NOTHING_TO_DO_CASES if "{ckpt}" in c[1]]


@pytest.mark.parametrize("argv,flag", [c[1:] for c in _CKPT_CASES], ids=[c[0] for c in _CKPT_CASES])
def test_inputs_that_produce_nothing_are_rejected_before_the_checkpoint_loads(argv, flag, tmp_path,
                                                                             capsys):
    # with no checkpoint to read, a check made after loading would exit 3 instead
    gone = tmp_path / "gone.ckpt"
    noisy, _ = _write_noisy(tmp_path)
    rc = cli.main([tok.format(out=tmp_path / "out", ckpt=gone, noisy=noisy) for tok in argv.split()])
    assert rc == cli.EXIT_USAGE
    assert flag in capsys.readouterr().err


def test_checkpoint_with_unknown_diffusion_code_is_malformed(tiny_ckpt, tmp_path, capsys):
    from diffenh import score

    blob = bytearray(tiny_ckpt.read_bytes())
    assert blob[44] == 0  # magic (8) + version (4) + four float64 schedule fields (32)
    blob[44] = 1
    bad = tmp_path / "code1.bin"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="diffusion-coefficient code 1"):
        score.load_checkpoint(bad)
    out_path = tmp_path / "s.wav"
    rc = cli.main(["sample", "--ckpt", str(bad), "--output", str(out_path),
                   "--frames", "8", "--reverse-steps", "2", "--window-len", "64", "--hop", "16"])
    assert rc == cli.EXIT_IO
    assert "diffusion-coefficient code 1" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_enhance_non_finite_input_is_io_error_naming_the_path(bad, tiny_ckpt, tmp_path, capsys):
    from scipy.io import wavfile

    path = tmp_path / "bad.wav"
    wavfile.write(path, 16000, np.array([0.1, bad, 0.2] * 100, dtype=np.float32))
    out_path = tmp_path / "o.wav"
    rc = cli.main(["enhance", "--input", str(path), "--ckpt", str(tiny_ckpt),
                   "--output", str(out_path), *FAST_ENHANCE])
    assert rc == cli.EXIT_IO
    assert f"{path}: waveform contains non-finite samples" in capsys.readouterr().err
    assert not out_path.exists()


def _enhance_noise_args(tmp_path):
    path = tmp_path / "noise.wav"
    signal.save_wav(path, signal.Waveform(0.3 * np.random.default_rng(3).standard_normal(2000),
                                          16000))
    return ["enhance", "--input", str(path), *FAST_ENHANCE]


def _enhance_silence_args(tmp_path):
    path = tmp_path / "silent.wav"
    signal.save_wav(path, signal.Waveform(np.zeros(2000), 16000))
    return ["enhance", "--input", str(path), *FAST_ENHANCE]


SAMPLE_ARGS = ["sample", "--frames", "8", "--reverse-steps", "4", "--window-len", "64",
               "--hop", "16"]

# (id, argv builder, whether the tiny prior's output exceeds [-1, 1])
CLIP_CASES = [
    ("enhance loud", _enhance_noise_args, True),
    ("enhance silent", _enhance_silence_args, False),
    ("sample loud", lambda tmp_path: SAMPLE_ARGS, True),
    # no compression and a large beta scale the sample far below full scale
    ("sample quiet", lambda tmp_path: SAMPLE_ARGS + ["--alpha", "1", "--beta", "100"], False),
]


@pytest.mark.parametrize("make_args,clips", [c[1:] for c in CLIP_CASES],
                         ids=[c[0] for c in CLIP_CASES])
def test_clipped_output_samples_are_reported(make_args, clips, tiny_ckpt, tmp_path, capsys):
    out_path = tmp_path / "o.wav"
    argv = make_args(tmp_path) + ["--ckpt", str(tiny_ckpt), "--output", str(out_path)]
    assert cli.main(argv) == cli.EXIT_OK
    err = capsys.readouterr().err
    if clips:
        assert re.search(rf"{re.escape(str(out_path))}: clipped [1-9]\d* of \d+ samples", err)
    else:
        assert "clipped" not in err
    assert np.max(np.abs(signal.load_wav(out_path).samples)) <= 1.0
