import argparse
import json
import re
import shlex
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import diffenh
from diffenh import cli, metrics, signal

GOLDEN = Path(__file__).parent / "golden"

(_SUBCOMMANDS,) = [a.choices for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
HELP_CASES = [("help_root.txt", ["--help"])] + [
    (f"help_{command.replace('-', '_')}.txt", [command, "--help"]) for command in _SUBCOMMANDS
]


@pytest.mark.parametrize("golden,argv", HELP_CASES, ids=[c[0] for c in HELP_CASES])
def test_help_matches_golden(golden, argv, capsys):
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_golden_files_are_the_help_of_the_commands():
    # a removed command leaves no orphan golden; a new one cannot ship without one
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(c[0] for c in HELP_CASES)


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


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from diffenh import *", namespace)
    for name in diffenh.__all__:
        assert namespace[name] is getattr(diffenh, name)


def test_no_command_is_usage_error(capsys):
    assert cli.main([]) == cli.EXIT_USAGE
    assert "the following arguments are required: COMMAND" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert cli.main(["sample", "--no-such-flag"]) == cli.EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_unknown_flag_is_reported_under_the_command_usage(capsys):
    argv = ["enhance", "--input", "n.wav", "--ckpt", "c.bin", "--output", "o.wav", "--foo", "1"]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: diffenh enhance ")
    assert err.splitlines()[-1] == "diffenh enhance: error: unrecognized arguments: --foo 1"


@pytest.mark.parametrize("first", ["--seed", "--config", "-x"])
def test_flag_before_the_command_is_usage_error(first, capsys):
    assert cli.main([first, "3", "sample", "--ckpt", "c.bin", "--output", "o.wav"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == (f"diffenh: error: {first} comes before the command; "
                   "the command comes first: diffenh COMMAND [flags]\n")


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


def test_train_resume_keeps_the_checkpoint_schedule_and_sizes(tiny_ckpt, tmp_path, capsys):
    from diffenh import score

    out = tmp_path / "resumed.bin"
    rc = cli.main(
        [
            "train", "--synthetic", "gaussian", "--resume", str(tiny_ckpt), "--out", str(out),
            "--items", "2", "--bins", "8", "--frames", "16", "--patch-frames", "8",
            "--hidden", "4", "--gamma", "2.0", "--epochs", "1", "--steps-per-epoch", "2",
        ]
    )
    assert rc == cli.EXIT_OK
    assert "step 4" in capsys.readouterr().out
    # the checkpoint's schedule and architecture win over --gamma and --hidden
    (before, before_sched), (after, after_sched) = map(score.load_checkpoint, (tiny_ckpt, out))
    assert (before.step, after.step) == (2, 4)
    assert after.sizes == before.sizes == (before.sizes[0], 8, 2)
    assert after_sched == before_sched and after_sched.gamma != 2.0


def test_train_without_data_source_is_usage_error(tmp_path, capsys):
    rc = cli.main(["train", "--out", str(tmp_path / "x.bin")])
    assert rc == cli.EXIT_USAGE
    assert "one of the arguments --data --synthetic is required" in capsys.readouterr().err


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


def test_enhance_report_text_is_pinned(tmp_path, monkeypatch, capsys):
    # clean q[1,1,0,0], noisy q[1,1,1,0] and enhanced q[2,2,1,0], repeated: every
    # dot product is exact, so input and output SI-SDR are 10 log10 of 2 and of 8
    def tiled(pattern):
        return signal.Waveform(0.25 * np.tile(pattern, 500), 16000)

    noisy_path, clean_path = tmp_path / "noisy.wav", tmp_path / "clean.wav"
    signal.save_wav(noisy_path, tiled([1.0, 1.0, 1.0, 0.0]))
    signal.save_wav(clean_path, tiled([1.0, 1.0, 0.0, 0.0]))
    monkeypatch.setattr(cli, "enhance_waveform", lambda noisy, *args: signal.Waveform(
        noisy.samples * np.tile([2.0, 2.0, 1.0, 0.0], 500), noisy.sample_rate))
    monkeypatch.setattr(cli.score, "load_checkpoint", lambda path: (None, None))
    rep_path = tmp_path / "report.json"
    assert cli.main(["enhance", "--input", str(noisy_path), "--ckpt", "c.bin",
                     "--output", str(tmp_path / "o.wav"), "--clean", str(clean_path),
                     "--report", str(rep_path), *FAST_ENHANCE]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "si_sdr_db=9.0309", "input_si_sdr_db=3.0103", "delta_db=6.0206"]
    assert rep_path.read_text() == """{
  "si_sdr_db": 9.030899869919436,
  "input_si_sdr_db": 3.010299956639812,
  "delta_db": 6.020599913279623
}
"""


def test_benchmark_report_text_is_pinned(tiny_ckpt, tmp_path, monkeypatch, capsys):
    values = iter([(1.5, -2.0), (3.5, 0.25)])

    def evaluate_pair(noisy, enhanced, clean):
        out, inp = next(values)
        return dict(zip(metrics.FIELDS, (out, inp, out - inp)))

    monkeypatch.setattr(metrics, "evaluate_pair", evaluate_pair)
    monkeypatch.setattr(cli, "enhance_waveform", lambda noisy, *args: noisy)
    rep_path = tmp_path / "report.json"
    assert cli.main(["benchmark", "--ckpt", str(tiny_ckpt), "--synthetic", "--utterances", "1",
                     "--frames", "16", "--snrs=-5,5", "--report", str(rep_path),
                     *FAST_ENHANCE]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "synthetic-000@-5dB: in -2.00 dB out +1.50 dB delta +3.50 dB",
        "synthetic-000@+5dB: in +0.25 dB out +3.50 dB delta +3.25 dB",
        "aggregate over 2: si_sdr +2.50 +/- 1.96 dB, delta +3.38 +/- 0.24 dB"]
    assert rep_path.read_text() == """{
  "files": [
    {
      "file": "synthetic-000@-5dB",
      "si_sdr_db": 1.5,
      "input_si_sdr_db": -2.0,
      "delta_db": 3.5
    },
    {
      "file": "synthetic-000@+5dB",
      "si_sdr_db": 3.5,
      "input_si_sdr_db": 0.25,
      "delta_db": 3.25
    }
  ],
  "aggregate": {
    "count": 2,
    "si_sdr_mean_db": 2.5,
    "si_sdr_halfwidth_db": 1.9599999999999997,
    "input_si_sdr_mean_db": -0.875,
    "input_si_sdr_halfwidth_db": 2.2049999999999996,
    "delta_mean_db": 3.375,
    "delta_halfwidth_db": 0.24499999999999997
  }
}
"""


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
    from diffenh import score
    from diffenh.sampler import SamplerConfig, unconditional_sample

    wav_path = tmp_path / "sample.wav"
    dump_path = tmp_path / "sample.npy"
    rc = cli.main(
        [
            "sample", "--ckpt", str(tiny_ckpt), "--output", str(wav_path),
            "--dump-spec", str(dump_path), "--frames", "8",
            "--reverse-steps", "4", "--window-len", "64", "--hop", "16",
        ]
    )
    assert rc == cli.EXIT_OK
    # the dump is the sampled grid itself, at the default --seed 0
    model, sched = score.load_checkpoint(tiny_ckpt)
    expected = unconditional_sample((33, 8), model, sched, SamplerConfig(n_steps=4),
                                     np.random.default_rng(0))
    spec = np.load(dump_path)
    assert spec.dtype == np.complex128 and spec.tobytes() == expected.tobytes()
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
    assert np.load(dump).shape == (33, 8)


def test_config_value_may_start_with_a_dash(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("snrs = -5,0,5\n")
    argv = cli._merge_config(["benchmark", "--config", str(cfg), "--ckpt", "c.bin", "--synthetic"])
    assert cli.build_parser().parse_args(argv).snrs == "-5,0,5"


def _dump_sample_argv(ckpt, dump):
    # no --hop here, so a config's hop = 0 shows as the --hop usage error
    return ["sample", "--ckpt", str(ckpt), "--dump-spec", str(dump), "--frames", "4",
            "--reverse-steps", "2"]


@pytest.mark.parametrize("flag", ["--c", "--con", "--conf", "--confi"])
def test_abbreviated_config_flag_is_a_usage_error(flag, tiny_ckpt, tmp_path, capsys):
    # flags match exactly: an abbreviation is an unknown flag, so the file is
    # not silently skipped and sample does not write its dump at the default --hop
    zero = tmp_path / "zero.cfg"
    zero.write_text("hop = 0\n")
    dump = tmp_path / "s.spec"
    argv = _dump_sample_argv(tiny_ckpt, dump)
    assert cli.main(argv + ["--config", str(zero)]) == cli.EXIT_USAGE
    assert "--hop" in capsys.readouterr().err
    for flags in ([flag, str(zero)], [f"{flag}={zero}"]):
        assert cli.main(argv + flags) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err and "wrote" not in captured.out
    assert not dump.exists()


# a conf key is an unknown flag like any other, so only a config key names its line
@pytest.mark.parametrize("key,error", [("config", "{outer}:2:"),
                                       ("conf", "unrecognized arguments: --conf={zero}")],
                         ids=["config", "conf"])
def test_config_file_naming_a_config_file_is_a_usage_error(key, error, tiny_ckpt, tmp_path, capsys):
    # only the command line's --config is merged; reading no further, sample
    # would write its dump at the default --hop
    zero = tmp_path / "zero.cfg"
    zero.write_text("hop = 0\n")
    outer = tmp_path / "outer.cfg"
    outer.write_text(f"# nested\n{key} = {zero}\n")
    dump = tmp_path / "s.spec"
    assert cli.main(_dump_sample_argv(tiny_ckpt, dump) + ["--config", str(outer)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert error.format(outer=outer, zero=zero) in captured.err and "wrote" not in captured.out
    assert not dump.exists()


def test_config_file_errors(tiny_ckpt, tmp_path, capsys):
    argv = _dump_sample_argv(tiny_ckpt, tmp_path / "s.spec")
    bad = tmp_path / "bad.cfg"
    bad.write_text("frames 8\n")
    assert cli.main(argv + ["--config", str(bad)]) == cli.EXIT_USAGE
    assert "expected key=value" in capsys.readouterr().err
    # a UTF-16 byte-order mark: not UTF-8 text, whatever the locale's encoding
    bad.write_bytes(b"\xff\xfeframes = 8\n")
    assert cli.main(argv + ["--config", str(bad)]) == cli.EXIT_USAGE
    assert f"{bad}: config file is not UTF-8 text" in capsys.readouterr().err
    # a UTF-8 byte-order mark is not part of the first key: hop = 0 reaches --hop
    bad.write_bytes(b"\xef\xbb\xbfhop = 0\n")
    assert cli.main(argv + ["--config", str(bad)]) == cli.EXIT_USAGE
    assert "need 0 < --hop <= --window-len, got 0" in capsys.readouterr().err
    assert cli.main(argv + ["--config", str(tmp_path / "gone.cfg")]) == cli.EXIT_IO
    capsys.readouterr()


@pytest.mark.parametrize("value", ["true", "false"])
def test_config_true_sets_and_false_leaves_unset_a_switch(value, tiny_ckpt, tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"synthetic = {value}\n")
    report = tmp_path / "r.json"
    rc = cli.main(["benchmark", "--config", str(cfg), "--ckpt", str(tiny_ckpt), "--utterances", "1",
                   "--frames", "16", "--snrs", "0", "--report", str(report), *FAST_ENHANCE])
    captured = capsys.readouterr()
    if value == "true":
        assert rc == cli.EXIT_OK
        assert "synthetic-000@+0dB" in captured.out and report.exists()
    else:
        assert rc == cli.EXIT_USAGE
        assert "one of the arguments --clean-dir --synthetic is required" in captured.err
        assert not report.exists()


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


def test_benchmark_synthetic_speech_does_not_depend_on_reverse_steps(tiny_ckpt, capsys):
    # the clean utterances are prior samples at the prior sampler's own N;
    # --reverse-steps sets only the enhancer's
    args = ["benchmark", "--ckpt", str(tiny_ckpt), "--synthetic", "--utterances", "2",
            "--frames", "16", "--snrs=-5,5", "--seed", "4", *FAST_ENHANCE]
    inputs = []
    for steps in ("4", "6"):
        assert cli.main(args + ["--reverse-steps", steps]) == cli.EXIT_OK
        inputs.append(re.findall(r"^(\S+): in (\S+) dB", capsys.readouterr().out, re.M))
    assert len(inputs[0]) == 4 and inputs[0] == inputs[1]


def test_benchmark_requires_source(tiny_ckpt, capsys):
    assert cli.main(["benchmark", "--ckpt", str(tiny_ckpt)]) == cli.EXIT_USAGE
    assert "one of the arguments --clean-dir --synthetic is required" in capsys.readouterr().err


# (id, argv, the two flags the error names); {gone} names no file, so a command
# that read anything would exit 3, not 1; {cfg} sets synthetic = true
CORPUS_RULE_CASES = [
    ("train --data --synthetic", "train --data {gone} --synthetic gaussian --resume {gone} "
     "--out {out}", ("--data", "--synthetic")),
    ("benchmark --synthetic --clean-dir", "benchmark --ckpt {gone} --synthetic --clean-dir {gone} "
     "--report {out}", ("--clean-dir", "--synthetic")),
    ("benchmark --synthetic --noise-dir", "benchmark --ckpt {gone} --synthetic --noise-dir {gone} "
     "--report {out}", ("--noise-dir", "--clean-dir")),
    ("benchmark --clean-dir without --noise-dir", "benchmark --ckpt {gone} --clean-dir {gone} "
     "--report {out}", ("--noise-dir", "--clean-dir")),
    ("benchmark --config synthetic --clean-dir", "benchmark --config {cfg} --ckpt {gone} "
     "--clean-dir {gone} --report {out}", ("--clean-dir", "--synthetic")),
]


@pytest.mark.parametrize("argv,flags", [c[1:] for c in CORPUS_RULE_CASES],
                         ids=[c[0] for c in CORPUS_RULE_CASES])
def test_corpus_rules_are_usage_errors_before_any_file_is_read(argv, flags, tmp_path, capsys):
    paths = {"gone": tmp_path / "gone", "out": tmp_path / "out", "cfg": tmp_path / "c.cfg"}
    paths["cfg"].write_text("synthetic = true\n")
    assert cli.main([tok.format(**paths) for tok in argv.split()]) == cli.EXIT_USAGE
    error = capsys.readouterr().err.splitlines()[-1]
    assert f"diffenh {argv.split()[0]}: error:" in error and all(f in error for f in flags)
    assert not paths["out"].exists()


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
    ("missing --config", "sample --config {gone}/run.cfg --ckpt {ckpt} --dump-spec {tmp}/s.spec",
     "{gone}/run.cfg"),
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


def _edited_ckpt(edit):
    """A builder of a copy of the tiny checkpoint changed in place by edit(blob)."""
    def build(tmp_path, ckpt):
        blob = bytearray(ckpt.read_bytes())
        edit(blob)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        return ["sample", "--ckpt", str(bad), "--output", str(tmp_path / "out"),
                *_FAST_SAMPLE.split()], bad
    return build


def _bump_input_width(blob):
    # the first of the sizes: magic (8), version (4), schedule (36) and their count (4) precede it
    blob[52] += 1


def _param_count_offset(blob):
    # magic (8), version (4), schedule (36), then the sizes, the frequencies,
    # ema_decay and step (16) come before the first parameter count
    (n_sizes,) = struct.unpack_from("<I", blob, 48)
    (n_freqs,) = struct.unpack_from("<I", blob, 52 + 4 * n_sizes)
    return 52 + 4 * n_sizes + 4 + 8 * n_freqs + 16


def _bump_param_count(blob):
    blob[_param_count_offset(blob)] += 1


def _huge_size_count(blob):
    # the count of the sizes follows magic (8), version (4) and schedule (36)
    struct.pack_into("<I", blob, 48, 0xFFFFFFFF)


def _huge_freq_count(blob):
    (n_sizes,) = struct.unpack_from("<I", blob, 48)
    struct.pack_into("<I", blob, 52 + 4 * n_sizes, 0xFFFFFFFF)


def _huge_hidden_width(blob):
    # the first hidden width follows the input width: it asks for a net of about 60e9 weights
    struct.pack_into("<I", blob, 56, 0xFFFFFFFF)


def _nan_ema_decay(blob):
    # ema_decay and step (16) come just before the first parameter count
    struct.pack_into("<d", blob, _param_count_offset(blob) - 16, np.nan)


def _inf_first_param(blob):
    # the first float32 parameter follows its blob's 8-byte count
    struct.pack_into("<f", blob, _param_count_offset(blob) + 8, np.inf)


def _short_fmt_wav(tmp_path, ckpt):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"RIFF" + struct.pack("<I", 32) + b"WAVE" + b"fmt " + struct.pack("<I", 8)
                    + bytes(8) + b"data" + struct.pack("<I", 4) + bytes(4))
    return ["enhance", "--input", str(bad), "--ckpt", str(ckpt), "--output",
            str(tmp_path / "out"), *FAST_ENHANCE], bad


def _empty_clean_dir(tmp_path, ckpt):
    empty = tmp_path / "empty"
    empty.mkdir()
    return ["benchmark", "--ckpt", str(ckpt), "--clean-dir", str(empty), "--noise-dir",
            str(tmp_path), "--report", str(tmp_path / "out"), *FAST_ENHANCE], empty


# (id, builder of (argv, offending path), message); the builders write the bad file
MALFORMED_CASES = [
    ("checkpoint architecture", _edited_ckpt(_bump_input_width),
     "inconsistent architecture descriptor"),
    ("checkpoint parameter count", _edited_ckpt(_bump_param_count), "parameter blob size"),
    # counts that ask for more bytes (16 GiB) than the file holds
    ("checkpoint size count", _edited_ckpt(_huge_size_count), "truncated checkpoint"),
    ("checkpoint frequency count", _edited_ckpt(_huge_freq_count), "truncated checkpoint"),
    ("checkpoint hidden width", _edited_ckpt(_huge_hidden_width), "truncated checkpoint"),
    ("checkpoint EMA decay", _edited_ckpt(_nan_ema_decay), "EMA decay nan outside [0, 1]"),
    ("checkpoint non-finite parameter", _edited_ckpt(_inf_first_param), "non-finite parameters"),
    # sigma_min follows magic (8), version (4) and gamma (8)
    ("checkpoint schedule", _edited_ckpt(lambda blob: struct.pack_into("<d", blob, 20, 1e-200)),
     "bad noise schedule"),
    ("short fmt chunk", _short_fmt_wav, "fmt chunk of 8 bytes"),
    ("no WAV in --clean-dir", _empty_clean_dir, "no WAV files found"),
]


@pytest.mark.parametrize("build,message", [c[1:] for c in MALFORMED_CASES],
                         ids=[c[0] for c in MALFORMED_CASES])
def test_malformed_input_is_io_error_naming_the_path(build, message, tiny_ckpt, tmp_path, capsys):
    argv, offending = build(tmp_path, tiny_ckpt)
    tracemalloc.start()
    try:
        assert cli.main(argv) == cli.EXIT_IO
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f"{offending}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # a corrupt count is refused before it allocates what it asks for
    assert peak < 2**24


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


def test_enhance_with_nonfinite_checkpoint_is_io_error(tiny_ckpt, tmp_path, capsys):
    from diffenh import score

    model, sched = score.load_checkpoint(tiny_ckpt)
    for W, _ in model.ema_params:
        W[...] = np.inf
    bad = tmp_path / "inf.bin"
    score.save_checkpoint(model, sched, bad)
    noisy_path, _ = _write_noisy(tmp_path)
    out_path = tmp_path / "o.wav"
    rc = cli.main(
        ["enhance", "--input", str(noisy_path), "--ckpt", str(bad),
         "--output", str(out_path), *FAST_ENHANCE]
    )
    assert rc == cli.EXIT_IO
    assert capsys.readouterr().err == f"diffenh: error: {bad}: non-finite parameters\n"
    assert not out_path.exists()


# a step this large overflows the float32 weights: a later step's loss is nan,
# and after a single step the weights themselves are checked
@pytest.mark.parametrize("steps,cause", [("3", "loss=nan"), ("1", "non-finite weights")],
                         ids=["loss", "weights"])
def test_training_divergence_is_numeric_error(steps, cause, tmp_path, capsys):
    rc = cli.main(
        ["train", "--synthetic", "gaussian", "--items", "1", "--bins", "4", "--frames", "8",
         "--patch-frames", "8", "--hidden", "4", "--epochs", "1", "--steps-per-epoch", steps,
         "--lr", "1e39", "--out", str(tmp_path / "t.bin")]
    )
    assert rc == cli.EXIT_NUMERIC
    (line,) = capsys.readouterr().err.splitlines()  # no numpy warnings besides the error
    assert line.startswith("diffenh: error: training diverged at step ") and line.endswith(cause)
    assert not (tmp_path / "t.bin").exists()


# (id, argv); {out} is the one file the command may write.  A tiny compression
# scale underflows the mixture's compressed power to zero, and a tiny alpha or
# beta overflows the decompression of a spectrogram to non-finite samples.  A
# huge beta overflows the square of the mixture's compressed power, or
# underflows the decompressed prior sample that benchmark mixes
COMPRESSION_RANGE_CASES = [
    ("enhance --beta 1e-200", "enhance --input {noisy} --ckpt {ckpt} --output {out} "
     "--beta 1e-200 " + _FAST),
    ("enhance --alpha 1e-300", "enhance --input {noisy} --ckpt {ckpt} --output {out} "
     "--alpha 1e-300 " + _FAST),
    ("sample --beta 1e-300", "sample --ckpt {ckpt} --output {out} --beta 1e-300 " + _FAST_SAMPLE),
    ("benchmark --beta 1e-300", "benchmark --ckpt {ckpt} --synthetic --utterances 1 --frames 16 "
     "--snrs 0 --report {out} --beta 1e-300 " + _FAST),
    ("enhance --beta 1e300", "enhance --input {noisy} --ckpt {ckpt} --output {out} "
     "--beta 1e300 " + _FAST),
    ("enhance --beta 1e100", "enhance --input {noisy} --ckpt {ckpt} --output {out} "
     "--beta 1e100 " + _FAST),
    ("benchmark --beta 1e300", "benchmark --ckpt {ckpt} --synthetic --utterances 1 --frames 16 "
     "--snrs 0 --report {out} --beta 1e300 " + _FAST),
    ("benchmark --beta 1e160", "benchmark --ckpt {ckpt} --synthetic --utterances 1 --frames 16 "
     "--snrs 0 --report {out} --beta 1e160 " + _FAST),
]


@pytest.mark.parametrize("argv", [c[1] for c in COMPRESSION_RANGE_CASES],
                         ids=[c[0] for c in COMPRESSION_RANGE_CASES])
def test_compression_beyond_float_range_is_numeric_error(argv, tiny_ckpt, tmp_path, capsys):
    noisy_path, _ = _write_noisy(tmp_path)
    out_path = tmp_path / "out"
    paths = {"noisy": noisy_path, "ckpt": tiny_ckpt, "out": out_path}
    assert cli.main([tok.format(**paths) for tok in argv.split()]) == cli.EXIT_NUMERIC
    (line,) = capsys.readouterr().err.splitlines()  # no traceback and no numpy warnings
    assert line.startswith("diffenh: error: ") and "compression" in line
    assert not out_path.exists()


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
    ("sample --dump-spec --frames 1", "sample --ckpt {ckpt} --dump-spec {out} --frames 1 "
     "--reverse-steps 2", "--frames"),
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
    # flags match exactly, so an abbreviation is an unknown flag
    ("enhance --em-it 1", "enhance --input {noisy} --ckpt {ckpt} --output {out} " + _FAST
     + " --em-it 1", "--em-it"),
    ("enhance --seed -1", "enhance --input {noisy} --ckpt {ckpt} --output {out} " + _FAST
     + " --seed -1", "--seed"),
    ("train --seed -1", "train " + _FAST_TRAIN + " --seed -1 --out {out}", "--seed"),
    # nan passes every plain comparison, and inf passes a lower bound
    ("train --gamma nan", "train " + _FAST_TRAIN + " --gamma nan --out {out}", "--gamma"),
    ("train --sigma-max inf", "train " + _FAST_TRAIN + " --sigma-max inf --out {out}",
     "--sigma-max"),
    ("train --lr inf", "train " + _FAST_TRAIN + " --lr inf --out {out}", "--lr"),
    # finite, but the noise kernel the sampler divides by vanishes or overflows
    ("train --sigma-min 1e-200", "train " + _FAST_TRAIN + " --sigma-min 1e-200 --out {out}",
     "--sigma-min"),
    ("train --gamma 1e308", "train " + _FAST_TRAIN + " --gamma 1e308 --out {out}", "--gamma"),
    ("train --sigma-max 1e308", "train " + _FAST_TRAIN + " --sigma-max 1e308 --out {out}",
     "--sigma-max"),
    ("enhance --beta nan", "enhance --input {noisy} --ckpt {ckpt} --output {out} " + _FAST
     + " --beta nan", "--beta"),
    ("sample --reverse-steps 0", "sample --ckpt {ckpt} --dump-spec {out} --frames 4 "
     "--reverse-steps 0", "--reverse-steps"),
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
    # finite, but 10 ** (7000 / 20) overflows the noise gain
    ("benchmark --snrs -7000", "benchmark --ckpt {ckpt} --synthetic --utterances 1 --frames 16 "
     "--snrs=-7000 --report {out} " + _FAST, "--snrs"),
    # the report holds metrics against the reference, so without one it would go unwritten
    ("enhance --report without --clean", "enhance --input {noisy} --ckpt {ckpt} "
     "--output {out}.wav --report {out} " + _FAST, "--clean"),
    # two corpora named at once: one of them would be silently ignored
    ("train --synthetic --data", "train " + _FAST_TRAIN + " --data {out} --out {out}", "--data"),
    ("benchmark --synthetic --clean-dir", "benchmark --ckpt {ckpt} --synthetic --utterances 1 "
     "--frames 16 --snrs 0 --clean-dir {out} --report {out} " + _FAST, "--clean-dir"),
]

# the same, for a WAV with no samples or no power, rejected once read and before
# any STFT; {empty} is a directory that holds empty.wav (no samples) and
# silent.wav (2000 zeros)
EMPTY_WAV_CASES = [
    ("enhance --input empty.wav", "enhance --input {empty}/empty.wav --ckpt {ckpt} "
     "--output {out} " + _FAST, "{empty}/empty.wav"),
    # with --clean, the silent output of a silent input would be scored
    ("enhance --input silent.wav --clean", "enhance --input {empty}/silent.wav --clean {noisy} "
     "--ckpt {ckpt} --output {out} " + _FAST, "--input: {empty}/silent.wav is silent"),
    ("train --data with an empty WAV", "train --data {empty} --steps-per-epoch 1 --out {out}",
     "{empty}/empty.wav"),
]


@pytest.mark.parametrize("argv,flag", [c[1:] for c in NOTHING_TO_DO_CASES + EMPTY_WAV_CASES],
                         ids=[c[0] for c in NOTHING_TO_DO_CASES + EMPTY_WAV_CASES])
def test_inputs_that_produce_nothing_are_usage_errors(argv, flag, tiny_ckpt, tmp_path, capsys):
    out, empty = tmp_path / "out", tmp_path / "empty"
    empty.mkdir()
    signal.save_wav(empty / "empty.wav", signal.Waveform(np.zeros(0), 16000))
    signal.save_wav(empty / "silent.wav", signal.Waveform(np.zeros(2000), 16000))
    noisy, _ = _write_noisy(tmp_path)
    paths = {"out": out, "ckpt": tiny_ckpt, "noisy": noisy, "empty": empty}
    rc = cli.main([tok.format(**paths) for tok in argv.split()])
    assert rc == cli.EXIT_USAGE
    # the error line: argparse's usage line above it lists every flag
    assert flag.format(**paths) in capsys.readouterr().err.splitlines()[-1]
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
    assert flag in capsys.readouterr().err.splitlines()[-1]


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
