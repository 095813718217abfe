import argparse
import json
import re
import shlex
import struct
import subprocess
import sys
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import diffenh
from diffenh import cli, metrics, score, sde, signal

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


def test_pyproject_takes_the_version_from_the_package():
    # read without building or installing; setuptools warns that the table is beta
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = pyprojecttoml.read_configuration(
            Path(__file__).parents[1] / "pyproject.toml", expand=True)
    assert config["project"]["version"] == diffenh.__version__


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


def test_readme_imports_exactly_the_public_names():
    # the library example is the documented public surface; a name added to or
    # dropped from __all__ must show up there
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (line,) = [ln for ln in readme.splitlines() if ln.startswith("from diffenh import ")]
    assert sorted(line.removeprefix("from diffenh import ").split(", ")) == sorted(diffenh.__all__)


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
    assert err == ("usage: diffenh [-h] COMMAND ...\n"
                   f"diffenh: error: {first} comes before the command; "
                   "the command comes first: diffenh COMMAND [flags]\n")


def test_missing_checkpoint_is_io_error(tmp_path, capsys):
    rc = cli.main(
        ["sample", "--ckpt", str(tmp_path / "nope.bin"), "--output", str(tmp_path / "o.wav")]
    )
    assert rc == cli.EXIT_IO
    assert "error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory):
    """A hidden-8 net after two steps on the --synthetic corpus: cheap to run."""
    rng = np.random.default_rng(0)
    dataset = [sde.complex_randn((16, 64), rng) for _ in range(64)]
    model = score.ToyScoreNet(hidden=(8,), seed=0)
    cfg = score.TrainConfig(lr=1e-4, epochs=1, steps_per_epoch=2, patch_frames=8,
                            lr_decay="constant")
    model, _ = score.train(model, dataset, cfg, model.sched)
    path = tmp_path_factory.mktemp("ckpt") / "tiny.bin"
    score.save_checkpoint(model, model.sched, path)
    return path


def _shrink_recipe(monkeypatch, **fields):
    """train runs its recipe with fields (by default one epoch of two steps on
    8-frame patches) in place of TrainConfig()'s, so no test runs 8000 steps."""
    fields = {"epochs": 1, "steps_per_epoch": 2, "patch_frames": 8, **fields}
    monkeypatch.setattr(score, "TrainConfig", partial(score.TrainConfig, **fields))


@pytest.fixture
def short_recipe(monkeypatch):
    _shrink_recipe(monkeypatch)


def test_train_runs_the_acceptance_recipe(tmp_path, monkeypatch):
    # the prior that acceptance 5 checks: TrainConfig() at --seed on a DEFAULT_HIDDEN net
    calls = []

    def recording(model, dataset, cfg, sched):
        calls.append((model.sizes, cfg))
        return model, []

    monkeypatch.setattr(score, "train", recording)
    out = tmp_path / "t.bin"
    assert cli.main(["train", "--synthetic", "--seed", "7", "--out", str(out)]) == cli.EXIT_OK
    ((sizes, cfg),) = calls
    assert cfg == score.TrainConfig(seed=7) == score.TrainConfig(
        lr=1.5e-3, batch_size=16, epochs=8, steps_per_epoch=1000, patch_frames=32,
        lr_decay="cosine", seed=7)
    assert sizes[1:-1] == score.DEFAULT_HIDDEN == (32, 32)


def test_train_writes_checkpoint(short_recipe, tmp_path, capsys):
    # two runs at one seed write the same bytes
    paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
    for path in paths:
        assert cli.main(["train", "--synthetic", "--seed", "0", "--out", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "# seed=0" in out
    assert "epoch 1: loss" in out
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.fixture
def gamma2_ckpt(tiny_ckpt, tmp_path):
    """tiny_ckpt's net under gamma 2.0, a schedule that train never writes."""
    model, _ = score.load_checkpoint(tiny_ckpt)
    path = tmp_path / "gamma2.bin"
    score.save_checkpoint(model, sde.SdeSchedule(gamma=2.0), path)
    return path


def test_train_resume_keeps_the_checkpoint_schedule_and_sizes(gamma2_ckpt, short_recipe, tmp_path,
                                                              capsys):
    out = tmp_path / "resumed.bin"
    rc = cli.main(["train", "--synthetic", "--resume", str(gamma2_ckpt), "--out", str(out)])
    assert rc == cli.EXIT_OK
    assert "step 4" in capsys.readouterr().out
    # neither the default schedule nor DEFAULT_HIDDEN replaces the checkpoint's
    (before, before_sched), (after, after_sched) = map(score.load_checkpoint, (gamma2_ckpt, out))
    assert (before.step, after.step) == (2, 4)
    assert after.sizes == before.sizes == (before.sizes[0], 8, 2)
    assert after_sched == before_sched == sde.SdeSchedule(gamma=2.0)


def test_train_data_scales_each_grid_to_unit_power(short_recipe, tmp_path, capsys):
    # the prior's scale is the grid's own, so the WAVs' level does not reach the net
    rng = np.random.default_rng(2)
    utterances = [rng.standard_normal(800) for _ in range(2)]
    ckpts = []
    for level in (2.0 ** -3, 2.0 ** -10):
        data = tmp_path / f"data{level}"
        data.mkdir()
        for i, samples in enumerate(utterances):
            signal.save_wav(data / f"u{i}.wav", signal.Waveform(level * samples, 16000))
        ckpts.append(tmp_path / f"{level}.ckpt")
        assert cli.main(["train", "--data", str(data), "--out", str(ckpts[-1])]) == cli.EXIT_OK
    losses = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("epoch")]
    assert len(losses) == 2 and losses[0] == losses[1]
    (a, _), (b, _) = map(score.load_checkpoint, ckpts)
    np.testing.assert_allclose(a.theta, b.theta, rtol=1e-5, atol=1e-7)


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


FAST_ENHANCE = ["--em-iters", "1"]


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _load_strict_json(path):
    """path's JSON, parsed as jq or JavaScript would: NaN and Infinity are errors."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


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
    payload = _load_strict_json(rep_path)
    assert set(payload) == {"si_sdr_db", "input_si_sdr_db", "delta_db"}


def test_enhance_orthogonal_reference_reports_the_floor_as_strict_json(tiny_ckpt, tmp_path,
                                                                       capsys):
    # the input's projection onto the reference is zero, so its SI-SDR is the
    # -140 dB floor, which strict JSON can hold and an infinity it cannot
    noisy_path, clean_path = tmp_path / "noisy.wav", tmp_path / "clean.wav"
    signal.save_wav(noisy_path, signal.Waveform(0.25 * np.tile([1.0, 0.0], 1000), 16000))
    signal.save_wav(clean_path, signal.Waveform(0.25 * np.tile([0.0, 1.0], 1000), 16000))
    rep_path = tmp_path / "report.json"
    assert cli.main(["enhance", "--input", str(noisy_path), "--ckpt", str(tiny_ckpt),
                     "--output", str(tmp_path / "o.wav"), "--clean", str(clean_path),
                     "--report", str(rep_path), *FAST_ENHANCE]) == cli.EXIT_OK
    assert "input_si_sdr_db=-140.0000" in capsys.readouterr().out.splitlines()
    payload = _load_strict_json(rep_path)
    assert payload["input_si_sdr_db"] == -metrics.SI_SDR_CAP
    assert payload["delta_db"] == payload["si_sdr_db"] + metrics.SI_SDR_CAP


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


def test_enhance_takes_its_schedule_from_the_checkpoint(gamma2_ckpt, tmp_path, capsys):
    # the WAV is the library's, bit for bit, at the checkpoint's schedule and StftConfig()
    from diffenh.em import EnhancementConfig, enhance_waveform

    noisy_path, _ = _write_noisy(tmp_path)
    out_path = tmp_path / "o.wav"
    args = ["enhance", "--input", str(noisy_path), "--ckpt", str(gamma2_ckpt),
            "--output", str(out_path), *FAST_ENHANCE]
    assert cli.main(args) == cli.EXIT_OK
    model, sched = score.load_checkpoint(gamma2_ckpt)
    assert sched.gamma == 2.0
    expected = enhance_waveform(signal.load_wav(noisy_path), model, sched, signal.StftConfig(),
                                EnhancementConfig(em_iters=1))
    expected_path = tmp_path / "expected.wav"
    signal.save_wav(expected_path, expected)
    assert np.array_equal(signal.load_wav(out_path).samples, signal.load_wav(expected_path).samples)
    capsys.readouterr()
    # the schedule is the checkpoint's: enhance has no flag to set it
    assert cli.main(args + ["--gamma", "2.0"]) == cli.EXIT_USAGE
    assert "--gamma" in capsys.readouterr().err


def test_sample_writes_wav_and_dump(tiny_ckpt, tmp_path, capsys):
    from diffenh.sampler import SamplerConfig, unconditional_sample

    wav_path = tmp_path / "sample.wav"
    dump_path = tmp_path / "sample.npy"
    frames = 8
    rc = cli.main(["sample", "--ckpt", str(tiny_ckpt), "--output", str(wav_path),
                   "--dump-spec", str(dump_path), "--frames", str(frames)])
    assert rc == cli.EXIT_OK
    # the dump is the library's draw at StftConfig()'s bins, SamplerConfig() and
    # the default --seed 0, bit for bit
    model, sched = score.load_checkpoint(tiny_ckpt)
    stft_cfg = signal.StftConfig()
    expected = unconditional_sample((stft_cfg.f_bins, frames), model, sched, SamplerConfig(),
                                     np.random.default_rng(0))
    spec = np.load(dump_path)
    assert spec.dtype == np.complex128 and np.array_equal(spec, expected)
    wav = signal.load_wav(wav_path).samples
    assert len(wav) == (frames - 1) * stft_cfg.hop
    # written at -26 dBFS RMS, to float32 rounding
    assert np.sqrt(np.mean(wav ** 2)) == pytest.approx(10 ** (-26 / 20), rel=1e-6)
    capsys.readouterr()


def test_sample_without_power_is_numeric_error(tiny_ckpt, tmp_path, monkeypatch, capsys):
    # a silent waveform has no level to be written at, and the dump is not written either
    monkeypatch.setattr(cli, "unconditional_sample", lambda shape, *args: np.zeros(shape, complex))
    out_path, dump_path = tmp_path / "s.wav", tmp_path / "s.npy"
    rc = cli.main(["sample", "--ckpt", str(tiny_ckpt), "--output", str(out_path),
                   "--dump-spec", str(dump_path), *_FAST_SAMPLE.split()])
    assert rc == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == ("diffenh: error: the prior sample's waveform has no power, "
                                       "so there is no level to write it at\n")
    assert not out_path.exists() and not dump_path.exists()


def test_sample_requires_some_output(tiny_ckpt, capsys):
    assert cli.main(["sample", "--ckpt", str(tiny_ckpt)]) == cli.EXIT_USAGE
    assert "--output and/or --dump-spec" in capsys.readouterr().err


SAMPLE_FLAGS = ["--frames=8", "--seed=7"]


def test_argument_file_gives_the_command_line_bytes_and_later_flags_win(tiny_ckpt, tmp_path,
                                                                        capsys):
    args_file = tmp_path / "run.args"
    args_file.write_text("\n".join(SAMPLE_FLAGS) + "\n")
    outputs = {}
    for name, flags in [("flags", SAMPLE_FLAGS), ("file", [f"@{args_file}"])]:
        wav, spec = tmp_path / f"{name}.wav", tmp_path / f"{name}.npy"
        assert cli.main(["sample", "--ckpt", str(tiny_ckpt), *flags, "--output", str(wav),
                         "--dump-spec", str(spec)]) == cli.EXIT_OK
        outputs[name] = wav.read_bytes(), spec.read_bytes()
    assert outputs["file"] == outputs["flags"]
    capsys.readouterr()
    spec = tmp_path / "seed9.npy"
    assert cli.main(["sample", "--ckpt", str(tiny_ckpt), f"@{args_file}", "--seed", "9",
                     "--dump-spec", str(spec)]) == cli.EXIT_OK
    assert "# seed=9" in capsys.readouterr().out  # the later flag beats the file's --seed=7
    assert np.load(spec).shape == (signal.StftConfig().f_bins, 8)
    assert spec.read_bytes() != outputs["file"][1]


def test_argument_file_value_may_start_with_a_dash(tmp_path):
    args_file = tmp_path / "bench.args"
    args_file.write_text("--snrs=-10,-3\n")
    argv = ["benchmark", f"@{args_file}", "--ckpt", "c.bin", "--synthetic"]
    assert cli.build_parser().parse_args(argv).snrs == "-10,-3"


def test_argument_file_switch_line_sets_the_switch(tiny_ckpt, tmp_path, capsys):
    args_file = tmp_path / "bench.args"
    args_file.write_text("--synthetic\n")
    report = tmp_path / "r.json"
    assert cli.main(["benchmark", f"@{args_file}", "--ckpt", str(tiny_ckpt), "--utterances", "1",
                     "--frames", "16", "--snrs", "0", "--report", str(report),
                     *FAST_ENHANCE]) == cli.EXIT_OK
    assert "synthetic-000@+0dB" in capsys.readouterr().out and report.exists()


def test_output_path_starting_with_at_is_no_argument_file(tiny_ckpt, tmp_path, monkeypatch,
                                                          capsys):
    # --output=@o.wav is one token that starts with a dash, so argparse does not expand it
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sample", "--ckpt", str(tiny_ckpt), "--output=@o.wav",
                     *SAMPLE_FLAGS]) == cli.EXIT_OK
    assert "wrote @o.wav" in capsys.readouterr().out
    assert len(signal.load_wav(tmp_path / "@o.wav")) == 7 * signal.StftConfig().hop


def _dump_sample_argv(ckpt, dump):
    # no --seed here, so a file's --seed=-1 shows as the --seed usage error
    return ["sample", "--ckpt", str(ckpt), "--dump-spec", str(dump), "--frames", "4"]


ROOT_USAGE = "usage: diffenh [-h] COMMAND ...\n"


@pytest.mark.parametrize("named", ["self", "nested"])
def test_argument_file_naming_an_argument_file_is_a_usage_error(named, tiny_ckpt, tmp_path,
                                                                  capsys):
    # argparse would read a nested file, and a file that names itself without end
    negative = tmp_path / "negative.args"
    negative.write_text("--seed=-1\n")
    outer = tmp_path / "outer.args"
    inner = outer if named == "self" else negative
    outer.write_text(f"--frames=4\n@{inner}\n")
    dump = tmp_path / "s.npy"
    assert cli.main(_dump_sample_argv(tiny_ckpt, dump) + [f"@{outer}"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == (ROOT_USAGE + f"diffenh: error: @{inner}: an argument file may not "
                            "name another\n")
    assert captured.out == "" and not dump.exists()


# (id, bytes of the file or None for no file, its name, the error message)
ARGUMENT_FILE_ERRORS = [
    ("missing", None, "{tmp}/gone.args", "[Errno 2] No such file or directory: '{tmp}/gone.args'"),
    ("empty name", None, "", "[Errno 2] No such file or directory: ''"),
    # a UTF-16 byte-order mark is not UTF-8 text, and argparse opens the file in
    # Python's default encoding, UTF-8 under a UTF-8 or C locale
    ("undecodable", b"\xff\xfe--frames=8\n", "{tmp}/bad.args", "cannot decode an argument file: "
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
]


@pytest.mark.parametrize("content,name,message", [c[1:] for c in ARGUMENT_FILE_ERRORS],
                         ids=[c[0] for c in ARGUMENT_FILE_ERRORS])
def test_argument_file_that_cannot_be_read_is_a_usage_error(content, name, message, tiny_ckpt,
                                                            tmp_path, capsys):
    name, message = name.format(tmp=tmp_path), message.format(tmp=tmp_path)
    if content is not None:
        Path(name).write_bytes(content)
    dump = tmp_path / "s.npy"
    assert cli.main(_dump_sample_argv(tiny_ckpt, dump) + [f"@{name}"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == ROOT_USAGE + f"diffenh: error: {message}\n"
    assert not dump.exists()


def test_argument_file_utf8_byte_order_mark_starts_the_first_argument(tiny_ckpt, tmp_path, capsys):
    args_file = tmp_path / "bom.args"
    args_file.write_bytes(b"\xef\xbb\xbf--seed=-1\n")
    assert cli.main(_dump_sample_argv(tiny_ckpt, tmp_path / "s.npy")
                    + [f"@{args_file}"]) == cli.EXIT_USAGE
    error = capsys.readouterr().err.splitlines()[-1]
    assert error == "diffenh sample: error: unrecognized arguments: \ufeff--seed=-1"


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
    a, b = _load_strict_json(rep_a), _load_strict_json(rep_b)
    assert a == b  # thread count must not change results
    assert a["aggregate"]["count"] == 1
    assert a["files"][0]["file"] == "synthetic-000@+0dB"


def test_benchmark_labels_keep_fractional_snrs(tiny_ckpt, capsys):
    assert cli.main(["benchmark", "--ckpt", str(tiny_ckpt), "--synthetic", "--utterances", "1",
                     "--frames", "16", "--snrs=0.5,2.5", *FAST_ENHANCE]) == cli.EXIT_OK
    labels = re.findall(r"^(\S+): in ", capsys.readouterr().out, re.M)
    assert labels == ["synthetic-000@+0.5dB", "synthetic-000@+2.5dB"]


def test_benchmark_requires_source(tiny_ckpt, capsys):
    assert cli.main(["benchmark", "--ckpt", str(tiny_ckpt)]) == cli.EXIT_USAGE
    assert "one of the arguments --clean-dir --synthetic is required" in capsys.readouterr().err


# (id, argv, the two flags the error names); {gone} names no file, so a command
# that read anything would exit 3, not 1; {args} holds --synthetic
CORPUS_RULE_CASES = [
    ("train --data --synthetic", "train --data {gone} --synthetic --resume {gone} "
     "--out {out}", ("--data", "--synthetic")),
    ("benchmark --synthetic --clean-dir", "benchmark --ckpt {gone} --synthetic --clean-dir {gone} "
     "--report {out}", ("--clean-dir", "--synthetic")),
    ("benchmark --synthetic --noise-dir", "benchmark --ckpt {gone} --synthetic --noise-dir {gone} "
     "--report {out}", ("--noise-dir", "--clean-dir")),
    ("benchmark --clean-dir without --noise-dir", "benchmark --ckpt {gone} --clean-dir {gone} "
     "--report {out}", ("--noise-dir", "--clean-dir")),
    ("benchmark @FILE --synthetic --clean-dir", "benchmark @{args} --ckpt {gone} "
     "--clean-dir {gone} --report {out}", ("--clean-dir", "--synthetic")),
]


@pytest.mark.parametrize("argv,flags", [c[1:] for c in CORPUS_RULE_CASES],
                         ids=[c[0] for c in CORPUS_RULE_CASES])
def test_corpus_rules_are_usage_errors_before_any_file_is_read(argv, flags, tmp_path, capsys):
    paths = {"gone": tmp_path / "gone", "out": tmp_path / "out", "args": tmp_path / "a.args"}
    paths["args"].write_text("--synthetic\n")
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


_FAST_SAMPLE = "--frames 8"
_FAST = " ".join(FAST_ENHANCE)

# (id, argv, what the error names); {gone} is a directory that does not exist,
# and {empty} is an empty argument
IO_CASES = [
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
    ("unwritable train --out", "train --synthetic --out {gone}/t.bin", "{gone}/t.bin"),
    ("empty train --out", "train --synthetic --out {empty}", "'': empty output path"),
    ("empty enhance --output", "enhance --input {noisy} --ckpt {ckpt} --output {empty} " + _FAST,
     "'': empty output path"),
    ("empty train --resume", "train --resume {empty} --out {tmp}/t.bin --synthetic",
     "No such file or directory: ''"),
    ("empty enhance --clean", "enhance --input {noisy} --ckpt {ckpt} --output {tmp}/o.wav "
     "--clean {empty} " + _FAST, "No such file or directory: ''"),
    ("unlistable --data", "train --data {gone} --out {tmp}/t.bin", "{gone}"),
    ("unlistable --clean-dir", "benchmark --ckpt {ckpt} --clean-dir {gone} --noise-dir {tmp} "
     + _FAST, "{gone}"),
]


@pytest.mark.parametrize("argv,offending", [c[1:] for c in IO_CASES], ids=[c[0] for c in IO_CASES])
def test_os_errors_exit_io_and_name_the_path(argv, offending, tiny_ckpt, tmp_path, capsys):
    noisy_path, clean_path = _write_noisy(tmp_path)
    paths = {"tmp": tmp_path, "gone": tmp_path / "gone", "ckpt": tiny_ckpt,
             "noisy": noisy_path, "clean": clean_path, "empty": ""}
    assert cli.main([tok.format(**paths) for tok in argv.split()]) == cli.EXIT_IO
    captured = capsys.readouterr()
    assert offending.format(**paths) in captured.err
    # the error comes before any work, so no training epoch runs and nothing is written
    assert "epoch" not in captured.out and "wrote" not in captured.out


# (id, argv); {gone} names no file, so a command that read its checkpoint or
# input before checking its output {out} would name {gone} instead
OUTPUT_CASES = [
    ("train --out", "train --data {gone} --out {out}"),
    ("enhance --output", "enhance --input {gone} --ckpt {gone} --output {out}"),
    ("enhance --report", "enhance --input {gone} --ckpt {gone} --output {tmp}/o.wav "
     "--clean {gone} --report {out}"),
    ("sample --output", "sample --ckpt {gone} --output {out}"),
    ("sample --dump-spec", "sample --ckpt {gone} --dump-spec {out}"),
    ("benchmark --report", "benchmark --ckpt {gone} --synthetic --report {out}"),
]


@pytest.mark.parametrize("out,named", [("{gone}/o", "{gone}/o"), ("{tmp}", "{tmp}"), ("", "''")],
                         ids=["in a missing directory", "a directory", "empty"])
@pytest.mark.parametrize("argv", [c[1] for c in OUTPUT_CASES], ids=[c[0] for c in OUTPUT_CASES])
def test_outputs_are_checked_before_any_input_is_read(argv, out, named, tmp_path, capsys):
    paths = {"tmp": tmp_path, "gone": tmp_path / "gone"}
    out = out.format(**paths)
    assert cli.main([tok.format(out=out, **paths) for tok in argv.split()]) == cli.EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"diffenh: error: {named.format(**paths)}: ")
    assert not any(tmp_path.iterdir())


# (id, argv); both outputs name {out}, once as given and once through the
# working directory ./, and {gone} names no file, as in OUTPUT_CASES
SAME_FILE_CASES = [
    ("sample --output and --dump-spec", "sample --ckpt {gone} --output {out} --dump-spec {out}"),
    ("sample --output and ./--dump-spec",
     "sample --ckpt {gone} --output {out} --dump-spec ./{out}"),
    ("enhance --output and --report", "enhance --input {gone} --ckpt {gone} --output {out} "
     "--clean {gone} --report {out}"),
    ("enhance --output and ./--report", "enhance --input {gone} --ckpt {gone} --output {out} "
     "--clean {gone} --report ./{out}"),
]


@pytest.mark.parametrize("argv", [c[1] for c in SAME_FILE_CASES],
                         ids=[c[0] for c in SAME_FILE_CASES])
def test_two_outputs_naming_one_file_are_rejected_before_any_input_is_read(
        argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [tok.format(out="P", gone=tmp_path / "gone") for tok in argv.split()]
    assert cli.main(argv) == cli.EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"diffenh: error: {argv[-1]}: another output names the same file\n"
    assert not any(tmp_path.iterdir())


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


def _readme_commands(text):
    """The arguments after `diffenh` of each command line in text's fenced code
    blocks, with backslash continuations joined."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(ln, comments=True)[1:] for ln in lines if ln.startswith("diffenh ")]


def test_readme_commands_parse():
    # every documented invocation parses, each flag on a command that has it
    commands = _readme_commands((Path(__file__).parents[1] / "README.md").read_text())
    assert len(commands) >= 6
    for argv in commands:
        assert cli.build_parser().parse_args(argv).command == argv[0]


def test_readme_command_check_catches_a_flag_on_the_wrong_command():
    # --snrs is benchmark's, on a continuation line that the flag-union test cannot place
    text = "text\n```\ndiffenh sample --ckpt p.ckpt --output s.wav \\\n    --snrs=0\n```\n"
    (argv,) = _readme_commands(text)
    with pytest.raises(cli._UsageError, match=r"^unrecognized arguments: --snrs=0$"):
        cli.build_parser().parse_args(argv)


def test_readme_documents_exactly_the_parser_flags():
    # a flag that no command has, or that README never names, fails here; the
    # allowlist is --help, the abbreviation example and pip's own flag
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*[a-z]", readme))
    defined = {o for p in _SUBCOMMANDS.values() for a in p._actions for o in a.option_strings
               if o.startswith("--")}
    allowed = {"--help", "--em-it", "--no-build-isolation"}
    assert documented - allowed == defined - allowed


def test_enhance_with_nonfinite_checkpoint_is_io_error(tiny_ckpt, tmp_path, capsys):
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
@pytest.mark.parametrize("steps,cause", [(3, "loss=nan"), (1, "non-finite weights")],
                         ids=["loss", "weights"])
def test_training_divergence_is_numeric_error(steps, cause, tmp_path, monkeypatch, capsys):
    _shrink_recipe(monkeypatch, steps_per_epoch=steps, lr=1e39)
    rc = cli.main(["train", "--synthetic", "--out", str(tmp_path / "t.bin")])
    assert rc == cli.EXIT_NUMERIC
    (line,) = capsys.readouterr().err.splitlines()  # no numpy warnings besides the error
    assert line.startswith("diffenh: error: training diverged at step ") and line.endswith(cause)
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
    rc = cli.main(argv + ["--ckpt", str(tiny_ckpt), "--em-iters", "1"])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--nmf-rank 4" in err and "1 STFT frame(s)" in err
    assert not out_path.exists()


# (id, argv, flag the error must name); {out} is the one file the command may write
NOTHING_TO_DO_CASES = [
    ("benchmark --utterances 0", "benchmark --ckpt {ckpt} --synthetic --utterances 0 "
     "--frames 16 --snrs 0 --report {out} " + _FAST, "--utterances"),
    ("sample --frames 0", "sample --ckpt {ckpt} --output {out} --frames 0", "--frames"),
    ("sample --frames 1", "sample --ckpt {ckpt} --output {out} --frames 1", "--frames"),
    ("sample --dump-spec --frames 1", "sample --ckpt {ckpt} --dump-spec {out} --frames 1",
     "--frames"),
    ("benchmark --frames 1", "benchmark --ckpt {ckpt} --synthetic --utterances 1 --frames 1 "
     "--snrs 0 --report {out} " + _FAST, "--frames"),
    ("benchmark --frames 0", "benchmark --ckpt {ckpt} --synthetic --utterances 1 --frames 0 "
     "--snrs 0 --report {out} " + _FAST, "--frames"),
    # 3 frames make (3 - 1) * 128 = 256 samples, which give 3 STFT frames: rank 4 cannot fit
    ("benchmark --synthetic --nmf-rank 4", "benchmark --ckpt {ckpt} --synthetic --utterances 1 "
     "--frames 3 --nmf-rank 4 --snrs 0 --report {out} " + _FAST, "--nmf-rank"),
    ("benchmark --jobs 0", "benchmark --ckpt {ckpt} --synthetic --utterances 1 --frames 16 "
     "--snrs 0 --jobs 0 --report {out} " + _FAST, "--jobs"),
    ("benchmark --jobs -3", "benchmark --ckpt {ckpt} --clean-dir {out} --noise-dir {out} "
     "--jobs -3 " + _FAST, "--jobs"),
    ("enhance --em-iters 0", "enhance --input {noisy} --ckpt {ckpt} --output {out} " + _FAST
     + " --em-iters 0", "--em-iters"),
    ("enhance --nmf-rank 0", "enhance --input {noisy} --ckpt {ckpt} --output {out} " + _FAST
     + " --nmf-rank 0", "--nmf-rank"),
    # flags match exactly, so an abbreviation is an unknown flag
    ("enhance --em-it 1", "enhance --input {noisy} --ckpt {ckpt} --output {out} " + _FAST
     + " --em-it 1", "--em-it"),
    ("enhance --seed -1", "enhance --input {noisy} --ckpt {ckpt} --output {out} " + _FAST
     + " --seed -1", "--seed"),
    ("train --seed -1", "train --synthetic --seed -1 --out {out}", "--seed"),
    ("benchmark --synthetic --em-iters 0", "benchmark --ckpt {ckpt} --synthetic --utterances 1 "
     "--frames 16 --snrs 0 --report {out} " + _FAST + " --em-iters 0", "--em-iters"),
    ("benchmark --synthetic --nmf-rank 0", "benchmark --ckpt {ckpt} --synthetic --utterances 1 "
     "--frames 16 --snrs 0 --report {out} " + _FAST + " --nmf-rank 0", "--nmf-rank"),
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
    ("train --synthetic --data", "train --synthetic --data {out} --out {out}", "--data"),
    ("benchmark --synthetic --clean-dir", "benchmark --ckpt {ckpt} --synthetic --utterances 1 "
     "--frames 16 --snrs 0 --clean-dir {out} --report {out} " + _FAST, "--clean-dir"),
    # no command sets the schedule or the M-step's update count; {out}.* name no
    # file, so a command that read one would exit 3
    *((f"train {flag} (removed)", f"train --data {{out}}.d {flag} --out {{out}}",
       f"unrecognized arguments: {flag}")
      for flag in ("--gamma 2", "--sigma-min 0.01", "--sigma-max 1", "--t-min 0.05")),
    ("enhance --nmf-updates (removed)", "enhance --input {out}.wav --ckpt {out}.ckpt "
     "--output {out} --nmf-updates 5", "unrecognized arguments: --nmf-updates 5"),
    ("benchmark --nmf-updates (removed)", "benchmark --ckpt {out}.ckpt --synthetic "
     "--report {out} --nmf-updates 5", "unrecognized arguments: --nmf-updates 5"),
    # every command works at the prior's grid scale, computed from the data
    *((f"{command} --beta (removed)", f"{command} {args} --beta 0.3",
       "unrecognized arguments: --beta 0.3")
      for command, args in (("train", "--data {out}.d --out {out}"),
                            ("enhance", "--input {out}.wav --ckpt {out}.ckpt --output {out}"),
                            ("sample", "--ckpt {out}.ckpt --output {out}"),
                            ("benchmark", "--ckpt {out}.ckpt --synthetic --report {out}"))),
    # the enhancer's chains are EnhancementConfig's b = 4 of N = 20 steps
    *((f"enhance {flag} (removed)", "enhance --input {out}.wav --ckpt {out}.ckpt "
       f"--output {{out}} {flag}", f"unrecognized arguments: {flag}")
      for flag in ("--batch 2", "--reverse-steps 4")),
    *((f"benchmark {flag} (removed)", "benchmark --ckpt {out}.ckpt --synthetic "
       f"--report {{out}} {flag}", f"unrecognized arguments: {flag}")
      for flag in ("--batch 2", "--reverse-steps 4")),
    # prior samples are SamplerConfig()'s N = 30 steps
    ("sample --reverse-steps (removed)", "sample --ckpt {out}.ckpt --output {out} "
     "--reverse-steps 4", "unrecognized arguments: --reverse-steps 4"),
    # every command computes its grids with StftConfig(), the prior's front end
    *((f"{command} {flag} (removed)", f"{command} {args} {flag}",
       f"unrecognized arguments: {flag}")
      for command, args in (("train", "--data {out}.d --out {out}"),
                            ("enhance", "--input {out}.wav --ckpt {out}.ckpt --output {out}"),
                            ("sample", "--ckpt {out}.ckpt --output {out}"),
                            ("benchmark", "--ckpt {out}.ckpt --synthetic --report {out}"))
      for flag in ("--window-len 64", "--hop 16", "--alpha 0.3")),
    # --synthetic draws the reference corpus, 64 grids of 16 x 64
    *((f"train {flag} (removed)", f"train --synthetic {flag} --out {{out}}",
       f"unrecognized arguments: {flag}")
      for flag in ("--items 2", "--bins 8", "--frames 16")),
    # train runs one recipe, TrainConfig(), on a net of DEFAULT_HIDDEN widths
    *((f"train {flag} (removed)", f"train --data {{out}}.d {flag} --out {{out}}",
       f"unrecognized arguments: {flag}")
      for flag in ("--hidden 8", "--lr 1e-3", "--lr-decay constant", "--batch 4", "--epochs 1",
                   "--steps-per-epoch 1", "--patch-frames 8")),
    # --synthetic is a switch and takes no value
    ("train --synthetic gaussian", "train --synthetic gaussian --out {out}",
     "unrecognized arguments: gaussian"),
]

# the same, for a WAV with no samples or no power, rejected once read and before
# any STFT; {empty} is a directory that holds empty.wav (no samples) and
# silent.wav (2000 zeros), and {silent} one that holds only silent.wav
EMPTY_WAV_CASES = [
    ("enhance --input empty.wav", "enhance --input {empty}/empty.wav --ckpt {ckpt} "
     "--output {out} " + _FAST, "{empty}/empty.wav"),
    # with --clean, the silent output of a silent input would be scored
    ("enhance --input silent.wav --clean", "enhance --input {empty}/silent.wav --clean {noisy} "
     "--ckpt {ckpt} --output {out} " + _FAST, "--input: {empty}/silent.wav is silent"),
    ("train --data with an empty WAV", "train --data {empty} --out {out}",
     "{empty}/empty.wav"),
    # training scales each grid to unit mean power, which a silent one does not have
    ("train --data with a silent WAV", "train --data {silent} --out {out}",
     "--data: {silent}/silent.wav is silent"),
]


@pytest.mark.parametrize("argv,flag", [c[1:] for c in NOTHING_TO_DO_CASES + EMPTY_WAV_CASES],
                         ids=[c[0] for c in NOTHING_TO_DO_CASES + EMPTY_WAV_CASES])
def test_inputs_that_produce_nothing_are_usage_errors(argv, flag, tiny_ckpt, tmp_path, capsys):
    out, empty, silent = tmp_path / "out", tmp_path / "empty", tmp_path / "silent"
    empty.mkdir()
    silent.mkdir()
    signal.save_wav(empty / "empty.wav", signal.Waveform(np.zeros(0), 16000))
    for directory in (empty, silent):
        signal.save_wav(directory / "silent.wav", signal.Waveform(np.zeros(2000), 16000))
    noisy, _ = _write_noisy(tmp_path)
    paths = {"out": out, "ckpt": tiny_ckpt, "noisy": noisy, "empty": empty, "silent": silent}
    rc = cli.main([tok.format(**paths) for tok in argv.split()])
    assert rc == cli.EXIT_USAGE
    # the error line: the usage line above it lists every flag
    err, prog = capsys.readouterr().err.splitlines(), f"diffenh {argv.split()[0]}"
    assert err[0].startswith(f"usage: {prog} ") and err[-1].startswith(f"{prog}: error: ")
    assert flag.format(**paths) in err[-1]
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
    blob = bytearray(tiny_ckpt.read_bytes())
    assert blob[44] == 0  # magic (8) + version (4) + four float64 schedule fields (32)
    blob[44] = 1
    bad = tmp_path / "code1.bin"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="diffusion-coefficient code 1"):
        score.load_checkpoint(bad)
    out_path = tmp_path / "s.wav"
    rc = cli.main(["sample", "--ckpt", str(bad), "--output", str(out_path), "--frames", "8"])
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


def _enhance_loud_args(tmp_path):
    # a float32 WAV may hold samples beyond full scale, and the output keeps the input's level
    from scipy.io import wavfile

    path = tmp_path / "loud.wav"
    samples = 3.0 * np.random.default_rng(3).standard_normal(2000)
    wavfile.write(path, 16000, samples.astype(np.float32))
    return ["enhance", "--input", str(path), *FAST_ENHANCE]


def _enhance_silence_args(tmp_path):
    path = tmp_path / "silent.wav"
    signal.save_wav(path, signal.Waveform(np.zeros(2000), 16000))
    return ["enhance", "--input", str(path), *FAST_ENHANCE]


SAMPLE_ARGS = ["sample", "--frames", "8"]

# (id, argv builder, whether the tiny prior's output exceeds [-1, 1])
CLIP_CASES = [
    ("enhance loud", _enhance_loud_args, True),
    ("enhance silent", _enhance_silence_args, False),
    # the sample is written at -26 dBFS RMS, far below full scale
    ("sample", lambda tmp_path: SAMPLE_ARGS, False),
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
