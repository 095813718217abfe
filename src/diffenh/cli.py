"""Command-line surface: train, enhance, sample, benchmark.

Exit codes: 0 success, 1 usage error, 2 unused, 3 I/O error, 4 numeric
failure (non-finite scores, noise factors or training loss), 5 internal error
(a fault in diffenh itself, reported in one line).
An argument @FILE is replaced by the lines of FILE, one argument per line, so
flags after it win.  Randomized commands print their seed in the report header
so every run is reproducible.

Every command computes its grids with one front end, STFT = StftConfig(), and
sample draws at SamplerConfig(); neither is a flag, so a checkpoint and the
commands that read it cannot disagree about the grid.  A prior trained at
another StftConfig is enhanced through the library (em.enhance_waveform).

Input is checked in one order: flags (argparse types and exclusive groups,
cross-flag rules) and configs (their dataclasses), then the paths the command
will write (an empty path, a directory or a file in a missing directory exits
3), before any file is read; then what depends on the files read (--nmf-rank,
--clean) before any sampling, enhancing, training or writing.  So a usage
error (exit 1) or a bad output path costs no work and writes nothing.  Every
usage error is printed by main, as a usage line and then "PROG: error: MESSAGE".
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import metrics, noise_nmf, score, sde, signal
from .em import EnhancementConfig, enhance_waveform, synth_clean_waveform
from .sampler import SamplerConfig, unconditional_sample

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_INTERNAL = 5

# the RMS level of the WAV that sample --output writes: -26 dBFS
SAMPLE_RMS = 10.0 ** (-26.0 / 20.0)

# every command's STFT front end; see the module docstring
STFT = signal.StftConfig()


class _UsageError(Exception):
    """A usage error; main prints it under the usage line of parser, by default
    the command's once it is parsed."""

    def __init__(self, message, parser=None):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    # flags match exactly, so a new flag cannot change what an abbreviation meant
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, formatter_class=_fmt, **kwargs)

    # contract: usage errors exit 1, not argparse's default 2
    def error(self, message):
        raise _UsageError(message, self)

    # argparse would expand an @ line too, and a file naming itself would recurse
    def convert_arg_line_to_args(self, arg_line):
        if arg_line.startswith("@"):
            raise _UsageError(f"{arg_line}: an argument file may not name another")
        return [arg_line]


def _fmt(prog):
    # fixed width keeps --help output stable for the golden-file test
    return argparse.ArgumentDefaultsHelpFormatter(prog, width=100)


def _add_enhance_flags(p):
    E = EnhancementConfig
    p.add_argument("--em-iters", type=int, default=E.em_iters, help="EM iterations (K)")
    p.add_argument("--nmf-rank", type=int, default=E.nmf_rank, help="noise model rank (r)")


def _at_least(minimum: int):
    """argparse type for an integer of at least minimum, reported under the flag's name."""
    def parse(text: str) -> int:
        try:
            if int(text) >= minimum:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer of at least {minimum}, got {text!r}")
    return parse


def _hidden_widths(text: str) -> tuple[int, ...]:
    """--hidden as layer widths; argparse reports the error under the flag's name."""
    try:
        return tuple(_at_least(1)(v) for v in text.split(","))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integer widths of at least 1, got {text!r}") from None


def build_parser() -> _Parser:
    root = _Parser(prog="diffenh", fromfile_prefix_chars="@",
                   description="Speech enhancement with a diffusion prior and an NMF noise model.")
    sub = root.add_subparsers(dest="command", metavar="COMMAND", required=True)

    p = sub.add_parser("train", help="train the score network",
                       description="Train the toy score network on WAV data or a synthetic prior.")
    corpus = p.add_mutually_exclusive_group(required=True)
    corpus.add_argument("--data", metavar="DIR", help="directory of clean 16 kHz WAV files")
    corpus.add_argument(
        "--synthetic", action="store_true",
        help="train on draws from the built-in unit Gaussian prior instead of WAV data")
    p.add_argument("--out", required=True, help="checkpoint path to write")
    net = p.add_mutually_exclusive_group()
    net.add_argument("--resume", metavar="CKPT",
                     help="continue from a checkpoint, under its schedule and sizes")
    net.add_argument("--hidden", type=_hidden_widths,
                     default=",".join(map(str, score.DEFAULT_HIDDEN)),
                     help="comma-separated hidden layer widths")
    T = score.TrainConfig
    p.add_argument("--lr", type=float, default=T.lr, help="learning rate")
    p.add_argument("--lr-decay", choices=["constant", "cosine"], default=T.lr_decay,
                   help="learning-rate schedule")
    p.add_argument("--batch", dest="batch_size", metavar="BATCH", type=int, default=T.batch_size,
                   help="training batch size")
    p.add_argument("--epochs", type=int, default=T.epochs, help="training epochs")
    p.add_argument("--steps-per-epoch", type=int, default=T.steps_per_epoch,
                   help="optimizer steps per epoch")
    p.add_argument("--patch-frames", type=int, default=T.patch_frames,
                   help="frames per training patch")
    p.add_argument("--seed", type=_at_least(0), default=T.seed, help="master seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("enhance", help="enhance a noisy WAV file",
                       description="Enhance a noisy utterance with a trained checkpoint.")
    p.add_argument("--input", required=True, help="noisy WAV file")
    p.add_argument("--ckpt", required=True, help="score model checkpoint")
    p.add_argument("--output", required=True, help="enhanced WAV path to write")
    p.add_argument("--clean", help="reference WAV; adds a metric report")
    p.add_argument("--report", help="write the metric report as JSON here")
    p.add_argument("--seed", type=_at_least(0), default=EnhancementConfig.seed, help="master seed")
    _add_enhance_flags(p)
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("sample", help="sample the clean-speech prior unconditionally",
                       description="Draw unconditional prior samples from a trained checkpoint.")
    p.add_argument("--ckpt", required=True, help="score model checkpoint")
    p.add_argument("--output", help="WAV path for the synthesized sample")
    p.add_argument("--dump-spec", metavar="FILE",
                   help="write the sampled grid as a NumPy .npy file")
    p.add_argument("--frames", type=_at_least(2), default=128, help="spectrogram frames")
    p.add_argument("--seed", type=_at_least(0), default=0, help="master seed")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("benchmark", help="mix, enhance, and report SI-SDR over a corpus",
                       description="Benchmark enhancement quality over mixtures at several SNRs.")
    p.add_argument("--ckpt", required=True, help="score model checkpoint")
    corpus = p.add_mutually_exclusive_group(required=True)
    corpus.add_argument("--clean-dir", help="directory of clean WAV files")
    corpus.add_argument(
        "--synthetic", action="store_true",
        help="generate clean utterances from the checkpoint prior and structured noise")
    p.add_argument("--noise-dir", help="directory of noise WAV files, paired by sort order")
    p.add_argument("--utterances", type=_at_least(1), default=20, help="synthetic utterance count")
    p.add_argument("--frames", type=_at_least(2), default=128, help="synthetic utterance frames")
    p.add_argument("--snrs", default="-5,0,5", help="comma-separated mixture SNRs in dB")
    p.add_argument("--jobs", type=_at_least(1), default=1, help="concurrent utterances")
    p.add_argument("--seed", type=_at_least(0), default=EnhancementConfig.seed, help="master seed")
    p.add_argument("--report", help="write the aggregate report as JSON here")
    _add_enhance_flags(p)
    p.set_defaults(func=cmd_benchmark)

    for p in sub.choices.values():
        # flags lets a config error name the flag that set the field: --batch, not
        # batch_size; parser puts a usage error found after parsing under the
        # command's own usage line
        p.set_defaults(flags={a.dest: a.option_strings[-1] for a in p._actions}, parser=p)
    return root


# ---------------------------------------------------------------------------
# shared helpers


def _config(cls, args):
    """cls built from the parsed flags whose dest is one of its fields, the rest
    at their defaults; an invalid value is a usage error naming those flags."""
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if hasattr(args, f.name)}
    try:
        return cls(**values)
    except ValueError as exc:
        message = re.sub(r"\w+", lambda m: args.flags[m[0]] if m[0] in values else m[0], str(exc))
        raise _UsageError(message) from exc


def _check_outputs(*paths):
    """Each path a command will write, checked before any input is read: an empty
    path, a directory, a file in a missing directory or a repeated file is an I/O error."""
    named = [p for p in paths if p is not None]
    for i, path in enumerate(named):
        if not path:
            raise OSError(f"{path!r}: empty output path")
        if os.path.isdir(path):
            raise OSError(f"{path}: is a directory")
        parent = os.path.dirname(path)
        if parent and not os.path.isdir(parent):
            raise OSError(f"{path}: {parent} is not an existing directory")
        if os.path.realpath(path) in map(os.path.realpath, named[:i]):
            raise OSError(f"{path}: another output names the same file")


def _read(load, path):
    """load(path), with a malformed file (ValueError) reported as an I/O error."""
    try:
        return load(path)
    except ValueError as exc:
        raise OSError(str(exc)) from exc


def _load_wav(path) -> signal.Waveform:
    w = _read(signal.load_wav, path)
    if w.sample_rate != 16000:
        raise OSError(f"{path}: pipeline expects 16 kHz input, got {w.sample_rate} Hz")
    if not len(w):
        raise _UsageError(f"{path} holds no samples")
    return w


def _load_audible(flag, path) -> signal.Waveform:
    """A WAV that needs power: without it, SI-SDR, mixing and training's
    unit-power scaling are undefined."""
    w = _load_wav(path)
    if not np.any(w.samples):
        raise _UsageError(f"{flag}: {path} is silent (every sample is zero)")
    return w


def _save_wav(path, w: signal.Waveform):
    clipped = signal.save_wav(path, w)
    if clipped:
        print(f"diffenh: warning: {path}: clipped {clipped} of {len(w)} samples to [-1, 1]",
              file=sys.stderr)
    print(f"wrote {path}")


def _check_nmf_rank(rank: int, n_samples: int, what: str):
    """The noise factors cannot have more components than the grid has
    frames or bins; say so before any work is done."""
    frames = signal.n_frames(n_samples, STFT)
    if rank > min(frames, STFT.f_bins):
        raise _UsageError(
            f"--nmf-rank {rank} is too large for {what}: its {n_samples} samples give "
            f"{frames} STFT frame(s) x {STFT.f_bins} bins, and the rank may not exceed "
            f"either; lower --nmf-rank or use a longer input"
        )


def _wav_files(directory) -> list[str]:
    """Sorted paths of the .wav files in directory; none is an I/O error."""
    names = sorted(n for n in os.listdir(directory) if n.lower().endswith(".wav"))
    if not names:
        raise OSError(f"{directory}: no WAV files found")
    return [os.path.join(directory, n) for n in names]


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> int:
    cfg = _config(score.TrainConfig, args)
    _check_outputs(args.out)
    print(f"# seed={args.seed}")
    # a fresh net trains under SdeSchedule(), a resumed one under its checkpoint's
    if args.resume is not None:
        model, _ = _read(score.load_checkpoint, args.resume)
    else:
        model = score.ToyScoreNet(hidden=args.hidden, seed=args.seed)
    if args.synthetic:
        rng = np.random.default_rng(args.seed)
        # the reference prior's corpus: 64 unit-Gaussian grids of 16 bins x 64 frames
        dataset = [sde.complex_randn((16, 64), rng) for _ in range(64)]
    else:
        grids = (signal.stft(_load_audible("--data", p), STFT) for p in _wav_files(args.data))
        # each grid at unit mean power, the prior's scale, whatever its WAV's level
        dataset = [d / signal.rms(d) for d in grids]
    frames = min(d.shape[1] for d in dataset)
    cfg = dataclasses.replace(cfg, patch_frames=min(cfg.patch_frames, frames))
    model, history = score.train(model, dataset, cfg, model.sched)
    for epoch, loss in enumerate(history, 1):
        print(f"epoch {epoch}: loss {loss:.6f}")
    score.save_checkpoint(model, model.sched, args.out)
    print(f"wrote {args.out} ({model.n_params} parameters, step {model.step})")
    return EXIT_OK


def cmd_enhance(args) -> int:
    if args.report is not None and args.clean is None:
        raise _UsageError("--report needs --clean: the report holds metrics against the reference")
    cfg = _config(EnhancementConfig, args)
    _check_outputs(args.output, args.report)
    print(f"# seed={args.seed}")
    model, sched = _read(score.load_checkpoint, args.ckpt)
    # scored against --clean, silence in would be scored as silence out
    noisy = _load_wav(args.input) if args.clean is None else _load_audible("--input", args.input)
    clean = None if args.clean is None else _load_audible("--clean", args.clean)
    if clean is not None and len(clean) != len(noisy):
        raise _UsageError(
            f"length mismatch: --input has {len(noisy)} samples, --clean has {len(clean)}"
        )
    _check_nmf_rank(args.nmf_rank, len(noisy), "--input")
    enhanced = enhance_waveform(noisy, model, sched, STFT, cfg)
    _save_wav(args.output, enhanced)
    if clean is not None:
        report = metrics.evaluate_pair(noisy, enhanced, clean)
        sys.stdout.write("".join(f"{key}={value:.4f}\n" for key, value in report.items()))
        if args.report:
            metrics.write_report(args.report, report)
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.output is None and args.dump_spec is None:
        raise _UsageError("sample needs --output and/or --dump-spec")
    _check_outputs(args.output, args.dump_spec)
    print(f"# seed={args.seed}")
    model, sched = _read(score.load_checkpoint, args.ckpt)
    rng = np.random.default_rng(args.seed)
    spec = unconditional_sample((STFT.f_bins, args.frames), model, sched, SamplerConfig(), rng)
    # the waveform is made before anything is written, so a numeric failure writes nothing
    if args.output:
        raw = signal.istft(spec, STFT, (args.frames - 1) * STFT.hop)
        level = signal.rms(raw.samples)
        if level == 0.0:
            raise FloatingPointError("the prior sample's waveform has no power, "
                                     "so there is no level to write it at")
        wave = signal.Waveform(raw.samples / level * SAMPLE_RMS, raw.sample_rate)
    if args.dump_spec:
        # a path would get .npy appended; a file object is written as named
        with open(args.dump_spec, "wb") as fh:
            np.save(fh, spec)
        print(f"wrote {args.dump_spec}")
    if args.output:
        _save_wav(args.output, wave)
    return EXIT_OK


def _benchmark_pairs(args, model, sched):
    """The (label, clean, noise) waveforms of the benchmark grid, as a list."""
    rng = np.random.default_rng(args.seed)
    if args.synthetic:
        pairs = []
        for i in range(args.utterances):
            clean = synth_clean_waveform(args.frames, model, sched, STFT, rng)
            noise = signal.Waveform(
                noise_nmf.synth_noise_waveform(len(clean), args.nmf_rank, rng), clean.sample_rate
            )
            pairs.append((f"synthetic-{i:03d}", clean, noise))
        return pairs
    cleans = _wav_files(args.clean_dir)
    noises = [_load_audible("--noise-dir", n) for n in _wav_files(args.noise_dir)[: len(cleans)]]
    return [(os.path.basename(c), _load_audible("--clean-dir", c), noises[i % len(noises)])
            for i, c in enumerate(cleans)]


def cmd_benchmark(args) -> int:
    if (args.noise_dir is None) != (args.clean_dir is None):
        raise _UsageError("--noise-dir goes with --clean-dir, and only with it")
    cfg = _config(EnhancementConfig, args)
    try:
        snrs = [float(v) for v in args.snrs.split(",")]
    except ValueError as exc:
        raise _UsageError(f"bad --snrs value {args.snrs!r}") from exc
    bound = signal.MAX_SNR_DB
    if not all(-bound <= snr <= bound for snr in snrs):
        raise _UsageError(f"--snrs values must be finite dB levels in [{-bound:g}, {bound:g}], "
                          f"got {args.snrs!r}")
    if args.synthetic:
        # a synthetic utterance has (frames - 1) * hop samples, known before sampling
        _check_nmf_rank(args.nmf_rank, (args.frames - 1) * STFT.hop,
                        f"a synthetic utterance of --frames {args.frames}")
    _check_outputs(args.report)
    print(f"# seed={args.seed}")
    model, sched = _read(score.load_checkpoint, args.ckpt)
    pairs = _benchmark_pairs(args, model, sched)
    tasks = []
    for label, clean, noise in pairs:
        _check_nmf_rank(args.nmf_rank, len(clean), label)
        for snr in snrs:
            tasks.append((len(tasks), f"{label}@{snr:+g}dB", clean, noise, snr))

    def _run(task):
        index, label, clean, noise, snr = task
        noisy, _ = signal.mix_at_snr(clean, noise, snr, seed=args.seed + index)
        enhanced = enhance_waveform(noisy, model, sched, STFT,
                                    dataclasses.replace(cfg, seed=args.seed + index))
        return metrics.evaluate_pair(noisy, enhanced, clean)

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        reports = list(pool.map(_run, tasks))
    labels = [t[1] for t in tasks]
    for label, rep in zip(labels, reports):
        print(f"{label}: in {rep['input_si_sdr_db']:+.2f} dB out {rep['si_sdr_db']:+.2f} dB "
              f"delta {rep['delta_db']:+.2f} dB")
    payload = metrics.aggregate_reports(reports, labels)
    agg = payload["aggregate"]
    print(f"aggregate over {agg['count']}: si_sdr {agg['si_sdr_mean_db']:+.2f} "
          f"+/- {agg['si_sdr_halfwidth_db']:.2f} dB, delta {agg['delta_mean_db']:+.2f} "
          f"+/- {agg['delta_halfwidth_db']:.2f} dB")
    if args.report:
        metrics.write_report(args.report, payload)
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            raise _UsageError(f"{argv[0]} comes before the command; "
                              "the command comes first: diffenh COMMAND [flags]")
        try:
            args, extra = parser.parse_known_args(argv)
        except UnicodeDecodeError as exc:
            raise _UsageError(f"cannot decode an argument file: {exc}") from exc
        parser = args.parser
        if extra:
            raise _UsageError(f"unrecognized arguments: {' '.join(extra)}")
        return args.func(args)
    except _UsageError as exc:
        parser = exc.parser or parser
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # every OSError message names the offending path
        print(f"diffenh: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FloatingPointError as exc:
        print(f"diffenh: error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SystemExit as exc:
        # argparse --help exits 0 through here
        return int(exc.code or 0)
    except Exception as exc:
        # every user error has its own code above, so what reaches here is a fault in
        # diffenh, e.g. a library invariant the command's own checks missed
        print(f"diffenh: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
