"""Unsupervised speech enhancement with a diffusion clean-speech prior.

A noisy utterance is modelled in the compressed STFT domain as clean speech
plus Gaussian noise whose variance is a low-rank NMF grid.  Enhancement
alternates posterior sampling under the diffusion prior (E-step) with
multiplicative NMF updates of the noise model (M-step).
"""

from .sde import SdeSchedule, KernelMoments, diffusion_coeff, kernel_moments, perturb
from .signal import StftConfig, Waveform, stft, istft, mix_at_snr, load_wav, save_wav
from .score import (
    AnalyticGaussianPrior,
    ToyScoreNet,
    TrainConfig,
    train,
    save_checkpoint,
    load_checkpoint,
)
from .sampler import SamplerConfig, posterior_sample, unconditional_sample
from .noise_nmf import NmfParams, init_nmf, is_objective, update_step, m_step
from .em import EnhancementConfig, EnhancementResult, enhance_spectrogram, enhance_waveform
from .metrics import si_sdr, evaluate_pair

__all__ = [
    "SdeSchedule",
    "KernelMoments",
    "diffusion_coeff",
    "kernel_moments",
    "perturb",
    "StftConfig",
    "Waveform",
    "stft",
    "istft",
    "mix_at_snr",
    "load_wav",
    "save_wav",
    "AnalyticGaussianPrior",
    "ToyScoreNet",
    "TrainConfig",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "SamplerConfig",
    "posterior_sample",
    "unconditional_sample",
    "NmfParams",
    "init_nmf",
    "is_objective",
    "update_step",
    "m_step",
    "EnhancementConfig",
    "EnhancementResult",
    "enhance_spectrogram",
    "enhance_waveform",
    "si_sdr",
    "evaluate_pair",
]

__version__ = "0.1.0"
