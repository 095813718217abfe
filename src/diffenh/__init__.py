"""Unsupervised speech enhancement with a diffusion clean-speech prior.

A noisy utterance is modelled in the compressed STFT domain as clean speech
plus Gaussian noise whose variance is a low-rank NMF grid.  Enhancement
alternates posterior sampling under the diffusion prior (E-step) with
multiplicative NMF updates of the noise model (M-step).
"""

from .em import EnhancementConfig, enhance_waveform
from .score import load_checkpoint
from .signal import StftConfig, load_wav, save_wav

__all__ = [
    "EnhancementConfig", "StftConfig", "enhance_waveform",
    "load_checkpoint", "load_wav", "save_wav",
]

__version__ = "0.1.0"
