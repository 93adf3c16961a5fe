"""Spatial-domain ±1 steganography with co-occurrence-based evaluation."""

from .bits import CapacityError, FramingError, bits_to_bytes, bytes_to_bits
from .embed import EmbedConfig, embed, extract
from .glcm import band_energies, band_features, cooccurrence
from .harness import benchmark, synthetic_corpus
from .image import GrayImage, PgmFormatError, load_pgm, save_pgm

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "EmbedConfig",
    "FramingError",
    "GrayImage",
    "PgmFormatError",
    "band_energies",
    "band_features",
    "benchmark",
    "bits_to_bytes",
    "bytes_to_bits",
    "cooccurrence",
    "embed",
    "extract",
    "load_pgm",
    "save_pgm",
    "synthetic_corpus",
]
