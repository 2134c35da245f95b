"""Tiny model factories and probe data shared between test modules.

This lives in its own module (rather than ``conftest.py``) because test files
import it directly: ``from conftest import ...`` is ambiguous when both
``tests/`` and ``benchmarks/`` define a ``conftest`` module in the same
pytest run.
"""

from __future__ import annotations

import numpy as np

from repro.core import FPFormat
from repro.models import ModelSpec, UNetConfig

TINY_UNET = UNetConfig(in_channels=3, out_channels=3, base_channels=8,
                       channel_multipliers=(1, 2), num_res_blocks=1,
                       attention_levels=(1,), num_heads=2)


def make_tiny_spec(name: str = "tiny-unconditional", task: str = "unconditional",
                   latent: bool = False) -> ModelSpec:
    """A minimal model spec used for fast unit tests."""
    unet = UNetConfig(
        in_channels=4 if latent else 3, out_channels=4 if latent else 3,
        base_channels=8, channel_multipliers=(1, 2), num_res_blocks=1,
        attention_levels=(1,), num_heads=2,
        context_dim=16 if task == "text-to-image" else None)
    return ModelSpec(
        name=name, task=task, image_size=16, image_channels=3,
        latent=latent, latent_channels=4, latent_downsample=4,
        unet=unet, text_embed_dim=16 if task == "text-to-image" else None,
        train_timesteps=20, default_sampling_steps=4, seed=3)


def fp_probe_values(fmt: FPFormat, rng, size: int = 2000) -> np.ndarray:
    """Float32 values where FP rounding is decided: every grid point, every
    rounding midpoint and every binade edge of ``fmt`` (each with its two
    float32 neighbours and its negation), zero, values past the clip, and
    random values over the format's range."""
    grid = fmt.representable_values()
    midpoints = (grid[1:] + grid[:-1]) / 2
    edges = 2.0 ** (np.arange(-2, 2 ** fmt.exponent_bits + 1) - fmt.bias)
    points = np.concatenate([grid, midpoints, edges]).astype(np.float32)
    points = np.concatenate([points, np.nextafter(points, np.float32(np.inf)),
                             np.nextafter(points, np.float32(0))])
    points = np.concatenate([points, -points, [0.0, 3 * fmt.max_value]])
    noise = rng.standard_normal(size) * fmt.max_value / 2
    return np.concatenate([points, noise]).astype(np.float32)
