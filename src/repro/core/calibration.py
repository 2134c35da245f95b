"""Calibration data collection from the full-precision model (paper Sec. V).

Two small datasets drive the PTQ method:

* the **initialization dataset** — per-layer input activations sampled
  uniformly across denoising timesteps, used by Algorithm 1 to choose the
  activation tensor's encoding and bias, and
* the **calibration dataset** — per-layer input activations used as ``A`` in
  the rounding-learning objective.

Both are gathered by temporarily wrapping every Conv2d / Linear layer (and
every skip-connection concat) of the U-Net with a recording shim, running the
full-precision pipeline for a handful of seeds/prompts, and then restoring
the original modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..models import SkipConcat
from ..tensor import Tensor


@dataclass
class CalibrationConfig:
    """How much calibration data to collect and how it is spread over steps."""

    num_samples: int = 4
    max_records_per_layer: int = 8
    batch_size: int = 2
    seed: int = 0


@dataclass
class CalibrationData:
    """Recorded per-layer input activations.

    ``activations`` maps a dotted layer path (relative to the U-Net) to a
    list of recorded input arrays.  Skip concats record their two inputs
    under ``<path>.main`` and ``<path>.skip``.
    """

    activations: Dict[str, List[np.ndarray]] = field(default_factory=dict)

    def record(self, name: str, value: np.ndarray, limit: int) -> None:
        bucket = self.activations.setdefault(name, [])
        if len(bucket) < limit:
            bucket.append(np.asarray(value, dtype=np.float32).copy())

    def concatenated(self, name: str) -> np.ndarray:
        """All records for a layer flattened into a single sample array."""
        records = self.activations.get(name, [])
        if not records:
            return np.zeros((0,), dtype=np.float32)
        return np.concatenate([r.reshape(-1) for r in records])

    def samples(self, name: str) -> List[np.ndarray]:
        return list(self.activations.get(name, []))

    def layer_names(self) -> List[str]:
        return sorted(self.activations)


class _Recording(nn.Module):
    """Forward shim recording the inputs of a module: its ``i``-th positional
    input under ``names[i]`` (a Conv2d/Linear layer records one, a skip
    concat its main and skip inputs)."""

    def __init__(self, inner: nn.Module, names: Sequence[str],
                 data: CalibrationData, limit: int, stride: int):
        super().__init__()
        self.inner = inner
        self._names = names
        self._data = data
        self._limit = limit
        self._stride = max(stride, 1)
        self._calls = 0

    def forward(self, *inputs: Tensor, **kwargs) -> Tensor:
        if self._calls % self._stride == 0:
            for name, x in zip(self._names, inputs):
                self._data.record(name, x.data, self._limit)
        self._calls += 1
        return self.inner(*inputs, **kwargs)


def quantizable_layer_paths(unet: nn.Module) -> List[Tuple[str, nn.Module]]:
    """Dotted paths of every Conv2d and Linear layer in breadth-first order.

    Breadth-first (shallow-to-deep) ordering matches Algorithm 1's greedy
    layer-by-layer traversal.
    """
    entries = [(path, module) for path, module in unet.named_modules()
               if isinstance(module, (nn.Conv2d, nn.Linear))]
    entries.sort(key=lambda item: (item[0].count("."), item[0]))
    return entries


def skip_concat_paths(unet: nn.Module) -> List[Tuple[str, SkipConcat]]:
    """Dotted paths of every skip-connection concatenation in the U-Net."""
    return [(path, module) for path, module in unet.named_modules()
            if isinstance(module, SkipConcat)]


def collect_calibration_data(pipeline, config: Optional[CalibrationConfig] = None,
                             prompts: Optional[Sequence[str]] = None
                             ) -> CalibrationData:
    """Run the full-precision pipeline and record per-layer input activations.

    ``pipeline`` is a :class:`repro.diffusion.DiffusionPipeline` wrapping the
    *unquantized* model.  The recording stride is chosen so that the records
    are spread roughly uniformly across the denoising timesteps, mirroring
    the paper's uniform-across-timesteps sampling.
    """
    config = config or CalibrationConfig()
    unet = pipeline.model.unet
    data = CalibrationData()

    expected_calls = pipeline.num_steps * max(
        1, int(np.ceil(config.num_samples / config.batch_size)))
    stride = max(1, expected_calls // config.max_records_per_layer)

    originals = ([(path, module, (path,))
                  for path, module in quantizable_layer_paths(unet)]
                 + [(path, module, (f"{path}.main", f"{path}.skip"))
                    for path, module in skip_concat_paths(unet)])
    for path, module, names in originals:
        unet.set_submodule(path, _Recording(module, names, data,
                                            config.max_records_per_layer, stride))
    try:
        if pipeline.is_text_to_image:
            if prompts is None:
                raise ValueError("text-to-image calibration requires prompts")
            pipeline.generate_from_prompts(list(prompts)[: config.num_samples],
                                           seed=config.seed,
                                           batch_size=config.batch_size)
        else:
            pipeline.generate(config.num_samples, seed=config.seed,
                              batch_size=config.batch_size)
    finally:
        for path, module, _names in originals:
            unet.set_submodule(path, module)
    return data
