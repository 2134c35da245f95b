"""Block-wise evaluation of full-tensor quantization passes.

Quantizing, packing and dequantizing a tensor is elementwise once each
element's grid is known — one grid per tensor, per output-channel row or
per bias block — so every such pass can run on the flattened tensor one
span at a time, with the same arithmetic per element as on the whole
tensor.  Its temporaries (several float64 arrays per pass) then take a few
blocks' bytes instead of several times the tensor's.  A tensor of at most
one block is passed whole, so small tensors (search subsamples,
activations) run exactly the code they ran before blocking.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

#: Elements per span: one float64 temporary of a span takes 512 KiB.
BLOCK = 2 ** 16


def spans(size: int, align: int = 1) -> List[slice]:
    """Consecutive slices covering ``range(size)``.

    Every slice starts at a multiple of ``align`` and holds at most
    ``BLOCK`` elements, or ``align`` when that is larger.
    """
    step = max(align, BLOCK - BLOCK % align)
    return [slice(start, min(start + step, size))
            for start in range(0, size, step)]


def flat(values: np.ndarray):
    """``values`` in C order, sliceable by span without copying the whole
    tensor: a view when contiguous, else a flat iterator (whose slices
    copy one span)."""
    return values.reshape(-1) if values.flags.c_contiguous else values.flat


def map_blocks(kernel: Callable[[np.ndarray, Optional[slice]], np.ndarray],
               values, align: int = 1) -> np.ndarray:
    """The float32 result of an elementwise ``kernel`` over ``values``.

    ``kernel(part, span)`` returns the results of the elements ``span`` of
    ``values`` flattened in C order, given as the 1-D ``part``.  A tensor
    of at most ``BLOCK`` elements is passed whole, as ``kernel(values,
    None)``, and its result returned as is; a larger one goes span by span
    (see :func:`spans`) into one float32 array of its shape.
    """
    values = np.asarray(values)
    if values.size <= BLOCK:
        return kernel(values, None)
    out = np.empty(values.shape, dtype=np.float32)
    source, target = flat(values), out.reshape(-1)
    for span in spans(values.size, align):
        target[span] = kernel(source[span], span).reshape(-1)
    return out
