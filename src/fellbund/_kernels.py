"""Convolution kernel.

Section coefficients for a whole bundle are flattened into one complex
vector.  A plan keeps, for every composable pair (h, k) whose three fibres
are nonzero, the slices of A_h, A_k and A_hk in that vector and the
multiplication tensor reshaped to (d_hk, d_h * d_k); the product is then one
small dense contraction per pair.
"""

from __future__ import annotations

import numpy as np


class ConvolutionPlan:
    """Precomputed pair table and tensors for one bundle.

    ``h_dim``, ``k_dim`` and ``o_dim`` list the fibre dimensions of every
    composable pair, zero-dimensional ones included.
    """

    def __init__(self, offsets: dict[str, int], dims: dict[str, int], total_dim: int,
                 pairs, tensors):
        self.total_dim = total_dim
        self.h_dim = np.array([dims[h] for h, _, _ in pairs], dtype=np.int64)
        self.k_dim = np.array([dims[k] for _, k, _ in pairs], dtype=np.int64)
        self.o_dim = np.array([dims[o] for _, _, o in pairs], dtype=np.int64)

        def span(g: str) -> slice:
            return slice(offsets[g], offsets[g] + dims[g])

        self.live = [(span(h), span(k), span(o),
                      np.ascontiguousarray(tensor, dtype=np.complex128)
                      .reshape(dims[o], dims[h] * dims[k]))
                     for (h, k, o), tensor in zip(pairs, tensors)
                     if dims[h] and dims[k] and dims[o]]

    def convolve(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.zeros(self.total_dim, dtype=np.complex128)
        for h, k, o, tensor in self.live:
            out[o] += tensor @ np.outer(x[h], y[k]).ravel()
        return out
