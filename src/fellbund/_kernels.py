"""Convolution kernel.

Section coefficients for a whole bundle are flattened into one complex
vector.  A plan groups the composable pairs (h, k) whose three fibres are
nonzero by their dimension triple (d_h, d_k, d_hk).  Each group keeps its
multiplication tensors stacked as (P, d_hk, d_h * d_k) with the indices of
A_h, A_k and A_hk in the packed vector.  A product is then one gather, one
batched contraction of the stacked tensors with the outer products of the
gathered blocks, and one scatter-add per group; the scatter is a
``np.bincount`` on the real and on the imaginary parts, since many pairs
share a target arrow.
"""

from __future__ import annotations

import numpy as np


def _spans(starts: list[int], d: int) -> np.ndarray:
    """Index rows start, ..., start + d - 1, one per start: shape (len, d)."""
    return np.array(starts, dtype=np.intp)[:, None] + np.arange(d)


class ConvolutionPlan:
    """Precomputed pair groups and stacked tensors for one bundle.

    ``h_dim``, ``k_dim`` and ``o_dim`` list the fibre dimensions of every
    composable pair, zero-dimensional ones included.
    """

    def __init__(self, offsets: dict[str, int], dims: dict[str, int], total_dim: int,
                 pairs, tensors):
        self.total_dim = total_dim
        self.h_dim = np.array([dims[h] for h, _, _ in pairs], dtype=np.int64)
        self.k_dim = np.array([dims[k] for _, k, _ in pairs], dtype=np.int64)
        self.o_dim = np.array([dims[o] for _, _, o in pairs], dtype=np.int64)

        members: dict[tuple[int, int, int], list] = {}
        for (h, k, o), tensor in zip(pairs, tensors):
            shape = (dims[h], dims[k], dims[o])
            if all(shape):
                members.setdefault(shape, []).append((offsets[h], offsets[k], offsets[o],
                                                      tensor))

        # per group: stacked tensors (P, d_o, d_h*d_k) and gather indices
        # (P, d_h), (P, d_k); the scatter indices of all groups, concatenated
        self.groups = []
        targets = []
        for (dh, dk, do), group in members.items():
            stack = np.array([t.reshape(do, dh * dk) for *_, t in group], dtype=np.complex128)
            self.groups.append((stack, _spans([m[0] for m in group], dh),
                                _spans([m[1] for m in group], dk)))
            targets.append(_spans([m[2] for m in group], do).ravel())
        self.targets = (np.concatenate(targets) if targets
                        else np.zeros(0, dtype=np.intp))

    def convolve(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if not self.groups:
            return np.zeros(self.total_dim, dtype=np.complex128)
        values = np.concatenate([
            np.matmul(stack, (x[h][:, :, None] * y[k][:, None, :])
                      .reshape(len(stack), -1, 1)).ravel()
            for stack, h, k in self.groups])
        out = np.empty(self.total_dim, dtype=np.complex128)
        out.real = np.bincount(self.targets, values.real, self.total_dim)
        out.imag = np.bincount(self.targets, values.imag, self.total_dim)
        return out
