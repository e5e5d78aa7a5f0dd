"""Convolution kernel.

Section coefficients for a whole bundle are flattened into one complex
vector.  A plan keeps, per group of the bundle's ``mult`` store whose three
fibre dimensions (d_hk, d_h, d_k) are nonzero, the stack as a (P, d_hk,
d_h * d_k) view with the indices of A_h, A_k and A_hk in the packed vector.
A product is then one gather, one batched contraction of the stacked
tensors with the outer products of the gathered blocks, and one scatter-add
per group; the scatter is a ``np.bincount`` on the real and on the
imaginary parts, since many pairs share a target arrow.
"""

from __future__ import annotations

import numpy as np


def _spans(starts, d: int) -> np.ndarray:
    """Index rows start, ..., start + d - 1, one per start: shape (len, d)."""
    return np.asarray(starts, dtype=np.intp)[:, None] + np.arange(d)


class ConvolutionPlan:
    """Pair groups of one bundle's ``mult`` store (``la.Stacks`` in the order
    of the groupoid's ``pairs``) with their packed positions.  ``h_dim``,
    ``k_dim`` and ``o_dim`` list the fibre dimensions of every composable
    pair, zero-dimensional ones included.
    """

    def __init__(self, pairs: np.ndarray, comp: np.ndarray, dims: np.ndarray, mult):
        h, k = pairs[:, 0], pairs[:, 1]
        o = comp[h, k]
        self.total_dim = int(dims.sum())
        self.h_dim, self.k_dim, self.o_dim = (dims[a].astype(np.int64) for a in (h, k, o))
        starts = np.cumsum(dims) - dims

        # per group: stacked tensors (P, d_o, d_h*d_k) and gather indices
        # (P, d_h), (P, d_k); the scatter indices of all groups, concatenated
        self.groups, targets = [], []
        for at, stack in mult.groups():
            P, do, dh, dk = stack.shape
            if do and dh and dk:
                self.groups.append((stack.reshape(P, do, dh * dk), _spans(starts[h[at]], dh),
                                    _spans(starts[k[at]], dk)))
                targets.append(_spans(starts[o[at]], do).ravel())
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
