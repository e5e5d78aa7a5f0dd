"""The per-arrow and per-pair route of the matrix-model parse, kept as the
reference for the library's stacked one (``fellbund.bundle.MatrixModelBundle``).

Each fibre is HS-orthonormalised by its own ``la.stack_orth``.  Each
composable pair (g, h) forms the products of its basis pairs by stacked
matmuls over slices of the basis of A_g (_STACK_CHUNK elements of products
at a time) and expands them in the composite fibre by one matrix-vector
product each; each arrow expands its adjoints in the fibre of its inverse
the same way.  The library forms the same products and matrix-vector
products for all pairs or arrows of one shape at once, so both routes
must agree bit for bit.
"""

from __future__ import annotations

import numpy as np

import fellbund._linalg as la
from fellbund.groupoid import composable_pairs

Array = np.ndarray


def orthonormal_fibres(groupoid, fibers, obj_dims=None, rtol=1e-10) -> dict[str, Array]:
    """The fibres as ``MatrixModelBundle(groupoid, fibers, obj_dims, rtol)``
    keeps them, for input that it accepts."""
    raw = {g: [la.as_complex(m) for m in fibers.get(g, [])] for g in groupoid.arrows}
    dims = dict(obj_dims or {})
    for g, mats in raw.items():
        for m in mats:
            dims.setdefault(groupoid.rng[g], m.shape[0])
            dims.setdefault(groupoid.src[g], m.shape[1])
    return {g: la.stack_orth(raw[g], dims[groupoid.rng[g]], dims[groupoid.src[g]], rtol)
            for g in groupoid.arrows}


def structure_tensors(groupoid, fibres: dict[str, Array]) -> tuple[dict, dict, dict]:
    """mult, inv and unit_rep of the HS-orthonormal ``fibres``, pair by pair
    and arrow by arrow."""
    G = groupoid
    dims = {g: fibres[g].shape[0] for g in G.arrows}
    flat = {g: la.flatten_stack(fibres[g]) for g in G.arrows}
    mult = {}
    for g, h in composable_pairs(G):
        gh = G.comp[(g, h)]
        n = flat[gh].shape[1]
        tensor = np.empty((dims[gh], dims[g], dims[h]), dtype=np.complex128)
        rows = max(1, la._STACK_CHUNK // max(1, dims[h] * n))
        for i in range(0, dims[g], rows):
            prods = np.matmul(fibres[g][i:i + rows, None], fibres[h][None])
            k = prods.shape[0]
            tensor[:, i:i + k] = _expand(flat[gh], prods.reshape(k * dims[h], n)
                                         ).reshape(dims[gh], k, dims[h])
        mult[(g, h)] = tensor
    inv = {}
    for g in G.arrows:
        adjoints = np.conj(fibres[g]).transpose(0, 2, 1)
        inv[g] = _expand(flat[G.inv[g]], adjoints.reshape(dims[g], flat[G.inv[g]].shape[1]))
    unit_rep = {x: fibres[G.unit[x]] for x in G.objects}
    return mult, inv, unit_rep


def _expand(flat: Array, mats: Array) -> Array:
    """Coefficients (d, m) of the flattened matrices ``mats`` (m, N) in the
    HS-orthonormal rows ``flat`` (d, N): one matrix-vector product per
    matrix, as ``la.stack_expand`` forms it."""
    return np.matmul(flat.conj(), mats[:, :, None])[:, :, 0].T
