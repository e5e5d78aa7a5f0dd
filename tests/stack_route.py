"""The stack route of block decomposition, kept as the reference for the
library's one route (``fellbund.envelope.block_decomposition``).

It takes any stack of matrices, with no structure tensors: the stack is
HS-orthonormalised to B_1..B_d, batched matmul gives the structure constants
c[i, j, m] = tr(B_m* B_i B_j) block by block, and the span is checked to be
closed under products and adjoints.  The centre is the null space of the
d²×d system sum_k z_k (c[k,j,:] - c[j,k,:]) = 0, taken from its R factor, and
the two-sided unit must solve the 2d²×d system
sum_j u_j c[j,i,:] = e_i = sum_j u_j c[i,j,:].  The seeded central-element
attempts are the library's (``envelope._central_blocks``), so both routes
sort tied blocks on the same HS-orthonormalised stack.

The cost is d²·sum_b n_b³ (plus d³·sum_b n_b² to contract the products), and
the memory is c, the commutator system and the copy its QR takes, d³
complex entries each, of which at most two are held at once, plus products
and checks in chunks of la._STACK_CHUNK elements.
"""

from __future__ import annotations

import numpy as np

import fellbund._linalg as la
from fellbund.config import DEFAULT, Tolerances
from fellbund.envelope import SimpleBlock, _central_blocks, _common_blocks

Array = np.ndarray


def stack_blocks(stack: Array, tols: Tolerances = DEFAULT) -> list[SimpleBlock]:
    """Simple summands of the matrix *-algebra spanned by ``stack``; [] for
    the zero algebra, ValueError for a stack that is not a unital *-algebra."""
    basis = la.stack_orth(list(stack), stack.shape[1], stack.shape[2], tols.rank_threshold)
    d, N, _ = basis.shape
    if d == 0:
        return []
    parts = _common_blocks(basis)
    pieces = [basis[:, p[:, None], p[None, :]] for p in parts]
    tol = max(tols.tolerance, 1e-8)
    c = _structure_constants(pieces)
    _check_product_closed(c, pieces, tol)
    _check_adjoint_closed(pieces, tol)
    unit_coeff = _unit_coefficients(c, pieces, tol)

    # row (j, m), column k: coordinate m of [B_k, B_j], formed once in its own
    # layout; c is let go before its QR copies the system: two d³ arrays at most
    comm = np.subtract(c.transpose(1, 2, 0), c.transpose(0, 2, 1), order="C")
    del c
    null = la.null_space_rows(comm.reshape(d * d, d), tols.rank_threshold)
    del comm
    if null.shape[0] == 0:
        raise ValueError("algebra has empty centre; spanning stack degenerate")

    # the algebra may act degenerately on the ambient space (an ideal inside
    # a larger matrix algebra); its unit is then a proper support projection
    # and every central element carries a spurious kernel eigenvalue cluster
    if unit_coeff is None:
        raise ValueError("spanning stack is not a unital *-algebra")
    support = [np.tensordot(unit_coeff, p, axes=1) for p in pieces]
    support_rank = int(round(sum(float(np.real(np.trace(s))) for s in support)))
    return _central_blocks(pieces, parts, null, support if support_rank < N else None, tols,
                           lambda: basis)


def _structure_constants(pieces: list[Array]) -> Array:
    """c[i, j, m] = tr(B_m* B_i B_j) from the diagonal blocks of an
    HS-orthonormal stack."""
    d = pieces[0].shape[0]
    c = np.zeros((d, d, d), dtype=np.complex128)
    for p in pieces:
        conj = p.conj()
        for rows, prods in _block_products(p):
            c[rows] += np.tensordot(prods, conj, axes=([2, 3], [1, 2]))
    return c


def _check_product_closed(c: Array, pieces: list[Array], tol: float) -> None:
    """Raises unless every B_i B_j lies in the span: equals sum_m c[i, j, m] B_m."""
    d = c.shape[0]
    miss = np.zeros((d, d))
    size = np.zeros((d, d))
    for p in pieces:
        for rows, prods in _block_products(p):
            miss[rows] += np.sum(np.abs(prods - np.tensordot(c[rows], p, axes=1)) ** 2, axis=(2, 3))
            size[rows] += np.sum(np.abs(prods) ** 2, axis=(2, 3))
    worst = np.sqrt(miss) / np.maximum(1.0, np.sqrt(size))
    if worst.max() > tol:
        i, j = np.unravel_index(int(np.argmax(worst)), worst.shape)
        raise ValueError(f"spanning stack is not closed under products: B_{i} B_{j} "
                         f"leaves the span (residual {worst[i, j]:.3e}); "
                         "input is not a *-algebra")


def _block_products(p: Array):
    """(rows, B_i B_j for i in rows and every j) on one diagonal block, in
    chunks of at most la._STACK_CHUNK elements (one row at least)."""
    d, n, _ = p.shape
    side = p.transpose(1, 0, 2).reshape(n, d * n)     # [B_1 | B_2 | ... | B_d]
    step = max(1, la._STACK_CHUNK // (d * n * n))
    for start in range(0, d, step):
        rows = slice(start, min(start + step, d))
        k = rows.stop - rows.start
        prods = (p[rows].reshape(k * n, n) @ side).reshape(k, n, d, n).transpose(0, 2, 1, 3)
        yield rows, prods


def _check_adjoint_closed(pieces: list[Array], tol: float) -> None:
    """Raises unless every B_i* lies in the span of the HS-orthonormal stack."""
    d = pieces[0].shape[0]
    coeff = sum(np.einsum("mab,iba->im", p.conj(), p.conj()) for p in pieces)
    miss = sum(np.linalg.norm((p.conj().transpose(0, 2, 1)
                               - np.tensordot(coeff, p, axes=1)).reshape(d, -1), axis=1) ** 2
               for p in pieces)
    worst = float(np.sqrt(np.max(miss)))
    if worst > tol:
        raise ValueError(f"spanning stack is not closed under adjoints (residual "
                         f"{worst:.3e}); input is not a *-algebra")


def _unit_coefficients(c: Array, pieces: list[Array], tol: float) -> Array | None:
    """Coefficients u of the two-sided unit, or None.

    The unit p of a *-algebra A in Mat(N) is the HS projection of the
    identity onto A, because a(1 - p) = 0 for every a in A; so u_m =
    conj(tr B_m).  It is accepted only if it solves the 2d²×d unit system
    sum_j u_j c[j,i,:] = e_i = sum_j u_j c[i,j,:] for every i, contracted
    with c in place.
    """
    d = c.shape[0]
    u = np.conj(sum(np.trace(p, axis1=1, axis2=2) for p in pieces))
    left = (u @ c.reshape(d, d * d)).reshape(d, d)   # row i: sum_j u_j c[j, i, :]
    right = u @ c                                     # row i: sum_j u_j c[i, j, :]
    miss = max(float(np.linalg.norm(side - np.eye(d), axis=1).max()) for side in (left, right))
    return u if miss <= tol else None
