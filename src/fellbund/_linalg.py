"""Dense complex linear algebra helpers.

Subspaces of C^N are stored as matrices with orthonormal rows ("frames").
Matrix subspaces use the same machinery after flattening.  The single rank
convention lives here: singular values below rtol * (largest singular value)
count as zero.  So does the one stacking mechanism: ``Stacks`` stacks arrays
once per shape, and ``gathered`` hands kernels their items by index.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

import numpy as np

Array = np.ndarray
_EPS = float(np.finfo(float).eps)
# elements per item times items per stack (1 MB of complex128): bounds the
# memory of one stacked call, except that an item larger than it runs alone
# (the matrix-model parse chunks its basis products by composable pair)
_STACK_CHUNK = 1 << 16


def as_complex(a) -> Array:
    return np.ascontiguousarray(np.asarray(a, dtype=np.complex128))


def readonly(a: Array) -> Array:
    a.setflags(write=False)
    return a


class Stacks:
    """Arrays stacked once per shape, read-only: item i is
    ``arrays[group[i]][row[i]]``, the groups in order of first appearance
    and the rows in item order.  The one place that groups arrays by shape:
    ``gathered`` reads items of stores like this by index."""

    def __init__(self, items: list[Array]):
        index: dict[tuple, int] = {}
        group = [index.setdefault(a.shape, len(index)) for a in items]
        if len(index) == 1:
            members, group, row = [items], np.zeros(len(items), dtype=np.intp), np.arange(len(items))
        else:
            members, row = [[] for _ in index], []
            for k, a in zip(group, items):
                row.append(len(members[k]))
                members[k].append(a)
        self.group = readonly(np.asarray(group, dtype=np.intp))
        self.row = readonly(np.asarray(row, dtype=np.intp))
        self.arrays = tuple([readonly(np.array(m)) for m in members])

    def __iter__(self) -> Iterator[Array]:
        """The items in order, read-only views into their groups' stacks."""
        return (self.arrays[k][r] for k, r in zip(self.group.tolist(), self.row.tolist()))

    def sizes(self, axis: int = 0) -> Array:
        """Each item's length along ``axis``."""
        return np.array([a.shape[axis + 1] for a in self.arrays], dtype=np.intp)[self.group]

    def groups(self) -> Iterator[tuple[Array, Array]]:
        """Per group, in order: the positions of its items (ascending) and its stack."""
        for k, stack in enumerate(self.arrays):
            yield np.flatnonzero(self.group == k), stack


def gathered(operands: list[tuple[Stacks, Array]], size: Callable[[tuple], int] | None = None
             ) -> Iterator[tuple[Array, tuple[Array, ...]]]:
    """Items given by index into stores stacked once (``Stacks``): item t has
    one operand per (st, idx) of ``operands``, item idx[t] of st.  Per group
    of items whose operands share their shapes (the groups in order of first
    appearance), in chunks of at most _STACK_CHUNK elements of
    ``size(shapes)`` per item (default: the item's largest array; an item
    larger than that runs alone, and a zero-size item counts as one element):
    the positions t of the chunk's items (ascending) and their operands,
    gathered by row."""
    n = len(operands[0][1])
    # per item, its groups in the stores of more than one shape: its part
    split = [st.group.take(idx).tolist() for st, idx in operands if len(st.arrays) > 1]
    parts: dict[tuple, Sequence[int]] = {}
    for t, key in enumerate(zip(*split)):
        parts.setdefault(key, []).append(t)
    # the items part by part, and per operand their rows in their groups' stacks
    if split:
        order = np.array([t for part in parts.values() for t in part], dtype=np.intp)
        rows = [st.row.take(idx.take(order)) if len(st.arrays) > 1 else idx.take(order)
                for st, idx in operands]
    else:
        parts = {(): range(n)} if n else {}
        order, rows = np.arange(n), [np.asarray(idx, dtype=np.intp) for _, idx in operands]
    end = 0
    for key, part in parts.items():
        groups = iter(key)
        arrays = [st.arrays[next(groups)] if len(st.arrays) > 1 else st.arrays[0]
                  for st, _ in operands]
        shapes = tuple([a.shape[1:] for a in arrays])
        per = size(shapes) if size else max([math.prod(s) for s in shapes])
        step = max(1, _STACK_CHUNK // max(1, per))
        start, end = end, end + len(part)
        for a in range(start, end, step):
            b = min(end, a + step)
            yield order[a:b], tuple([s.take(r[a:b], axis=0) for s, r in zip(arrays, rows)])


def stacked(operands: list[tuple[Stacks, Array]], fn: Callable[..., tuple],
            size: Callable[[tuple], int] | None = None) -> list[tuple]:
    """``fn`` on each chunk of ``gathered(operands, size)``; ``fn`` returns a
    tuple of stacks, and each item gets the tuple of its rows, in item order."""
    out: list = [None] * len(operands[0][1])
    for chunk, arrays in gathered(operands, size):
        for pos, rows in zip(chunk.tolist(), zip(*fn(*arrays))):
            out[pos] = rows
    return out


def orth_rows(vectors: Array, rtol: float = 1e-10) -> Array:
    """Orthonormal rows spanning the row space of ``vectors``."""
    vh, rank = stacked_orth_rows(as_complex(np.atleast_2d(vectors))[None], rtol)
    return np.ascontiguousarray(vh[0, :rank[0]])


def frame_project(frame: Array, vector: Array) -> Array:
    """Orthogonal projection of ``vector`` onto the span of ``frame`` rows."""
    if frame.shape[0] == 0:
        return np.zeros_like(as_complex(vector))
    coeff = frame.conj() @ vector
    return frame.T @ coeff


def residual_in_span(frame: Array, vector: Array) -> float:
    v = as_complex(vector)
    return float(np.linalg.norm(v - frame_project(frame, v)))


def residuals_in_span(frames: Array, vectors: Array) -> tuple[Array, Array]:
    """``residual_in_span`` of each row of each item: the residuals (t, m) of
    the rows of ``vectors`` (t, m, d) in the spans of ``frames`` (t, r, d),
    norms of V - (V F^H) F with one matrix-vector product per row as
    ``frame_project`` forms it; and the norms (t, m) of those rows."""
    t, m, d = vectors.shape
    coeff = np.matmul(frames.conj()[:, None], vectors[..., None])
    diff = vectors - np.matmul(np.swapaxes(frames, -1, -2)[:, None], coeff)[..., 0]
    return (row_norms(diff.reshape(t * m, d)).reshape(t, m),
            row_norms(vectors.reshape(t * m, d)).reshape(t, m))


def stacked_orth_rows(vectors: Array, rtol: float = 1e-10) -> tuple[Array, Array]:
    """``orth_rows`` of each item of a stack (t, m, d) from one stacked SVD:
    the right singular vectors (t, min(m, d), d) and the rank of each item
    (singular values above rtol times the largest), so that item i's frame
    is ``vh[i, :rank[i]]``."""
    t, m, d = vectors.shape
    if m == 0 or d == 0:
        return np.zeros((t, 0, d), dtype=np.complex128), np.zeros(t, dtype=np.intp)
    _, s, vh = np.linalg.svd(vectors, full_matrices=False)
    # an all-zero item has rank 0: no singular value exceeds rtol * 0
    return vh, np.sum(s > rtol * s[:, :1], axis=1)


def row_norms(stack: Array) -> Array:
    """Frobenius norm of each item of a stack (m, ...); robust for empty items.

    Equal bit for bit to ``np.linalg.norm`` of each item: the same
    real and imaginary dot products, one per item through batched matmul
    (``norm(..., axis=1)`` sums in another order)."""
    flat = flatten_stack(stack)
    re, im = flat.real, np.imag(flat)
    sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(sq[:, 0, 0])


def frames_contain(frames: Array, vectors: Array, tol: float) -> Array:
    """Whether every row of ``vectors`` (..., m, d) lies in the span of the
    orthonormal rows of ``frames`` (..., r, d), to ``tol`` times max(1, the
    row's norm); one answer per leading index (a bool for one frame)."""
    coeff = vectors @ np.swapaxes(frames, -1, -2).conj()
    res = np.linalg.norm(vectors - coeff @ frames, axis=-1)
    return (res <= tol * np.maximum(1.0, np.linalg.norm(vectors, axis=-1))).all(axis=-1)


def stacked_frame_eq(a: Array, arank: Array, b: Array, brank: Array, tol: float) -> Array:
    """``frame_eq`` of the frames ``a[i, :arank[i]]`` and ``b[i, :brank[i]]``
    for each item i of the stacks (t, *, d), as ``stacked_orth_rows`` returns
    them; the items of equal rank are checked together, both inclusions in
    one ``frames_contain``."""
    out = arank == brank
    for r in set(arank[out].tolist()):
        idx = np.flatnonzero(out & (arank == r))
        sa, sb = a[idx, :r], b[idx, :r]
        both = frames_contain(np.concatenate([sb, sa]), np.concatenate([sa, sb]), tol)
        out[idx] = both[:len(idx)] & both[len(idx):]
    return out


def frame_contains(frame: Array, vectors: Array, tol: float) -> bool:
    v = np.atleast_2d(as_complex(vectors))
    return v.shape[0] == 0 or bool(frames_contain(as_complex(frame), v, tol))


def frame_leq(sub: Array, sup: Array, tol: float) -> bool:
    return frame_contains(sup, sub, tol)


def frame_eq(a: Array, b: Array, tol: float) -> bool:
    return a.shape[0] == b.shape[0] and frame_leq(a, b, tol) and frame_leq(b, a, tol)


def null_space_rows(m: Array, rtol: float = 1e-10) -> Array:
    """Orthonormal rows spanning {x : m @ x = 0} (complex-correct).

    The full right factor is only needed when the system is wide; for tall
    systems the thin SVD already carries every candidate null direction.
    With at least twice as many rows as columns, s and vh come from the SVD
    of the R factor of m: LAPACK's own tall-matrix route (gesdd takes a QR
    first), with the same bits, but without forming the left factor.
    """
    m = as_complex(np.atleast_2d(m))
    if m.shape[1] == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if m.shape[0] == 0 or not np.any(m):
        return np.eye(m.shape[1], dtype=np.complex128)
    if m.shape[0] >= 2 * m.shape[1]:
        s, vh = np.linalg.svd(np.linalg.qr(m, mode="r"))[1:]
    else:
        _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    cutoff = rtol * max(float(s[0]) if s.size else 0.0, 1.0)
    rows = [np.conj(vh[k]) for k in range(len(s)) if s[k] <= cutoff]
    rows += [np.conj(vh[k]) for k in range(len(s), vh.shape[0])]
    if not rows:
        return np.zeros((0, m.shape[1]), dtype=np.complex128)
    return orth_rows(np.array(rows), rtol)


def frame_intersection(a: Array, b: Array, dim: int, rtol: float = 1e-10) -> Array:
    """Frame for span(a) ∩ span(b) inside C^dim.

    SVD of the stacked orthogonal complements: v lies in the intersection iff
    both complement projections kill it.
    """
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((0, dim), dtype=np.complex128)
    one = np.zeros(1, dtype=np.intp)
    return np.array(next(iter(frame_intersections((Stacks([a]), one), (Stacks([b]), one), rtol))))


def frame_intersections(a: tuple[Stacks, Array], b: tuple[Stacks, Array],
                        rtol: float = 1e-10) -> Stacks:
    """``frame_intersection`` of each item t of the frames a[1][t] of the
    store a[0] (r_a, d) and b[1][t] of b[0] (r_b, d), index arrays both,
    stacked (``Stacks``).

    Equal bit for bit to one ``frame_intersection`` per pair, in two
    stacked passes: the pairs of equal shapes form their complement
    projections with one batched matmul and take one stacked SVD of them,
    and the null rows of equal shape share one ``stacked_orth_rows``.
    """
    (sa, ia), (sb, ib) = a, b
    out = [np.zeros((0, d), dtype=np.complex128) for d in sa.sizes(1)[ia]]
    live = np.flatnonzero(sa.sizes()[ia] * sb.sizes()[ib])
    null, rows = [], []
    for i, (full, some, cut, vh) in zip(live, stacked(
            [(sa, ia[live]), (sb, ib[live])], lambda a, b: _null_directions(a, b, rtol),
            lambda shapes: 2 * shapes[0][1] ** 2)):
        if full:
            out[i] = vh
        elif some:
            null.append(i)
            rows.append(np.conj(vh[cut]))
    for i, (vh, rank) in zip(null, stacked([(Stacks(rows), np.arange(len(rows)))],
                                           lambda v: stacked_orth_rows(v, rtol))):
        out[i] = vh[:rank]
    return Stacks(out)


def _null_directions(a: Array, b: Array, rtol: float) -> tuple[Array, Array, Array, Array]:
    """For the frames a (t, r_a, d) and b (t, r_b, d): whether both
    complement projections vanish (v lies in both spans iff both
    complements kill it), and of the other items the right singular vectors
    vh (t, d, d) of the complements stacked (2d, d), the mask (t, d) of
    those whose singular values are at most rtol times max(1, the largest)
    and whether each item has any; items with vanishing complements keep
    the identity as vh."""
    t, _, d = a.shape
    eye = np.eye(d, dtype=np.complex128)
    m = np.concatenate([eye - np.swapaxes(a, 1, 2) @ a.conj(),
                        eye - np.swapaxes(b, 1, 2) @ b.conj()], axis=1)
    full = ~m.reshape(t, -1).any(axis=1)
    vh = np.repeat(eye[None], t, axis=0)
    cut = np.zeros((t, d), dtype=bool)
    if not full.all():
        _, s, v = np.linalg.svd(m[~full], full_matrices=False)
        vh[~full] = v
        cut[~full] = s <= rtol * np.maximum(s[:, :1], 1.0)
    return full, cut.any(axis=1), cut, vh


def frame_complement(frame: Array, dim: int, rtol: float = 1e-10) -> Array:
    """Frame for the orthogonal complement of span(frame) in C^dim."""
    eye = np.eye(dim, dtype=np.complex128)
    if frame.shape[0] == 0:
        return eye
    proj = frame.T @ frame.conj()
    return orth_rows(eye - proj, rtol)


def matrix_rank(a: Array, rtol: float = 1e-10) -> int:
    a = as_complex(np.atleast_2d(a))
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def operator_norm(a: Array) -> float:
    a = as_complex(np.atleast_2d(a))
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def hermitian_part(a: Array) -> Array:
    """(a + a*) / 2; a stack (m, n, n) is taken matrix by matrix."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def psd_power(a: Array, power: float, rtol: float = 1e-10) -> Array:
    """Spectral power of a PSD matrix; eigenvalues below threshold become 0.

    Negative powers are pseudo-inverse powers on the support.
    """
    a = hermitian_part(as_complex(a))
    if a.size == 0:
        return a
    vals, vecs = np.linalg.eigh(a)
    top = max(float(vals[-1]), 0.0)
    cut = rtol * top if top > 0 else 0.0
    out = np.zeros_like(vals)
    keep = vals > cut
    out[keep] = vals[keep] ** power
    return (vecs * out) @ vecs.conj().T


def solve_lstsq(a: Array, b: Array) -> tuple[Array, float]:
    """Least-squares solve of one system (``stacked_lstsq``); returns
    (solution, residual norm of a@x-b)."""
    x, res, _ = stacked_lstsq(as_complex(np.atleast_2d(a))[None], as_complex(b)[None])
    return x[0], float(res[0])


def stacked_lstsq(a: Array, b: Array) -> tuple[Array, Array, Array]:
    """Least-squares solutions (t, N) of the systems a (t, M, N), b (t, M)
    from one stacked SVD, with the residual norms |a x - b| (t,) and the
    singular values (t, min(M, N)).  Singular values at or below
    eps * max(M, N) * s_0 count as zero, as in ``np.linalg.lstsq``."""
    _, m, n = a.shape
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > _EPS * max(m, n) * s[:, :1])
    x = np.swapaxes(vh, 1, 2).conj() @ (inv[:, :, None] * (np.swapaxes(u, 1, 2).conj()
                                                          @ b[:, :, None]))
    return x[:, :, 0], np.linalg.norm((a @ x)[:, :, 0] - b, axis=1), s


# -- matrix stacks -----------------------------------------------------------
#
# A "stack" is an array of shape (d, n, m): d basis matrices of shape (n, m).

def flatten_stack(stack: Array) -> Array:
    """(d, n, m) stack -> (d, n*m) row matrix; robust for d = 0."""
    d = stack.shape[0]
    rest = math.prod(stack.shape[1:]) if stack.ndim > 1 else 0
    return stack.reshape(d, rest)


def stack_orth(mats, n: int, m: int, rtol: float = 1e-10) -> Array:
    """HS-orthonormalised stack spanning the same matrix subspace."""
    mats = [as_complex(x) for x in mats]
    if not mats:
        return np.zeros((0, n, m), dtype=np.complex128)
    flat = np.stack([x.reshape(-1) for x in mats])
    q = orth_rows(flat, rtol)
    return q.reshape(q.shape[0], n, m)  # rank 0 when n * m == 0


def stack_expand(stack: Array, mat: Array) -> tuple[Array, float]:
    """Coefficients of ``mat`` in an HS-orthonormal stack, plus the residual."""
    if stack.shape[0] == 0:
        return np.zeros(0, dtype=np.complex128), float(np.linalg.norm(mat))
    flat = flatten_stack(stack)
    coeff = flat.conj() @ as_complex(mat).reshape(-1)
    res = float(np.linalg.norm(mat - np.tensordot(coeff, stack, axes=1)))
    return coeff, res


def stack_combine(stack: Array, coeff: Array) -> Array:
    if stack.shape[0] == 0:
        return np.zeros(stack.shape[1:], dtype=np.complex128)
    return np.tensordot(as_complex(coeff), stack, axes=1)


def algebra_unit(stack: Array, tol: float = 1e-8) -> Array | None:
    """Coefficients of the two-sided unit of span(stack), or None.

    Solves sum_j c_j B_j B_i = B_i for all i in the least-squares sense, then
    checks the residual and that the solution is a unit on both sides; works
    for any *-closed matrix algebra or ideal (finite-dimensional
    C*-algebras are unital).
    """
    return algebra_units(Stacks([stack]), tol)[0]


def algebra_units(stacks: Stacks, tol: float = 1e-8) -> list[Array | None]:
    """``algebra_unit`` of each item (d, n, n) of the store; the items of
    equal shape are solved together by ``stacked_lstsq``."""
    live = np.flatnonzero(stacks.sizes())
    out: list = [np.zeros(0, dtype=np.complex128) for _ in stacks.group]
    # size: the d^2 products B_j B_i of each stack
    for i, (c, ok) in zip(live, stacked([(stacks, live)], lambda s_: _unit_coords(s_, tol),
                                        lambda shapes: shapes[0][0] * math.prod(shapes[0]))):
        out[i] = c if ok else None
    return out


def _unit_coords(s_: Array, tol: float) -> tuple[Array, Array]:
    """Least-squares unit coefficients (t, d) of the stacks s_ (t, d, n, n)
    and whether each solves the unit system and is a unit on both sides."""
    t, d, n, _ = s_.shape
    m = d * n * n
    # column j of block row i: B_j B_i, flattened
    a = np.moveaxis(np.matmul(s_[:, None], s_[:, :, None]), 2, 4).reshape(t, m, d)
    b = s_.reshape(t, m)
    c, res, _ = stacked_lstsq(a, b)
    unit = (c[:, None] @ s_.reshape(t, d, n * n)).reshape(t, 1, n, n)
    sided = np.linalg.norm(np.stack([unit @ s_ - s_, s_ @ unit - s_]), axis=(3, 4))
    ok = ~(res > tol * np.maximum(1.0, np.linalg.norm(b, axis=1))) \
        & ~(sided.max(axis=(0, 2)) > tol)
    return c, ok


def random_unitary(n: int, rng: np.random.Generator) -> Array:
    """Haar unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def cluster_eigenvalues(vals: Array, gap: float) -> list[np.ndarray]:
    """Indices of eigenvalues grouped into clusters separated by > gap."""
    order = np.argsort(vals)
    clusters: list[list[int]] = []
    prev = None
    for idx in order:
        v = vals[idx]
        if prev is None or v - prev > gap:
            clusters.append([int(idx)])
        else:
            clusters[-1].append(int(idx))
        prev = v
    return [np.array(c) for c in clusters]
