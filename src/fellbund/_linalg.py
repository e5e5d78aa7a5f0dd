"""Dense complex linear algebra helpers.

Subspaces of C^N are stored as matrices with orthonormal rows ("frames").
Matrix subspaces use the same machinery after flattening.  The single rank
convention lives here: singular values below rtol * (largest singular value)
count as zero.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray


def as_complex(a) -> Array:
    return np.ascontiguousarray(np.asarray(a, dtype=np.complex128))


def orth_rows(vectors: Array, rtol: float = 1e-10) -> Array:
    """Orthonormal rows spanning the row space of ``vectors``."""
    v = as_complex(np.atleast_2d(vectors))
    if v.size == 0 or v.shape[0] == 0:
        return np.zeros((0, v.shape[1] if v.ndim == 2 else 0), dtype=np.complex128)
    _, s, vh = np.linalg.svd(v, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, v.shape[1]), dtype=np.complex128)
    rank = int(np.sum(s > rtol * s[0]))
    return np.ascontiguousarray(vh[:rank])


def frame_project(frame: Array, vector: Array) -> Array:
    """Orthogonal projection of ``vector`` onto the span of ``frame`` rows."""
    if frame.shape[0] == 0:
        return np.zeros_like(as_complex(vector))
    coeff = frame.conj() @ vector
    return frame.T @ coeff


def residual_in_span(frame: Array, vector: Array) -> float:
    v = as_complex(vector)
    return float(np.linalg.norm(v - frame_project(frame, v)))


def frame_contains(frame: Array, vectors: Array, tol: float) -> bool:
    v = np.atleast_2d(as_complex(vectors))
    if v.shape[0] == 0:
        return True
    return all(residual_in_span(frame, row) <= tol * max(1.0, np.linalg.norm(row))
               for row in v)


def frame_leq(sub: Array, sup: Array, tol: float) -> bool:
    return frame_contains(sup, sub, tol)


def frame_eq(a: Array, b: Array, tol: float) -> bool:
    return a.shape[0] == b.shape[0] and frame_leq(a, b, tol) and frame_leq(b, a, tol)


def null_space_rows(m: Array, rtol: float = 1e-10) -> Array:
    """Orthonormal rows spanning {x : m @ x = 0} (complex-correct).

    The full right factor is only needed when the system is wide; for tall
    systems the thin SVD already carries every candidate null direction.
    """
    m = as_complex(np.atleast_2d(m))
    if m.shape[1] == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if m.shape[0] == 0 or not np.any(m):
        return np.eye(m.shape[1], dtype=np.complex128)
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
    eye = np.eye(dim, dtype=np.complex128)
    pa = a.T @ a.conj()
    pb = b.T @ b.conj()
    stacked = np.vstack([eye - pa, eye - pb])
    return null_space_rows(stacked, rtol)


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
    return 0.5 * (a + a.conj().T)


def top_eigenvalue(a: Array) -> float:
    """Largest eigenvalue of the hermitian part; 0 for empty matrices."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(hermitian_part(a))[-1])


def min_eigenvalue(a: Array) -> float:
    if a.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(hermitian_part(a))[0])


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
    """Least-squares solve; returns (solution, residual norm of a@x-b)."""
    a = as_complex(np.atleast_2d(a))
    b = as_complex(b)
    if a.shape[1] == 0:
        return np.zeros((0,) + b.shape[1:], dtype=np.complex128), float(np.linalg.norm(b))
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return x, float(np.linalg.norm(a @ x - b))


# -- matrix stacks -----------------------------------------------------------
#
# A "stack" is an array of shape (d, n, m): d basis matrices of shape (n, m).

def flatten_stack(stack: Array) -> Array:
    """(d, n, m) stack -> (d, n*m) row matrix; robust for d = 0."""
    d = stack.shape[0]
    rest = int(np.prod(stack.shape[1:])) if stack.ndim > 1 else 0
    return stack.reshape(d, rest)


def stack_orth(mats, n: int, m: int, rtol: float = 1e-10) -> Array:
    """HS-orthonormalised stack spanning the same matrix subspace."""
    mats = [as_complex(x) for x in mats]
    if not mats:
        return np.zeros((0, n, m), dtype=np.complex128)
    flat = np.stack([x.reshape(-1) for x in mats])
    q = orth_rows(flat, rtol)
    return q.reshape(-1, n, m)


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

    Solves sum_j c_j B_j B_i = B_i for all i; works for any *-closed matrix
    algebra or ideal (finite-dimensional C*-algebras are unital).
    """
    d = stack.shape[0]
    if d == 0:
        return np.zeros(0, dtype=np.complex128)
    rows = []
    rhs = []
    for i in range(d):
        prod = np.einsum("jab,bc->jac", stack, stack[i])  # B_j B_i
        rows.append(prod.reshape(d, -1).T)
        rhs.append(stack[i].reshape(-1))
    a = np.vstack(rows)
    b = np.concatenate(rhs)
    c, res = solve_lstsq(a, b)
    if res > tol * max(1.0, np.linalg.norm(b)):
        return None
    unit = stack_combine(stack, c)
    lres = max(float(np.linalg.norm(unit @ stack[i] - stack[i])) for i in range(d))
    rres = max(float(np.linalg.norm(stack[i] @ unit - stack[i])) for i in range(d))
    if max(lres, rres) > tol:
        return None
    return c


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
