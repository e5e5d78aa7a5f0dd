"""C*-norms and the section C*-algebra as a concrete matrix *-algebra.

Per object x, the regular representation acts by left convolution on the
completion of sections over the source fibre G_x, tensored over the unit
fibre with its concrete matrix representation:

    H_x = direct sum over g in G_x of  A_g (x) C^{n_x},

with semi-inner product <a(x)v, b(x)w> = <v, rho_x(a* b) w>.  The operator
of convolution by f, compressed to the quotient by the Gram kernel, is
Lambda_x(f); the C*-norm of f is the largest operator norm over the objects.
Faithfulness of the direct sum makes this the unique C*-norm on the section
*-algebra, so full and reduced coincide here (finite-dimensional *-algebra
with a faithful C*-representation); the full norm is defined as this one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _linalg as la
from ._kernels import _spans
from .bundle import FellBundle, _exponents, _ldexp, ei
from .config import DEFAULT, Tolerances
from .report import ValidationReport
from .sections import Section, basis_sections, module_action, unit_section

Array = np.ndarray


def induced_gram(bundle: FellBundle, g: str, rep_stack: Array) -> Array:
    """Gram matrix of A_g (x) C^m for a representation of the unit fibre at
    s(g), given as one (m, m) matrix per basis element: entry ((i, v), (j, w))
    is <e_i (x) e_v, e_j (x) e_w> = rep(e_i* e_j)[v, w]."""
    raw = bundle.dims[g] * rep_stack.shape[1]
    return np.einsum("kij,kvw->ivjw", bundle.star_mult_tensor(g), rep_stack).reshape(raw, raw)


def induced_fibre(bundle: FellBundle, g: str, rep_stack: Array,
                  tols: Tolerances = DEFAULT) -> tuple[Array, Array, int]:
    """Gram quotient of the induced space A_g (x)_{A_{s(g)}} C^m.

    The eigenvectors of ``induced_gram`` above rank_threshold·max(top, 1)
    span the quotient.  Returns phi (q, d·m), which maps A_g (x) C^m onto
    the quotient with phi* phi the Gram matrix, its right inverse psi
    (d·m, q), and the number of eigenvalues within a decade of the cut (the
    quotient dimension may flip under a small change of threshold).  Raises
    ValueError when the Gram matrix is not positive.
    """
    raw = bundle.dims[g] * rep_stack.shape[1]
    if raw == 0:
        empty = np.zeros((0, 0), dtype=np.complex128)
        return empty, empty, 0
    vals, vecs = np.linalg.eigh(la.hermitian_part(induced_gram(bundle, g, rep_stack)))
    top = max(float(vals[-1]), 0.0)
    cut = tols.rank_threshold * max(top, 1.0)
    if float(vals[0]) < -max(tols.tolerance, cut):
        raise ValueError(f"Gram matrix at ({bundle.groupoid.src[g]},{g}) is not positive "
                         f"(min eigenvalue {vals[0]:.3e}); bundle invalid")
    keep = vals > cut
    lam = vals[keep]
    v = vecs[:, keep]
    shaky = int(np.sum((vals > cut / 10) & (vals <= cut * 10)))
    return np.sqrt(lam)[:, None] * v.conj().T, v / np.sqrt(lam)[None, :], shaky


class RegularRepAt:
    """Quotient coordinates of the induced space at one object."""

    def __init__(self, bundle: FellBundle, x: str, tols: Tolerances = DEFAULT):
        self.bundle = bundle
        self.x = x
        self.summands = list(bundle.groupoid.source_fiber(x))
        self.phi: dict[str, Array] = {}
        self.psi: dict[str, Array] = {}
        self.quot_dim: dict[str, int] = {}
        self.borderline: list[str] = []
        for g in self.summands:
            phi, psi, shaky = induced_fibre(bundle, g, bundle.unit_rep[x], tols)
            if shaky:
                self.borderline.append(
                    f"({x},{g}): {shaky} Gram eigenvalue(s) within a decade "
                    f"of the rank threshold; quotient dimension may be unstable")
            self.phi[g], self.psi[g], self.quot_dim[g] = phi, psi, phi.shape[0]
        self.offsets: dict[str, int] = {}
        pos = 0
        for g in self.summands:
            self.offsets[g] = pos
            pos += self.quot_dim[g]
        self.dim = pos
        self.blocks: dict[tuple[str, str], Array] = {}
        self._build_blocks(bundle.unit_dim(x))

    def _build_blocks(self, n: int) -> None:
        """K[(h, g)][q_out, m, q_in]: action of the m-th basis element of A_h
        mapping the summand at g into the summand at h.g.  The blocks of equal
        shape are stacked; ``blocks`` holds views into the stacks."""
        bundle, G = self.bundle, self.bundle.groupoid
        by_shape: dict[tuple[int, ...], list[tuple[str, str]]] = {}
        for g in self.summands:
            if self.quot_dim[g] == 0:
                continue
            psi3 = self.psi[g].reshape(bundle.dims[g], n, self.quot_dim[g])
            for h in G.arrows:
                if G.src[h] != G.rng[g] or bundle.dims[h] == 0:
                    continue
                out = G.comp[(h, g)]
                if self.quot_dim[out] == 0:
                    continue
                phi3 = self.phi[out].reshape(self.quot_dim[out], bundle.dims[out], n)
                tensor = np.einsum("qov,omi,ivp->qmp", phi3, bundle.mult[(h, g)], psi3)
                self.blocks[(h, g)] = tensor
                by_shape.setdefault(tensor.shape, []).append((h, g))
        # per shape (q_out, m, q_in): the stacked tensors (P, q_out, m, q_in),
        # the positions of the coefficients of A_h in the packed section
        # (P, m), and the rows (P, q_out, 1) and columns (P, 1, q_in) of the
        # blocks; h = target.g^-1 is unique, so each block has one writer
        packed = bundle.offsets()
        self._groups = []
        for (q_out, m, q_in), keys in by_shape.items():
            stack = np.array([self.blocks[key] for key in keys])
            for key, view in zip(keys, stack):
                self.blocks[key] = view
            self._groups.append((
                stack,
                _spans([packed[h] for h, _ in keys], m),
                _spans([self.offsets[G.comp[key]] for key in keys], q_out)[:, :, None],
                _spans([self.offsets[g] for _, g in keys], q_in)[:, None, :]))

    def matrix(self, coeffs: Array) -> Array:
        """Matrices of left convolution by the sections packed in ``coeffs``
        (..., total_dim), of shape (..., dim, dim): one gather, contraction
        and block assignment per group of block shapes."""
        out = np.zeros(coeffs.shape[:-1] + (self.dim, self.dim), dtype=np.complex128)
        for stack, coeff, rows, cols in self._groups:
            out[..., rows, cols] = np.einsum("pqmr,...pm->...pqr", stack, coeffs.take(coeff, -1))
        return out


def regular_at(bundle: FellBundle, x: str, tols: Tolerances = DEFAULT) -> RegularRepAt:
    """The regular representation at x, built on first use and cached on the
    bundle; the Gram quotient uses only the two thresholds, so seeded runs
    share it."""
    return bundle.memo(("regular", x, tols.tolerance, tols.rank_threshold),
                       lambda: RegularRepAt(bundle, x, tols))


def _direct_sum(bundle: FellBundle, coeffs: Array, tols: Tolerances) -> Array:
    """Lambda of the sections packed in ``coeffs`` (..., total_dim): the
    matrices at the objects down the diagonal, in declared object order."""
    blocks = [regular_at(bundle, x, tols).matrix(coeffs) for x in bundle.groupoid.objects]
    dim = sum(b.shape[-1] for b in blocks)
    out = np.zeros(coeffs.shape[:-1] + (dim, dim), dtype=np.complex128)
    pos = 0
    for b in blocks:
        n = b.shape[-1]
        out[..., pos:pos + n, pos:pos + n] = b
        pos += n
    return out


def delta_images(bundle: FellBundle, tols: Tolerances = DEFAULT) -> Array:
    """The read-only stack (total_dim, N, N) of Lambda(delta_{g,i}) in packed
    order, formed once per pair of thresholds from the identity coefficients."""
    key = ("delta_images", tols.tolerance, tols.rank_threshold)
    return bundle.memo(key, lambda: la.readonly(
        _direct_sum(bundle, np.eye(bundle.total_dim, dtype=np.complex128), tols)))


def regular_rep_matrix(bundle: FellBundle, x: str, f: Section,
                       tols: Tolerances = DEFAULT) -> Array:
    return regular_at(bundle, x, tols).matrix(f.pack())


def cstar_norm(bundle: FellBundle, f: Section, tols: Tolerances = DEFAULT) -> float:
    return max(per_object_norms(bundle, f, tols).values(), default=0.0)


def per_object_norms(bundle: FellBundle, f: Section,
                     tols: Tolerances = DEFAULT) -> dict[str, float]:
    coeffs = f.pack()
    if not np.isfinite(coeffs).all():  # one check: the norm core names the arrow
        f.bundle.norm_rows([(g, v[None]) for g, v in f.entries.items()])
    objects = bundle.groupoid.objects
    # one SVD per stack of equal-size matrices; an empty matrix has norm 0
    norms = dict.fromkeys(objects, 0.0)
    for part, (stack,) in la.stacks([(regular_at(bundle, x, tols).matrix(coeffs),)
                                     for x in objects]):
        if stack.size:
            norms.update(zip([objects[p] for p in part],
                             np.linalg.svd(stack, compute_uv=False)[:, 0].tolist()))
    return norms


def sharper_norm_bound(bundle: FellBundle, f: Section,
                       tols: Tolerances = DEFAULT) -> float:
    """Reported upper bound from the pointwise square-root sums; not tight.

    Computed for f / 2^e, with 2^e the power of two just above the largest
    coefficient of f, and scaled back: the products f(g) f(g)* and
    f(g)* f(g) stay in range for any finite f."""
    G = bundle.groupoid
    e = int(max((_exponents(v) for v in f.entries.values()), default=0))
    n_r = {x: np.zeros((bundle.unit_dim(x), bundle.unit_dim(x)), dtype=np.complex128)
           for x in G.objects}
    n_s = {x: np.zeros((bundle.unit_dim(x), bundle.unit_dim(x)), dtype=np.complex128)
           for x in G.objects}
    for g, v in f.entries.items():
        v = _ldexp(v, -e)
        gi = G.inv[g]
        ff = bundle.unit_matrix(G.rng[g], bundle.mult_coords(g, gi, v, bundle.star_coords(g, v)))
        sf = bundle.unit_matrix(G.src[g], bundle.star_mult_coords(g, v, v))
        n_r[G.rng[g]] += la.psd_power(ff, 0.5, tols.rank_threshold)
        n_s[G.src[g]] += la.psd_power(sf, 0.5, tols.rank_threshold)
    top_r = max((la.operator_norm(m) for m in n_r.values()), default=0.0)
    top_s = max((la.operator_norm(m) for m in n_s.values()), default=0.0)
    return float(np.ldexp(np.sqrt(top_r * top_s), e))


# -- block decomposition ---------------------------------------------------------

_ATTEMPTS = 24  # seeded decomposition attempts, and salts of the irrep-frame search


@dataclass
class SimpleBlock:
    size: int
    multiplicity: int
    projection: Array       # minimal central projection in the ambient Mat(N)
    irrep_frame: Array | None = None  # (size, N): rows span an irreducible subspace

    def irrep(self, mat: Array) -> Array:
        if self.irrep_frame is None:
            raise ValueError("block has no irreducible frame; see irrep_frames")
        return self.irrep_frame.conj() @ mat @ self.irrep_frame.T


def block_decomposition(basis: Array, tols: Tolerances = DEFAULT) -> list[SimpleBlock]:
    """Simple summands of a matrix *-algebra given by a spanning stack.

    The method is the seeded random central element of Murota, Kanno,
    Kojima & Kojima ("A numerical algorithm for block-diagonal decomposition
    of matrix *-algebras", Japan J. Indust. Appl. Math. 27, 2010), worked in
    coefficient space.  The stack is HS-orthonormalised to B_1..B_d and cut
    along its finest common block-diagonal form, blocks of sizes n_b summing
    to N (envelope images: one block per object).  Block by block, batched
    matmul gives the structure constants c[i, j, m] = tr(B_m* B_i B_j) and
    checks that the span is closed under products and adjoints.  The centre
    is the null space of the d²×d system sum_k z_k (c[k,j,:] - c[j,k,:]) = 0,
    taken from its R factor, and the two-sided unit must solve the 2d²×d
    system sum_j u_j c[j,i,:] = e_i = sum_j u_j c[i,j,:].  A random
    self-adjoint central element is diagonalised one block at a time; its
    eigenvalue clusters (gap ``cluster_gap``) give the minimal central
    projections, and the rank of V* B_k V on a cluster's eigenvectors V
    identifies each corner with a full matrix algebra.  The blocks carry no
    irreducible frames; ``irrep_frames`` finds them on the blocks returned.

    The cost is d²·sum_b n_b³ (plus d³·sum_b n_b² to contract the products),
    against d·N²·d for the ambient commutation system.  The memory is c, the
    commutator system and the copy its QR takes, d³ complex entries each, of
    which at most two are held at once (c is formed once, and let go before
    the QR), plus products and checks in chunks of la._STACK_CHUNK elements.
    Deterministic for a fixed seed; a stack that is not a unital *-algebra
    raises ValueError.
    """
    basis = la.stack_orth(list(basis), basis.shape[1], basis.shape[2], tols.rank_threshold)
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
    center_dim = null.shape[0]
    if center_dim == 0:
        raise ValueError("algebra has empty centre; spanning stack degenerate")

    # the algebra may act degenerately on the ambient space (an ideal inside
    # a larger matrix algebra); its unit is then a proper support projection
    # and every central element carries a spurious kernel eigenvalue cluster
    if unit_coeff is None:
        raise ValueError("spanning stack is not a unital *-algebra")
    support = [np.tensordot(unit_coeff, p, axes=1) for p in pieces]
    support_rank = int(round(sum(float(np.real(np.trace(s))) for s in support)))
    degenerate = support_rank < N

    owner = np.repeat(np.arange(len(parts)), [p.size for p in parts])
    local = np.concatenate([np.arange(p.size) for p in parts])
    for attempt in range(_ATTEMPTS):
        rng = np.random.default_rng(tols.seed + 7919 * attempt)
        coeff = rng.standard_normal(center_dim) + 1j * rng.standard_normal(center_dim)
        z = coeff @ null
        eigs = [np.linalg.eigh(la.hermitian_part(np.tensordot(z, p, axes=1))) for p in pieces]
        vals = np.concatenate([v for v, _ in eigs])
        clusters = la.cluster_eigenvalues(vals, tols.cluster_gap * max(1.0, float(np.abs(vals).max())))
        if len(clusters) != center_dim + (1 if degenerate else 0):
            continue
        blocks = []
        good = True
        for cl in clusters:
            frames = {}
            for b in np.unique(owner[cl]):
                frames[int(b)] = eigs[b][1][:, local[cl[owner[cl] == b]]]
            if degenerate and np.sqrt(sum(float(np.linalg.norm(support[b] @ v)) ** 2
                                          for b, v in frames.items())) < 1e-6:
                continue  # the ambient kernel cluster
            corner = np.hstack([(v.conj().T @ pieces[b] @ v).reshape(d, -1)
                                for b, v in frames.items()])
            corner_rank = la.matrix_rank(corner, tols.rank_threshold)
            size = int(round(np.sqrt(corner_rank)))
            if size * size != corner_rank:
                good = False
                break
            mult_total = len(cl)
            if size == 0 or mult_total % size:
                good = False
                break
            proj = np.zeros((N, N), dtype=np.complex128)
            for b, v in frames.items():
                proj[parts[b][:, None], parts[b][None, :]] = v @ v.conj().T
            blocks.append(SimpleBlock(size, mult_total // size, proj))
        if good and sum(b.size ** 2 for b in blocks) == d:
            blocks.sort(key=_block_sort_key(basis))
            return blocks
    raise ValueError("block decomposition did not stabilise; "
                     "input is likely not a *-closed algebra")


def _common_blocks(basis: Array) -> list[Array]:
    """Index sets of the finest block-diagonal form shared by the stack:
    the connected components of the union of the supports."""
    N = basis.shape[1]
    linked = (np.abs(basis) > 64 * np.finfo(float).eps * float(np.abs(basis).max())).any(axis=0)
    linked |= linked.T
    unseen = np.ones(N, dtype=bool)
    parts = []
    for a in range(N):
        if not unseen[a]:
            continue
        part = np.zeros(N, dtype=bool)
        part[a] = True
        while True:
            grown = part | linked[part].any(axis=0)
            if np.array_equal(grown, part):
                break
            part = grown
        unseen &= ~part
        parts.append(np.flatnonzero(part))
    return parts


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


def _block_sort_key(basis: Array):
    def key(b: SimpleBlock):
        traces = np.einsum("ab,kba->k", b.projection, basis)
        rounded = tuple(np.round(traces.view(np.float64), 6).tolist())
        return (b.size, b.multiplicity, rounded)
    return key


def irrep_frames(stack: Array, blocks: list[SimpleBlock],
                 tols: Tolerances = DEFAULT) -> list[SimpleBlock]:
    """The ``blocks`` of ``block_decomposition(stack, tols)``, each with an irreducible
    frame searched in its own projection, with the seeds of the decomposition's attempts
    as salts, on the stack orthonormalised as there; ValueError if no salt gives one."""
    if not blocks:
        return []
    basis = la.stack_orth(list(stack), stack.shape[1], stack.shape[2], tols.rank_threshold)
    out = []
    for b in blocks:
        frames = (_irrep_frame(basis, b.projection, b.size, b.multiplicity, tols, salt)
                  for salt in range(_ATTEMPTS))
        frame = next((f for f in frames if f is not None), None)
        if frame is None:
            raise ValueError(f"no irreducible frame for a block of size {b.size}")
        out.append(replace(b, irrep_frame=frame))
    return out


def _irrep_frame(basis: Array, proj: Array, size: int, mult: int,
                 tols: Tolerances, salt: int) -> Array | None:
    """Rows F (size, N) spanning an irreducible subspace in ``proj``, or None.
    F is kept when its span is invariant, max_k ‖B_k Fᵀ − Fᵀ F̄ B_k Fᵀ‖ ≤ 1e-7:
    on a *-closed HS-orthonormal stack, the same as F̄ · Fᵀ being multiplicative."""
    d = basis.shape[0]
    corner = proj @ basis @ proj
    for attempt in range(12):
        rng = np.random.default_rng(tols.seed + 104729 * salt + 31 * attempt + 5)
        coeff = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        y = la.hermitian_part(np.tensordot(coeff, corner, axes=1))
        vals, vecs = np.linalg.eigh(y)
        clusters = la.cluster_eigenvalues(vals, tols.cluster_gap * max(1.0, float(np.abs(vals).max())))
        nonzero = [cl for cl in clusters if np.abs(vals[cl]).max() > tols.cluster_gap]
        if len(nonzero) != size or any(len(cl) != mult for cl in nonzero):
            continue
        top = nonzero[-1]
        xi = vecs[:, top[0]]
        pivot = int(np.argmax(np.abs(xi)))
        xi = xi * (np.abs(xi[pivot]) / xi[pivot])
        orbit = np.einsum("kab,b->ka", basis, xi)
        frame = la.orth_rows(orbit, tols.rank_threshold)
        if frame.shape[0] != size:
            continue
        image = basis @ frame.T                    # B_k Fᵀ, (d, N, size)
        if np.linalg.norm(image - frame.T @ (frame.conj() @ image), axis=(1, 2)).max() <= 1e-7:
            return frame
    return None


# -- the envelope algebra ---------------------------------------------------------

@dataclass
class EnvelopeAlgebra:
    bundle: FellBundle
    tols: Tolerances
    per_object_dims: dict[str, int]
    images: Array          # the Lambda(delta) stack of ``delta_images``, in packed order
    dim: int               # sum of size^2 over the blocks: the rank of the images
    blocks: list[SimpleBlock]
    injective: bool

    def lambda_of(self, f: Section) -> Array:
        return _direct_sum(self.bundle, f.pack(), self.tols)

    def block_summary(self) -> list[dict]:
        return [{"size": b.size, "multiplicity": b.multiplicity} for b in self.blocks]


def envelope_algebra(bundle: FellBundle, tols: Tolerances = DEFAULT) -> EnvelopeAlgebra:
    return bundle.memo(("envelope", tols), lambda: _envelope_algebra(bundle, tols))


def _envelope_algebra(bundle: FellBundle, tols: Tolerances) -> EnvelopeAlgebra:
    G = bundle.groupoid
    images = delta_images(bundle, tols)
    blocks = block_decomposition(images, tols) if images.shape[0] else []
    dim = sum(b.size ** 2 for b in blocks)
    return EnvelopeAlgebra(bundle, tols, {x: regular_at(bundle, x, tols).dim for x in G.objects},
                           images, dim, blocks, dim == bundle.total_dim)


def irreducible_envelope_blocks(bundle: FellBundle,
                                tols: Tolerances = DEFAULT) -> list[SimpleBlock]:
    """Envelope blocks with irreducible frames, cached per bundle."""
    env = envelope_algebra(bundle, tols)
    return bundle.memo(("irreps", tols), lambda: irrep_frames(env.images, env.blocks, tols))


def coefficient_embedding_check(bundle: FellBundle, tols: Tolerances = DEFAULT) -> ValidationReport:
    """The unit-fibre direct sum embeds in the envelope.

    Checks that b -> Lambda(b at units) is an injective *-homomorphism and
    that it implements the module action: phi(b) Lambda(f) = Lambda(b † f).
    """
    G = bundle.groupoid
    images = delta_images(bundle, tols)
    offsets = bundle.offsets()
    rep = ValidationReport("coefficient embedding")
    tol = tols.tolerance

    def lam(f: Section) -> Array:
        return _direct_sum(bundle, f.pack(), tols)

    def phi_sec(x: str, coords: Array) -> Section:
        return Section(bundle, {G.unit[x]: coords})

    # (object, index, row of the unit-fibre delta in the stack)
    unit_basis = [(x, i, offsets[G.unit[x]] + i)
                  for x in G.objects for i in range(bundle.dims[G.unit[x]])]
    if unit_basis:
        mats = images[[k for _, _, k in unit_basis]]
        rank = la.matrix_rank(mats.reshape(len(unit_basis), -1), tols.rank_threshold)
        rep.require(rank == len(unit_basis), "embedding injective", "unit fibre sum",
                    detail=f"rank {rank} of {len(unit_basis)}")

    for (x, i, k) in unit_basis:
        u = G.unit[x]
        m = images[k]
        star = lam(phi_sec(x, bundle.star_coords(u, ei(bundle.dims[u], i))))
        rep.check_residual(float(np.linalg.norm(m.conj().T - star)), tol,
                           "embedding involutive", f"({x},{i})")
        for (y, j, t) in unit_basis:
            if x != y:
                continue
            prod = bundle.mult[(u, u)][:, i, j]
            lhs = m @ images[t]
            rhs = lam(phi_sec(x, prod))
            rep.check_residual(float(np.linalg.norm(lhs - rhs)),
                               tol * max(1.0, float(np.linalg.norm(rhs))),
                               "embedding multiplicative", f"({x},{i},{j})")

    for (x, i, k) in unit_basis:
        coeffs = {x: ei(bundle.dims[G.unit[x]], i)}
        for n, (g, j, f) in enumerate(basis_sections(bundle)):
            lhs = images[k] @ images[n]
            rhs = lam(module_action(bundle, coeffs, f))
            rep.check_residual(float(np.linalg.norm(lhs - rhs)),
                               tol * max(1.0, float(np.linalg.norm(lhs))),
                               "module action compatibility", f"phi({x},{i}) on ({g},{j})")

    ident = lam(unit_section(bundle))
    rep.check_residual(float(np.linalg.norm(ident - np.eye(ident.shape[0]))), tol,
                       "unit section acts as identity", "envelope")
    return rep
