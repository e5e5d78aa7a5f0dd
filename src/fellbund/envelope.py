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

The envelope C*(A) is the span of the images Lambda(delta_{g,i}), cut into
its simple blocks by ``block_decomposition``.  That needs the algebra's
structure constants, from one of two sources.  For a stack with no known
structure (a unit fibre, any caller's matrices) they are formed from an
HS-orthonormalised copy of the stack, and closure under products and
adjoints and the two-sided unit are checked against them.  For a bundle's
images (``envelope_algebra``) the images are kept as the basis and the
constants are the bundle's own ``mult``/``inv`` tensors; the decomposition
checks that the images multiply and take adjoints as those tensors say
(exactly 0 on non-composable pairs) and that the units of the unit fibres
add up to the identity.  The centre then lies on the isotropy arrows (a
central z commutes with each Lambda(1_x), so z_g = 0 when r(g) != s(g)), and
its commutator system has one column per isotropy coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import _linalg as la
from ._kernels import _spans
from .bundle import FellBundle, Structure, _exponents, _ldexp, ei
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


def block_decomposition(basis: Array, tols: Tolerances = DEFAULT,
                        bundle: FellBundle | None = None) -> list[SimpleBlock]:
    """Simple summands of a matrix *-algebra given by a spanning stack.

    The method is the seeded random central element of Murota, Kanno,
    Kojima & Kojima ("A numerical algorithm for block-diagonal decomposition
    of matrix *-algebras", Japan J. Indust. Appl. Math. 27, 2010), worked in
    coefficient space.  The stack is cut along its finest common
    block-diagonal form, blocks of sizes n_b summing to N (envelope images:
    one block per object or finer).  The structure constants come from one
    of two sources.

    * The stack route (any stack; ``bundle`` None).  The stack is
      HS-orthonormalised to B_1..B_d.  Block by block, batched matmul gives
      c[i, j, m] = tr(B_m* B_i B_j) and checks that the span is closed under
      products and adjoints.  The centre is the null space of the d²×d
      system sum_k z_k (c[k,j,:] - c[j,k,:]) = 0, taken from its R factor,
      and the two-sided unit must solve the 2d²×d system
      sum_j u_j c[j,i,:] = e_i = sum_j u_j c[i,j,:].
    * The structure route (``bundle`` given, the stack its ``delta_images``).
      The images Λ(δ_1..δ_d) are used as they are, and the product and
      involution are the bundle's own ``mult``/``inv`` stacks, gathered by
      the groupoid's tables.  A singular-values-only SVD of the images gives
      their rank; below d they are no basis, and the stack route runs
      instead.  Three checks make the bundle's tensors the algebra's:
      Λ(δ_i)Λ(δ_j) = sum_k mult[k,i,j] Λ(δ_k) on every composable basis pair
      and exactly 0 on the others (the column support of Λ(δ_i) misses the
      row support of Λ(δ_j)); Λ(δ_i)* = Λ(δ_i*); and Λ(sum_x 1_x) = 1, with
      1_x the unit of the fibre at x (``unit_algebra_unit``).  The centre
      then lies on the isotropy coordinates: Λ(1_x) are orthogonal
      idempotents summing to 1 (the unit check and the exact zeros), so
      Λ(1_x) Λ(z) and Λ(z) Λ(1_x) keep the coordinates z_g with r(g) = x
      and with s(g) = x, and a central z, whose images are independent, has
      z_g = 0 whenever r(g) ≠ s(g).  Its commutator system [z, δ_j] = 0 is
      formed sparsely on those columns.  No orthonormalising SVD and no d³
      array is formed.

    Then, on either route, a random self-adjoint central element is
    diagonalised one block at a time; its eigenvalue clusters (gap
    ``cluster_gap``) give the minimal central projections, and the rank of
    V* B_k V on a cluster's eigenvectors V identifies each corner with a
    full matrix algebra.  An attempt stands when sum size² is the rank of
    the stack.  Blocks are sorted by size and multiplicity, and blocks that
    tie on both by their rounded traces tr(P B_k) on the HS-orthonormalised
    stack (formed for the structure route only when two blocks tie).  The
    blocks carry no irreducible frames; ``irrep_frames`` finds them on the
    blocks returned.

    On the stack route the cost is d²·sum_b n_b³ (plus d³·sum_b n_b² to
    contract the products), and the memory is c, the commutator system and
    the copy its QR takes, d³ complex entries each, of which at most two are
    held at once, plus products and checks in chunks of la._STACK_CHUNK
    elements.  The structure route forms the products of the composable
    pairs only, in the same chunks, and its commutator system has one column
    per isotropy coordinate.  Deterministic for a fixed seed; a stack that
    is not a unital *-algebra raises ValueError.
    """
    algebra = _bundle_algebra(basis, bundle, tols) if bundle is not None else None
    if algebra is None:
        algebra = _stack_algebra(basis, tols)
    return [] if algebra is None else _central_blocks(algebra, basis.shape[1], tols)


class _Algebra(NamedTuple):
    """What the central-element attempts read, from either route: the
    diagonal blocks of the spanning stack (d, n_b, n_b), their index sets,
    the rows (centre dim, d) spanning the centre in its coordinates, the
    unit's diagonal blocks when the unit is a proper support projection
    (else None), the rank of the stack and its HS-orthonormal form (built
    when called)."""
    pieces: list[Array]
    parts: list[Array]
    centre: Array
    support: list[Array] | None
    rank: int
    orthonormal: Callable[[], Array]


def _stack_algebra(stack: Array, tols: Tolerances) -> _Algebra | None:
    """The stack route: structure constants of the HS-orthonormalised stack;
    None for a zero stack."""
    basis = la.stack_orth(list(stack), stack.shape[1], stack.shape[2], tols.rank_threshold)
    d, N, _ = basis.shape
    if d == 0:
        return None
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
    return _Algebra(pieces, parts, null, support if support_rank < N else None, d,
                    lambda: basis)


def _central_blocks(algebra: _Algebra, N: int, tols: Tolerances) -> list[SimpleBlock]:
    """The seeded attempts: minimal central projections from the eigenvalue
    clusters of a random self-adjoint central element, sorted."""
    pieces, parts, null, support, _, _ = algebra
    d, center_dim = pieces[0].shape[0], null.shape[0]
    degenerate = support is not None
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
        if good and sum(b.size ** 2 for b in blocks) == algebra.rank:
            if len({(b.size, b.multiplicity) for b in blocks}) < len(blocks):
                blocks.sort(key=_block_sort_key(algebra.orthonormal()))
            else:
                blocks.sort(key=lambda b: (b.size, b.multiplicity))
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


def _bundle_algebra(images: Array, bundle: FellBundle, tols: Tolerances) -> _Algebra | None:
    """The structure route on the delta images of ``bundle``; None when the
    images are not linearly independent (the stack route then runs)."""
    d, N, _ = images.shape
    if not d * N:
        return None  # an empty stack: the stack route finds no blocks
    parts = _common_blocks(images)
    pieces = [images[:, p[:, None], p[None, :]] for p in parts]
    # the singular values of the stack, read off its diagonal blocks
    s = np.linalg.svd(np.hstack([p.reshape(d, -1) for p in pieces]), compute_uv=False)
    if len(s) < d or not s[-1] > tols.rank_threshold * s[0]:
        return None
    S = bundle.structure()
    # per packed coordinate: its arrow; per arrow: its first coordinate
    owner = np.repeat(np.arange(len(S.dims)), S.dims)
    start = np.concatenate([[0], np.cumsum(S.dims)[:-1]])

    def name(k: int) -> str:
        return f"{bundle.groupoid.arrows[owner[k]]}[{k - start[owner[k]]}]"
    tol = max(tols.tolerance, 1e-8)
    _check_bundle_products(pieces, S, owner, start, name, tol)
    _check_bundle_adjoints(pieces, S, start, name, tol)
    unit = np.zeros(d, dtype=np.complex128)
    for x, u in zip(bundle.groupoid.objects, S.tables.unit):
        unit[start[u]:start[u] + S.dims[u]] = bundle.unit_algebra_unit(x)
    miss = np.sqrt(sum(np.linalg.norm(np.tensordot(unit, p, axes=1) - np.eye(p.shape[1])) ** 2
                       for p in pieces))
    if miss > tol * max(1.0, np.sqrt(N)):
        raise ValueError(f"the units of the unit fibres do not act as the identity "
                         f"(residual {miss:.3e}); input is not a *-algebra")
    centre = _isotropy_centre(S, owner, start, tols.rank_threshold)
    if centre.shape[0] == 0:
        raise ValueError("algebra has empty centre; spanning stack degenerate")
    return _Algebra(pieces, parts, centre, None, d,
                    lambda: la.stack_orth(list(images), N, N, tols.rank_threshold))


def _rows_of(start: Array, arrows: Array, d: int) -> Array:
    """(len(arrows), d): the rows of the packed coordinates 0..d-1 of each arrow."""
    return start[arrows][:, None] + np.arange(d)


def _check_bundle_products(pieces: list[Array], S: Structure, owner: Array, start: Array,
                           name: Callable[[int], str], tol: float) -> None:
    """Raises unless Λ(δ_i)Λ(δ_j) = sum_k mult[k, i, j] Λ(δ_k) on every
    composable basis pair (residual at most tol times max(1, |product|)),
    and unless the product is exactly 0 on the others: the column support
    of Λ(δ_i) misses the row support of Λ(δ_j) on every diagonal block."""
    T = S.tables
    cols = np.hstack([(p != 0).any(axis=1) for p in pieces]).astype(float)
    rows = np.hstack([(p != 0).any(axis=2) for p in pieces]).astype(float)
    stray = (cols @ rows.T > 0) & (T.comp[owner[:, None], owner[None, :]] < 0)
    if stray.any():
        i, j = np.argwhere(stray)[0]
        raise ValueError("spanning stack is not closed under products: at the basis pair "
                         f"({name(i)},{name(j)}) of a non-composable pair the product is "
                         "not exactly 0; input is not a *-algebra")
    worst, where = 0.0, None
    n2 = max(p.shape[1] ** 2 for p in pieces)
    for pos, M in S.mult.groups():
        P, dk, di, dj = M.shape
        if not di * dj:
            continue
        step = max(1, la._STACK_CHUNK // (di * dj * n2))
        for c in range(0, P, step):
            g, h = T.pairs[pos[c:c + step]].T
            left, right = _rows_of(start, g, di), _rows_of(start, h, dj)
            out = _rows_of(start, T.comp[g, h], dk)
            # the residual's coefficients: per pair, mult[:, i, j] as rows (i, j)
            coeff = M[c:c + step].transpose(0, 2, 3, 1).reshape(len(g), di * dj, dk)
            miss = np.zeros((len(g), di, dj))
            size = np.zeros((len(g), di, dj))
            for p in pieces:
                n = p.shape[1]
                prods = (p[left].reshape(len(g), di * n, n)
                         @ p[right].transpose(0, 2, 1, 3).reshape(len(g), n, dj * n))
                prods = prods.reshape(len(g), di, n, dj, n).transpose(0, 1, 3, 2, 4)
                want = (coeff @ p[out].reshape(len(g), dk, n * n)).reshape(prods.shape)
                miss += np.sum(np.abs(prods - want) ** 2, axis=(3, 4))
                size += np.sum(np.abs(prods) ** 2, axis=(3, 4))
            rel = np.sqrt(miss) / np.maximum(1.0, np.sqrt(size))
            if rel.max() > worst:
                t, i, j = np.unravel_index(int(np.argmax(rel)), rel.shape)
                worst, where = float(rel.max()), (left[t, i], right[t, j])
    if worst > tol:
        i, j = where
        raise ValueError("spanning stack is not closed under products: at the basis pair "
                         f"({name(i)},{name(j)}) the product differs from its mult expansion "
                         f"(residual {worst:.3e}); input is not a *-algebra")


def _check_bundle_adjoints(pieces: list[Array], S: Structure, start: Array,
                           name: Callable[[int], str], tol: float) -> None:
    """Raises unless Λ(δ_i)* = Λ(δ_i*) = sum_k inv[g][k, i] Λ(δ_{g^-1, k}) for
    every basis element i of every fibre A_g (residual at most tol times
    max(1, |Λ(δ_i)|))."""
    T = S.tables
    for pos, J in S.inv.groups():
        _, dgi, dg = J.shape
        if not dg:
            continue
        own, mirror = _rows_of(start, pos, dg), _rows_of(start, T.inv[pos], dgi)
        miss = np.zeros((len(pos), dg))
        size = np.zeros((len(pos), dg))
        for p in pieces:
            n = p.shape[1]
            adj = p[own].conj().transpose(0, 1, 3, 2)
            want = (J.transpose(0, 2, 1) @ p[mirror].reshape(len(pos), dgi, n * n))
            miss += np.sum(np.abs(adj - want.reshape(adj.shape)) ** 2, axis=(2, 3))
            size += np.sum(np.abs(adj) ** 2, axis=(2, 3))
        rel = np.sqrt(miss) / np.maximum(1.0, np.sqrt(size))
        if rel.max() > tol:
            t, i = np.unravel_index(int(np.argmax(rel)), rel.shape)
            raise ValueError(f"spanning stack is not closed under adjoints: at {name(own[t, i])} "
                             f"the adjoint differs from its inv expansion (residual "
                             f"{rel.max():.3e}); input is not a *-algebra")


def _isotropy_centre(S: Structure, owner: Array, start: Array, rtol: float) -> Array:
    """Rows (centre dim, d) spanning the centre of the bundle's section
    algebra in packed coordinates, zero off the isotropy arrows: the null
    space of [z, δ_j] = 0 over every basis element j, with one column per
    isotropy coordinate and one row per coordinate (j, m) of a commutator
    that some product reaches."""
    T, d = S.tables, len(owner)
    iso = T.src == T.rng
    columns = np.flatnonzero(iso[owner])
    column = np.full(d, -1)
    column[columns] = np.arange(len(columns))
    rows, cols, vals = [], [], []
    for pos, M in S.mult.groups():
        _, dk, di, dj = M.shape
        if not dk * di * dj:
            continue
        g, h = T.pairs[pos].T
        out = _rows_of(start, T.comp[g, h], dk)[:, :, None, None]
        left = _rows_of(start, g, di)[:, None, :, None]
        right = _rows_of(start, h, dj)[:, None, None, :]
        # z δ_j with z on the isotropy arrow g (plus), δ_j z with z on h (minus)
        for on, z, j, sign in ((iso[g], left, right, 1.0), (iso[h], right, left, -1.0)):
            if on.any():
                rows.append(np.broadcast_to(j[on] * d + out[on], M[on].shape).ravel())
                cols.append(np.broadcast_to(column[z[on]], M[on].shape).ravel())
                vals.append(sign * M[on].ravel())
    system = np.zeros((0, len(columns)), dtype=np.complex128)
    if rows:
        reached, at = np.unique(np.concatenate(rows), return_inverse=True)
        system = np.zeros((len(reached), len(columns)), dtype=np.complex128)
        np.add.at(system, (at, np.concatenate(cols)), np.concatenate(vals))
    null = la.null_space_rows(system, rtol)
    centre = np.zeros((null.shape[0], d), dtype=np.complex128)
    centre[:, columns] = null
    return centre


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
    blocks = block_decomposition(images, tols, bundle) if images.shape[0] else []
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
