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

Every induced space A_g (x)_{A_{s(g)}} C^m has its Gram quotient cut in one
place, ``induced_fibres``: one einsum and one batched ``eigh`` per stack of
items of one shape.  The regular representation takes the quotients of all
arrows at once (``regular_quotients``, one pass per ``norm_stacks`` group)
into one store per bundle (``_direct_sum_plan``) that holds each block of
Lambda once, in one ``la.Stacks``: Lambda(f), ``delta_images`` and the norms
read it, and ``RegularRepAt`` is a view of it at one object.  The dual action
of ``spectrum`` takes the quotients with an irrep in place of the unit rep.

The envelope C*(A) is the span of the images Lambda(delta_{g,i}), cut into
its simple blocks by ``block_decomposition``, which also cuts each unit
fibre A_x (``spectrum.fiber_spectrum``).  There is one route for both: the
images of a basis are kept as they are, and the product and involution are
the structure tensors the bundle already stores (``FellBundle.structure``
for the envelope, ``Structure.unit_fibre``, one arrow, for a unit fibre).
The decomposition checks that the images are independent, multiply and take
adjoints as those tensors say (exactly 0 on non-composable pairs), and that
the image of the unit is a two-sided unit of every image: the identity, or
the support projection of a degenerate unit representation.  The centre
then lies on the isotropy arrows (a central z commutes with each
Lambda(1_x), so z_g = 0 when r(g) != s(g)); its commutator system has one
column per isotropy coordinate, every coordinate for a unit fibre.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import _linalg as la
from ._kernels import _spans
from .bundle import FellBundle, Structure, _exponents, _ldexp, ei
from .config import DEFAULT, Tolerances
from .report import ValidationReport
from .sections import Section, basis_sections, module_action, unit_section

Array = np.ndarray


def induced_grams(tensors: Array, reps: Array) -> Array:
    """Gram matrices (A, d·m, d·m) of the induced spaces A_g (x) C^m of a
    stack of items of one shape, each given by the ``star_mult_tensor`` of
    its arrow (A, d_u, d, d) and a representation of the unit fibre at s(g),
    one (m, m) matrix per basis element (A, d_u, m, m): entry ((i, v), (j, w))
    is <e_i (x) e_v, e_j (x) e_w> = rep(e_i* e_j)[v, w].  One einsum; equal bit
    for bit to one einsum per item."""
    A, _, d, _ = tensors.shape
    raw = d * reps.shape[-1]
    return np.einsum("akij,akvw->aivjw", tensors, reps).reshape(A, raw, raw)


def induced_gram(bundle: FellBundle, g: str, rep_stack: Array) -> Array:
    """``induced_grams`` of the one item (g, rep_stack)."""
    return induced_grams(bundle.star_mult_tensor(g)[None], rep_stack[None])[0]


class InducedFibre(NamedTuple):
    """The Gram quotient of one induced space A_g (x)_{A_{s(g)}} C^m."""

    phi: Array  # (q, d·m): onto the quotient, with phi* phi the Gram matrix
    psi: Array  # (d·m, q): its right inverse
    shaky: int  # eigenvalues within a decade of the rank cut


class InducedFibres(NamedTuple):
    """``induced_fibres`` of a stack of A items whose Gram matrices are r x r."""

    vals: Array               # (A, r) the eigenvalues of the Gram matrices, ascending
    vecs: Array               # (A, r, r) their eigenvectors
    keep: Array               # (A, r) the eigenvalues above the rank cut
    shaky: Array              # (A,) the eigenvalues within a decade of the cut
    errors: list[str | None]  # per item, why its Gram matrix is not positive, or None

    def fibre(self, a: int) -> InducedFibre:
        """The quotient of item a, formed on request; ValueError when its
        Gram matrix is not positive."""
        if self.errors[a] is not None:
            raise ValueError(self.errors[a])
        lam, v = self.vals[a, self.keep[a]], self.vecs[a][:, self.keep[a]]
        return InducedFibre(np.sqrt(lam)[:, None] * v.conj().T, v / np.sqrt(lam)[None, :],
                            int(self.shaky[a]))


def _zero_fibres(count: int) -> InducedFibres:
    """``induced_fibres`` of items with 0 x 0 Gram matrices: zero quotients."""
    return InducedFibres(np.zeros((count, 0)), np.zeros((count, 0, 0), dtype=np.complex128),
                         np.zeros((count, 0), dtype=bool), np.zeros(count, dtype=np.intp),
                         [None] * count)


def induced_fibres(bundle: FellBundle, arrows: list[str], tensors: Array, reps: Array,
                   tols: Tolerances = DEFAULT) -> InducedFibres:
    """Gram quotients of the induced spaces A_g (x)_{A_{s(g)}} C^m of a stack
    of items of one shape, item a at the arrow ``arrows[a]`` (``induced_grams``
    reads ``tensors`` and ``reps``): one einsum forms the Gram matrices and
    one batched ``eigh`` eigendecomposes them.

    Per item, the eigenvectors above rank_threshold·max(top, 1) span the
    quotient.  ``fibre(a)`` gives phi (q, d·m), which maps A_g (x) C^m onto
    the quotient with phi* phi the Gram matrix, its right inverse psi
    (d·m, q), and the number of eigenvalues within a decade of the cut (the
    quotient dimension may flip under a small change of threshold); it
    raises ValueError when the bottom eigenvalue lies below
    -max(tolerance, cut).  Equal bit for bit to one einsum and one ``eigh``
    per item."""
    A, _, d, _ = tensors.shape
    if not d * reps.shape[-1]:
        return _zero_fibres(A)
    vals, vecs = np.linalg.eigh(la.hermitian_part(induced_grams(tensors, reps)))
    cut = tols.rank_threshold * np.maximum(np.maximum(vals[:, -1], 0.0), 1.0)
    errors: list[str | None] = [None] * A
    for a in np.flatnonzero(vals[:, 0] < -np.maximum(tols.tolerance, cut)).tolist():
        errors[a] = (f"Gram matrix at ({bundle.groupoid.src[arrows[a]]},{arrows[a]}) is not "
                     f"positive (min eigenvalue {vals[a, 0]:.3e}); bundle invalid")
    shaky = np.sum((vals > cut[:, None] / 10) & (vals <= cut[:, None] * 10), axis=1)
    return InducedFibres(vals, vecs, vals > cut[:, None], shaky, errors)


def regular_quotients(bundle: FellBundle,
                      tols: Tolerances = DEFAULT) -> dict[str, tuple[InducedFibres, int]]:
    """Per arrow g, the stack and place of the Gram quotient of A_g (x) C^n
    with C^n carrying the unit representation at s(g): one
    ``induced_fibres`` pass per ``norm_stacks`` group, which stacks exactly
    these tensors and representations; a zero fibre has a zero quotient.
    Built on first use and cached on the bundle under the two thresholds it
    reads."""
    def build() -> dict[str, tuple[InducedFibres, int]]:
        out = dict.fromkeys(bundle.groupoid.arrows, (_zero_fibres(1), 0))
        for arrows, tensors, reps in bundle.norm_stacks():
            stack = induced_fibres(bundle, arrows, tensors, reps, tols)
            out.update((g, (stack, a)) for a, g in enumerate(arrows))
        return out
    return bundle.memo(("quotients", tols.tolerance, tols.rank_threshold), build)


class _DirectSumPlan(NamedTuple):
    """Lambda = sum of the Lambda_x as arrays only, objects and each G_x in
    declared order.  Item t of ``blocks`` is K[q_out, m, q_in] of ``keys[t]``
    = (h, g): A_h's m-th basis element from the summand at g to the one at
    h.g (d_h, q_g, q_hg > 0), g over G_x, h over G_{r(g)}.  Per group: its
    stack, the packed positions (P, m) of A_h's coefficients and the rows
    (P, q_out, 1), columns (P, 1, q_in) of its blocks in the direct sum (one
    writer each: h = (h.g).g^-1)."""

    fibres: dict[str, InducedFibre]  # per arrow, zero where its Gram matrix is not positive
    errors: dict[str, str]           # per such arrow, why not
    offsets: dict[str, int]          # per arrow, its summand's first row
    starts: list[int]                # per object, then N: its first row
    items: list[int]                 # per object, then the count: its first item
    keys: list[tuple[str, str]]
    blocks: la.Stacks
    groups: list[tuple[Array, Array, Array, Array]]
    classes: list[tuple[list[int], Array, Array]]  # per object dim n > 0: objects, rows, cols


def _direct_sum_plan(bundle: FellBundle, tols: Tolerances, whole: bool = True) -> _DirectSumPlan:
    """The regular store of ``bundle``, built once per pair of thresholds from
    ``regular_quotients``: one einsum per K block, every block held once.
    With ``whole``, the first error of ``errors`` is raised as ValueError."""
    def build() -> _DirectSumPlan:
        G, quotients, packed = bundle.groupoid, regular_quotients(bundle, tols), bundle.offsets()
        fibres, errors, offsets, q = {}, {}, {}, {}
        keys, tensors, starts, items = [], [], [0], [0]
        for x in G.objects:
            pos, n = starts[-1], bundle.unit_dim(x)
            for g in G.source_fiber(x):
                stack, a = quotients[g]
                if stack.errors[a] is not None:
                    errors[g], stack, a = stack.errors[a], _zero_fibres(1), 0
                fibres[g] = stack.fibre(a)
                q[g] = len(fibres[g].phi)
                offsets[g], pos = pos, pos + q[g]
            for g in G.source_fiber(x):
                psi = fibres[g].psi.reshape(bundle.dims[g], n, q[g])
                for h in G.source_fiber(G.rng[g]):
                    out = G.comp[(h, g)]
                    if q[g] and bundle.dims[h] and q[out]:
                        phi = fibres[out].phi.reshape(q[out], bundle.dims[out], n)
                        tensors.append(np.einsum("qov,omi,ivp->qmp", phi, bundle.mult[(h, g)], psi))
                        keys.append((h, g))
            starts.append(pos)
            items.append(len(keys))
        blocks, groups, sizes = la.Stacks(tensors), [], {}
        for where, stack in blocks.groups():
            hs, gs = zip(*[keys[t] for t in where.tolist()])
            _, q_out, m, q_in = stack.shape
            groups.append((stack, _spans([packed[h] for h in hs], m),
                           _spans([offsets[G.comp[k]] for k in zip(hs, gs)], q_out)[:, :, None],
                           _spans([offsets[g] for g in gs], q_in)[:, None, :]))
        for p, n in enumerate(np.diff(starts).tolist()):
            sizes.setdefault(n, []).append(p)
        spans = {n: _spans([starts[p] for p in part], n) for n, part in sizes.items() if n}
        return _DirectSumPlan(fibres, errors, offsets, starts, items, keys, blocks, groups,
                              [(sizes[n], s[:, :, None], s[:, None, :]) for n, s in spans.items()])
    plan = bundle.memo(("regular_store", tols.tolerance, tols.rank_threshold), build)
    if whole and plan.errors:
        raise ValueError(next(iter(plan.errors.values())))
    return plan


class RegularRepAt:
    """Lambda_x, a view of the bundle's regular store (``_direct_sum_plan``):
    ``blocks`` holds the K[(h, g)] of x as read-only views into the store."""

    def __init__(self, bundle: FellBundle, x: str, tols: Tolerances = DEFAULT):
        if x not in bundle.groupoid.unit:
            raise ValueError(f"unknown object {x!r}")
        store = _direct_sum_plan(bundle, tols, whole=False)
        self.x, self.summands = x, list(bundle.groupoid.source_fiber(x))
        if bad := [store.errors[g] for g in self.summands if g in store.errors]:
            raise ValueError(bad[0])
        self.phi = {g: store.fibres[g].phi for g in self.summands}
        self.psi = {g: store.fibres[g].psi for g in self.summands}
        self.quot_dim = {g: len(self.phi[g]) for g in self.summands}
        self.borderline = [f"({x},{g}): {store.fibres[g].shaky} Gram eigenvalue(s) within a "
                           "decade of the rank threshold; quotient dimension may be unstable"
                           for g in self.summands if store.fibres[g].shaky]
        p = bundle.groupoid.objects.index(x)
        start, lo, hi = store.starts[p], store.items[p], store.items[p + 1]
        self.dim = store.starts[p + 1] - start
        self.offsets = {g: store.offsets[g] - start for g in self.summands}
        group, row = store.blocks.group[lo:hi].tolist(), store.blocks.row[lo:hi].tolist()
        self.blocks = {key: store.blocks.arrays[k][r]
                       for key, k, r in zip(store.keys[lo:hi], group, row)}
        self._slices = []  # per group that holds blocks of x: its rows, placed locally
        for k in dict.fromkeys(group):
            stack, coeff, rows, cols = store.groups[k]
            a = row[group.index(k)]
            at = slice(a, a + group.count(k))
            self._slices.append((stack[at], coeff[at], rows[at] - start, cols[at] - start))

    def matrix(self, coeffs: Array) -> Array:
        """Lambda_x (..., dim, dim) of the sections packed in ``coeffs`` (..., total_dim)."""
        return _assemble(self._slices, self.dim, coeffs)


def _assemble(groups: list[tuple[Array, Array, Array, Array]], dim: int, coeffs: Array) -> Array:
    """The (..., dim, dim) matrices that ``groups`` form from ``coeffs`` (..., total_dim)."""
    out = np.zeros(coeffs.shape[:-1] + (dim, dim), dtype=np.complex128)
    for stack, coeff, rows, cols in groups:
        out[..., rows, cols] = np.einsum("pqmr,...pm->...pqr", stack, coeffs.take(coeff, -1))
    return out


def regular_at(bundle: FellBundle, x: str, tols: Tolerances = DEFAULT) -> RegularRepAt:
    """The view at x, built on first use and cached under the store's two thresholds."""
    return bundle.memo(("regular", x, tols.tolerance, tols.rank_threshold),
                       lambda: RegularRepAt(bundle, x, tols))


def _direct_sum(bundle: FellBundle, coeffs: Array, tols: Tolerances) -> Array:
    """Lambda of the sections packed in ``coeffs`` (..., total_dim): the
    matrices at the objects down the diagonal, in declared object order,
    formed by one einsum and assignment per group of the regular store."""
    plan = _direct_sum_plan(bundle, tols)
    return _assemble(plan.groups, plan.starts[-1], coeffs)


def delta_images(bundle: FellBundle, tols: Tolerances = DEFAULT) -> Array:
    """The read-only stack (total_dim, N, N) of Lambda(delta_{g,i}) in packed
    order: ``_direct_sum`` of the identity coefficients, once per pair of thresholds."""
    key = ("delta_images", tols.tolerance, tols.rank_threshold)
    return bundle.memo(key, lambda: la.readonly(
        _direct_sum(bundle, np.eye(bundle.total_dim, dtype=np.complex128), tols)))


def _over(bundle: FellBundle, f: Section) -> None:
    if f.bundle is not bundle:
        raise ValueError("section does not live over the bundle")


def regular_rep_matrix(bundle: FellBundle, x: str, f: Section,
                       tols: Tolerances = DEFAULT) -> Array:
    _over(bundle, f)
    return regular_at(bundle, x, tols).matrix(f.pack())


def cstar_norm(bundle: FellBundle, f: Section, tols: Tolerances = DEFAULT) -> float:
    return max(per_object_norms(bundle, f, tols).values(), default=0.0)


def per_object_norms(bundle: FellBundle, f: Section,
                     tols: Tolerances = DEFAULT) -> dict[str, float]:
    """||Lambda_x(f)|| per object x: Lambda(f) by the regular store, and one SVD
    of its diagonal blocks per object dim; an object of dim 0 reads 0.0."""
    _over(bundle, f)
    coeffs = f.pack()
    if not np.isfinite(coeffs).all():  # one check: the norm core names the arrow
        f.bundle.norm_rows([(g, v[None]) for g, v in f.entries.items()])
    objects, plan = bundle.groupoid.objects, _direct_sum_plan(bundle, tols)
    lam = _assemble(plan.groups, plan.starts[-1], coeffs)
    norms = dict.fromkeys(objects, 0.0)
    for part, rows, cols in plan.classes:
        norms.update(zip([objects[p] for p in part],
                         np.linalg.svd(lam[rows, cols], compute_uv=False)[:, 0].tolist()))
    return norms


def sharper_norm_bound(bundle: FellBundle, f: Section,
                       tols: Tolerances = DEFAULT) -> float:
    """Reported upper bound from the pointwise square-root sums; not tight.

    Computed for f / 2^e, with 2^e the power of two just above the largest
    coefficient of f, and scaled back: the products f(g) f(g)* and
    f(g)* f(g) stay in range for any finite f."""
    _over(bundle, f)
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
    # the HS-orthonormalised stack, when the decomposition formed it to order
    # tied blocks; ``irrep_frames`` reads it rather than forming it again
    basis: Array | None = field(default=None, repr=False, compare=False)

    def irrep(self, mat: Array) -> Array:
        if self.irrep_frame is None:
            raise ValueError("block has no irreducible frame; see irrep_frames")
        return self.irrep_frame.conj() @ mat @ self.irrep_frame.T


def block_decomposition(images: Array, structure: Structure, unit: Callable[[], Array],
                        tols: Tolerances = DEFAULT) -> list[SimpleBlock]:
    """Simple summands of the *-algebra that ``structure`` defines, given by
    the stack (d, N, N) of the images of its basis, in packed order.

    The method is the seeded random central element of Murota, Kanno,
    Kojima & Kojima ("A numerical algorithm for block-diagonal decomposition
    of matrix *-algebras", Japan J. Indust. Appl. Math. 27, 2010), worked in
    coefficient space.  Both finite-dimensional C*-algebras of the paper
    take this one route: the envelope (``envelope_algebra``: the images
    Λ(δ_1..δ_d) with the bundle's ``structure()``) and each unit fibre
    (``spectrum.fiber_spectrum``: the images ρ_x(e_1..e_d) with
    ``Structure.unit_fibre``, one arrow).  The product and involution are the
    structure's ``mult``/``inv`` stacks, gathered by its tables, and
    ``unit()`` gives the coordinates of the unit; it is asked for after the
    product and adjoint checks, so a tensor that fails them is named before
    a unit that is missing.

    The stack is cut along its finest common block-diagonal form, blocks of
    sizes n_b summing to N (envelope images: one block per object or
    finer).  A singular-values-only SVD of the images gives their rank;
    below d they are no basis, and a ValueError names the rank.  Three
    checks make the structure's tensors the algebra's:
    B_iB_j = sum_k mult[k,i,j] B_k on every composable basis pair and
    exactly 0 on the others (the column support of B_i misses the row
    support of B_j); B_i* = B_{i*} by ``inv``; and U = sum_k u_k B_k is a
    two-sided unit of every image.  U is then a projection (the span is
    *-closed), either 1 or, where the images act degenerately on C^N (a
    degenerate unit representation), the support projection, whose kernel
    eigenvalue cluster the attempts set aside.  The centre lies on the
    isotropy coordinates: the units 1_x of the unit fibres are orthogonal
    idempotents adding up to the unit (the unit check and the exact zeros),
    so a central z, whose images are independent, has z_g = 0 whenever
    r(g) ≠ s(g).  A unit fibre's one arrow is a loop, so its centre is
    solved on every coordinate.  The commutator system [z, δ_j] = 0 is
    formed sparsely on those columns, with one row per commutator
    coordinate that some product reaches (d² rows for a group or a unit
    fibre, about d on a pair groupoid).

    Then a random self-adjoint central element is diagonalised one block at
    a time; its eigenvalue clusters (gap ``cluster_gap``) give the minimal
    central projections, and the rank of V* B_k V on a cluster's
    eigenvectors V identifies each corner with a full matrix algebra.  An
    attempt stands when sum size² is d.  Blocks are sorted by size and
    multiplicity, and blocks that tie on both by their rounded traces
    tr(P B_k) on the HS-orthonormalised stack, which is formed only then and
    kept with the blocks for ``irrep_frames``.  The blocks carry no
    irreducible frames; ``irrep_frames`` finds them on the blocks returned.

    The products of the composable pairs are formed in chunks of
    la._STACK_CHUNK elements.  Deterministic for a fixed seed; images that
    do not realise a unital *-algebra by these tensors raise ValueError.
    """
    d, N, _ = images.shape
    if not d * N:
        return []  # no matrices, or matrices with no entries: the zero algebra
    S = structure
    if d != int(S.dims.sum()):
        raise ValueError(f"{d} images for a structure of {int(S.dims.sum())} coordinates")
    parts = _common_blocks(images)
    pieces = [images[:, p[:, None], p[None, :]] for p in parts]
    # the singular values of the stack, read off its diagonal blocks
    s = np.linalg.svd(np.hstack([p.reshape(d, -1) for p in pieces]), compute_uv=False)
    rank = int(np.sum(s > tols.rank_threshold * s[0])) if s[0] > 0 else 0
    if rank < d:
        raise ValueError(f"the images are not linearly independent (rank {rank} of {d}); "
                         "they are no basis of the algebra")
    # per packed coordinate: its arrow; per arrow: its first coordinate
    owner = np.repeat(np.arange(len(S.dims)), S.dims)
    start = np.concatenate([[0], np.cumsum(S.dims)[:-1]])

    def name(k: int) -> str:
        return f"{S.arrows[owner[k]]}[{k - start[owner[k]]}]"
    tol = max(tols.tolerance, 1e-8)
    _check_bundle_products(pieces, S, owner, start, name, tol)
    _check_bundle_adjoints(pieces, S, start, name, tol)
    support = _unit_support(pieces, unit(), tol)
    centre = _isotropy_centre(S, owner, start, tols.rank_threshold)
    if centre.shape[0] == 0:
        raise ValueError("algebra has empty centre; spanning stack degenerate")
    return _central_blocks(pieces, parts, centre, support, tols,
                           lambda: la.stack_orth(list(images), N, N, tols.rank_threshold))


def _central_blocks(pieces: list[Array], parts: list[Array], null: Array,
                    support: list[Array] | None, tols: Tolerances,
                    orthonormal: Callable[[], Array]) -> list[SimpleBlock]:
    """The seeded attempts on the diagonal blocks ``pieces`` (d, n_b, n_b) of
    a basis, on the index sets ``parts``: minimal central projections from
    the eigenvalue clusters of a random self-adjoint central element (rows
    of ``null`` span the centre in the basis coordinates), sorted, with
    ``orthonormal()`` (the HS-orthonormalised stack) formed only to order
    tied blocks.  ``support``: the unit's diagonal blocks when the unit is a
    proper support projection, else None."""
    d, N = pieces[0].shape[0], sum(p.size for p in parts)
    center_dim = null.shape[0]
    degenerate = support is not None
    owner = np.repeat(np.arange(len(parts)), [p.size for p in parts])
    local = np.concatenate([np.arange(p.size) for p in parts])
    for attempt in range(_ATTEMPTS):
        z = _gaussian(tols.seed + 7919 * attempt, center_dim) @ null
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
            if len({(b.size, b.multiplicity) for b in blocks}) < len(blocks):
                basis = orthonormal()
                blocks.sort(key=_block_sort_key(basis))
                for b in blocks:
                    b.basis = basis
            else:
                blocks.sort(key=lambda b: (b.size, b.multiplicity))
            return blocks
    raise ValueError("block decomposition did not stabilise; "
                     "input is likely not a *-closed algebra")


@lru_cache(maxsize=1024)
def _gaussian(seed: int, size: int) -> Array:
    """(size,) complex coefficients from ``default_rng(seed)``: real parts
    first, then imaginary parts, read-only and cached, since every attempt
    with the same seed draws the same."""
    rng = np.random.default_rng(seed)
    return la.readonly(rng.standard_normal(size) + 1j * rng.standard_normal(size))


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


def _unit_support(pieces: list[Array], unit: Array, tol: float) -> list[Array] | None:
    """None when U = sum_k u_k B_k is the identity (residual at most tol
    times max(1, sqrt N)); else the diagonal blocks of U, when U is a
    two-sided unit of every image (residuals at most tol times
    max(1, |B_k|)); ValueError otherwise."""
    support = [(unit @ p.reshape(len(unit), -1)).reshape(p.shape[1:]) for p in pieces]
    N = sum(len(u) for u in support)
    off = np.sqrt(sum(np.linalg.norm(u - np.eye(len(u))) ** 2 for u in support))
    if off <= tol * max(1.0, np.sqrt(N)):
        return None
    miss = np.zeros(pieces[0].shape[0])
    size = np.zeros(pieces[0].shape[0])
    for u, p in zip(support, pieces):
        miss += np.sum(np.abs(u @ p - p) ** 2 + np.abs(p @ u - p) ** 2, axis=(1, 2))
        size += np.sum(np.abs(p) ** 2, axis=(1, 2))
    worst = float(np.max(np.sqrt(miss) / np.maximum(1.0, np.sqrt(size))))
    if worst > tol:
        raise ValueError(f"the units of the unit fibres do not act as the identity "
                         f"(residual {worst:.3e}); input is not a *-algebra")
    return support


def _rows_of(start: Array, arrows: Array, d: int) -> Array:
    """(len(arrows), d): the rows of the packed coordinates 0..d-1 of each arrow."""
    return start[arrows][:, None] + np.arange(d)


def _check_bundle_products(pieces: list[Array], S: Structure, owner: Array, start: Array,
                           name: Callable[[int], str], tol: float) -> None:
    """Raises unless B_iB_j = sum_k mult[k, i, j] B_k on every composable
    basis pair (residual at most tol times max(1, |product|)), and unless
    the product is exactly 0 on the others: the column support of B_i
    misses the row support of B_j on every diagonal block."""
    T = S.tables
    if len(T.pairs) < len(T.src) ** 2:  # some pair is not composable
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
    """Raises unless B_i* = B_{i*} = sum_k inv[g][k, i] B_{g^-1, k} for every
    basis element i of every fibre A_g (residual at most tol times
    max(1, |B_i|))."""
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
    """Rows (centre dim, d) spanning the centre of the structure's algebra
    in packed coordinates, zero off the isotropy arrows: the null space of
    [z, δ_j] = 0 over every basis element j, with one column per isotropy
    coordinate and one row per coordinate (j, m) of a commutator that some
    product reaches, in ascending order of j·d + m.  The entries are summed
    by ``np.bincount`` in the order the pairs list them."""
    T, d = S.tables, len(owner)
    iso = T.src == T.rng
    columns = np.flatnonzero(iso[owner])
    width = len(columns)
    if not width:
        return np.zeros((0, d), dtype=np.complex128)
    column = np.full(d, -1)
    column[columns] = np.arange(width)
    keys, vals = [], []
    for pos, M in S.mult.groups():
        _, dk, di, dj = M.shape
        if not dk * di * dj:
            continue
        g, h = T.pairs[pos].T
        out = _rows_of(start, T.comp[g, h], dk)[:, :, None, None]
        left = _rows_of(start, g, di)[:, None, :, None]
        right = _rows_of(start, h, dj)[:, None, None, :]
        # z δ_j with z on the isotropy arrow g (plus), δ_j z with z on h (minus);
        # the key of an entry is its row j·d + m times the width plus its column
        for on, z, j, sign in ((iso[g], left, right, 1.0), (iso[h], right, left, -1.0)):
            if on.any():
                sel = slice(None) if on.all() else on
                keys.append(((j[sel] * d + out[sel]) * width + column[z[sel]]).ravel())
                vals.append(sign * M[sel].ravel())
    system = np.zeros((0, width), dtype=np.complex128)
    if keys:
        key, val = np.concatenate(keys), np.concatenate(vals)
        row = key // width
        reached = np.zeros(d * d, dtype=bool)
        reached[row] = True
        at = (np.cumsum(reached) - 1)[row] * width + key % width
        size = int(np.count_nonzero(reached)) * width
        system = np.empty(size, dtype=np.complex128)
        system.real = np.bincount(at, val.real, size)
        system.imag = np.bincount(at, val.imag, size)
    null = la.null_space_rows(system.reshape(-1, width), rtol)
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
    """The ``blocks`` of ``block_decomposition`` on ``stack``, each with an irreducible
    frame searched in its own projection, with the seeds of the decomposition's attempts
    as salts, on the HS-orthonormalised stack (the one the blocks carry, if the
    decomposition formed it); ValueError if no salt gives one."""
    if not blocks:
        return []
    basis = blocks[0].basis
    if basis is None:
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
        coeff = _gaussian(tols.seed + 104729 * salt + 31 * attempt + 5, d)
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
    images = delta_images(bundle, tols)
    blocks = block_decomposition(images, bundle.structure(),
                                 lambda: unit_section(bundle).pack(), tols)
    dim = sum(b.size ** 2 for b in blocks)
    dims = np.diff(_direct_sum_plan(bundle, tols).starts).tolist()
    return EnvelopeAlgebra(bundle, tols, dict(zip(bundle.groupoid.objects, dims)),
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
