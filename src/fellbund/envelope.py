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

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .bundle import FellBundle, ei
from .config import DEFAULT, Tolerances
from .report import ValidationReport
from .sections import Section, basis_sections, module_action, unit_section

Array = np.ndarray


class RegularRepAt:
    """Quotient coordinates of the induced space at one object."""

    def __init__(self, bundle: FellBundle, x: str, tols: Tolerances = DEFAULT):
        self.bundle = bundle
        self.x = x
        G = bundle.groupoid
        n = bundle.unit_dim(x)
        self.summands = list(G.source_fiber(x))
        self.phi: dict[str, Array] = {}
        self.psi: dict[str, Array] = {}
        self.quot_dim: dict[str, int] = {}
        self.borderline: list[str] = []
        for g in self.summands:
            d = bundle.dims[g]
            raw = d * n
            if raw == 0:
                self.phi[g] = np.zeros((0, 0), dtype=np.complex128)
                self.psi[g] = np.zeros((0, 0), dtype=np.complex128)
                self.quot_dim[g] = 0
                continue
            T = bundle.star_mult_tensor(g)
            gram = np.einsum("kij,kvw->ivjw", T, bundle.unit_rep[x]).reshape(raw, raw)
            gram = la.hermitian_part(gram)
            vals, vecs = np.linalg.eigh(gram)
            top = max(float(vals[-1]), 0.0)
            if float(vals[0]) < -max(tols.tolerance, tols.rank_threshold * max(top, 1.0)):
                raise ValueError(f"Gram matrix at ({x},{g}) is not positive "
                                 f"(min eigenvalue {vals[0]:.3e}); bundle invalid")
            cut = tols.rank_threshold * max(top, 1.0)
            keep = vals > cut
            # the quotient dimension should not flip under small threshold
            # perturbations; eigenvalues within a decade of the cut are noted
            shaky = int(np.sum((vals > cut / 10) & (vals <= cut * 10)))
            if shaky:
                self.borderline.append(
                    f"({x},{g}): {int(shaky)} Gram eigenvalue(s) within a decade "
                    f"of the rank threshold; quotient dimension may be unstable")
            lam = vals[keep]
            v = vecs[:, keep]
            self.phi[g] = (np.sqrt(lam)[:, None] * v.conj().T)
            self.psi[g] = v / np.sqrt(lam)[None, :]
            self.quot_dim[g] = int(lam.size)
        self.offsets: dict[str, int] = {}
        pos = 0
        for g in self.summands:
            self.offsets[g] = pos
            pos += self.quot_dim[g]
        self.dim = pos
        self._blocks: dict[tuple[str, str], Array] = {}
        self._build_blocks(n)

    def _build_blocks(self, n: int) -> None:
        """K[(h, g)][q_out, m, q_in]: action of the m-th basis element of A_h
        mapping the summand at g into the summand at h.g."""
        bundle, G = self.bundle, self.bundle.groupoid
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
                self._blocks[(h, g)] = tensor

    def matrix(self, f: Section) -> Array:
        """Matrix of left convolution by f on the quotient coordinates."""
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for (h, g), tensor in self._blocks.items():
            coeff = f.entries.get(h)
            if coeff is None:
                continue
            target = self.bundle.groupoid.comp[(h, g)]
            block = np.einsum("qmp,m->qp", tensor, coeff)
            o, i = self.offsets[target], self.offsets[g]
            out[o:o + block.shape[0], i:i + block.shape[1]] += block
        return out


class RegularRepresentation:
    """Per-object regular representations, built lazily and cached; direct
    sums merge in the declared object order."""

    def __init__(self, bundle: FellBundle, tols: Tolerances = DEFAULT):
        self.bundle = bundle
        self.tols = tols
        self._at: dict[str, RegularRepAt] = {}

    def at(self, x: str) -> RegularRepAt:
        if x not in self._at:
            self._at[x] = RegularRepAt(self.bundle, x, self.tols)
        return self._at[x]

    def matrix(self, x: str, f: Section) -> Array:
        return self.at(x).matrix(f)

    def direct_sum_matrix(self, f: Section) -> Array:
        blocks = [self.matrix(x, f) for x in self.bundle.groupoid.objects]
        dim = sum(b.shape[0] for b in blocks)
        out = np.zeros((dim, dim), dtype=np.complex128)
        pos = 0
        for b in blocks:
            out[pos:pos + b.shape[0], pos:pos + b.shape[0]] = b
            pos += b.shape[0]
        return out

    def per_object_dims(self) -> dict[str, int]:
        return {x: self.at(x).dim for x in self.bundle.groupoid.objects}


def _cached_regular(bundle: FellBundle, tols: Tolerances) -> RegularRepresentation:
    # the Gram quotient uses only these two thresholds, so seeded runs share it
    return bundle.memo(("regular", tols.tolerance, tols.rank_threshold),
                       lambda: RegularRepresentation(bundle, tols))


def regular_rep_matrix(bundle: FellBundle, x: str, f: Section,
                       tols: Tolerances = DEFAULT) -> Array:
    return _cached_regular(bundle, tols).matrix(x, f)


def cstar_norm(bundle: FellBundle, f: Section, tols: Tolerances = DEFAULT) -> float:
    reg = _cached_regular(bundle, tols)
    return max((la.operator_norm(reg.matrix(x, f)) for x in bundle.groupoid.objects),
               default=0.0)


def per_object_norms(bundle: FellBundle, f: Section,
                     tols: Tolerances = DEFAULT) -> dict[str, float]:
    reg = _cached_regular(bundle, tols)
    return {x: la.operator_norm(reg.matrix(x, f)) for x in bundle.groupoid.objects}


def sharper_norm_bound(bundle: FellBundle, f: Section,
                       tols: Tolerances = DEFAULT) -> float:
    """Reported upper bound from the pointwise square-root sums; not tight."""
    G = bundle.groupoid
    n_r = {x: np.zeros((bundle.unit_dim(x), bundle.unit_dim(x)), dtype=np.complex128)
           for x in G.objects}
    n_s = {x: np.zeros((bundle.unit_dim(x), bundle.unit_dim(x)), dtype=np.complex128)
           for x in G.objects}
    for g, v in f.entries.items():
        gi = G.inv[g]
        ff = bundle.unit_matrix(G.rng[g], bundle.mult_coords(g, gi, v, bundle.star_coords(g, v)))
        sf = bundle.unit_matrix(G.src[g], bundle.star_mult_coords(g, v, v))
        n_r[G.rng[g]] += la.psd_power(ff, 0.5, tols.rank_threshold)
        n_s[G.src[g]] += la.psd_power(sf, 0.5, tols.rank_threshold)
    top_r = max((la.operator_norm(m) for m in n_r.values()), default=0.0)
    top_s = max((la.operator_norm(m) for m in n_s.values()), default=0.0)
    return float(np.sqrt(top_r * top_s))


# -- block decomposition ---------------------------------------------------------

@dataclass
class SimpleBlock:
    size: int
    multiplicity: int
    projection: Array       # minimal central projection in the ambient Mat(N)
    irrep_frame: Array | None = None  # (size, N): rows span an irreducible subspace

    def irrep(self, mat: Array) -> Array:
        if self.irrep_frame is None:
            raise ValueError("block was decomposed without irrep frames")
        return self.irrep_frame.conj() @ mat @ self.irrep_frame.T


# elements per chunk of basis products held at once (16 MB of complex128)
_PRODUCT_CHUNK = 1 << 20


def block_decomposition(basis: Array, tols: Tolerances = DEFAULT,
                        want_irreps: bool = False) -> list[SimpleBlock]:
    """Simple summands of a matrix *-algebra given by a spanning stack.

    The method is the seeded random central element of Murota, Kanno,
    Kojima & Kojima ("A numerical algorithm for block-diagonal decomposition
    of matrix *-algebras", Japan J. Indust. Appl. Math. 27, 2010), worked in
    coefficient space.  The stack is HS-orthonormalised to B_1..B_d and cut
    along its finest common block-diagonal form, blocks of sizes n_b summing
    to N (envelope images: one block per object).  Block by block, batched
    matmul gives the structure constants c[i, j, m] = tr(B_m* B_i B_j) and
    checks that the span is closed under products and adjoints.  The centre
    is the null space of the d²×d system sum_k z_k (c[k,j,:] - c[j,k,:]) = 0
    and the two-sided unit must solve a 2d²×d system in c.  A random
    self-adjoint central element is diagonalised one block at a time; its
    eigenvalue clusters (gap ``cluster_gap``) give the minimal central
    projections, and the rank of V* B_k V on a cluster's eigenvectors V
    identifies each corner with a full matrix algebra.  With ``want_irreps``
    a rank-one-projection search provides an irreducible frame per block.

    The cost is d²·sum_b n_b³ (plus d³·sum_b n_b² to contract the products),
    against d·N²·d for the ambient commutation system.  Deterministic for a
    fixed seed; a stack that is not a unital *-algebra raises ValueError.
    """
    basis = la.stack_orth(list(basis), basis.shape[1], basis.shape[2], tols.rank_threshold)
    d, N, _ = basis.shape
    if d == 0:
        return []
    parts = _common_blocks(basis)
    pieces = [basis[:, p[:, None], p[None, :]] for p in parts]
    tol = max(tols.tolerance, 1e-8)
    c = _structure_constants(pieces, tol)
    _check_adjoint_closed(pieces, tol)

    comm = c - c.transpose(1, 0, 2)          # comm[k, j] = coordinates of [B_k, B_j]
    null = la.null_space_rows(comm.transpose(1, 2, 0).reshape(d * d, d), tols.rank_threshold)
    center_dim = null.shape[0]
    if center_dim == 0:
        raise ValueError("algebra has empty centre; spanning stack degenerate")

    # the algebra may act degenerately on the ambient space (an ideal inside
    # a larger matrix algebra); its unit is then a proper support projection
    # and every central element carries a spurious kernel eigenvalue cluster
    unit_coeff = _unit_coefficients(c, pieces, tol)
    if unit_coeff is None:
        raise ValueError("spanning stack is not a unital *-algebra")
    support = [np.tensordot(unit_coeff, p, axes=1) for p in pieces]
    support_rank = int(round(sum(float(np.real(np.trace(s))) for s in support)))
    degenerate = support_rank < N

    owner = np.repeat(np.arange(len(parts)), [p.size for p in parts])
    local = np.concatenate([np.arange(p.size) for p in parts])
    for attempt in range(24):
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
            block = SimpleBlock(size, mult_total // size, proj)
            if want_irreps:
                frame = _irrep_frame(basis, c, proj, size, block.multiplicity, tols, attempt)
                if frame is None:
                    good = False
                    break
                block.irrep_frame = frame
            blocks.append(block)
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


def _structure_constants(pieces: list[Array], tol: float) -> Array:
    """c[i, j, m] = tr(B_m* B_i B_j) from the diagonal blocks of an
    HS-orthonormal stack; raises unless every B_i B_j lies in the span."""
    d = pieces[0].shape[0]
    c = np.zeros((d, d, d), dtype=np.complex128)
    for p in pieces:
        for rows, prods in _block_products(p):
            c[rows] += np.tensordot(prods, p.conj(), axes=([2, 3], [1, 2]))
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
    return c


def _block_products(p: Array):
    """(rows, B_i B_j for i in rows and every j) on one diagonal block, in
    chunks of at most _PRODUCT_CHUNK elements."""
    d, n, _ = p.shape
    side = p.transpose(1, 0, 2).reshape(n, d * n)     # [B_1 | B_2 | ... | B_d]
    step = max(1, _PRODUCT_CHUNK // (d * n * n))
    for start in range(0, d, step):
        rows = slice(start, min(start + step, d))
        k = rows.stop - start
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
    sum_j u_j c[j,i,:] = e_i = sum_j u_j c[i,j,:] for every i.
    """
    d = c.shape[0]
    u = np.conj(sum(np.trace(p, axis1=1, axis2=2) for p in pieces))
    system = np.vstack([c.transpose(1, 2, 0).reshape(d * d, d),
                        c.transpose(0, 2, 1).reshape(d * d, d)])
    rhs = np.concatenate([np.eye(d).reshape(-1)] * 2)
    miss = np.linalg.norm((system @ u - rhs).reshape(2 * d, d), axis=1)
    return u if float(miss.max()) <= tol else None


def _block_sort_key(basis: Array):
    def key(b: SimpleBlock):
        traces = np.einsum("ab,kba->k", b.projection, basis)
        rounded = tuple(np.round(traces.view(np.float64), 6).tolist())
        return (b.size, b.multiplicity, rounded)
    return key


def _irrep_frame(basis: Array, c: Array, proj: Array, size: int, mult: int,
                 tols: Tolerances, salt: int) -> Array | None:
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
        # the compression must be multiplicative: pi(B_i) pi(B_j) = pi(B_i B_j),
        # with pi(B_i B_j) = sum_m c[i, j, m] pi(B_m)
        pi = frame.conj() @ basis @ frame.T
        pab = np.tensordot(c, pi, axes=1)
        err = np.linalg.norm(np.matmul(pi[:, None], pi[None]) - pab, axis=(2, 3))
        if np.all(err <= 1e-7 * np.maximum(1.0, np.linalg.norm(pab, axis=(2, 3)))):
            return frame
    return None


# -- the envelope algebra ---------------------------------------------------------

@dataclass
class EnvelopeAlgebra:
    bundle: FellBundle
    regular: RegularRepresentation
    per_object_dims: dict[str, int]
    basis_index: list[tuple[str, int]]
    images: Array          # stack of Lambda(delta) matrices
    image_frame: Array     # orthonormal frame of the image, flattened
    dim: int
    blocks: list[SimpleBlock]
    injective: bool

    def lambda_of(self, f: Section) -> Array:
        return self.regular.direct_sum_matrix(f)

    def block_summary(self) -> list[dict]:
        return [{"size": b.size, "multiplicity": b.multiplicity} for b in self.blocks]


def envelope_algebra(bundle: FellBundle, tols: Tolerances = DEFAULT) -> EnvelopeAlgebra:
    return bundle.memo(("envelope", tols), lambda: _envelope_algebra(bundle, tols))


def _envelope_algebra(bundle: FellBundle, tols: Tolerances) -> EnvelopeAlgebra:
    reg = _cached_regular(bundle, tols)
    basis = basis_sections(bundle)
    total = sum(reg.per_object_dims().values())
    if not basis:
        empty = np.zeros((0, total, total), dtype=np.complex128)
        return EnvelopeAlgebra(bundle, reg, reg.per_object_dims(), [], empty,
                               np.zeros((0, total * total), dtype=np.complex128), 0, [], True)
    images = np.stack([reg.direct_sum_matrix(s) for (_, _, s) in basis])
    frame = la.orth_rows(la.flatten_stack(images), tols.rank_threshold)
    dim = frame.shape[0]
    injective = dim == bundle.total_dim
    blocks = block_decomposition(images, tols)
    return EnvelopeAlgebra(bundle, reg, reg.per_object_dims(),
                           [(g, i) for (g, i, _) in basis], images, frame, dim,
                           blocks, injective)


def irreducible_envelope_blocks(bundle: FellBundle,
                                tols: Tolerances = DEFAULT) -> list[SimpleBlock]:
    """Envelope blocks with irreducible frames, cached per bundle."""
    def build() -> list[SimpleBlock]:
        env = envelope_algebra(bundle, tols)
        return block_decomposition(env.images, tols, want_irreps=True) \
            if env.images.shape[0] else []
    return bundle.memo(("irreps", tols), build)


def coefficient_embedding_check(bundle: FellBundle, tols: Tolerances = DEFAULT) -> ValidationReport:
    """The unit-fibre direct sum embeds in the envelope.

    Checks that b -> Lambda(b at units) is an injective *-homomorphism and
    that it implements the module action: phi(b) Lambda(f) = Lambda(b † f).
    """
    G = bundle.groupoid
    reg = _cached_regular(bundle, tols)
    rep = ValidationReport("coefficient embedding")
    tol = tols.tolerance

    unit_basis: list[tuple[str, int, Section]] = []
    for x in G.objects:
        u = G.unit[x]
        for i in range(bundle.dims[u]):
            unit_basis.append((x, i, Section(bundle, {u: ei(bundle.dims[u], i)})))

    def phi_sec(x: str, coords: Array) -> Section:
        return Section(bundle, {G.unit[x]: coords})

    mats = [reg.direct_sum_matrix(s) for (_, _, s) in unit_basis]
    if mats:
        rank = la.matrix_rank(np.stack([m.reshape(-1) for m in mats]), tols.rank_threshold)
        rep.require(rank == len(mats), "embedding injective", "unit fibre sum",
                    detail=f"rank {rank} of {len(mats)}")

    for (x, i, s) in unit_basis:
        m = reg.direct_sum_matrix(s)
        star = reg.direct_sum_matrix(phi_sec(x, bundle.star_coords(G.unit[x], ei(bundle.dims[G.unit[x]], i))))
        rep.check_residual(float(np.linalg.norm(m.conj().T - star)), tol,
                           "embedding involutive", f"({x},{i})")
        for (y, j, t) in unit_basis:
            if x != y:
                continue
            u = G.unit[x]
            prod = bundle.mult[(u, u)][:, i, j]
            lhs = m @ reg.direct_sum_matrix(t)
            rhs = reg.direct_sum_matrix(phi_sec(x, prod))
            rep.check_residual(float(np.linalg.norm(lhs - rhs)),
                               tol * max(1.0, float(np.linalg.norm(rhs))),
                               "embedding multiplicative", f"({x},{i},{j})")

    for (x, i, s) in unit_basis:
        m = reg.direct_sum_matrix(s)
        coeffs = {x: ei(bundle.dims[G.unit[x]], i)}
        for (g, k, f) in basis_sections(bundle):
            lhs = m @ reg.direct_sum_matrix(f)
            rhs = reg.direct_sum_matrix(module_action(bundle, coeffs, f))
            rep.check_residual(float(np.linalg.norm(lhs - rhs)),
                               tol * max(1.0, float(np.linalg.norm(lhs))),
                               "module action compatibility", f"phi({x},{i}) on ({g},{k})")

    e = unit_section(bundle)
    ident = reg.direct_sum_matrix(e)
    rep.check_residual(float(np.linalg.norm(ident - np.eye(ident.shape[0]))), tol,
                       "unit section acts as identity", "envelope")
    return rep
