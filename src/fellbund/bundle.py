"""Fell bundles over a finite groupoid.

A bundle stores, per arrow g, an abstract coefficient space C^{d_g} together
with structure tensors:

* ``mult[(g,h)]``: shape (d_gh, d_g, d_h), coefficients of e_i^g . e_j^h;
* ``inv[g]``: shape (d_{g^-1}, d_g), the antilinear involution as a complex
  matrix applied to the conjugated coordinate vector;
* ``unit_rep[x]``: stack (d_{u(x)}, n_x, n_x), a faithful *-representation of
  the unit fibre on C^{n_x}.  This is the norm oracle: the norm of a in A_g
  is sqrt(lambda_max(rho_{s(g)}(a* a))).

The matrix model (fibres given as subspaces of rectangular matrices, product
= matrix product, involution = conjugate transpose) is a constructor for this
structure, not a separate runtime representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Mapping

import numpy as np

from . import _linalg as la
from ._kernels import ConvolutionPlan
from .config import DEFAULT, Tolerances
from .groupoid import FiniteGroupoid, composable_pairs, composable_triples, validate_groupoid
from .report import ValidationReport

Array = np.ndarray


@dataclass(frozen=True)
class UnitFiberAlgebra:
    """Concrete matrix *-algebra A_x in Mat(n, C), basis HS-orthonormal."""

    n: int
    basis: Array  # stack (d, n, n)

    @staticmethod
    def from_matrices(n: int, mats: Iterable[Array], rtol: float = 1e-10) -> "UnitFiberAlgebra":
        """Keeps an already HS-orthonormal basis as given (callers may index
        into it); anything else is orthonormalised by SVD."""
        mats = [la.as_complex(m) for m in mats]
        if mats:
            flat = np.stack([m.reshape(-1) for m in mats])
            gram = flat.conj() @ flat.T
            if np.allclose(gram, np.eye(len(mats)), atol=1e-12):
                return UnitFiberAlgebra(n, np.stack(mats))
        return UnitFiberAlgebra(n, la.stack_orth(mats, n, n, rtol))

    @staticmethod
    def full_matrix_algebra(n: int) -> "UnitFiberAlgebra":
        basis = np.zeros((n * n, n, n), dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                basis[i * n + j, i, j] = 1.0
        return UnitFiberAlgebra(n, basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def validate(self, tol: float = 1e-9) -> ValidationReport:
        rep = ValidationReport(f"unit fibre algebra (n={self.n}, dim={self.dim})")
        for i in range(self.dim):
            _, res = la.stack_expand(self.basis, self.basis[i].conj().T)
            rep.check_residual(res, tol, "closed under adjoint", f"basis {i}")
            for j in range(self.dim):
                _, res = la.stack_expand(self.basis, self.basis[i] @ self.basis[j])
                rep.check_residual(res, tol, "closed under product", f"basis ({i},{j})")
        if la.algebra_unit(self.basis, max(tol, 1e-8)) is None and self.dim > 0:
            rep.add("two-sided unit exists", "algebra")
        return rep


class FellBundle:
    def __init__(self, groupoid: FiniteGroupoid, dims: Mapping[str, int],
                 mult: Mapping[tuple[str, str], Array], inv: Mapping[str, Array],
                 unit_rep: Mapping[str, Array], *,
                 matrix_model: Mapping[str, Array] | None = None,
                 left_ideal_model: Mapping[str, Array] | None = None,
                 name: str = "bundle"):
        self.groupoid = groupoid
        self.dims = {g: int(dims[g]) for g in groupoid.arrows}
        self.mult = {pair: la.as_complex(mult[pair]) for pair in composable_pairs(groupoid)}
        self.inv = {g: la.as_complex(inv[g]) for g in groupoid.arrows}
        self.unit_rep = {x: la.as_complex(unit_rep[x]) for x in groupoid.objects}
        self.matrix_model = (None if matrix_model is None
                             else {g: la.as_complex(m) for g, m in matrix_model.items()})
        self.left_ideal_model = (None if left_ideal_model is None
                                 else {g: la.as_complex(m) for g, m in left_ideal_model.items()})
        self.name = name
        self._check_shapes()
        self._memo: dict[Hashable, Any] = {}

    def _check_shapes(self) -> None:
        G = self.groupoid
        for (g, h), m in self.mult.items():
            want = (self.dims[G.comp[(g, h)]], self.dims[g], self.dims[h])
            if m.shape != want:
                raise ValueError(f"mult tensor ({g},{h}) has shape {m.shape}, want {want}")
        for g, j in self.inv.items():
            want = (self.dims[G.inv[g]], self.dims[g])
            if j.shape != want:
                raise ValueError(f"involution {g} has shape {j.shape}, want {want}")
        for x, r in self.unit_rep.items():
            if r.ndim != 3 or r.shape[0] != self.dims[G.unit[x]] or r.shape[1] != r.shape[2]:
                raise ValueError(f"unit representation at {x} has shape {r.shape}")

    def memo(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """Derived data cached on the bundle: ``build()`` runs once per key."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # -- basic fibre operations ------------------------------------------------

    def fiber_dim(self, g: str) -> int:
        return self.dims[g]

    def unit_dim(self, x: str) -> int:
        return int(self.unit_rep[x].shape[1])

    @property
    def total_dim(self) -> int:
        return sum(self.dims[g] for g in self.groupoid.arrows)

    def offsets(self) -> dict[str, int]:
        out, pos = {}, 0
        for g in self.groupoid.arrows:
            out[g] = pos
            pos += self.dims[g]
        return out

    def mult_coords(self, g: str, h: str, a: Array, b: Array) -> Array:
        return np.einsum("kij,i,j->k", self.mult[(g, h)], a, b)

    def star_coords(self, g: str, a: Array) -> Array:
        return self.inv[g] @ np.conj(a)

    def unit_matrix(self, x: str, coords: Array) -> Array:
        return la.stack_combine(self.unit_rep[x], coords)

    def unit_coords(self, x: str, mat: Array) -> tuple[Array, float]:
        """Least-squares coordinates c with rho_x(c) = mat, and the residual
        norm of rho_x(c) - mat (0 when mat lies in the unit fibre)."""
        return la.solve_lstsq(la.flatten_stack(self.unit_rep[x]).T, mat.reshape(-1))

    def unit_algebra_unit(self, x: str) -> Array:
        """Coordinates of the unit of A_{u(x)} (cached)."""
        def build() -> Array:
            c = la.algebra_unit(self.unit_rep[x])
            if c is None:
                raise ValueError(f"unit fibre at {x} has no two-sided unit")
            return c
        return self.memo(("unit", x), build)

    def star_mult_tensor(self, g: str) -> Array:
        """T with T[:, i, j] = coordinates of e_i^* . e_j in A_{u(s(g))}."""
        return self.memo(("star_mult", g), lambda: np.einsum(
            "kaj,ai->kij", self.mult[(self.groupoid.inv[g], g)], self.inv[g]))

    def star_mult_coords(self, g: str, a: Array, b: Array) -> Array:
        """Coordinates of a* . b in A_{u(s(g))}, for a, b in A_g."""
        return np.einsum("kij,i,j->k", self.star_mult_tensor(g), np.conj(a), b)

    def star_mult_rows(self, g: str, A: Array, B: Array) -> Array:
        """Coordinates of a_m* . b_m for the rows of two (m, d_g) stacks."""
        return np.einsum("kij,mi,mj->mk", self.star_mult_tensor(g), np.conj(A), B)

    def unit_spectra(self, x: str, C: Array) -> Array:
        """Ascending eigenvalues of the hermitian part of rho_x(c), one row
        per row c of the (m, d_{u(x)}) stack ``C``: shape (m, n_x)."""
        R = self.unit_rep[x]
        d, n = R.shape[0], R.shape[1]
        # one (1, d) @ (d, n*n) product per row, as ``unit_matrix`` forms it for
        # one vector, so each matrix is bit-identical to the one-vector path
        mats = np.matmul(C[:, None, :], R.reshape(d, n * n))[:, 0].reshape(len(C), n, n)
        return np.linalg.eigvalsh(la.hermitian_part(mats))

    def fiber_norm(self, g: str, a: Array) -> float:
        """sqrt of the top eigenvalue of rho_{s(g)}(a* a)."""
        a = la.as_complex(a)
        if a.size == 0:
            return 0.0
        mat = self.unit_matrix(self.groupoid.src[g], self.star_mult_coords(g, a, a))
        return float(np.sqrt(max(la.top_eigenvalue(mat), 0.0)))

    def fiber_norms(self, g: str, A: Array) -> Array:
        """``fiber_norm`` of each row of the (m, d_g) stack ``A``: one einsum
        for the a*a coordinates and one stacked ``eigvalsh``."""
        A = la.as_complex(A)
        return _top_norms(self.unit_spectra(self.groupoid.src[g], self.star_mult_rows(g, A, A)))

    def conv_plan(self) -> ConvolutionPlan:
        def build() -> ConvolutionPlan:
            pairs = composable_pairs(self.groupoid)
            keys = [(g, h, self.groupoid.comp[(g, h)]) for g, h in pairs]
            tensors = [self.mult[(g, h)] for g, h in pairs]
            return ConvolutionPlan(self.offsets(), self.dims, self.total_dim, keys, tensors)
        return self.memo("conv_plan", build)


def fiber_norm(bundle: FellBundle, g: str, a: Array) -> float:
    return bundle.fiber_norm(g, a)


def _top_norms(spectra: Array) -> Array:
    """sqrt of the top eigenvalue (clipped at 0) per row of ascending
    spectra (m, n); 0 where n = 0."""
    if spectra.shape[1] == 0:
        return np.zeros(spectra.shape[0])
    return np.sqrt(np.maximum(spectra[:, -1], 0.0))


# -- matrix model --------------------------------------------------------------

class MatrixModelBundle:
    """Fibres as concrete rectangular matrix subspaces.

    ``fibers[g]`` is an HS-orthonormal stack of shape (d_g, n_{r(g)}, n_{s(g)});
    the product is the matrix product and the involution the conjugate
    transpose.  ``to_fell_bundle`` extracts structure tensors.
    """

    def __init__(self, groupoid: FiniteGroupoid, fibers: Mapping[str, Iterable[Array]],
                 obj_dims: Mapping[str, int] | None = None, rtol: float = 1e-10):
        self.groupoid = groupoid
        raw = {g: [la.as_complex(m) for m in fibers.get(g, [])] for g in groupoid.arrows}
        dims: dict[str, int] = dict(obj_dims or {})
        for g, mats in raw.items():
            for m in mats:
                # with an inf, orth_rows keeps no direction (s > rtol * inf
                # fails) and the fibre silently becomes zero; a NaN breaks the SVD
                if not np.isfinite(m).all():
                    raise ValueError(f"non-finite entry in a matrix of the fibre at arrow {g}")
                r, s = groupoid.rng[g], groupoid.src[g]
                for obj, size in ((r, m.shape[0]), (s, m.shape[1])):
                    if dims.setdefault(obj, size) != size:
                        raise ValueError(f"inconsistent matrix size at object {obj}")
        for x in groupoid.objects:
            if x not in dims:
                raise ValueError(f"cannot infer matrix size at object {x}; pass obj_dims")
        self.obj_dims = dims
        self.fibers = {
            g: la.stack_orth(raw[g], dims[groupoid.rng[g]], dims[groupoid.src[g]], rtol)
            for g in groupoid.arrows
        }

    def validate(self, tol: float = 1e-9) -> ValidationReport:
        """Independent matrix-level validator: subspace containments only."""
        G = self.groupoid
        rep = ValidationReport("matrix model")
        flat = {g: la.flatten_stack(self.fibers[g]) for g in G.arrows}
        for g in G.arrows:
            adj = np.stack([m.conj().T for m in self.fibers[g]]) if self.dims(g) else \
                np.zeros((0, self.obj_dims[G.src[g]], self.obj_dims[G.rng[g]]))
            gi = G.inv[g]
            if not la.frame_eq(la.orth_rows(la.flatten_stack(adj)), flat[gi], tol):
                rep.add("adjoint matches inverse fibre", f"arrow {g}")
        for g, h in composable_pairs(G):
            gh = G.comp[(g, h)]
            for i in range(self.dims(g)):
                for j in range(self.dims(h)):
                    prod = self.fibers[g][i] @ self.fibers[h][j]
                    res = la.residual_in_span(flat[gh], prod.reshape(-1))
                    rep.check_residual(res, tol * max(1.0, float(np.linalg.norm(prod))),
                                       "product lands in composite fibre",
                                       f"({g}[{i}],{h}[{j}])")
        for x in G.objects:
            alg = UnitFiberAlgebra(self.obj_dims[x], self.fibers[G.unit[x]])
            sub = alg.validate(tol)
            for v in sub.violations:
                rep.add(v.check, f"object {x}: {v.where}", v.residual, v.detail)
        return rep

    def dims(self, g: str) -> int:
        return self.fibers[g].shape[0]

    def to_fell_bundle(self, rtol: float = 1e-10, name: str = "matrix bundle") -> FellBundle:
        G = self.groupoid
        dims = {g: self.dims(g) for g in G.arrows}
        mult = {}
        for g, h in composable_pairs(G):
            gh = G.comp[(g, h)]
            tensor = np.zeros((dims[gh], dims[g], dims[h]), dtype=np.complex128)
            for i in range(dims[g]):
                for j in range(dims[h]):
                    coeff, res = la.stack_expand(self.fibers[gh],
                                                 self.fibers[g][i] @ self.fibers[h][j])
                    tensor[:, i, j] = coeff
            mult[(g, h)] = tensor
        inv = {}
        for g in G.arrows:
            gi = G.inv[g]
            mat = np.zeros((dims[gi], dims[g]), dtype=np.complex128)
            for i in range(dims[g]):
                coeff, _ = la.stack_expand(self.fibers[gi], self.fibers[g][i].conj().T)
                mat[:, i] = coeff
            inv[g] = mat
        unit_rep = {x: self.fibers[G.unit[x]] for x in G.objects}
        return FellBundle(G, dims, mult, inv, unit_rep,
                          matrix_model=self.fibers, name=name)


# -- validator -----------------------------------------------------------------

# items grouped at a time, and elements per stacked tensor (1 MB of
# complex128): together they bound the memory one stacked check holds
_STACK_ITEMS = 1 << 10
_STACK_CHUNK = 1 << 16


def _stacked_groups(items: list, operands: Callable[[Any], tuple[Array, ...]],
                    size: Callable[[tuple], int]) -> Iterable[tuple[list[int], list[Array]]]:
    """Positions of items whose ``operands(item)`` tensors share their
    shapes, with those tensors stacked: per slice of _STACK_ITEMS items, in
    chunks of at most _STACK_CHUNK elements of ``size(shapes)`` each."""
    for begin in range(0, len(items), _STACK_ITEMS):
        groups: dict[tuple, list] = {}
        for pos in range(begin, min(begin + _STACK_ITEMS, len(items))):
            ops = operands(items[pos])
            groups.setdefault(tuple(t.shape for t in ops), []).append((pos, ops))
        for shapes, members in groups.items():
            step = max(1, _STACK_CHUNK // max(1, size(shapes)))
            for start in range(0, len(members), step):
                part = members[start:start + step]
                yield ([pos for pos, _ in part],
                       [np.array([ops[i] for _, ops in part]) for i in range(len(shapes))])


def validate_fell_bundle(bundle: FellBundle, tols: Tolerances = DEFAULT,
                         samples: int = 4) -> ValidationReport:
    """Check the Fell bundle axioms with witnesses.

    Multilinear identities are verified exactly on structure tensors; the
    norm/positivity conditions additionally run on seeded random unit-norm
    elements (``samples`` per fibre pair).  Each check runs as stacked numpy
    calls (per group of triples or pairs with equal tensor shapes, per arrow,
    per pair) and reports its violations in the order of the loops it replaces.
    """
    G = bundle.groupoid
    tol = tols.tolerance
    rep = ValidationReport(f"fell bundle {bundle.name}")
    base = validate_groupoid(G)
    if not base.ok:
        rep.merge(base)
        return rep

    rng = np.random.default_rng(tols.seed)
    mult, dims, comp = bundle.mult, bundle.dims, G.comp

    # associativity on composable triples, stacked by tensor shapes
    triples = composable_triples(G)
    res, scale = np.zeros(len(triples)), np.zeros(len(triples))
    # size: the (d_ghk, d_g, d_h, d_k) products
    for chunk, (lk, gh, gk, hk) in _stacked_groups(
            triples, lambda t: (mult[(comp[t[:2]], t[2])], mult[t[:2]],
                                mult[(t[0], comp[t[1:]])], mult[t[1:]]),
            lambda s: s[0][0] * s[1][1] * s[1][2] * s[0][2]):
        left = np.einsum("tkml,tmij->tkijl", lk, gh)
        scale[chunk] = la.row_norms(left)
        left -= np.einsum("tkim,tmjl->tkijl", gk, hk)
        res[chunk] = la.row_norms(left)
    for p in np.flatnonzero(~(res <= tol * np.maximum(1.0, scale))):
        rep.check_residual(res[p], tol * max(1.0, float(scale[p])),
                           "associativity", "({},{},{})".format(*triples[p]))

    # involution: (a*)* = a and (ab)* = b* a*
    for g in G.arrows:
        gi = G.inv[g]
        eye = bundle.inv[gi] @ np.conj(bundle.inv[g])
        res = float(np.linalg.norm(eye - np.eye(bundle.dims[g])))
        rep.check_residual(res, tol, "involution involutive", f"arrow {g}")
    pairs = [(g, h) for g, h in composable_pairs(G) if dims[g] and dims[h]]
    res, scale = np.zeros(len(pairs)), np.zeros(len(pairs))
    # size: the (d_{(gh)^-1}, d_g, d_h) products
    for chunk, (j_gh, m_gh, m_hg, j_h, j_g) in _stacked_groups(
            pairs, lambda p: (bundle.inv[comp[p]], mult[p], mult[(G.inv[p[1]], G.inv[p[0]])],
                              bundle.inv[p[1]], bundle.inv[p[0]]),
            lambda s: s[0][0] * s[1][1] * s[1][2]):
        lhs = np.einsum("tlk,tkij->tlij", j_gh, np.conj(m_gh))
        scale[chunk] = la.row_norms(lhs)
        lhs -= np.einsum("tkab,taj,tbi->tkij", m_hg, j_h, j_g)
        res[chunk] = la.row_norms(lhs)
    for p in np.flatnonzero(~(res <= tol * np.maximum(1.0, scale))):
        rep.check_residual(res[p], tol * max(1.0, float(scale[p])),
                           "involution anti-multiplicative", "({},{})".format(*pairs[p]))

    # unit fibre representations are faithful *-homomorphisms with a unit
    for x in G.objects:
        u = G.unit[x]
        R = bundle.unit_rep[x]
        d = bundle.dims[u]
        for i in range(d):
            prod_coords = bundle.mult[(u, u)][:, i, :]
            want = np.einsum("ab,kbc->kac", R[i], R)
            got = np.einsum("mk,mac->kac", prod_coords, R)
            res = float(np.linalg.norm(want - got))
            rep.check_residual(res, tol * max(1.0, float(np.linalg.norm(want))),
                               "unit representation multiplicative", f"object {x}, basis {i}")
            star = la.stack_combine(R, bundle.inv[u][:, i])
            res = float(np.linalg.norm(star - R[i].conj().T))
            rep.check_residual(res, tol, "unit representation involutive",
                               f"object {x}, basis {i}")
        if d and la.matrix_rank(R.reshape(d, -1), tols.rank_threshold) != d:
            rep.add("unit representation faithful", f"object {x}")
        try:
            bundle.unit_algebra_unit(x)
        except ValueError:
            rep.add("unit fibre has two-sided unit", f"object {x}")

    # norm axioms and positivity, on basis and seeded random elements.  A
    # random element t of A_g is rng.standard_normal(d) + 1j *
    # rng.standard_normal(d), normalised, and skipped if zero (d = 0); the
    # normals of successive draws come from one standard_normal call.
    def elements(g: str, z: Array) -> tuple[Array, Array]:
        """Rows (blocks, d_g + samples, d_g) of the basis and the random unit
        elements of A_g, one block per row of the normals ``z`` (blocks,
        samples, 2, d_g); and the mask of the elements kept (nonzero ones)."""
        d, blocks = bundle.dims[g], z.shape[0]
        v = z[:, :, 0] + 1j * z[:, :, 1]
        n = la.row_norms(v.reshape(blocks * samples, d)).reshape(blocks, samples)
        rows = np.empty((blocks, d + samples, d), dtype=np.complex128)
        rows[:, :d] = np.eye(d)
        rows[:, d:] = v / np.where(n > 0, n, 1.0)[:, :, None]
        keep = np.ones((blocks, d + samples), dtype=bool)
        keep[:, d:] = n > 0
        return rows, keep

    def label(g: str, keep: Array, r: int) -> str:
        """Label of the r-th kept element of ``keep`` for A_g."""
        i = int(np.flatnonzero(keep)[r]) % keep.shape[-1]
        return f"basis {i}" if i < bundle.dims[g] else f"random {i - bundle.dims[g]}"

    for g in G.arrows:
        rows, keep = elements(g, rng.standard_normal((1, samples, 2, bundle.dims[g])))
        E = rows[keep]
        x = G.src[g]
        s = bundle.star_mult_rows(g, E, E)
        spectra = bundle.unit_spectra(x, s)
        na = _top_norms(spectra)
        mn = spectra[:, 0] if spectra.shape[1] else np.zeros(len(E))
        # a* row by row, one matrix-vector product each as ``star_coords`` forms it
        stars = np.matmul(bundle.inv[g], np.conj(E)[:, :, None])[:, :, 0]
        nstar = bundle.fiber_norms(G.inv[g], stars)
        nu = bundle.fiber_norms(G.unit[x], s)
        res_star, tol_star = np.abs(na - nstar), 10 * tol * np.maximum(1.0, na)
        res_c, tol_c = np.abs(nu - na * na), 10 * tol * np.maximum(1.0, na * na)
        flagged = ~(res_star <= tol_star) | (mn < -0.1 * tol) | ~(res_c <= tol_c)
        for r in np.flatnonzero(flagged):
            where = f"{g} {label(g, keep, r)}"
            rep.check_residual(res_star[r], tol_star[r], "norm preserved by involution", where)
            if mn[r] < -tol:
                rep.add("a*a positive", where, residual=-float(mn[r]))
            elif mn[r] < -0.1 * tol:
                rep.note(f"borderline positivity at {where}: min eigenvalue {mn[r]:.3e}")
            rep.check_residual(res_c[r], tol_c[r], "C*-identity |a*a| = |a|^2", where)

    for g, h in pairs:
        gh = G.comp[(g, h)]
        # elements(h) is drawn afresh for each element of A_g, after that
        # element's own draw, as in a nested loop over lazy draws: first one
        # block for each basis element of A_g, then per random element t its
        # own normals and one block.  (A nonzero fibre draws the zero vector
        # with probability 0; a lazy loop would skip it and not draw the block
        # after it, here that block is drawn and dropped.)
        d, e = bundle.dims[g], bundle.dims[h]
        head = d * samples * 2 * e
        z = rng.standard_normal(head + samples * (2 * d + samples * 2 * e))
        tail = z[head:].reshape(samples, -1)
        rows_g, keep_g = elements(g, tail[:, :2 * d].reshape(1, samples, 2, d))
        rows_h, keep_h = elements(h, np.concatenate([
            z[:head].reshape(d, samples, 2, e), tail[:, 2 * d:].reshape(samples, samples, 2, e)]))
        keep_h &= keep_g[0][:, None]
        A, B = rows_g[keep_g], rows_h[keep_h]
        owner = np.repeat(np.arange(len(A)), keep_h.sum(axis=1)[keep_g[0]])
        lhs = bundle.fiber_norms(gh, np.einsum("kij,ri,rj->rk", mult[(g, h)], A[owner], B))
        bound = bundle.fiber_norms(g, A)[owner] * bundle.fiber_norms(h, B)
        for r in np.flatnonzero(lhs > bound + 10 * tol * np.maximum(1.0, bound)):
            rep.add("submultiplicativity",
                    f"({g} {label(g, keep_g, owner[r])}, {h} {label(h, keep_h, r)})",
                    residual=float(lhs[r] - bound[r]))

    # nondegeneracy: span(A_g A_{g^-1} A_g) = A_g, the products e_i e'_j e_k
    # of basis vectors of A_g, A_{g^-1}, A_g in (i, j, k) order
    for g in G.arrows:
        d = bundle.dims[g]
        if d == 0:
            continue
        gi = G.inv[g]
        u = G.unit[G.rng[g]]
        vecs = np.einsum("lmk,mij->ijkl", mult[(u, g)], mult[(g, gi)])
        span = la.orth_rows(vecs.reshape(d * dims[gi] * d, d), tols.rank_threshold)
        rep.require(span.shape[0] == d, "nondegeneracy A_g A_g* A_g = A_g", f"arrow {g}",
                    detail=f"span rank {span.shape[0]} of {d}")
    return rep


# -- derived fibre data --------------------------------------------------------

def range_source_ideals(bundle: FellBundle, g: str,
                        tols: Tolerances = DEFAULT) -> tuple[Array, Array, ValidationReport]:
    """Frames for span(A_g A_g*) in A_{u(r(g))} and span(A_g* A_g) in A_{u(s(g))}.

    Each is verified to be a two-sided ideal of its unit fibre algebra.
    """
    G = bundle.groupoid
    gi = G.inv[g]
    d = bundle.dims[g]
    r_vecs = [bundle.mult_coords(g, gi, ei(d, i), bundle.inv[g][:, j])
              for i in range(d) for j in range(d)]
    s_vecs = [bundle.star_mult_coords(g, ei(d, i), ei(d, j))
              for i in range(d) for j in range(d)]
    du_r = bundle.dims[G.unit[G.rng[g]]]
    du_s = bundle.dims[G.unit[G.src[g]]]
    rframe = la.orth_rows(np.array(r_vecs).reshape(-1, du_r) if r_vecs else np.zeros((0, du_r)),
                          tols.rank_threshold)
    sframe = la.orth_rows(np.array(s_vecs).reshape(-1, du_s) if s_vecs else np.zeros((0, du_s)),
                          tols.rank_threshold)
    rep = ValidationReport(f"range/source ideals at {g}")
    for side, frame, x in (("range", rframe, G.rng[g]), ("source", sframe, G.src[g])):
        u = G.unit[x]
        for i in range(bundle.dims[u]):
            for v in frame:
                left = bundle.mult_coords(u, u, ei(bundle.dims[u], i), v)
                right = bundle.mult_coords(u, u, v, ei(bundle.dims[u], i))
                for w, which in ((left, "left"), (right, "right")):
                    res = la.residual_in_span(frame, w)
                    rep.check_residual(res, tols.tolerance * max(1.0, float(np.linalg.norm(w))),
                                       f"{side} span is {which} ideal", f"{g}, unit basis {i}")
    return rframe, sframe, rep


def ei(d: int, i: int) -> Array:
    e = np.zeros(d, dtype=np.complex128)
    e[i] = 1.0
    return e


def saturation_check(bundle: FellBundle, tols: Tolerances = DEFAULT) -> dict[str, bool]:
    """True at g iff span(A_g A_{g^-1}) is the whole unit fibre at r(g)."""
    out = {}
    for g in bundle.groupoid.arrows:
        rframe, _, _ = range_source_ideals(bundle, g, tols)
        out[g] = rframe.shape[0] == bundle.dims[bundle.groupoid.unit[bundle.groupoid.rng[g]]]
    return out


# -- bundle homomorphisms --------------------------------------------------------

@dataclass(frozen=True)
class BundleHom:
    source: FellBundle
    target: FellBundle
    maps: Mapping[str, Array]  # per arrow, shape (d'_g, d_g)

    def apply(self, g: str, a: Array) -> Array:
        return la.as_complex(self.maps[g]) @ a

    @staticmethod
    def identity(bundle: FellBundle) -> "BundleHom":
        return BundleHom(bundle, bundle,
                         {g: np.eye(bundle.dims[g], dtype=np.complex128)
                          for g in bundle.groupoid.arrows})

    def compose(self, inner: "BundleHom") -> "BundleHom":
        """self after inner."""
        if inner.target is not self.source:
            raise ValueError("bundle homs not composable")
        return BundleHom(inner.source, self.target,
                         {g: la.as_complex(self.maps[g]) @ la.as_complex(inner.maps[g])
                          for g in self.source.groupoid.arrows})


def validate_bundle_hom(hom: BundleHom, tols: Tolerances = DEFAULT) -> ValidationReport:
    A, B = hom.source, hom.target
    if A.groupoid is not B.groupoid and A.groupoid.arrows != B.groupoid.arrows:
        raise ValueError("bundle hom requires a common base groupoid")
    G = A.groupoid
    tol = tols.tolerance
    rep = ValidationReport("bundle homomorphism")
    for g in G.arrows:
        t = la.as_complex(hom.maps[g])
        if t.shape != (B.dims[g], A.dims[g]):
            raise ValueError(f"hom at {g} has shape {t.shape}")
        gi = G.inv[g]
        lhs = la.as_complex(hom.maps[gi]) @ A.inv[g]
        rhs = B.inv[g] @ np.conj(t)
        rep.check_residual(float(np.linalg.norm(lhs - rhs)), tol * max(1.0, float(np.linalg.norm(lhs))),
                           "involution compatibility", f"arrow {g}")
    for g, h in composable_pairs(G):
        gh = G.comp[(g, h)]
        lhs = np.einsum("lk,kij->lij", la.as_complex(hom.maps[gh]), A.mult[(g, h)])
        rhs = np.einsum("lab,ai,bj->lij", B.mult[(g, h)], la.as_complex(hom.maps[g]),
                        la.as_complex(hom.maps[h]))
        rep.check_residual(float(np.linalg.norm(lhs - rhs)),
                           tol * max(1.0, float(np.linalg.norm(rhs))),
                           "multiplicativity", f"({g},{h})")
    return rep


def is_injective(hom: BundleHom, tols: Tolerances = DEFAULT) -> bool:
    """Injectivity is decided on unit fibres alone; the other fibres follow."""
    G = hom.source.groupoid
    for x in G.objects:
        u = G.unit[x]
        d = hom.source.dims[u]
        if d and la.matrix_rank(la.as_complex(hom.maps[u]), tols.rank_threshold) != d:
            return False
    return True


def is_surjective(hom: BundleHom, tols: Tolerances = DEFAULT) -> bool:
    for g in hom.source.groupoid.arrows:
        d = hom.target.dims[g]
        if d and la.matrix_rank(la.as_complex(hom.maps[g]), tols.rank_threshold) != d:
            return False
    return True


# -- subbundles ------------------------------------------------------------------

def subbundle_from_frames(bundle: FellBundle, frames: Mapping[str, Array],
                          name: str = "subbundle") -> tuple[FellBundle, BundleHom]:
    """Bundle structure on per-arrow subspaces, plus the inclusion hom.

    ``frames[g]`` must have orthonormal rows spanning a subspace of C^{d_g};
    the caller is responsible for the family being closed under the structure
    maps (validate the result otherwise).
    """
    G = bundle.groupoid
    dims = {g: frames[g].shape[0] for g in G.arrows}
    mult = {}
    for g, h in composable_pairs(G):
        gh = G.comp[(g, h)]
        raw = np.einsum("kij,ai,bj->kab", bundle.mult[(g, h)], frames[g], frames[h])
        mult[(g, h)] = np.einsum("lk,kab->lab", frames[gh].conj(), raw)
    inv = {g: frames[G.inv[g]].conj() @ bundle.inv[g] @ np.conj(frames[g]).T
           for g in G.arrows}
    unit_rep = {}
    for x in G.objects:
        u = G.unit[x]
        unit_rep[x] = np.einsum("ka,aij->kij", frames[u], bundle.unit_rep[x])
    sub = FellBundle(G, dims, mult, inv, unit_rep, name=name)
    incl = BundleHom(sub, bundle, {g: np.ascontiguousarray(frames[g].T) for g in G.arrows})
    return sub, incl
