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
        self._unit_coords: dict[str, Array] = {}
        self._plan: ConvolutionPlan | None = None
        self._star_mult: dict[str, Array] = {}
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

    def unit_algebra_unit(self, x: str) -> Array:
        """Coordinates of the unit of A_{u(x)} (cached)."""
        if x not in self._unit_coords:
            c = la.algebra_unit(self.unit_rep[x])
            if c is None:
                raise ValueError(f"unit fibre at {x} has no two-sided unit")
            self._unit_coords[x] = c
        return self._unit_coords[x]

    def star_mult_tensor(self, g: str) -> Array:
        """T with T[:, i, j] = coordinates of e_i^* . e_j in A_{u(s(g))}."""
        if g not in self._star_mult:
            gi = self.groupoid.inv[g]
            self._star_mult[g] = np.einsum("kaj,ai->kij", self.mult[(gi, g)], self.inv[g])
        return self._star_mult[g]

    def fiber_norm(self, g: str, a: Array) -> float:
        """sqrt of the top eigenvalue of rho_{s(g)}(a* a)."""
        a = la.as_complex(a)
        if a.size == 0:
            return 0.0
        s = np.einsum("kij,i,j->k", self.star_mult_tensor(g), np.conj(a), a)
        mat = self.unit_matrix(self.groupoid.src[g], s)
        return float(np.sqrt(max(la.top_eigenvalue(mat), 0.0)))

    def conv_plan(self) -> ConvolutionPlan:
        if self._plan is None:
            pairs = composable_pairs(self.groupoid)
            keys = [(g, h, self.groupoid.comp[(g, h)]) for g, h in pairs]
            tensors = [self.mult[(g, h)] for g, h in pairs]
            self._plan = ConvolutionPlan(self.offsets(), self.dims, self.total_dim,
                                         keys, tensors)
        return self._plan


def fiber_norm(bundle: FellBundle, g: str, a: Array) -> float:
    return bundle.fiber_norm(g, a)


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

def validate_fell_bundle(bundle: FellBundle, tols: Tolerances = DEFAULT,
                         samples: int = 4) -> ValidationReport:
    """Check the Fell bundle axioms with witnesses.

    Multilinear identities are verified exactly on structure tensors; the
    norm/positivity conditions additionally run on seeded random unit-norm
    elements (``samples`` per fibre pair).
    """
    G = bundle.groupoid
    tol = tols.tolerance
    rep = ValidationReport(f"fell bundle {bundle.name}")
    base = validate_groupoid(G)
    if not base.ok:
        rep.merge(base)
        return rep

    rng = np.random.default_rng(tols.seed)

    # associativity on composable triples
    for g, h, k in composable_triples(G):
        gh, hk = G.comp[(g, h)], G.comp[(h, k)]
        left = np.einsum("kml,mij->kijl", bundle.mult[(gh, k)], bundle.mult[(g, h)])
        right = np.einsum("kim,mjl->kijl", bundle.mult[(g, hk)], bundle.mult[(h, k)])
        res = float(np.linalg.norm(left - right))
        rep.check_residual(res, tol * max(1.0, float(np.linalg.norm(left))),
                           "associativity", f"({g},{h},{k})")

    # involution: (a*)* = a and (ab)* = b* a*
    for g in G.arrows:
        gi = G.inv[g]
        eye = bundle.inv[gi] @ np.conj(bundle.inv[g])
        res = float(np.linalg.norm(eye - np.eye(bundle.dims[g])))
        rep.check_residual(res, tol, "involution involutive", f"arrow {g}")
    for g, h in composable_pairs(G):
        gh = G.comp[(g, h)]
        gi, hi = G.inv[g], G.inv[h]
        d_g, d_h = bundle.dims[g], bundle.dims[h]
        if d_g == 0 or d_h == 0:
            continue
        lhs = np.einsum("lk,kij->lij", bundle.inv[gh], np.conj(bundle.mult[(g, h)]))
        rhs = np.einsum("kab,aj,bi->kij", bundle.mult[(hi, gi)], bundle.inv[h], bundle.inv[g])
        res = float(np.linalg.norm(lhs - rhs))
        rep.check_residual(res, tol * max(1.0, float(np.linalg.norm(lhs))),
                           "involution anti-multiplicative", f"({g},{h})")

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

    # norm axioms and positivity, on basis and seeded random elements
    def elements(g: str):
        d = bundle.dims[g]
        for i in range(d):
            e = np.zeros(d, dtype=np.complex128)
            e[i] = 1.0
            yield f"basis {i}", e
        for t in range(samples):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            n = np.linalg.norm(v)
            if n > 0:
                yield f"random {t}", v / n

    for g in G.arrows:
        x = G.src[g]
        for label, a in elements(g):
            na = bundle.fiber_norm(g, a)
            nstar = bundle.fiber_norm(G.inv[g], bundle.star_coords(g, a))
            rep.check_residual(abs(na - nstar), 10 * tol * max(1.0, na),
                               "norm preserved by involution", f"{g} {label}")
            s = np.einsum("kij,i,j->k", bundle.star_mult_tensor(g), np.conj(a), a)
            mat = bundle.unit_matrix(x, s)
            mn = la.min_eigenvalue(mat)
            if mn < -tol:
                rep.add("a*a positive", f"{g} {label}", residual=-mn)
            elif mn < -0.1 * tol:
                rep.note(f"borderline positivity at {g} {label}: min eigenvalue {mn:.3e}")
            nu = bundle.fiber_norm(G.unit[x], s)
            rep.check_residual(abs(nu - na * na), 10 * tol * max(1.0, na * na),
                               "C*-identity |a*a| = |a|^2", f"{g} {label}")

    for g, h in composable_pairs(G):
        if bundle.dims[g] == 0 or bundle.dims[h] == 0:
            continue
        gh = G.comp[(g, h)]
        for la_, a in elements(g):
            for lb, b in elements(h):
                prod = bundle.mult_coords(g, h, a, b)
                lhs = bundle.fiber_norm(gh, prod)
                bound = bundle.fiber_norm(g, a) * bundle.fiber_norm(h, b)
                if lhs > bound + 10 * tol * max(1.0, bound):
                    rep.add("submultiplicativity", f"({g} {la_}, {h} {lb})",
                            residual=lhs - bound)

    # nondegeneracy: span(A_g A_{g^-1} A_g) = A_g
    for g in G.arrows:
        d = bundle.dims[g]
        if d == 0:
            continue
        gi = G.inv[g]
        u = G.unit[G.rng[g]]
        vecs = []
        for i in range(d):
            for j in range(bundle.dims[gi]):
                pair = bundle.mult[(g, gi)][:, i, j]
                for k in range(d):
                    vecs.append(np.einsum("kij,i,j->k", bundle.mult[(u, g)], pair,
                                          np.eye(d, dtype=np.complex128)[k]))
        span = la.orth_rows(np.array(vecs).reshape(-1, d) if vecs else np.zeros((0, d)),
                            tols.rank_threshold)
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
    s_vecs = [np.einsum("kij,i,j->k", bundle.star_mult_tensor(g), ei(d, i).conj(), ei(d, j))
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
