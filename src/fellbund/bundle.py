"""Fell bundles over a finite groupoid.

A bundle stores, per arrow g, an abstract coefficient space C^{d_g} together
with structure tensors:

* ``mult[(g,h)]``: shape (d_gh, d_g, d_h), coefficients of e_i^g . e_j^h;
* ``inv[g]``: shape (d_{g^-1}, d_g), the antilinear involution as a complex
  matrix applied to the conjugated coordinate vector;
* ``unit_rep[x]``: stack (d_{u(x)}, n_x, n_x), a faithful *-representation of
  the unit fibre on C^{n_x}.  This is the norm oracle: the norm of a in A_g
  is sqrt(lambda_max(rho_{s(g)}(a* a))).  One core, ``FellBundle.norm_rows``,
  forms it (and the bottom of the spectrum) for every caller: the I-norm, the
  validator's norm axioms and ``fiber_norm``, a request of one element.

The matrix model (fibres given as subspaces of rectangular matrices, product
= matrix product, involution = conjugate transpose) is a constructor for this
structure, not a separate runtime representation.

The bundle owns the one copy of its structure tensors, read-only:
``mult_stacks`` per shape (d_gh, d_g, d_h) and ``inv_stacks`` per
(d_{g^-1}, d_g) (``la.Stacks``), with the ``mult``/``inv`` dicts as views.
``structure()`` puts them beside the groupoid's integer tables for the
validators, which gather their operands by index; the convolution plan, the
section involution and the delta table of ``reps`` read views of their groups.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from . import _linalg as la
from ._kernels import ConvolutionPlan
from .config import DEFAULT, Tolerances
from .groupoid import (FiniteGroupoid, GroupoidTables, composable_pairs, missing_composite,
                       trivial_group, validate_groupoid)
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
        into it); anything else is orthonormalised by SVD.  All are n x n."""
        mats = [la.as_complex(m) for m in mats]
        if bad := [m.shape for m in mats if m.shape != (n, n)]:
            raise ValueError(f"expected {n}x{n} matrices, got shape {bad[0]}")
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


def _owned(a) -> Array:
    """A read-only complex copy of ``a`` that the bundle alone holds."""
    return la.readonly(np.array(a, dtype=np.complex128, order="C"))


class FellBundle:
    def __init__(self, groupoid: FiniteGroupoid, dims: Mapping[str, int],
                 mult: Mapping[tuple[str, str], Array], inv: Mapping[str, Array],
                 unit_rep: Mapping[str, Array], *,
                 matrix_model: Mapping[str, Array] | None = None,
                 left_ideal_model: Mapping[str, Array] | None = None,
                 name: str = "bundle"):
        self.groupoid = groupoid
        self.dims = {g: int(dims[g]) for g in groupoid.arrows}
        # the one copy of the structure tensors; the dicts hold read-only views into it
        pairs = composable_pairs(groupoid)
        self.mult_stacks = la.Stacks([la.as_complex(mult[p]) for p in pairs])
        self.inv_stacks = la.Stacks([la.as_complex(inv[g]) for g in groupoid.arrows])
        self.mult = dict(zip(pairs, self.mult_stacks))
        self.inv = dict(zip(groupoid.arrows, self.inv_stacks))
        # the unit representations and the models are copied once, read-only
        self.unit_rep = {x: _owned(unit_rep[x]) for x in groupoid.objects}
        self.matrix_model = (None if matrix_model is None
                             else {g: _owned(m) for g, m in matrix_model.items()})
        self.left_ideal_model = (None if left_ideal_model is None
                                 else {g: _owned(m) for g, m in left_ideal_model.items()})
        self.name = name
        self._check_shapes()
        self._memo: dict[Hashable, Any] = {}

    def _check_shapes(self) -> None:
        G = self.groupoid
        if gap := missing_composite(G):
            raise ValueError("composable pair ({},{}) has no composite".format(*gap))
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

    def unit_dim(self, x: str) -> int:
        return int(self.unit_rep[x].shape[1])

    @property
    def total_dim(self) -> int:
        return self.memo("total_dim", lambda: sum(self.dims[g] for g in self.groupoid.arrows))

    def offsets(self) -> dict[str, int]:
        """Start of each fibre in the packed coefficient vector (cached and
        shared: callers do not mutate it)."""
        def build() -> dict[str, int]:
            out, pos = {}, 0
            for g in self.groupoid.arrows:
                out[g] = pos
                pos += self.dims[g]
            return out
        return self.memo("offsets", build)

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
        """Coordinates of the unit of A_{u(x)}: solved for every object on
        first use, by one ``la.algebra_units`` call (bit for bit the
        one-stack solve), and cached."""
        units = self.memo("units", lambda: dict(zip(self.groupoid.objects, la.algebra_units(
            la.Stacks([self.unit_rep[x] for x in self.groupoid.objects])))))
        if units[x] is None:
            raise ValueError(f"unit fibre at {x} has no two-sided unit")
        return units[x]

    def star_mult_tensor(self, g: str) -> Array:
        """T with T[:, i, j] = coordinates of e_i^* . e_j in A_{u(s(g))}; for
        d_g > 0 a read-only view into its ``norm_stacks`` group (cached)."""
        k, i = self._norm_index().get(g, (None, None))
        return self.memo(("star_mult", g), lambda: self._star_mult(g) if k is None
                         else self.norm_stacks()[k][1][i])

    def _star_mult(self, g: str) -> Array:
        return np.einsum("kaj,ai->kij", self.mult[(self.groupoid.inv[g], g)], self.inv[g])

    def star_mult_coords(self, g: str, a: Array, b: Array) -> Array:
        """Coordinates of a* . b in A_{u(s(g))}, for a, b in A_g."""
        return np.einsum("kij,i,j->k", self.star_mult_tensor(g), np.conj(a), b)

    def fiber_norm(self, g: str, a: Array) -> float:
        """The norm of a in A_g: ``norm_rows`` of the one row a."""
        return float(self.norm_rows([(g, la.as_complex(a)[None])])[0][0])

    def norm_rows(self, requests: list[tuple[str, Array]]) -> tuple[Array, Array]:
        """Per row a of the requests (g, rows (m, d_g)), in order: the fibre norm
        sqrt(lambda_max(rho_{s(g)}(a* a))) and the bottom eigenvalue of rho_{s(g)}(a* a),
        two arrays (0 where d_g or n_{s(g)} is 0), formed for a / 2^e, 2^e just above
        max |a|, and scaled back, so a* a neither overflows nor underflows.  The rows
        of one ``norm_stacks`` group take one einsum for their a* a coordinates, one
        batched (1, d_u) @ (d_u, n^2) product and one ``eigvalsh``, in chunks of at most
        la._STACK_CHUNK per-row stack elements.  A non-finite row raises ValueError naming its arrow."""
        index = self._norm_index()
        sizes = [len(rows) for _, rows in requests]
        ends = list(accumulate(sizes))
        members: dict[int, list[int]] = {}
        for r, (g, _) in enumerate(requests):
            if self.dims[g]:
                members.setdefault(index[g][0], []).append(r)
        norms, bottoms = np.zeros(sum(sizes)), np.zeros(sum(sizes))
        for k, rs in members.items():
            A = np.concatenate([requests[r][1] for r in rs], dtype=np.complex128)
            at = [index[requests[r][0]][1] for r in rs]
            # no gather when the rows are the group's arrows in order
            group = len(self.norm_stacks()[k][0])
            whole = len(A) == group and at == list(range(group))
            place = None if len(A) == len(norms) else np.concatenate(
                [np.arange(ends[r] - sizes[r], ends[r]) for r in rs])
            self._group_norms(k, A, None if whole else np.repeat(at, [sizes[r] for r in rs]),
                              norms, bottoms, place)
        return norms, bottoms

    def _group_norms(self, k: int, A: Array, at: Array | None, norms: Array,
                     bottoms: Array | None, place: Array | None = None) -> None:
        """``norm_rows`` of the rows A (m, d) of the k-th ``norm_stacks`` group,
        row i an element of the fibre at the group's arrow at[i], written to
        ``norms[place[i]]`` and ``bottoms[place[i]]`` (``place=None``: to
        position i; ``bottoms=None``: norms only), which are left as they are
        where n_{s(g)} is 0; ``at=None`` when the rows are the group's arrows
        in order, whose stacked tensors are then sliced, not gathered."""
        arrows, tensors, reps = self.norm_stacks()[k]
        d, du, n = tensors.shape[-1], reps.shape[1], reps.shape[-1]
        # per row: the row, its tensor and representation, a* a, n x n matrices
        step = max(1, la._STACK_CHUNK // (d + du * (d * d + n * n + 1) + 4 * n * n))
        for c in range(0, len(A), step):
            C, p = A[c:c + step], (slice(c, c + step) if at is None else at[c:c + step])
            top = np.abs(C.view(np.float64)).max(axis=1)  # as in ``_exponents``
            if not (biggest := top.max()) < np.inf:  # an inf, or a NaN (fails every <)
                bad = c + np.flatnonzero(~np.isfinite(top))[0]
                raise ValueError("non-finite fibre element at arrow "
                                 f"{arrows[bad if at is None else at[bad]]}")
            if n == 0:
                continue
            e = np.frexp(top)[1]
            C = _ldexp(C, -e[:, None])
            coords = np.einsum("mkij,mi,mj->mk", tensors[p], np.conj(C), C)
            # per row one (1, d_u) @ (d_u, n^2) product; for n = 1 the real part is the eigenvalue
            mats = np.matmul(coords[:, None], reps[p].reshape(len(C), du, n * n))
            spectra = mats.real.reshape(len(C), 1) if n == 1 else \
                np.linalg.eigvalsh(la.hermitian_part(mats.reshape(len(C), n, n)))
            out = slice(c, c + step) if place is None else place[c:c + step]
            norms[out] = np.ldexp(np.sqrt(np.maximum(spectra[:, -1], 0.0)), e)
            if bottoms is None:
                continue
            # the bottom of a* a for a row above 2^256 may exceed the float range
            with np.errstate(over="ignore") if biggest > 2.0 ** 256 else nullcontext():
                bottoms[out] = np.ldexp(spectra[:, 0], 2 * e)

    def _norm_index(self) -> dict[str, tuple[int, int]]:
        """Per arrow with d_g > 0, its ``norm_stacks`` group and place (cached)."""
        return self.memo("norm_index", lambda: {
            g: (k, i) for k, (arrows, _, _) in enumerate(self.norm_stacks())
            for i, g in enumerate(arrows)})

    def structure(self) -> "Structure":
        """The structure tensors with the groupoid's tables (cached, read-only)."""
        return self.memo("structure", lambda: Structure.of(self))

    def norm_stacks(self) -> list[tuple[list[str], Array, Array]]:
        """The arrows with a nonzero fibre, grouped by the shapes (d_g,
        d_{u(s(g))}, n_{s(g)}) in declared arrow order, each group with its
        ``star_mult_tensor``s (A, d_u, d_g, d_g) and the unit representations
        at the sources (A, d_u, n, n) stacked, for ``norm_rows``."""
        def build() -> list:
            G = self.groupoid
            groups: dict[tuple[int, ...], list[str]] = {}
            for g in G.arrows:
                if self.dims[g]:
                    shape = (self.dims[g],) + self.unit_rep[G.src[g]].shape[:2]
                    groups.setdefault(shape, []).append(g)
            return [(arrows, la.readonly(np.array([self._star_mult(g) for g in arrows])),
                     np.array([self.unit_rep[G.src[g]] for g in arrows]))
                    for arrows in groups.values()]
        return self.memo("norm_stacks", build)

    def conv_plan(self) -> ConvolutionPlan:
        T = self.groupoid.tables
        return self.memo("conv_plan", lambda: ConvolutionPlan(
            T.pairs, T.comp, np.fromiter(self.dims.values(), dtype=np.intp), self.mult_stacks))


class Structure(NamedTuple):
    """The structure tensors of a bundle stacked once per shape, read-only,
    with the groupoid's integer tables, for the validators to gather by index."""

    tables: GroupoidTables
    dims: Array       # (n,) d_g in arrow order
    mult: la.Stacks   # mult[(g, h)] per composable pair, in ``tables.pairs`` order
    inv: la.Stacks    # inv[g] per arrow
    family: Array     # (n, 3) the pairs (u_{r(g)}, g), (g, u_{s(g)}), (g u_{s(g)}, g^-1)
    arrows: tuple[str, ...]  # the arrow names, in order, for witnesses

    @staticmethod
    def of(bundle: FellBundle) -> "Structure":
        T = bundle.groupoid.tables
        g = np.arange(len(T.src))
        us, dims = T.unit[T.src], la.readonly(np.fromiter(bundle.dims.values(), dtype=np.intp))
        gus = T.comp[g, us]
        family = la.readonly(np.stack([T.pair[T.unit[T.rng], g], T.pair[g, us],
                                       np.where(gus >= 0, T.pair[gus, T.inv], -1)], axis=1))
        if (family < 0).any():
            raise ValueError("a unit or inverse composite is off the composable pairs")
        return Structure(T, dims, bundle.mult_stacks, bundle.inv_stacks, family,
                         tuple(bundle.groupoid.arrows))

    @staticmethod
    def unit_fibre(bundle: FellBundle, x: str) -> "Structure":
        """The unit fibre A_{u(x)} as a bundle over the trivial group: its one
        arrow, named u(x), carries ``mult[(u, u)]`` and ``inv[u]``."""
        u = bundle.groupoid.unit[x]
        return Structure(_point_tables(), la.readonly(np.array([bundle.dims[u]], dtype=np.intp)),
                         la.Stacks([bundle.mult[(u, u)]]), la.Stacks([bundle.inv[u]]),
                         _POINT_FAMILY, (u,))


@cache
def _point_tables() -> GroupoidTables:
    return trivial_group().tables


_POINT_FAMILY = la.readonly(np.zeros((1, 3), dtype=np.intp))


def _exponents(A: Array) -> Array:
    """Per vector (last axis) of the complex ``A``, the exponent e with
    max(|Re|, |Im|) in [2^(e-1), 2^e); 0 for a zero vector.  Dividing by 2^e
    is exact."""
    parts = np.ascontiguousarray(A).view(np.float64)
    return np.frexp(np.abs(parts).max(axis=-1, initial=0.0))[1]


def _ldexp(A: Array, e) -> Array:
    """A · 2^e for a complex array (e broadcast against A), exact down to
    the subnormals."""
    return np.ldexp(np.ascontiguousarray(A).view(np.float64), e).view(np.complex128)


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
        # with an inf, orth_rows keeps no direction (s > rtol * inf fails) and
        # the fibre silently becomes zero; a NaN breaks the SVD.  One pass finds
        # the first matrix with a non-finite entry, reported where a loop over
        # the matrices would have reached it
        flat = [m for mats in raw.values() for m in mats]
        bad = len(flat)
        if flat and not np.isfinite(entries := np.concatenate(flat, axis=None)).all():
            ends = np.cumsum([m.size for m in flat])
            bad = int(np.searchsorted(ends, np.flatnonzero(~np.isfinite(entries))[0], "right"))
        dims: dict[str, int] = dict(obj_dims or {})
        at = 0
        for g, mats in raw.items():
            for m in mats:
                if at == bad:
                    raise ValueError(f"non-finite entry in a matrix of the fibre at arrow {g}")
                at += 1
                r, s = groupoid.rng[g], groupoid.src[g]
                for obj, size in ((r, m.shape[0]), (s, m.shape[1])):
                    if dims.setdefault(obj, size) != size:
                        raise ValueError(f"inconsistent matrix size at object {obj}")
        for x in groupoid.objects:
            if x not in dims:
                raise ValueError(f"cannot infer matrix size at object {x}; pass obj_dims")
        self.obj_dims = dims
        # HS-orthonormalised as ``la.stack_orth`` does it, the fibres of one
        # shape by one stacked SVD
        shape = {g: (dims[groupoid.rng[g]], dims[groupoid.src[g]]) for g in groupoid.arrows}
        self.fibers = {g: np.zeros((0, *shape[g]), dtype=np.complex128) for g in groupoid.arrows}
        live = [g for g in groupoid.arrows if raw[g]]
        vectors = la.Stacks([np.array(raw[g]).reshape(len(raw[g]), math.prod(shape[g]))
                             for g in live])
        for g, (vh, rank) in zip(live, la.stacked(
                [(vectors, np.arange(len(live)))], lambda v: la.stacked_orth_rows(v, rtol))):
            self.fibers[g] = np.ascontiguousarray(vh[:rank]).reshape(rank, *shape[g])

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

    def to_fell_bundle(self, name: str = "matrix bundle") -> FellBundle:
        """Structure tensors from the matrix model, one stacked pass per
        shape: for the composable pairs (g, h) whose fibres at g, h and gh
        share their shapes, the products of all basis pairs by one batched
        matmul, and their coefficients in the HS-orthonormal composite fibre
        by one batched matrix-vector product per product, as ``la.stack_expand``
        forms it (in chunks of at most la._STACK_CHUNK elements of products, one
        pair at least); the involution the same way from the adjoints."""
        G = self.groupoid
        T = G.tables
        dims = {g: self.dims(g) for g in G.arrows}
        pairs = composable_pairs(G)
        if gap := missing_composite(G):
            raise ValueError("composable pair ({},{}) has no composite".format(*gap))
        g, h = T.pairs[:, 0], T.pairs[:, 1]
        gh = T.comp[g, h]
        fibers = la.Stacks(list(self.fibers.values()))
        mult: list = [None] * len(pairs)
        # size: the (d_g, d_h, n_{r(g)}, n_{s(h)}) products
        for chunk, (A, B, C) in la.gathered(
                [(fibers, g), (fibers, h), (fibers, gh)],
                lambda s: s[0][0] * s[1][0] * s[2][1] * s[2][2]):
            t, dg, dh, (dgh, n, m) = len(chunk), A.shape[1], B.shape[1], C.shape[1:]
            prods = np.matmul(A[:, :, None], B[:, None]).reshape(t, dg, dh, n * m, 1)
            coeff = _expand(C.reshape(t, 1, 1, dgh, n * m), prods)
            for p, tensor in zip(chunk, np.ascontiguousarray(coeff.transpose(0, 3, 1, 2))):
                mult[p] = tensor
        inv: list = [None] * len(G.arrows)
        # size: the (d_g, n_{s(g)}, n_{r(g)}) adjoints
        for chunk, (A, C) in la.gathered([(fibers, np.arange(len(G.arrows))), (fibers, T.inv)],
                                         lambda s: math.prod(s[0])):
            t, d, (di, n, m) = len(chunk), A.shape[1], C.shape[1:]
            adjoints = np.conj(A).transpose(0, 1, 3, 2).reshape(t, d, n * m, 1)
            coeff = _expand(C.reshape(t, 1, di, n * m), adjoints)
            for a, tensor in zip(chunk, np.ascontiguousarray(coeff.transpose(0, 2, 1))):
                inv[a] = tensor
        unit_rep = {x: self.fibers[G.unit[x]] for x in G.objects}
        return FellBundle(G, dims, dict(zip(pairs, mult)), dict(zip(G.arrows, inv)), unit_rep,
                          matrix_model=self.fibers, name=name)


def _expand(flat: Array, mats: Array) -> Array:
    """Coefficients (..., d) of the flattened matrices ``mats`` (..., N, 1)
    in the HS-orthonormal rows ``flat`` (..., d, N), broadcast against each
    other: one matrix-vector product per matrix, as ``la.stack_expand``
    forms it."""
    return np.matmul(flat.conj(), mats)[..., 0]


# -- validator -----------------------------------------------------------------


def validate_fell_bundle(bundle: FellBundle, tols: Tolerances = DEFAULT,
                         samples: int = 4) -> ValidationReport:
    """Check the Fell bundle axioms with witnesses.

    Multilinear identities are verified exactly on structure tensors; the
    norm/positivity conditions additionally run on seeded random unit-norm
    elements (``samples`` per fibre pair).  The identities gather their
    operands by index from ``bundle.structure()`` and the groupoid's tables,
    one stacked call per group of triples or pairs with equal tensor shapes;
    every check reports its violations in the order of the loops it replaces.
    """
    G = bundle.groupoid
    tol = tols.tolerance
    rep = ValidationReport(f"fell bundle {bundle.name}")
    base = validate_groupoid(G)
    if not base.ok:
        rep.merge(base)
        return rep

    rng = np.random.default_rng(tols.seed)
    T, S, arrows = G.tables, bundle.structure(), G.arrows

    _associativity(rep, tol, S, arrows)

    # involution: (a*)* = a and (ab)* = b* a*
    for g in G.arrows:
        gi = G.inv[g]
        eye = bundle.inv[gi] @ np.conj(bundle.inv[g])
        res = float(np.linalg.norm(eye - np.eye(bundle.dims[g])))
        rep.check_residual(res, tol, "involution involutive", f"arrow {g}")
    # the composable pairs with both fibres nonzero, by position in T.pairs
    live = np.flatnonzero((S.dims[T.pairs[:, 0]] > 0) & (S.dims[T.pairs[:, 1]] > 0))
    g, h = T.pairs[live, 0], T.pairs[live, 1]
    # size: the (d_{(gh)^-1}, d_g, d_h) products
    _gathered_check(rep, tol, "involution anti-multiplicative",
                    [(S.inv, T.comp[g, h]), (S.mult, live), (S.mult, T.pair[T.inv[h], T.inv[g]]),
                     (S.inv, h), (S.inv, g)],
                    lambda s: s[0][0] * s[1][1] * s[1][2],
                    _star_of_product, _product_of_stars,
                    lambda p: f"({arrows[g[p]]},{arrows[h[p]]})")

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

    _norm_checks(rep, tol, bundle, S, live, rng, samples)

    _nondegeneracy(rep, tols.rank_threshold, S, arrows)
    return rep


def _star_of_product(j_gh: Array, m_gh: Array, *_) -> Array:
    """(e_i e_j)* per pair (t, l, i, j): inv[gh] after conj(mult[(g, h)])."""
    (t, l, k), (i, j) = j_gh.shape, m_gh.shape[2:]
    return np.matmul(j_gh, np.conj(m_gh).reshape(t, k, i * j)).reshape(t, l, i, j)


def _product_of_stars(_, __, m_hg: Array, j_h: Array, j_g: Array) -> Array:
    """e_j* e_i* per pair (t, k, i, j): (j_h^T M_k) j_g for each coordinate k
    of M = mult[(h^-1, g^-1)], transposed."""
    prods = np.matmul(np.matmul(np.swapaxes(j_h, 1, 2)[:, None], m_hg), j_g[:, None])
    return np.swapaxes(prods, 2, 3)


def _nondegeneracy(rep: ValidationReport, rtol: float, S: Structure,
                   arrows: tuple[str, ...]) -> None:
    """span(A_g A_{g^-1} A_g) = A_g for every arrow with d_g > 0: the
    products e_i e'_j e_k of basis vectors of A_g, A_{g^-1}, A_g in (i, j, k)
    order, mult[(g, g^-1)] then mult[(u_{r(g)}, g)], as one matmul and their
    ranks by one ``la.stacked_orth_rows`` per group of arrows with equal
    shapes; reported in arrow order."""
    T = S.tables
    live = np.flatnonzero(S.dims > 0)
    rank = np.zeros(len(arrows), dtype=np.intp)
    # size: the (d_g d_{g^-1} d_g, d_g) products
    for chunk, (ug, ggi) in la.gathered([(S.mult, T.pair[T.unit[T.rng[live]], live]),
                                        (S.mult, T.pair[live, T.inv[live]])],
                                       lambda s: s[1][1] * s[1][2] * s[0][0] ** 2):
        t, (d, m, _), di = len(chunk), ug.shape[1:], ggi.shape[3]
        vecs = np.matmul(np.swapaxes(ggi.reshape(t, m, d * di), 1, 2),
                         ug.transpose(0, 2, 3, 1).reshape(t, m, d * d))
        rank[live[chunk]] = la.stacked_orth_rows(vecs.reshape(t, d * di * d, d), rtol)[1]
    for a in live:
        rep.require(rank[a] == S.dims[a], "nondegeneracy A_g A_g* A_g = A_g", f"arrow {arrows[a]}",
                    detail=f"span rank {rank[a]} of {S.dims[a]}")


def _associativity(rep: ValidationReport, tol: float, S: Structure,
                   arrows: tuple[str, ...]) -> None:
    """Associativity on the composable triples (g, h, k): mult[(gh, k)] after
    mult[(g, h)] against mult[(g, hk)] after mult[(h, k)]; size: the
    (d_ghk, d_g, d_h, d_k) products."""
    T = S.tables
    triples = T.triples()
    g, h, k = triples.T
    _gathered_check(rep, tol, "associativity",
                    [(S.mult, T.pair[T.comp[g, h], k]), (S.mult, T.pair[g, h]),
                     (S.mult, T.pair[g, T.comp[h, k]]), (S.mult, T.pair[h, k])],
                    lambda s: s[0][0] * s[1][1] * s[1][2] * s[0][2],
                    _left_bracketed, _right_bracketed,
                    lambda t: "({},{},{})".format(*[arrows[i] for i in triples[t]]))


def _left_bracketed(lk: Array, gh: Array, *_) -> Array:
    """(e_i e_j) e_l per triple (t, k, i, j, l): mult[(gh, k)] after mult[(g, h)]."""
    (t, k, m, l), (i, j) = lk.shape, gh.shape[2:]
    return np.matmul(np.swapaxes(gh.reshape(t, 1, m, i * j), 2, 3), lk).reshape(t, k, i, j, l)


def _right_bracketed(_, __, gk: Array, hk: Array) -> Array:
    """e_i (e_j e_l) per triple (t, k, i, j, l): mult[(g, hk)] after mult[(h, k)]."""
    (t, k, i, m), (j, l) = gk.shape, hk.shape[2:]
    return np.matmul(gk.reshape(t, k * i, m), hk.reshape(t, m, j * l)).reshape(t, k, i, j, l)


def _gathered_check(rep: ValidationReport, tol: float, check: str,
                    operands: list[tuple[la.Stacks, Array]], size: Callable[[tuple], int],
                    left: Callable[..., Array], right: Callable[..., Array],
                    where: Callable[[int], str]) -> None:
    """Reports ``check`` at ``where(t)``, in item order, for the items t with
    |left - right| > tol max(1, |left|), both formed from the operands of the
    items gathered by ``la.gathered``."""
    res, scale = np.zeros(len(operands[0][1])), np.zeros(len(operands[0][1]))
    for chunk, arrays in la.gathered(operands, size):
        lhs = left(*arrays)
        scale[chunk] = la.row_norms(lhs)
        lhs -= right(*arrays)
        res[chunk] = la.row_norms(lhs)
    for t in np.flatnonzero(~(res <= tol * np.maximum(1.0, scale))):
        rep.check_residual(res[t], tol * max(1.0, float(scale[t])), check, where(t))


# A random element t of A_g is rng.standard_normal(d) + 1j * rng.standard_normal(d),
# normalised, and dropped if zero (d = 0).  Successive draws concatenate, so the
# normals of all draws of one phase come from one standard_normal call, cut per
# draw; the elements are formed per group of equal dimensions.

def _elements(d: int, z: Array) -> tuple[Array, Array]:
    """Rows (blocks, d + samples, d) of the basis and the random unit elements
    of a fibre of dimension d, one block per row of the normals ``z`` (blocks,
    samples, 2, d); and the mask of the elements kept (nonzero ones)."""
    blocks, samples = z.shape[:2]
    v = z[:, :, 0] + 1j * z[:, :, 1]
    n = la.row_norms(v.reshape(blocks * samples, d)).reshape(blocks, samples)
    rows = np.empty((blocks, d + samples, d), dtype=np.complex128)
    rows[:, :d] = np.eye(d)
    rows[:, d:] = v / np.where(n > 0, n, 1.0)[:, :, None]
    keep = np.ones((blocks, d + samples), dtype=bool)
    keep[:, d:] = n > 0
    return rows, keep


def _draws(rng: np.random.Generator, lengths: Array) -> Callable[[Array], Array]:
    """One standard_normal call for draws of the given lengths, in order;
    returns the function giving the normals (m, length) of the draws of equal
    length at the positions ``at``."""
    z = rng.standard_normal(int(lengths.sum()))
    start = np.cumsum(lengths) - lengths
    return lambda at: z[start[at][:, None] + np.arange(lengths[at[0]])]


def _arrow_elements(dims: Array, rng: np.random.Generator,
                    samples: int) -> tuple[list[Array], list[Array]]:
    """Per arrow, in order: its kept elements (m, d_g) and the mask (d_g +
    samples,) they were kept by; the arrows draw in declared order."""
    normals = _draws(rng, samples * 2 * dims)
    E: list = [None] * len(dims)
    keeps: list = [None] * len(dims)
    for d in dict.fromkeys(dims.tolist()):
        at = np.flatnonzero(dims == d)
        rows, keep = _elements(d, normals(at).reshape(len(at), samples, 2, d))
        for i, r, m in zip(at, rows, keep):
            E[i], keeps[i] = r[m], m
    return E, keeps


def _norm_checks(rep: ValidationReport, tol: float, bundle: FellBundle, S: Structure,
                 live: Array, rng: np.random.Generator, samples: int) -> None:
    """The norm axioms and positivity, on basis and seeded random elements:
    per arrow, the involution keeps the norm, a* a is positive and |a* a| =
    |a|^2; per live pair (``live``: the places in ``tables.pairs`` of the
    pairs with both fibres nonzero), |ab| <= |a| |b|.  Two norm-core calls,
    the rows of the pair phase one request per arrow; the flagged rows are
    reported in the order of the element-at-a-time loops."""
    G, arrows = bundle.groupoid, bundle.groupoid.arrows
    g, h = S.tables.pairs[live, 0], S.tables.pairs[live, 1]
    E, keeps = _arrow_elements(S.dims, rng, samples)
    counts = np.array([len(e) for e in E], dtype=np.intp)
    first = np.cumsum(counts) - counts
    # the elements and their stars (a* row by row as ``star_coords`` forms it)
    requests = list(zip(arrows, E)) + [
        (G.inv[a], np.matmul(bundle.inv[a], np.conj(e)[:, :, None])[:, :, 0])
        for a, e in zip(arrows, E)]

    def ask(of: Array, rows: Array) -> Array:
        """Queues the rows, row i in the fibre at arrow of[i], one request per
        arrow; returns the rows' places in the norm core's output."""
        order, at = np.argsort(of, kind="stable"), np.empty(len(of), dtype=np.intp)
        at[order] = sum(len(r) for _, r in requests) + np.arange(len(of))
        for part in np.split(order, np.flatnonzero(np.diff(of[order])) + 1):
            if len(part):
                requests.append((arrows[of[part[0]]], rows[part]))
        return at

    groups = [_pair_rows(S, live, first, *group, ask)
              for group in _pair_elements(S, live, rng, samples)]
    norms, mins = bundle.norm_rows(requests)
    units = bundle.norm_rows([(G.unit[G.src[a]], np.einsum(
        "kij,mi,mj->mk", bundle.star_mult_tensor(a), np.conj(e), e))
        for a, e in zip(arrows, E)])[0]

    def label(a: str, keep: Array, r: int) -> str:
        """Label of the r-th kept element of ``keep`` for A_a."""
        i = int(np.flatnonzero(keep)[r]) % keep.shape[-1]
        return f"basis {i}" if i < bundle.dims[a] else f"random {i - bundle.dims[a]}"

    n = int(counts.sum())
    na, mn, nstar = norms[:n], mins[:n], norms[n:2 * n]
    res_star, tol_star = np.abs(na - nstar), 10 * tol * np.maximum(1.0, na)
    res_c, tol_c = np.abs(units - na * na), 10 * tol * np.maximum(1.0, na * na)
    flagged = ~(res_star <= tol_star) | (mn < -0.1 * tol) | ~(res_c <= tol_c)
    of = np.repeat(np.arange(len(E)), counts)
    for row in np.flatnonzero(flagged):
        i = of[row]
        where = f"{arrows[i]} {label(arrows[i], keeps[i], row - first[i])}"
        rep.check_residual(res_star[row], tol_star[row], "norm preserved by involution", where)
        if mn[row] < -tol:
            rep.add("a*a positive", where, residual=-float(mn[row]))
        elif mn[row] < -0.1 * tol:
            rep.note(f"borderline positivity at {where}: min eigenvalue {mn[row]:.3e}")
        rep.check_residual(res_c[row], tol_c[row], "C*-identity |a*a| = |a|^2", where)
    failing = []  # (pair, row of its b, group, row in the group, residual)
    for k, grp in enumerate(groups):
        lhs, bound = norms[grp.prods], norms[grp.a][grp.owner] * norms[grp.b]
        rows = np.flatnonzero(lhs > bound + 10 * tol * np.maximum(1.0, bound))
        q = np.repeat(np.arange(len(grp.at)), grp.per_b)[rows]
        failing += zip(grp.at[q].tolist(), (rows - (np.cumsum(grp.per_b) - grp.per_b)[q]).tolist(),
                       [k] * len(rows), rows.tolist(), (lhs - bound)[rows].tolist())
    for pos, r, k, row, res in sorted(failing):
        grp = groups[k]
        q = int(np.searchsorted(grp.at, pos))
        own = grp.owner[row] - (np.cumsum(grp.per_a) - grp.per_a)[q]
        a, b = arrows[g[pos]], arrows[h[pos]]
        rep.add("submultiplicativity",
                f"({a} {label(a, grp.keep_g[q], own)}, {b} {label(b, grp.keep_h[q], r)})",
                residual=res)


class _PairRows(NamedTuple):
    """One group of ``_pair_elements`` at the norm core."""

    at: Array      # the pairs' places in ``live``, ascending
    keep_g: Array  # (m, d_g + samples): the kept elements of A_g
    keep_h: Array  # (m, d_g + samples, d_h + samples): the kept elements of A_h
    per_a: Array   # (m,) kept elements of A_g per pair
    per_b: Array   # (m,) kept elements of A_h per pair
    owner: Array   # per kept b, in pair order, the row of its own a in the group
    prods: Array   # the places in the norm core's output of the products a b,
    a: Array       # of the a
    b: Array       # and of the b, each in pair order


def _pair_rows(S: Structure, live: Array, first: Array, at: Array, rows_g: Array,
               keep_g: Array, rows_h: Array, keep_h: Array,
               ask: Callable[[Array, Array], Array]) -> _PairRows:
    """The norm-core rows of one group of ``_pair_elements``: the products a b
    of each kept b with its own a (one einsum, per pair as "kij,ri,rj->rk"),
    queued with ``ask``, and the kept a and b, each kind in pair order.  The
    random a and b are queued too; a basis element of A_g reads the row of
    the arrow's own elements (of A_g from ``first[g]`` on), whose norm is
    the same."""
    m, w, d = rows_g.shape
    e = rows_h.shape[-1]
    p = live[at]
    g, h = S.tables.pairs[p, 0], S.tables.pairs[p, 1]
    kept = keep_h.reshape(m, -1)
    per_a, per_b = keep_g.sum(axis=1), kept.sum(axis=1)
    M = S.mult.arrays[S.mult.group[p[0]]][S.mult.row[p]]
    prods = np.einsum("tkij,tri,trj->trk", M, np.broadcast_to(
        rows_g[:, :, None], rows_h.shape[:3] + (d,)).reshape(m, -1, d), rows_h.reshape(m, -1, e))
    owner = np.broadcast_to((np.cumsum(keep_g) - 1).reshape(m, w)[:, :, None], keep_h.shape)

    def places(of: Array, rows: Array, keep: Array, d: int) -> Array:
        """The places of the kept rows (elements of A_{of}), basis ones read."""
        i = np.broadcast_to(np.arange(keep.shape[-1]), keep.shape)[keep]
        out = first[of] + i
        out[i >= d] = ask(of[i >= d], rows[i >= d])
        return out
    a = places(np.repeat(g, per_a), rows_g[keep_g], keep_g, d)
    b = places(np.repeat(h, per_b), rows_h.reshape(m, -1, e)[kept], keep_h, e)
    return _PairRows(at, keep_g, keep_h, per_a, per_b, owner[keep_h],
                     ask(np.repeat(S.tables.comp[g, h], per_b), prods[kept]), a, b)


def _pair_elements(S: Structure, live: Array, rng: np.random.Generator,
                   samples: int) -> Iterator[tuple[Array, ...]]:
    """The elements of the composable pairs (g, h) at the positions ``live``
    of ``tables.pairs``, per group of pairs with equal mult shapes: the
    pairs' places in ``live`` (ascending), the basis and random elements of
    A_g (m, d_g + samples, d_g) with their masks, and per element of A_g its
    own block of elements of A_h (m, d_g + samples, d_h + samples, d_h) with
    the masks (a block of a dropped element of A_g is dropped too).

    As in a nested loop over lazy draws, the elements of A_h are drawn afresh
    for each element of A_g, after that element's own draw: first one block
    for each basis element of A_g, then per random element its own normals
    and one block.  (A nonzero fibre draws the zero vector with probability
    0; a lazy loop would skip it and not draw the block after it, here that
    block is drawn and dropped.)"""
    pairs = S.tables.pairs[live]
    dg, dh = S.dims[pairs[:, 0]], S.dims[pairs[:, 1]]
    head = dg * samples * 2 * dh
    normals = _draws(rng, head + samples * (2 * dg + samples * 2 * dh))
    group = S.mult.group[live]
    for k in dict.fromkeys(group.tolist()):
        at = np.flatnonzero(group == k)
        m, d, e, z = len(at), int(dg[at[0]]), int(dh[at[0]]), normals(at)
        tail = z[:, head[at[0]]:].reshape(m, samples, -1)
        rows_g, keep_g = _elements(d, tail[:, :, :2 * d].reshape(m, samples, 2, d))
        rows_h, keep_h = _elements(e, np.concatenate([
            z[:, :head[at[0]]].reshape(m, d, samples, 2, e),
            tail[:, :, 2 * d:].reshape(m, samples, samples, 2, e)], axis=1).reshape(
                m * (d + samples), samples, 2, e))
        yield (at, rows_g, keep_g, rows_h.reshape(m, d + samples, e + samples, e),
               keep_h.reshape(m, d + samples, e + samples) & keep_g[:, :, None])


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

def compressed_structure(bundle: FellBundle, frames: Mapping[str, Array]) -> tuple[dict, ...]:
    """Fibre dimensions, ``mult`` and ``inv`` compressed to the spans of the
    orthonormal rows ``frames[g]``: the projection of sub-bundles and quotients."""
    G = bundle.groupoid
    dims = {g: frames[g].shape[0] for g in G.arrows}
    mult = {}
    for g, h in composable_pairs(G):
        gh = G.comp[(g, h)]
        raw = np.einsum("kij,ai,bj->kab", bundle.mult[(g, h)], frames[g], frames[h])
        mult[(g, h)] = np.einsum("lk,kab->lab", frames[gh].conj(), raw)
    inv = {g: frames[G.inv[g]].conj() @ bundle.inv[g] @ np.conj(frames[g]).T
           for g in G.arrows}
    return dims, mult, inv


def subbundle_from_frames(bundle: FellBundle, frames: Mapping[str, Array],
                          name: str = "subbundle") -> tuple[FellBundle, BundleHom]:
    """Bundle structure on per-arrow subspaces, plus the inclusion hom.

    ``frames[g]`` must have orthonormal rows spanning a subspace of C^{d_g};
    the caller is responsible for the family being closed under the structure
    maps (validate the result otherwise).
    """
    G = bundle.groupoid
    dims, mult, inv = compressed_structure(bundle, frames)
    unit_rep = {}
    for x in G.objects:
        u = G.unit[x]
        unit_rep[x] = np.einsum("ka,aij->kij", frames[u], bundle.unit_rep[x])
    sub = FellBundle(G, dims, mult, inv, unit_rep, name=name)
    incl = BundleHom(sub, bundle, {g: np.ascontiguousarray(frames[g].T) for g in G.arrows})
    return sub, incl
