"""Fell ideals, hereditary subbundles, quotients, split extensions, exactness.

A Fell ideal assigns to each arrow a subspace I_g of the fibre absorbing
multiplication on both sides; these are in bijection with invariant families
of unit-fibre ideals (F_x = I at the unit arrow, I_g = F_{r(g)} . A_g).
Quotient fibres are realised as orthogonal complements with projected
structure tensors, so all downstream numerics reuse the same machinery, and
the quotient hom is the orthogonal projection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import _linalg as la
from .bundle import BundleHom, FellBundle, ei, subbundle_from_frames, validate_bundle_hom
from .config import DEFAULT, Tolerances
# block_decomposition is not called here; the name stays bound because
# perfbench's tracer test reads it from this module
from .envelope import block_decomposition, envelope_algebra  # noqa: F401
from .groupoid import composable_pairs
from .report import ValidationReport
from .sections import basis_sections, induced_hom

Array = np.ndarray


@dataclass
class FellIdeal:
    bundle: FellBundle
    frames: Mapping[str, Array]  # per arrow: orthonormal rows in C^{d_g}

    @staticmethod
    def zero(bundle: FellBundle) -> "FellIdeal":
        return FellIdeal(bundle, {g: np.zeros((0, bundle.dims[g]), dtype=np.complex128)
                                  for g in bundle.groupoid.arrows})

    @staticmethod
    def whole(bundle: FellBundle) -> "FellIdeal":
        return FellIdeal(bundle, {g: np.eye(bundle.dims[g], dtype=np.complex128)
                                  for g in bundle.groupoid.arrows})

    @staticmethod
    def from_spanning(bundle: FellBundle, vectors: Mapping[str, list],
                      rtol: float = 1e-10) -> "FellIdeal":
        frames = {}
        for g in bundle.groupoid.arrows:
            vecs = [la.as_complex(v) for v in vectors.get(g, [])]
            frames[g] = la.orth_rows(np.array(vecs) if vecs
                                     else np.zeros((0, bundle.dims[g])), rtol)
        return FellIdeal(bundle, frames)

    def dim(self, g: str) -> int:
        return self.frames[g].shape[0]

    def total_dim(self) -> int:
        return sum(self.dim(g) for g in self.bundle.groupoid.arrows)


@dataclass
class InvariantFamily:
    bundle: FellBundle
    frames: Mapping[str, Array]  # per object: orthonormal rows in C^{d_{u(x)}}

    def dim(self, x: str) -> int:
        return self.frames[x].shape[0]


def validate_fell_ideal(I: FellIdeal, tols: Tolerances = DEFAULT) -> ValidationReport:
    bundle = I.bundle
    G = bundle.groupoid
    tol = tols.tolerance
    rep = ValidationReport("fell ideal")
    for g, h in composable_pairs(G):
        gh = G.comp[(g, h)]
        for i in range(I.dim(g)):
            for j in range(bundle.dims[h]):
                prod = bundle.mult_coords(g, h, I.frames[g][i], ei(bundle.dims[h], j))
                res = la.residual_in_span(I.frames[gh], prod)
                rep.check_residual(res, tol * max(1.0, float(np.linalg.norm(prod))),
                                   "I_g . A_h inside I_gh", f"({g}[{i}],{h}[{j}])")
        for i in range(bundle.dims[g]):
            for j in range(I.dim(h)):
                prod = bundle.mult_coords(g, h, ei(bundle.dims[g], i), I.frames[h][j])
                res = la.residual_in_span(I.frames[gh], prod)
                rep.check_residual(res, tol * max(1.0, float(np.linalg.norm(prod))),
                                   "A_g . I_h inside I_gh", f"({g}[{i}],{h}[{j}])")
    # consequence: I_g* = I_{g^-1}
    for g in G.arrows:
        gi = G.inv[g]
        stars = np.array([bundle.star_coords(g, v) for v in I.frames[g]]) \
            if I.dim(g) else np.zeros((0, bundle.dims[gi]))
        star_frame = la.orth_rows(stars, tols.rank_threshold)
        if not la.frame_eq(star_frame, I.frames[gi], 1e-7):
            rep.add("I_g* equals I_{g^-1} (consequence)", f"arrow {g}",
                    detail="two-sided absorption should force this; numerical trouble")
    return rep


def validate_invariant_family(F: InvariantFamily, tols: Tolerances = DEFAULT) -> ValidationReport:
    """Each F_x is a two-sided ideal of A_{u(x)}, and the family is invariant.

    The ideal checks are one stacked product per object and the one-sided
    criterion one per arrow, each followed by one residual computation; the
    violations come in the order of the loops they replace.
    """
    bundle = F.bundle
    G = bundle.groupoid
    tol = tols.tolerance
    rep = ValidationReport("invariant family")
    for x in G.objects:
        u = G.unit[x]
        M = bundle.mult[(u, u)]
        # prods[i, j, 0] = F_i . e_j ("right"), prods[i, j, 1] = e_j . F_i ("left")
        prods = np.einsum("skaj,ia->ijsk", np.stack([M, M.transpose(0, 2, 1)]), F.frames[x])
        _report_residuals(rep, F.frames[x], prods, tol,
                          lambda p: (f"fibre subspace is {('right', 'left')[p[2]]} ideal",
                                     f"object {x}"))
    for g in G.arrows:
        left = _left_product_frame(bundle, F, g, tols)
        right = _right_product_frame(bundle, F, g, tols)
        if not la.frame_eq(left, right, 1e-7):
            rep.add("invariance F_{r(g)} A_g = A_g F_{s(g)}", f"arrow {g}",
                    detail=f"left dim {left.shape[0]}, right dim {right.shape[0]}")
        # equivalent one-sided criterion, reported separately: out[i, k, j] =
        # (e_i . F_k) . e'_j for e_i in A_g, F_k in F_{s(g)}, e'_j in A_{g^-1}
        y = G.src[g]
        mid = np.einsum("aib,kb->ika", bundle.mult[(g, G.unit[y])], F.frames[y])
        out = np.einsum("laj,ika->ikjl", bundle.mult[(G.comp[(g, G.unit[y])], G.inv[g])], mid)
        _report_residuals(rep, F.frames[G.rng[g]], out, tol,
                          lambda p: ("one-sided criterion A_g F_{s} A_{g^-1} in F_{r}",
                                     f"arrow {g}"))
    return rep


def _report_residuals(rep: ValidationReport, frame: Array, vecs: Array, tol: float,
                      witness: Callable[[tuple], tuple[str, str]]) -> None:
    """Check that every vector of ``vecs`` (..., d) lies in span(frame), to
    ``tol`` relative to its norm; ``witness(index)`` gives (check, where)."""
    if not vecs.size:
        return
    flat = vecs.reshape(-1, frame.shape[1])
    res = la.residuals_in_span(frame, flat)
    scale = tol * np.maximum(1.0, la.row_norms(flat))
    for p in np.flatnonzero(~(res <= scale)):
        check, where = witness(np.unravel_index(p, vecs.shape[:-1]))
        rep.check_residual(res[p], scale[p], check, where)


def _left_product_frame(bundle: FellBundle, F: InvariantFamily, g: str,
                        tols: Tolerances) -> Array:
    """span(F_{r(g)} . A_g): rows b . e_j for b in the frame, then j."""
    G = bundle.groupoid
    vecs = np.einsum("kij,bi->bjk", bundle.mult[(G.unit[G.rng[g]], g)], F.frames[G.rng[g]])
    d = bundle.dims[g]
    return la.orth_rows(vecs.reshape(len(vecs) * d, d), tols.rank_threshold)


def _right_product_frame(bundle: FellBundle, F: InvariantFamily, g: str,
                         tols: Tolerances) -> Array:
    """span(A_g . F_{s(g)}): rows e_j . b for b in the frame, then j."""
    G = bundle.groupoid
    vecs = np.einsum("kji,bi->bjk", bundle.mult[(g, G.unit[G.src[g]])], F.frames[G.src[g]])
    d = bundle.dims[g]
    return la.orth_rows(vecs.reshape(len(vecs) * d, d), tols.rank_threshold)


def ideal_from_invariant_family(F: InvariantFamily, tols: Tolerances = DEFAULT) -> FellIdeal:
    """I_g = span(F_{r(g)} . A_g)."""
    return FellIdeal(F.bundle, {g: _left_product_frame(F.bundle, F, g, tols)
                                for g in F.bundle.groupoid.arrows})


def invariant_family_from_ideal(I: FellIdeal) -> InvariantFamily:
    G = I.bundle.groupoid
    return InvariantFamily(I.bundle, {x: I.frames[G.unit[x]] for x in G.objects})


def hereditary_from_family(bundle: FellBundle, subalgebras: Mapping[str, Array],
                           tols: Tolerances = DEFAULT,
                           name: str = "hereditary subbundle") -> tuple[FellBundle, BundleHom, ValidationReport]:
    """Subbundle with fibres span(H_{r(g)} . A_g . H_{s(g)}).

    ``subalgebras[x]`` is a frame in the unit-fibre coordinates at x, assumed
    to span a hereditary *-subalgebra (validated).  Returns the subbundle,
    the inclusion hom, and a report (including the round-trip check that the
    unit fibres of the result are exactly the given subalgebras, and the
    hereditarity diagnostic for the range-ideal algebras).
    """
    G = bundle.groupoid
    rep = ValidationReport("hereditary subbundle")
    tol = tols.tolerance
    for x in G.objects:
        u = G.unit[x]
        H = subalgebras[x]
        du = bundle.dims[u]
        for i in range(H.shape[0]):
            star = bundle.star_coords(u, H[i])
            rep.check_residual(la.residual_in_span(H, star), tol,
                               "subalgebra closed under involution", f"object {x}")
            for j in range(H.shape[0]):
                prod = bundle.mult_coords(u, u, H[i], H[j])
                rep.check_residual(la.residual_in_span(H, prod),
                                   tol * max(1.0, float(np.linalg.norm(prod))),
                                   "subalgebra closed under product", f"object {x}")
                for k in range(du):
                    mid = bundle.mult_coords(u, u, H[i], ei(du, k))
                    out = bundle.mult_coords(u, u, mid, H[j])
                    rep.check_residual(la.residual_in_span(H, out),
                                       tol * max(1.0, float(np.linalg.norm(out))),
                                       "hereditary H A H inside H", f"object {x}")
    frames = {}
    for g in G.arrows:
        x, y = G.rng[g], G.src[g]
        ur, us = G.unit[x], G.unit[y]
        vecs = []
        for a in subalgebras[x]:
            for j in range(bundle.dims[g]):
                mid = bundle.mult_coords(ur, g, a, ei(bundle.dims[g], j))
                for b in subalgebras[y]:
                    vecs.append(bundle.mult_coords(g, us, mid, b))
        frames[g] = la.orth_rows(np.array(vecs) if vecs else np.zeros((0, bundle.dims[g])),
                                 tols.rank_threshold)
    sub, incl = subbundle_from_frames(bundle, frames, name=name)
    for x in G.objects:
        u = G.unit[x]
        if not la.frame_eq(frames[u], subalgebras[x], 1e-7):
            rep.add("unit fibres recover the subalgebras", f"object {x}",
                    detail=f"got dim {frames[u].shape[0]}, want {subalgebras[x].shape[0]}")
    _hereditary_range_note(bundle, frames, rep, tols)
    return sub, incl, rep


def _hereditary_range_note(bundle: FellBundle, frames: Mapping[str, Array],
                           rep: ValidationReport, tols: Tolerances) -> None:
    """Diagnostic: span(K_g K_g*) is hereditary inside span(A_g A_g*)."""
    from .bundle import range_source_ideals
    G = bundle.groupoid
    ok = True
    for g in G.arrows:
        if frames[g].shape[0] == 0:
            continue
        gi = G.inv[g]
        u = G.unit[G.rng[g]]
        kvecs = [bundle.mult_coords(g, gi, v, bundle.star_coords(g, w))
                 for v in frames[g] for w in frames[g]]
        kframe = la.orth_rows(np.array(kvecs), tols.rank_threshold)
        aframe, _, _ = range_source_ideals(bundle, g, tols)
        for h1 in kframe:
            for a in aframe:
                mid = bundle.mult_coords(u, u, h1, a)
                for h2 in kframe:
                    out = bundle.mult_coords(u, u, mid, h2)
                    if la.residual_in_span(kframe, out) > 1e-7 * max(1.0, float(np.linalg.norm(out))):
                        ok = False
    rep.note(f"range-ideal algebras hereditary in the parent range ideals: {ok}")


def quotient_bundle(bundle: FellBundle, I: FellIdeal,
                    tols: Tolerances = DEFAULT,
                    name: str | None = None) -> tuple[FellBundle, BundleHom]:
    """Quotient fibres as orthogonal complements with projected tensors.

    The quotient hom is the coordinate projection; its unit-fibre concrete
    representation is b -> (1 - p) rho(b) with p the support unit of the
    ideal's image, which is a faithful *-representation of the quotient.
    """
    G = bundle.groupoid
    comp = {g: la.frame_complement(I.frames[g], bundle.dims[g], tols.rank_threshold)
            for g in G.arrows}
    dims = {g: comp[g].shape[0] for g in G.arrows}
    mult = {}
    for g, h in composable_pairs(G):
        gh = G.comp[(g, h)]
        raw = np.einsum("kij,ai,bj->kab", bundle.mult[(g, h)], comp[g], comp[h])
        mult[(g, h)] = np.einsum("lk,kab->lab", comp[gh].conj(), raw)
    inv = {g: comp[G.inv[g]].conj() @ bundle.inv[g] @ np.conj(comp[g]).T
           for g in G.arrows}
    unit_rep = {}
    for x in G.objects:
        u = G.unit[x]
        n = bundle.unit_dim(x)
        ideal_mats = np.stack([bundle.unit_matrix(x, v) for v in I.frames[u]]) \
            if I.dim(u) else np.zeros((0, n, n), dtype=np.complex128)
        if ideal_mats.shape[0]:
            c = la.algebra_unit(ideal_mats)
            if c is None:
                raise ValueError(f"ideal image at {x} has no support unit")
            p = la.stack_combine(ideal_mats, c)
        else:
            p = np.zeros((n, n), dtype=np.complex128)
        keep = np.eye(n) - p
        unit_rep[x] = np.stack([keep @ bundle.unit_matrix(x, comp[u][k])
                                for k in range(dims[u])]) \
            if dims[u] else np.zeros((0, n, n), dtype=np.complex128)
    quotient = FellBundle(G, dims, mult, inv, unit_rep,
                          name=name or f"{bundle.name} / ideal")
    hom = BundleHom(bundle, quotient, {g: comp[g].conj() for g in G.arrows})
    return quotient, hom


# -- exactness -------------------------------------------------------------------

@dataclass
class ExactnessReport:
    dim_ideal: int
    dim_total: int
    dim_quotient: int
    inclusion_injective: bool
    image_is_ideal: bool
    quotient_surjective: bool
    kernel_equals_image: bool
    dims_additive: bool
    essential: bool
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.inclusion_injective and self.image_is_ideal and
                self.quotient_surjective and self.kernel_equals_image and
                self.dims_additive)

    def to_json(self) -> dict:
        return {
            "dims": {"ideal": self.dim_ideal, "total": self.dim_total,
                     "quotient": self.dim_quotient},
            "inclusion_injective": self.inclusion_injective,
            "image_is_ideal": self.image_is_ideal,
            "quotient_surjective": self.quotient_surjective,
            "kernel_equals_image": self.kernel_equals_image,
            "dims_additive": self.dims_additive,
            "essential_ideal": self.essential,
            "ok": self.ok,
            "notes": list(self.notes),
        }


def exactness_verify(bundle: FellBundle, I: FellIdeal,
                     tols: Tolerances = DEFAULT) -> ExactnessReport:
    """The induced maps C*(I) -> C*(A) -> C*(A/I) form an extension.

    All three section algebras are realised through their regular
    representations; kernel-equals-image is a subspace comparison at the
    rank threshold.
    """
    G = bundle.groupoid
    check = validate_fell_ideal(I, tols)
    if not check.ok:
        raise ValueError("not a Fell ideal:\n" + check.summary())

    sub, incl = subbundle_from_frames(bundle, dict(I.frames), name="ideal subbundle")
    env_total = envelope_algebra(bundle, tols)
    quotient, qhom = quotient_bundle(bundle, I, tols)
    env_quot = envelope_algebra(quotient, tols)

    include = induced_hom(incl)
    project = induced_hom(qhom)

    ideal_images = [env_total.lambda_of(include(s)) for (_, _, s) in basis_sections(sub)]
    image_frame = la.orth_rows(np.stack([m.reshape(-1) for m in ideal_images])
                               if ideal_images else np.zeros((0, 1)), tols.rank_threshold)
    dim_ideal = image_frame.shape[0]
    inclusion_injective = dim_ideal == sub.total_dim

    image_is_ideal = True
    for (_, _, s) in basis_sections(bundle):
        m = env_total.lambda_of(s)
        for img in ideal_images:
            for prod in (m @ img, img @ m):
                if la.residual_in_span(image_frame, prod.reshape(-1)) > \
                        1e-7 * max(1.0, float(np.linalg.norm(prod))):
                    image_is_ideal = False

    # the induced quotient map on section-coefficient coordinates
    parent_basis = basis_sections(bundle)
    proj_vecs = [env_quot.lambda_of(project(s)).reshape(-1) for (_, _, s) in parent_basis]
    proj_matrix = np.stack(proj_vecs) if proj_vecs else np.zeros((0, 1))
    rank = la.matrix_rank(proj_matrix, tols.rank_threshold)
    dim_quotient = env_quot.dim
    quotient_surjective = rank == dim_quotient

    # kernel of the induced quotient map, pushed through Lambda of the parent
    null_coeffs = la.null_space_rows(proj_matrix.T, tols.rank_threshold) \
        if proj_matrix.size else np.eye(len(parent_basis), dtype=np.complex128)
    kernel_vecs = []
    for c in null_coeffs:
        m = np.tensordot(c, env_total.images, axes=1)
        kernel_vecs.append(m.reshape(-1))
    kernel_frame = la.orth_rows(np.array(kernel_vecs) if kernel_vecs
                                else np.zeros((0, image_frame.shape[1])),
                                tols.rank_threshold)
    kernel_equals_image = la.frame_eq(kernel_frame, image_frame, 1e-7)

    dims_additive = dim_ideal + dim_quotient == env_total.dim

    # essential-ideal diagnostic: trivial annihilator of the image in C*(A)
    ann_rows = []
    for (_, _, s) in parent_basis:
        m = env_total.lambda_of(s)
        row = np.concatenate([(m @ img).reshape(-1) for img in ideal_images]) \
            if ideal_images else np.zeros(0)
        ann_rows.append(row)
    if ideal_images and ann_rows:
        ann_matrix = np.stack(ann_rows)
        ann_rank = la.matrix_rank(ann_matrix, tols.rank_threshold)
        essential = ann_rank == len(parent_basis)
    else:
        essential = not ideal_images and not parent_basis
    report = ExactnessReport(dim_ideal, env_total.dim, dim_quotient,
                             inclusion_injective, image_is_ideal,
                             quotient_surjective, kernel_equals_image, dims_additive,
                             essential)
    report.notes.append("spectrum vs primitive-ideal space coincide for "
                        "finite-dimensional fibres; essential-ideal flag is a "
                        "support diagnostic only")
    return report


# -- split extensions --------------------------------------------------------------

@dataclass
class SplitExtension:
    ideal: FellBundle
    total: FellBundle
    quotient: FellBundle
    iota: BundleHom
    pi: BundleHom
    sigma: BundleHom


def split_extension_from_hom(tau: BundleHom, tols: Tolerances = DEFAULT) -> SplitExtension:
    """Split extension of the source of tau by its target.

    Finite-dimensional fibres are unital, so multiplier fibres coincide with
    the fibres themselves and any bundle hom A -> B plays the multiplier
    role.  The total bundle is A (+) B with coordinates (a, m); the ideal is
    0 (+) B, the quotient map drops m, and the section is a -> (a, tau(a)).
    """
    A, B = tau.source, tau.target
    if A.groupoid.arrows != B.groupoid.arrows:
        raise ValueError("split extension needs a common base groupoid")
    G = A.groupoid
    dims = {g: A.dims[g] + B.dims[g] for g in G.arrows}
    mult = {}
    for g, h in composable_pairs(G):
        gh = G.comp[(g, h)]
        tensor = np.zeros((dims[gh], dims[g], dims[h]), dtype=np.complex128)
        tensor[:A.dims[gh], :A.dims[g], :A.dims[h]] = A.mult[(g, h)]
        tensor[A.dims[gh]:, A.dims[g]:, A.dims[h]:] = B.mult[(g, h)]
        mult[(g, h)] = tensor
    inv = {}
    for g in G.arrows:
        gi = G.inv[g]
        mat = np.zeros((dims[gi], dims[g]), dtype=np.complex128)
        mat[:A.dims[gi], :A.dims[g]] = A.inv[g]
        mat[A.dims[gi]:, A.dims[g]:] = B.inv[g]
        inv[g] = mat
    unit_rep = {}
    for x in G.objects:
        u = G.unit[x]
        na, nb = A.unit_dim(x), B.unit_dim(x)
        stack = np.zeros((dims[u], na + nb, na + nb), dtype=np.complex128)
        stack[:A.dims[u], :na, :na] = A.unit_rep[x]
        stack[A.dims[u]:, na:, na:] = B.unit_rep[x]
        unit_rep[x] = stack
    total = FellBundle(G, dims, mult, inv, unit_rep, name=f"{A.name} (+) {B.name}")
    iota = BundleHom(B, total, {g: np.vstack([np.zeros((A.dims[g], B.dims[g])),
                                              np.eye(B.dims[g])]).astype(np.complex128)
                                for g in G.arrows})
    pi = BundleHom(total, A, {g: np.hstack([np.eye(A.dims[g]),
                                            np.zeros((A.dims[g], B.dims[g]))]).astype(np.complex128)
                              for g in G.arrows})
    sigma = BundleHom(A, total, {g: np.vstack([np.eye(A.dims[g]),
                                               la.as_complex(tau.maps[g])])
                                 for g in G.arrows})
    return SplitExtension(B, total, A, iota, pi, sigma)


def split_exactness_verify(E: SplitExtension, tols: Tolerances = DEFAULT) -> ValidationReport:
    rep = ValidationReport("split extension")
    for label, hom in (("iota", E.iota), ("pi", E.pi), ("sigma", E.sigma)):
        sub = validate_bundle_hom(hom, tols)
        for v in sub.violations:
            rep.add(v.check, f"{label}: {v.where}", v.residual, v.detail)
    G = E.total.groupoid
    for g in G.arrows:
        comp = la.as_complex(E.pi.maps[g]) @ la.as_complex(E.sigma.maps[g])
        rep.check_residual(float(np.linalg.norm(comp - np.eye(E.quotient.dims[g]))),
                           tols.tolerance, "pi . sigma = id", f"arrow {g}")
        comp0 = la.as_complex(E.pi.maps[g]) @ la.as_complex(E.iota.maps[g])
        rep.check_residual(float(np.linalg.norm(comp0)), tols.tolerance,
                           "pi . iota = 0", f"arrow {g}")
    ideal = FellIdeal(E.total, {g: la.orth_rows(la.as_complex(E.iota.maps[g]).T,
                                                tols.rank_threshold)
                                for g in G.arrows})
    sub = validate_fell_ideal(ideal, tols)
    for v in sub.violations:
        rep.add(v.check, f"iota image: {v.where}", v.residual, v.detail)
    ex = exactness_verify(E.total, ideal, tols)
    rep.require(ex.ok, "induced section algebras exact", "envelope level",
                detail=str(ex.to_json()))
    env_total = envelope_algebra(E.total, tols)
    env_quot = envelope_algebra(E.quotient, tols)
    lift = induced_hom(E.sigma)
    drop = induced_hom(E.pi)
    for (_, _, s) in basis_sections(E.quotient):
        back = drop(lift(s))
        res = float(np.linalg.norm((back - s).pack()))
        rep.check_residual(res, tols.tolerance, "section-level splitting", "pi* sigma* = id")
    rep.note(f"dim C*: ideal {envelope_algebra(E.ideal, tols).dim} + "
             f"quotient {env_quot.dim} = total {env_total.dim}")
    return rep


# -- enumeration -------------------------------------------------------------------

def enumerate_fell_ideals(bundle: FellBundle, tols: Tolerances = DEFAULT,
                          cap: int = 1 << 20) -> list[FellIdeal]:
    """Exhaustive search over families generated by central block supports.

    Sufficient because every invariant family of unit-fibre ideals is a sum
    of full matrix blocks.  The blocks and their supports come from
    ``spectrum.fiber_spectrum``; every candidate is validated here, without
    the dual groupoid, so the search stays an independent check of the
    orbit-based lattice.  Guarded by ``cap`` candidates.  The search runs
    once per bundle, tolerances and cap (``bundle.memo``); each call returns
    a fresh list.
    """
    return list(bundle.memo(("fell_ideals", tols, cap),
                            lambda: _enumerate_fell_ideals(bundle, tols, cap)))


def _enumerate_fell_ideals(bundle: FellBundle, tols: Tolerances, cap: int) -> list[FellIdeal]:
    from .spectrum import family_from_subset, fiber_spectrum
    G = bundle.groupoid
    spec = fiber_spectrum(bundle, tols)
    counts = [len(spec.by_object[x]) for x in G.objects]
    total = 1
    for c in counts:
        total *= 2 ** c
    if total > cap:
        raise ValueError(f"{total} candidate families exceed the cap {cap}")

    found: list[FellIdeal] = []
    for combo in itertools.product(*[range(2 ** c) for c in counts]):
        keys = {(x, bi) for xi, x in enumerate(G.objects) for bi in range(counts[xi])
                if combo[xi] >> bi & 1}
        family = family_from_subset(bundle, spec, keys, tols)
        if validate_invariant_family(family, tols).ok:
            found.append(ideal_from_invariant_family(family, tols))
    return found
