"""Twisted partial actions and their Fell bundles.

Data: per object a concrete unit-fibre algebra F_x; per arrow g an ideal
D_g of F_{r(g)} (HS-orthonormal matrix basis) and a *-isomorphism
a_g : D_{g^-1} -> D_g (matrix in the ideal bases); per composable pair a
unitary multiplier w(g,h) of D_g ∩ D_{gh}.  Compilation into a Fell bundle
uses

    (a d_g).(b d_h) = a_g(a_g^{-1}(a) . b) . w(g,h)  d_{gh},
    (a d_g)^*       = a_g^{-1}(a^*) . w(g^{-1},g)^*  d_{g^{-1}},

and reconstruction recovers (D, a, w) from a bundle whose fibres are
presented as left ideals in the range unit fibres.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import _linalg as la
from .bundle import FellBundle, UnitFiberAlgebra, ei
from .config import DEFAULT, Tolerances
from .groupoid import FiniteGroupoid, composable_pairs, composable_triples
from .report import ValidationReport

Array = np.ndarray


@dataclass
class TwistedPartialAction:
    groupoid: FiniteGroupoid
    fibers: Mapping[str, UnitFiberAlgebra]
    ideal_basis: Mapping[str, Array]          # per arrow: stack (k_g, n, n)
    alpha: Mapping[str, Array]                # per arrow: (k_g, k_{g^-1})
    w: Mapping[tuple[str, str], Array]        # per composable pair: (n, n) matrix

    @staticmethod
    def build(G: FiniteGroupoid, fibers: Mapping[str, UnitFiberAlgebra],
              ideals: Mapping[str, list], alpha: Mapping[str, Array],
              w: Mapping[tuple[str, str], Array] | None = None,
              rtol: float = 1e-10) -> "TwistedPartialAction":
        """Normalise the input: unit-arrow ideals are the fibre algebras, and
        missing w entries default to the unit of the intersection ideal.

        Ideal bases must come HS-orthonormal (alpha and w refer to them)."""
        basis: dict[str, Array] = {}
        for g in G.arrows:
            n = fibers[G.rng[g]].n
            mats = [la.as_complex(m) for m in ideals.get(g, [])]
            stack = (np.stack(mats) if mats
                     else np.zeros((0, n, n), dtype=np.complex128))
            if stack.shape[0]:
                gram = la.flatten_stack(stack)
                gram = gram.conj() @ gram.T
                if np.linalg.norm(gram - np.eye(stack.shape[0])) > 1e-8:
                    raise ValueError(f"ideal basis at {g} is not HS-orthonormal")
            basis[g] = stack
        for x in G.objects:
            u = G.unit[x]
            if basis[u].shape[0] == 0 and fibers[x].dim:
                basis[u] = fibers[x].basis
        amaps = {g: la.as_complex(alpha[g]) if g in alpha
                 else np.eye(basis[g].shape[0], dtype=np.complex128)
                 for g in G.arrows}
        act = TwistedPartialAction(G, dict(fibers), basis, amaps, {})
        wmap: dict[tuple[str, str], Array] = {}
        for g, h in composable_pairs(G):
            key = (g, h)
            if w is not None and key in w:
                raw = w[key]
                if np.isscalar(raw) or np.asarray(raw).ndim == 0:
                    wmap[key] = complex(raw) * act.intersection_unit(g, h)
                else:
                    wmap[key] = la.as_complex(raw)
            else:
                wmap[key] = act.intersection_unit(g, h)
        act.w = wmap
        return act

    # -- fibre helpers ---------------------------------------------------------

    def n_at(self, x: str) -> int:
        return self.fibers[x].n

    def ideal_dim(self, g: str) -> int:
        return self.ideal_basis[g].shape[0]

    def ideal_frame(self, g: str) -> Array:
        s = self.ideal_basis[g]
        return la.flatten_stack(s)

    def coords_of(self, g: str, mat: Array) -> tuple[Array, float]:
        return la.stack_expand(self.ideal_basis[g], mat)

    def mat_of(self, g: str, coords: Array) -> Array:
        return la.stack_combine(self.ideal_basis[g], coords)

    def apply_alpha(self, g: str, mat: Array) -> Array:
        """a_g applied to a matrix in D_{g^-1}."""
        gi = self.groupoid.inv[g]
        coords, _ = self.coords_of(gi, mat)
        return self.mat_of(g, self.alpha[g] @ coords)

    def apply_alpha_inv(self, g: str, mat: Array) -> Array:
        """a_g^{-1} (matrix inverse of the stored map), D_g -> D_{g^-1}."""
        gi = self.groupoid.inv[g]
        coords, _ = self.coords_of(g, mat)
        if coords.size == 0:
            return np.zeros((self.n_at(self.groupoid.src[g]),) * 2, dtype=np.complex128)
        sol = np.linalg.solve(self.alpha[g], coords) if coords.size else coords
        return self.mat_of(gi, sol)

    def intersection_basis(self, g: str, h: str, rtol: float = 1e-10) -> Array:
        """Stack for D_g ∩ D_{gh} inside Mat(n_{r(g)})."""
        gh = self.groupoid.comp[(g, h)]
        n = self.n_at(self.groupoid.rng[g])
        frame = la.frame_intersection(self.ideal_frame(g), self.ideal_frame(gh),
                                      n * n, rtol)
        return frame.reshape(-1, n, n)

    def intersection_unit(self, g: str, h: str) -> Array:
        stack = self.intersection_basis(g, h)
        n = self.n_at(self.groupoid.rng[g])
        if stack.shape[0] == 0:
            return np.zeros((n, n), dtype=np.complex128)
        c = la.algebra_unit(stack)
        if c is None:
            raise ValueError(f"intersection ideal at ({g},{h}) has no unit")
        return la.stack_combine(stack, c)

    def ideal_unit(self, g: str) -> Array:
        n = self.n_at(self.groupoid.rng[g])
        if self.ideal_dim(g) == 0:
            return np.zeros((n, n), dtype=np.complex128)
        c = la.algebra_unit(self.ideal_basis[g])
        if c is None:
            raise ValueError(f"ideal at {g} has no unit")
        return self.mat_of(g, c)


def validate_action(T: TwistedPartialAction, tols: Tolerances = DEFAULT) -> ValidationReport:
    """Axioms 5-8 on basis elements, plus *-isomorphism checks; the derived
    identities are reported as diagnostics in the notes."""
    G = T.groupoid
    tol = tols.tolerance
    rep = ValidationReport("twisted partial action")

    # ideals sit inside the fibre algebras and absorb multiplication
    for g in G.arrows:
        x = G.rng[g]
        F = T.fibers[x]
        frame_F = F.basis.reshape(F.dim, -1)
        for i, mat in enumerate(T.ideal_basis[g]):
            res = la.residual_in_span(frame_F, mat.reshape(-1))
            rep.check_residual(res, tol, "ideal inside fibre algebra", f"D_{g}[{i}]")
            for b in F.basis:
                for prod, side in ((b @ mat, "left"), (mat @ b, "right")):
                    res = la.residual_in_span(T.ideal_frame(g), prod.reshape(-1))
                    rep.check_residual(res, tol * max(1.0, float(np.linalg.norm(prod))),
                                       f"ideal absorbs {side} multiplication", f"D_{g}[{i}]")

    # condition 5: units
    for x in G.objects:
        u = G.unit[x]
        ok = la.frame_eq(T.ideal_frame(u), T.fibers[x].basis.reshape(T.fibers[x].dim, -1), tol)
        rep.require(ok, "D at unit equals fibre algebra", f"object {x}")
        res = float(np.linalg.norm(T.alpha[u] - np.eye(T.ideal_dim(u))))
        rep.check_residual(res, tol, "alpha at unit is identity", f"object {x}")
    for g in G.arrows:
        us, ur = G.unit[G.src[g]], G.unit[G.rng[g]]
        pg = T.ideal_unit(g)
        for key, label in (((g, us), "w(g, unit)"), ((ur, g), "w(unit, g)")):
            res = float(np.linalg.norm(T.w[key] - pg))
            rep.check_residual(res, tol, f"normalisation {label} = 1", f"arrow {g}")

    # alpha is a *-isomorphism D_{g^-1} -> D_g
    for g in G.arrows:
        gi = G.inv[g]
        kg, kgi = T.ideal_dim(g), T.ideal_dim(gi)
        if T.alpha[g].shape != (kg, kgi):
            raise ValueError(f"alpha at {g} has shape {T.alpha[g].shape}, want {(kg, kgi)}")
        if kg != kgi:
            rep.add("alpha domain/codomain dimensions", f"arrow {g}",
                    detail=f"dim D_{g}={kg}, dim D_{gi}={kgi}")
            continue
        if kg and la.matrix_rank(T.alpha[g], tols.rank_threshold) != kg:
            rep.add("alpha invertible", f"arrow {g}")
            continue
        for i in range(kgi):
            a = T.ideal_basis[gi][i]
            img_star = T.apply_alpha(g, a.conj().T)
            res = float(np.linalg.norm(img_star - T.apply_alpha(g, a).conj().T))
            rep.check_residual(res, tol, "alpha star-preserving", f"{g}, basis {i}")
            for j in range(kgi):
                b = T.ideal_basis[gi][j]
                lhs = T.apply_alpha(g, a @ b)
                rhs = T.apply_alpha(g, a) @ T.apply_alpha(g, b)
                rep.check_residual(float(np.linalg.norm(lhs - rhs)),
                                   tol * max(1.0, float(np.linalg.norm(rhs))),
                                   "alpha multiplicative", f"{g}, basis ({i},{j})")

    # w unitary in its ideal
    for g, h in composable_pairs(G):
        wmat = T.w[(g, h)]
        stack = T.intersection_basis(g, h, tols.rank_threshold)
        frame = la.flatten_stack(stack)
        res = la.residual_in_span(frame, wmat.reshape(-1))
        rep.check_residual(res, tol * max(1.0, float(np.linalg.norm(wmat))),
                           "w supported on intersection ideal", f"({g},{h})")
        if stack.shape[0]:
            q = T.intersection_unit(g, h)
            for prod, side in ((wmat @ wmat.conj().T, "w w*"), ((wmat.conj().T) @ wmat, "w* w")):
                rep.check_residual(float(np.linalg.norm(prod - q)), tol,
                                   f"unitarity {side} = unit", f"({g},{h})")

    # condition 6
    for g, h in composable_pairs(G):
        gi, gh = G.inv[g], G.comp[(g, h)]
        n = T.n_at(G.src[g])
        inter = la.frame_intersection(T.ideal_frame(gi), T.ideal_frame(h), n * n,
                                      tols.rank_threshold)
        for row in inter:
            img = T.apply_alpha(g, row.reshape(n, n))
            res = la.residual_in_span(T.ideal_frame(gh), img.reshape(-1))
            rep.check_residual(res, tol * max(1.0, float(np.linalg.norm(img))),
                               "alpha_g(D_{g^-1} ∩ D_h) inside D_{gh}", f"({g},{h})")

    # condition 7
    for g, h in composable_pairs(G):
        gi = G.inv[g]
        hi = G.inv[h]
        gh = G.comp[(g, h)]
        n = T.n_at(G.src[g])
        inter = la.frame_intersection(T.ideal_frame(gi), T.ideal_frame(h), n * n,
                                      tols.rank_threshold)
        wm = T.w[(g, h)]
        for row in inter:
            a = T.apply_alpha(hi, row.reshape(n, n))
            lhs = T.apply_alpha(g, T.apply_alpha(h, a))
            rhs = wm @ T.apply_alpha(gh, a) @ wm.conj().T
            rep.check_residual(float(np.linalg.norm(lhs - rhs)),
                               tol * max(1.0, float(np.linalg.norm(lhs))),
                               "twisted composition alpha_g alpha_h = Ad(w) alpha_{gh}",
                               f"({g},{h})")

    # condition 8 (cocycle identity on the stated domain)
    for g, h, k in composable_triples(G):
        gi = G.inv[g]
        gh, hk = G.comp[(g, h)], G.comp[(h, k)]
        n = T.n_at(G.src[g])
        frame = la.frame_intersection(T.ideal_frame(gi), T.ideal_frame(h), n * n,
                                      tols.rank_threshold)
        frame = la.frame_intersection(frame, T.ideal_frame(hk), n * n,
                                      tols.rank_threshold)
        for row in frame:
            a = row.reshape(n, n)
            lhs = T.apply_alpha(g, a @ T.w[(h, k)]) @ T.w[(g, hk)]
            rhs = T.apply_alpha(g, a) @ T.w[(g, h)] @ T.w[(gh, k)]
            rep.check_residual(float(np.linalg.norm(lhs - rhs)),
                               tol * max(1.0, float(np.linalg.norm(rhs)) + 1.0),
                               "cocycle identity", f"({g},{h},{k})")

    # derived diagnostics (failures signal numerical trouble, not user error)
    for g, h in composable_pairs(G):
        gi, gh = G.inv[g], G.comp[(g, h)]
        n = T.n_at(G.src[g])
        dom = la.frame_intersection(T.ideal_frame(gi), T.ideal_frame(h), n * n,
                                    tols.rank_threshold)
        img = [T.apply_alpha(g, row.reshape(n, n)).reshape(-1) for row in dom]
        img_frame = la.orth_rows(np.array(img) if img else np.zeros((0, n * n)),
                                 tols.rank_threshold)
        tgt = la.frame_intersection(T.ideal_frame(g), T.ideal_frame(gh), n * n,
                                    tols.rank_threshold)
        if not la.frame_eq(img_frame, tgt, 1e-7):
            rep.note(f"derived domain identity failed at ({g},{h}): "
                     f"alpha_g(D_g^-1 ∩ D_h) has dim {img_frame.shape[0]}, "
                     f"D_g ∩ D_gh has dim {tgt.shape[0]}")
    for g in G.arrows:
        gi = G.inv[g]
        lhs = T.apply_alpha(g, T.w[(gi, g)])
        res = float(np.linalg.norm(lhs - T.w[(g, gi)]))
        if res > 1e-7:
            rep.note(f"derived unitary identity alpha_g(w(g^-1,g)) = w(g,g^-1) "
                     f"failed at {g} (residual {res:.3e})")
        for i in range(T.ideal_dim(g)):
            a = T.ideal_basis[g][i]
            lhs = T.apply_alpha(gi, a)
            rhs = T.w[(gi, g)] @ T.apply_alpha_inv(g, a) @ T.w[(gi, g)].conj().T
            res = float(np.linalg.norm(lhs - rhs))
            if res > 1e-7 * max(1.0, float(np.linalg.norm(rhs))):
                rep.note(f"derived inverse identity failed at {g}[{i}] (residual {res:.3e})")
    return rep


def compile_to_fell_bundle(T: TwistedPartialAction, tols: Tolerances = DEFAULT,
                           name: str | None = None) -> FellBundle:
    """Fell bundle of a validated twisted partial action.

    Fibres are the ideals D_g in their stored bases; the concrete left-ideal
    presentation is attached for reconstruction.
    """
    check = validate_action(T, tols)
    if not check.ok:
        raise ValueError("invalid twisted partial action:\n" + check.summary())
    G = T.groupoid
    dims = {g: T.ideal_dim(g) for g in G.arrows}
    mult = {}
    for g, h in composable_pairs(G):
        gh = G.comp[(g, h)]
        tensor = np.zeros((dims[gh], dims[g], dims[h]), dtype=np.complex128)
        wm = T.w[(g, h)]
        for i in range(dims[g]):
            a = T.ideal_basis[g][i]
            pulled = T.apply_alpha_inv(g, a)
            for j in range(dims[h]):
                b = T.ideal_basis[h][j]
                prod = T.apply_alpha(g, pulled @ b) @ wm
                coords, res = T.coords_of(gh, prod)
                if res > 1e-7 * max(1.0, float(np.linalg.norm(prod))):
                    raise ValueError(f"product left D_{gh} (residual {res:.3e})")
                tensor[:, i, j] = coords
        mult[(g, h)] = tensor
    inv = {}
    for g in G.arrows:
        gi = G.inv[g]
        mat = np.zeros((dims[gi], dims[g]), dtype=np.complex128)
        wstar = T.w[(gi, g)].conj().T
        for i in range(dims[g]):
            a = T.ideal_basis[g][i]
            img = T.apply_alpha_inv(g, a.conj().T) @ wstar
            coords, res = T.coords_of(gi, img)
            if res > 1e-7 * max(1.0, float(np.linalg.norm(img))):
                raise ValueError(f"involute left D_{gi} (residual {res:.3e})")
            mat[:, i] = coords
        inv[g] = mat
    unit_rep = {x: T.ideal_basis[G.unit[x]] for x in G.objects}
    return FellBundle(G, dims, mult, inv, unit_rep,
                      left_ideal_model={g: T.ideal_basis[g] for g in G.arrows},
                      name=name or "compiled twisted partial action")


def reconstruct_action(bundle: FellBundle, tols: Tolerances = DEFAULT) -> TwistedPartialAction:
    """Recover (D, a, w) from a bundle presented by left ideals in r*F.

    Preconditions checked: every presented fibre is a left ideal of the unit
    fibre at its range, and left multiplication by unit-fibre elements agrees
    with the bundle product.  a_g is read off from the right module action
    through the unit of D_g, and w(g,h) is solved from the product formula;
    a rank-deficient system is reported as an error.
    """
    if bundle.left_ideal_model is None:
        raise ValueError("bundle carries no left-ideal presentation")
    G = bundle.groupoid
    tol = tols.tolerance
    P = {g: bundle.left_ideal_model[g] for g in G.arrows}

    for g in G.arrows:
        x = G.rng[g]
        u = G.unit[x]
        frame = la.flatten_stack(P[g])
        if P[g].shape[0] != bundle.dims[g]:
            raise ValueError(f"presentation at {g} has wrong rank")
        for i in range(bundle.dims[u]):
            f = bundle.unit_matrix(x, ei(bundle.dims[u], i))
            for j in range(bundle.dims[g]):
                prod = f @ P[g][j]
                res = la.residual_in_span(frame, prod.reshape(-1))
                if res > 1e-7 * max(1.0, float(np.linalg.norm(prod))):
                    raise ValueError(f"presented fibre at {g} is not a left ideal "
                                     f"(residual {res:.3e})")
                via_bundle = bundle.mult_coords(u, g, ei(bundle.dims[u], i),
                                                ei(bundle.dims[g], j))
                direct, res2 = la.stack_expand(P[g], prod)
                if float(np.linalg.norm(via_bundle - direct)) > 1e-7:
                    raise ValueError(f"left module structure at {g} is not "
                                     "multiplication in the range fibre")

    fibers = {x: UnitFiberAlgebra(bundle.unit_dim(x), bundle.unit_rep[x])
              for x in G.objects}
    shell = TwistedPartialAction(G, fibers, P,
                                 {g: np.eye(bundle.dims[g], dtype=np.complex128)
                                  for g in G.arrows}, {})

    # range ideals D_g = span(A_g A_g*) must match the presentation
    for g in G.arrows:
        gi = G.inv[g]
        vecs = []
        for i in range(bundle.dims[g]):
            for j in range(bundle.dims[g]):
                c = bundle.mult_coords(g, gi, ei(bundle.dims[g], i), bundle.inv[g][:, j])
                vecs.append(la.stack_combine(P[G.unit[G.rng[g]]], c).reshape(-1))
        n = bundle.unit_dim(G.rng[g])
        span = la.orth_rows(np.array(vecs) if vecs else np.zeros((0, n * n)),
                            tols.rank_threshold)
        if not la.frame_eq(span, la.orth_rows(la.flatten_stack(P[g])), 1e-7):
            raise ValueError(f"span(A_g A_g*) differs from the presented ideal at {g}")

    alpha: dict[str, Array] = {}
    for g in G.arrows:
        gi = G.inv[g]
        us = G.unit[G.src[g]]
        k = bundle.dims[g]
        alpha_g = np.zeros((k, bundle.dims[gi]), dtype=np.complex128)
        if k:
            unit_c = la.algebra_unit(P[g])
            if unit_c is None:
                raise ValueError(f"presented ideal at {g} has no unit")
            for j in range(bundle.dims[gi]):
                a_coords, res = la.stack_expand(P[us], P[gi][j])
                if res > 1e-7:
                    raise ValueError(f"D_{gi} does not sit inside the source fibre of {g}")
                alpha_g[:, j] = bundle.mult_coords(g, us, unit_c, a_coords)
        alpha[g] = alpha_g
    shell.alpha = alpha

    w: dict[tuple[str, str], Array] = {}
    for g, h in composable_pairs(G):
        gh = G.comp[(g, h)]
        gi = G.inv[g]
        n = bundle.unit_dim(G.rng[g])
        inter = shell.intersection_basis(g, h, tols.rank_threshold)
        if inter.shape[0] == 0:
            w[(g, h)] = np.zeros((n, n), dtype=np.complex128)
            continue
        ns = bundle.unit_dim(G.src[g])
        dom = la.frame_intersection(shell.ideal_frame(gi), shell.ideal_frame(h),
                                    ns * ns, tols.rank_threshold)
        unit_c = la.algebra_unit(P[g])
        rows, rhs = [], []
        for row in dom:
            b = row.reshape(ns, ns)
            cb = shell.apply_alpha(g, b)
            b_coords, _ = la.stack_expand(P[h], b)
            prod = bundle.mult_coords(g, h, unit_c, b_coords)
            prod_mat = la.stack_combine(P[gh], prod)
            rows.append(np.stack([(cb @ q).reshape(-1) for q in inter]).T)
            rhs.append(prod_mat.reshape(-1))
        system = np.vstack(rows)
        target = np.concatenate(rhs)
        if la.matrix_rank(system, tols.rank_threshold) < inter.shape[0]:
            raise ValueError(f"w({g},{h}) is underdetermined "
                             "(intersection ideal mismatch)")
        coeff, res = la.solve_lstsq(system, target)
        if res > 1e-6 * max(1.0, float(np.linalg.norm(target))):
            raise ValueError(f"product formula inconsistent at ({g},{h}) "
                             f"(residual {res:.3e})")
        w[(g, h)] = la.stack_combine(inter, coeff)
    shell.w = w
    return shell


def line_bundle_from_cocycle(G: FiniteGroupoid, w: Mapping[tuple[str, str], complex],
                             tols: Tolerances = DEFAULT,
                             name: str = "cocycle line bundle") -> FellBundle:
    """All fibres C; product (a d_g)(b d_h) = a b w(g,h) d_{gh}.

    Requires w normalised and satisfying the cocycle identity; unnormalised
    input is rejected, not renormalised.
    """
    rep = ValidationReport("scalar 2-cocycle")
    tol = tols.tolerance
    for g in G.arrows:
        for key, label in (((g, G.unit[G.src[g]]), "w(g, unit)"),
                           ((G.unit[G.rng[g]], g), "w(unit, g)")):
            rep.check_residual(abs(complex(w[key]) - 1.0), tol,
                               f"normalisation {label} = 1", f"arrow {g}")
    for g, h in composable_pairs(G):
        rep.check_residual(abs(abs(complex(w[(g, h)])) - 1.0), tol,
                           "w unimodular", f"({g},{h})")
    for g, h, k in composable_triples(G):
        gh, hk = G.comp[(g, h)], G.comp[(h, k)]
        lhs = complex(w[(h, k)]) * complex(w[(g, hk)])
        rhs = complex(w[(g, h)]) * complex(w[(gh, k)])
        rep.check_residual(abs(lhs - rhs), tol, "cocycle identity", f"({g},{h},{k})")
    if not rep.ok:
        raise ValueError("invalid 2-cocycle:\n" + rep.summary())

    dims = {g: 1 for g in G.arrows}
    mult = {(g, h): np.array([[[complex(w[(g, h)])]]]) for g, h in composable_pairs(G)}
    inv = {g: np.array([[np.conj(complex(w[(G.inv[g], g)]))]]) for g in G.arrows}
    unit_rep = {x: np.ones((1, 1, 1), dtype=np.complex128) for x in G.objects}
    one = np.ones((1, 1), dtype=np.complex128)
    return FellBundle(G, dims, mult, inv, unit_rep,
                      left_ideal_model={g: one[None, :, :] for g in G.arrows},
                      name=name)


def restrict_action(T: TwistedPartialAction, family: Mapping[str, list],
                    tols: Tolerances = DEFAULT) -> TwistedPartialAction:
    """Restriction of an action to a family of ideals F'_x of the fibres.

    New domains D'_g = D_g ∩ F'_{r(g)} ∩ a_g(D_{g^-1} ∩ F'_{s(g)}); alpha and
    w restrict.  Validate the result before compiling.
    """
    G = T.groupoid
    new_fibers = {}
    fam_frame = {}
    for x in G.objects:
        n = T.n_at(x)
        stack = la.stack_orth([la.as_complex(m) for m in family.get(x, [])], n, n,
                              tols.rank_threshold)
        new_fibers[x] = UnitFiberAlgebra(n, stack)
        fam_frame[x] = la.flatten_stack(stack)

    new_basis: dict[str, Array] = {}
    for g in G.arrows:
        x, y = G.rng[g], G.src[g]
        n = T.n_at(x)
        gi = G.inv[g]
        s1 = la.frame_intersection(T.ideal_frame(g), fam_frame[x], n * n, tols.rank_threshold)
        ns = T.n_at(y)
        dom = la.frame_intersection(T.ideal_frame(gi), fam_frame[y], ns * ns,
                                    tols.rank_threshold)
        imgs = [T.apply_alpha(g, row.reshape(ns, ns)).reshape(-1) for row in dom]
        s2 = la.orth_rows(np.array(imgs) if imgs else np.zeros((0, n * n)),
                          tols.rank_threshold)
        frame = la.frame_intersection(s1, s2, n * n, tols.rank_threshold)
        new_basis[g] = frame.reshape(-1, n, n)
    for x in G.objects:
        new_basis[G.unit[x]] = new_fibers[x].basis

    alpha = {}
    for g in G.arrows:
        gi = G.inv[g]
        k, ki = new_basis[g].shape[0], new_basis[gi].shape[0]
        mat = np.zeros((k, ki), dtype=np.complex128)
        for j in range(ki):
            img = T.apply_alpha(g, new_basis[gi][j])
            coords, res = la.stack_expand(new_basis[g], img)
            if res > 1e-7 * max(1.0, float(np.linalg.norm(img))):
                raise ValueError(f"restricted domain at {g} is not alpha-closed")
            mat[:, j] = coords
        alpha[g] = mat

    shell = TwistedPartialAction(G, new_fibers, new_basis, alpha, {})
    w = {}
    for g, h in composable_pairs(G):
        q = shell.intersection_unit(g, h)
        w[(g, h)] = q @ T.w[(g, h)] @ q
    shell.w = w
    return shell
