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

Every a_g acts through one operator on row-major flattened matrices,

    A_g = F_g^T . a_g . conj(F_{g^-1})      (n_{r(g)}^2 x n_{s(g)}^2),

F_g the rows of the flattened ideal basis of D_g: a_g(b) = A_g vec(b), and a
stack of matrices maps with one matmul.  The validator, the compiler, the
reconstruction and the restriction build the operators, the intersections
D_{g^-1} ∩ D_h of the composable pairs (g, h) (which are also the
D_g ∩ D_{gh}, at the pair (g^-1, gh)) and their units once per call, and
evaluate every axiom on stacks of equal shape.  Nothing is kept on the
action: callers may replace its maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import math

import numpy as np

from . import _linalg as la
from .bundle import FellBundle, UnitFiberAlgebra
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

        Ideal bases must come HS-orthonormal (alpha and w refer to them);
        entries keyed by an unknown arrow or a non-composable pair, and
        entries of the wrong shape, are errors."""
        w = w or {}
        for label, table in (("ideals", ideals), ("alpha", alpha)):
            unknown = [g for g in table if g not in G.rng]
            if unknown:
                raise ValueError(f"{label}: unknown arrow {unknown[0]!r}")
        stray = [key for key in w if key not in G.comp]
        if stray:
            raise ValueError(f"w: {stray[0]!r} is not a composable pair")
        basis: dict[str, Array] = {}
        for g in G.arrows:
            n = fibers[G.rng[g]].n
            mats = [la.as_complex(m) for m in ideals.get(g, [])]
            if any(m.shape != (n, n) for m in mats):
                raise ValueError(f"ideal basis at {g}: expected {n}x{n} matrices")
            stack = (np.stack(mats) if mats
                     else np.zeros((0, n, n), dtype=np.complex128))
            if not np.isfinite(stack).all():
                raise ValueError(f"ideal basis at {g} has non-finite entries")
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
        for g, a in amaps.items():
            want = (basis[g].shape[0], basis[G.inv[g]].shape[0])
            if a.shape != want:
                raise ValueError(f"alpha at {g} has shape {a.shape}, want {want}")
        act = TwistedPartialAction(G, dict(fibers), basis, amaps, {})
        pairs = composable_pairs(G)
        scalar = {key: key in w and (np.isscalar(w[key]) or np.asarray(w[key]).ndim == 0)
                  for key in pairs}
        for g, h in pairs:
            n = fibers[G.rng[g]].n
            if (g, h) in w and not scalar[(g, h)] and np.shape(w[(g, h)]) != (n, n):
                raise ValueError(f"w({g},{h}) has shape {np.shape(w[(g, h)])}, want {(n, n)}")
        units = _intersection_units(act, _intersections(act, rtol),
                                    [key for key in pairs if key not in w or scalar[key]])
        act.w = {key: (complex(w[key]) * units[key] if scalar[key]
                       else la.as_complex(w[key]) if key in w else units[key])
                 for key in pairs}
        return act

    # -- fibre helpers ---------------------------------------------------------

    def n_at(self, x: str) -> int:
        return self.fibers[x].n

    def ideal_dim(self, g: str) -> int:
        return self.ideal_basis[g].shape[0]

    def apply_alpha(self, g: str, mat: Array) -> Array:
        """a_g applied to a matrix in D_{g^-1}, through ``alpha_operator``."""
        n = self.n_at(self.groupoid.rng[g])
        return (alpha_operator(self, g) @ la.as_complex(mat).reshape(-1)).reshape(n, n)

    def apply_alpha_inv(self, g: str, mat: Array) -> Array:
        """a_g^{-1} (matrix inverse of the stored map), D_g -> D_{g^-1}."""
        n = self.n_at(self.groupoid.src[g])
        return (alpha_inverse_operator(self, g) @ la.as_complex(mat).reshape(-1)).reshape(n, n)


def alpha_operator(T: TwistedPartialAction, g: str) -> Array:
    """A_g = F_g^T a_g conj(F_{g^-1}): vec(D_{g^-1}) -> vec(D_g), shape
    (n_{r(g)}^2, n_{s(g)}^2); zero off D_{g^-1}."""
    gi = T.groupoid.inv[g]
    return _frame(T, g).T @ (T.alpha[g] @ _frame(T, gi).conj())


def alpha_inverse_operator(T: TwistedPartialAction, g: str) -> Array:
    """F_{g^-1}^T a_g^{-1} conj(F_g), the inverse of ``alpha_operator`` on
    D_g, shape (n_{s(g)}^2, n_{r(g)}^2); a_g must be invertible."""
    fg, fgi = _frame(T, g), _frame(T, T.groupoid.inv[g])
    if fg.shape[0] == 0:
        return np.zeros((fgi.shape[1], fg.shape[1]), dtype=np.complex128)
    return fgi.T @ np.linalg.solve(T.alpha[g], fg.conj())


# -- stacked helpers -----------------------------------------------------------


def _frame(T: TwistedPartialAction, g: str) -> Array:
    return la.flatten_stack(T.ideal_basis[g])


def _t(a: Array) -> Array:
    """Transpose of each matrix of a stack."""
    return np.swapaxes(a, -1, -2)


def _expand(frames: Array, vectors: Array) -> tuple[Array, Array, Array]:
    """Coordinates (..., m, r) of the rows of ``vectors`` (..., m, d) in the
    orthonormal rows of ``frames`` (..., r, d), the residual norms (..., m)
    off their span and the norms (..., m) of the rows."""
    coords = vectors @ _t(frames).conj()
    diff = vectors - coords @ frames
    return coords, np.linalg.norm(diff, axis=-1), np.linalg.norm(vectors, axis=-1)


def _intersections(T: TwistedPartialAction, rtol: float) -> dict[tuple[str, str], Array]:
    """Frame of D_{g^-1} ∩ D_h, keyed (g^-1, h), for every composable pair
    (g, h); the same table holds D_g ∩ D_{gh} under (g, gh)."""
    G = T.groupoid
    keys = [(G.inv[g], h) for g, h in composable_pairs(G)]
    return dict(zip(keys, la.frame_intersections(
        [(_frame(T, a), _frame(T, b)) for a, b in keys], rtol)))


def _units(stacks: list[Array], labels: list[str]) -> list[Array]:
    """The unit matrix of the span of each stack (d, n, n), zero for d = 0;
    the first span without a two-sided unit raises, named by its label."""
    out = []
    for s, c, label in zip(stacks, la.algebra_units(stacks), labels):
        if c is None:
            raise ValueError(f"{label} has no unit")
        out.append((c @ la.flatten_stack(s)).reshape(s.shape[1:]))
    return out


def _intersection_units(T: TwistedPartialAction, inter: dict[tuple[str, str], Array],
                        pairs: list[tuple[str, str]]) -> dict[tuple[str, str], Array]:
    """Unit of D_g ∩ D_{gh} for each listed pair (g, h), from ``_intersections``."""
    G = T.groupoid
    stacks = [inter[(g, G.comp[(g, h)])].reshape(-1, T.n_at(G.rng[g]), T.n_at(G.rng[g]))
              for g, h in pairs]
    return dict(zip(pairs, _units(stacks, [f"intersection ideal at ({g},{h})"
                                           for g, h in pairs])))


# -- validation ------------------------------------------------------------------

_FINITE = "finite entries"


def _non_finite(T: TwistedPartialAction, rep: ValidationReport) -> None:
    G = T.groupoid
    for x in G.objects:
        if not np.isfinite(T.fibers[x].basis).all():
            rep.add(_FINITE, f"object {x}", detail="fibre basis")
    for g in G.arrows:
        for label, data in (("ideal basis", T.ideal_basis[g]), ("alpha", T.alpha[g])):
            if not np.isfinite(data).all():
                rep.add(_FINITE, f"arrow {g}", detail=label)
    for g, h in composable_pairs(G):
        if not np.isfinite(T.w[(g, h)]).all():
            rep.add(_FINITE, f"({g},{h})", detail="w")


def _ideal_residuals(B: Array, Fb: Array) -> tuple[Array, Array, Array]:
    """For ideal bases B (t, k, n, n) in fibres with bases Fb (t, d, n, n):
    the residuals (t, k) of B off the fibre, and the residuals and norms
    (t, k, d, 2) of b B and B b (b in Fb) off span(B)."""
    t, k, n = B.shape[:3]
    d = Fb.shape[1]
    fB = B.reshape(t, k, n * n)
    _, inside, _ = _expand(Fb.reshape(t, d, n * n), fB)
    left = np.matmul(Fb[:, None], B[:, :, None])          # (t, k, d, n, n)
    right = np.matmul(B[:, :, None], Fb[:, None])
    prods = np.stack([left, right], axis=3).reshape(t, k * d * 2, n * n)
    _, res, norms = _expand(fB, prods)
    return inside, res.reshape(t, k, d, 2), norms.reshape(t, k, d, 2)


def _star_mult_residuals(Bgi: Array, A: Array) -> tuple[Array, Array, Array]:
    """For domain bases a_i = Bgi (t, k, n, n) and operators A (t, N, n^2):
    |a_g(a_i^*) - a_g(a_i)^*| (t, k), and |a_g(a_i a_j) - a_g(a_i) a_g(a_j)|
    with |a_g(a_i) a_g(a_j)| (t, k, k)."""
    t, k, n = Bgi.shape[:3]
    m = math.isqrt(A.shape[1])
    At = _t(A)
    img = (Bgi.reshape(t, k, n * n) @ At).reshape(t, k, m, m)
    img_star = (_t(Bgi).conj().reshape(t, k, n * n) @ At).reshape(t, k, m, m)
    star = np.linalg.norm(img_star - _t(img).conj(), axis=(-2, -1))
    prods = np.matmul(Bgi[:, :, None], Bgi[:, None]).reshape(t, k * k, n * n)
    lhs = (prods @ At).reshape(t, k, k, m, m)
    rhs = np.matmul(img[:, :, None], img[:, None])
    return star, np.linalg.norm(lhs - rhs, axis=(-2, -1)), np.linalg.norm(rhs, axis=(-2, -1))


def _pair_residuals(w, tgt, q, dom, Ag, Ah, Ahi, Agh, Fgh, rtol):
    """Per composable pair (g, h), stacked: w (n, n) against D_g ∩ D_{gh}
    (frame tgt, unit q); conditions 6 and 7 on the rows of
    dom = D_{g^-1} ∩ D_h; and whether a_g(dom) spans tgt."""
    t, n = w.shape[:2]
    r = dom.shape[1]
    _, supported, wnorm = _expand(tgt, w.reshape(t, 1, n * n))
    ws = _t(w).conj()
    unitary = np.linalg.norm(np.stack([w @ ws - q, ws @ w - q], axis=1), axis=(-2, -1))
    img = dom @ _t(Ag)                                       # a_g(b), (t, r, n^2)
    _, c6, c6_norm = _expand(Fgh, img)
    a = dom @ _t(Ahi)                                        # a_{h^-1}(b)
    lhs = (a @ _t(Ah) @ _t(Ag)).reshape(t, r, n, n)
    rhs = w[:, None] @ (a @ _t(Agh)).reshape(t, r, n, n) @ ws[:, None]
    c7 = np.linalg.norm(lhs - rhs, axis=(-2, -1))
    vh, rank = la.stacked_orth_rows(img, rtol)
    spans = la.stacked_frame_eq(vh, rank, tgt, np.full(t, tgt.shape[1]), 1e-7)
    return (supported[:, 0], wnorm[:, 0], unitary, c6, c6_norm, c7,
            np.linalg.norm(lhs, axis=(-2, -1)), spans, rank)


def _cocycle_residuals(a, Ag, w_hk, w_g_hk, w_gh, w_gh_k):
    """|a_g(a w(h,k)) w(g,hk) - a_g(a) w(g,h) w(gh,k)| and |rhs| for the rows
    a of D_{g^-1} ∩ D_h ∩ D_{hk}, (t, r) each."""
    t, r = a.shape[:2]
    ns, n = w_hk.shape[-1], w_gh.shape[-1]
    a = a.reshape(t, r, ns, ns)
    At = _t(Ag)
    lhs = ((a @ w_hk[:, None]).reshape(t, r, ns * ns) @ At).reshape(t, r, n, n) @ w_g_hk[:, None]
    rhs = (a.reshape(t, r, ns * ns) @ At).reshape(t, r, n, n) @ w_gh[:, None] @ w_gh_k[:, None]
    return np.linalg.norm(lhs - rhs, axis=(-2, -1)), np.linalg.norm(rhs, axis=(-2, -1))


def validate_action(T: TwistedPartialAction, tols: Tolerances = DEFAULT) -> ValidationReport:
    """Axioms 5-8 on basis elements, plus *-isomorphism checks; the derived
    identities are reported as diagnostics in the notes.  Non-finite input is
    reported (``finite entries``) and nothing else is checked."""
    G = T.groupoid
    tol, rtol = tols.tolerance, tols.rank_threshold
    rep = ValidationReport("twisted partial action")
    _non_finite(T, rep)
    if not rep.ok:
        return rep
    for g in G.arrows:
        want = (T.ideal_dim(g), T.ideal_dim(G.inv[g]))
        if np.shape(T.alpha[g]) != want:
            raise ValueError(f"alpha at {g} has shape {np.shape(T.alpha[g])}, want {want}")
    pairs, triples = composable_pairs(G), composable_triples(G)
    B = T.ideal_basis
    frames = {g: _frame(T, g) for g in G.arrows}
    ops = {g: alpha_operator(T, g) for g in G.arrows}
    inter = _intersections(T, rtol)
    dom = {(g, h): inter[(G.inv[g], h)] for g, h in pairs}
    tgt = {(g, h): inter[(g, G.comp[(g, h)])] for g, h in pairs}

    # ideals sit inside the fibre algebras and absorb multiplication
    # size: the k_g . d . 2 products b B, B b
    rows = la.stacked([(B[g], T.fibers[G.rng[g]].basis) for g in G.arrows], _ideal_residuals,
                      lambda s: 2 * s[0][0] * math.prod(s[1]))
    for g, (inside, res, norms) in zip(G.arrows, rows):
        bad = ~(res <= tol * np.maximum(1.0, norms))
        for i in np.flatnonzero(~(inside <= tol) | bad.any(axis=(1, 2))):
            rep.check_residual(inside[i], tol, "ideal inside fibre algebra", f"D_{g}[{i}]")
            for b, side in zip(*np.nonzero(bad[i])):
                rep.add(f"ideal absorbs {('left', 'right')[side]} multiplication",
                        f"D_{g}[{i}]", float(res[i, b, side]))

    # condition 5: units
    for x in G.objects:
        u = G.unit[x]
        F = T.fibers[x]
        ok = la.frame_eq(frames[u], F.basis.reshape(F.dim, -1), tol)
        rep.require(ok, "D at unit equals fibre algebra", f"object {x}")
        res = float(np.linalg.norm(T.alpha[u] - np.eye(T.ideal_dim(u))))
        rep.check_residual(res, tol, "alpha at unit is identity", f"object {x}")
    for g, pg in zip(G.arrows, _units([B[g] for g in G.arrows],
                                      [f"ideal at {g}" for g in G.arrows])):
        us, ur = G.unit[G.src[g]], G.unit[G.rng[g]]
        for key, label in (((g, us), "w(g, unit)"), ((ur, g), "w(unit, g)")):
            res = float(np.linalg.norm(T.w[key] - pg))
            rep.check_residual(res, tol, f"normalisation {label} = 1", f"arrow {g}")

    # alpha is a *-isomorphism D_{g^-1} -> D_g
    square = [g for g in G.arrows if T.ideal_dim(g) == T.ideal_dim(G.inv[g]) > 0]
    ranks = {g: rank for g, (rank,) in zip(square, la.stacked(
        [(T.alpha[g],) for g in square], lambda a: la.stacked_orth_rows(a, rtol)[1:]))}
    invertible = [g for g in G.arrows if T.ideal_dim(g) == T.ideal_dim(G.inv[g])
                  and ranks.get(g, 0) == T.ideal_dim(g)]
    # size: the k^2 products a_i a_j and their images
    alpha_rows = dict(zip(invertible, la.stacked([(B[G.inv[g]], ops[g]) for g in invertible],
                                                 _star_mult_residuals,
                                                 lambda s: s[0][0] ** 2 * max(s[1]))))
    for g in G.arrows:
        gi = G.inv[g]
        kg, kgi = T.ideal_dim(g), T.ideal_dim(gi)
        if kg != kgi:
            rep.add("alpha domain/codomain dimensions", f"arrow {g}",
                    detail=f"dim D_{g}={kg}, dim D_{gi}={kgi}")
            continue
        if g not in alpha_rows:
            rep.add("alpha invertible", f"arrow {g}")
            continue
        star, mult, rhs = alpha_rows[g]
        bad = ~(mult <= tol * np.maximum(1.0, rhs))
        for i in np.flatnonzero(~(star <= tol) | bad.any(axis=1)):
            rep.check_residual(star[i], tol, "alpha star-preserving", f"{g}, basis {i}")
            for j in np.flatnonzero(bad[i]):
                rep.add("alpha multiplicative", f"{g}, basis ({i},{j})", float(mult[i, j]))

    # w unitary in its ideal; conditions 6 and 7; the derived domain identity
    units = _intersection_units(T, inter, pairs)
    pair_rows = la.stacked(
        [(T.w[p], tgt[p], units[p], dom[p], ops[p[0]], ops[p[1]], ops[G.inv[p[1]]],
          ops[G.comp[p]], frames[G.comp[p]]) for p in pairs],
        lambda *arrays: _pair_residuals(*arrays, rtol))
    for (g, h), (supported, wnorm, unitary, *_) in zip(pairs, pair_rows):
        rep.check_residual(supported, tol * max(1.0, float(wnorm)),
                           "w supported on intersection ideal", f"({g},{h})")
        if tgt[(g, h)].shape[0]:
            for res, side in zip(unitary, ("w w*", "w* w")):
                rep.check_residual(res, tol, f"unitarity {side} = unit", f"({g},{h})")
    for (g, h), (_, _, _, res, norms, *_) in zip(pairs, pair_rows):      # condition 6
        for i in np.flatnonzero(~(res <= tol * np.maximum(1.0, norms))):
            rep.add("alpha_g(D_{g^-1} ∩ D_h) inside D_{gh}", f"({g},{h})", float(res[i]))
    for (g, h), (*_, res, norms, _, _) in zip(pairs, pair_rows):         # condition 7
        for i in np.flatnonzero(~(res <= tol * np.maximum(1.0, norms))):
            rep.add("twisted composition alpha_g alpha_h = Ad(w) alpha_{gh}", f"({g},{h})",
                    float(res[i]))

    # condition 8 (cocycle identity on the stated domain)
    frames3 = la.frame_intersections(
        [(dom[(g, h)], frames[G.comp[(h, k)]]) for g, h, k in triples], rtol)
    rows = la.stacked(
        [(a, ops[g], T.w[(h, k)], T.w[(g, G.comp[(h, k)])], T.w[(g, h)],
          T.w[(G.comp[(g, h)], k)]) for a, (g, h, k) in zip(frames3, triples)],
        _cocycle_residuals)
    for (g, h, k), (res, norms) in zip(triples, rows):
        for i in np.flatnonzero(~(res <= tol * (np.maximum(1.0, norms + 1.0)))):
            rep.add("cocycle identity", f"({g},{h},{k})", float(res[i]))

    # derived diagnostics (failures signal numerical trouble, not user error)
    for (g, h), (*_, spans, rank) in zip(pairs, pair_rows):
        if not spans:
            rep.note(f"derived domain identity failed at ({g},{h}): "
                     f"alpha_g(D_g^-1 ∩ D_h) has dim {rank}, "
                     f"D_g ∩ D_gh has dim {tgt[(g, h)].shape[0]}")
    for g in G.arrows:
        gi = G.inv[g]
        wg = T.w[(gi, g)]
        res = float(np.linalg.norm(ops[g] @ wg.reshape(-1) - T.w[(g, gi)].reshape(-1)))
        if res > 1e-7:
            rep.note(f"derived unitary identity alpha_g(w(g^-1,g)) = w(g,g^-1) "
                     f"failed at {g} (residual {res:.3e})")
        if g not in invertible or not T.ideal_dim(g):
            continue
        ns = T.n_at(G.src[g])
        lhs = (frames[g] @ ops[gi].T).reshape(-1, ns, ns)
        rhs = wg @ (frames[g] @ alpha_inverse_operator(T, g).T).reshape(-1, ns, ns) @ wg.conj().T
        res = np.linalg.norm(lhs - rhs, axis=(-2, -1))
        bound = 1e-7 * np.maximum(1.0, np.linalg.norm(rhs, axis=(-2, -1)))
        for i in np.flatnonzero(res > bound):
            rep.note(f"derived inverse identity failed at {g}[{i}] (residual {res[i]:.3e})")
    return rep


# -- compilation and reconstruction ------------------------------------------------


def _products(Bg, Bh, Ag, Ag_inv, w, Fgh):
    """Coordinates (t, k_gh, k_g, k_h) in D_{gh} of a_g(a_g^{-1}(a_i) b_j) w
    for the bases a_i of D_g and b_j of D_h, with the residuals and norms
    (t, k_g, k_h) of the products off D_{gh}."""
    t, kg, n = Bg.shape[:3]
    kh, ns = Bh.shape[1:3]
    pulled = (Bg.reshape(t, kg, n * n) @ _t(Ag_inv)).reshape(t, kg, ns, ns)
    prods = np.matmul(pulled[:, :, None], Bh[:, None]).reshape(t, kg * kh, ns * ns)
    img = ((prods @ _t(Ag)).reshape(t, kg * kh, n, n) @ w[:, None]).reshape(t, kg * kh, n * n)
    coords, res, norms = _expand(Fgh, img)
    k = Fgh.shape[1]
    return (np.moveaxis(coords.reshape(t, kg, kh, k), 3, 1),
            res.reshape(t, kg, kh), norms.reshape(t, kg, kh))


def _involutes(Bg, Ag_inv, w_star, Fgi):
    """Coordinates (t, k_{g^-1}, k_g) in D_{g^-1} of a_g^{-1}(a_i^*) w(g^-1,g)^*
    for the basis a_i of D_g, with their residuals and norms (t, k_g)."""
    t, k, n = Bg.shape[:3]
    ns = w_star.shape[-1]
    img = (_t(Bg).conj().reshape(t, k, n * n) @ _t(Ag_inv)).reshape(t, k, ns, ns)
    coords, res, norms = _expand(Fgi, (img @ w_star[:, None]).reshape(t, k, ns * ns))
    return _t(coords), res, norms


def _first_failure(res: Array, norms: Array, rel: float) -> tuple | None:
    """Index of the first entry (in C order) with res > rel * max(1, norm)."""
    bad = np.argwhere(res > rel * np.maximum(1.0, norms))
    return tuple(bad[0]) if bad.size else None


def compile_to_fell_bundle(T: TwistedPartialAction, tols: Tolerances = DEFAULT,
                           name: str | None = None) -> FellBundle:
    """Fell bundle of a validated twisted partial action.

    Fibres are the ideals D_g in their stored bases; the concrete left-ideal
    presentation is attached for reconstruction.  Each structure tensor is
    one contraction through the α-operators of its pair or arrow.
    """
    check = validate_action(T, tols)
    if not check.ok:
        raise ValueError("invalid twisted partial action:\n" + check.summary())
    G = T.groupoid
    B = T.ideal_basis
    dims = {g: T.ideal_dim(g) for g in G.arrows}
    frames = {g: _frame(T, g) for g in G.arrows}
    ops = {g: alpha_operator(T, g) for g in G.arrows}
    inv_ops = {g: alpha_inverse_operator(T, g) for g in G.arrows}
    pairs = composable_pairs(G)
    mult = {}
    # size: the k_g . k_h products and their images
    rows = la.stacked([(B[g], B[h], ops[g], inv_ops[g], T.w[(g, h)], frames[G.comp[(g, h)]])
                       for g, h in pairs], _products, lambda s: s[0][0] * s[1][0] * max(s[2]))
    for (g, h), (tensor, res, norms) in zip(pairs, rows):
        bad = _first_failure(res, norms, 1e-7)
        if bad is not None:
            raise ValueError(f"product left D_{G.comp[(g, h)]} (residual {res[bad]:.3e})")
        mult[(g, h)] = np.ascontiguousarray(tensor)
    inv = {}
    rows = la.stacked([(B[g], inv_ops[g], T.w[(G.inv[g], g)].conj().T, frames[G.inv[g]])
                       for g in G.arrows], _involutes)
    for g, (mat, res, norms) in zip(G.arrows, rows):
        bad = _first_failure(res, norms, 1e-7)
        if bad is not None:
            raise ValueError(f"involute left D_{G.inv[g]} (residual {res[bad]:.3e})")
        inv[g] = np.ascontiguousarray(mat)
    unit_rep = {x: B[G.unit[x]] for x in G.objects}
    return FellBundle(G, dims, mult, inv, unit_rep,
                      left_ideal_model={g: B[g] for g in G.arrows},
                      name=name or "compiled twisted partial action")


def _left_module(U, P, M, F):
    """For unit-fibre matrices U (t, d, n, n), a presented fibre P (t, k, n, n)
    with flat frame F and the bundle's left action M = mult[(u, g)]
    (t, k, d, k): residuals and norms (t, d, k) of U_i P_j off span(P), and
    |M[:, i, j] - coords(U_i P_j)|."""
    t, d, n = U.shape[:3]
    k = P.shape[1]
    prods = np.matmul(U[:, :, None], P[:, None]).reshape(t, d * k, n * n)
    coords, res, norms = _expand(F, prods)
    direct = coords.reshape(t, d, k, k)
    gap = np.linalg.norm(np.moveaxis(M, 1, 3) - direct, axis=-1)
    return res.reshape(t, d, k), norms.reshape(t, d, k), gap


def _range_spans(M, inv, Pu, F, rtol):
    """Whether span(A_g A_g^*) (the products of the basis of A_g with the
    involutes of the basis, M = mult[(g, g^-1)] (t, d_u, k, k), inv (t, k, k),
    in the range unit fibre Pu (t, d_u, N)) equals span(F), F (t, k, N)."""
    t, d, k, _ = M.shape
    vecs = np.einsum("tcim,tmj->tijc", M, inv).reshape(t, k * k, d) @ Pu
    vh, rank = la.stacked_orth_rows(vecs, rtol)
    fh, frank = la.stacked_orth_rows(F)
    return (la.stacked_frame_eq(vh, rank, fh, frank, 1e-7),)


def _w_solutions(dom, Ag, inter, Fh, M, unit_c, Fgh, rtol):
    """The linear system for w(g,h) on the rows b of D_{g^-1} ∩ D_h:
    columns vec(a_g(b) q_m) over the basis q_m of D_g ∩ D_{gh}, right-hand
    side vec(1_g . b) from M = mult[(g, h)]; its least-squares coefficients
    (t, m), residual and right-hand side norms (t,), and rank (rtol s_0 cut)."""
    t, r = dom.shape[:2]
    m = inter.shape[1]
    n = math.isqrt(Ag.shape[1])
    cb = (dom @ _t(Ag)).reshape(t, r, n, n)
    q = inter.reshape(t, m, n, n)
    system = np.moveaxis(np.matmul(cb[:, :, None], q[:, None]).reshape(t, r, m, n * n), 2, 3)
    b_coords = dom @ _t(Fh).conj()                            # (t, r, k_h)
    prod = np.einsum("tcij,ti,tbj->tbc", M, unit_c, b_coords)  # (t, r, k_gh)
    target = (prod @ Fgh).reshape(t, r * n * n)
    coeff, res, s = la.stacked_lstsq(system.reshape(t, r * n * n, m), target)
    return coeff, res, la.row_norms(target), np.sum(s > rtol * s[:, :1], axis=1)


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
    P = {g: bundle.left_ideal_model[g] for g in G.arrows}
    F = {g: la.flatten_stack(P[g]) for g in G.arrows}
    U = {g: G.unit[G.rng[g]] for g in G.arrows}

    ranked = [g for g in G.arrows if P[g].shape[0] == bundle.dims[g]]
    # size: the d_u . k products U_i P_j
    rows = dict(zip(ranked, la.stacked(
        [(bundle.unit_rep[G.rng[g]], P[g], bundle.mult[(U[g], g)], F[g]) for g in ranked],
        _left_module, lambda s: s[0][0] * math.prod(s[1]))))
    for g in G.arrows:
        if g not in rows:
            raise ValueError(f"presentation at {g} has wrong rank")
        res, norms, gap = rows[g]
        left = res > 1e-7 * np.maximum(1.0, norms)
        bad = np.argwhere(left | (gap > 1e-7))
        if bad.size:
            i, j = bad[0]
            if left[i, j]:
                raise ValueError(f"presented fibre at {g} is not a left ideal "
                                 f"(residual {res[i, j]:.3e})")
            raise ValueError(f"left module structure at {g} is not "
                             "multiplication in the range fibre")

    fibers = {x: UnitFiberAlgebra(bundle.unit_dim(x), bundle.unit_rep[x])
              for x in G.objects}
    shell = TwistedPartialAction(G, fibers, P,
                                 {g: np.eye(bundle.dims[g], dtype=np.complex128)
                                  for g in G.arrows}, {})

    # range ideals D_g = span(A_g A_g*) must match the presentation
    # size: the k^2 products of A_g A_g^*, as matrices
    spans = la.stacked([(bundle.mult[(g, G.inv[g])], bundle.inv[g], F[U[g]], F[g])
                        for g in G.arrows],
                       lambda M, inv, Pu, Fg: _range_spans(M, inv, Pu, Fg, tols.rank_threshold),
                       lambda s: math.prod(s[1]) * s[2][1])
    for g, (ok,) in zip(G.arrows, spans):
        if not ok:
            raise ValueError(f"span(A_g A_g*) differs from the presented ideal at {g}")

    units = dict(zip(G.arrows, la.algebra_units([P[g] for g in G.arrows])))
    alpha: dict[str, Array] = {}
    for g in G.arrows:
        gi, us = G.inv[g], G.unit[G.src[g]]
        alpha_g = np.zeros((bundle.dims[g], bundle.dims[gi]), dtype=np.complex128)
        if bundle.dims[g]:
            if units[g] is None:
                raise ValueError(f"presented ideal at {g} has no unit")
            a_coords, res, _ = _expand(F[us], F[gi])
            if (res > 1e-7).any():
                raise ValueError(f"D_{gi} does not sit inside the source fibre of {g}")
            alpha_g = np.einsum("cij,i,mj->cm", bundle.mult[(g, us)], units[g], a_coords)
        alpha[g] = alpha_g
    shell.alpha = alpha

    inter = _intersections(shell, tols.rank_threshold)
    ops = {g: alpha_operator(shell, g) for g in G.arrows}
    pairs = [(g, h) for g, h in composable_pairs(G) if inter[(g, G.comp[(g, h)])].shape[0]]
    # size: the r * m products a_g(b) q_m
    solved = dict(zip(pairs, la.stacked(
        [(inter[(G.inv[g], h)], ops[g], inter[(g, G.comp[(g, h)])], F[h], bundle.mult[(g, h)],
          units[g], F[G.comp[(g, h)]]) for g, h in pairs],
        lambda *arrays: _w_solutions(*arrays, tols.rank_threshold),
        lambda s: s[0][0] * math.prod(s[2]))))
    w: dict[tuple[str, str], Array] = {}
    for g, h in composable_pairs(G):
        n = bundle.unit_dim(G.rng[g])
        stack = inter[(g, G.comp[(g, h)])].reshape(-1, n, n)
        if (g, h) not in solved:
            w[(g, h)] = np.zeros((n, n), dtype=np.complex128)
            continue
        coeff, res, norm, rank = solved[(g, h)]
        if rank < stack.shape[0]:
            raise ValueError(f"w({g},{h}) is underdetermined "
                             "(intersection ideal mismatch)")
        if res > 1e-6 * max(1.0, float(norm)):
            raise ValueError(f"product formula inconsistent at ({g},{h}) "
                             f"(residual {res:.3e})")
        w[(g, h)] = la.stack_combine(stack, coeff)
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
    rtol = tols.rank_threshold
    new_fibers = {}
    fam_frame = {}
    for x in G.objects:
        n = T.n_at(x)
        stack = la.stack_orth([la.as_complex(m) for m in family.get(x, [])], n, n, rtol)
        new_fibers[x] = UnitFiberAlgebra(n, stack)
        fam_frame[x] = la.flatten_stack(stack)

    ops = {g: alpha_operator(T, g) for g in G.arrows}
    s1 = la.frame_intersections([(_frame(T, g), fam_frame[G.rng[g]]) for g in G.arrows], rtol)
    dom = la.frame_intersections([(_frame(T, G.inv[g]), fam_frame[G.src[g]])
                                  for g in G.arrows], rtol)
    images = la.stacked([(d @ ops[g].T,) for g, d in zip(G.arrows, dom)],
                        lambda v: la.stacked_orth_rows(v, rtol))
    frames = la.frame_intersections(
        [(a, vh[:rank]) for a, (vh, rank) in zip(s1, images)], rtol)
    new_basis = {g: f.reshape(-1, T.n_at(G.rng[g]), T.n_at(G.rng[g]))
                 for g, f in zip(G.arrows, frames)}
    for x in G.objects:
        new_basis[G.unit[x]] = new_fibers[x].basis

    alpha = {}
    for g in G.arrows:
        img = la.flatten_stack(new_basis[G.inv[g]]) @ ops[g].T
        coords, res, norms = _expand(la.flatten_stack(new_basis[g]), img)
        if (res > 1e-7 * np.maximum(1.0, norms)).any():
            raise ValueError(f"restricted domain at {g} is not alpha-closed")
        alpha[g] = np.ascontiguousarray(coords.T)

    shell = TwistedPartialAction(G, new_fibers, new_basis, alpha, {})
    pairs = composable_pairs(G)
    units = _intersection_units(shell, _intersections(shell, rtol), pairs)
    shell.w = {p: units[p] @ T.w[p] @ units[p] for p in pairs}
    return shell
