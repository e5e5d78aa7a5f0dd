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
stack of matrices maps with one matmul.

Each call stacks its operands once, in stores (``la.Stacks``, built by
``_tables``): per arrow the frames F_g, the operators A_g and the ideals D_g;
per composable pair (g, h) the intersections D_{g^-1} ∩ D_h (D_g ∩ D_{gh} is
the one at (g^-1, gh)), w and the units; per triple (D_{g^-1} ∩ D_h) ∩ D_{hk}.
Every stage (arrows, pairs, triples, the products and involutes of
``compile_to_fell_bundle``, the passes of ``reconstruct_action``) gathers its
operands from the stores by the index arrays of ``G.tables`` (``la.gathered``),
one stacked pass per group of items of equal shapes.  A stage flags its items
at once, and witnesses are read off the flagged items only, in the order of the
element-at-a-time loops kept in tests/test_action_witnesses.py.  Nothing is
kept on the action, and nothing is cached across calls: callers may replace
its maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

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
            if unknown := [g for g in table if g not in G.rng]:
                raise ValueError(f"{label}: unknown arrow {unknown[0]!r}")
        if stray := [key for key in w if key not in G.comp]:
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
                with np.errstate(over="ignore", invalid="ignore"):  # NaN fails the test below
                    gram = gram.conj() @ gram.T
                if not np.linalg.norm(gram - np.eye(stack.shape[0])) <= 1e-8:
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
        need = [key for key in pairs if key not in w or scalar[key]]
        units = dict(zip(pairs, _tables(act, rtol).units[len(G.arrows):])) if need else {}
        if unitless := [key for key in need if units[key] is None]:
            raise ValueError("intersection ideal at ({},{}) has no unit".format(*unitless[0]))
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
        """a_g^{-1} (matrix inverse of the stored map), D_g -> D_{g^-1}, through
        F_{g^-1}^T a_g^{-1} conj(F_g); a_g must be invertible."""
        fg, fgi = _frame(self, g), _frame(self, self.groupoid.inv[g])
        n = self.n_at(self.groupoid.src[g])
        if fg.shape[0] == 0:
            return np.zeros((n, n), dtype=np.complex128)
        op = fgi.T @ np.linalg.solve(self.alpha[g], fg.conj())
        return (op @ la.as_complex(mat).reshape(-1)).reshape(n, n)


def alpha_operator(T: TwistedPartialAction, g: str) -> Array:
    """A_g = F_g^T a_g conj(F_{g^-1}): vec(D_{g^-1}) -> vec(D_g), shape
    (n_{r(g)}^2, n_{s(g)}^2); zero off D_{g^-1}."""
    return _operator(T.alpha[g], _frame(T, g), _frame(T, T.groupoid.inv[g]))


def _operator(a: Array, fg: Array, fgi: Array) -> Array:
    return fg.T @ (a @ fgi.conj())


# -- the per-call table --------------------------------------------------------------


def _frame(T: TwistedPartialAction, g: str) -> Array:
    return la.flatten_stack(T.ideal_basis[g])


def _t(a: Array) -> Array:
    """Transpose of each matrix of a stack."""
    return a.swapaxes(-1, -2)


def _norms(a: Array, axis: int | tuple[int, int] = -1) -> Array:
    """``np.linalg.norm(a, axis=axis)`` (Frobenius norms over two axes), by
    its own arithmetic, without its argument handling."""
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=axis))


def _expand(frames: Array, vectors: Array) -> tuple[Array, Array, Array]:
    """Coordinates (..., m, r) of the rows of ``vectors`` (..., m, d) in the
    orthonormal rows of ``frames`` (..., r, d), the residual norms (..., m)
    off their span and the norms (..., m) of the rows."""
    coords = vectors @ _t(frames).conj()
    diff = vectors - coords @ frames
    return coords, _norms(diff), _norms(vectors)


@dataclass
class _Table:
    """What the checks of one action are built from, stacked once per call and
    read by the index arrays of ``G.tables``; a unit is None where there is none,
    and A_g^{-1} is zero where a_g is not invertible."""
    frames: la.Stacks       # per arrow F_g, (k_g, n_{r(g)}^2)
    ops: la.Stacks          # per arrow A_g
    inter: la.Stacks        # per pair (g, h) the frame of D_{g^-1} ∩ D_h
    tgt: Array              # per pair (g, h) the pair (g^-1, gh), where inter holds D_g ∩ D_{gh}
    ideals: la.Stacks       # per arrow D_g (k_g, n, n), then per pair (g, h) D_g ∩ D_{gh}
    units: list             # the unit (n, n) of each of those
    unit_store: la.Stacks   # the units, zero where there is none
    w: la.Stacks | None = None   # per pair w(g, h), from the validator
    inv_ops: list | None = None  # per arrow A_g^{-1}, from the validator


def _tables(T: TwistedPartialAction, rtol: float) -> _Table:
    """The table of T: frames, operators, pair intersections (two stacked passes)
    and the units of the ideals and of the D_g ∩ D_{gh} (one ``algebra_units`` pass)."""
    G, I = T.groupoid, T.groupoid.tables
    g, h = I.pairs.T
    frames = la.Stacks([_frame(T, a) for a in G.arrows])
    ops = la.Stacks([_operator(T.alpha[a], _frame(T, a), _frame(T, G.inv[a])) for a in G.arrows])
    inter = la.frame_intersections((frames, I.inv[g]), (frames, h), rtol)
    tgt = I.pair[I.inv[g], I.comp[g, h]]
    frame, n = list(inter), [T.n_at(x) for x in G.objects]
    stacks = [T.ideal_basis[a] for a in G.arrows] + [
        frame[q].reshape(-1, n[x], n[x]) for q, x in zip(tgt.tolist(), I.rng[g].tolist())]
    ideals = la.Stacks(stacks)
    units = [None if c is None else (c @ la.flatten_stack(s)).reshape(s.shape[1:])
             for s, c in zip(stacks, la.algebra_units(ideals))]
    return _Table(frames, ops, inter, tgt, ideals, units, la.Stacks(
        [np.zeros(s.shape[1:], dtype=np.complex128) if u is None else u
         for s, u in zip(stacks, units)]))


# -- validation ------------------------------------------------------------------

_FINITE = "finite entries"
_UNIT = "ideal has a two-sided unit"


def _non_finite(T: TwistedPartialAction, rep: ValidationReport) -> None:
    G = T.groupoid
    data = ([(f"object {x}", "fibre basis", T.fibers[x].basis) for x in G.objects]
            + [(f"arrow {g}", label, a) for g in G.arrows
               for label, a in (("ideal basis", T.ideal_basis[g]), ("alpha", T.alpha[g]))]
            + [(f"({g},{h})", "w", T.w[(g, h)]) for g, h in composable_pairs(G)])
    for where, label, a in data:
        if not np.isfinite(a).all():
            rep.add(_FINITE, where, detail=label)


def _any(mask: Array) -> Array:
    """Per item (first axis), whether any entry of the mask is set."""
    return mask.reshape(len(mask), -1).any(axis=1)


def _ideal_residuals(B: Array, Fb: Array, tol: float) -> tuple[Array, Array, Array, Array]:
    """For ideal bases B (t, k, n, n) in fibres with bases Fb (t, d, n, n):
    the residuals (t, k) of B off the fibre; the mask and the residuals
    (t, k, d, 2) of the products b B and B b (b in Fb) off span(B) beyond
    tol times max(1, their norm); and whether span(B) is the fibre, as
    ``la.frame_eq`` decides it."""
    t, k, n = B.shape[:3]
    d = Fb.shape[1]
    fB, fF = B.reshape(t, k, n * n), Fb.reshape(t, d, n * n)
    _, inside, size = _expand(fF, fB)
    left = np.matmul(Fb[:, None], B[:, :, None])          # (t, k, d, n, n)
    right = np.matmul(B[:, :, None], Fb[:, None])
    prods = np.stack([left, right], axis=3).reshape(t, k * d * 2, n * n)
    _, res, norms = _expand(fB, prods)
    res = res.reshape(t, k, d, 2)
    absorb = ~(res <= tol * np.maximum(1.0, norms.reshape(t, k, d, 2)))
    equal = np.zeros(t, dtype=bool)
    if k == d:
        _, back, back_size = _expand(fB, fF)
        equal = ((inside <= tol * np.maximum(1.0, size)).all(axis=1)
                 & (back <= tol * np.maximum(1.0, back_size)).all(axis=1))
    return inside, absorb, res, equal


def _star_mult_residuals(Bgi: Array, A: Array) -> tuple[Array, Array, Array]:
    """For domain bases a_i = Bgi (t, k, n, n) and operators A (t, N, n^2):
    |a_g(a_i^*) - a_g(a_i)^*| (t, k), and |a_g(a_i a_j) - a_g(a_i) a_g(a_j)|
    with |a_g(a_i) a_g(a_j)| (t, k, k)."""
    t, k, n = Bgi.shape[:3]
    m = math.isqrt(A.shape[1])
    At = _t(A)
    img = (Bgi.reshape(t, k, n * n) @ At).reshape(t, k, m, m)
    img_star = (_t(Bgi).conj().reshape(t, k, n * n) @ At).reshape(t, k, m, m)
    star = _norms(img_star - _t(img).conj(), (-2, -1))
    prods = np.matmul(Bgi[:, :, None], Bgi[:, None]).reshape(t, k * k, n * n)
    lhs = (prods @ At).reshape(t, k, k, m, m)
    rhs = np.matmul(img[:, :, None], img[:, None])
    return star, _norms(lhs - rhs, (-2, -1)), _norms(rhs, (-2, -1))


class _Arrow(NamedTuple):
    """What the validator finds at one arrow g (``_arrow_residuals``)."""
    inside: Array        # (k,) residuals of the basis of D_g off the fibre
    absorb: Array        # (k, d, 2) failed absorptions b B, B b
    absorb_res: Array    # (k, d, 2) their residuals
    ideal_bad: bool      # any of those
    equal: bool          # D_g is the fibre algebra
    alpha_unit: float    # |a_g - 1| (square a_g)
    rank: int            # of a_g
    star: Array          # (k,) star residuals of a_g
    mult_bad: Array      # (k, k) failed multiplicativity
    mult: Array          # (k, k) its residuals
    alpha_bad: bool      # any star or multiplicativity failure
    normal: Array        # (2,) |w(g, s(g)) - 1_g|, |w(r(g), g) - 1_g|
    unitary: float       # |a_g(w(g^-1, g)) - w(g, g^-1)|
    inv_op: Array        # A_g^{-1} where a_g is invertible (zero otherwise)
    inverse: Array       # (k,) derived inverse identity residuals
    inverse_bad: Array   # (k,) those beyond 1e-7 times max(1, |rhs|)


def _arrow_residuals(B, Fb, alpha, Bgi, A, Agi, w_s, w_r, unit, w_back, w_forth, tol, rtol):
    """Every check at an arrow g, stacked over arrows of equal shapes (one
    ``_Arrow`` per item), from: the bases B of D_g, Fb of the range fibre and
    Bgi of D_{g^-1}; a_g, A_g and A_{g^-1}; w(g, s(g)), w(r(g), g), the unit
    of D_g (zero if it has none), w(g^-1, g) and w(g, g^-1)."""
    t, k, n = B.shape[:3]
    kgi, ns = Bgi.shape[1:3]
    inside, absorb, absorb_res, equal = _ideal_residuals(B, Fb, tol)
    alpha_unit = (la.row_norms(alpha - np.eye(k)) if k == kgi
                  else np.full(t, np.nan))
    _, rank = la.stacked_orth_rows(alpha, rtol)
    star, mult, rhs = _star_mult_residuals(Bgi, A)
    mult_bad = ~(mult <= tol * np.maximum(1.0, rhs))
    # |w(g, s(g)) - 1_g|, |w(r(g), g) - 1_g| and |a_g(w(g^-1, g)) - w(g, g^-1)|
    normal = la.row_norms(np.stack([
        w_s - unit, w_r - unit,
        ((A @ w_back.reshape(t, -1, 1))[..., 0] - w_forth.reshape(t, -1)).reshape(t, n, n)],
        axis=1).reshape(3 * t, n, n)).reshape(t, 3)
    # A_g^{-1} and the derived inverse identity a_{g^-1}(b) = Ad(w(g^-1,g)) a_g^{-1}(b)
    # on the basis b of D_g, where a_g is invertible
    inv_op = np.zeros((t, ns * ns, n * n), dtype=np.complex128)
    inverse = np.zeros((t, k))
    inverse_bad = np.zeros((t, k), dtype=bool)
    ok = rank == k if k == kgi else np.zeros(t, dtype=bool)
    if k and ok.any():
        ok = slice(None) if ok.all() else ok
        fB = B[ok].reshape(-1, k, n * n)
        inv_op[ok] = _t(Bgi[ok].reshape(-1, k, ns * ns)) @ np.linalg.solve(alpha[ok], fB.conj())
        wg = w_back[ok]
        lhs = (fB @ _t(Agi[ok])).reshape(-1, k, ns, ns)
        rhs = wg[:, None] @ (fB @ _t(inv_op[ok])).reshape(-1, k, ns, ns) @ _t(wg.conj())[:, None]
        inverse[ok] = _norms(lhs - rhs, (-2, -1))
        inverse_bad[ok] = inverse[ok] > 1e-7 * np.maximum(1.0, _norms(rhs, (-2, -1)))
    return (inside, absorb, absorb_res, _any(~(inside <= tol)) | _any(absorb), equal,
            alpha_unit, rank, star, mult_bad, mult, _any(~(star <= tol)) | _any(mult_bad),
            normal[:, :2], normal[:, 2], inv_op, inverse, inverse_bad)


def _pair_residuals(w, tgt, q, dom, Ag, Ah, Ahi, Agh, Fgh, tol, rtol):
    """Per composable pair (g, h), stacked: w (n, n) against D_g ∩ D_{gh}
    (frame tgt, unit q); conditions 6 and 7 on the rows of
    dom = D_{g^-1} ∩ D_h; whether a_g(dom) spans tgt; and per group of
    checks whether any residual exceeds its bound."""
    t, n = w.shape[:2]
    r = dom.shape[1]
    _, supported, wnorm = _expand(tgt, w.reshape(t, 1, n * n))
    ws = _t(w).conj()
    unitary = _norms(np.stack([w @ ws - q, ws @ w - q], axis=1), (-2, -1))
    img = dom @ _t(Ag)                                       # a_g(b), (t, r, n^2)
    _, c6, c6_norm = _expand(Fgh, img)
    a = dom @ _t(Ahi)                                        # a_{h^-1}(b)
    lhs = (a @ _t(Ah) @ _t(Ag)).reshape(t, r, n, n)
    rhs = w[:, None] @ (a @ _t(Agh)).reshape(t, r, n, n) @ ws[:, None]
    c7 = _norms(lhs - rhs, (-2, -1))
    c7_norm = _norms(lhs, (-2, -1))
    vh, rank = la.stacked_orth_rows(img, rtol)
    spans = la.stacked_frame_eq(vh, rank, tgt, np.full(t, tgt.shape[1]), 1e-7)
    # unitarity is checked where the intersection is not zero
    bad = ~(supported[:, 0] <= tol * np.maximum(1.0, wnorm[:, 0]))
    if tgt.shape[1]:
        bad |= _any(~(unitary <= tol))
    return (supported[:, 0], wnorm[:, 0], unitary, bad,
            c6, c6_norm, _any(~(c6 <= tol * np.maximum(1.0, c6_norm))),
            c7, c7_norm, _any(~(c7 <= tol * np.maximum(1.0, c7_norm))), spans, rank)


class _Pair(NamedTuple):
    """What the validator finds at one composable pair (``_pair_residuals``)."""
    supported: float     # |w off D_g ∩ D_{gh}|
    wnorm: float         # |w|
    unitary: Array       # (2,) |w w* - 1|, |w* w - 1|
    w_bad: bool          # any of those beyond its bound
    c6: Array            # (r,) condition 6 residuals
    c6_norm: Array
    c6_bad: bool
    c7: Array            # (r,) condition 7 residuals
    c7_norm: Array
    c7_bad: bool
    spans: bool          # a_g(D_{g^-1} ∩ D_h) = D_g ∩ D_{gh}
    rank: int            # of a_g(D_{g^-1} ∩ D_h)


def _cocycle_residuals(a, Ag, w_hk, w_g_hk, w_gh, w_gh_k, tol):
    """|a_g(a w(h,k)) w(g,hk) - a_g(a) w(g,h) w(gh,k)| and |rhs| for the rows
    a of D_{g^-1} ∩ D_h ∩ D_{hk}, (t, r) each, and whether any exceeds its
    bound."""
    t, r = a.shape[:2]
    ns, n = w_hk.shape[-1], w_gh.shape[-1]
    a = a.reshape(t, r, ns, ns)
    At = _t(Ag)
    lhs = ((a @ w_hk[:, None]).reshape(t, r, ns * ns) @ At).reshape(t, r, n, n) @ w_g_hk[:, None]
    rhs = (a.reshape(t, r, ns * ns) @ At).reshape(t, r, n, n) @ w_gh[:, None] @ w_gh_k[:, None]
    res, norms = _norms(lhs - rhs, (-2, -1)), _norms(rhs, (-2, -1))
    return res, norms, _any(~(res <= tol * (np.maximum(1.0, norms + 1.0))))


def validate_action(T: TwistedPartialAction, tols: Tolerances = DEFAULT) -> ValidationReport:
    """Axioms 5-8 on basis elements, plus *-isomorphism checks; the derived
    identities are reported as diagnostics in the notes.  Non-finite input is
    reported (``finite entries``) and nothing else is checked; an ideal or
    intersection without a two-sided unit is reported, and only the checks
    that need that unit are skipped."""
    return _validated(T, tols)[0]


@np.errstate(over="ignore", invalid="ignore")  # the report names a residual that overflows
def _validated(T: TwistedPartialAction, tols: Tolerances) -> tuple[ValidationReport,
                                                                   _Table | None]:
    """``validate_action``'s report, with the table it was checked on (None
    for non-finite input); the table holds A_g^{-1} wherever a_g is
    invertible.  One stacked pass per stage (arrows, pairs, triples); each
    stage flags its items at once, and only the flagged ones are walked for
    witnesses, in the order of the element-at-a-time checks."""
    G = T.groupoid
    tol, rtol = tols.tolerance, tols.rank_threshold
    rep = ValidationReport("twisted partial action")
    _non_finite(T, rep)
    if not rep.ok:
        return rep, None
    for g in G.arrows:
        want = (T.ideal_dim(g), T.ideal_dim(G.inv[g]))
        if np.shape(T.alpha[g]) != want:
            raise ValueError(f"alpha at {g} has shape {np.shape(T.alpha[g])}, want {want}")
    pairs = composable_pairs(G)
    tab = _tables(T, rtol)
    I, arrows, at = G.tables, np.arange(len(G.arrows)), np.arange(len(pairs))
    pg, ph = I.pairs.T
    units = dict(zip([*G.arrows, *pairs], tab.units))
    tgt_dim = dict(zip(pairs, tab.inter.sizes()[tab.tgt]))
    tab.w = la.Stacks([T.w[p] for p in pairs])

    # size: the k_g . d . 2 products b B, B b, or the k^2 products a_i a_j and their images
    arrow = {a: _Arrow(*row) for a, row in zip(G.arrows, la.stacked(
        [(tab.ideals, arrows), (la.Stacks([T.fibers[x].basis for x in G.objects]), I.rng),
         (la.Stacks([T.alpha[g] for g in G.arrows]), arrows), (tab.ideals, I.inv),
         (tab.ops, arrows), (tab.ops, I.inv), (tab.w, I.pair[arrows, I.unit[I.src]]),
         (tab.w, I.pair[I.unit[I.rng], arrows]), (tab.unit_store, arrows),
         (tab.w, I.pair[I.inv, arrows]), (tab.w, I.pair[arrows, I.inv])],
        lambda *arrays: _arrow_residuals(*arrays, tol, rtol),
        lambda s: max(2 * s[0][0] * math.prod(s[1]), s[3][0] ** 2 * max(s[4]))))}

    # ideals sit inside the fibre algebras and absorb multiplication
    for g, a in arrow.items():
        if not a.ideal_bad:
            continue
        for i in np.flatnonzero(~(a.inside <= tol) | a.absorb.any(axis=(1, 2))):
            rep.check_residual(a.inside[i], tol, "ideal inside fibre algebra", f"D_{g}[{i}]")
            for b, side in zip(*np.nonzero(a.absorb[i])):
                rep.add(f"ideal absorbs {('left', 'right')[side]} multiplication",
                        f"D_{g}[{i}]", float(a.absorb_res[i, b, side]))

    # condition 5: units
    for x in G.objects:
        a = arrow[G.unit[x]]
        rep.require(a.equal, "D at unit equals fibre algebra", f"object {x}")
        rep.check_residual(a.alpha_unit, tol, "alpha at unit is identity", f"object {x}")
    for g, a in arrow.items():
        if units[g] is None:
            rep.add(_UNIT, f"arrow {g}")
            continue
        for res, label in zip(a.normal, ("w(g, unit)", "w(unit, g)")):
            rep.check_residual(res, tol, f"normalisation {label} = 1", f"arrow {g}")

    # alpha is a *-isomorphism D_{g^-1} -> D_g
    invertible = set()
    for g, a in arrow.items():
        gi = G.inv[g]
        kg, kgi = T.ideal_dim(g), T.ideal_dim(gi)
        if kg != kgi:
            rep.add("alpha domain/codomain dimensions", f"arrow {g}",
                    detail=f"dim D_{g}={kg}, dim D_{gi}={kgi}")
            continue
        if a.rank != kg:
            rep.add("alpha invertible", f"arrow {g}")
            continue
        invertible.add(g)
        if not a.alpha_bad:
            continue
        for i in np.flatnonzero(~(a.star <= tol) | a.mult_bad.any(axis=1)):
            rep.check_residual(a.star[i], tol, "alpha star-preserving", f"{g}, basis {i}")
            for j in np.flatnonzero(a.mult_bad[i]):
                rep.add("alpha multiplicative", f"{g}, basis ({i},{j})", float(a.mult[i, j]))
    tab.inv_ops = [a.inv_op for a in arrow.values()]

    # w unitary in its ideal; conditions 6 and 7; the derived domain identity
    pair = {p: _Pair(*row) for p, row in zip(pairs, la.stacked(
        [(tab.w, at), (tab.inter, tab.tgt), (tab.unit_store, len(arrows) + at), (tab.inter, at),
         (tab.ops, pg), (tab.ops, ph), (tab.ops, I.inv[ph]), (tab.ops, I.comp[pg, ph]),
         (tab.frames, I.comp[pg, ph])],
        lambda *arrays: _pair_residuals(*arrays, tol, rtol)))}
    for (g, h), p in pair.items():
        unitless = units[(g, h)] is None
        if not (p.w_bad or unitless):
            continue
        rep.check_residual(p.supported, tol * max(1.0, float(p.wnorm)),
                           "w supported on intersection ideal", f"({g},{h})")
        if unitless:
            rep.add(_UNIT, f"({g},{h})", detail=f"D_{g} ∩ D_{G.comp[(g, h)]}")
        elif tgt_dim[(g, h)]:
            for res, side in zip(p.unitary, ("w w*", "w* w")):
                rep.check_residual(res, tol, f"unitarity {side} = unit", f"({g},{h})")
    for (g, h), p in pair.items():                                      # condition 6
        if p.c6_bad:
            for i in np.flatnonzero(~(p.c6 <= tol * np.maximum(1.0, p.c6_norm))):
                rep.add("alpha_g(D_{g^-1} ∩ D_h) inside D_{gh}", f"({g},{h})", float(p.c6[i]))
    for (g, h), p in pair.items():                                      # condition 7
        if p.c7_bad:
            for i in np.flatnonzero(~(p.c7 <= tol * np.maximum(1.0, p.c7_norm))):
                rep.add("twisted composition alpha_g alpha_h = Ad(w) alpha_{gh}",
                        f"({g},{h})", float(p.c7[i]))

    # condition 8 (cocycle identity on the stated domain)
    tg, th, tk = I.triples().T
    gh, hk = I.pair[tg, th], I.comp[th, tk]
    rows = la.stacked(
        [(la.frame_intersections((tab.inter, gh), (tab.frames, hk), rtol), np.arange(len(tg))),
         (tab.ops, tg), (tab.w, I.pair[th, tk]), (tab.w, I.pair[tg, hk]), (tab.w, gh),
         (tab.w, I.pair[I.comp[tg, th], tk])],
        lambda *arrays: _cocycle_residuals(*arrays, tol))
    for t, (res, norms, flagged) in enumerate(rows):
        if flagged:
            where = ",".join(G.arrows[a] for a in (tg[t], th[t], tk[t]))
            for i in np.flatnonzero(~(res <= tol * (np.maximum(1.0, norms + 1.0)))):
                rep.add("cocycle identity", f"({where})", float(res[i]))

    # derived diagnostics (failures signal numerical trouble, not user error)
    for (g, h), p in pair.items():
        if not p.spans:
            rep.note(f"derived domain identity failed at ({g},{h}): "
                     f"alpha_g(D_g^-1 ∩ D_h) has dim {p.rank}, "
                     f"D_g ∩ D_gh has dim {tgt_dim[(g, h)]}")
    for g, a in arrow.items():
        if a.unitary > 1e-7:
            rep.note(f"derived unitary identity alpha_g(w(g^-1,g)) = w(g,g^-1) "
                     f"failed at {g} (residual {a.unitary:.3e})")
        if g in invertible:
            for i in np.flatnonzero(a.inverse_bad):
                rep.note(f"derived inverse identity failed at {g}[{i}] "
                         f"(residual {a.inverse[i]:.3e})")
    return rep, tab


# -- compilation and reconstruction ------------------------------------------------


def _products(Bg, Bh, Ag, Ag_inv, w, Fgh):
    """Coordinates (t, k_gh, k_g, k_h) in D_{gh} of a_g(a_g^{-1}(a_i) b_j) w
    for the bases a_i of D_g and b_j of D_h, with the residuals and norms
    (t, k_g, k_h) of the products off D_{gh}, and whether any residual
    exceeds 1e-7 times max(1, its norm)."""
    t, kg, n = Bg.shape[:3]
    kh, ns = Bh.shape[1:3]
    pulled = (Bg.reshape(t, kg, n * n) @ _t(Ag_inv)).reshape(t, kg, ns, ns)
    prods = np.matmul(pulled[:, :, None], Bh[:, None]).reshape(t, kg * kh, ns * ns)
    img = ((prods @ _t(Ag)).reshape(t, kg * kh, n, n) @ w[:, None]).reshape(t, kg * kh, n * n)
    coords, res, norms = _expand(Fgh, img)
    k = Fgh.shape[1]
    res, norms = res.reshape(t, kg, kh), norms.reshape(t, kg, kh)
    return (np.moveaxis(coords.reshape(t, kg, kh, k), 3, 1), res, norms,
            _any(res > 1e-7 * np.maximum(1.0, norms)))


def _involutes(Bg, Ag_inv, w_back, Fgi):
    """Coordinates (t, k_{g^-1}, k_g) in D_{g^-1} of a_g^{-1}(a_i^*) w_back^*
    for the basis a_i of D_g and w_back = w(g^-1,g), with their residuals and
    norms (t, k_g), and whether any residual exceeds 1e-7 times max(1, its norm)."""
    t, k, n = Bg.shape[:3]
    ns = w_back.shape[-1]
    w_star = np.ascontiguousarray(_t(w_back).conj())
    img = (_t(Bg).conj().reshape(t, k, n * n) @ _t(Ag_inv)).reshape(t, k, ns, ns)
    coords, res, norms = _expand(Fgi, (img @ w_star[:, None]).reshape(t, k, ns * ns))
    return _t(coords), res, norms, _any(res > 1e-7 * np.maximum(1.0, norms))


def _first_failure(res: Array, norms: Array, rel: float) -> tuple | None:
    """Index of the first entry (in C order) with res > rel * max(1, norm)."""
    bad = np.argwhere(res > rel * np.maximum(1.0, norms))
    return tuple(bad[0]) if bad.size else None


def compile_to_fell_bundle(T: TwistedPartialAction, tols: Tolerances = DEFAULT,
                           name: str | None = None) -> FellBundle:
    """Fell bundle of a validated twisted partial action.

    Fibres are the ideals D_g in their stored bases; the concrete left-ideal
    presentation is attached for reconstruction.  Each structure tensor is
    one contraction through the α-operators of its pair or arrow, taken
    from the table the validation built.
    """
    check, tab = _validated(T, tols)
    if not check.ok:
        raise ValueError("invalid twisted partial action:\n" + check.summary())
    return _compiled(T, tab, name)


def _compiled(T: TwistedPartialAction, tab: _Table, name: str | None) -> FellBundle:
    """``compile_to_fell_bundle`` of an action that passed validation, from
    the table of that validation."""
    G, I, B = T.groupoid, T.groupoid.tables, T.ideal_basis
    dims = {g: T.ideal_dim(g) for g in G.arrows}
    pairs, arrows = composable_pairs(G), np.arange(len(G.arrows))
    pg, ph = I.pairs.T
    mult, inv_ops = {}, la.Stacks(tab.inv_ops)
    # size: the k_g . k_h products and their images
    rows = la.stacked([(tab.ideals, pg), (tab.ideals, ph), (tab.ops, pg), (inv_ops, pg),
                       (tab.w, np.arange(len(pairs))), (tab.frames, I.comp[pg, ph])],
                      _products, lambda s: s[0][0] * s[1][0] * max(s[2]))
    for (g, h), (tensor, res, norms, flagged) in zip(pairs, rows):
        if flagged:
            bad = _first_failure(res, norms, 1e-7)
            raise ValueError(f"product left D_{G.comp[(g, h)]} (residual {res[bad]:.3e})")
        mult[(g, h)] = np.ascontiguousarray(tensor)
    inv = {}
    rows = la.stacked([(tab.ideals, arrows), (inv_ops, arrows), (tab.w, I.pair[I.inv, arrows]),
                       (tab.frames, I.inv)], _involutes)
    for g, (mat, res, norms, flagged) in zip(G.arrows, rows):
        if flagged:
            bad = _first_failure(res, norms, 1e-7)
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
    |M[:, i, j] - coords(U_i P_j)|, and whether any of them exceeds 1e-7
    (the residuals: times max(1, the norm))."""
    t, d, n = U.shape[:3]
    k = P.shape[1]
    prods = np.matmul(U[:, :, None], P[:, None]).reshape(t, d * k, n * n)
    coords, res, norms = _expand(F, prods)
    direct = coords.reshape(t, d, k, k)
    gap = _norms(np.moveaxis(M, 1, 3) - direct)
    res, norms = res.reshape(t, d, k), norms.reshape(t, d, k)
    return res, norms, gap, _any(res > 1e-7 * np.maximum(1.0, norms)) | _any(gap > 1e-7)


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


def _alpha_terms(P: Array, Fs: Array, Fi: Array, M: Array) -> tuple[Array, ...]:
    """For stacks of presented ideals P (t, d, n, n), source-fibre frames Fs,
    frames Fi of D_{g^-1} and tensors M = mult[(g, u_{s(g)})]: whether D_g
    has a two-sided unit, its coordinates u (``la.algebra_units``), the
    residuals of Fi off the span of Fs and alpha_g[c, m] =
    sum_ij M[c, i, j] u_i a[m, j], with a the coordinates of Fi in Fs."""
    u, ok = la._unit_coords(P, 1e-8)
    coords, res, _ = _expand(Fs, Fi)
    return ok, u, res, np.einsum("tcij,ti,tmj->tcm", M, u, coords)


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
    G, S = bundle.groupoid, bundle.structure()
    I, arrows = G.tables, np.arange(len(G.arrows))
    P = {g: bundle.left_ideal_model[g] for g in G.arrows}
    presented = la.Stacks(list(P.values()))
    F = la.Stacks([la.flatten_stack(P[g]) for g in G.arrows])

    ranked = np.flatnonzero(presented.sizes() == S.dims)
    # size: the d_u . k products U_i P_j
    rows = dict(zip([G.arrows[a] for a in ranked], la.stacked(
        [(la.Stacks([bundle.unit_rep[x] for x in G.objects]), I.rng[ranked]), (presented, ranked),
         (S.mult, S.family[ranked, 0]), (F, ranked)],
        _left_module, lambda s: s[0][0] * math.prod(s[1]))))
    for g in G.arrows:
        if g not in rows:
            raise ValueError(f"presentation at {g} has wrong rank")
        res, norms, gap, flagged = rows[g]
        if not flagged:
            continue
        left = res > 1e-7 * np.maximum(1.0, norms)
        i, j = np.argwhere(left | (gap > 1e-7))[0]
        if left[i, j]:
            raise ValueError(f"presented fibre at {g} is not a left ideal "
                             f"(residual {res[i, j]:.3e})")
        raise ValueError(f"left module structure at {g} is not "
                         "multiplication in the range fibre")

    # range ideals D_g = span(A_g A_g*) must match the presentation
    # size: the k^2 products of A_g A_g^*, as matrices
    spans = la.stacked([(S.mult, I.pair[arrows, I.inv]), (S.inv, arrows),
                        (F, I.unit[I.rng]), (F, arrows)],
                       lambda M, inv, Pu, Fg: _range_spans(M, inv, Pu, Fg, tols.rank_threshold),
                       lambda s: math.prod(s[1]) * s[2][1])
    for g, (ok,) in zip(G.arrows, spans):
        if not ok:
            raise ValueError(f"span(A_g A_g*) differs from the presented ideal at {g}")

    # one stacked pass per shape: the unit of D_g (``la.algebra_units``), D_{g^-1}
    # in the frame of the source fibre and alpha_g from both; each item keeps
    # the bits of its own unit solve, ``_expand`` and einsum
    live = np.flatnonzero(S.dims)
    units = {g: np.zeros(0, dtype=np.complex128) for g in G.arrows}
    alpha = {g: np.zeros((bundle.dims[g], bundle.dims[G.inv[g]]), dtype=np.complex128)
             for g in G.arrows}
    # size: the d^2 products of the unit solve, as in ``la.algebra_units``
    terms = la.stacked([(presented, live), (F, I.unit[I.src[live]]), (F, I.inv[live]),
                        (S.mult, S.family[live, 1])],
                       _alpha_terms, lambda s: s[0][0] * math.prod(s[0]))
    for g, (ok, units[g], res, alpha[g]) in zip([G.arrows[a] for a in live], terms):
        if not ok:
            raise ValueError(f"presented ideal at {g} has no unit")
        if (res > 1e-7).any():
            raise ValueError(f"D_{G.inv[g]} does not sit inside the source fibre of {g}")
    fibers = {x: UnitFiberAlgebra(bundle.unit_dim(x), bundle.unit_rep[x])
              for x in G.objects}
    shell = TwistedPartialAction(G, fibers, P, alpha, {})

    pg, ph = I.pairs.T
    inter = la.frame_intersections((F, I.inv[pg]), (F, ph), tols.rank_threshold)
    tgt = I.pair[I.inv[pg], I.comp[pg, ph]]
    ops = la.Stacks([_operator(alpha[g], la.flatten_stack(P[g]), la.flatten_stack(P[G.inv[g]]))
                     for g in G.arrows])
    solvable = np.flatnonzero(inter.sizes()[tgt])
    # size: the r * m products a_g(b) q_m
    solved = dict(zip(solvable.tolist(), la.stacked(
        [(inter, solvable), (ops, pg[solvable]), (inter, tgt[solvable]), (F, ph[solvable]),
         (S.mult, solvable), (la.Stacks(list(units.values())), pg[solvable]),
         (F, I.comp[pg, ph][solvable])],
        lambda *arrays: _w_solutions(*arrays, tols.rank_threshold),
        lambda s: s[0][0] * math.prod(s[2]))))
    frame = list(inter)
    w: dict[tuple[str, str], Array] = {}
    for p, (g, h) in enumerate(composable_pairs(G)):
        n = bundle.unit_dim(G.rng[g])
        stack = frame[tgt[p]].reshape(-1, n, n)
        if p not in solved:
            w[(g, h)] = np.zeros((n, n), dtype=np.complex128)
            continue
        coeff, res, norm, rank = solved[p]
        if rank < stack.shape[0]:
            raise ValueError(f"w({g},{h}) is underdetermined (intersection ideal mismatch)")
        if res > 1e-6 * max(1.0, float(norm)):
            raise ValueError(f"product formula inconsistent at ({g},{h}) (residual {res:.3e})")
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
    G, I = T.groupoid, T.groupoid.tables
    rtol, arrows = tols.rank_threshold, np.arange(len(G.arrows))
    new_fibers = {}
    for x in G.objects:
        n = T.n_at(x)
        stack = la.stack_orth([la.as_complex(m) for m in family.get(x, [])], n, n, rtol)
        new_fibers[x] = UnitFiberAlgebra(n, stack)

    ops = {g: alpha_operator(T, g) for g in G.arrows}
    # D_g ∩ F'_{r(g)}, then D_{g^-1} ∩ F'_{s(g)}, in one call
    both = la.frame_intersections(
        (la.Stacks([_frame(T, g) for g in G.arrows]), np.concatenate([arrows, I.inv])),
        (la.Stacks([la.flatten_stack(new_fibers[x].basis) for x in G.objects]),
         np.concatenate([I.rng, I.src])), rtol)
    dom = list(both)[len(arrows):]
    images = la.stacked([(la.Stacks([d @ ops[g].T for g, d in zip(G.arrows, dom)]), arrows)],
                        lambda v: la.stacked_orth_rows(v, rtol))
    frames = la.frame_intersections(
        (both, arrows), (la.Stacks([vh[:rank] for vh, rank in images]), arrows), rtol)
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
    units = dict(zip(composable_pairs(G), _tables(shell, rtol).units[len(G.arrows):]))
    if unitless := [key for key, unit in units.items() if unit is None]:
        raise ValueError("intersection ideal at ({},{}) has no unit".format(*unitless[0]))
    shell.w = {p: units[p] @ T.w[p] @ units[p] for p in units}
    return shell
