"""Pinned witnesses and loop references for the twisted-partial-action layer.

``validate_action``, ``compile_to_fell_bundle`` and ``reconstruct_action``
work on stacks.  The matrix-at-a-time loops they replaced are kept here as
references, written against the stored ideal bases and ``_linalg`` only:
on every shipped, demo, restricted and random action the reports agree
entry for entry, on a set of broken actions the ordered witness lists are
pinned and the residuals agree, and the compiled structure tensors and the
reconstructed actions agree with the loops'.
"""

import json
import os

import numpy as np
import pytest

import fellbund._linalg as la
from fellbund import gallery
from fellbund.actions import (TwistedPartialAction, compile_to_fell_bundle,
                              reconstruct_action, restrict_action, validate_action)
from fellbund.bundle import UnitFiberAlgebra
from fellbund.config import DEFAULT
from fellbund.envelope import envelope_algebra
from fellbund.groupoid import (composable_pairs, composable_triples, cyclic_group,
                              pair_groupoid)
from fellbund.report import ValidationReport
from fellbund.workspace import Workspace
from test_random_pipeline import SEEDS, random_instance

DEMO = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "examples_ws", "demo.json")

# -- loop references ------------------------------------------------------------
#
# One matrix at a time: coordinates by ``stack_expand``, matrices by
# ``stack_combine``, every intersection recomputed where it is used.


def _frame(T, g):
    return la.flatten_stack(T.ideal_basis[g])


def _alpha(T, g, mat):
    coords, _ = la.stack_expand(T.ideal_basis[T.groupoid.inv[g]], mat)
    return la.stack_combine(T.ideal_basis[g], T.alpha[g] @ coords)


def _alpha_inv(T, g, mat):
    coords, _ = la.stack_expand(T.ideal_basis[g], mat)
    if coords.size == 0:
        return np.zeros((T.n_at(T.groupoid.src[g]),) * 2, dtype=np.complex128)
    return la.stack_combine(T.ideal_basis[T.groupoid.inv[g]], np.linalg.solve(T.alpha[g], coords))


def _inter_basis(T, g, h, rtol=1e-10):
    n = T.n_at(T.groupoid.rng[g])
    frame = la.frame_intersection(_frame(T, g), _frame(T, T.groupoid.comp[(g, h)]), n * n, rtol)
    return frame.reshape(-1, n, n)


def _unit(stack, n):
    """The unit matrix of span(stack), zero for an empty stack, None if the
    span has no two-sided unit."""
    if stack.shape[0] == 0:
        return np.zeros((n, n), dtype=np.complex128)
    c = la.algebra_unit(stack)
    return None if c is None else la.stack_combine(stack, c)


def _inter_unit(T, g, h):
    return _unit(_inter_basis(T, g, h), T.n_at(T.groupoid.rng[g]))


def _ideal_unit(T, g):
    return _unit(T.ideal_basis[g], T.n_at(T.groupoid.rng[g]))


def loop_validate(T, tols=DEFAULT):
    G = T.groupoid
    tol = tols.tolerance
    rep = ValidationReport("twisted partial action")

    for g in G.arrows:
        F = T.fibers[G.rng[g]]
        frame_F = F.basis.reshape(F.dim, -1)
        for i, mat in enumerate(T.ideal_basis[g]):
            rep.check_residual(la.residual_in_span(frame_F, mat.reshape(-1)), tol,
                               "ideal inside fibre algebra", f"D_{g}[{i}]")
            for b in F.basis:
                for prod, side in ((b @ mat, "left"), (mat @ b, "right")):
                    res = la.residual_in_span(_frame(T, g), prod.reshape(-1))
                    rep.check_residual(res, tol * max(1.0, float(np.linalg.norm(prod))),
                                       f"ideal absorbs {side} multiplication", f"D_{g}[{i}]")

    for x in G.objects:
        u = G.unit[x]
        ok = la.frame_eq(_frame(T, u), T.fibers[x].basis.reshape(T.fibers[x].dim, -1), tol)
        rep.require(ok, "D at unit equals fibre algebra", f"object {x}")
        res = float(np.linalg.norm(T.alpha[u] - np.eye(T.ideal_dim(u))))
        rep.check_residual(res, tol, "alpha at unit is identity", f"object {x}")
    for g in G.arrows:
        us, ur = G.unit[G.src[g]], G.unit[G.rng[g]]
        pg = _ideal_unit(T, g)
        if pg is None:
            rep.add("ideal has a two-sided unit", f"arrow {g}")
            continue
        for key, label in (((g, us), "w(g, unit)"), ((ur, g), "w(unit, g)")):
            rep.check_residual(float(np.linalg.norm(T.w[key] - pg)), tol,
                               f"normalisation {label} = 1", f"arrow {g}")

    no_inverse = set()  # a_g^{-1} does not exist: no derived inverse identity at g
    for g in G.arrows:
        gi = G.inv[g]
        kg, kgi = T.ideal_dim(g), T.ideal_dim(gi)
        if kg != kgi:
            rep.add("alpha domain/codomain dimensions", f"arrow {g}",
                    detail=f"dim D_{g}={kg}, dim D_{gi}={kgi}")
            no_inverse.add(g)
            continue
        if kg and la.matrix_rank(T.alpha[g], tols.rank_threshold) != kg:
            rep.add("alpha invertible", f"arrow {g}")
            no_inverse.add(g)
            continue
        for i in range(kgi):
            a = T.ideal_basis[gi][i]
            res = float(np.linalg.norm(_alpha(T, g, a.conj().T) - _alpha(T, g, a).conj().T))
            rep.check_residual(res, tol, "alpha star-preserving", f"{g}, basis {i}")
            for j in range(kgi):
                b = T.ideal_basis[gi][j]
                lhs = _alpha(T, g, a @ b)
                rhs = _alpha(T, g, a) @ _alpha(T, g, b)
                rep.check_residual(float(np.linalg.norm(lhs - rhs)),
                                   tol * max(1.0, float(np.linalg.norm(rhs))),
                                   "alpha multiplicative", f"{g}, basis ({i},{j})")

    for g, h in composable_pairs(G):
        wmat = T.w[(g, h)]
        stack = _inter_basis(T, g, h, tols.rank_threshold)
        res = la.residual_in_span(la.flatten_stack(stack), wmat.reshape(-1))
        rep.check_residual(res, tol * max(1.0, float(np.linalg.norm(wmat))),
                           "w supported on intersection ideal", f"({g},{h})")
        if stack.shape[0]:
            q = _inter_unit(T, g, h)
            if q is None:
                rep.add("ideal has a two-sided unit", f"({g},{h})",
                        detail=f"D_{g} ∩ D_{G.comp[(g, h)]}")
                continue
            for prod, side in ((wmat @ wmat.conj().T, "w w*"), (wmat.conj().T @ wmat, "w* w")):
                rep.check_residual(float(np.linalg.norm(prod - q)), tol,
                                   f"unitarity {side} = unit", f"({g},{h})")

    def domain(g, h):
        n = T.n_at(G.src[g])
        return la.frame_intersection(_frame(T, G.inv[g]), _frame(T, h), n * n,
                                     tols.rank_threshold), n

    for g, h in composable_pairs(G):
        inter, n = domain(g, h)
        for row in inter:
            img = _alpha(T, g, row.reshape(n, n))
            res = la.residual_in_span(_frame(T, G.comp[(g, h)]), img.reshape(-1))
            rep.check_residual(res, tol * max(1.0, float(np.linalg.norm(img))),
                               "alpha_g(D_{g^-1} ∩ D_h) inside D_{gh}", f"({g},{h})")

    for g, h in composable_pairs(G):
        inter, n = domain(g, h)
        wm = T.w[(g, h)]
        for row in inter:
            a = _alpha(T, G.inv[h], row.reshape(n, n))
            lhs = _alpha(T, g, _alpha(T, h, a))
            rhs = wm @ _alpha(T, G.comp[(g, h)], a) @ wm.conj().T
            rep.check_residual(float(np.linalg.norm(lhs - rhs)),
                               tol * max(1.0, float(np.linalg.norm(lhs))),
                               "twisted composition alpha_g alpha_h = Ad(w) alpha_{gh}",
                               f"({g},{h})")

    for g, h, k in composable_triples(G):
        gh, hk = G.comp[(g, h)], G.comp[(h, k)]
        frame, n = domain(g, h)
        frame = la.frame_intersection(frame, _frame(T, hk), n * n, tols.rank_threshold)
        for row in frame:
            a = row.reshape(n, n)
            lhs = _alpha(T, g, a @ T.w[(h, k)]) @ T.w[(g, hk)]
            rhs = _alpha(T, g, a) @ T.w[(g, h)] @ T.w[(gh, k)]
            rep.check_residual(float(np.linalg.norm(lhs - rhs)),
                               tol * max(1.0, float(np.linalg.norm(rhs)) + 1.0),
                               "cocycle identity", f"({g},{h},{k})")

    for g, h in composable_pairs(G):
        gh = G.comp[(g, h)]
        dom, n = domain(g, h)
        img = [_alpha(T, g, row.reshape(n, n)).reshape(-1) for row in dom]
        img_frame = la.orth_rows(np.array(img) if img else np.zeros((0, n * n)),
                                 tols.rank_threshold)
        m = T.n_at(G.rng[g])
        tgt = la.frame_intersection(_frame(T, g), _frame(T, gh), m * m, tols.rank_threshold)
        if not la.frame_eq(img_frame, tgt, 1e-7):
            rep.note(f"derived domain identity failed at ({g},{h}): "
                     f"alpha_g(D_g^-1 ∩ D_h) has dim {img_frame.shape[0]}, "
                     f"D_g ∩ D_gh has dim {tgt.shape[0]}")
    for g in G.arrows:
        gi = G.inv[g]
        res = float(np.linalg.norm(_alpha(T, g, T.w[(gi, g)]) - T.w[(g, gi)]))
        if res > 1e-7:
            rep.note(f"derived unitary identity alpha_g(w(g^-1,g)) = w(g,g^-1) "
                     f"failed at {g} (residual {res:.3e})")
        for i in range(T.ideal_dim(g) if g not in no_inverse else 0):
            a = T.ideal_basis[g][i]
            rhs = T.w[(gi, g)] @ _alpha_inv(T, g, a) @ T.w[(gi, g)].conj().T
            res = float(np.linalg.norm(_alpha(T, gi, a) - rhs))
            if res > 1e-7 * max(1.0, float(np.linalg.norm(rhs))):
                rep.note(f"derived inverse identity failed at {g}[{i}] (residual {res:.3e})")
    return rep


def loop_structure(T):
    """The compiled ``mult`` and ``inv`` tensors, one basis pair at a time."""
    G = T.groupoid
    dims = {g: T.ideal_dim(g) for g in G.arrows}
    mult = {}
    for g, h in composable_pairs(G):
        gh = G.comp[(g, h)]
        tensor = np.zeros((dims[gh], dims[g], dims[h]), dtype=np.complex128)
        for i in range(dims[g]):
            pulled = _alpha_inv(T, g, T.ideal_basis[g][i])
            for j in range(dims[h]):
                prod = _alpha(T, g, pulled @ T.ideal_basis[h][j]) @ T.w[(g, h)]
                tensor[:, i, j], _ = la.stack_expand(T.ideal_basis[gh], prod)
        mult[(g, h)] = tensor
    inv = {}
    for g in G.arrows:
        gi = G.inv[g]
        mat = np.zeros((dims[gi], dims[g]), dtype=np.complex128)
        for i in range(dims[g]):
            img = _alpha_inv(T, g, T.ideal_basis[g][i].conj().T) @ T.w[(gi, g)].conj().T
            mat[:, i], _ = la.stack_expand(T.ideal_basis[gi], img)
        inv[g] = mat
    return mult, inv


def loop_reconstruct(bundle, tols=DEFAULT):
    """(alpha, w) read off a compiled bundle one basis element at a time."""
    G = bundle.groupoid
    P = bundle.left_ideal_model
    fibers = {x: UnitFiberAlgebra(bundle.unit_dim(x), bundle.unit_rep[x]) for x in G.objects}
    alpha = {}
    for g in G.arrows:
        gi, us = G.inv[g], G.unit[G.src[g]]
        alpha_g = np.zeros((bundle.dims[g], bundle.dims[gi]), dtype=np.complex128)
        if bundle.dims[g]:
            unit_c = la.algebra_unit(P[g])
            for j in range(bundle.dims[gi]):
                a_coords, _ = la.stack_expand(P[us], P[gi][j])
                alpha_g[:, j] = bundle.mult_coords(g, us, unit_c, a_coords)
        alpha[g] = alpha_g
    shell = TwistedPartialAction(G, fibers, dict(P), alpha, {})
    w = {}
    for g, h in composable_pairs(G):
        gh, gi = G.comp[(g, h)], G.inv[g]
        n = bundle.unit_dim(G.rng[g])
        inter = _inter_basis(shell, g, h, tols.rank_threshold)
        if inter.shape[0] == 0:
            w[(g, h)] = np.zeros((n, n), dtype=np.complex128)
            continue
        ns = bundle.unit_dim(G.src[g])
        dom = la.frame_intersection(_frame(shell, gi), _frame(shell, h), ns * ns,
                                    tols.rank_threshold)
        unit_c = la.algebra_unit(P[g])
        rows, rhs = [], []
        for row in dom:
            b = row.reshape(ns, ns)
            cb = _alpha(shell, g, b)
            b_coords, _ = la.stack_expand(P[h], b)
            prod = la.stack_combine(P[gh], bundle.mult_coords(g, h, unit_c, b_coords))
            rows.append(np.stack([(cb @ q).reshape(-1) for q in inter]).T)
            rhs.append(prod.reshape(-1))
        coeff, _ = la.solve_lstsq(np.vstack(rows), np.concatenate(rhs))
        w[(g, h)] = la.stack_combine(inter, coeff)
    shell.w = w
    return shell


# -- the actions ----------------------------------------------------------------

E11 = np.diag([1.0, 0.0]).astype(complex)
E22 = np.diag([0.0, 1.0]).astype(complex)


def two_object_action():
    """An action on pair({p, q}) with unequal fibres: F_p = C, F_q the
    diagonal C^2 in M_2, D_{q<p} = span{E11}, D_{p<q} = F_p, alpha = 1 both
    ways and w defaulted."""
    G = pair_groupoid(("p", "q"))
    one = np.ones((1, 1), dtype=complex)
    fibers = {"p": UnitFiberAlgebra.from_matrices(1, [one]),
              "q": UnitFiberAlgebra.from_matrices(2, [E11, E22])}
    return TwistedPartialAction.build(G, fibers, {"q<p": [E11], "p<q": [one]},
                                      {"q<p": np.eye(1), "p<q": np.eye(1)})


def valid_actions():
    out = {name: getattr(gallery, name)() for name in (
        "z2_swap_action_on_c2", "restricted_swap_action", "a4_action",
        "matrix_twisted_action", "klein_twisted_action")}
    ws = Workspace.load(DEMO)
    for name in ("swap-c2", "klein-twisted"):
        out[f"demo {name}"] = ws.action(name)
    swap = gallery.z2_swap_action_on_c2()
    for label, family in (("e11", [E11]), ("e22", [E22]), ("both", [E11, E22])):
        out[f"swap restricted to {label}"] = restrict_action(swap, {"pt": family})
    a4 = gallery.a4_action()
    e = [np.diag([1.0 if i == j else 0.0 for j in range(3)]).astype(complex) for i in range(3)]
    out["a4 restricted to {p,r}"] = restrict_action(a4, {"pt": [e[0], e[2]]})
    for seed in SEEDS:
        out[f"random {seed}"] = random_instance(seed)
    out["two objects"] = two_object_action()
    return out


def c2_action(alpha_g1, w=None, ideal_g1=(E11, E22)):
    G = cyclic_group(2)
    fibers = {"pt": UnitFiberAlgebra.from_matrices(2, [E11, E22])}
    return TwistedPartialAction.build(G, fibers, {"g1": list(ideal_g1)}, {"g1": alpha_g1}, w)


def conjugation_action(s):
    """Z/2 on M_2 by Ad(s) (s invertible, not unitary: multiplicative but
    not star-preserving)."""
    basis = UnitFiberAlgebra.full_matrix_algebra(2).basis
    si = np.linalg.inv(s)
    ad = np.array([[np.vdot(basis[i], s @ basis[j] @ si) for j in range(4)] for i in range(4)])
    return TwistedPartialAction.build(cyclic_group(2), {"pt": UnitFiberAlgebra(2, basis)},
                                      {"g1": list(basis)}, {"g1": ad})


def rebuilt(T, w):
    return TwistedPartialAction.build(T.groupoid, T.fibers,
                                      {g: list(T.ideal_basis[g]) for g in T.groupoid.arrows},
                                      T.alpha, w)


def klein_one_sign_flipped():
    T = gallery.klein_twisted_action()
    w = dict(T.w)
    w[("g01", "g10")] = -w[("g01", "g10")]
    return rebuilt(T, w)


def nilpotent_action():
    """Z/2 on M_2 with D_g1 = span{E12}: an ideal of no algebra, with no
    unit, that E21 E12 = E22 and E12 E21 = E11 leave."""
    basis = UnitFiberAlgebra.full_matrix_algebra(2).basis
    G = cyclic_group(2)
    return TwistedPartialAction.build(G, {"pt": UnitFiberAlgebra(2, basis)},
                                      {"g1": [basis[1]]}, {"g1": np.eye(1)},
                                      {(g, h): np.eye(2) for g in G.arrows for h in G.arrows})


SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
BROKEN = {
    "bad normalisation": lambda: c2_action(SWAP, {("g1", "e"): 2.0}),
    "non-multiplicative alpha": lambda: c2_action(np.array([[1.0, 0.0], [1.0, 1.0]])),
    "non-star alpha": lambda: conjugation_action(np.array([[1.0, 1.0], [0.0, 1.0]])),
    "non-ideal domain": lambda: c2_action(np.eye(1), ideal_g1=[np.eye(2) / np.sqrt(2)]),
    "w off intersection": lambda: rebuilt(gallery.a4_action(), {("g1", "g1"): np.eye(3)}),
    "non-unitary w": lambda: c2_action(SWAP, {("g1", "g1"): 2.0}),
    "klein one sign flipped": klein_one_sign_flipped,
    "nilpotent ideal": nilpotent_action,
}

STAR, MULT = "alpha star-preserving", "alpha multiplicative"
TWIST = "twisted composition alpha_g alpha_h = Ad(w) alpha_{gh}"
LEFT, RIGHT = "ideal absorbs left multiplication", "ideal absorbs right multiplication"
UNIT, SUPPORT = "ideal has a two-sided unit", "w supported on intersection ideal"
WITNESSES = {
    "bad normalisation": [("normalisation w(g, unit) = 1", "arrow g1", ""),
                          ("unitarity w w* = unit", "(g1,e)", ""),
                          ("unitarity w* w = unit", "(g1,e)", ""),
                          (TWIST, "(g1,e)", ""), (TWIST, "(g1,e)", "")]
    + [("cocycle identity", f"({t})", "") for t in (
        "g1,e,e", "g1,e,e", "g1,e,g1", "g1,e,g1", "g1,g1,e", "g1,g1,e", "g1,g1,g1",
        "g1,g1,g1")],
    "non-multiplicative alpha": [(MULT, "g1, basis (0,1)", ""), (MULT, "g1, basis (1,0)", ""),
                                 (TWIST, "(g1,g1)", "")],
    "non-star alpha": [(STAR, f"g1, basis {i}", "") for i in range(4)]
    + [(TWIST, "(g1,g1)", "")] * 3,
    "non-ideal domain": [(LEFT, "D_g1[0]", ""), (RIGHT, "D_g1[0]", ""),
                         (LEFT, "D_g1[0]", ""), (RIGHT, "D_g1[0]", "")],
    "w off intersection": [("w supported on intersection ideal", "(g1,g1)", ""),
                           ("unitarity w w* = unit", "(g1,g1)", ""),
                           ("unitarity w* w = unit", "(g1,g1)", "")],
    "non-unitary w": [("unitarity w w* = unit", "(g1,g1)", ""),
                      ("unitarity w* w = unit", "(g1,g1)", ""),
                      (TWIST, "(g1,g1)", ""), (TWIST, "(g1,g1)", "")],
    "nilpotent ideal": [(LEFT, "D_g1[0]", ""), (RIGHT, "D_g1[0]", ""),
                        (UNIT, "arrow g1", ""), (STAR, "g1, basis 0", ""),
                        (SUPPORT, "(e,g1)", ""), (UNIT, "(e,g1)", "D_e ∩ D_g1"),
                        (SUPPORT, "(g1,e)", ""), (UNIT, "(g1,e)", "D_g1 ∩ D_g1"),
                        (SUPPORT, "(g1,g1)", ""), (UNIT, "(g1,g1)", "D_g1 ∩ D_e")],
    "klein one sign flipped": [("cocycle identity", f"({t})", "") for t in (
        "g01,g01,g10", "g01,g01,g11", "g01,g10,g01", "g01,g10,g10", "g01,g10,g11",
        "g01,g11,g01", "g10,g01,g10", "g10,g11,g10", "g11,g01,g10", "g11,g10,g10")],
}


def same_reports(got, want):
    """Equal witnesses and notes, residuals to 1e-9 relative."""
    assert [(v.check, v.where, v.detail) for v in got.violations] == \
        [(v.check, v.where, v.detail) for v in want.violations]
    for a, b in zip(got.violations, want.violations):
        assert (a.residual is None) == (b.residual is None)
        if a.residual is not None:
            assert abs(a.residual - b.residual) <= 1e-9 * max(abs(b.residual), 1e-300)
    assert got.notes == want.notes


# -- tests ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(valid_actions()))
def test_valid_action_reports_match_loop_reference(name):
    T = valid_actions()[name]
    got = validate_action(T)
    assert got.ok
    assert json.dumps(got.to_json()) == json.dumps(loop_validate(T).to_json())


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_broken_action_witnesses(name):
    T = BROKEN[name]()
    got = validate_action(T)
    assert [(v.check, v.where, v.detail) for v in got.violations] == WITNESSES[name]
    same_reports(got, loop_validate(T))


@pytest.mark.parametrize("name", sorted(valid_actions()))
def test_compiled_structure_matches_loop_reference(name):
    T = valid_actions()[name]
    b = compile_to_fell_bundle(T)
    mult, inv = loop_structure(T)
    assert set(b.mult) == set(mult) and set(b.inv) == set(inv)
    for key, tensor in mult.items():
        assert b.mult[key].shape == tensor.shape
        assert np.abs(b.mult[key] - tensor).max(initial=0.0) <= 1e-13
    for g, mat in inv.items():
        assert b.inv[g].shape == mat.shape
        assert np.abs(b.inv[g] - mat).max(initial=0.0) <= 1e-13


@pytest.mark.parametrize("name", sorted(valid_actions()))
def test_reconstruction_matches_loop_reference(name):
    b = compile_to_fell_bundle(valid_actions()[name])
    got, want = reconstruct_action(b), loop_reconstruct(b)
    G = b.groupoid
    for g in G.arrows:
        assert np.abs(got.ideal_basis[g] - want.ideal_basis[g]).max(initial=0.0) <= 1e-12
        assert got.alpha[g].shape == want.alpha[g].shape
        assert np.abs(got.alpha[g] - want.alpha[g]).max(initial=0.0) <= 1e-12
    assert set(got.w) == set(want.w)
    for key in want.w:
        assert np.abs(got.w[key] - want.w[key]).max(initial=0.0) <= 1e-12


# -- input the loops could not take ---------------------------------------------


def z3_mismatched_domains():
    """Z/3 on C^2 with dim D_g1 = 1 and dim D_g2 = 2, so alpha_g1 and
    alpha_g2 cannot be isomorphisms."""
    G = cyclic_group(3)
    fibers = {"pt": UnitFiberAlgebra.from_matrices(2, [E11, E22])}
    return TwistedPartialAction.build(G, fibers, {"g1": [E11], "g2": [E11, E22]},
                                      {"g1": np.ones((1, 2)), "g2": np.ones((2, 1))})


STRUCTURAL = {
    "singular alpha": (lambda: c2_action(np.ones((2, 2))),
                       [("alpha invertible", "arrow g1", ""),
                        (TWIST, "(g1,g1)", ""), (TWIST, "(g1,g1)", "")]),
    "mismatched domain dimensions": (z3_mismatched_domains, [
        ("alpha domain/codomain dimensions", "arrow g1", "dim D_g1=1, dim D_g2=2"),
        ("alpha domain/codomain dimensions", "arrow g2", "dim D_g2=2, dim D_g1=1"),
        ("alpha_g(D_{g^-1} ∩ D_h) inside D_{gh}", "(g2,g2)", ""),
        (TWIST, "(g1,g1)", ""), (TWIST, "(g1,g2)", ""), (TWIST, "(g1,g2)", ""),
        (TWIST, "(g2,g1)", ""), (TWIST, "(g2,g2)", ""),
        ("cocycle identity", "(g2,g2,g1)", ""), ("cocycle identity", "(g2,g2,g2)", "")]),
}


@pytest.mark.parametrize("name", sorted(STRUCTURAL))
def test_alpha_without_inverse_is_reported_not_raised(name):
    # a_g^{-1} does not exist, so the derived inverse identity is skipped at
    # g; the rest of the report is the loop's
    build, want = STRUCTURAL[name]
    T = build()
    got = validate_action(T)
    assert [(v.check, v.where, v.detail) for v in got.violations] == want
    same_reports(got, loop_validate(T))
    with pytest.raises(ValueError, match="invalid twisted partial action"):
        compile_to_fell_bundle(T)


def with_entry(T, field, key, value):
    table = dict(getattr(T, field))
    table[key] = value
    return TwistedPartialAction(T.groupoid, T.fibers, **{
        f: table if f == field else getattr(T, f) for f in ("ideal_basis", "alpha", "w")})


@pytest.mark.parametrize("field, key, where, detail", [
    ("alpha", "g1", "arrow g1", "alpha"),
    ("ideal_basis", "g1", "arrow g1", "ideal basis"),
    ("w", ("g1", "g1"), "(g1,g1)", "w"),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_is_one_violation_per_entry(field, key, where, detail, bad):
    T = gallery.z2_swap_action_on_c2()
    value = np.array(getattr(T, field)[key], dtype=complex)
    value.flat[0] = bad
    rep = validate_action(with_entry(T, field, key, value))
    assert [(v.check, v.where, v.detail) for v in rep.violations] == \
        [("finite entries", where, detail)]
    assert not rep.notes


@pytest.mark.parametrize("ideal, needle", [
    ([E11, np.diag([np.nan, 1.0])], "ideal basis at g1 has non-finite entries"),
    ([np.eye(3)[:1].T @ np.eye(3)[:1]], "ideal basis at g1: expected 2x2 matrices"),
])
def test_build_rejects_a_malformed_ideal_basis(ideal, needle):
    with pytest.raises(ValueError) as err:
        c2_action(SWAP, ideal_g1=ideal)
    assert needle in str(err.value)


@pytest.mark.parametrize("ideals, alpha, w, needle", [
    ({"nope": [E11]}, {}, None, "ideals: unknown arrow 'nope'"),
    ({}, {"nope": np.eye(1)}, None, "alpha: unknown arrow 'nope'"),
    ({}, {}, {("g1", "nope"): 1.0}, "w: ('g1', 'nope') is not a composable pair"),
])
def test_build_rejects_unknown_keys(ideals, alpha, w, needle):
    G = cyclic_group(2)
    fibers = {"pt": UnitFiberAlgebra.from_matrices(2, [E11, E22])}
    with pytest.raises(ValueError) as err:
        TwistedPartialAction.build(G, fibers, ideals, alpha, w)
    assert needle in str(err.value)


def test_an_ideal_without_a_unit_is_reported_with_its_witnesses():
    # the absorption failures (E21 E12 = E22 is not in span{E12}) are
    # reported; only the normalisation and unitarity checks, which need the
    # unit, are skipped.  w cannot default without it, so build raises.
    T = nilpotent_action()
    rep = validate_action(T)
    assert [v.residual is not None for v in rep.violations] == \
        [True, True, False, True, True, False, True, False, True, False]
    assert rep.notes == ["derived unitary identity alpha_g(w(g^-1,g)) = w(g,g^-1) "
                         "failed at g1 (residual 1.414e+00)"]
    with pytest.raises(ValueError, match="invalid twisted partial action"):
        compile_to_fell_bundle(T)
    with pytest.raises(ValueError, match=r"intersection ideal at \(e,g1\) has no unit"):
        TwistedPartialAction.build(T.groupoid, T.fibers, {"g1": list(T.ideal_basis["g1"])},
                                   T.alpha)


def test_two_object_action_compiles_to_c_plus_m2():
    T = two_object_action()
    b = compile_to_fell_bundle(T)
    assert dict(b.dims) == {"p<p": 1, "p<q": 1, "q<p": 1, "q<q": 2}
    assert validate_action(reconstruct_action(b)).ok
    # C + M_2: the regular representation holds the 1x1 block once and the
    # 2x2 block twice
    env = envelope_algebra(b)
    assert env.block_summary() == [{"size": 1, "multiplicity": 1},
                                   {"size": 2, "multiplicity": 2}]
    assert env.dim == 5 == b.total_dim and env.injective


ACTION_PASSES = {"validate": 8, "compile": 10, "reconstruct": 6}


@pytest.mark.parametrize("name", ["z2_swap_action_on_c2", "restricted_swap_action", "a4_action",
                                  "matrix_twisted_action", "klein_twisted_action"])
def test_action_layer_makes_few_stacked_passes(monkeypatch, name):
    T = getattr(gallery, name)()
    calls = []
    gathered = la.gathered

    def counted(operands, size=None):
        calls.append(len(operands[0][1]))
        return gathered(operands, size)
    monkeypatch.setattr(la, "gathered", counted)
    counts = {}
    for step, run in (("validate", lambda: validate_action(T)),
                      ("compile", lambda: compile_to_fell_bundle(T)),
                      ("reconstruct", lambda: reconstruct_action(compiled))):
        calls.clear()
        out = run()
        counts[step] = len(calls)
        if step == "compile":
            compiled = out
    assert all(counts[step] <= most for step, most in ACTION_PASSES.items()), counts
