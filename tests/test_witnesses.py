"""Pinned witnesses and loop references for the validators.

Validators draw seeded random elements and report every violation in a
fixed loop order.  The full ordered (check, where) lists of three failing
reports pin both, and element-wise loop references check the residuals, so
a rewrite of a validator's inner loops cannot reorder, drop, relabel or
change a witness unnoticed.
"""

import numpy as np
import pytest

import fellbund._linalg as la
from fellbund import gallery
from fellbund.bundle import FellBundle, validate_fell_bundle
from fellbund.config import DEFAULT, Tolerances
from fellbund.groupoid import composable_pairs, composable_triples, cyclic_group
from fellbund.ideals import InvariantFamily, validate_invariant_family


def witnesses(report):
    return [(v.check, v.where) for v in report.violations]


def test_broken_involution_witnesses():
    # the Z/2 line bundle of test_bundle.test_broken_involution_rejected
    G = cyclic_group(2)
    one = np.ones((1, 1, 1), dtype=complex)
    mult = {(g, h): one.copy() for g in G.arrows for h in G.arrows}
    inv = {"e": np.eye(1, dtype=complex), "g1": 2 * np.eye(1, dtype=complex)}
    b = FellBundle(G, {"e": 1, "g1": 1}, mult, inv,
                   {"pt": np.ones((1, 1, 1), dtype=complex)}, name="broken")
    norm = "norm preserved by involution"
    assert witnesses(validate_fell_bundle(b)) == [
        ("involution involutive", "arrow g1"),
        ("involution anti-multiplicative", "(g1,g1)"),
        (norm, "g1 basis 0"),
        (norm, "g1 random 0"), (norm, "g1 random 1"),
        (norm, "g1 random 2"), (norm, "g1 random 3"),
    ]


def test_skewed_unit_representation_witnesses():
    # C^2 over a point, represented by diag(a_0, a_1 / 2): not multiplicative,
    # so the C*-identity and submultiplicativity fail on some elements only,
    # which pins both the random draws and the pair loop order
    G = cyclic_group(1)
    mult = np.zeros((2, 2, 2), dtype=complex)
    mult[0, 0, 0] = mult[1, 1, 1] = 1.0
    rho = np.zeros((2, 2, 2), dtype=complex)
    rho[0, 0, 0] = 1.0
    rho[1, 1, 1] = 0.5
    b = FellBundle(G, {"e": 2}, {("e", "e"): mult}, {"e": np.eye(2, dtype=complex)},
                   {"pt": rho}, name="skewed")
    cstar, sub = "C*-identity |a*a| = |a|^2", "submultiplicativity"
    pairs = [("basis 1", "basis 1"), ("basis 1", "random 0"), ("basis 1", "random 1"),
             ("basis 1", "random 3"),
             ("random 1", "basis 1"), ("random 1", "random 1"), ("random 1", "random 2"),
             ("random 1", "random 3"),
             ("random 2", "basis 1"), ("random 2", "random 0"), ("random 2", "random 1"),
             ("random 2", "random 2"), ("random 2", "random 3")]
    assert witnesses(validate_fell_bundle(b)) == [
        ("unit representation multiplicative", "object pt, basis 1"),
        (cstar, "e basis 1"), (cstar, "e random 2"),
    ] + [(sub, f"(e {a}, e {c})") for a, c in pairs]


def test_non_invariant_family_witnesses():
    # the {p} family of test_ideals.test_non_invariant_family_detected
    b = gallery.a4_bundle()
    frames = {x: (np.eye(1, dtype=complex) if x == "p"
                  else np.zeros((0, 1), dtype=complex)) for x in b.groupoid.objects}
    invariance = "invariance F_{r(g)} A_g = A_g F_{s(g)}"
    assert witnesses(validate_invariant_family(InvariantFamily(b, frames))) == [
        (invariance, "arrow q|g1|p"),
        ("one-sided criterion A_g F_{s} A_{g^-1} in F_{r}", "arrow q|g1|p"),
        (invariance, "arrow p|g1|q"),
    ]


# -- loop references ------------------------------------------------------------
#
# The element-wise loops the stacked validators replaced, kept as references:
# on perturbed bundles both give the same violations, residuals included.

NORM_CHECKS = {"norm preserved by involution", "a*a positive",
               "C*-identity |a*a| = |a|^2", "submultiplicativity"}


def loop_norm_checks(bundle, tols, samples):
    G = bundle.groupoid
    tol = tols.tolerance
    rng = np.random.default_rng(tols.seed)
    out, notes = [], []

    def elements(g):
        d = bundle.dims[g]
        for i in range(d):
            yield f"basis {i}", np.eye(d, dtype=complex)[i]
        for t in range(samples):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            n = np.linalg.norm(v)
            if n > 0:
                yield f"random {t}", v / n

    def check(res, bound, name, where):
        if not res <= bound:
            out.append((name, where, float(res)))

    for g in G.arrows:
        x = G.src[g]
        for label, a in elements(g):
            na = bundle.fiber_norm(g, a)
            check(abs(na - bundle.fiber_norm(G.inv[g], bundle.star_coords(g, a))),
                  10 * tol * max(1.0, na), "norm preserved by involution", f"{g} {label}")
            s = bundle.star_mult_coords(g, a, a)
            mn = float(np.linalg.eigvalsh(la.hermitian_part(bundle.unit_matrix(x, s)))[0]) \
                if bundle.unit_dim(x) else 0.0
            if mn < -tol:
                out.append(("a*a positive", f"{g} {label}", -mn))
            elif mn < -0.1 * tol:
                notes.append(f"borderline positivity at {g} {label}: min eigenvalue {mn:.3e}")
            nu = bundle.fiber_norm(G.unit[x], s)
            check(abs(nu - na * na), 10 * tol * max(1.0, na * na),
                  "C*-identity |a*a| = |a|^2", f"{g} {label}")
    for g, h in composable_pairs(G):
        if bundle.dims[g] == 0 or bundle.dims[h] == 0:
            continue
        for la_, a in elements(g):
            for lb, b in elements(h):
                lhs = bundle.fiber_norm(G.comp[(g, h)], bundle.mult_coords(g, h, a, b))
                bound = bundle.fiber_norm(g, a) * bundle.fiber_norm(h, b)
                if lhs > bound + 10 * tol * max(1.0, bound):
                    out.append(("submultiplicativity", f"({g} {la_}, {h} {lb})", lhs - bound))
    return out, notes


def loop_family_residuals(F, tols):
    bundle, G, tol = F.bundle, F.bundle.groupoid, tols.tolerance
    out = []

    def check(frame, v, name, where):
        res = la.residual_in_span(frame, v)
        if not res <= tol * max(1.0, float(np.linalg.norm(v))):
            out.append((name, where, res))

    for x in G.objects:
        u = G.unit[x]
        du = bundle.dims[u]
        for f in F.frames[x]:
            for j in range(du):
                e = np.eye(du, dtype=complex)[j]
                check(F.frames[x], bundle.mult_coords(u, u, f, e), "fibre subspace is right ideal",
                      f"object {x}")
                check(F.frames[x], bundle.mult_coords(u, u, e, f), "fibre subspace is left ideal",
                      f"object {x}")
    return out


def perturbed(b, seed, eps=1e-6):
    rng = np.random.default_rng(seed)

    def noisy(t):
        return t + eps * (rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape))
    return FellBundle(b.groupoid, b.dims, {k: noisy(v) for k, v in b.mult.items()},
                      {k: noisy(v) for k, v in b.inv.items()},
                      {k: noisy(v) for k, v in b.unit_rep.items()}, name="perturbed")


@pytest.mark.parametrize("name", ["trivial-M2", "a4-over-z2", "z2-antidiagonal", "a4-partial"])
def test_norm_checks_match_loop_reference(name):
    b = perturbed(gallery.shipped_bundles()[name], seed=len(name))
    tols = Tolerances(seed=3)
    rep = validate_fell_bundle(b, tols, samples=3)
    got = [(v.check, v.where, v.residual) for v in rep.violations if v.check in NORM_CHECKS]
    want, notes = loop_norm_checks(b, tols, 3)
    assert want and got == want
    assert rep.notes == notes


@pytest.mark.parametrize("name", ["trivial-M2", "a4-over-z2", "m2-twisted"])
def test_family_ideal_checks_match_loop_reference(name):
    b = gallery.shipped_bundles()[name]
    rng = np.random.default_rng(5)
    frames = {}
    for x in b.groupoid.objects:
        du = b.dims[b.groupoid.unit[x]]
        frames[x] = la.orth_rows(rng.standard_normal((1, du)) + 1j * rng.standard_normal((1, du)))
    F = InvariantFamily(b, frames)
    rep = validate_invariant_family(F)
    got = [(v.check, v.where, v.residual) for v in rep.violations if "ideal" in v.check]
    want = loop_family_residuals(F, DEFAULT)
    assert want and got == want


# The associativity and anti-multiplicativity checks form their products as
# batched matmuls; the einsum loops below are their references.  The sums run
# in another order, so the residuals agree to a relative 1e-9, not bit for bit.

IDENTITY_CHECKS = {"associativity", "involution anti-multiplicative"}


def loop_identity_checks(bundle, tol):
    """(check, where, residual) of associativity per composable triple and
    of (ab)* = b* a* per composable pair with both fibres nonzero, in the
    validator's order."""
    G, mult, inv = bundle.groupoid, bundle.mult, bundle.inv
    out = []

    def check(left, right, name, where):
        res, scale = np.linalg.norm(left - right), np.linalg.norm(left)
        if not res <= tol * max(1.0, scale):
            out.append((name, where, res))

    for g, h, k in composable_triples(G):
        gh, hk = G.comp[(g, h)], G.comp[(h, k)]
        check(np.einsum("kml,mij->kijl", mult[(gh, k)], mult[(g, h)]),
              np.einsum("kim,mjl->kijl", mult[(g, hk)], mult[(h, k)]),
              "associativity", f"({g},{h},{k})")
    for g, h in composable_pairs(G):
        if bundle.dims[g] and bundle.dims[h]:
            check(np.einsum("lk,kij->lij", inv[G.comp[(g, h)]], np.conj(mult[(g, h)])),
                  np.einsum("kab,aj,bi->kij", mult[(G.inv[h], G.inv[g])], inv[h], inv[g]),
                  "involution anti-multiplicative", f"({g},{h})")
    return out


def flipped_z8_line():
    """The trivial line bundle over Z/8 with the sign of mult[(g1, g2)]
    flipped, as ``scripts/report_snapshot.py`` validates it."""
    G = cyclic_group(8)
    one = np.ones((1, 1, 1), dtype=np.complex128)
    mult = {p: -one if p == ("g1", "g2") else one for p in composable_pairs(G)}
    return FellBundle(G, {g: 1 for g in G.arrows}, mult,
                      {g: np.ones((1, 1)) for g in G.arrows}, {"pt": one})


@pytest.mark.parametrize("name", ["z8-flipped", "a4-over-z2-perturbed", "m3-pair3-perturbed"])
def test_identity_checks_match_loop_reference(certify_bundles, name):
    b = {"z8-flipped": flipped_z8_line,
         "a4-over-z2-perturbed": lambda: perturbed(gallery.a4_over_z2_bundle(),
                                                   seed=len("a4-over-z2")),
         "m3-pair3-perturbed": lambda: perturbed(certify_bundles["m3-pair3"],
                                                 seed=len("m3-pair3"))}[name]()
    got = [(v.check, v.where, v.residual) for v in validate_fell_bundle(b).violations
           if v.check in IDENTITY_CHECKS]
    want = loop_identity_checks(b, DEFAULT.tolerance)
    assert {c for c, _, _ in want} == IDENTITY_CHECKS
    assert [(c, w) for c, w, _ in got] == [(c, w) for c, w, _ in want]
    np.testing.assert_allclose([r for _, _, r in got], [r for _, _, r in want], rtol=1e-9, atol=0)
