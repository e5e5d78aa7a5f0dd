"""Pinned witnesses and loop references for the representation layer.

``validate_rep`` and ``disintegrate`` check the *-homomorphism equations on
one stack of basis images.  The element-at-a-time loops they replaced are
kept here as references, written against ``FellRep.apply`` and the bundle's
structure tensors only: on regular and seeded random representations of the
shipped and certify bundles the reports agree entry for entry and the
disintegrated maps bit for bit; on perturbed representations the ordered
witness lists agree, with residuals to 1e-9 relative; on broken L the first
error raised is the same; and the screen for non-composable products finds
the products that forming each one finds.  Every comparison is repeated
with stacks of one item.
"""

import numpy as np
import pytest

import fellbund._linalg as la
from fellbund import gallery
from fellbund.bundle import ei
from fellbund.config import DEFAULT
from fellbund.envelope import envelope_algebra, irreducible_envelope_blocks
from fellbund.groupoid import composable_pairs
from fellbund.report import ValidationReport
from fellbund.reps import (FellRep, _vanishing_failures, disintegrate, integrate,
                           random_fellrep, regular_fellrep, validate_rep)
from fellbund.sections import Section, basis_sections, unit_section

# -- loop references ------------------------------------------------------------


def loop_validate(R, tols=DEFAULT):
    bundle = R.bundle
    G = bundle.groupoid
    tol = tols.tolerance
    rep = ValidationReport("fell-bundle representation")
    for g in G.arrows:
        gi = G.inv[g]
        for i in range(bundle.dims[g]):
            lhs = R.apply(g, ei(bundle.dims[g], i)).conj().T
            rhs = R.apply(gi, bundle.inv[g][:, i])
            rep.check_residual(float(np.linalg.norm(lhs - rhs)),
                               tol * max(1.0, float(np.linalg.norm(lhs))),
                               "involution compatibility S_g(a)* = S_{g^-1}(a*)",
                               f"({g},{i})")
    for g, h in composable_pairs(G):
        gh = G.comp[(g, h)]
        for i in range(bundle.dims[g]):
            for j in range(bundle.dims[h]):
                lhs = R.apply(g, ei(bundle.dims[g], i)) @ R.apply(h, ei(bundle.dims[h], j))
                rhs = R.apply(gh, bundle.mult[(g, h)][:, i, j])
                rep.check_residual(float(np.linalg.norm(lhs - rhs)),
                                   tol * max(1.0, float(np.linalg.norm(rhs))),
                                   "multiplicativity S_g S_h = S_{gh}", f"({g},{h})")
    degenerate = True
    for x in G.objects:
        d = R.dims[x]
        if d == 0:
            continue
        degenerate = False
        unit_mat = R.apply(G.unit[x], bundle.unit_algebra_unit(x))
        rep.check_residual(float(np.linalg.norm(unit_mat - np.eye(d))), tol,
                           "unit fibre acts nondegenerately", f"object {x}")
    if degenerate:
        rep.note("degenerate representation: all Hilbert dimensions are zero")
    return rep


def loop_range_frame(P, rtol):
    work = P.astype(np.complex128).copy()
    n = work.shape[1]
    scale = max(float(np.linalg.norm(work, axis=0).max(initial=0.0)), 1.0)
    cols = []
    for _ in range(n):
        norms = np.linalg.norm(work, axis=0)
        top = float(norms.max(initial=0.0))
        if top <= rtol * scale * 10:
            break
        j = int(np.nonzero(norms >= top * (1.0 - 1e-8))[0][0])
        v = work[:, j] / norms[j]
        pivot = int(np.nonzero(np.abs(v) >= np.abs(v).max() * (1.0 - 1e-8))[0][0])
        v = v * (np.abs(v[pivot]) / v[pivot])
        cols.append(v)
        work -= np.outer(v, v.conj() @ work)
    if not cols:
        return np.zeros((P.shape[0], 0), dtype=np.complex128)
    return np.stack(cols, axis=1)


def loop_disintegrate(bundle, L, dim, tols=DEFAULT):
    G = bundle.groupoid
    tol = max(tols.tolerance, 1e-12)
    Le = L(unit_section(bundle))
    if Le.shape != (dim, dim):
        raise ValueError("L has the wrong dimension")
    if float(np.linalg.norm(Le @ Le - Le)) > 1e-8 * max(1.0, float(np.linalg.norm(Le))) or \
            float(np.linalg.norm(Le - Le.conj().T)) > 1e-8:
        raise ValueError("L(unit section) is not a projection; L is not a *-homomorphism")
    if float(np.linalg.norm(Le)) <= tol:
        raise ValueError("degenerate representation: L(unit section) = 0")
    if float(np.linalg.norm(Le - np.eye(dim))) > 1e-8:
        V0 = loop_range_frame(Le, tols.rank_threshold)
        base = L

        def L(f, _V0=V0, _base=base):  # noqa: E743
            return _V0.conj().T @ _base(f) @ _V0
        dim = V0.shape[1]
    deltas = basis_sections(bundle)
    images = {g: [] for g in G.arrows}
    for (g, i, s) in deltas:
        images[g].append(L(s))
    for (g, i, s) in deltas:
        star = sum((c * m for c, m in zip(bundle.inv[g][:, i], images[G.inv[g]])),
                   np.zeros((dim, dim), dtype=np.complex128))
        if float(np.linalg.norm(images[g][i].conj().T - star)) > 1e-7:
            raise ValueError(f"L is not involutive at ({g},{i})")
    for (g, i, s) in deltas:
        for (h, j, t) in deltas:
            prod = images[g][i] @ images[h][j]
            if G.src[g] != G.rng[h]:
                if float(np.linalg.norm(prod)) > 1e-7:
                    raise ValueError(f"L is not multiplicative at ({g},{h})")
                continue
            conv = sum((c * m for c, m in zip(bundle.mult[(g, h)][:, i, j],
                                              images[G.comp[(g, h)]])),
                       np.zeros((dim, dim), dtype=np.complex128))
            if float(np.linalg.norm(prod - conv)) > 1e-7:
                raise ValueError(f"L is not multiplicative at ({g},{h})")
    frames, dims = {}, {}
    for x in G.objects:
        P = L(Section(bundle, {G.unit[x]: bundle.unit_algebra_unit(x)}))
        frames[x] = loop_range_frame(P, tols.rank_threshold)
        dims[x] = frames[x].shape[1]
    if sum(dims.values()) != dim:
        raise ValueError(f"central projections decompose {sum(dims.values())} of {dim} dimensions")
    maps = {}
    for g in G.arrows:
        x, y = G.rng[g], G.src[g]
        tensor = np.zeros((dims[x], dims[y], bundle.dims[g]), dtype=np.complex128)
        for i in range(bundle.dims[g]):
            tensor[:, :, i] = frames[x].conj().T @ images[g][i] @ frames[y]
        maps[g] = tensor
    R = FellRep(bundle, dims, maps)
    check = loop_validate(R, tols)
    if not check.ok:
        raise ValueError("disintegration produced an invalid representation:\n"
                         + check.summary())
    return R


def loop_random_fellrep(bundle, rng, tols=DEFAULT):
    """``random_fellrep`` with its L evaluated on one section at a time: the
    regular representation of the section, one irrep per block, the blocks
    down the diagonal and conjugated by the Haar unitary."""
    env = envelope_algebra(bundle, tols)
    blocks = irreducible_envelope_blocks(bundle, tols)
    while True:
        mults = [int(rng.integers(0, 3)) for _ in blocks]
        if any(mults):
            break
    dim = sum(m * b.size for m, b in zip(mults, blocks))
    U = la.random_unitary(dim, rng)

    def L(f):
        big = env.lambda_of(f)
        parts = []
        for m, b in zip(mults, blocks):
            if m:
                parts.extend([b.irrep(big)] * m)
        out = np.zeros((dim, dim), dtype=np.complex128)
        pos = 0
        for p in parts:
            out[pos:pos + p.shape[0], pos:pos + p.shape[0]] = p
            pos += p.shape[0]
        return U @ out @ U.conj().T
    return disintegrate(bundle, L, dim, tols)


# -- instances ------------------------------------------------------------------


def bundles(certify_raw):
    from fellbund.workspace import Workspace
    out = dict(gallery.shipped_bundles())
    ws = Workspace.from_dict(certify_raw)
    out.update((name, ws.bundle(name)) for name in ws.names("bundles"))
    return out


def random_reps(certify_raw, count=2):
    """Seeded random representations of every shipped and certify bundle."""
    for name, b in bundles(certify_raw).items():
        rng = np.random.default_rng([11, len(name)])
        for k in range(count):
            yield f"{name} #{k}", b, random_fellrep(b, rng)


def with_map(R, g, tensor):
    maps = dict(R.maps)
    maps[g] = tensor
    return FellRep(R.bundle, dict(R.dims), maps)


def perturbed_reps():
    """Representations with known defects: one S_g scaled, the involution
    broken at one arrow, and both on a multi-object bundle."""
    rng = np.random.default_rng(5)
    shipped = gallery.shipped_bundles()
    out = {}
    for name in ("z2-line", "a4-over-z2", "m2-twisted", "pair2-line", "a4-partial"):
        b = shipped[name]
        R = random_fellrep(b, rng)
        g = [h for h in b.groupoid.arrows if R.maps[h].size][-1]
        out[f"{name} scaled at {g}"] = with_map(R, g, 1.25 * np.asarray(R.maps[g]))
        noise = rng.standard_normal(R.maps[g].shape) + 1j * rng.standard_normal(R.maps[g].shape)
        out[f"{name} involution broken at {g}"] = with_map(R, g, R.maps[g] + 1e-3 * noise)
    return out


def same_reports(got, want):
    """Equal witnesses and notes, residuals to 1e-9 relative."""
    assert [(v.check, v.where) for v in got.violations] == \
        [(v.check, v.where) for v in want.violations]
    for a, b in zip(got.violations, want.violations):
        assert abs(a.residual - b.residual) <= 1e-9 * max(abs(b.residual), 1e-300)
    assert got.notes == want.notes


def raised(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


def broken_ls():
    """(bundle, L, dim) with L linear in the sections but not a
    *-homomorphism, each failing a different check first."""
    shipped = gallery.shipped_bundles()
    rng = np.random.default_rng(8)
    out = {}
    z2 = shipped["z2-line"]
    sign = FellRep(z2, {"pt": 1}, {"e": np.ones((1, 1, 1), dtype=complex),
                                   "g1": -np.ones((1, 1, 1), dtype=complex)})
    L1 = integrate(sign)
    out["z2 product off"] = (z2, lambda f: L1.matrix(f) + 0.5 * f.at("g1").sum(), 1)
    out["z2 not involutive"] = (z2, lambda f: L1.matrix(f) + 0.5j * f.at("g1").sum(), 1)
    for name in ("pair2-line", "a4-partial", "m2-twisted"):
        b = shipped[name]
        L = integrate(random_fellrep(b, rng))
        g = [h for h in b.groupoid.arrows if b.dims[h]][-1]
        out[f"{name} scaled at {g}"] = (
            b, lambda f, L=L, g=g: L.matrix(f) + 0.25 * L.matrix(Section(f.bundle, {g: f.at(g)})),
            L.dim)
    # pair(2): add E in the (x0, x0) corner to the image of x1<x0 and E* to
    # that of x0<x1.  The involution and every composable product of
    # x0<x0 still hold, but x0<x0 times x1<x0 (not composable) is E.
    b = shipped["pair2-line"]
    R = regular_fellrep(b, "x0")
    L2 = integrate(R)
    E = np.zeros((L2.dim, L2.dim), dtype=complex)
    E[:R.dims["x0"], :R.dims["x0"]] = 0.3 + 0.1j

    def off_corner(f):
        return L2.matrix(f) + f.at("x1<x0")[0] * E + f.at("x0<x1")[0] * E.conj().T
    out["pair2 non-composable product"] = (b, off_corner, L2.dim)
    return out


# -- tests ----------------------------------------------------------------------


def test_regular_reports_match_loop_reference(certify_raw):
    for name, b in bundles(certify_raw).items():
        for x in b.groupoid.objects:
            R = regular_fellrep(b, x)
            got = validate_rep(R)
            assert got.ok, (name, x)
            assert got.to_json() == loop_validate(R).to_json(), (name, x)


def test_random_reps_match_loop_reference(certify_raw):
    for label, b, R in random_reps(certify_raw):
        assert validate_rep(R).to_json() == loop_validate(R).to_json(), label
        L = integrate(R)
        got, want = disintegrate(b, L.matrix, L.dim), loop_disintegrate(b, L.matrix, L.dim)
        assert got.dims == want.dims, label
        for g in b.groupoid.arrows:
            assert np.array_equal(got.maps[g], want.maps[g]), (label, g)


def test_random_fellrep_matches_the_per_delta_l(certify_raw):
    # the delta images come from the stored Lambda(delta) stack in one
    # product; evaluating L on each delta section gives the same bits
    for name, b in bundles(certify_raw).items():
        for seed in range(2):
            got = random_fellrep(b, np.random.default_rng([seed, len(name)]))
            want = loop_random_fellrep(b, np.random.default_rng([seed, len(name)]))
            assert got.dims == want.dims, (name, seed)
            for g in b.groupoid.arrows:
                assert np.array_equal(got.maps[g], want.maps[g]), (name, seed, g)


def test_compressed_l_maps_match_loop_reference():
    # L embedded by an isometry into a larger space: L(unit section) is a
    # proper projection, and the images are compressed to its range first
    rng = np.random.default_rng(3)
    for name, b in gallery.shipped_bundles().items():
        L = integrate(random_fellrep(b, rng))
        W = np.linalg.qr(rng.standard_normal((L.dim + 2, L.dim))
                         + 1j * rng.standard_normal((L.dim + 2, L.dim)))[0]

        def padded(f, L=L, W=W):
            return W @ L.matrix(f) @ W.conj().T
        got = disintegrate(b, padded, L.dim + 2)
        want = loop_disintegrate(b, padded, L.dim + 2)
        assert got.dims == want.dims, name
        for g in b.groupoid.arrows:
            assert np.array_equal(got.maps[g], want.maps[g]), (name, g)


def brute_vanishing_failures(bundle, X, tol):
    G = bundle.groupoid
    deltas = [g for g in G.arrows for _ in range(bundle.dims[g])]
    return [[n, k] for n, g in enumerate(deltas) for k, h in enumerate(deltas)
            if G.src[g] != G.rng[h] and float(np.linalg.norm(X[n] @ X[k])) > tol]


def test_vanishing_screen_matches_all_products(certify_raw):
    # every product of non-composable basis images, formed one by one: none
    # above tol for a representation, some after one image gets a corner
    # block E (A E and E B vanish for different B), all for random images
    rng = np.random.default_rng(21)
    shipped = gallery.shipped_bundles()
    cases = [shipped["pair2-line"], shipped["a4"], shipped["a4-partial"],
             bundles(certify_raw)["line-pair3"]]
    failing = []
    for b in cases:
        R = regular_fellrep(b, b.groupoid.objects[0])
        L = integrate(R)
        off = R.offsets()
        X = np.array([L.matrix(s) for _, _, s in basis_sections(b)])
        assert _vanishing_failures(b, X, 1e-7).tolist() == [], b.name
        z1, *_, z2 = [x for x in b.groupoid.objects if R.dims[x]]
        for n in (0, len(X) - 1):
            Y = X.copy()
            Y[n, off[z1]:off[z1] + R.dims[z1], off[z2]:off[z2] + R.dims[z2]] += 0.5
            want = brute_vanishing_failures(b, Y, 1e-7)
            assert _vanishing_failures(b, Y, 1e-7).tolist() == want, (b.name, n)
            failing.append(len(want))
        Y = rng.standard_normal(X.shape) + 1j * rng.standard_normal(X.shape)
        assert _vanishing_failures(b, Y, 1e-7).tolist() == brute_vanishing_failures(b, Y, 1e-7)
    assert sum(failing) > 0 and failing.count(0) < len(failing) - 1


@pytest.mark.parametrize("name", sorted(perturbed_reps()))
def test_perturbed_rep_witnesses(name):
    R = perturbed_reps()[name]
    got = validate_rep(R)
    assert not got.ok
    same_reports(got, loop_validate(R))


def test_scaled_unit_map_witnesses_are_pinned():
    # S at the unit of x1 scaled by 5/4: still self-adjoint, and every
    # product through it off by 1/4 (5/16 for its square)
    R = perturbed_reps()["pair2-line scaled at x1<x1"]
    got = validate_rep(R).violations
    assert [round(v.residual, 12) for v in got] == [0.25, 0.25, 0.25, 0.3125, 0.25]
    assert [(v.check, v.where) for v in got] == [
        ("multiplicativity S_g S_h = S_{gh}", "(x0<x1,x1<x1)"),
        ("multiplicativity S_g S_h = S_{gh}", "(x1<x0,x0<x1)"),
        ("multiplicativity S_g S_h = S_{gh}", "(x1<x1,x1<x0)"),
        ("multiplicativity S_g S_h = S_{gh}", "(x1<x1,x1<x1)"),
        ("unit fibre acts nondegenerately", "object x1")]


@pytest.mark.parametrize("name", sorted(broken_ls()))
def test_broken_l_raises_the_loop_reference_error(name):
    b, L, dim = broken_ls()[name]
    assert raised(disintegrate, b, L, dim) == raised(loop_disintegrate, b, L, dim)


def test_non_composable_product_is_the_first_failure():
    b, L, dim = broken_ls()["pair2 non-composable product"]
    msg = raised(disintegrate, b, L, dim)
    assert msg == "L is not multiplicative at (x0<x0,x1<x0)"
    assert b.groupoid.src["x0<x0"] != b.groupoid.rng["x1<x0"]


def test_single_item_stacks_give_the_same_results(monkeypatch, certify_raw):
    monkeypatch.setattr(la, "_STACK_CHUNK", 1)
    for label, b, R in random_reps(certify_raw, count=1):
        assert validate_rep(R).to_json() == loop_validate(R).to_json(), label
        L = integrate(R)
        got = disintegrate(b, L.matrix, L.dim)
        want = loop_disintegrate(b, L.matrix, L.dim)
        for g in b.groupoid.arrows:
            assert np.array_equal(got.maps[g], want.maps[g]), (label, g)
    for name, R in perturbed_reps().items():
        same_reports(validate_rep(R), loop_validate(R))
    for name, (b, L, dim) in broken_ls().items():
        assert raised(disintegrate, b, L, dim) == raised(loop_disintegrate, b, L, dim), name
