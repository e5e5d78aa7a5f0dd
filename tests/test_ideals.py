import itertools

import numpy as np

import fellbund._linalg as la
from fellbund import gallery
from fellbund.bundle import BundleHom, FellBundle, validate_bundle_hom, validate_fell_bundle
from fellbund.config import DEFAULT
from fellbund.envelope import envelope_algebra
from fellbund.groupoid import trivial_group
from fellbund.ideals import (FellIdeal, InvariantFamily, enumerate_fell_ideals,
                             exactness_verify, hereditary_from_family,
                             ideal_from_invariant_family, invariant_family_from_ideal,
                             quotient_bundle, split_extension_from_hom,
                             split_exactness_verify, validate_fell_ideal,
                             validate_invariant_family)
from fellbund.spectrum import fiber_spectrum, support_frame


def a4_pq_family():
    b = gallery.a4_bundle()
    frames = {x: (np.eye(1, dtype=complex) if x in ("p", "q")
                  else np.zeros((0, 1), dtype=complex)) for x in b.groupoid.objects}
    return b, InvariantFamily(b, frames)


def test_zero_and_whole_ideals_valid():
    for name, b in gallery.shipped_bundles().items():
        assert validate_fell_ideal(FellIdeal.zero(b)).ok, name
        assert validate_fell_ideal(FellIdeal.whole(b)).ok, name


def test_forced_non_ideal_cited():
    b = gallery.z2_line_bundle()
    # supported only at the unit arrow: absorbs nothing at the flip
    I = FellIdeal.from_spanning(b, {"e": [[1.0]]})
    rep = validate_fell_ideal(I)
    assert not rep.ok
    assert any("inside I_gh" in v.check for v in rep.violations)


def test_family_ideal_bijection_roundtrip():
    b, F = a4_pq_family()
    assert validate_invariant_family(F).ok
    I = ideal_from_invariant_family(F)
    assert validate_fell_ideal(I).ok
    back = invariant_family_from_ideal(I)
    for x in b.groupoid.objects:
        assert la.frame_eq(back.frames[x], F.frames[x], 1e-9)


def test_full_family_gives_whole_bundle():
    b = gallery.a4_bundle()
    F = InvariantFamily(b, {x: np.eye(1, dtype=complex) for x in b.groupoid.objects})
    I = ideal_from_invariant_family(F)
    assert I.total_dim() == b.total_dim


def test_non_invariant_family_detected():
    b = gallery.a4_bundle()
    # {p} alone is not invariant under the swap
    frames = {x: (np.eye(1, dtype=complex) if x == "p"
                  else np.zeros((0, 1), dtype=complex)) for x in b.groupoid.objects}
    rep = validate_invariant_family(InvariantFamily(b, frames))
    assert not rep.ok
    assert any("invariance" in v.check or "one-sided" in v.check
               for v in rep.violations)


def test_invariant_open_subset_supports_ideal():
    b, F = a4_pq_family()
    I = ideal_from_invariant_family(F)
    dims = {g: I.dim(g) for g in b.groupoid.arrows}
    assert dims == {"p|e|p": 1, "q|e|q": 1, "r|e|r": 0,
                    "q|g1|p": 1, "p|g1|q": 1, "r|g1|r": 0}


def test_hereditary_full_family_recovers_bundle():
    b = gallery.a4_over_z2_bundle()
    H = {"pt": np.eye(b.dims["e"], dtype=complex)}
    sub, incl, rep = hereditary_from_family(b, H)
    assert rep.ok
    assert sub.dims == b.dims


def test_hereditary_corner_of_m2_is_line():
    b = gallery.matrix_bundle_over_point(2)
    p = np.zeros((2, 2), dtype=complex)
    p[0, 0] = 1.0
    coords, _ = la.stack_expand(b.unit_rep["pt"], p)
    sub, incl, rep = hereditary_from_family(b, {"pt": la.orth_rows(coords[None, :])})
    assert rep.ok
    assert sub.dims == {"e": 1}
    assert validate_fell_bundle(sub).ok
    assert validate_bundle_hom(incl).ok


def test_quotient_by_zero_and_whole():
    b = gallery.a4_bundle()
    q0, h0 = quotient_bundle(b, FellIdeal.zero(b))
    assert q0.dims == b.dims
    rng = np.random.default_rng(0)
    from fellbund.sections import random_section, induced_hom
    f = random_section(b, rng)
    # identity up to the (orthonormal) coordinate change; here frames = identity
    assert np.linalg.norm((induced_hom(h0)(f).pack() - f.pack())) < 1e-12
    q1, _ = quotient_bundle(b, FellIdeal.whole(b))
    assert q1.total_dim == 0


def test_a4_quotient_is_z2_over_r():
    b, F = a4_pq_family()
    I = ideal_from_invariant_family(F)
    q, hom = quotient_bundle(b, I)
    assert validate_fell_bundle(q).ok
    env = envelope_algebra(q)
    assert env.dim == 2
    assert env.block_summary() == [{"size": 1, "multiplicity": 1}] * 2


def test_exactness_trivial_ideal():
    b = gallery.z2_line_bundle()
    ex = exactness_verify(b, FellIdeal.zero(b))
    assert ex.ok and ex.dim_ideal == 0 and ex.dim_quotient == ex.dim_total


def test_exactness_a4_dimensions():
    b, F = a4_pq_family()
    I = ideal_from_invariant_family(F)
    ex = exactness_verify(b, I)
    assert ex.ok
    assert (ex.dim_ideal, ex.dim_quotient, ex.dim_total) == (4, 2, 6)
    assert not ex.essential  # the quotient support annihilates the ideal


def test_exactness_all_enumerated_ideals():
    for name in ("a4", "a4-over-z2", "z2-swap-compiled", "klein-twisted"):
        b = gallery.shipped_bundles()[name]
        for I in enumerate_fell_ideals(b):
            ex = exactness_verify(b, I)
            assert ex.ok, f"{name}: {ex.to_json()}"


def test_enumeration_counts():
    assert len(enumerate_fell_ideals(gallery.a4_bundle())) == 4
    assert len(enumerate_fell_ideals(gallery.klein_twisted_bundle())) == 2
    # bundle supported on units: every block subset is invariant
    from fellbund.actions import compile_to_fell_bundle, TwistedPartialAction
    from fellbund.bundle import UnitFiberAlgebra
    from fellbund.groupoid import cyclic_group
    G = cyclic_group(2)
    e11 = np.diag([1.0, 0.0]).astype(complex)
    e22 = np.diag([0.0, 1.0]).astype(complex)
    fibers = {"pt": UnitFiberAlgebra.from_matrices(2, [e11, e22])}
    T = TwistedPartialAction.build(G, fibers, {"g1": []}, {"g1": np.zeros((0, 0))})
    units_only = compile_to_fell_bundle(T)
    assert len(enumerate_fell_ideals(units_only)) == 4  # 2^(number of blocks)


def test_enumeration_cap_guard():
    import pytest
    with pytest.raises(ValueError, match="cap"):
        enumerate_fell_ideals(gallery.a4_bundle(), cap=2)


def test_enumeration_with_zero_unit_fibre():
    # two one-object components, the second over the zero algebra: the Fell
    # ideals are those of C over the first, 0 and everything
    from fellbund.bundle import MatrixModelBundle
    from fellbund.groupoid import FiniteGroupoid
    G = FiniteGroupoid.from_data(
        ["x", "y"], ["ex", "ey"], {"ex": "x", "ey": "y"}, {"ex": "x", "ey": "y"},
        {"x": "ex", "y": "ey"}, {"ex": "ex", "ey": "ey"},
        {("ex", "ex"): "ex", ("ey", "ey"): "ey"})
    b = MatrixModelBundle(G, {"ex": [np.eye(1, dtype=complex)], "ey": []},
                          obj_dims={"x": 1, "y": 1}).to_fell_bundle()
    found = enumerate_fell_ideals(b)
    assert [{g: I.dim(g) for g in G.arrows} for I in found] == \
        [{"ex": 0, "ey": 0}, {"ex": 1, "ey": 0}]


def test_enumeration_runs_once_per_bundle(monkeypatch):
    import fellbund.ideals as ideals
    calls = []
    real = ideals.validate_invariant_family
    monkeypatch.setattr(ideals, "validate_invariant_family",
                        lambda F, tols: calls.append(F) or real(F, tols))
    b = gallery.a4_bundle()
    first, second = enumerate_fell_ideals(b), enumerate_fell_ideals(b)
    assert len(calls) == 8                   # 2^3 candidate families, searched once
    assert first is not second and len(first) == len(second) == 4
    assert all(I is J for I, J in zip(first, second))
    first.clear()
    assert len(enumerate_fell_ideals(b)) == 4


def test_quotient_hom_kills_inclusion():
    b, F = a4_pq_family()
    I = ideal_from_invariant_family(F)
    from fellbund.bundle import subbundle_from_frames
    sub, incl = subbundle_from_frames(b, dict(I.frames))
    q, qhom = quotient_bundle(b, I)
    for g in b.groupoid.arrows:
        comp = np.asarray(qhom.maps[g]) @ np.asarray(incl.maps[g])
        assert np.linalg.norm(comp) < 1e-10


def test_split_extension_c_in_m2():
    A = gallery.trivial_line_bundle(trivial_group(), name="C")
    B = gallery.matrix_bundle_over_point(2)
    coords, _ = la.stack_expand(B.unit_rep["pt"], np.eye(2))
    tau = BundleHom(A, B, {"e": coords.reshape(4, 1)})
    E = split_extension_from_hom(tau)
    assert E.total.dims == {"e": 5}
    assert validate_fell_bundle(E.total).ok
    rep = split_exactness_verify(E)
    assert rep.ok, rep.summary()
    assert envelope_algebra(E.total).dim == 5


def test_split_extension_identity_and_zero():
    A = gallery.z2_line_bundle()
    ident = BundleHom.identity(A)
    E = split_extension_from_hom(ident)
    assert split_exactness_verify(E).ok
    zero = BundleHom(A, A, {g: np.zeros((A.dims[g], A.dims[g]), dtype=complex)
                            for g in A.groupoid.arrows})
    E0 = split_extension_from_hom(zero)
    assert split_exactness_verify(E0).ok
    # zero hom gives the direct-sum extension: envelope dims add
    assert envelope_algebra(E0.total).dim == 2 * envelope_algebra(A).dim


# -- the search's record of local checks ---------------------------------------

def fresh(b):
    """The same bundle with nothing derived yet: no recorded checks."""
    return FellBundle(b.groupoid, b.dims, b.mult, b.inv, b.unit_rep)


def search_candidates(b, tols=DEFAULT):
    """The search's candidate families, formed as it forms them, in its order."""
    spec = fiber_spectrum(b, tols)
    G = b.groupoid
    counts = [len(spec.by_object[x]) for x in G.objects]
    frames = [[support_frame(b, x, [k for k in spec.by_object[x] if mask >> k.index & 1], tols)
               for mask in range(2 ** c)] for x, c in zip(G.objects, counts)]
    for combo in itertools.product(*[range(2 ** c) for c in counts]):
        yield InvariantFamily(b, {x: frames[i][mask] for i, (x, mask)
                                  in enumerate(zip(G.objects, combo))})


def random_frames(b, rng):
    """Per object, orthonormal rows of a seeded random rank in the unit fibre:
    no sum of blocks, so the search has recorded none of them."""
    out = {}
    for x in b.groupoid.objects:
        d = b.dims[b.groupoid.unit[x]]
        r = int(rng.integers(0, d + 1))
        out[x] = la.orth_rows(rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d)))
    return out


def search_bundles(certify_bundles):
    from test_random_pipeline import SEEDS, random_instance
    from fellbund.actions import compile_to_fell_bundle
    yield from gallery.shipped_bundles().items()
    yield from certify_bundles.items()
    for seed in SEEDS:
        yield f"random-{seed}", compile_to_fell_bundle(random_instance(seed))


def test_recorded_verdicts_equal_fresh_ones(certify_bundles):
    # after the search every candidate's report is read from its record; it
    # must equal the report of a bundle that has recorded nothing, residuals
    # included, and so must that of a family with random frames mixed in
    rng = np.random.default_rng(21)
    searched = 0
    for name, b in search_bundles(certify_bundles):
        candidates = list(search_candidates(b))
        if len(candidates) > 256:
            continue
        enumerate_fell_ideals(b)
        for F in candidates:
            got = validate_invariant_family(F).to_json()
            assert got == validate_invariant_family(InvariantFamily(fresh(b), F.frames)).to_json(), \
                name
        noise = random_frames(b, rng)
        for x in b.groupoid.objects:
            frames = dict(candidates[-1].frames, **{x: noise[x]})
            got = validate_invariant_family(InvariantFamily(b, frames)).to_json()
            assert got == validate_invariant_family(InvariantFamily(fresh(b), frames)).to_json(), \
                (name, x)
        searched += 1
    assert searched >= 20


def test_recorded_verdicts_follow_frame_content():
    b, F = a4_pq_family()
    frames = {x: f.copy() for x, f in F.frames.items()}
    assert validate_invariant_family(InvariantFamily(b, frames)).ok
    # changed in place: F_p = 0 . C is no longer invariant under the swap
    frames["p"][0, 0] = 0.0
    changed = validate_invariant_family(InvariantFamily(b, frames))
    assert not changed.ok
    assert changed.to_json() == validate_invariant_family(
        InvariantFamily(fresh(b), frames)).to_json()
    # given as float64: read by content, the verdicts of the complex frames
    for values in ({"p": 1.0, "q": 1.0}, {"p": 0.0, "q": 1.0}, {"p": 0.5, "q": 1.0}):
        real = {x: (np.full((1, 1), values[x]) if x in values else np.zeros((0, 1)))
                for x in b.groupoid.objects}
        want = validate_invariant_family(InvariantFamily(fresh(b), real)).to_json()
        assert validate_invariant_family(InvariantFamily(b, real)).to_json() == want
        assert want == validate_invariant_family(InvariantFamily(
            fresh(b), {x: f.astype(complex) for x, f in real.items()})).to_json()
    assert not validate_invariant_family(InvariantFamily(b, {
        x: np.full((1, 1), 0.5) if x in "pq" else np.zeros((0, 1)) for x in "pqr"})).ok


def test_search_runs_a_bounded_number_of_svd_passes(monkeypatch):
    # pair(7) line: 7 objects with one block each, 128 candidates and 182
    # distinct arrow checks; the SVDs run per group of equal shapes
    b = gallery.pair_line_bundle(7)
    fiber_spectrum(b)
    calls = []
    real = la.stacked_orth_rows
    monkeypatch.setattr(la, "stacked_orth_rows", lambda v, rtol=1e-10: calls.append(v.shape)
                        or real(v, rtol))
    assert len(enumerate_fell_ideals(b)) == 2
    # 7 nonempty subset frames, the two product frames of each of the 3
    # frame-shape pairs with a nonzero frame, and one group per found ideal
    # (zero or whole): not one pass per candidate
    assert len(calls) <= 7 + 2 * 3 + 2 < 128


def test_ideal_frames_equal_the_per_arrow_frames_bit_for_bit(certify_bundles):
    # the stacked products and SVD give each arrow's frame as orth_rows on
    # that arrow alone gives it
    import fellbund.ideals as ideals
    for name, b in [*gallery.shipped_bundles().items(), *certify_bundles.items()]:
        G = b.groupoid
        for I in enumerate_fell_ideals(b):
            F = invariant_family_from_ideal(I)
            got = ideal_from_invariant_family(F).frames
            for g in G.arrows:
                x = G.rng[g]
                vecs = ideals._left_products(b.mult[(G.unit[x], g)][None], F.frames[x][None])
                want = la.orth_rows(vecs[0], DEFAULT.rank_threshold)
                assert got[g].shape == want.shape and got[g].dtype == want.dtype, (name, g)
                assert got[g].tobytes() == want.tobytes(), (name, g)
