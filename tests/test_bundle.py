import numpy as np
import pytest

import fellbund._linalg as la
from fellbund import gallery
from fellbund.bundle import (BundleHom, FellBundle, MatrixModelBundle,
                             UnitFiberAlgebra, is_injective, is_surjective,
                             range_source_ideals, saturation_check,
                             subbundle_from_frames, validate_bundle_hom,
                             validate_fell_bundle)
from fellbund.groupoid import cyclic_group, pair_groupoid
from fellbund.sections import Section, i_norm


def matrix_units(n, m):
    out = []
    for i in range(n):
        for j in range(m):
            e = np.zeros((n, m), dtype=complex)
            e[i, j] = 1
            out.append(e)
    return out


def full_pair_bundle(n1=2, n2=1):
    G = pair_groupoid(["1", "2"])
    dims = {"1": n1, "2": n2}
    fibers = {g: matrix_units(dims[G.rng[g]], dims[G.src[g]]) for g in G.arrows}
    return MatrixModelBundle(G, fibers).to_fell_bundle(name="full pair bundle")


def test_m2_over_point_valid():
    b = gallery.matrix_bundle_over_point(2)
    assert validate_fell_bundle(b).ok


def test_z2_line_valid():
    assert validate_fell_bundle(gallery.z2_line_bundle()).ok


def test_broken_involution_rejected():
    # Z/2 line bundle with the flip involution scaled by 2
    G = cyclic_group(2)
    one = np.ones((1, 1, 1), dtype=complex)
    mult = {pair: one.copy() for pair in ((g, h) for g in G.arrows for h in G.arrows)}
    inv = {"e": np.eye(1, dtype=complex), "g1": 2 * np.eye(1, dtype=complex)}
    unit_rep = {"pt": np.ones((1, 1, 1), dtype=complex)}
    b = FellBundle(G, {"e": 1, "g1": 1}, mult, inv, unit_rep, name="broken")
    rep = validate_fell_bundle(b)
    assert not rep.ok
    cited = {v.check for v in rep.violations}
    assert cited & {"involution involutive", "involution anti-multiplicative",
                    "norm preserved by involution"}


def test_bundle_over_a_groupoid_without_a_composite_names_the_pair():
    G = cyclic_group(2)
    H = type(G).from_data(G.objects, G.arrows, G.src, G.rng, G.unit, G.inv,
                          {p: k for p, k in G.comp.items() if p != ("g1", "g1")})
    one = np.ones((1, 1, 1))
    mult = {(g, h): one for g in H.arrows for h in H.arrows}
    with pytest.raises(ValueError, match=r"^composable pair \(g1,g1\) has no composite$"):
        FellBundle(H, {"e": 1, "g1": 1}, mult, {g: np.eye(1) for g in H.arrows}, {"pt": one})


def test_fiber_norm_examples():
    m2 = gallery.matrix_bundle_over_point(2)
    ident, _ = la.stack_expand(m2.unit_rep["pt"], np.eye(2))
    assert m2.fiber_norm("e", ident) == pytest.approx(1.0, abs=1e-12)
    diag, _ = la.stack_expand(m2.unit_rep["pt"], np.diag([3.0, -4.0]))
    assert m2.fiber_norm("e", diag) == pytest.approx(4.0, abs=1e-10)


def test_rank_one_column_norm_sqrt2():
    b = full_pair_bundle(2, 1)
    assert validate_fell_bundle(b).ok
    g = "1<2"  # fibre Mat(2 x 1)
    coords, res = la.stack_expand(b.matrix_model[g], np.array([[1.0], [1.0]]))
    assert res < 1e-12
    assert b.fiber_norm(g, coords) == pytest.approx(np.sqrt(2.0), abs=1e-10)


def test_fiber_norm_invariances():
    rng = np.random.default_rng(5)
    for name, b in gallery.shipped_bundles().items():
        G = b.groupoid
        for g in G.arrows:
            d = b.dims[g]
            if d == 0:
                continue
            a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            na = b.fiber_norm(g, a)
            assert b.fiber_norm(G.inv[g], b.star_coords(g, a)) == pytest.approx(na, abs=1e-9), name
            # C*-symmetry: norm via the range side of a a*
            gi = G.inv[g]
            aa = b.mult_coords(g, gi, a, b.star_coords(g, a))
            mat = la.hermitian_part(b.unit_matrix(G.rng[g], aa))
            nr = np.sqrt(max(np.linalg.eigvalsh(mat)[-1], 0.0))
            assert nr == pytest.approx(na, abs=1e-9), name


def test_range_source_ideals_trivial_and_zero():
    z2 = gallery.z2_line_bundle()
    r, s, rep = range_source_ideals(z2, "g1")
    assert rep.ok and r.shape[0] == 1 and s.shape[0] == 1
    # zero fibre: both ideals zero
    restricted = gallery.shipped_bundles()["z2-swap-compiled"]
    zero_bundle = FellBundle(
        z2.groupoid, {"e": 1, "g1": 0},
        {("e", "e"): np.ones((1, 1, 1)), ("e", "g1"): np.zeros((0, 1, 0)),
         ("g1", "e"): np.zeros((0, 0, 1)), ("g1", "g1"): np.zeros((1, 0, 0))},
        {"e": np.eye(1), "g1": np.zeros((0, 0))},
        {"pt": np.ones((1, 1, 1))}, name="zero at flip")
    assert validate_fell_bundle(zero_bundle).ok
    r0, s0, rep0 = range_source_ideals(zero_bundle, "g1")
    assert rep0.ok and r0.shape[0] == 0 and s0.shape[0] == 0


def test_a4_range_ideal_proper_at_flip():
    b = gallery.a4_over_z2_bundle()
    r, s, rep = range_source_ideals(b, "g1")
    assert rep.ok
    assert 0 < r.shape[0] < b.dims["e"]


def test_saturation():
    assert all(saturation_check(gallery.z2_line_bundle()).values())
    sat = saturation_check(gallery.a4_over_z2_bundle())
    assert sat == {"e": True, "g1": False}


def test_matrix_model_oracle_equivalence():
    # the matrix-level validator and the abstract validator agree
    G = cyclic_group(2)
    good = MatrixModelBundle(G, {"e": [np.eye(1, dtype=complex)],
                                 "g1": [np.eye(1, dtype=complex)]})
    assert good.validate().ok
    assert validate_fell_bundle(good.to_fell_bundle()).ok
    for name, b in gallery.shipped_bundles().items():
        if b.matrix_model is None:
            continue
        model = MatrixModelBundle(b.groupoid, {g: list(b.matrix_model[g])
                                               for g in b.groupoid.arrows})
        assert model.validate().ok == validate_fell_bundle(b).ok, name
    # a broken model: product leaves the target fibre
    bad = MatrixModelBundle(pair_groupoid(["1", "2"]),
                            {"1<1": [np.eye(1, dtype=complex)],
                             "2<2": [np.eye(1, dtype=complex)],
                             "1<2": [np.eye(1, dtype=complex)],
                             "2<1": []})
    rep = bad.validate()
    assert not rep.ok
    # a second broken model where both validators must reject: unit fibres
    # too small for the products of the off-diagonal fibres
    small_units = MatrixModelBundle(
        pair_groupoid(["1", "2"]),
        {"1<1": [np.diag([1.0, 0.0]).astype(complex)],
         "2<2": [np.diag([1.0, 0.0]).astype(complex)],
         "1<2": matrix_units(2, 2), "2<1": matrix_units(2, 2)})
    assert not small_units.validate().ok
    assert not validate_fell_bundle(small_units.to_fell_bundle()).ok


def test_bundle_hom_identity_and_quotient():
    b = gallery.a4_bundle()
    ident = BundleHom.identity(b)
    assert validate_bundle_hom(ident).ok
    assert is_injective(ident) and is_surjective(ident)

    from fellbund.ideals import FellIdeal, quotient_bundle
    I = FellIdeal.whole(b)
    q, hom = quotient_bundle(b, I)
    assert validate_bundle_hom(hom).ok
    assert is_surjective(hom) and not is_injective(hom)
    assert q.total_dim == 0


def test_inclusion_hom_injective_and_isometric():
    b = gallery.a4_over_z2_bundle()
    from fellbund.ideals import (FellIdeal, InvariantFamily,
                                 ideal_from_invariant_family)
    frames = {"pt": la.orth_rows(np.array([[0.0, 0.0, 1.0]], dtype=complex))}
    I = ideal_from_invariant_family(InvariantFamily(b, frames))
    sub, incl = subbundle_from_frames(b, dict(I.frames), name="ideal")
    assert validate_fell_bundle(sub).ok
    assert validate_bundle_hom(incl).ok
    assert is_injective(incl) and not is_surjective(incl)
    # injective homs are fibrewise isometric
    rng = np.random.default_rng(3)
    for g in b.groupoid.arrows:
        d = sub.dims[g]
        if d == 0:
            continue
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        assert sub.fiber_norm(g, a) == pytest.approx(
            b.fiber_norm(g, incl.apply(g, a)), abs=1e-9)


def test_unit_fiber_algebra_validation():
    alg = UnitFiberAlgebra.full_matrix_algebra(2)
    assert alg.validate().ok
    # not closed under product: span{E12} only
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1
    bad = UnitFiberAlgebra.from_matrices(2, [e12, np.eye(2) / np.sqrt(2)])
    assert not bad.validate().ok


def test_zero_fiber_dimensions_legal():
    restricted = gallery.restricted_swap_action()
    from fellbund.actions import compile_to_fell_bundle
    b = compile_to_fell_bundle(restricted)
    assert b.dims["g1"] == 0
    assert validate_fell_bundle(b).ok


def test_zero_unit_fiber_object():
    # disjoint union of two one-object groupoids; the second carries the
    # zero algebra, which forces every fibre over it to vanish
    from fellbund.groupoid import FiniteGroupoid
    from fellbund.envelope import envelope_algebra
    from fellbund.sections import unit_section
    G = FiniteGroupoid.from_data(
        ["x", "y"], ["ex", "ey"], {"ex": "x", "ey": "y"}, {"ex": "x", "ey": "y"},
        {"x": "ex", "y": "ey"}, {"ex": "ex", "ey": "ey"},
        {("ex", "ex"): "ex", ("ey", "ey"): "ey"})
    b = MatrixModelBundle(G, {"ex": [np.eye(1, dtype=complex)], "ey": []},
                          obj_dims={"x": 1, "y": 1}).to_fell_bundle()
    assert validate_fell_bundle(b).ok
    e = unit_section(b)
    assert set(e.entries) == {"ex"}
    assert i_norm(e) == 1.0
    env = envelope_algebra(b)
    assert env.dim == 1 and env.injective


def _oracle_bundles():
    """Every shipped bundle with a matrix model, plus one over pair({1,2})
    whose two off-diagonal fibres are zero-dimensional."""
    out = {name: b for name, b in gallery.shipped_bundles().items()
           if b.matrix_model is not None}
    G = pair_groupoid(["1", "2"])
    diag = {G.unit["1"]: matrix_units(2, 2), G.unit["2"]: matrix_units(1, 1)}
    out["pair2-diagonal"] = MatrixModelBundle(G, diag, obj_dims={"1": 2, "2": 1}).to_fell_bundle()
    return out


@pytest.mark.parametrize("name", sorted(_oracle_bundles()))
def test_fiber_norms_match_matrix_model_oracle(name):
    # independent oracle: the norm of a in A_g is the largest singular value
    # of the concrete matrix sum_i a_i M_i
    b = _oracle_bundles()[name]
    rng = np.random.default_rng(7)
    for g in b.groupoid.arrows:
        d = b.dims[g]
        rows = rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d))
        rows *= np.array([1.0, 1e-6, 1e6, 0.0, 3.0])[:, None]   # row 3 is zero
        got, bottoms = b.norm_rows([(g, rows)])
        mats = np.tensordot(rows, b.matrix_model[g], axes=1) if d else \
            np.zeros((5,) + b.matrix_model[g].shape[1:])
        want = np.array([np.linalg.norm(m, 2) if m.size else 0.0 for m in mats])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert got[3] == 0.0
        # and rho_{s(g)}(a* a) is the matrix M* M, with M = sum_i a_i M_i
        low = np.array([np.linalg.eigvalsh(m.conj().T @ m)[0] if m.size else 0.0 for m in mats])
        assert np.all(np.abs(bottoms - low) <= 1e-12 * want ** 2), (g, bottoms, low)
        # the one-vector path gives the same numbers, bit for bit
        assert list(got) == [b.fiber_norm(g, a) for a in rows]


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_matrix_model_rejects_non_finite_entry(bad):
    # before the check, inf gave an empty fibre that validated OK and NaN
    # ended in a LinAlgError from the SVD
    G = cyclic_group(2)
    m = np.full((1, 1), bad, dtype=complex)
    with pytest.raises(ValueError, match="arrow g1"):
        MatrixModelBundle(G, {"e": [np.eye(1)], "g1": [m]})


def test_fiber_norms_invariant_under_unitary_change_of_unit_basis(certify_bundles):
    # metamorphic: conjugating every unit-fibre representation rho_x by a
    # Haar unitary V_x is a change of basis of C^{n_x}; the spectra of
    # rho_x(a* a), hence every fibre norm, stay the same
    rng = np.random.default_rng(12)
    bundles = dict(gallery.shipped_bundles(), **certify_bundles)
    for name, b in bundles.items():
        G = b.groupoid
        V = {x: la.random_unitary(b.unit_dim(x), rng) for x in G.objects}
        rotated = FellBundle(G, b.dims, b.mult, b.inv,
                             {x: V[x] @ b.unit_rep[x] @ V[x].conj().T for x in G.objects},
                             name=f"{b.name} rotated")
        requests = []
        for g in G.arrows:
            d = b.dims[g]
            rows = rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))
            requests.append((g, rows))
            if d:
                assert rotated.fiber_norm(g, rows[0]) == pytest.approx(
                    b.fiber_norm(g, rows[0]), rel=1e-12, abs=0), (name, g)
        # norms and bottom eigenvalues of a* a, all arrows in one call
        got, want = rotated.norm_rows(requests), b.norm_rows(requests)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0, err_msg=name)
        np.testing.assert_allclose(got[1], want[1], rtol=0,
                                   atol=1e-12 * max(1.0, *want[0] ** 2), err_msg=name)
        entries = {g: rows[0] for g, rows in requests if b.dims[g]}
        assert i_norm(Section(rotated, entries)) == pytest.approx(
            i_norm(Section(b, entries)), rel=1e-12, abs=0), name


def _loop_fiber_norm(b, g, a):
    """Loop reference: the norm of one element and the bottom eigenvalue of
    rho_{s(g)}(a* a), formed for a / 2^e as the element-at-a-time path did
    (``star_mult_coords``, ``unit_matrix``, ``eigvalsh`` of the hermitian
    part)."""
    from fellbund.bundle import _exponents, _ldexp
    x = b.groupoid.src[g]
    if a.size == 0 or b.unit_dim(x) == 0:
        return 0.0, 0.0
    e = _exponents(a)
    a = _ldexp(a, -e)
    spectrum = np.linalg.eigvalsh(la.hermitian_part(b.unit_matrix(x, b.star_mult_coords(g, a, a))))
    with np.errstate(over="ignore"):
        return (float(np.ldexp(np.sqrt(max(spectrum[-1], 0.0)), e)),
                float(np.ldexp(spectrum[0], 2 * e)))


def test_norm_rows_mixed_requests_match_one_row_requests(monkeypatch, certify_bundles):
    # several shape groups (a4-over-z2), zero-dimensional fibres
    # (pair2-diagonal), chunks of many rows (m3-pair3) and 1 x 1 unit
    # representations (line-z8), with repeated arrows, requests of 0 rows
    # and rows scaled by 1e300 and 1e-300: every row is bit-identical to its
    # own one-row request and to the loop reference, whatever the chunk size
    # (z2-skew: rho(a* a) has a negative real and a nonzero imaginary part)
    rng = np.random.default_rng(21)
    z2 = gallery.z2_line_bundle()
    bundles = {"a4-over-z2": gallery.a4_over_z2_bundle(),
               "pair2-diagonal": _oracle_bundles()["pair2-diagonal"],
               "m3-pair3": certify_bundles["m3-pair3"], "line-z8": certify_bundles["line-z8"],
               "z2-skew": FellBundle(z2.groupoid, z2.dims, z2.mult, z2.inv,
                                     {"pt": np.full((1, 1, 1), -0.5 + 0.25j)})}
    for name, b in bundles.items():
        arrows = list(b.groupoid.arrows)
        requests = []
        for g in rng.permutation(arrows + arrows[:2]):
            d, m = b.dims[g], int(rng.choice([0, 1, 3, 40]))
            rows = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
            requests.append((str(g), rows * rng.choice([1.0, 1e300, 1e-300, 0.0], (m, 1))))
        # and, as the I-norm asks, one row per arrow in declared order
        requests += [(g, rng.standard_normal((1, b.dims[g])) + 0j) for g in arrows]
        norms, bottoms = b.norm_rows(requests)
        assert len(norms) == len(bottoms) == sum(len(rows) for _, rows in requests)
        ones = [b.norm_rows([(g, a[None])]) for g, rows in requests for a in rows]
        assert norms.tolist() == [n[0] for n, _ in ones], name
        assert bottoms.tolist() == [m[0] for _, m in ones], name
        loop = [_loop_fiber_norm(b, g, a) for g, rows in requests for a in rows]
        assert norms.tolist() == [n for n, _ in loop], name
        assert bottoms.tolist() == [m for _, m in loop], name
        assert norms.tolist() == [b.fiber_norm(g, a) for g, rows in requests for a in rows]
        tail = (requests[-len(arrows):], norms[-len(arrows):], bottoms[-len(arrows):])
        for chunk in (la._STACK_CHUNK, 1):
            monkeypatch.setattr(la, "_STACK_CHUNK", chunk)
            for part, n, m in ((requests, norms, bottoms), tail):
                got = b.norm_rows(part)
                assert got[0].tolist() == n.tolist() and got[1].tolist() == m.tolist(), (name, chunk)
        monkeypatch.undo()
    assert [len(out) for out in gallery.a4_bundle().norm_rows([])] == [0, 0]


@pytest.mark.parametrize("name", ["line-z24", "a4-over-z2"])
def test_validator_makes_at_most_three_norm_core_calls(monkeypatch, certify_bundles, name):
    b = dict(gallery.shipped_bundles(), **certify_bundles)[name]
    calls = []
    core = FellBundle.norm_rows

    def counted(self, requests):
        calls.append(len(requests))
        return core(self, requests)
    monkeypatch.setattr(FellBundle, "norm_rows", counted)
    validate_fell_bundle(b)
    assert 1 <= len(calls) <= 3, calls


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_section_norms_raise_naming_the_arrow(bad):
    # before, i_norm and cstar_norm read 0.0 (max dropped the NaN),
    # per_object_norms NaN and a NaN entry ended in a LinAlgError
    from fellbund.envelope import cstar_norm, per_object_norms
    b = gallery.a4_bundle()
    f = Section(b, {"p|e|p": [1.0], "r|g1|r": [bad]})
    for norm in (i_norm, lambda f: cstar_norm(b, f), lambda f: per_object_norms(b, f),
                 lambda f: b.fiber_norm("r|g1|r", f.at("r|g1|r"))):
        with pytest.raises(ValueError, match=r"non-finite .* arrow r\|g1\|r"):
            norm(f)
    with pytest.raises(ValueError, match=r"arrow r\|g1\|r"):
        b.norm_rows([("p|e|p", np.ones((2, 1))), ("r|g1|r", np.array([[1.0], [bad]]))])


def test_unit_fibre_algebra_rejects_matrices_of_the_wrong_size():
    with pytest.raises(ValueError, match=r"expected 2x2 matrices, got shape \(3, 3\)"):
        UnitFiberAlgebra.from_matrices(2, [np.diag([1.0, 0.0, 0.0])])
    with pytest.raises(ValueError, match="expected 2x2 matrices"):
        UnitFiberAlgebra.from_matrices(2, [np.eye(2), np.ones((2, 1))])
    assert UnitFiberAlgebra.from_matrices(2, [np.eye(2)]).dim == 1
