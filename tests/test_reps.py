import warnings

import numpy as np
import pytest

import fellbund._linalg as la
from fellbund import gallery
from fellbund.envelope import cstar_norm
from fellbund.reps import (FellRep, disintegrate, integrate, intertwiner_check,
                           partial_isometry_residuals, random_fellrep,
                           regular_fellrep, validate_rep)
from fellbund.sections import Section, i_norm, random_section, unit_section


def rep_distance(R1: FellRep, R2: FellRep) -> float:
    worst = 0.0
    for x in R1.bundle.groupoid.objects:
        if R1.dims[x] != R2.dims[x]:
            return np.inf
    for g in R1.bundle.groupoid.arrows:
        worst = max(worst, float(np.linalg.norm(np.asarray(R1.maps[g]) -
                                                np.asarray(R2.maps[g]))))
    return worst


def test_character_rep_of_z2():
    b = gallery.z2_line_bundle()
    R = FellRep(b, {"pt": 1}, {"e": np.ones((1, 1, 1), dtype=complex),
                               "g1": -np.ones((1, 1, 1), dtype=complex)})
    assert validate_rep(R).ok
    L = integrate(R)
    f = Section(b, {"e": [2.0], "g1": [3.0]})
    np.testing.assert_allclose(L.matrix(f), [[-1.0]], atol=1e-12)
    np.testing.assert_allclose(L.matrix(unit_section(b)), [[1.0]], atol=1e-12)


def test_zero_rep_is_valid_but_flagged():
    b = gallery.z2_line_bundle()
    R = FellRep(b, {"pt": 0}, {"e": np.zeros((0, 0, 1), dtype=complex),
                               "g1": np.zeros((0, 0, 1), dtype=complex)})
    rep = validate_rep(R)
    assert rep.ok
    assert any("degenerate" in n for n in rep.notes)


def test_broken_involution_cited():
    b = gallery.z2_line_bundle()
    R = FellRep(b, {"pt": 1}, {"e": np.ones((1, 1, 1), dtype=complex),
                               "g1": 2j * np.ones((1, 1, 1), dtype=complex)})
    rep = validate_rep(R)
    assert not rep.ok
    assert any("involution" in v.check for v in rep.violations)


def test_regular_fellrep_validates_everywhere():
    for name, b in gallery.shipped_bundles().items():
        for x in b.groupoid.objects:
            R = regular_fellrep(b, x)
            assert validate_rep(R).ok, f"{name} at {x}"


def test_regular_fellrep_matches_regular_matrix_norms():
    from fellbund.envelope import regular_rep_matrix
    rng = np.random.default_rng(0)
    for name in ("z2-line", "a4-over-z2", "pair2-line", "klein-twisted"):
        b = gallery.shipped_bundles()[name]
        for x in b.groupoid.objects:
            R = regular_fellrep(b, x)
            L = integrate(R)
            for _ in range(3):
                f = random_section(b, rng)
                direct = regular_rep_matrix(b, x, f)
                assert la.operator_norm(L.matrix(f)) == pytest.approx(
                    la.operator_norm(direct), abs=1e-9), name


@pytest.mark.parametrize("scale", [2.0, 1e200])
def test_validate_rep_reports_multiplicativity_at_any_scale(scale):
    # S_e = S_g1 = scale on z2-line: S_e S_e = scale^2 but S_e(e e) = scale.
    # At 1e200 the product overflows to inf; the bounds tol * max(1, |.|)
    # must stay finite, or the residual inf passes against a bound of inf
    # without a numpy overflow warning, and the nondegeneracy residual
    # |S_e(1) - 1| = scale - 1 stays finite
    b = gallery.z2_line_bundle()
    R = FellRep(b, {"pt": 1}, {g: np.full((1, 1, 1), scale) for g in b.groupoid.arrows})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = validate_rep(R)
    assert [v.where for v in rep.violations if v.check.startswith("multiplicativity")] == [
        "(e,e)", "(e,g1)", "(g1,e)", "(g1,g1)"]
    [unit] = [v for v in rep.violations if v.check.startswith("unit fibre")]
    assert (unit.where, unit.residual) == ("object pt", scale - 1.0)


def test_z2_regular_fellrep_permutes_basis():
    b = gallery.z2_line_bundle()
    R = regular_fellrep(b, "pt")
    assert R.dims["pt"] == 2
    flip = R.apply("g1", np.array([1.0 + 0j]))
    np.testing.assert_allclose(np.abs(flip), [[0, 1], [1, 0]], atol=1e-9)


def test_pair_groupoid_regular_fellrep_matrix_units():
    b = gallery.pair_line_bundle(2)
    R = regular_fellrep(b, "x0")
    assert sum(R.dims.values()) == 2
    L = integrate(R)
    f = Section(b, {"x0<x1": [1.0]})
    m = L.matrix(f)
    assert np.count_nonzero(np.abs(m) > 1e-12) == 1  # a single matrix unit


def test_disintegrate_integrate_roundtrip_exact():
    rng = np.random.default_rng(1)
    for name in ("z2-line", "trivial-M2", "a4-over-z2", "klein-twisted"):
        b = gallery.shipped_bundles()[name]
        for _ in range(5):
            R = random_fellrep(b, rng)
            L = integrate(R)
            R2 = disintegrate(b, L.matrix, L.dim)
            assert rep_distance(R, R2) < 1e-10, name
            L2 = integrate(R2)
            f = random_section(b, rng)
            assert np.linalg.norm(L.matrix(f) - L2.matrix(f)) < 1e-10, name


def test_disintegrate_regular_representation():
    # feeding the full regular representation back through disintegration
    # recovers a valid representation whose integrated form is Lambda exactly
    from fellbund.envelope import envelope_algebra
    for name in ("z2-line", "a4-over-z2", "m2-twisted"):
        b = gallery.shipped_bundles()[name]
        env = envelope_algebra(b)
        dim = sum(env.per_object_dims.values())
        R = disintegrate(b, env.lambda_of, dim)
        assert validate_rep(R).ok, name
        L = integrate(R)
        rng = np.random.default_rng(6)
        for _ in range(3):
            f = random_section(b, rng)
            assert np.linalg.norm(L.matrix(f) - env.lambda_of(f)) < 1e-9, name


def test_disintegrate_compresses_degenerate_part():
    b = gallery.z2_line_bundle()
    R = FellRep(b, {"pt": 1}, {"e": np.ones((1, 1, 1), dtype=complex),
                               "g1": -np.ones((1, 1, 1), dtype=complex)})
    L = integrate(R)

    def padded(f):
        m = L.matrix(f)
        out = np.zeros((3, 3), dtype=complex)
        out[1, 1] = m[0, 0]
        return out
    R2 = disintegrate(b, padded, 3)
    assert R2.dims["pt"] == 1
    assert rep_distance(R, R2) < 1e-12


def test_disintegrate_rejects_zero_and_non_hom():
    b = gallery.z2_line_bundle()
    with pytest.raises(ValueError, match="degenerate"):
        disintegrate(b, lambda f: np.zeros((2, 2), dtype=complex), 2)
    # linearly fine but not multiplicative: scale the flip only
    R = FellRep(b, {"pt": 1}, {"e": np.ones((1, 1, 1), dtype=complex),
                               "g1": -np.ones((1, 1, 1), dtype=complex)})
    L = integrate(R)

    def broken(f):
        m = L.matrix(f).copy()
        return m + 0.5 * f.at("g1").sum()
    with pytest.raises(ValueError):
        disintegrate(b, broken, 1)


def test_integration_norm_bounds():
    rng = np.random.default_rng(2)
    for name, b in gallery.shipped_bundles().items():
        R = random_fellrep(b, rng)
        L = integrate(R)
        for _ in range(5):
            f = random_section(b, rng)
            n = la.operator_norm(L.matrix(f))
            assert n <= i_norm(f) + 1e-8, name
            assert n <= cstar_norm(b, f) + 1e-8, name


def test_intertwiner_identity_and_unitary_conjugate():
    b = gallery.shipped_bundles()["z2-swap-compiled"]
    rng = np.random.default_rng(3)
    R = random_fellrep(b, rng)
    ident = {x: np.eye(R.dims[x], dtype=complex) for x in b.groupoid.objects}
    assert intertwiner_check(R, R, ident).ok
    # conjugate by per-object unitaries
    U = {x: la.random_unitary(R.dims[x], rng) if R.dims[x] else
         np.zeros((0, 0), dtype=complex) for x in b.groupoid.objects}
    maps = {}
    G = b.groupoid
    for g in G.arrows:
        maps[g] = np.einsum("ab,bck,cd->adk", U[G.rng[g]], np.asarray(R.maps[g]),
                            U[G.src[g]].conj().T)
    R2 = FellRep(b, dict(R.dims), maps)
    assert validate_rep(R2).ok
    assert intertwiner_check(R, R2, U).ok


def test_intertwiner_mismatch_cited():
    b = gallery.z2_line_bundle()
    R1 = FellRep(b, {"pt": 1}, {"e": np.ones((1, 1, 1), dtype=complex),
                                "g1": np.ones((1, 1, 1), dtype=complex)})
    R2 = FellRep(b, {"pt": 1}, {"e": np.ones((1, 1, 1), dtype=complex),
                                "g1": -np.ones((1, 1, 1), dtype=complex)})
    rep = intertwiner_check(R1, R2, {"pt": np.eye(1, dtype=complex)})
    assert not rep.ok
    assert any("g1" in v.where for v in rep.violations)


def test_partial_isometry_property():
    rng = np.random.default_rng(4)
    for name in ("z2-line", "a4-over-z2", "z2-swap-compiled"):
        b = gallery.shipped_bundles()[name]
        R = random_fellrep(b, rng)
        for g in b.groupoid.arrows:
            iso, supp = partial_isometry_residuals(R, g)
            assert iso < 1e-8, name
            assert supp < 1e-7, name


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_disintegrate_rejects_non_finite_l(bad):
    # before the check, an inf L went through the V0 compression to a
    # zero-dimensional representation that validate_rep called OK, and a
    # NaN L ended in an IndexError from the pivoted range frame
    b = gallery.z2_line_bundle()
    with pytest.raises(ValueError, match=r"^L\(unit section\) has a non-finite entry$"):
        disintegrate(b, lambda f: np.full((2, 2), bad), 2)


def regular_l_with(b, x, fault):
    """The regular representation's L at x, with ``fault(f, m)`` applied to
    every image."""
    L = integrate(regular_fellrep(b, x))
    return (lambda f: fault(f, L.matrix(f))), L.dim


def test_disintegrate_names_a_misshapen_or_non_finite_delta_image():
    b = gallery.z2_line_bundle()
    L, dim = regular_l_with(b, "pt", lambda f, m: np.zeros((3, 3)) if "g1" in f.entries else m)
    # before the check: numpy's "matmul: Input operand 1 has a mismatch"
    with pytest.raises(ValueError, match=r"^L\(delta \(g1,0\)\) has shape \(3, 3\), "
                                         r"want \(2, 2\)$"):
        disintegrate(b, L, dim)
    L, dim = regular_l_with(b, "pt", lambda f, m: m * np.nan if "g1" in f.entries else m)
    with pytest.raises(ValueError, match=r"^L\(delta \(g1,0\)\) has a non-finite entry$"):
        disintegrate(b, L, dim)


def test_disintegrate_names_a_non_finite_unit_image():
    # on a line bundle the unit at x0 is a delta section too, so the fault
    # comes from the number of calls: L(e), the deltas, then the L(1_x)
    b = gallery.pair_line_bundle(2)
    calls = []

    def late_nan(f, m):
        calls.append(f)
        return m * np.nan if len(calls) > 1 + b.total_dim else m
    L, dim = regular_l_with(b, "x0", late_nan)
    with pytest.raises(ValueError, match=r"^L\(1_x0\) has a non-finite entry$"):
        disintegrate(b, L, dim)


def conjugated(R, U):
    """R conjugated object by object: S_g -> U_{r(g)} S_g U_{s(g)}*."""
    G = R.bundle.groupoid
    return FellRep(R.bundle, dict(R.dims), {g: np.einsum(
        "ab,bck,dc->adk", U[G.rng[g]], np.asarray(R.maps[g]), U[G.src[g]].conj())
        for g in G.arrows})


def test_validate_rep_witnesses_invariant_under_unitary_conjugation():
    # metamorphic: a unitary change of basis of each H_x preserves every
    # residual's Frobenius norm, hence the verdict and the witness list
    rng = np.random.default_rng(9)
    for name, b in gallery.shipped_bundles().items():
        R = random_fellrep(b, rng)
        G = b.groupoid
        g = [h for h in G.arrows if np.asarray(R.maps[h]).size][-1]
        maps = dict(R.maps)
        maps[g] = 1.5 * np.asarray(R.maps[g]) + 1e-3j
        broken = FellRep(b, dict(R.dims), maps)
        U = {x: la.random_unitary(R.dims[x], rng) for x in G.objects}
        for S in (R, broken):
            want = validate_rep(S)
            got = validate_rep(conjugated(S, U))
            assert got.ok == want.ok, name
            assert [(v.check, v.where) for v in got.violations] == \
                [(v.check, v.where) for v in want.violations], name
        assert not validate_rep(broken).ok, name


def test_partial_isometry_residuals_match_basis_loop():
    # W and the support vectors assembled one basis element at a time
    from fellbund.bundle import ei
    from fellbund.envelope import induced_gram
    rng = np.random.default_rng(4)
    for name in ("z2-line", "a4-over-z2", "z2-swap-compiled", "pair2-line", "m2-twisted"):
        b = gallery.shipped_bundles()[name]
        R = random_fellrep(b, rng)
        G = b.groupoid
        for g in G.arrows:
            x, y = G.src[g], G.rng[g]
            d, ds, dr = b.dims[g], R.dims[x], R.dims[y]
            if d == 0 or ds == 0:
                continue
            W = np.hstack([R.apply(g, ei(d, i)) for i in range(d)])
            gram = induced_gram(b, g, np.asarray(R.maps[G.unit[x]]).transpose(2, 0, 1))
            cols = np.hstack([R.apply(G.unit[y], b.mult_coords(g, G.inv[g], ei(d, i),
                                                               b.inv[g][:, j]))
                              for i in range(d) for j in range(d)])
            frame = la.orth_rows(cols.T)
            ww = W @ la.psd_power(gram, -1.0) @ W.conj().T
            iso, supp = partial_isometry_residuals(R, g)
            assert iso == pytest.approx(float(np.linalg.norm(W.conj().T @ W - gram)),
                                        abs=1e-12), (name, g)
            assert supp == pytest.approx(float(np.linalg.norm(ww - frame.T @ frame.conj())),
                                         abs=1e-12), (name, g)


def test_intertwiner_fibre_residuals_match_basis_loop():
    from fellbund.bundle import ei
    rng = np.random.default_rng(10)
    for name in ("a4-over-z2", "pair2-line", "m2-twisted"):
        b = gallery.shipped_bundles()[name]
        G = b.groupoid
        R = random_fellrep(b, rng)
        T = {x: rng.standard_normal((R.dims[x],) * 2) + 0j for x in G.objects}
        want = []
        for g in G.arrows:
            for i in range(b.dims[g]):
                lhs = T[G.rng[g]] @ R.apply(g, ei(b.dims[g], i))
                rhs = R.apply(g, ei(b.dims[g], i)) @ T[G.src[g]]
                res = float(np.linalg.norm(lhs - rhs))
                if not res <= 1e-9 * max(1.0, float(np.linalg.norm(rhs))):
                    want.append((f"({g},{i})", res))
        got = [(v.where, v.residual) for v in intertwiner_check(R, R, T).violations
               if v.check == "fibre intertwining"]
        assert want and [w for w, _ in got] == [w for w, _ in want], name
        for (_, a), (_, c) in zip(got, want):
            assert a == pytest.approx(c, rel=1e-12, abs=1e-12), name
