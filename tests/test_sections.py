import numpy as np
import pytest

import fellbund._linalg as la
from fellbund import gallery
from fellbund.bundle import BundleHom, ei
from fellbund.envelope import cstar_norm, sharper_norm_bound
from fellbund.sections import (Section, basis_sections, convolve, delta_section,
                               factor, i_norm, induced_hom, involute,
                               module_action, random_section, unit_section)


def test_delta_convolution_rule():
    for name, b in gallery.shipped_bundles().items():
        G = b.groupoid
        rng = np.random.default_rng(1)
        for g in G.arrows:
            for h in G.arrows:
                dg, dh = b.dims[g], b.dims[h]
                if dg == 0 or dh == 0:
                    continue
                a = rng.standard_normal(dg) + 1j * rng.standard_normal(dg)
                c = rng.standard_normal(dh) + 1j * rng.standard_normal(dh)
                prod = convolve(delta_section(b, g, a), delta_section(b, h, c))
                if G.src[g] == G.rng[h]:
                    want = Section(b, {G.comp[(g, h)]: b.mult_coords(g, h, a, c)})
                else:
                    want = Section(b, {})
                assert np.linalg.norm((prod - want).pack()) < 1e-10, name


def test_zz2_f_star_f():
    b = gallery.z2_line_bundle()
    f = Section(b, {"e": [1.0], "g1": [1.0]})
    ff = convolve(f, f)
    np.testing.assert_allclose(ff.at("e"), [2.0], atol=1e-12)
    np.testing.assert_allclose(ff.at("g1"), [2.0], atol=1e-12)


def test_unit_section_properties():
    for name, b in gallery.shipped_bundles().items():
        e = unit_section(b)
        rng = np.random.default_rng(2)
        xi = random_section(b, rng)
        assert np.linalg.norm((convolve(e, xi) - xi).pack()) < 1e-9, name
        assert np.linalg.norm((convolve(xi, e) - xi).pack()) < 1e-9, name
        assert np.linalg.norm((involute(e) - e).pack()) < 1e-9, name
        assert np.linalg.norm((convolve(e, e) - e).pack()) < 1e-9, name
        assert i_norm(e) == pytest.approx(1.0, abs=1e-9), name


def test_involution_is_involutive_and_antimultiplicative():
    rng = np.random.default_rng(3)
    for name, b in gallery.shipped_bundles().items():
        xi = random_section(b, rng)
        eta = random_section(b, rng)
        assert np.linalg.norm((involute(involute(xi)) - xi).pack()) < 1e-9, name
        lhs = involute(convolve(xi, eta))
        rhs = convolve(involute(eta), involute(xi))
        assert np.linalg.norm((lhs - rhs).pack()) < 1e-8, name


def test_delta_involution():
    b = gallery.shipped_bundles()["z2-swap-compiled"]
    G = b.groupoid
    rng = np.random.default_rng(4)
    for g in G.arrows:
        a = rng.standard_normal(b.dims[g]) + 1j * rng.standard_normal(b.dims[g])
        star = involute(delta_section(b, g, a))
        want = Section(b, {G.inv[g]: b.star_coords(g, a)})
        assert np.linalg.norm((star - want).pack()) < 1e-12


def test_real_scalar_section_over_units_fixed():
    b = gallery.z2_line_bundle()
    s = Section(b, {"e": [2.5]})
    assert np.linalg.norm((involute(s) - s).pack()) < 1e-12


def test_convolution_associative():
    rng = np.random.default_rng(5)
    for name, b in gallery.shipped_bundles().items():
        x, y, z = (random_section(b, rng) for _ in range(3))
        lhs = convolve(convolve(x, y), z)
        rhs = convolve(x, convolve(y, z))
        scale = max(1.0, np.linalg.norm(lhs.pack()))
        assert np.linalg.norm((lhs - rhs).pack()) < 1e-9 * scale, name


def test_i_norm_examples():
    b = gallery.z2_line_bundle()
    assert i_norm(Section(b, {})) == 0.0
    assert i_norm(Section(b, {"g1": [3.0]})) == pytest.approx(3.0)
    assert i_norm(Section(b, {"e": [1.0], "g1": [1.0]})) == pytest.approx(2.0)


def test_i_norm_submultiplicative_and_star_invariant():
    rng = np.random.default_rng(6)
    for name, b in gallery.shipped_bundles().items():
        for _ in range(5):
            x, y = random_section(b, rng), random_section(b, rng)
            assert i_norm(convolve(x, y)) <= i_norm(x) * i_norm(y) + 1e-9, name
            assert i_norm(involute(x)) == pytest.approx(i_norm(x), abs=1e-9), name


SHIPPED = gallery.shipped_bundles()


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_norms_are_homogeneous_under_powers_of_two(name):
    # at 2^664 an unscaled a*a overflows (NaN I-norm, zero sharper bound)
    # and at 2^-664 it underflows (both zero)
    b = SHIPPED[name]
    f = random_section(b, np.random.default_rng(14))
    i, c, s = i_norm(f), cstar_norm(b, f), sharper_norm_bound(b, f)
    for k in (-664, -1, 0, 1, 664):
        fk = Section(b, {g: np.ldexp(v.real, k) + 1j * np.ldexp(v.imag, k)
                         for g, v in f.entries.items()})
        assert i_norm(fk) == np.ldexp(i, k), k
        assert cstar_norm(b, fk) == pytest.approx(np.ldexp(c, k), rel=1e-14, abs=0), k
        assert sharper_norm_bound(b, fk) == pytest.approx(np.ldexp(s, k), rel=1e-14, abs=0), k


def test_section_space_dimension():
    for name, b in gallery.shipped_bundles().items():
        assert len(basis_sections(b)) == b.total_dim == sum(b.dims.values()), name


def test_factorisation():
    from fellbund.bundle import range_source_ideals
    rng = np.random.default_rng(7)
    for name, b in gallery.shipped_bundles().items():
        f = random_section(b, rng)
        f1, f2 = factor(f)
        G = b.groupoid
        for g, v in f.entries.items():
            x = G.rng[g]
            # f1(g) lies in the range ideal span(A_g A_g*)
            rframe, _, _ = range_source_ideals(b, g)
            assert la.residual_in_span(rframe, f1[g]) < 1e-8 * max(
                1.0, np.linalg.norm(f1[g])), name
            # f(g) = f1(g)* . f2(g) under the module action
            star = b.star_coords(G.unit[x], f1[g])
            back = np.einsum("kij,i,j->k", b.mult[(G.unit[x], g)], star, f2.at(g))
            assert np.linalg.norm(back - v) < 1e-8 * max(1.0, np.linalg.norm(v)), name
            nf = b.fiber_norm(g, v)
            n1 = np.sqrt(max(np.linalg.eigvalsh(la.hermitian_part(
                b.unit_matrix(x, np.einsum("kij,i,j->k", b.mult[(G.unit[x], G.unit[x])],
                                           b.star_coords(G.unit[x], f1[g]), f1[g]))))[-1], 0))
            n2 = b.fiber_norm(g, f2.at(g))
            assert n1 ** 2 == pytest.approx(nf, abs=1e-7), name
            assert n2 ** 2 == pytest.approx(nf, abs=1e-7), name


def test_module_action_is_unit_supported_multiplication():
    b = gallery.a4_over_z2_bundle()
    rng = np.random.default_rng(8)
    f = random_section(b, rng)
    coeffs = {"pt": rng.standard_normal(b.dims["e"]) + 0j}
    acted = module_action(b, coeffs, f)
    by_conv = convolve(Section(b, {"e": coeffs["pt"]}), f)
    assert np.linalg.norm((acted - by_conv).pack()) < 1e-10


def test_induced_hom_identity_quotient_composite():
    b = gallery.a4_bundle()
    ident = induced_hom(BundleHom.identity(b))
    rng = np.random.default_rng(9)
    f = random_section(b, rng)
    assert np.linalg.norm((ident(f) - f).pack()) < 1e-12

    from fellbund.ideals import (InvariantFamily, ideal_from_invariant_family,
                                 quotient_bundle)
    frames = {x: (np.eye(1, dtype=complex) if x in ("p", "q")
                  else np.zeros((0, 1), dtype=complex)) for x in b.groupoid.objects}
    I = ideal_from_invariant_family(InvariantFamily(b, frames))
    q, hom = quotient_bundle(b, I)
    push = induced_hom(hom)
    # the kernel of the induced map is exactly the ideal total dimension
    kernel = 0
    for (g, i, s) in basis_sections(b):
        if push(s).is_zero(1e-12):
            kernel += 1
    assert kernel == I.total_dim() == 4
    # *-homomorphism for (conv, involution)
    g = random_section(b, rng)
    assert np.linalg.norm((push(convolve(f, g)) - convolve(push(f), push(g))).pack()) < 1e-9
    assert np.linalg.norm((push(involute(f)) - involute(push(f))).pack()) < 1e-9
    # composite homs induce composites
    both = induced_hom(hom.compose(BundleHom.identity(b)))
    assert np.linalg.norm((both(f) - push(f)).pack()) < 1e-12


def test_bundle_mismatch_rejected():
    b1 = gallery.z2_line_bundle()
    b2 = gallery.z2_line_bundle()
    x = Section(b1, {"e": [1.0]})
    y = Section(b2, {"e": [1.0]})
    with pytest.raises(ValueError, match="different bundles"):
        convolve(x, y)


# -- the packed vector against the per-arrow loops it replaced ----------------


def _ref_random_entries(bundle, rng, scale=1.0):
    entries = {}
    for g in bundle.groupoid.arrows:
        d = bundle.dims[g]
        if d:
            entries[g] = scale * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
    return entries


def _ref_pack(bundle, entries):
    out = np.zeros(bundle.total_dim, dtype=np.complex128)
    for g, off in bundle.offsets().items():
        if g in entries:
            out[off:off + bundle.dims[g]] = entries[g]
    return out


def _ref_unpack(bundle, packed):
    entries = {}
    for g, off in bundle.offsets().items():
        d = bundle.dims[g]
        if d and np.any(packed[off:off + d]):
            entries[g] = packed[off:off + d].copy()
    return entries


def _ref_involute(bundle, entries):
    out = {}
    for g, v in entries.items():
        gi = bundle.groupoid.inv[g]
        out[gi] = out.get(gi, 0) + bundle.star_coords(g, v)
    return out


def _ref_add(bundle, e1, e2):
    def at(e, g):
        return e[g] if g in e else np.zeros(bundle.dims[g], dtype=np.complex128)
    return {g: at(e1, g) + at(e2, g) for g in set(e1) | set(e2)}


def _ref_i_norm(bundle, entries):
    G = bundle.groupoid
    norms = dict.fromkeys(G.arrows, 0.0)
    norms.update(zip(entries, bundle.norm_rows(
        [(g, v[None]) for g, v in entries.items()])[0].tolist()))
    return max((sum(map(norms.__getitem__, fibre(x)))
                for fibre in (G.range_fiber, G.source_fiber) for x in G.objects), default=0.0)


def _bits_equal(a, b):
    return np.array_equal(np.asarray(a).view(np.float64), np.asarray(b).view(np.float64))


def _oracle_bundles(certify_bundles):
    from fellbund.bundle import subbundle_from_frames
    from fellbund.ideals import InvariantFamily, ideal_from_invariant_family
    b = gallery.a4_bundle()
    frames = {x: (np.eye(1, dtype=complex) if x in ("p", "q")
                  else np.zeros((0, 1), dtype=complex)) for x in b.groupoid.objects}
    I = ideal_from_invariant_family(InvariantFamily(b, frames))
    sub, _ = subbundle_from_frames(b, dict(I.frames), name="a4 ideal subbundle")
    assert 0 in sub.dims.values() and sub.total_dim
    return {**gallery.shipped_bundles(), **certify_bundles, "a4-ideal-sub": sub}


def test_packed_ops_match_the_per_arrow_loops_bit_for_bit(certify_bundles):
    for name, b in _oracle_bundles(certify_bundles).items():
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        for scale in (1.0, 0.5 - 2j):
            f = random_section(b, rng, scale)
            want = _ref_random_entries(b, ref_rng, scale)
            assert _bits_equal(f.pack(), _ref_pack(b, want)), name
            assert rng.bit_generator.state == ref_rng.bit_generator.state, name
        g = random_section(b, rng)
        fe, ge = dict(f.entries), dict(g.entries)
        assert _bits_equal(involute(f).pack(), _ref_pack(b, _ref_involute(b, fe))), name
        assert _bits_equal((f + g).pack(), _ref_pack(b, _ref_add(b, fe, ge))), name
        assert _bits_equal((f - g).pack(), _ref_pack(b, _ref_add(b, fe, {
            k: -1.0 * v for k, v in ge.items()}))), name
        assert _bits_equal((2.5j * f).pack(), _ref_pack(b, {k: 2.5j * v for k, v in fe.items()}))
        assert i_norm(f) == _ref_i_norm(b, fe), name
        # a sparse section: every other arrow, and a whole zero fibre given
        sparse = {k: v for i, (k, v) in enumerate(fe.items()) if i % 2}
        s = Section(b, {**sparse, b.groupoid.arrows[0]: np.zeros(b.dims[b.groupoid.arrows[0]])})
        assert _bits_equal(s.pack(), _ref_pack(b, sparse)), name
        assert i_norm(s) == _ref_i_norm(b, sparse), name
        assert _bits_equal(involute(s).pack(), _ref_pack(b, _ref_involute(b, sparse))), name
        packed = convolve(f, g).pack()
        back = Section.unpack(b, packed)
        assert _bits_equal(back.pack(), _ref_pack(b, _ref_unpack(b, packed))), name
        assert list(back.entries) == list(_ref_unpack(b, packed)), name


def test_per_object_norms_match_one_svd_per_matrix(certify_bundles):
    from fellbund.envelope import per_object_norms, regular_rep_matrix
    for name, b in _oracle_bundles(certify_bundles).items():
        f = random_section(b, np.random.default_rng(12))
        want = {x: la.operator_norm(regular_rep_matrix(b, x, f)) for x in b.groupoid.objects}
        assert per_object_norms(b, f) == want, name


def test_section_views_are_read_only():
    b = gallery.a4_over_z2_bundle()
    f = random_section(b, np.random.default_rng(13))
    g = next(iter(f.entries))
    for view in (f.pack(), f.at(g), f.entries[g]):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 1.0
    with pytest.raises(TypeError):
        f.entries[g] = np.ones(b.dims[g])


def test_entries_omit_zero_fibres_in_declared_order():
    b = gallery.a4_bundle()
    arrows = [g for g in b.groupoid.arrows if b.dims[g]]
    first, middle, last = arrows[0], arrows[len(arrows) // 2], arrows[-1]
    v = np.arange(1, b.dims[last] + 1) * 1j
    given = {last: v, middle: np.zeros(b.dims[middle]), first: np.ones(b.dims[first])}
    f = Section(b, given)
    assert list(f.entries) == [first, last]
    v[0] = 7.0  # the section keeps its own copy
    assert f.at(last)[0] == 1j
    assert not f.at(middle).any() and f.at(middle).shape == (b.dims[middle],)
    assert list((f + f).entries) == [first, last]
    assert dict(Section(b, {}).entries) == {}
    with pytest.raises(ValueError, match="shape"):
        Section(b, {first: np.ones(b.dims[first] + 1)})
    with pytest.raises(ValueError, match="total dimension"):
        Section.unpack(b, np.ones(b.total_dim + 1))


def test_sum_is_independent_of_the_hash_seed(certify_raw, tmp_path):
    # the sum's entries once came from a set of arrow names, so the sharper
    # bound summed them in an order that changed with PYTHONHASHSEED
    import json
    import os
    import subprocess
    import sys
    path = tmp_path / "certify.json"
    path.write_text(json.dumps(certify_raw))
    script = (
        "import sys, numpy as np\n"
        "from fellbund.workspace import Workspace\n"
        "from fellbund.sections import random_section\n"
        "from fellbund.envelope import sharper_norm_bound\n"
        "b = Workspace.from_dict(__import__('json').load(open(sys.argv[1]))).bundle('line-z16')\n"
        "rng = np.random.default_rng(7)\n"
        "f, g = random_section(b, rng), random_section(b, rng)\n"
        "print(sharper_norm_bound(b, f + g).hex(), sharper_norm_bound(b, g - f).hex())\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outs.add(proc.stdout)
    assert len(outs) == 1, outs
