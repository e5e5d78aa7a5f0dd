import numpy as np
import pytest

from fellbund import envelope, gallery
from fellbund.bundle import FellBundle, subbundle_from_frames
from fellbund.config import DEFAULT
from fellbund.envelope import regular_at, regular_rep_matrix
from fellbund.groupoid import trivial_group
from fellbund.ideals import enumerate_fell_ideals
from fellbund.sections import Section, convolve, i_norm, random_section


def _kernel_bundles(certify_bundles=None):
    """Shipped bundles, the a4 ideal sub-bundle (2 of 6 fibres nonzero) and,
    when given, the certify bundles."""
    bundles = dict(gallery.shipped_bundles())
    a4 = gallery.a4_bundle()
    ideal = enumerate_fell_ideals(a4)[1]
    bundles["a4-ideal"] = subbundle_from_frames(a4, ideal.frames, name="a4-ideal")[0]
    bundles.update(certify_bundles or {})
    return bundles


def _sparse_sections(bundle, rng, count=4):
    """Random sections, each dropping a random half of the arrows."""
    out = []
    for _ in range(count):
        f = random_section(bundle, rng)
        keep = rng.random(len(bundle.groupoid.arrows)) < 0.5
        out.append(Section(bundle, {g: v for (g, v), k in zip(f.entries.items(), keep) if k}))
    return out + [random_section(bundle, rng), Section(bundle, {})]


def test_convolution_matches_direct_sum():
    # independent oracle: sum over composable pairs by hand
    bundles = dict(gallery.shipped_bundles())
    # 2 of 6 fibres nonzero: the plan must skip pairs with an empty fibre
    a4 = gallery.a4_bundle()
    ideal = enumerate_fell_ideals(a4)[1]
    bundles["a4-ideal"] = subbundle_from_frames(a4, ideal.frames, name="a4-ideal")[0]
    rng = np.random.default_rng(11)
    for name, bundle in bundles.items():
        G = bundle.groupoid
        xi = random_section(bundle, rng)
        eta = random_section(bundle, rng)
        got = convolve(xi, eta)
        for g in G.arrows:
            acc = np.zeros(bundle.dims[g], dtype=complex)
            for h in G.arrows:
                for k in G.arrows:
                    if G.src[h] == G.rng[k] and G.comp[(h, k)] == g:
                        acc += bundle.mult_coords(h, k, xi.at(h), eta.at(k))
            np.testing.assert_allclose(got.at(g), acc, atol=1e-10, err_msg=name)


def test_regular_matrix_matches_per_block_loop(certify_bundles):
    # oracle: one einsum per block (h, g), accumulated into the block of
    # (h.g, g)
    rng = np.random.default_rng(12)
    for name, bundle in _kernel_bundles(certify_bundles).items():
        G = bundle.groupoid
        for f in _sparse_sections(bundle, rng):
            for x in G.objects:
                reg = regular_at(bundle, x, DEFAULT)
                want = np.zeros((reg.dim, reg.dim), dtype=np.complex128)
                for (h, g), tensor in reg.blocks.items():
                    if h not in f.entries:
                        continue
                    block = np.einsum("qmp,m->qp", tensor, f.entries[h])
                    o, i = reg.offsets[G.comp[(h, g)]], reg.offsets[g]
                    want[o:o + block.shape[0], i:i + block.shape[1]] += block
                np.testing.assert_array_equal(regular_rep_matrix(bundle, x, f), want,
                                              err_msg=f"{name} at {x}")


def test_i_norm_matches_per_arrow_fiber_norm_sums(certify_bundles):
    # oracle: one fiber_norm per entry, summed over range and source fibres
    rng = np.random.default_rng(13)
    for name, bundle in _kernel_bundles(certify_bundles).items():
        G = bundle.groupoid
        for f in _sparse_sections(bundle, rng):
            norms = {g: bundle.fiber_norm(g, v) for g, v in f.entries.items()}
            sums = [sum(norms.get(g, 0.0) for g in fibre(x))
                    for fibre in (G.range_fiber, G.source_fiber) for x in G.objects]
            assert i_norm(f) == max(sums), name


def test_grouped_kernels_see_several_shape_groups(certify_bundles):
    # a4-over-z2 mixes fibre dimensions 1 and 2: several (d_h, d_k, d_hk)
    # groups in the convolution plan, several block shapes in the regular
    # store and several fibre shapes in the I-norm; on a4 and m3-pair3 one
    # I-norm group holds arrows with different sources, each with its own rep
    mixed = gallery.a4_over_z2_bundle()
    assert len(mixed.conv_plan().groups) > 1
    assert len(envelope._direct_sum_plan(mixed, DEFAULT).groups) > 1
    assert len(mixed.norm_stacks()) > 1
    for bundle in (gallery.a4_bundle(), certify_bundles["m3-pair3"]):
        src = bundle.groupoid.src
        assert any(len({src[g] for g in arrows}) > 1 for arrows, _, _ in bundle.norm_stacks())


def test_bundle_caches_return_the_same_object():
    bundle = gallery.a4_bundle()
    g = bundle.groupoid.arrows[-1]
    x = bundle.groupoid.objects[0]
    assert bundle.conv_plan() is bundle.conv_plan()
    assert bundle.norm_stacks() is bundle.norm_stacks()
    assert bundle.star_mult_tensor(g) is bundle.star_mult_tensor(g)
    assert bundle.unit_algebra_unit(x) is bundle.unit_algebra_unit(x)
    assert regular_at(bundle, x) is regular_at(bundle, x)


def test_missing_unit_raises_on_every_call():
    G = trivial_group()
    e = G.unit[G.objects[0]]
    nilpotent = np.array([[[0, 1], [0, 0]]], dtype=complex)
    bundle = FellBundle(G, {e: 1}, {(e, e): np.zeros((1, 1, 1))}, {e: np.eye(1)},
                        {G.objects[0]: nilpotent})
    for _ in range(2):
        with pytest.raises(ValueError, match="no two-sided unit"):
            bundle.unit_algebra_unit(G.objects[0])
