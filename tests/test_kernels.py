import numpy as np
import pytest

from fellbund import gallery
from fellbund.bundle import FellBundle, subbundle_from_frames
from fellbund.groupoid import trivial_group
from fellbund.ideals import enumerate_fell_ideals
from fellbund.sections import convolve, random_section


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


def test_bundle_caches_return_the_same_object():
    bundle = gallery.a4_bundle()
    g = bundle.groupoid.arrows[-1]
    x = bundle.groupoid.objects[0]
    assert bundle.conv_plan() is bundle.conv_plan()
    assert bundle.star_mult_tensor(g) is bundle.star_mult_tensor(g)
    assert bundle.unit_algebra_unit(x) is bundle.unit_algebra_unit(x)


def test_missing_unit_raises_on_every_call():
    G = trivial_group()
    e = G.unit[G.objects[0]]
    nilpotent = np.array([[[0, 1], [0, 0]]], dtype=complex)
    bundle = FellBundle(G, {e: 1}, {(e, e): np.zeros((1, 1, 1))}, {e: np.eye(1)},
                        {G.objects[0]: nilpotent})
    for _ in range(2):
        with pytest.raises(ValueError, match="no two-sided unit"):
            bundle.unit_algebra_unit(G.objects[0])
