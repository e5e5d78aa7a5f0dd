"""Loop references for the induced-fibre Gram quotient.

``envelope.induced_fibres`` builds the Gram quotients of A_g (x) C^m, one
stacked pass per shape, for the regular representation (C^m carries the
unit representation) and for the dual action (C^m carries an irrep of a
unit-fibre block).  The quotient loops it replaced are kept here: the
regular quotient must agree bit for bit, the dual groupoid must have the
same arrows as under the old rule, whose rank cut was rank_threshold·top
with an early return for top <= rank_threshold, and the same composition
table as the arrows² loop that built it.
"""

import numpy as np
import pytest

import fellbund._linalg as la
from fellbund import gallery
from fellbund.config import DEFAULT
from fellbund.bundle import FellBundle
from fellbund.envelope import RegularRepAt, regular_at
from fellbund.groupoid import FiniteGroupoid
from fellbund.spectrum import dual_arrow_action, dual_groupoid, fiber_spectrum, left_matrix
from test_envelope import negative_gram_bundle


# -- reference: the regular quotient loop of RegularRepAt ------------------------

def loop_regular_quotient(bundle, x, tols):
    """(phi, psi, quot_dim, borderline) per summand g in G_x."""
    n = bundle.unit_dim(x)
    out = {}
    for g in bundle.groupoid.source_fiber(x):
        raw = bundle.dims[g] * n
        if raw == 0:
            empty = np.zeros((0, 0), dtype=np.complex128)
            out[g] = (empty, empty, 0, 0)
            continue
        T = bundle.star_mult_tensor(g)
        gram = np.einsum("kij,kvw->ivjw", T, bundle.unit_rep[x]).reshape(raw, raw)
        vals, vecs = np.linalg.eigh(la.hermitian_part(gram))
        top = max(float(vals[-1]), 0.0)
        assert float(vals[0]) >= -max(tols.tolerance, tols.rank_threshold * max(top, 1.0))
        cut = tols.rank_threshold * max(top, 1.0)
        keep = vals > cut
        shaky = int(np.sum((vals > cut / 10) & (vals <= cut * 10)))
        lam = vals[keep]
        v = vecs[:, keep]
        out[g] = (np.sqrt(lam)[:, None] * v.conj().T, v / np.sqrt(lam)[None, :],
                  int(lam.size), shaky)
    return out


# -- reference: the dual action with its own rank cut ----------------------------

def loop_dual_arrow_action(bundle, spec, g, block, tols):
    G = bundle.groupoid
    d = bundle.dims[g]
    if d == 0:
        return None
    x = G.src[g]
    Rpi = np.stack([block.irrep(m) for m in bundle.unit_rep[x]])
    T = bundle.star_mult_tensor(g)
    gram = np.einsum("kij,kvw->ivjw", T, Rpi).reshape(d * block.dim, d * block.dim)
    vals, vecs = np.linalg.eigh(la.hermitian_part(gram))
    top = max(float(vals[-1]), 0.0)
    if top <= tols.rank_threshold:
        return None
    keep = vals > tols.rank_threshold * top
    lam = vals[keep]
    v = vecs[:, keep]
    phi = np.sqrt(lam)[:, None] * v.conj().T
    psi = v / np.sqrt(lam)[None, :]
    y = G.rng[g]
    target = None
    for cand in spec.by_object[y]:
        op = np.kron(left_matrix(bundle, G.unit[y], g, cand.coords), np.eye(block.dim))
        if abs(complex(np.trace(phi @ op @ psi))) > 1e-6:
            assert target is None
            target = cand
    return target


def loop_arrow_data(bundle, tols):
    G = bundle.groupoid
    spec = fiber_spectrum(bundle, tols)
    data = {}
    for g in G.arrows:
        for b in spec.by_object[G.src[g]]:
            img = loop_dual_arrow_action(bundle, spec, g, b, tols)
            if img is not None:
                data[f"{g}|{b.obj}:{b.index}"] = (g, b.key, img.key)
    return data


@pytest.fixture
def every_bundle(certify_bundles):
    """The shipped bundles and the certify bundles of the benchmark's seed 1."""
    return {**gallery.shipped_bundles(), **certify_bundles}


def test_regular_quotient_matches_loop_reference_bit_for_bit(every_bundle):
    for name, bundle in every_bundle.items():
        for x in bundle.groupoid.objects:
            reg = RegularRepAt(bundle, x, DEFAULT)
            ref = loop_regular_quotient(bundle, x, DEFAULT)
            assert reg.summands == list(ref), (name, x)
            for g, (phi, psi, quot_dim, _) in ref.items():
                assert reg.quot_dim[g] == quot_dim, (name, x, g)
                assert reg.phi[g].shape == phi.shape and np.array_equal(reg.phi[g], phi), \
                    (name, x, g)
                assert reg.psi[g].shape == psi.shape and np.array_equal(reg.psi[g], psi), \
                    (name, x, g)
            shaky = [g for g, (*_, count) in ref.items() if count]
            assert len(reg.borderline) == len(shaky), (name, x)


def test_dual_groupoid_matches_the_old_rank_cut(every_bundle):
    for name, bundle in every_bundle.items():
        assert dict(dual_groupoid(bundle, DEFAULT).arrow_data) == \
            loop_arrow_data(bundle, DEFAULT), name


def test_dual_action_rejects_a_non_positive_gram():
    # the old rule saw top <= rank_threshold and returned None (undefined)
    bad = negative_gram_bundle()
    spec = fiber_spectrum(bad)
    block = spec.by_object["pt"][0]
    assert loop_dual_arrow_action(bad, spec, "g1", block, DEFAULT) is None
    with pytest.raises(ValueError, match=r"Gram matrix at \(pt,g1\) is not positive"):
        dual_arrow_action(bad, spec, "g1", block)


# -- reference: the arrows² composition loop of the dual groupoid ----------------

def loop_dual_composition(bundle, arrow_data):
    G = bundle.groupoid
    comp = {}
    for a1, (g1, s1, t1) in arrow_data.items():
        for a2, (g2, s2, t2) in arrow_data.items():
            if s1 != t2 or not G.can_compose(g1, g2):
                continue
            comp[(a1, a2)] = f"{G.comp[(g1, g2)]}|{s2[0]}:{s2[1]}"
    return comp


def test_dual_composition_matches_the_arrows_squared_loop(every_bundle):
    for name, bundle in every_bundle.items():
        dual = dual_groupoid(bundle, DEFAULT)
        # the same entries in the same order
        assert list(dual.groupoid.comp.items()) == \
            list(loop_dual_composition(bundle, dual.arrow_data).items()), name


@pytest.mark.parametrize("name", ["line-pair7", "line-z24"])
def test_quotients_take_one_eigh_per_gram_shape(monkeypatch, certify_bundles, name):
    bundle = certify_bundles[name]
    fiber_spectrum(bundle)  # its block decompositions take eigh calls of their own
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    arrows = len(bundle.groupoid.arrows)
    for x in bundle.groupoid.objects:
        regular_at(bundle, x)
    assert shapes == [(arrows, 1, 1)]  # one Gram shape, one stacked eigh
    shapes.clear()
    dual_groupoid(bundle)
    assert shapes == [(arrows, 1, 1)]  # one block per unit fibre: one item per arrow


def negative_gram_beside_a_point():
    """``negative_gram_bundle`` beside a second object q, whose one arrow is
    its unit with fibre C: only the summand (pt, g1) has a Gram matrix that
    is not positive."""
    bad = negative_gram_bundle()
    G = bad.groupoid
    H = FiniteGroupoid.from_data(
        [*G.objects, "q"], [*G.arrows, "uq"], {**G.src, "uq": "q"}, {**G.rng, "uq": "q"},
        {**G.unit, "q": "uq"}, {**G.inv, "uq": "uq"}, {**G.comp, ("uq", "uq"): "uq"})
    one = np.ones((1, 1, 1), dtype=complex)
    return FellBundle(H, {**bad.dims, "uq": 1}, {**bad.mult, ("uq", "uq"): one},
                      {**bad.inv, "uq": np.eye(1)}, {**bad.unit_rep, "q": one})


def test_a_non_positive_gram_fails_only_where_its_summand_is():
    bad = negative_gram_beside_a_point()
    message = r"^Gram matrix at \(pt,g1\) is not positive"
    assert regular_at(bad, "q").dim == 1
    with pytest.raises(ValueError, match=message):
        regular_at(bad, "pt")
    spec = fiber_spectrum(bad)
    for g, x in (("uq", "q"), ("e", "pt")):
        block = spec.by_object[x][0]
        assert dual_arrow_action(bad, spec, g, block) is block
    with pytest.raises(ValueError, match=message):
        dual_arrow_action(bad, spec, "g1", spec.by_object["pt"][0])
    with pytest.raises(ValueError, match=message):
        dual_groupoid(bad)
