"""The stacked matrix-model parse against its per-pair reference.

``MatrixModelBundle`` orthonormalises the fibres of one shape by one stacked
SVD, and ``to_fell_bundle`` forms the products of every composable pair of
one shape, and their coefficients, in one batched pass.  The per-arrow and
per-pair route it replaced is kept in ``pair_route.py``; both must give the
same fibres and structure tensors bit for bit, also in chunks of one pair.
"""

import json
import os

import numpy as np
import pytest

import fellbund._linalg as la
from fellbund import bundle as bundle_module
from fellbund import gallery
from fellbund.bundle import MatrixModelBundle
from fellbund.groupoid import pair_groupoid
from fellbund.workspace import Workspace

import pair_route
from conftest import DATA
from test_random_pipeline import SEEDS, random_instance


def certify_workspace(seed):
    with open(os.path.join(DATA, f"certify_seed{seed}.json")) as fh:
        return json.load(fh)


def matrix_units(n, m):
    out = np.zeros((n * m, n, m), dtype=complex)
    for k in range(n * m):
        out[k].flat[k] = 1.0
    return list(out)


def small_models():
    """pair({1, 2}) with M_2 and C on the diagonal and zero-dimensional
    fibres off it; M_2 and C over pair({x, y}); C at x and a zero unit fibre
    at y; and an object with 0 x 0 matrices."""
    G = pair_groupoid(["1", "2"])
    yield MatrixModelBundle(G, {G.unit["1"]: matrix_units(2, 2), G.unit["2"]: matrix_units(1, 1)},
                            obj_dims={"1": 2, "2": 1})
    G = pair_groupoid(["x", "y"])
    yield MatrixModelBundle(G, {G.unit["x"]: matrix_units(2, 2), G.unit["y"]: [np.ones((1, 1))],
                                "x<y": matrix_units(2, 1), "y<x": matrix_units(1, 2)})
    yield MatrixModelBundle(G, {G.unit["x"]: [np.ones((1, 1))]}, obj_dims={"y": 1})
    yield MatrixModelBundle(G, {G.unit["x"]: [np.ones((1, 1))]}, obj_dims={"y": 0})


def random_pipeline_models():
    """The ideals D_g of the seeded partial actions of test_random_pipeline,
    as matrix subspaces of the one unit fibre."""
    for seed in SEEDS:
        T = random_instance(seed)
        yield MatrixModelBundle(T.groupoid, {g: list(T.ideal_basis[g]) for g in T.groupoid.arrows})


def certify_bundles(seed):
    ws = Workspace.from_dict(certify_workspace(seed))
    return [ws.bundle(name) for name in ws.names("bundles")]


SOURCES = {
    "shipped": gallery.shipped_bundles,
    "certify seed 1": lambda: certify_bundles(1),
    "certify seed 4": lambda: certify_bundles(4),
    "random pipeline": lambda: [m.to_fell_bundle() for m in random_pipeline_models()],
    "small and zero-dimensional": lambda: [m.to_fell_bundle() for m in small_models()],
}


def parsed(monkeypatch, source):
    """(the inputs of each ``MatrixModelBundle`` that ``source`` builds, its
    bundle), as ``to_fell_bundle`` returned it."""
    seen = []
    init, parse = MatrixModelBundle.__init__, MatrixModelBundle.to_fell_bundle

    def recording_init(self, groupoid, fibers, obj_dims=None, rtol=1e-10):
        self.inputs = (groupoid, fibers, obj_dims, rtol)
        init(self, groupoid, fibers, obj_dims, rtol)

    def recording_parse(self, *args, **kwargs):
        b = parse(self, *args, **kwargs)
        seen.append((self.inputs, b))
        return b
    with monkeypatch.context() as m:
        m.setattr(MatrixModelBundle, "__init__", recording_init)
        m.setattr(MatrixModelBundle, "to_fell_bundle", recording_parse)
        SOURCES[source]()
    return seen


def same_bytes(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk", [la._STACK_CHUNK, 1])
@pytest.mark.parametrize("source", sorted(SOURCES))
def test_parse_matches_pair_route_bit_for_bit(monkeypatch, source, chunk):
    monkeypatch.setattr(la, "_STACK_CHUNK", chunk)
    seen = parsed(monkeypatch, source)
    assert len(seen) >= 4
    for (G, fibers, obj_dims, rtol), b in seen:
        fibres = pair_route.orthonormal_fibres(G, fibers, obj_dims, rtol)
        mult, inv, unit_rep = pair_route.structure_tensors(G, fibres)
        assert all(same_bytes(b.matrix_model[g], fibres[g]) for g in G.arrows), b.name
        assert b.mult.keys() == mult.keys()
        assert all(same_bytes(b.mult[p], mult[p]) for p in mult), b.name
        assert all(same_bytes(b.inv[g], inv[g]) for g in G.arrows), b.name
        assert all(same_bytes(b.unit_rep[x], unit_rep[x]) for x in G.objects), b.name


def test_zero_dimensional_fibres_are_parsed():
    dims = [sorted(m.to_fell_bundle().dims.values()) for m in small_models()]
    assert dims == [[0, 0, 1, 4], [1, 2, 2, 4], [0, 0, 0, 1], [0, 0, 0, 1]]


@pytest.mark.parametrize("name, pairs", [("line-pair7", 343), ("line-z24", 576)])
def test_parse_makes_few_batched_passes(monkeypatch, certify_raw, name, pairs):
    # one stacked SVD for the fibres, and one batched expansion for the
    # products of all pairs and one for the adjoints, however many pairs
    calls = {"orthonormalise": 0, "expand": 0}
    orth, expand = la.stacked_orth_rows, bundle_module._expand

    def counted_orth(*args):
        calls["orthonormalise"] += 1
        return orth(*args)

    def counted_expand(*args):
        calls["expand"] += 1
        return expand(*args)
    monkeypatch.setattr(la, "stacked_orth_rows", counted_orth)
    monkeypatch.setattr(bundle_module, "_expand", counted_expand)
    b = Workspace.from_dict(certify_raw).bundle(name)
    assert len(b.mult) == pairs
    assert calls == {"orthonormalise": 1, "expand": 2}


def test_pair_without_composite_is_a_value_error():
    # before, the parse ended in a KeyError
    G = pair_groupoid(["x", "y"])
    comp = {p: k for p, k in G.comp.items() if p != ("x<y", "y<x")}
    H = type(G).from_data(G.objects, G.arrows, G.src, G.rng, G.unit, G.inv, comp)
    model = MatrixModelBundle(H, {g: matrix_units(1, 1) for g in H.arrows})
    with pytest.raises(ValueError, match=r"composable pair \(x<y,y<x\) has no composite"):
        model.to_fell_bundle()
