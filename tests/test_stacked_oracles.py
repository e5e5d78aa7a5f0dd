"""Loop references for the stacked invariant-family validator and the
stacked matrix-model parse.

``validate_invariant_family`` checks each arrow on stacks of arrows with
equal operand shapes, and ``MatrixModelBundle.to_fell_bundle`` expands every
structure tensor with stacked products.  The per-arrow and per-basis-pair
loops they replaced are kept here; both sides must agree exactly:
violations with their residuals, and structure tensors bit for bit.
"""

import itertools

import numpy as np
import pytest

import fellbund._linalg as la
from fellbund import gallery
from fellbund.bundle import MatrixModelBundle
from fellbund.config import DEFAULT
from fellbund.groupoid import composable_pairs, pair_groupoid
from fellbund.ideals import InvariantFamily, validate_invariant_family
from fellbund.report import ValidationReport
from fellbund.spectrum import family_from_subset, fiber_spectrum
from fellbund.workspace import Workspace, parse_matrix
from test_witnesses import perturbed


# -- reference: the per-arrow invariant-family loop ------------------------------

def _report_residuals(rep, frame, vecs, tol, witness):
    if not vecs.size:
        return
    flat = vecs.reshape(-1, frame.shape[1])
    coeff = np.matmul(frame.conj(), flat[:, :, None])
    res = la.row_norms(flat - np.matmul(frame.T, coeff)[:, :, 0])
    scale = tol * np.maximum(1.0, la.row_norms(flat))
    for p in np.flatnonzero(~(res <= scale)):
        check, where = witness(np.unravel_index(p, vecs.shape[:-1]))
        rep.check_residual(res[p], scale[p], check, where)


def _orth_rows(v, rtol):
    """One SVD per frame, as ``la.orth_rows`` did before it was stacked."""
    if v.shape[0] == 0:
        return np.zeros((0, v.shape[1]), dtype=np.complex128)
    _, s, vh = np.linalg.svd(la.as_complex(v), full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, v.shape[1]), dtype=np.complex128)
    return vh[:int(np.sum(s > rtol * s[0]))]


def _frame_eq(a, b, tol):
    """Row by row, as ``la.frame_eq`` did before it was stacked."""
    def contains(frame, vectors):
        return all(la.residual_in_span(frame, row) <= tol * max(1.0, np.linalg.norm(row))
                   for row in vectors)
    return a.shape[0] == b.shape[0] and contains(b, a) and contains(a, b)


def _product_frame(mult, frame, spec, d, tols):
    vecs = np.einsum(spec, mult, frame)
    return _orth_rows(vecs.reshape(len(vecs) * d, d), tols.rank_threshold)


def loop_validate_invariant_family(F, tols=DEFAULT):
    bundle = F.bundle
    G = bundle.groupoid
    tol = tols.tolerance
    rep = ValidationReport("invariant family")
    for x in G.objects:
        u = G.unit[x]
        M = bundle.mult[(u, u)]
        prods = np.einsum("skaj,ia->ijsk", np.stack([M, M.transpose(0, 2, 1)]), F.frames[x])
        _report_residuals(rep, F.frames[x], prods, tol,
                          lambda p: (f"fibre subspace is {('right', 'left')[p[2]]} ideal",
                                     f"object {x}"))
    for g in G.arrows:
        x, y = G.rng[g], G.src[g]
        d = bundle.dims[g]
        left = _product_frame(bundle.mult[(G.unit[x], g)], F.frames[x], "kij,bi->bjk", d, tols)
        right = _product_frame(bundle.mult[(g, G.unit[y])], F.frames[y], "kji,bi->bjk", d, tols)
        if not _frame_eq(left, right, 1e-7):
            rep.add("invariance F_{r(g)} A_g = A_g F_{s(g)}", f"arrow {g}",
                    detail=f"left dim {left.shape[0]}, right dim {right.shape[0]}")
        mid = np.einsum("aib,kb->ika", bundle.mult[(g, G.unit[y])], F.frames[y])
        out = np.einsum("laj,ika->ikjl", bundle.mult[(G.comp[(g, G.unit[y])], G.inv[g])], mid)
        _report_residuals(rep, F.frames[x], out, tol,
                          lambda p: ("one-sided criterion A_g F_{s} A_{g^-1} in F_{r}",
                                     f"arrow {g}"))
    return rep


def violations(report):
    return [(v.check, v.where, v.residual, v.detail) for v in report.violations]


def candidate_families(bundle, spec):
    """Every block-support family of the unit-fibre spectrum, as the
    enumeration builds them."""
    keys = [b.key for x in bundle.groupoid.objects for b in spec.by_object[x]]
    for mask in itertools.product((False, True), repeat=len(keys)):
        yield family_from_subset(bundle, spec, {k for k, m in zip(keys, mask) if m}, DEFAULT)


def check_every_candidate(bundle, target=None):
    """Compare on every candidate family of ``bundle``, applied to ``target``
    (default: the bundle itself); returns the number of failing candidates."""
    failing = 0
    for family in candidate_families(bundle, fiber_spectrum(bundle, DEFAULT)):
        F = InvariantFamily(target or bundle, family.frames)
        got = violations(validate_invariant_family(F))
        assert got == violations(loop_validate_invariant_family(F))
        failing += bool(got)
    return failing


@pytest.mark.parametrize("name", sorted(gallery.shipped_bundles()))
def test_every_candidate_of_shipped_bundles_matches_loop_reference(name):
    check_every_candidate(gallery.shipped_bundles()[name])


def test_every_candidate_of_certify_bundles_matches_loop_reference(certify_bundles):
    assert len(certify_bundles) == 7
    # pair(n) and Z/n line bundles and M_3 over pair(3): one orbit each, so
    # only the empty and the full family pass
    failing = {name: check_every_candidate(b) for name, b in certify_bundles.items()}
    assert failing == {"line-pair3": 6, "line-pair5": 30, "line-pair7": 126, "line-z8": 0,
                       "line-z16": 0, "line-z24": 0, "m3-pair3": 6}


@pytest.mark.parametrize("name", ["trivial-M2", "a4-over-z2", "m2-twisted"])
def test_every_candidate_on_perturbed_bundles_matches_loop_reference(name):
    b = gallery.shipped_bundles()[name]
    p = perturbed(b, seed=len(name))
    check_every_candidate(b, target=p)
    # random rank-one frames fail the one-sided criterion with residuals far
    # from zero, so the residual values themselves are compared
    rng = np.random.default_rng(5)
    frames = {}
    for x in p.groupoid.objects:
        du = p.dims[p.groupoid.unit[x]]
        frames[x] = la.orth_rows(rng.standard_normal((1, du)) + 1j * rng.standard_normal((1, du)))
    F = InvariantFamily(p, frames)
    got = violations(validate_invariant_family(F))
    assert any(c.startswith("one-sided") and r > 1e-3 for c, _, r, _ in got)
    assert got == violations(loop_validate_invariant_family(F))


def test_zero_unit_fibre_candidates_match_loop_reference():
    G = pair_groupoid(["x", "y"])
    fibers = {g: ([np.ones((1, 1))] if g == G.unit["x"] else []) for g in G.arrows}
    b = MatrixModelBundle(G, fibers, obj_dims={"x": 1, "y": 1}).to_fell_bundle()
    assert sorted(b.dims.values()) == [0, 0, 0, 1]
    check_every_candidate(b)


# -- reference: the per-basis-pair matrix-model parse -------------------------------

def loop_structure_tensors(model):
    G = model.groupoid
    dims = {g: model.dims(g) for g in G.arrows}
    mult = {}
    for g, h in composable_pairs(G):
        gh = G.comp[(g, h)]
        tensor = np.zeros((dims[gh], dims[g], dims[h]), dtype=np.complex128)
        for i in range(dims[g]):
            for j in range(dims[h]):
                coeff, _ = la.stack_expand(model.fibers[gh], model.fibers[g][i] @ model.fibers[h][j])
                tensor[:, i, j] = coeff
        mult[(g, h)] = tensor
    inv = {}
    for g in G.arrows:
        gi = G.inv[g]
        mat = np.zeros((dims[gi], dims[g]), dtype=np.complex128)
        for i in range(dims[g]):
            coeff, _ = la.stack_expand(model.fibers[gi], model.fibers[g][i].conj().T)
            mat[:, i] = coeff
        inv[g] = mat
    return mult, inv


def gallery_models(monkeypatch):
    """The matrix models the gallery parses, captured at ``to_fell_bundle``."""
    seen = []
    real = MatrixModelBundle.to_fell_bundle

    def record(self, *args, **kwargs):
        seen.append(self)
        return real(self, *args, **kwargs)
    monkeypatch.setattr(MatrixModelBundle, "to_fell_bundle", record)
    gallery.shipped_bundles()
    monkeypatch.undo()
    return seen


def certify_models(raw):
    ws = Workspace.from_dict(raw)
    for spec in raw["bundles"].values():
        fibers = {g: [parse_matrix(m, g) for m in mats] for g, mats in spec["fibers"].items()}
        yield MatrixModelBundle(ws.groupoid(spec["groupoid"]), fibers, None,
                                ws.tols.rank_threshold)


def zero_fibre_models():
    # M_2 at x and C at y over pair({x, y}), with the arrows between them
    # zero-dimensional; and a pair({x, y}) bundle whose unit fibre at y is zero
    G = pair_groupoid(["x", "y"])
    m2 = list(np.eye(4).reshape(4, 2, 2))
    yield MatrixModelBundle(G, {G.unit["x"]: m2, G.unit["y"]: [np.ones((1, 1))]})
    yield MatrixModelBundle(G, {G.unit["x"]: [np.ones((1, 1))]}, obj_dims={"y": 1})


def assert_parse_matches_loop_reference(model):
    b = model.to_fell_bundle()
    mult, inv = loop_structure_tensors(model)
    assert b.mult.keys() == mult.keys()
    for key, tensor in mult.items():
        assert b.mult[key].shape == tensor.shape
        assert b.mult[key].tobytes() == tensor.tobytes(), key
    for g, mat in inv.items():
        assert b.inv[g].shape == mat.shape
        assert b.inv[g].tobytes() == mat.tobytes(), g
    return b


def test_parse_of_gallery_models_is_bit_identical_to_loop_reference(monkeypatch):
    models = gallery_models(monkeypatch)
    assert len(models) >= 6
    for model in models:
        assert_parse_matches_loop_reference(model)


def test_parse_of_certify_models_is_bit_identical_to_loop_reference(certify_raw):
    models = list(certify_models(certify_raw))
    assert len(models) == 7
    for model in models:
        assert_parse_matches_loop_reference(model)


def test_parse_with_zero_dimensional_fibres_is_bit_identical_to_loop_reference():
    for model in zero_fibre_models():
        b = assert_parse_matches_loop_reference(model)
        assert 0 in b.dims.values()


def test_parse_in_one_row_slices_is_bit_identical_to_loop_reference(monkeypatch, certify_raw):
    models = gallery_models(monkeypatch) + list(certify_models(certify_raw))
    monkeypatch.setattr(la, "_STACK_CHUNK", 1)
    for model in models + list(zero_fibre_models()):
        assert_parse_matches_loop_reference(model)
