"""The stored Lambda(delta) stack against the per-section loops it replaced.

``delta_images`` forms Lambda of every delta section from the bundle's
direct-sum plan: one einsum and assignment per block shape, for all objects
at once.  The references below are the per-section computations that came
before it, kept as oracles: one 1-D contraction per group of block shapes
for each section, placed down the diagonal object by object.  The stack
must equal them bit for bit (signed zeros included), and the exactness,
coefficient-embedding and Galois reports built on it must equal the reports
of the per-section code.  The plan itself is built once per pair of
thresholds, during the envelope build, and no read of Lambda or of the
norms calls ``RegularRepAt.matrix`` after it.
"""

import numpy as np
import pytest

import fellbund._linalg as la
from fellbund import envelope, gallery, spectrum
from fellbund.bundle import ei, subbundle_from_frames
from fellbund.config import DEFAULT, Tolerances
from fellbund.envelope import (RegularRepAt, coefficient_embedding_check, cstar_norm,
                               delta_images, envelope_algebra, per_object_norms, regular_at,
                               regular_rep_matrix)
from fellbund.ideals import (ExactnessReport, enumerate_fell_ideals, exactness_verify,
                             quotient_bundle)
from fellbund.report import ValidationReport
from fellbund.sections import (Section, basis_sections, induced_hom, module_action,
                               random_section, unit_section)

import galois_route
from test_sections import _oracle_bundles

# a tolerance below every nonzero residual: each check reports its residual
EXACT = Tolerances(tolerance=1e-300)


def per_section_matrix(bundle, x, coeffs, tols):
    """Lambda_x of one packed section, as formed before the stack: one 1-D
    contraction and one assignment per K block."""
    reg = regular_at(bundle, x, tols)
    G, packed = bundle.groupoid, bundle.offsets()
    out = np.zeros((reg.dim, reg.dim), dtype=np.complex128)
    for (h, g), block in reg.blocks.items():
        q_out, m, q_in = block.shape
        o, i = reg.offsets[G.comp[(h, g)]], reg.offsets[g]
        out[o:o + q_out, i:i + q_in] = np.einsum("qmr,m->qr", block,
                                                 coeffs[packed[h]:packed[h] + m])
    return out


def per_section_lambda(bundle, f, tols=DEFAULT):
    """The direct sum over the objects of ``per_section_matrix``."""
    blocks = [per_section_matrix(bundle, x, f.pack(), tols) for x in bundle.groupoid.objects]
    dim = sum(b.shape[0] for b in blocks)
    out = np.zeros((dim, dim), dtype=np.complex128)
    pos = 0
    for b in blocks:
        out[pos:pos + b.shape[0], pos:pos + b.shape[0]] = b
        pos += b.shape[0]
    return out


def per_delta_stack(bundle, tols=DEFAULT):
    """The reference loop: Lambda of each delta section in packed order."""
    dim = sum(regular_at(bundle, x, tols).dim for x in bundle.groupoid.objects)
    return np.array([per_section_lambda(bundle, s, tols) for _, _, s in basis_sections(bundle)],
                    dtype=np.complex128).reshape(-1, dim, dim)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def all_bundles(certify_bundles):
    return {**gallery.shipped_bundles(), **certify_bundles}


def test_delta_stack_matches_the_per_delta_loop_bit_for_bit(certify_bundles):
    rng = np.random.default_rng(21)
    for name, b in all_bundles(certify_bundles).items():
        stack = delta_images(b)
        assert same_bits(stack, per_delta_stack(b)), name
        assert envelope_algebra(b).images is stack, name
        # the 1-D path of a general section is the per-section contraction
        env = envelope_algebra(b)
        for f in (random_section(b, rng), unit_section(b), Section(b, {})):
            assert same_bits(env.lambda_of(f), per_section_lambda(b, f)), name


def test_delta_stack_is_read_only_and_shared_across_seeds():
    b = gallery.a4_over_z2_bundle()
    stack = delta_images(b)
    assert not stack.flags.writeable
    assert delta_images(b, Tolerances(seed=5)) is stack
    assert envelope_algebra(b, Tolerances(seed=5)).images is stack
    assert delta_images(b, Tolerances(rank_threshold=1e-11)) is not stack


def test_empty_bundle_has_an_empty_stack():
    b = gallery.shipped_bundles()["a4"]
    zero, _ = subbundle_from_frames(b, {g: np.zeros((0, 1), dtype=complex)
                                        for g in b.groupoid.arrows})
    stack = delta_images(zero)
    dim = sum(regular_at(zero, x).dim for x in zero.groupoid.objects)
    assert stack.shape == (0, dim, dim)
    assert envelope_algebra(zero).blocks == [] and envelope_algebra(zero).injective


# -- the direct-sum plan ---------------------------------------------------------

def test_plan_is_built_once_per_threshold_pair_and_shared_across_seeds(monkeypatch):
    built = []
    plan_type = envelope._DirectSumPlan
    monkeypatch.setattr(envelope, "_DirectSumPlan",
                        lambda *fields: built.append(fields) or plan_type(*fields))
    b = gallery.a4_partial_bundle()
    plan = envelope._direct_sum_plan(b, DEFAULT)
    for tols in (DEFAULT, Tolerances(seed=5), Tolerances(seed=9)):
        f = random_section(b, np.random.default_rng(tols.seed))
        cstar_norm(b, f, tols), envelope_algebra(b, tols).lambda_of(f), delta_images(b, tols)
        assert envelope._direct_sum_plan(b, tols) is plan
    assert len(built) == 1
    sharper = Tolerances(rank_threshold=1e-11)
    cstar_norm(b, random_section(b, np.random.default_rng(1)), sharper)
    assert len(built) == 2 and envelope._direct_sum_plan(b, sharper) is not plan


def test_reads_through_the_plan_make_no_matrix_call(monkeypatch, certify_bundles):
    calls = []
    matrix = RegularRepAt.matrix
    monkeypatch.setattr(RegularRepAt, "matrix",
                        lambda self, coeffs: calls.append(self.x) or matrix(self, coeffs))
    rng = np.random.default_rng(27)
    for name, b in _oracle_bundles(certify_bundles).items():
        env = envelope_algebra(b)  # builds the plan
        f = random_section(b, rng)
        cstar_norm(b, f), per_object_norms(b, f), env.lambda_of(f)
        delta_images(b, Tolerances(seed=3))
        assert calls == [], name
    regular_rep_matrix(b, b.groupoid.objects[0], f)
    assert calls == [b.groupoid.objects[0]]  # the wrapper counts


@pytest.mark.parametrize("name, dims", [("a4-partial", [2, 2, 1]), ("a4-ideal-sub", [2, 2, 0])])
def test_plan_reads_mixed_and_zero_object_dims(name, dims, certify_bundles):
    b = _oracle_bundles(certify_bundles)[name]
    objects = b.groupoid.objects
    assert [regular_at(b, x).dim for x in objects] == dims
    f = random_section(b, np.random.default_rng(5))
    lam, norms = envelope_algebra(b).lambda_of(f), per_object_norms(b, f)
    pos = 0
    for x, n in zip(objects, dims):
        block = regular_rep_matrix(b, x, f)
        assert same_bits(lam[pos:pos + n, pos:pos + n], block), (name, x)
        assert not lam[pos:pos + n, :pos].any() and not lam[pos:pos + n, pos + n:].any()
        assert norms[x] == (np.linalg.svd(block, compute_uv=False)[0] if n else 0.0), (name, x)
        pos += n
    assert list(norms) == list(objects) and cstar_norm(b, f) == max(norms.values())
    if not dims[-1]:
        assert norms[objects[-1]] == 0.0 and type(norms[objects[-1]]) is float


# -- the regular store and its per-object views ----------------------------------

@pytest.mark.parametrize("name", ["a4-over-z2", "a4-ideal-sub"])
def test_views_hold_no_block_of_their_own_and_match_lambda(name, certify_bundles):
    b = _oracle_bundles(certify_bundles)[name]
    store = envelope._direct_sum_plan(b, DEFAULT)
    env = envelope_algebra(b)
    objects = b.groupoid.objects
    # every K block is held once, in the store, and each view reads it there
    views = [regular_at(b, x) for x in objects]
    assert sum(len(reg.blocks) for reg in views) == len(store.keys) > 0
    for x, reg in zip(objects, views):
        for key, block in reg.blocks.items():
            assert any(np.shares_memory(block, a) for a in store.blocks.arrays), (name, x, key)
    # signed zeros: a section of negative zeros gives zeros of both signs
    sections = [random_section(b, np.random.default_rng(8)),
                Section(b, {g: np.full(b.dims[g], -0.0) for g in b.groupoid.arrows})]
    for f in sections:
        lam, pos = env.lambda_of(f), 0
        for x, reg in zip(objects, views):
            assert same_bits(regular_rep_matrix(b, x, f), lam[pos:pos + reg.dim, pos:pos + reg.dim])
            pos += reg.dim
        assert pos == lam.shape[0]


# -- coefficient embedding -------------------------------------------------------

def per_section_embedding_check(bundle, tols):
    """``coefficient_embedding_check`` with Lambda of every section, the
    unit-fibre and section deltas included, formed one section at a time."""
    G = bundle.groupoid
    rep = ValidationReport("coefficient embedding")
    tol = tols.tolerance

    def lam(f):
        return per_section_lambda(bundle, f, tols)

    def phi_sec(x, coords):
        return Section(bundle, {G.unit[x]: coords})

    unit_basis = [(x, i, Section(bundle, {G.unit[x]: ei(bundle.dims[G.unit[x]], i)}))
                  for x in G.objects for i in range(bundle.dims[G.unit[x]])]
    mats = [lam(s) for (_, _, s) in unit_basis]
    if mats:
        rank = la.matrix_rank(np.stack([m.reshape(-1) for m in mats]), tols.rank_threshold)
        rep.require(rank == len(mats), "embedding injective", "unit fibre sum",
                    detail=f"rank {rank} of {len(mats)}")
    for (x, i, s) in unit_basis:
        m = lam(s)
        u = G.unit[x]
        star = lam(phi_sec(x, bundle.star_coords(u, ei(bundle.dims[u], i))))
        rep.check_residual(float(np.linalg.norm(m.conj().T - star)), tol,
                           "embedding involutive", f"({x},{i})")
        for (y, j, t) in unit_basis:
            if x != y:
                continue
            lhs = m @ lam(t)
            rhs = lam(phi_sec(x, bundle.mult[(u, u)][:, i, j]))
            rep.check_residual(float(np.linalg.norm(lhs - rhs)),
                               tol * max(1.0, float(np.linalg.norm(rhs))),
                               "embedding multiplicative", f"({x},{i},{j})")
    for (x, i, s) in unit_basis:
        m = lam(s)
        coeffs = {x: ei(bundle.dims[G.unit[x]], i)}
        for (g, k, f) in basis_sections(bundle):
            lhs = m @ lam(f)
            rhs = lam(module_action(bundle, coeffs, f))
            rep.check_residual(float(np.linalg.norm(lhs - rhs)),
                               tol * max(1.0, float(np.linalg.norm(lhs))),
                               "module action compatibility", f"phi({x},{i}) on ({g},{k})")
    ident = lam(unit_section(bundle))
    rep.check_residual(float(np.linalg.norm(ident - np.eye(ident.shape[0]))), tol,
                       "unit section acts as identity", "envelope")
    return rep


@pytest.mark.parametrize("tols", [DEFAULT, EXACT], ids=["default", "exact"])
def test_coefficient_embedding_report_matches_per_section_reference(tols):
    for name, b in gallery.shipped_bundles().items():
        got = coefficient_embedding_check(b, tols).to_json()
        assert got == per_section_embedding_check(b, tols).to_json(), name
        if tols is EXACT and name in ("trivial-M2", "m2-twisted"):
            assert got["violations"]  # rounding residuals, compared bit for bit


# -- exactness -------------------------------------------------------------------

def per_section_exactness(bundle, I, tols=DEFAULT):
    """``exactness_verify`` with Lambda of every parent delta formed one
    section at a time, in both loops over the parent basis."""
    sub, incl = subbundle_from_frames(bundle, dict(I.frames), name="ideal subbundle")
    env_total = envelope_algebra(bundle, tols)
    quotient, qhom = quotient_bundle(bundle, I, tols)
    env_quot = envelope_algebra(quotient, tols)
    include, project = induced_hom(incl), induced_hom(qhom)

    ideal_images = [env_total.lambda_of(include(s)) for (_, _, s) in basis_sections(sub)]
    image_frame = la.orth_rows(np.stack([m.reshape(-1) for m in ideal_images])
                               if ideal_images else np.zeros((0, 1)), tols.rank_threshold)
    dim_ideal = image_frame.shape[0]
    parent_basis = basis_sections(bundle)
    image_is_ideal = True
    for (_, _, s) in parent_basis:
        m = per_section_lambda(bundle, s, tols)
        for img in ideal_images:
            for prod in (m @ img, img @ m):
                if la.residual_in_span(image_frame, prod.reshape(-1)) > \
                        1e-7 * max(1.0, float(np.linalg.norm(prod))):
                    image_is_ideal = False
    proj_vecs = [env_quot.lambda_of(project(s)).reshape(-1) for (_, _, s) in parent_basis]
    proj_matrix = np.stack(proj_vecs) if proj_vecs else np.zeros((0, 1))
    rank = la.matrix_rank(proj_matrix, tols.rank_threshold)
    null_coeffs = la.null_space_rows(proj_matrix.T, tols.rank_threshold) \
        if proj_matrix.size else np.eye(len(parent_basis), dtype=np.complex128)
    kernel_vecs = [np.tensordot(c, per_delta_stack(bundle, tols), axes=1).reshape(-1)
                   for c in null_coeffs]
    kernel_frame = la.orth_rows(np.array(kernel_vecs) if kernel_vecs
                                else np.zeros((0, image_frame.shape[1])), tols.rank_threshold)
    ann_rows = []
    for (_, _, s) in parent_basis:
        m = per_section_lambda(bundle, s, tols)
        ann_rows.append(np.concatenate([(m @ img).reshape(-1) for img in ideal_images])
                        if ideal_images else np.zeros(0))
    if ideal_images and ann_rows:
        essential = la.matrix_rank(np.stack(ann_rows), tols.rank_threshold) == len(parent_basis)
    else:
        essential = not ideal_images and not parent_basis
    report = ExactnessReport(dim_ideal, env_total.dim, env_quot.dim,
                             dim_ideal == sub.total_dim, image_is_ideal, rank == env_quot.dim,
                             la.frame_eq(kernel_frame, image_frame, 1e-7),
                             dim_ideal + env_quot.dim == env_total.dim, essential)
    report.notes.append("spectrum vs primitive-ideal space coincide for "
                        "finite-dimensional fibres; essential-ideal flag is a "
                        "support diagnostic only")
    return report


def test_exactness_reports_match_per_section_reference():
    for name, b in gallery.shipped_bundles().items():
        for k, I in enumerate(enumerate_fell_ideals(b)):
            got = exactness_verify(b, I).to_json()
            assert got == per_section_exactness(b, I).to_json(), f"{name} ideal {k}"


# -- Galois connection -----------------------------------------------------------

def per_section_galois_data(bundle, tols=DEFAULT):
    """GaloisData whose unit images are Lambda of one unit-fibre delta
    section at a time, and whose stack is the per-delta loop."""
    G = bundle.groupoid
    units = [per_section_lambda(bundle, Section(bundle, {G.unit[x]: ei(bundle.dims[G.unit[x]], i)}),
                                tols)
             for x in G.objects for i in range(bundle.dims[G.unit[x]])]
    stack = per_delta_stack(bundle, tols)
    return galois_route.GaloisData(bundle, stack,
                                   np.array(units, dtype=np.complex128).reshape(-1, *stack.shape[1:]),
                                   envelope_algebra(bundle, tols).blocks)


def per_section_incidence(data, tols=DEFAULT):
    """tr(z_P phi(p_s)) with phi(p_s) formed from ``data``'s unit images by
    ``phi_of``, one spectrum block at a time."""
    G = data.bundle.groupoid
    starts = dict(zip(G.objects, np.cumsum([0] + [data.bundle.dims[G.unit[x]]
                                                 for x in G.objects]).tolist()))
    phis = []
    for b in spectrum.fiber_spectrum(data.bundle, tols).blocks():
        coeff = np.zeros(data.coeff_total, dtype=np.complex128)
        coeff[starts[b.obj]:starts[b.obj] + len(b.coords)] = b.coords
        phis.append(galois_route.phi_of(data, coeff))
    return np.array([[np.trace(P.projection @ phi) for phi in phis] for P in data.env_blocks])


@pytest.mark.parametrize("name", ["z2-line", "a4", "a4-over-z2", "klein-twisted",
                                  "z2-swap-compiled", "pair2-line"])
def test_galois_report_matches_per_section_reference(name, monkeypatch):
    b = gallery.shipped_bundles()[name]
    data, ref = galois_route.galois_data(b), per_section_galois_data(b)
    assert same_bits(data.units, ref.units) and same_bits(data.images, ref.images), name
    table, traces = spectrum.incidence(b), per_section_incidence(ref)
    assert np.abs(table - traces).max() <= 1e-12, name
    assert np.array_equal(np.rint(table.real), np.rint(traces.real)), name
    got = spectrum.galois_check(b).to_json()
    monkeypatch.setattr(galois_route, "galois_data", lambda bundle, tols=DEFAULT: ref)
    assert got == galois_route.galois_check(b).to_json(), name
