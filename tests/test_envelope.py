import tracemalloc

import numpy as np
import pytest

import fellbund._linalg as la
from fellbund import gallery
from fellbund.bundle import FellBundle, Structure
from fellbund.envelope import (block_decomposition, coefficient_embedding_check,
                               cstar_norm, delta_images, envelope_algebra,
                               irreducible_envelope_blocks, irrep_frames, per_object_norms,
                               regular_at, regular_rep_matrix, sharper_norm_bound)
from fellbund.groupoid import FiniteGroupoid, trivial_group
from fellbund.sections import (Section, convolve, i_norm, involute,
                               random_section, unit_section)
from fellbund.spectrum import fiber_spectrum
from stack_route import stack_blocks


def envelope_blocks(bundle, images=None):
    """The library route on the envelope images (default: the bundle's own)."""
    images = delta_images(bundle) if images is None else images
    return block_decomposition(images, bundle.structure(), lambda: unit_section(bundle).pack())


def fibre_blocks(bundle, x):
    """The library route on the unit fibre at x."""
    return block_decomposition(bundle.unit_rep[x], Structure.unit_fibre(bundle, x),
                               lambda: bundle.unit_algebra_unit(x))


def brute_center_dim(mats):
    """Independent oracle: dimension of the centre of span(mats) by solving
    the commutation equations with raw numpy."""
    stack = np.stack(mats)
    d = stack.shape[0]
    rows = []
    for i in range(d):
        comm = np.einsum("kab,bc->kac", stack, stack[i]) - \
            np.einsum("ab,kbc->kac", stack[i], stack)
        rows.append(comm.reshape(d, -1).T)
    m = np.vstack(rows)
    s = np.linalg.svd(m, compute_uv=False)
    rank = int(np.sum(s > 1e-10 * max(s[0], 1.0))) if s.size else 0
    return d - rank


def test_unit_section_maps_to_identity():
    for name, b in gallery.shipped_bundles().items():
        for x in b.groupoid.objects:
            m = regular_rep_matrix(b, x, unit_section(b))
            np.testing.assert_allclose(m, np.eye(m.shape[0]), atol=1e-9, err_msg=name)


def test_z2_regular_matrix():
    b = gallery.z2_line_bundle()
    f = Section(b, {"e": [1.0], "g1": [1.0]})
    np.testing.assert_allclose(regular_rep_matrix(b, "pt", f),
                               [[1, 1], [1, 1]], atol=1e-12)
    assert cstar_norm(b, f) == pytest.approx(2.0, abs=1e-12)


def test_trivial_group_norm_is_operator_norm():
    b = gallery.matrix_bundle_over_point(2)
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f = Section(b, {"e": a})
        assert cstar_norm(b, f) == pytest.approx(
            np.linalg.svd(b.unit_matrix("pt", a), compute_uv=False)[0], abs=1e-10)


def test_z2_cstar_norm_closed_form():
    b = gallery.z2_line_bundle()
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, c = (rng.standard_normal() + 1j * rng.standard_normal() for _ in range(2))
        f = Section(b, {"e": [a], "g1": [c]})
        assert cstar_norm(b, f) == pytest.approx(max(abs(a + c), abs(a - c)), abs=1e-10)
    f = Section(b, {"e": [1.0], "g1": [1j]})
    assert cstar_norm(b, f) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_lambda_is_star_homomorphism():
    rng = np.random.default_rng(2)
    for name, b in gallery.shipped_bundles().items():
        env = envelope_algebra(b)
        x, y = random_section(b, rng), random_section(b, rng)
        lx, ly = env.lambda_of(x), env.lambda_of(y)
        np.testing.assert_allclose(env.lambda_of(convolve(x, y)), lx @ ly,
                                   atol=1e-8 * max(1, np.linalg.norm(lx @ ly)),
                                   err_msg=name)
        np.testing.assert_allclose(env.lambda_of(involute(x)), lx.conj().T,
                                   atol=1e-9 * max(1, np.linalg.norm(lx)), err_msg=name)


def test_cstar_identity_and_norm_bounds():
    rng = np.random.default_rng(3)
    for name, b in gallery.shipped_bundles().items():
        for _ in range(5):
            f = random_section(b, rng)
            c = cstar_norm(b, f)
            cc = cstar_norm(b, convolve(involute(f), f))
            assert cc == pytest.approx(c * c, rel=1e-7), name
            assert c <= i_norm(f) + 1e-9, name
            assert c <= sharper_norm_bound(b, f) + 1e-9, name


def test_faithfulness():
    for name, b in gallery.shipped_bundles().items():
        env = envelope_algebra(b)
        assert env.injective, name
        assert env.dim == b.total_dim, name


def test_envelope_block_examples():
    assert envelope_algebra(gallery.z2_line_bundle()).block_summary() == \
        [{"size": 1, "multiplicity": 1}, {"size": 1, "multiplicity": 1}]
    assert envelope_algebra(gallery.matrix_bundle_over_point(2)).block_summary() == \
        [{"size": 2, "multiplicity": 1}]
    assert envelope_algebra(gallery.pair_line_bundle(2)).block_summary() == \
        [{"size": 2, "multiplicity": 2}]


def test_block_dimension_sum():
    for name, b in gallery.shipped_bundles().items():
        env = envelope_algebra(b)
        assert sum(blk["size"] ** 2 for blk in env.block_summary()) == env.dim, name


def test_block_decomposition_against_commutant_oracle():
    # twisted Klein four: centre dim 1 => a single block of size 2
    kt = gallery.klein_twisted_bundle()
    env = envelope_algebra(kt)
    assert brute_center_dim(list(env.images)) == 1
    assert env.block_summary() == [{"size": 2, "multiplicity": 2}]
    # untwisted: centre dim 4 => four one-dimensional blocks
    k0 = gallery.klein_trivial_bundle()
    env0 = envelope_algebra(k0)
    assert brute_center_dim(list(env0.images)) == 4
    assert env0.block_summary() == [{"size": 1, "multiplicity": 1}] * 4


def test_block_decomposition_random_conjugated_direct_sum():
    # oracle: build (M_2 (+) M_1 (+) M_1) conjugated by a random unitary
    rng = np.random.default_rng(4)
    u = la.random_unitary(4, rng)
    mats = []
    for _ in range(12):
        block = np.zeros((4, 4), dtype=complex)
        block[:2, :2] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        block[2, 2] = rng.standard_normal() + 1j * rng.standard_normal()
        block[3, 3] = rng.standard_normal() + 1j * rng.standard_normal()
        mats.append(u @ block @ u.conj().T)
    blocks = stack_blocks(np.stack(mats))
    assert sorted((b.size, b.multiplicity) for b in blocks) == [(1, 1), (1, 1), (2, 1)]


def _independent(mats):
    """A linearly independent spanning subset of span(mats), by raw SVD."""
    flat = np.stack([np.asarray(m, dtype=complex).reshape(-1) for m in mats])
    _, s, vh = np.linalg.svd(flat, full_matrices=False)
    keep = s > 1e-10 * s[0]
    n = np.asarray(mats[0]).shape[0]
    return list(vh[keep].reshape(-1, n, n))


def test_centre_dimension_matches_commutation_oracle():
    # one block per minimal central projection: the block count is the
    # centre dimension, which the oracle reads off the ambient system; the
    # library reads the structure tensors, the stack route an independent
    # spanning subset of the bare stack
    for name, b in gallery.shipped_bundles().items():
        stacks = [("envelope", envelope_algebra(b).images, envelope_blocks(b))]
        stacks += [(f"unit fibre {x}", b.unit_rep[x], fibre_blocks(b, x))
                   for x in b.groupoid.objects if b.unit_rep[x].shape[0]]
        for where, stack, got in stacks:
            mats = _independent(list(stack))
            for blocks in (got, stack_blocks(np.stack(mats))):
                assert len(blocks) == brute_center_dim(mats), (name, where)
                assert sum(blk.size ** 2 for blk in blocks) == len(mats), (name, where)


def _unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


@pytest.mark.parametrize("mats", [
    [_unit(2, 0, 1), _unit(2, 1, 0)],                 # E12 E21 = E11 is missing
    [_unit(2, 0, 0), _unit(2, 0, 1), _unit(2, 1, 1)],  # upper triangular
    [np.eye(2, dtype=complex), _unit(2, 0, 1)],        # commutative, not *-closed
], ids=["not-product-closed", "upper-triangular", "unit-plus-nilpotent"])
def test_block_decomposition_rejects_non_star_algebras(mats):
    with pytest.raises(ValueError, match="not closed"):
        stack_blocks(np.stack(mats))


def test_block_decomposition_of_an_ideal_inside_a_larger_matrix_algebra():
    # M_2 in the top corner of Mat(3): the unit is a proper support projection
    mats = [np.pad(_unit(2, i, j), ((0, 1), (0, 1))) for i in range(2) for j in range(2)]
    blocks = stack_blocks(np.stack(mats))
    assert [(blk.size, blk.multiplicity) for blk in blocks] == [(2, 1)]
    np.testing.assert_allclose(blocks[0].projection, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


@pytest.mark.parametrize("shape", [(0, 3, 3), (2, 0, 0), (0, 0, 0)])
def test_block_decomposition_of_an_empty_stack_has_no_blocks(shape):
    # no matrices, or matrices with no entries, span the zero algebra, in
    # the library (before it reads the structure) and in the stack route
    stack = np.zeros(shape, dtype=complex)
    a4 = gallery.a4_bundle()
    assert block_decomposition(stack, a4.structure(), lambda: unit_section(a4).pack()) == []
    assert stack_blocks(stack) == []


def test_pair9_line_envelope_is_one_full_matrix_block():
    # C*(pair(9)) = M_9, and the regular representation holds 9 copies of C^9
    env = envelope_algebra(gallery.pair_line_bundle(9))
    assert env.dim == 81 and env.injective
    assert env.block_summary() == [{"size": 9, "multiplicity": 9}]


def test_z48_line_envelope_is_48_characters():
    from fellbund.groupoid import cyclic_group
    env = envelope_algebra(gallery.trivial_line_bundle(cyclic_group(48)))
    assert env.dim == 48 and env.injective
    assert env.block_summary() == [{"size": 1, "multiplicity": 1}] * 48
    total = sum(blk.projection for blk in env.blocks)
    np.testing.assert_allclose(total, np.eye(48), atol=1e-9)


def test_m3_pair3_block_decomposition_stays_under_24_mb(certify_bundles):
    # the stack route: d = 81 images, each d³ array (the structure constants,
    # the commutator system, the copy its QR takes) is 8.5 MB, and at most
    # two are held at once; the products run in 1 MB row chunks
    images = delta_images(certify_bundles["m3-pair3"])
    tracemalloc.start()
    try:
        blocks = stack_blocks(images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(b.size, b.multiplicity) for b in blocks] == [(9, 3)]
    assert all(b.irrep_frame is None for b in blocks)
    assert peak <= 24e6, peak


def structure_route_subjects(certify_bundles):
    """Every shipped bundle, the compiled two-object action, the bundles
    compiled from the seeded random actions (cyclic groups permuting matrix
    blocks) and the seed-1 certify bundles, and for each of them the
    sub-bundle and the quotient bundle of every Fell ideal other than 0 and
    the whole bundle.  Some of these unit fibres act degenerately: the unit
    representations at pt of the ideal and quotient bundles of
    ``a4-over-z2`` are not unital on C^3."""
    from fellbund.actions import compile_to_fell_bundle
    from fellbund.bundle import subbundle_from_frames
    from fellbund.ideals import enumerate_fell_ideals, quotient_bundle
    from test_action_witnesses import two_object_action
    from test_random_pipeline import SEEDS, random_instance
    subjects = dict(gallery.shipped_bundles())
    subjects["two objects"] = compile_to_fell_bundle(two_object_action())
    subjects.update({f"random {seed}": compile_to_fell_bundle(random_instance(seed))
                     for seed in SEEDS})
    subjects.update({f"certify {name}": b for name, b in certify_bundles.items()})
    for name, b in list(subjects.items()):
        proper = [I for I in enumerate_fell_ideals(b) if 0 < I.total_dim() < b.total_dim]
        for k, I in enumerate(proper):
            subjects[f"{name} ideal {k}"] = subbundle_from_frames(b, dict(I.frames))[0]
            subjects[f"{name} quotient {k}"] = quotient_bundle(b, I)[0]
    return subjects


def assert_same_blocks(got, want, where):
    assert [(x.size, x.multiplicity) for x in got] == \
        [(x.size, x.multiplicity) for x in want], where
    for x, y in zip(got, want):
        np.testing.assert_allclose(x.projection, y.projection, rtol=0, atol=1e-10,
                                   err_msg=str(where))


def test_structure_route_blocks_equal_the_stack_route(certify_bundles):
    # the blocks read off the structure tensors against those of the images
    # alone (the stack route of tests/stack_route.py): same sizes,
    # multiplicities and order, the same projections; on the envelope and
    # on every nonzero unit fibre, degenerate ones included
    subjects = structure_route_subjects(certify_bundles)
    assert len(subjects) == 58
    fibres, degenerate = 0, 0
    for name, b in subjects.items():
        images = delta_images(b)
        assert_same_blocks(envelope_blocks(b), stack_blocks(images), (name, "envelope"))
        for x in b.groupoid.objects:
            stack = b.unit_rep[x]
            if not stack.shape[0]:
                continue
            assert_same_blocks(fibre_blocks(b, x), stack_blocks(stack), (name, x))
            unit = la.stack_combine(stack, b.unit_algebra_unit(x))
            fibres += 1
            degenerate += not np.allclose(unit, np.eye(len(unit)), atol=1e-9)
    assert (fibres, degenerate) == (84, 29)


def flipped_z8_bundle():
    """The trivial line bundle over Z/8 with the sign of mult[(g1, g2)]
    flipped (``flipped_bundle`` of scripts/report_snapshot.py)."""
    from fellbund.groupoid import composable_pairs, cyclic_group
    G = cyclic_group(8)
    one = np.ones((1, 1, 1), dtype=complex)
    mult = {p: -one if p == ("g1", "g2") else one for p in composable_pairs(G)}
    return FellBundle(G, {g: 1 for g in G.arrows}, mult,
                      {g: np.ones((1, 1)) for g in G.arrows}, {"pt": one})


def test_flipped_mult_sign_is_not_closed_under_products():
    with pytest.raises(ValueError, match=r"not closed under products: at the basis pair "
                                         r"\(g1\[0\],g2\[0\]\)"):
        envelope_algebra(flipped_z8_bundle())


def test_structure_route_checks_name_their_witness():
    # the images of one bundle read with the tensors of another, which
    # breaks one check at a time
    from fellbund.groupoid import cyclic_group
    z8 = gallery.trivial_line_bundle(cyclic_group(8))
    images = delta_images(z8)
    G, one = z8.groupoid, np.ones((1, 1, 1), dtype=complex)
    flipped_inv = FellBundle(G, z8.dims, z8.mult, {g: (-1.0 if g == "g3" else 1.0) * m
                                                   for g, m in z8.inv.items()}, z8.unit_rep)
    with pytest.raises(ValueError, match=r"not closed under adjoints: at g3\[0\]"):
        envelope_blocks(flipped_inv, images)
    halved_unit = FellBundle(G, z8.dims, z8.mult, z8.inv, {"pt": 2 * one})
    with pytest.raises(ValueError, match="do not act as the identity"):
        envelope_blocks(halved_unit, images)
    # Z/4 images over pair(2), which has four arrows too: a product of two
    # non-composable arrows is not exactly 0
    pair2 = gallery.pair_line_bundle(2)
    z4 = delta_images(gallery.trivial_line_bundle(cyclic_group(4)))
    with pytest.raises(ValueError, match="of a non-composable pair the product is not exactly 0"):
        envelope_blocks(pair2, z4)
    # dependent images are no basis, and the error names their rank
    z2 = gallery.z2_line_bundle()
    twice = np.stack([np.eye(2, dtype=complex)] * 2)
    with pytest.raises(ValueError, match=r"not linearly independent \(rank 1 of 2\)"):
        envelope_blocks(z2, twice)
    # and a stack of another length than the structure's coordinates
    with pytest.raises(ValueError, match="3 images for a structure of 2 coordinates"):
        envelope_blocks(z2, np.stack([np.eye(2, dtype=complex)] * 3))


def test_a_unit_that_acts_on_part_of_the_space_is_a_support_projection():
    # the algebra C + C represented on C^3 with a kernel: the
    # unit's image diag(1, 1, 0) is a two-sided unit of both images, and the
    # kernel is no block; half of it is a unit of neither
    pq = np.stack([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])]).astype(complex)
    mult = np.zeros((2, 2, 2), dtype=complex)
    mult[0, 0, 0] = mult[1, 1, 1] = 1.0
    point = FellBundle(trivial_group(), {"e": 2}, {("e", "e"): mult},
                       {"e": np.eye(2)}, {"pt": pq})
    blocks = fibre_blocks(point, "pt")
    assert [(b.size, b.multiplicity) for b in blocks] == [(1, 1), (1, 1)]
    np.testing.assert_allclose(sum(b.projection for b in blocks), np.diag([1.0, 1.0, 0.0]),
                               atol=1e-12)
    with pytest.raises(ValueError, match="do not act as the identity"):
        block_decomposition(pq, Structure.unit_fibre(point, "pt"), lambda: np.array([1.0, 0.5]))


def test_one_orthonormal_basis_per_algebra(certify_bundles, monkeypatch):
    # the HS-orthonormalised stack that orders tied blocks is the one the
    # irreducible frames are searched on: at most one stack_orth per nonzero
    # unit fibre, and one for the envelope of line-z8 (eight tied characters)
    import fellbund.envelope as envelope
    orthonormalised = []
    real = la.stack_orth
    monkeypatch.setattr(la, "stack_orth",
                        lambda *args, **kwargs: orthonormalised.append(1) or real(*args, **kwargs))
    for name, b in {**gallery.shipped_bundles(), **certify_bundles}.items():
        orthonormalised.clear()
        spec = fiber_spectrum(b)
        live = sum(1 for x in b.groupoid.objects if b.unit_rep[x].shape[0])
        assert len(orthonormalised) <= live, name
        assert all(blk.frame is not None for blk in spec.blocks()), name
    z8 = certify_bundles["line-z8"]
    orthonormalised.clear()
    blocks = envelope.irreducible_envelope_blocks(z8)
    assert len(blocks) == 8 and len(orthonormalised) == 1


def test_cold_m3_pair3_envelope_stays_under_18_5_mb_without_an_orthonormalising_svd(
        certify_bundles, monkeypatch):
    # 18.5 MB is the peak of the stack route (tests/stack_route.py) alone on
    # these images; the envelope now forms the images, their regular
    # representations and the blocks below it, with no stack_orth (one
    # block: nothing ties) and no d³ array
    import fellbund.envelope as envelope
    orthonormalised = []
    real = la.stack_orth
    monkeypatch.setattr(la, "stack_orth",
                        lambda *args, **kwargs: orthonormalised.append(1) or real(*args, **kwargs))
    tracemalloc.start()
    try:
        env = envelope.envelope_algebra(certify_bundles["m3-pair3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert env.block_summary() == [{"size": 9, "multiplicity": 3}] and env.injective
    assert orthonormalised == []
    assert peak < 18.5e6, peak


def test_irreducible_envelope_blocks_reuse_the_envelope_decomposition(certify_bundles,
                                                                      monkeypatch):
    # the frames are searched on the blocks envelope_algebra cached: no
    # second decomposition, and no d³ array
    import fellbund.envelope as envelope
    bundle = certify_bundles["m3-pair3"]
    env = envelope_algebra(bundle)
    decomposed = []
    real = envelope.block_decomposition
    monkeypatch.setattr(envelope, "block_decomposition",
                        lambda *args, **kwargs: decomposed.append(1) or real(*args, **kwargs))
    tracemalloc.start()
    try:
        blocks = irreducible_envelope_blocks(bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decomposed == []
    assert [(b.size, b.multiplicity) for b in blocks] == [(9, 3)]
    np.testing.assert_array_equal(blocks[0].projection, env.blocks[0].projection)
    assert blocks[0].irrep_frame.shape == (9, env.images.shape[1])
    assert peak <= 6e6, peak


def assert_irreducible_star_hom(irrep, stack, size, where):
    """Independent oracle: pi = ``irrep`` is a *-homomorphism onto M_size on
    span(stack), checked on the products and adjoints of the stack itself:
    pi(X) pi(Y) = pi(XY), pi(X*) = pi(X)* to 1e-9, and rank size²."""
    stack = np.asarray(stack, dtype=complex)
    pis = irrep(stack)
    for x, px in zip(stack, pis):
        err = np.linalg.norm(px @ pis - irrep(x @ stack), axis=(1, 2))
        scale = max(1.0, float(np.linalg.norm(x)) * float(np.linalg.norm(stack, axis=(1, 2)).max()))
        assert err.max() <= 1e-9 * scale, (where, err.max())
    adj = irrep(stack.conj().transpose(0, 2, 1)) - pis.conj().transpose(0, 2, 1)
    assert np.linalg.norm(adj, axis=(1, 2)).max() <= 1e-9, where
    assert la.matrix_rank(pis.reshape(len(pis), -1), 1e-10) == size * size, where


def test_irreducible_frames_are_star_homomorphisms(certify_bundles):
    bundles = {**gallery.shipped_bundles(), **certify_bundles}
    for name, b in bundles.items():
        env = envelope_algebra(b)
        for k, blk in enumerate(irreducible_envelope_blocks(b)):
            assert_irreducible_star_hom(blk.irrep, env.images, blk.size, (name, "envelope", k))
        for blk in fiber_spectrum(b).blocks():
            assert_irreducible_star_hom(blk.irrep, b.unit_rep[blk.obj], blk.dim,
                                        (name, "spectrum", blk.key))


def test_irreducible_frames_on_degenerate_and_repeated_stacks():
    rng = np.random.default_rng(11)
    # M_2 in the top corner of Mat(3): the unit is a proper support projection
    corner = [np.pad(_unit(2, i, j), ((0, 1), (0, 1))) for i in range(2) for j in range(2)]
    # M_2 (x) 1_3 (+) M_1 (x) 1_2 under a random unitary: multiplicities 3 and 2
    u = la.random_unitary(8, rng)
    repeated = [u @ np.pad(np.kron(_unit(2, i, j), np.eye(3)), ((0, 2), (0, 2))) @ u.conj().T
                for i in range(2) for j in range(2)]
    repeated.append(u @ np.diag([0.0] * 6 + [1.0, 1.0]) @ u.conj().T)
    for where, mats, shape in (("corner", corner, [(2, 1)]),
                               ("repeated", repeated, [(1, 2), (2, 3)])):
        stack = np.stack(mats)
        blocks = irrep_frames(stack, stack_blocks(stack))
        assert sorted((b.size, b.multiplicity) for b in blocks) == shape, where
        for blk in blocks:
            assert_irreducible_star_hom(blk.irrep, stack, blk.size, where)


def test_a_block_without_a_frame_refuses_irrep():
    blk = envelope_algebra(gallery.z2_line_bundle()).blocks[0]
    with pytest.raises(ValueError, match="no irreducible frame"):
        blk.irrep(np.eye(2))


def test_gram_borderline_notes_empty_for_clean_bundles():
    for name in ("z2-line", "a4", "m2-twisted"):
        b = gallery.shipped_bundles()[name]
        notes = [n for x in b.groupoid.objects for n in regular_at(b, x).borderline]
        assert notes == [], name


def test_per_object_norms_and_determinism():
    b = gallery.a4_bundle()
    f = Section(b, {g: [1.0] for g in b.groupoid.arrows})
    n1 = per_object_norms(b, f)
    n2 = per_object_norms(b, f)
    assert n1 == n2
    assert cstar_norm(b, f) == pytest.approx(max(n1.values()), abs=1e-12)


def negative_gram_bundle():
    """A Z/2 line bundle whose mult tensor at (g1, g1) has a flipped sign, so
    a* a is negative for a in A_g1."""
    from fellbund.bundle import FellBundle
    from fellbund.groupoid import cyclic_group
    G = cyclic_group(2)
    mult = {(g, h): np.ones((1, 1, 1), dtype=complex)
            for g in G.arrows for h in G.arrows}
    mult[("g1", "g1")] = -np.ones((1, 1, 1), dtype=complex)
    inv = {g: np.eye(1, dtype=complex) for g in G.arrows}
    return FellBundle(G, {"e": 1, "g1": 1}, mult, inv,
                      {"pt": np.ones((1, 1, 1), dtype=complex)}, name="negative")


def test_non_positive_gram_signals_invalid_bundle():
    # the Gram matrix of the induced space is non-positive and construction
    # must fail
    bad = negative_gram_bundle()
    with pytest.raises(ValueError, match="Gram"):
        regular_rep_matrix(bad, "pt", unit_section(bad))


def test_norms_reject_a_section_over_another_bundle():
    line, a4 = gallery.z2_line_bundle(), gallery.a4_bundle()
    rng = np.random.default_rng(27)
    norms = (cstar_norm, per_object_norms, sharper_norm_bound,
             lambda b, f: regular_rep_matrix(b, b.groupoid.objects[0], f))
    for norm in norms:
        for b, other in ((line, a4), (a4, line)):
            with pytest.raises(ValueError, match="section does not live over the bundle"):
                norm(b, random_section(other, rng))
    with pytest.raises(ValueError, match="unknown object 'nope'"):
        regular_rep_matrix(a4, "nope", random_section(a4, rng))


def test_coefficient_embedding():
    for name in ("trivial-M2", "z2-line", "a4-over-z2", "klein-twisted"):
        b = gallery.shipped_bundles()[name]
        rep = coefficient_embedding_check(b)
        assert rep.ok, f"{name}:\n{rep.summary()}"


def test_induced_hom_contracts_cstar_norm():
    from fellbund.ideals import (InvariantFamily, ideal_from_invariant_family,
                                 quotient_bundle)
    from fellbund.sections import induced_hom
    b = gallery.a4_bundle()
    frames = {x: (np.eye(1, dtype=complex) if x in ("p", "q")
                  else np.zeros((0, 1), dtype=complex)) for x in b.groupoid.objects}
    I = ideal_from_invariant_family(InvariantFamily(b, frames))
    q, hom = quotient_bundle(b, I)
    push = induced_hom(hom)
    rng = np.random.default_rng(5)
    for _ in range(5):
        f = random_section(b, rng)
        assert cstar_norm(q, push(f)) <= cstar_norm(b, f) + 1e-9


def _assert_dim_is_image_rank(env):
    rank = la.matrix_rank(la.flatten_stack(env.images)) if env.images.shape[0] else 0
    assert env.dim == sum(b.size ** 2 for b in env.blocks) == rank
    assert env.injective == (rank == env.bundle.total_dim)


@pytest.mark.parametrize("name", sorted(gallery.shipped_bundles()))
def test_envelope_dim_is_rank_of_images_on_shipped_bundles(name):
    _assert_dim_is_image_rank(envelope_algebra(gallery.shipped_bundles()[name]))


def test_envelope_dim_is_rank_of_images_on_certify_bundles(certify_bundles):
    assert len(certify_bundles) == 7
    for b in certify_bundles.values():
        _assert_dim_is_image_rank(envelope_algebra(b))


def relabelled(bundle, seed):
    """The bundle over a copy of its groupoid whose arrows carry a seeded
    permutation of the arrow names (not the identity), listed in a seeded
    order."""
    G = bundle.groupoid
    rng = np.random.default_rng(seed)
    names = list(G.arrows)
    perm = rng.permutation(len(names))
    if (perm == np.arange(len(names))).all():
        perm = np.roll(perm, 1)
    new = dict(zip(names, (names[p] for p in perm)))
    H = FiniteGroupoid.from_data(
        G.objects, [new[names[p]] for p in rng.permutation(len(names))],
        {new[g]: G.src[g] for g in names}, {new[g]: G.rng[g] for g in names},
        {x: new[G.unit[x]] for x in G.objects}, {new[g]: new[G.inv[g]] for g in names},
        {(new[g], new[h]): new[k] for (g, h), k in G.comp.items()})
    return FellBundle(H, {new[g]: bundle.dims[g] for g in names},
                      {(new[g], new[h]): m for (g, h), m in bundle.mult.items()},
                      {new[g]: m for g, m in bundle.inv.items()}, bundle.unit_rep,
                      name=f"{bundle.name} (relabelled)")


def test_block_summary_is_invariant_under_arrow_relabelling(certify_bundles):
    bundles = {**gallery.shipped_bundles(), **certify_bundles}
    for seed, (name, b) in enumerate(sorted(bundles.items())):
        r = relabelled(b, seed)
        assert envelope_algebra(r).block_summary() == envelope_algebra(b).block_summary(), name
