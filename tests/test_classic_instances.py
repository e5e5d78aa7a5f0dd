"""Independent cross-checks against classically known decompositions."""

import numpy as np

from fellbund import gallery
from fellbund.actions import reconstruct_action
from fellbund.bundle import validate_fell_bundle
from fellbund.envelope import cstar_norm, envelope_algebra
from fellbund.groupoid import (composable_pairs, cyclic_group,
                               global_action_on_set, pair_groupoid,
                               transformation_groupoid, validate_groupoid)
from fellbund.sections import Section, i_norm, random_section
from fellbund.spectrum import quasi_orbits
from fellbund.trafo import assemble_over_base, trafo_isomorphism_check


def test_s3_group_algebra_splits_1_1_4():
    G = gallery.symmetric_group_3()
    assert validate_groupoid(G).ok
    assert len(G.arrows) == 6
    b = gallery.trivial_line_bundle(G, name="C[S3]")
    env = envelope_algebra(b)
    # classic: C*(S_3) = C (+) C (+) M_2
    assert env.dim == 6
    assert sorted((blk["size"], blk["multiplicity"]) for blk in env.block_summary()) \
        == [(1, 1), (1, 1), (2, 2)]


def test_s3_norm_of_uniform_section_is_group_order():
    # the sum of all group elements acts with norm |G| on the trivial character
    G = gallery.symmetric_group_3()
    b = gallery.trivial_line_bundle(G)
    f = Section(b, {g: [1.0] for g in G.arrows})
    assert abs(cstar_norm(b, f) - 6.0) < 1e-9
    assert abs(i_norm(f) - 6.0) < 1e-12


def test_cyclic_group_algebra_is_diagonal():
    for n in (3, 4, 5):
        b = gallery.trivial_line_bundle(cyclic_group(n), name=f"C[Z{n}]")
        env = envelope_algebra(b)
        assert env.block_summary() == [{"size": 1, "multiplicity": 1}] * n


def test_pair_groupoid_line_bundle_is_full_matrix_algebra():
    for k in (2, 3):
        b = gallery.pair_line_bundle(k)
        env = envelope_algebra(b)
        assert env.block_summary() == [{"size": k, "multiplicity": k}]


def test_translation_action_gives_matrix_algebra():
    # Z/3 acting on itself by translation: the transformation groupoid is the
    # pair groupoid on 3 points, so the section algebra is M_3
    G = cyclic_group(3)
    pts = ["a0", "a1", "a2"]
    table = {}
    for k, g in enumerate(G.arrows):
        for i, y in enumerate(pts):
            table[(g, y)] = pts[(i + k) % 3]
    act = global_action_on_set(G, pts, {y: "pt" for y in pts}, table)
    H, arrow_dict = transformation_groupoid(act)
    assert len(H.arrows) == 9
    assert len(composable_pairs(H)) == len(composable_pairs(pair_groupoid(pts)))
    B = gallery.trivial_line_bundle(H)
    assert envelope_algebra(B).block_summary() == [{"size": 3, "multiplicity": 3}]
    assert quasi_orbits(B) == [[("a0", 0), ("a1", 0), ("a2", 0)]]
    asm = assemble_over_base(act, H, arrow_dict, B)
    rep, summary = trafo_isomorphism_check(asm)
    assert rep.ok
    assert summary["base_blocks"] == [{"size": 3, "multiplicity": 3}]


def test_z4_translation_on_two_orbits():
    # Z/2 acting on 4 points as a double swap: two free orbits, C* = M_2 (+) M_2
    G = cyclic_group(2)
    pts = ["w", "x", "y", "z"]
    table = {("g1", "w"): "x", ("g1", "x"): "w", ("g1", "y"): "z", ("g1", "z"): "y"}
    act = global_action_on_set(G, pts, {p: "pt" for p in pts}, table)
    H, arrow_dict = transformation_groupoid(act)
    B = gallery.trivial_line_bundle(H)
    assert validate_fell_bundle(B).ok
    env = envelope_algebra(B)
    assert sorted((blk["size"], blk["multiplicity"]) for blk in env.block_summary()) \
        == [(2, 2), (2, 2)]
    assert len(quasi_orbits(B)) == 2


def test_m2_twisted_roundtrip_under_random_sections():
    b = gallery.shipped_bundles()["m2-twisted"]
    T = reconstruct_action(b)
    rng = np.random.default_rng(12)
    # the reconstructed action recompiles to the same structure tensors
    from fellbund.actions import compile_to_fell_bundle
    b2 = compile_to_fell_bundle(T)
    for g, h in composable_pairs(b.groupoid):
        assert np.linalg.norm(b.mult[(g, h)] - b2.mult[(g, h)]) < 1e-10
    for g in b.groupoid.arrows:
        assert np.linalg.norm(b.inv[g] - b2.inv[g]) < 1e-10
    f = random_section(b, rng)
    assert abs(cstar_norm(b, f) - cstar_norm(b2, Section(b2, dict(f.entries)))) < 1e-9
