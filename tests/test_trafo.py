import dataclasses

import numpy as np

from fellbund import gallery
from fellbund.bundle import MatrixModelBundle, validate_fell_bundle
from fellbund.envelope import envelope_algebra
from fellbund.groupoid import transformation_groupoid
from fellbund.sections import random_section
from fellbund.trafo import assemble_over_base, trafo_isomorphism_check


def test_free_swap_comparison():
    act = gallery.swap_action_on_two_points()
    H, arrow_dict = transformation_groupoid(act)
    B = gallery.trivial_line_bundle(H)
    asm = assemble_over_base(act, H, arrow_dict, B)
    rep, summary = trafo_isomorphism_check(asm)
    assert rep.ok, rep.summary()
    assert summary["base_blocks"] == [{"size": 2, "multiplicity": 2}]
    assert summary["fiber_blocks"] == [{"size": 2, "multiplicity": 2}]


def test_partial_swap_comparison_matches_compiled_action():
    act = gallery.partial_swap_action()
    H, arrow_dict = transformation_groupoid(act)
    B = gallery.trivial_line_bundle(H)
    asm = assemble_over_base(act, H, arrow_dict, B)
    rep, summary = trafo_isomorphism_check(asm)
    assert rep.ok
    # the assembled bundle agrees with the compiled partial action on C^3
    direct = gallery.a4_over_z2_bundle()
    assert asm.base_bundle.dims == direct.dims
    assert envelope_algebra(asm.base_bundle).block_summary() == \
        envelope_algebra(direct).block_summary()


def test_matrix_fibred_comparison():
    # non-line fibres: M_2 over each unit of the two-point pair groupoid action
    act = gallery.swap_action_on_two_points()
    H, arrow_dict = transformation_groupoid(act)
    units = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
    for k, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        units[k][i, j] = 1.0
    fibers = {t: [m.copy() for m in units] for t in H.arrows}
    B = MatrixModelBundle(H, fibers).to_fell_bundle(name="M2-fibred")
    assert validate_fell_bundle(B).ok
    asm = assemble_over_base(act, H, arrow_dict, B)
    rep, summary = trafo_isomorphism_check(asm)
    assert rep.ok, rep.summary()
    assert summary["base_dim"] == summary["fiber_dim"] == 16


def test_section_transport_is_bijective():
    act = gallery.swap_fix_action()
    H, arrow_dict = transformation_groupoid(act)
    B = gallery.trivial_line_bundle(H)
    asm = assemble_over_base(act, H, arrow_dict, B)
    rng = np.random.default_rng(0)
    f = random_section(B, rng)
    back = asm.to_fibers(asm.to_base(f))
    assert np.linalg.norm((back - f).pack()) < 1e-12


def _ref_to_base(asm, f):
    entries = {}
    for g, parts in asm.components.items():
        v = np.zeros(asm.base_bundle.dims[g], dtype=np.complex128)
        for (t, off, d) in parts:
            v[off:off + d] = f.at(t)
        entries[g] = v
    return entries


def _ref_to_fibers(asm, f):
    return {t: f.at(g)[off:off + d] for g, parts in asm.components.items()
            for (t, off, d) in parts}


def test_section_transport_matches_the_per_component_loops():
    from fellbund.sections import Section
    # with the trafo arrows declared in reverse, a base fibre gathers its
    # components from across the fibre bundle's packed vector
    cases = [(gallery.swap_fix_action(), None, False), (gallery.partial_swap_action(), None, True),
             (gallery.swap_action_on_two_points(), "M2", False),
             (gallery.swap_fix_action(), "M2", True)]
    for act, fibres, reverse in cases:
        H, arrow_dict = transformation_groupoid(act)
        if reverse:
            H = dataclasses.replace(H, arrows=H.arrows[::-1])
        if fibres is None:
            B = gallery.trivial_line_bundle(H)
        else:
            units = [np.eye(2, dtype=complex)[:, [i]] @ np.eye(2, dtype=complex)[[j]]
                     for i in range(2) for j in range(2)]
            B = MatrixModelBundle(H, {t: units for t in H.arrows}).to_fell_bundle()
        asm = assemble_over_base(act, H, arrow_dict, B)
        f = random_section(B, np.random.default_rng(3))
        base = asm.to_base(f)
        want = Section(asm.base_bundle, _ref_to_base(asm, f)).pack()
        assert np.array_equal(base.pack(), want)
        back = Section(B, _ref_to_fibers(asm, base)).pack()
        assert np.array_equal(asm.to_fibers(base).pack(), back)
        assert np.array_equal(back, f.pack())
