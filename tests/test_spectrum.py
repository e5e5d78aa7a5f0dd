import numpy as np

import fellbund._linalg as la
from fellbund import gallery
from fellbund.actions import TwistedPartialAction, compile_to_fell_bundle
from fellbund.bundle import UnitFiberAlgebra
from fellbund.groupoid import cyclic_group, validate_groupoid
from fellbund.ideals import enumerate_fell_ideals
from fellbund.spectrum import (dual_arrow_action, dual_groupoid, fiber_spectrum,
                               galois_check, galois_data, ideal_bijection_check,
                               induce_ideal, invariant_subsets, quasi_orbits,
                               restrict_ideal)


def units_only_bundle():
    G = cyclic_group(2)
    e11 = np.diag([1.0, 0.0]).astype(complex)
    e22 = np.diag([0.0, 1.0]).astype(complex)
    fibers = {"pt": UnitFiberAlgebra.from_matrices(2, [e11, e22])}
    T = TwistedPartialAction.build(G, fibers, {"g1": []}, {"g1": np.zeros((0, 0))})
    return compile_to_fell_bundle(T)


def test_fiber_spectrum_m2():
    spec = fiber_spectrum(gallery.matrix_bundle_over_point(2))
    blocks = spec.blocks()
    assert [(b.obj, b.dim) for b in blocks] == [("pt", 2)]
    # the irrep frame compresses faithfully and multiplicatively
    b = gallery.matrix_bundle_over_point(2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    blk = blocks[0]
    np.testing.assert_allclose(blk.irrep(x) @ blk.irrep(y), blk.irrep(x @ y), atol=1e-9)


def test_fiber_spectrum_diagonal():
    spec = fiber_spectrum(gallery.shipped_bundles()["z2-swap-compiled"])
    assert sorted(b.dim for b in spec.blocks()) == [1, 1]


def test_fiber_spectrum_mixed_c_plus_m2():
    # C (+) M_2 inside Mat(3)
    from fellbund.bundle import MatrixModelBundle
    from fellbund.groupoid import trivial_group
    mats = [np.zeros((3, 3), dtype=complex) for _ in range(5)]
    mats[0][0, 0] = 1
    for k, (i, j) in enumerate([(1, 1), (1, 2), (2, 1), (2, 2)], start=1):
        mats[k][i, j] = 1
    b = MatrixModelBundle(trivial_group(), {"e": mats}).to_fell_bundle()
    spec = fiber_spectrum(b)
    assert sorted(bl.dim for bl in spec.blocks()) == [1, 2]


def test_dual_action_of_unit_is_identity():
    b = gallery.shipped_bundles()["z2-swap-compiled"]
    spec = fiber_spectrum(b)
    for blk in spec.blocks():
        out = dual_arrow_action(b, spec, "e", blk)
        assert out is not None and out.key == blk.key


def test_dual_action_swap_exchanges_blocks():
    b = gallery.shipped_bundles()["z2-swap-compiled"]
    spec = fiber_spectrum(b)
    blocks = spec.blocks()
    images = [dual_arrow_action(b, spec, "g1", blk) for blk in blocks]
    assert {img.key for img in images} == {blk.key for blk in blocks}
    assert all(img.key != blk.key for img, blk in zip(images, blocks))
    # inverse property: dual(g^-1) of the image returns the original block
    for blk, img in zip(blocks, images):
        back = dual_arrow_action(b, spec, "g1", img)
        assert back.key == blk.key


def test_dual_action_undefined_outside_domain():
    b = gallery.a4_over_z2_bundle()
    spec = fiber_spectrum(b)
    undefined = [blk.key for blk in spec.blocks()
                 if dual_arrow_action(b, spec, "g1", blk) is None]
    assert len(undefined) == 1  # exactly the r-coordinate block


def test_dual_groupoid_satisfies_axioms():
    for name in ("a4", "a4-over-z2", "z2-swap-compiled", "klein-twisted",
                 "trivial-M2"):
        dual = dual_groupoid(gallery.shipped_bundles()[name])
        assert validate_groupoid(dual.groupoid).ok, name


def test_dual_functoriality_on_common_blocks():
    # dual(gh) extends dual(g) dual(h)
    for name in ("a4-over-z2", "z2-swap-compiled", "a4"):
        b = gallery.shipped_bundles()[name]
        spec = fiber_spectrum(b)
        G = b.groupoid
        for g in G.arrows:
            for h in G.arrows:
                if G.src[g] != G.rng[h]:
                    continue
                gh = G.comp[(g, h)]
                for blk in spec.by_object[G.src[h]]:
                    step1 = dual_arrow_action(b, spec, h, blk)
                    if step1 is None:
                        continue
                    step2 = dual_arrow_action(b, spec, g, step1)
                    if step2 is None:
                        continue
                    direct = dual_arrow_action(b, spec, gh, blk)
                    assert direct is not None and direct.key == step2.key


def test_quasi_orbits_examples():
    assert quasi_orbits(gallery.z2_line_bundle()) == [[("pt", 0)]]
    assert quasi_orbits(gallery.a4_bundle()) == [[("p", 0), ("q", 0)], [("r", 0)]]
    assert quasi_orbits(units_only_bundle()) == [[("pt", 0)], [("pt", 1)]]


def test_invariant_subsets_and_ideal_counts():
    b = gallery.a4_bundle()
    assert len(invariant_subsets(b)) == 4
    assert len(enumerate_fell_ideals(b)) == 4
    assert len(quasi_orbits(b)) == 2
    assert ideal_bijection_check(b).ok
    # simple bundle: only 0 and the whole algebra
    m2 = gallery.matrix_bundle_over_point(2)
    assert len(invariant_subsets(m2)) == 2
    # units-only: the full power set of blocks
    assert len(invariant_subsets(units_only_bundle())) == 4


def test_bijection_check_across_gallery():
    for name in ("z2-line", "klein-twisted", "a4-over-z2", "pair2-line",
                 "z2-antidiagonal", "z3-phase"):
        assert ideal_bijection_check(gallery.shipped_bundles()[name]).ok, name


def test_restrict_induce_extremes():
    b = gallery.a4_bundle()
    data = galois_data(b)
    zero = np.zeros((0, data.env_dim_side ** 2), dtype=complex)
    r0 = restrict_ideal(data, zero)
    assert r0.shape[0] == 0
    full_env = la.orth_rows(np.stack([m.reshape(-1) for m in data.env_mats]))
    # the ideal generated by the full envelope is the envelope itself
    rfull = restrict_ideal(data, induce_ideal(data, restrict_ideal(data, full_env)))
    assert rfull.shape[0] == data.coeff_total


def test_galois_on_a4_and_compiled():
    assert galois_check(gallery.a4_bundle()).ok
    assert galois_check(gallery.shipped_bundles()["z2-swap-compiled"]).ok


def test_restricted_of_induced_recovers_invariant_ideal():
    b = gallery.a4_bundle()
    data = galois_data(b)
    # the invariant family supported on {p,q}: coefficient coordinates 0 and 1
    frame = la.orth_rows(np.eye(3, dtype=complex)[:2])
    back = restrict_ideal(data, induce_ideal(data, frame))
    assert la.frame_eq(back, frame, 1e-8)


def test_spectrum_and_ideals_commands_decompose_each_unit_fibre_once(
        demo_workspace_path, monkeypatch, capsys):
    import fellbund.envelope as envelope
    import fellbund.ideals as ideals
    import fellbund.spectrum as spectrum
    from fellbund.cli import main
    decomposed, duals = [], []
    real_bd, real_dual = envelope.block_decomposition, spectrum._dual_groupoid

    def counting_bd(basis, *args, **kwargs):
        decomposed.append(basis.shape)
        return real_bd(basis, *args, **kwargs)

    for module in (envelope, ideals, spectrum):
        monkeypatch.setattr(module, "block_decomposition", counting_bd)
    monkeypatch.setattr(spectrum, "_dual_groupoid",
                        lambda b, tols: duals.append(b) or real_dual(b, tols))
    a4 = gallery.a4_bundle()
    unit_stacks = [a4.unit_rep[x].shape for x in a4.groupoid.objects]
    for command in ("spectrum", "ideals"):
        decomposed.clear()
        duals.clear()
        assert main([command, demo_workspace_path, "a4"]) == 0
        capsys.readouterr()
        assert decomposed == unit_stacks, command   # one per object, none of them zero
        assert len(duals) == 1, command


def test_spectrum_and_dual_are_memoised_and_skip_zero_unit_fibres():
    from fellbund.bundle import subbundle_from_frames
    from fellbund.ideals import enumerate_fell_ideals
    b = gallery.a4_bundle()
    assert fiber_spectrum(b) is fiber_spectrum(b)
    assert dual_groupoid(b) is dual_groupoid(b)
    # the ideal over {p, q} as a bundle of its own: its unit fibre at r is zero
    pq = next(I for I in enumerate_fell_ideals(b)
              if I.dim(b.groupoid.unit["r"]) == 0 and I.total_dim() > 0)
    sub, _ = subbundle_from_frames(b, dict(pq.frames))
    assert [len(fiber_spectrum(sub).by_object[x]) for x in ("p", "q", "r")] == [1, 1, 0]
    assert quasi_orbits(sub) == [[("p", 0), ("q", 0)]]


def test_block_supports_match_elementwise_reference():
    # independent oracle: solve p . e_i in the unit representation one basis
    # vector at a time
    for name, b in gallery.shipped_bundles().items():
        for blk in fiber_spectrum(b).blocks():
            x = blk.obj
            d = b.dims[b.groupoid.unit[x]]
            flat = la.flatten_stack(b.unit_rep[x]).T
            rows = []
            for i in range(d):
                e = np.zeros(d, dtype=complex)
                e[i] = 1.0
                coeff, res = la.solve_lstsq(flat, (blk.projection @ b.unit_matrix(x, e)).reshape(-1))
                assert res < 1e-8, name
                rows.append(coeff)
            ref = la.orth_rows(np.array(rows))
            assert la.frame_eq(blk.support, ref, 1e-8), (name, blk.key)
            np.testing.assert_allclose(blk.support @ blk.support.conj().T,
                                       np.eye(blk.support.shape[0]), atol=1e-10)
            np.testing.assert_allclose(b.unit_matrix(x, blk.coords), blk.projection,
                                       atol=1e-9)
