import numpy as np

from fellbund import _linalg as la


def test_orth_rows_rank_and_orthonormality():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    v[3] = v[0] + v[1]          # force rank deficiency
    v[4] = 1e-14 * v[2]
    q = la.orth_rows(v)
    assert q.shape[0] == 3
    np.testing.assert_allclose(q.conj() @ q.T, np.eye(3), atol=1e-12)
    for row in v:
        assert la.residual_in_span(q, row) < 1e-10 * max(1, np.linalg.norm(row))


def test_frame_intersection():
    e = np.eye(4, dtype=complex)
    a = la.orth_rows(np.stack([e[0], e[1]]))
    b = la.orth_rows(np.stack([e[1], e[2]]))
    inter = la.frame_intersection(a, b, 4)
    assert inter.shape[0] == 1
    assert la.residual_in_span(inter, e[1]) < 1e-10


def test_frame_intersection_after_rotation():
    rng = np.random.default_rng(1)
    u = la.random_unitary(6, rng)
    a = la.orth_rows((u @ np.eye(6)[:, :3]).T)
    b = la.orth_rows((u @ np.eye(6)[:, 2:5]).T)
    inter = la.frame_intersection(a, b, 6)
    assert inter.shape[0] == 1
    target = u[:, 2]
    assert la.residual_in_span(inter, target) < 1e-9


def test_frame_complement():
    e = np.eye(3, dtype=complex)
    f = la.orth_rows(e[:1])
    c = la.frame_complement(f, 3)
    assert c.shape[0] == 2
    assert abs(c.conj() @ e[0].T).max() < 1e-12


def test_psd_power_quarter_and_pinv():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    s = m @ m.conj().T  # rank 3 PSD
    q = la.psd_power(s, 0.25)
    np.testing.assert_allclose(q @ q @ q @ q, s, atol=1e-9)
    pinv = la.psd_power(s, -1.0)
    proj = s @ pinv
    np.testing.assert_allclose(proj @ s, s, atol=1e-9)


def test_algebra_unit_full_matrix_algebra():
    basis = np.zeros((4, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            basis[2 * i + j, i, j] = 1
    c = la.algebra_unit(basis)
    np.testing.assert_allclose(la.stack_combine(basis, c), np.eye(2), atol=1e-10)


def test_algebra_unit_ideal_block():
    # ideal C(+)0 inside the diagonal algebra of M_2
    basis = np.zeros((1, 2, 2), dtype=complex)
    basis[0, 0, 0] = 1
    c = la.algebra_unit(basis)
    np.testing.assert_allclose(la.stack_combine(basis, c), np.diag([1.0, 0.0]), atol=1e-10)


def test_algebra_unit_absent():
    # span of a nilpotent matrix has no unit
    basis = np.zeros((1, 2, 2), dtype=complex)
    basis[0, 0, 1] = 1
    assert la.algebra_unit(basis) is None


def test_cluster_eigenvalues():
    vals = np.array([0.0, 1e-9, 1.0, 1.0 + 1e-9, 2.5])
    clusters = la.cluster_eigenvalues(vals, 1e-7)
    assert [sorted(c.tolist()) for c in clusters] == [[0, 1], [2, 3], [4]]


def test_random_unitary_is_unitary():
    u = la.random_unitary(5, np.random.default_rng(3))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-12)


def test_stack_expand_roundtrip():
    rng = np.random.default_rng(4)
    stack = la.stack_orth([rng.standard_normal((3, 3)) for _ in range(4)], 3, 3)
    coeff = rng.standard_normal(stack.shape[0])
    mat = la.stack_combine(stack, coeff)
    back, res = la.stack_expand(stack, mat)
    assert res < 1e-12
    np.testing.assert_allclose(back, coeff, atol=1e-12)


def test_stacked_frame_eq_matches_frame_eq_item_by_item():
    rng = np.random.default_rng(2)
    u = la.random_unitary(5, rng)
    a = la.orth_rows(u[:2])
    same = la.orth_rows(np.stack([a[0] + a[1], a[0] - 2j * a[1]]))
    other = la.orth_rows(u[1:3])
    # (x, y, x spans y, x lies in y)
    cases = [(a, same, True, True), (a, other, False, False), (a, u[:3], False, True),
             (np.zeros((0, 5), complex), np.zeros((0, 5), complex), True, True)]
    for x, y, eq, leq in cases:
        assert la.frame_eq(x, y, 1e-9) is eq
        assert la.frame_leq(x, y, 1e-9) is leq
    # the same pairs as one stack, padded to three rows with their ranks
    def pad(f):
        return np.vstack([f, np.zeros((3 - f.shape[0], 5))])
    got = la.stacked_frame_eq(np.stack([pad(c[0]) for c in cases]),
                              np.array([c[0].shape[0] for c in cases]),
                              np.stack([pad(c[1]) for c in cases]),
                              np.array([c[1].shape[0] for c in cases]), 1e-9)
    assert got.tolist() == [c[2] for c in cases]


def random_frame_pairs(seed, count=200):
    """Pairs of frames in C^d (d < 8) sharing a random common subspace; many
    pairs share their shapes, so the batched paths take stacks."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        d = int(rng.integers(1, 8))
        common = rng.standard_normal((int(rng.integers(0, d + 1)), d)) + 0j
        frames = []
        for _ in range(2):
            extra = rng.standard_normal((int(rng.integers(0, d - common.shape[0] + 1)), d))
            rows = np.vstack([common, extra + 1j * rng.standard_normal(extra.shape)])
            frames.append(la.orth_rows(rows) if rows.shape[0] else np.zeros((0, d), complex))
        pairs.append(tuple(frames))
    return pairs


def test_frame_intersections_equal_one_pair_at_a_time_bit_for_bit():
    pairs = random_frame_pairs(3)
    together = la.frame_intersections(pairs)
    for (a, b), got in zip(pairs, together):
        want = la.frame_intersections([(a, b)])[0]
        assert got.shape == want.shape and np.array_equal(got, want)
        assert la.frame_contains(a, got, 1e-9) and la.frame_contains(b, got, 1e-9)
        # dim(A ∩ B) = dim A + dim B - dim(A + B)
        span = la.orth_rows(np.vstack([a, b])) if a.shape[0] + b.shape[0] else a
        assert got.shape[0] == a.shape[0] + b.shape[0] - span.shape[0]


def test_algebra_units_equal_one_stack_at_a_time():
    rng = np.random.default_rng(4)
    stacks = []
    for _ in range(30):
        n = int(rng.integers(1, 4))
        u = la.random_unitary(n, rng)
        keep = rng.random(n) < 0.7
        # a diagonal ideal, rotated; or a nilpotent span without a unit
        mats = [u @ np.diag(np.eye(n)[i]) @ u.conj().T for i in range(n) if keep[i]]
        if rng.random() < 0.2:
            mats = [np.eye(n, k=1)] if n > 1 else []
        stacks.append(la.stack_orth(mats, n, n))
    together = la.algebra_units(stacks)
    for stack, got in zip(stacks, together):
        want = la.algebra_unit(stack)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)
            proj = la.stack_combine(stack, got)
            for m in stack:
                assert np.linalg.norm(proj @ m - m) < 1e-9
