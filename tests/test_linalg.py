import json
import os

import numpy as np
import pytest

from fellbund import _linalg as la
from fellbund import gallery
from fellbund.actions import compile_to_fell_bundle, reconstruct_action, validate_action
from fellbund.bundle import validate_fell_bundle
from fellbund.config import DEFAULT
from fellbund.ideals import validate_invariant_family
from fellbund.spectrum import fiber_spectrum
from fellbund.workspace import Workspace
from test_stacked_oracles import candidate_families
from test_witnesses import perturbed

DEMO = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "examples_ws", "demo.json")


def direct_null_space_rows(m, rtol=1e-10):
    """``null_space_rows`` of a tall matrix through the thin SVD of m itself,
    the route it took before the R factor."""
    _, s, vh = np.linalg.svd(la.as_complex(m), full_matrices=False)
    rows = [np.conj(vh[k]) for k in range(len(s)) if s[k] <= rtol * max(float(s[0]), 1.0)]
    return la.orth_rows(np.array(rows), rtol) if rows else np.zeros((0, m.shape[1]), complex)


def tall_matrices(seed):
    """A seeded sweep of complex matrices with at least twice as many rows
    as columns: full rank, rank-deficient, and with a zero column."""
    rng = np.random.default_rng(seed)
    for cols in (1, 2, 3, 5, 9, 16, 27):
        for ratio in (2, 3, 7, 20):
            rows = cols * ratio

            def draw(*shape):
                return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            yield f"{rows}x{cols}", draw(rows, cols)
            if cols > 1:
                rank = max(1, cols // 2)
                yield f"{rows}x{cols} rank {rank}", draw(rows, rank) @ draw(rank, cols)
            m = draw(rows, cols)
            m[:, rng.integers(cols)] = 0
            yield f"{rows}x{cols} zero column", m


def test_null_space_rows_from_the_r_factor_equal_the_full_svd():
    """For rows >= 2 cols, LAPACK's gesdd takes a QR first and the SVD of R,
    so s and vh from the SVD of ``np.linalg.qr(m, mode="r")`` equal its own
    bit for bit, and so do the null rows built from them."""
    for label, m in tall_matrices(7):
        _, s, vh = np.linalg.svd(m, full_matrices=False)
        s_r, vh_r = np.linalg.svd(np.linalg.qr(m, mode="r"))[1:]
        assert np.array_equal(s, s_r) and np.array_equal(vh, vh_r), (
            f"{label}: this LAPACK's SVD of a tall matrix no longer equals the SVD "
            "of its R factor bit for bit, so null_space_rows (and every block "
            "decomposition's centre) changes in the last bits")
        assert np.array_equal(la.null_space_rows(m), direct_null_space_rows(m)), label


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


def stores(items):
    """The items' operands as one store per position, each item read by its index."""
    index = np.arange(len(items))
    return [(la.Stacks([item[k] for item in items]), index) for k in range(len(items[0]))]


def test_frame_intersections_equal_one_pair_at_a_time_bit_for_bit():
    pairs = random_frame_pairs(3)
    together = la.frame_intersections(*stores(pairs))
    assert len(together.group) == len(pairs)
    for (a, b), got in zip(pairs, together):
        want = next(iter(la.frame_intersections(*stores([(a, b)]))))
        assert got.shape == want.shape and np.array_equal(got, want)
        assert la.frame_contains(a, got, 1e-9) and la.frame_contains(b, got, 1e-9)
        # dim(A ∩ B) = dim A + dim B - dim(A + B)
        span = la.orth_rows(np.vstack([a, b])) if a.shape[0] + b.shape[0] else a
        assert got.shape[0] == a.shape[0] + b.shape[0] - span.shape[0]


def intersection_one_pair(a, b, rtol=1e-10):
    """span(a) ∩ span(b) as the complement pass forms it for one pair: the
    complements I - F^T conj(F) stacked (2d, d), one SVD, and the right
    singular vectors at or below the cut orthonormalised once more."""
    d = a.shape[1]
    if not (a.shape[0] and b.shape[0]):
        return np.zeros((0, d), dtype=complex)
    eye = np.eye(d, dtype=complex)
    m = np.concatenate([eye - np.swapaxes(f, 1, 2) @ f.conj() for f in (a[None], b[None])], axis=1)
    if not m.any():
        return eye
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    cut = s[0] <= rtol * max(s[0, 0], 1.0)
    if not cut.any():
        return np.zeros((0, d), dtype=complex)
    vh, rank = la.stacked_orth_rows(np.conj(vh[0][cut])[None], rtol)
    return vh[0, :rank[0]]


def pass_one_svds(monkeypatch):
    """Count the SVDs of stacked complements (t, 2d, d) from here on."""
    svd, calls = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        if a.shape[-2] == 2 * a.shape[-1]:
            calls.append(a.shape)
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_a4_pair_intersections_take_one_svd_per_width(monkeypatch):
    T = gallery.a4_action()
    G, I = T.groupoid, T.groupoid.tables
    frames = la.Stacks([la.flatten_stack(T.ideal_basis[g]) for g in G.arrows])
    g, h = I.pairs.T
    ranks = {(frames.sizes()[a], frames.sizes()[b]) for a, b in zip(I.inv[g], h)}
    assert len(ranks) == 4 and len(set(frames.sizes(1).tolist())) == 1
    calls = pass_one_svds(monkeypatch)
    inter = la.frame_intersections((frames, I.inv[g]), (frames, h), DEFAULT.rank_threshold)
    assert len(calls) == 1 and calls[0][0] == len(g)
    for got, a, b in zip(inter, I.inv[g], h):
        want = intersection_one_pair(list(frames)[a], list(frames)[b], DEFAULT.rank_threshold)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("chunk", [None, 300])
def test_one_store_on_both_sides_equals_one_pair_at_a_time(monkeypatch, chunk):
    """Repeated and reordered indices into one store (its complements formed
    once for both sides), and a budget that splits each width into chunks:
    bit for bit the pass of one pair at a time, one pass-1 SVD per chunk."""
    frames = [f for pair in random_frame_pairs(5, 60) for f in pair]
    store = la.Stacks(frames)
    rng = np.random.default_rng(11)
    ia = np.concatenate([np.arange(len(frames)), rng.integers(0, len(frames), 80)])
    widths = store.sizes(1)
    ib = np.array([rng.choice(np.flatnonzero(widths == widths[a])) for a in ia])
    if chunk:
        monkeypatch.setattr(la, "_STACK_CHUNK", chunk)
    calls = pass_one_svds(monkeypatch)
    together = la.frame_intersections((store, ia), (store, ib))
    assert len(together.group) == len(ia)
    live = store.sizes()[ia] * store.sizes()[ib] > 0
    step = {d: max(1, la._STACK_CHUNK // (2 * d * d)) for d in set(widths.tolist())}
    per_width = {d: np.sum(live & (widths[ia] == d)) for d in step}
    assert len(calls) <= sum(-(-n // step[d]) for d, n in per_width.items())
    if chunk:
        assert len(calls) > len([d for d, n in per_width.items() if n])
    else:
        assert len(calls) <= len(per_width)
    nonempty = 0
    for got, a, b in zip(together, ia, ib):
        want = intersection_one_pair(frames[a], frames[b])
        assert got.shape == want.shape and np.array_equal(got, want)
        nonempty += len(got) > 0
    assert nonempty > len(ia) // 2


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
    together = la.algebra_units(la.Stacks(stacks))
    for stack, got in zip(stacks, together):
        want = la.algebra_unit(stack)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)
            proj = la.stack_combine(stack, got)
            for m in stack:
                assert np.linalg.norm(proj @ m - m) < 1e-9


# -- shape-grouped stacks --------------------------------------------------------

def mixed_items():
    """Items of three shape groups, interleaved, with zero-size operands."""
    rng = np.random.default_rng(6)
    shapes = [((2, 3), (3,)), ((0, 3), (3,)), ((2, 3), (3,)), ((1, 0), (0,)), ((0, 3), (3,)),
              ((2, 3), (3,)), ((1, 0), (0,))]
    return [tuple(rng.standard_normal(s) for s in pair) for pair in shapes]


def test_stacks_group_by_shapes_and_stacked_keeps_item_order():
    items = mixed_items()
    operands = stores(items)
    assert [len(st.arrays) for st, _ in operands] == [3, 2]
    for k, (st, _) in enumerate(operands):
        assert all(np.array_equal(a, item[k]) for a, item in zip(st, items))
    chunks = list(la.gathered(operands))
    assert [pos.tolist() for pos, _ in chunks] == [[0, 2, 5], [1, 4], [3, 6]]
    for pos, arrays in chunks:
        for k, array in enumerate(arrays):
            assert np.array_equal(array, np.stack([items[p][k] for p in pos]))
    rows = la.stacked(operands, lambda a, v: (a @ v[:, :, None], a.shape[1] + np.zeros(len(a))))
    for (a, v), (prod, height) in zip(items, rows):
        assert np.array_equal(prod, a @ v[:, None])
        assert height == a.shape[0]
    # an index may repeat and reorder the store's items; positions are the
    # index's, and the groups come in order of first appearance
    (st, _), (sv, _) = operands
    pick = np.array([5, 0, 3, 0, 1])
    chunks = list(la.gathered([(st, pick), (sv, pick)]))
    assert [pos.tolist() for pos, _ in chunks] == [[0, 1, 3], [2], [4]]
    for pos, arrays in chunks:
        for k, array in enumerate(arrays):
            assert np.array_equal(array, np.stack([items[p][k] for p in pick[pos]]))
    empty = la.Stacks([])
    assert list(la.gathered([(empty, [])])) == [] and la.stacked([(empty, [])], lambda: ()) == []


def test_stacks_cap_each_chunk_at_the_element_budget(monkeypatch):
    items = [(np.zeros((2, 3)),) for _ in range(7)]

    def chunks(items, size=None):
        return [pos.tolist() for pos, _ in la.gathered(stores(items), size)]
    assert chunks(items) == [list(range(7))]
    monkeypatch.setattr(la, "_STACK_CHUNK", 13)
    # default size: 6 elements per item, so 2 items per chunk
    assert chunks(items) == [[0, 1], [2, 3], [4, 5], [6]]
    # a size larger than the budget still stacks one item at a time
    assert chunks(items, lambda s: 100) == [[p] for p in range(7)]
    assert chunks(items, lambda s: 4) == [[0, 1, 2], [3, 4, 5], [6]]
    # zero-size items count as one element
    empty = [(np.zeros((0, 3)),) for _ in range(20)]
    assert [len(pos) for pos in chunks(empty)] == [13, 7]
    rows = la.stacked(stores(items + empty), lambda a: (a.shape[1] + np.zeros(len(a)),))
    assert [r for (r,) in rows] == [2] * 7 + [0] * 20


def test_stacked_lstsq_agrees_with_lstsq_item_by_item():
    rng = np.random.default_rng(7)
    for m, n, rank in ((6, 3, 3), (6, 3, 2), (3, 5, 3), (4, 4, 1), (5, 2, 0), (0, 3, 0)):
        t = 5
        left = rng.standard_normal((t, m, rank)) + 1j * rng.standard_normal((t, m, rank))
        right = rng.standard_normal((t, rank, n)) + 1j * rng.standard_normal((t, rank, n))
        a = left @ right
        b = rng.standard_normal((t, m)) + 1j * rng.standard_normal((t, m))
        x, res, s = la.stacked_lstsq(a, b)
        assert x.shape == (t, n) and res.shape == (t,) and s.shape == (t, min(m, n))
        for i in range(t):
            want, *_ = np.linalg.lstsq(a[i], b[i], rcond=None)
            assert np.abs(x[i] - want).max(initial=0.0) <= 1e-12
            assert abs(res[i] - np.linalg.norm(a[i] @ want - b[i])) <= 1e-12
            assert np.sum(s[i] > 1e-10 * s[i, :1]) == la.matrix_rank(a[i])


def chunked_subjects(certify_bundles):
    shipped = gallery.shipped_bundles()
    bundles = dict(shipped)
    bundles.update({f"certify {k}": b for k, b in certify_bundles.items()})
    bundles.update({f"perturbed {k}": perturbed(b, seed=len(k)) for k, b in shipped.items()})
    ws = Workspace.load(DEMO)
    actions = {name: ws.action(name) for name in ws.names("actions")}
    actions.update({name: getattr(gallery, name)() for name in (
        "z2_swap_action_on_c2", "restricted_swap_action", "a4_action",
        "matrix_twisted_action", "klein_twisted_action")})
    return bundles, actions


def every_report(bundles, actions):
    """The stacked validators' reports on every subject, every candidate
    family of the unperturbed bundles, and the compiled and reconstructed
    actions' arrays, as JSON strings by subject."""
    def arrays(table):
        return {str(k): v.tobytes().hex() for k, v in table.items()}
    out = {}
    for name, b in bundles.items():
        out[f"bundle {name}"] = validate_fell_bundle(b).to_json()
        if not name.startswith("perturbed"):
            out[f"families {name}"] = [
                validate_invariant_family(F).to_json()
                for F in candidate_families(b, fiber_spectrum(b, DEFAULT))]
    for name, T in actions.items():
        out[f"action {name}"] = validate_action(T).to_json()
        b = compile_to_fell_bundle(T)
        out[f"compiled {name}"] = [arrays(b.mult), arrays(b.inv)]
        R = reconstruct_action(b)
        out[f"reconstructed {name}"] = [arrays(R.alpha), arrays(R.w),
                                        validate_action(R).to_json()]
    return {key: json.dumps(value) for key, value in out.items()}


def test_one_item_chunks_give_the_same_reports(monkeypatch, certify_bundles):
    bundles, actions = chunked_subjects(certify_bundles)
    default = every_report(bundles, actions)
    assert any('"ok": false' in text for text in default.values())  # residuals reported
    monkeypatch.setattr(la, "_STACK_CHUNK", 1)
    chunked = every_report(bundles, actions)
    assert chunked.keys() == default.keys()
    for key, text in default.items():
        assert chunked[key] == text, key
