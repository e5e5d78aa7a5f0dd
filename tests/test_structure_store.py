"""The per-bundle structure store and the groupoid's integer tables.

``validate_fell_bundle`` and ``validate_invariant_family`` gather their
operands by index from ``FellBundle.structure()`` and ``FiniteGroupoid.tables``
instead of listing tuples and restacking.  These tests pin the index tables
to the reference enumerations, the one-draw elements to the per-pair draw
loop they replaced (bit for bit, generator state included), and the store's
life: built once per bundle, read-only, and no tuple list or ``la.stacked``
scatter in either validator, which read the stores through ``la.gathered``
alone.  (``la.Stacks`` is the one place that stacks arrays by shape; the
action layer reads its per-call stores through ``la.gathered`` too.)  The
bundle owns the one copy of its ``mult`` and ``inv`` tensors: the dicts,
the convolution plan, the involution and the delta table of the
representation checks all read views into it.
"""

import tracemalloc

import numpy as np
import pytest

import fellbund._linalg as la
from fellbund import bundle as bundle_module
from fellbund.actions import compile_to_fell_bundle, reconstruct_action
from fellbund import gallery, groupoid as groupoid_module
from fellbund.bundle import (_arrow_elements, _pair_elements, subbundle_from_frames,
                             validate_fell_bundle)
from fellbund.config import DEFAULT
from fellbund.groupoid import (composable_pairs, composable_triples, cyclic_group,
                               pair_groupoid)
from fellbund.ideals import (InvariantFamily, enumerate_fell_ideals,
                             validate_invariant_family)
from fellbund.reps import _delta_table
from fellbund.sections import _involution_groups, convolve, involute, random_section
from fellbund.workspace import Workspace
from test_groupoid import broken_table_groupoid


def groupoid_cases(certify_raw):
    ws = Workspace.from_dict(certify_raw)
    cases = {name: b.groupoid for name, b in gallery.shipped_bundles().items()}
    cases.update({f"certify {name}": ws.groupoid(name) for name in ws.names("groupoids")})
    cases.update({"pair9": pair_groupoid([f"x{i}" for i in range(9)]), "z24": cyclic_group(24),
                  "broken-table": broken_table_groupoid()})
    return cases


def test_index_tables_equal_reference_enumerations(certify_raw):
    cases = groupoid_cases(certify_raw)
    assert len(cases) == 12 + 6 + 3  # m3-pair3 shares the groupoid of line-pair3
    for name, G in cases.items():
        T, arrows = G.tables, G.arrows
        assert [(arrows[g], arrows[h]) for g, h in T.pairs] == composable_pairs(G), name
        assert [tuple(arrows[i] for i in t) for t in T.triples()] == composable_triples(G), name
        for p, (g, h) in enumerate(T.pairs):
            assert T.pair[g, h] == p
        assert (T.pair >= 0).sum() == len(T.pairs)
        # comp holds the entries on composable pairs only; -1 elsewhere
        want = {(G.arrow_index[g], G.arrow_index[h]): G.arrow_index[k]
                for (g, h), k in G.comp.items() if G.src[g] == G.rng[h]}
        assert {(g, h): int(T.comp[g, h]) for g, h in zip(*np.nonzero(T.comp >= 0))} == want, name
        assert [arrows[i] for i in T.inv] == [G.inv[g] for g in arrows]
        assert [arrows[i] for i in T.unit] == [G.unit[x] for x in G.objects]
        assert [G.objects[x] for x in T.src] == [G.src[g] for g in arrows]
        assert [G.objects[x] for x in T.rng] == [G.rng[g] for g in arrows]


def loop_elements(dims, pairs, seed, samples):
    """The draws as the validator made them one at a time: one
    standard_normal call per arrow, then one per composable pair with both
    fibres nonzero, each cut into the basis and random elements."""
    rng = np.random.default_rng(seed)

    def elements(d, z):
        blocks = z.shape[0]
        v = z[:, :, 0] + 1j * z[:, :, 1]
        n = la.row_norms(v.reshape(blocks * samples, d)).reshape(blocks, samples)
        rows = np.empty((blocks, d + samples, d), dtype=np.complex128)
        rows[:, :d] = np.eye(d)
        rows[:, d:] = v / np.where(n > 0, n, 1.0)[:, :, None]
        keep = np.ones((blocks, d + samples), dtype=bool)
        keep[:, d:] = n > 0
        return rows, keep

    per_arrow = [elements(d, rng.standard_normal((1, samples, 2, d))) for d in dims]
    per_pair = []
    for g, h in pairs:
        d, e = dims[g], dims[h]
        head = d * samples * 2 * e
        z = rng.standard_normal(head + samples * (2 * d + samples * 2 * e))
        tail = z[head:].reshape(samples, -1)
        rows_g, keep_g = elements(d, tail[:, :2 * d].reshape(1, samples, 2, d))
        rows_h, keep_h = elements(e, np.concatenate([
            z[:head].reshape(d, samples, 2, e), tail[:, 2 * d:].reshape(samples, samples, 2, e)]))
        keep_h &= keep_g[0][:, None]
        per_pair.append((rows_g[0], keep_g[0], rows_h, keep_h))
    return per_arrow, per_pair, rng


def element_cases(certify_bundles):
    cases = dict(gallery.shipped_bundles(), **certify_bundles)
    # the a4 ideal over {p, q} as a bundle: zero-dimensional fibres elsewhere
    a4 = gallery.a4_bundle()
    ideal = max(enumerate_fell_ideals(a4), key=lambda I: 0 < I.total_dim() < a4.total_dim)
    cases["a4 ideal"], _ = subbundle_from_frames(a4, ideal.frames)
    assert 0 in cases["a4 ideal"].dims.values()
    return cases


@pytest.mark.parametrize("samples", [4, 1])
def test_one_draw_elements_equal_the_per_pair_draw_loop(certify_bundles, samples):
    for name, b in element_cases(certify_bundles).items():
        S, T = b.structure(), b.groupoid.tables
        live = np.flatnonzero((S.dims[T.pairs[:, 0]] > 0) & (S.dims[T.pairs[:, 1]] > 0))
        per_arrow, per_pair, want_rng = loop_elements(
            S.dims.tolist(), T.pairs[live].tolist(), 7, samples)
        rng = np.random.default_rng(7)
        E, keeps = _arrow_elements(S.dims, rng, samples)
        for e, keep, (rows, want_keep) in zip(E, keeps, per_arrow):
            assert e.tobytes() == rows[want_keep].tobytes(), name
            assert keep.tolist() == want_keep[0].tolist(), name
        seen = []
        for at, rows_g, keep_g, rows_h, keep_h in _pair_elements(S, live, rng, samples):
            for q, ra, ka, rb, kb in zip(at, rows_g, keep_g, rows_h, keep_h):
                want = per_pair[q]
                assert ra.tobytes() == want[0].tobytes() and rb.tobytes() == want[2].tobytes(), name
                assert ka.tolist() == want[1].tolist() and kb.tolist() == want[3].tolist(), name
                seen.append(q)
        assert sorted(seen) == list(range(len(live))), name
        assert rng.bit_generator.state == want_rng.bit_generator.state, name


def test_one_line_z24_validation_stays_under_4_mb(certify_raw):
    # the tuple list of the 13,824 associativity triples took 4.4 MB; the
    # peak is now set by the one norm-core call of the pair phase
    validate_fell_bundle(Workspace.from_dict(certify_raw).bundle("line-z24"))
    b = Workspace.from_dict(certify_raw).bundle("line-z24")
    tracemalloc.start()
    try:
        assert validate_fell_bundle(b).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.0e6, peak


def test_store_is_built_once_per_bundle_and_read_only(monkeypatch, certify_bundles):
    b = certify_bundles["line-pair3"]
    built = []
    real = bundle_module.Structure.of
    monkeypatch.setattr(bundle_module.Structure, "of",
                        staticmethod(lambda bundle: built.append(bundle) or real(bundle)))
    S = b.structure()
    assert validate_fell_bundle(b).ok
    F = InvariantFamily(b, {x: np.eye(1, dtype=complex) for x in b.groupoid.objects})
    assert validate_invariant_family(F).ok
    assert b.structure() is S and built == [b]
    T = b.groupoid.tables
    assert S.tables is T and b.groupoid.tables is T
    arrays = [S.dims, S.family, T.src, T.rng, T.inv, T.unit, T.comp, T.pairs, T.pair]
    for st in (S.mult, S.inv):
        arrays += [st.group, st.row, *st.arrays]
    for a in arrays:
        with pytest.raises(ValueError):
            a.flat[0] = a.flat[0]
    # the store holds every tensor at its pair's or arrow's place
    for p, (g, h) in enumerate(T.pairs):
        key = (b.groupoid.arrows[g], b.groupoid.arrows[h])
        assert (S.mult.arrays[S.mult.group[p]][S.mult.row[p]] == b.mult[key]).all()
    for i, g in enumerate(b.groupoid.arrows):
        assert (S.inv.arrays[S.inv.group[i]][S.inv.row[i]] == b.inv[g]).all()


def test_validators_list_no_tuples_and_restack_nothing(monkeypatch, certify_bundles):
    def forbidden(*args, **kwargs):
        raise AssertionError("called")
    bundles = [certify_bundles["line-z8"], gallery.a4_over_z2_bundle()]
    for b in bundles:
        # the units of the unit fibres are solved once per bundle (bundle.memo),
        # by la.algebra_units; that cache is not a per-call restack
        for x in b.groupoid.objects:
            b.unit_algebra_unit(x)
    for module, name in ((la, "stacked"), (groupoid_module, "composable_triples"),
                         (bundle_module, "composable_pairs")):
        monkeypatch.setattr(module, name, forbidden)
    for b in bundles:
        assert validate_fell_bundle(b).ok
        frames = {x: np.eye(b.dims[b.groupoid.unit[x]], dtype=complex)
                  for x in b.groupoid.objects}
        assert validate_invariant_family(InvariantFamily(b, frames), DEFAULT).ok


def test_store_rejects_a_unit_composite_off_the_composable_pairs():
    # (y<x)(x<x) = y<y: the arrow g u_s(g) of y<x and its inverse x<y do not
    # compose, so the invariant-family operand mult[(g u_s, g^-1)] does not
    # exist; the bundle validator reports the groupoid and builds no store
    P = pair_groupoid(["x", "y"])
    comp = dict(P.comp)
    comp[("y<x", "x<x")] = "y<y"
    G = groupoid_module.FiniteGroupoid.from_data(P.objects, P.arrows, P.src, P.rng, P.unit,
                                                 P.inv, comp)
    one = np.ones((1, 1, 1), dtype=complex)
    b = bundle_module.FellBundle(G, {g: 1 for g in G.arrows},
                                 {p: one for p in composable_pairs(G)},
                                 {g: np.ones((1, 1)) for g in G.arrows}, {"x": one, "y": one})
    rep = validate_fell_bundle(b)
    assert ("right unit law", "arrow y<x") in [(v.check, v.where) for v in rep.violations]
    with pytest.raises(ValueError, match="off the composable pairs"):
        validate_invariant_family(InvariantFamily(b, {x: np.eye(1, dtype=complex)
                                                      for x in G.objects}))


def test_the_bundle_owns_its_structure_tensors():
    # a Z/3 line bundle with a twist, its tensors given as complex arrays,
    # which the constructor could keep by reference; a twin built from copies
    G = cyclic_group(3)
    rng = np.random.default_rng(5)
    phase = np.exp(2j * np.pi * rng.random(3))
    phase[0] = 1.0  # e stays the unit
    mult = {(g, h): np.full((1, 1, 1), phase[G.arrow_index[g]] * phase[G.arrow_index[h]]
                            / phase[G.arrow_index[G.comp[(g, h)]]])
            for g, h in composable_pairs(G)}
    inv = {g: np.full((1, 1), phase[G.arrow_index[g]].conj() / phase[G.arrow_index[G.inv[g]]])
           for g in G.arrows}
    unit_rep = {"pt": np.ones((1, 1, 1), dtype=complex)}
    b = bundle_module.FellBundle(G, {g: 1 for g in G.arrows}, mult, inv, unit_rep, name="z3")
    twin = bundle_module.FellBundle(
        G, {g: 1 for g in G.arrows}, {p: t.copy() for p, t in mult.items()},
        {g: j.copy() for g, j in inv.items()}, {"pt": unit_rep["pt"].copy()}, name="z3")
    for a in (*mult.values(), *inv.values(), *unit_rep.values()):
        a[...] = 7.0
    one = np.ones(1, dtype=complex)
    for g, h in composable_pairs(G):
        assert b.mult_coords(g, h, one, one).tobytes() == twin.mult_coords(g, h, one, one).tobytes()
    (xi, eta), (xi2, eta2) = ([random_section(c, np.random.default_rng(s)) for s in (1, 2)]
                              for c in (b, twin))
    assert convolve(xi, eta).pack().tobytes() == convolve(xi2, eta2).pack().tobytes()
    assert involute(xi).pack().tobytes() == involute(xi2).pack().tobytes()
    assert validate_fell_bundle(b).to_json() == validate_fell_bundle(twin).to_json()
    assert validate_fell_bundle(b).ok
    # and the bundle's own tensors are read-only
    for a in (b.mult[("e", "e")], b.inv["g1"], b.unit_rep["pt"]):
        with pytest.raises(ValueError):
            a[...] = 0


def test_the_bundle_owns_its_models():
    """The left-ideal and matrix models are copied once, read-only: a later
    write to the caller's arrays reaches neither the reconstruction nor the
    validator."""
    b = compile_to_fell_bundle(gallery.a4_action())
    ideals = {g: np.array(m) for g, m in b.left_ideal_model.items()}
    mine = bundle_module.FellBundle(b.groupoid, b.dims, b.mult, b.inv, b.unit_rep,
                                    left_ideal_model=ideals, name=b.name)
    want = reconstruct_action(mine)
    report = validate_fell_bundle(mine).to_json()
    for m in ideals.values():
        m[...] = 7.0
    got = reconstruct_action(mine)
    for field in ("ideal_basis", "alpha", "w"):
        before, after = getattr(want, field), getattr(got, field)
        assert before.keys() == after.keys()
        assert all(before[k].tobytes() == after[k].tobytes() for k in before), field
    assert validate_fell_bundle(mine).to_json() == report
    g = next(g for g, m in mine.left_ideal_model.items() if m.size)
    with pytest.raises(ValueError):
        mine.left_ideal_model[g][...] = 0
    # MatrixModelBundle.to_fell_bundle hands over its own writable fibres
    model = bundle_module.MatrixModelBundle(cyclic_group(2), {"e": [np.eye(1, dtype=complex)],
                                                              "g1": [np.eye(1, dtype=complex)]})
    line = model.to_fell_bundle()
    report = validate_fell_bundle(line).to_json()
    for stack in model.fibers.values():
        stack[...] = 7.0
    assert all((m == 1.0).all() for m in line.matrix_model.values())
    assert validate_fell_bundle(line).to_json() == report
    with pytest.raises(ValueError):
        line.matrix_model["g1"][...] = 0


def test_every_consumer_reads_the_one_copy(certify_bundles):
    for name, b in element_cases(certify_bundles).items():
        S = b.structure()
        assert S.mult is b.mult_stacks and S.inv is b.inv_stacks, name
        store = [*S.mult.arrays, *S.inv.arrays]

        def owned(a):  # an empty array shares no memory
            return a.size == 0 or any(np.shares_memory(a, s) for s in store)
        assert all(owned(t) for t in (*b.mult.values(), *b.inv.values())), name
        assert all(owned(stack) for stack, _, _ in b.conv_plan().groups), name
        assert all(owned(J) for J, _, _ in _involution_groups(b)), name
        table = _delta_table(b)
        assert all(owned(J) for *_, J in table.involution), name
        assert all(owned(M) for *_, M, _ in table.products), name
        # the star_mult tensors: one copy, in the norm_stacks groups
        for arrows, tensors, _ in b.norm_stacks():
            assert all(np.shares_memory(b.star_mult_tensor(g), tensors) for g in arrows), name
