"""The Galois check from the incidence table, against the frame route kept
in ``galois_route`` and against the table's own invariants.

``spectrum.incidence`` holds tr(z_P phi(p_s)) for every envelope block P and
spectrum block s; ``galois_check`` rounds it and reads every induced and
restricted ideal off it as a bitset of blocks.  The frame route builds the same ideals as
SVD frames, so the two must name the same ideals and give the same report.
"""

import itertools

import numpy as np
import pytest

import fellbund._linalg as la
from fellbund import gallery, ideals, spectrum
from fellbund.bundle import MatrixModelBundle
from fellbund.envelope import envelope_algebra
from fellbund.groupoid import trivial_group
from fellbund.spectrum import galois_check, incidence

import galois_route


def subset_masks(n):
    """Bitsets in the order ``coefficient_ideals``/``envelope_ideals`` number
    their ideals: by size, then in ``itertools.combinations`` order."""
    return [sum(1 << i for i in combo) for r in range(n + 1)
            for combo in itertools.combinations(range(n), r)]


def ranks(traces):
    return np.rint(traces.real).astype(np.int64)


def table_maps(traces):
    """i and r on bitsets, read off the incidence table."""
    meets = [sum(1 << p for p in np.flatnonzero(col > 0).tolist()) for col in ranks(traces).T]

    def induce(S):
        out = 0
        for s, m in enumerate(meets):
            if S >> s & 1:
                out |= m
        return out

    def restrict(T):
        return sum(1 << s for s, m in enumerate(meets) if not m & ~T)
    return induce, restrict


@pytest.fixture
def oracle_bundles(certify_bundles):
    """Every shipped bundle and the seed-1 certify pair(3) and Z/8 lines:
    the bundles small enough for the frame route."""
    return {**gallery.shipped_bundles(),
            **{name: certify_bundles[name] for name in ("line-pair3", "line-z8")}}


def test_table_ideals_are_the_frame_route_ideals(oracle_bundles):
    for name, b in oracle_bundles.items():
        traces = incidence(b)
        induce, restrict = table_maps(traces)
        n_env, n_spec = traces.shape
        data = galois_route.galois_data(b)
        b_frames = dict(zip(subset_masks(n_spec), galois_route.coefficient_ideals(data)))
        e_frames = dict(zip(subset_masks(n_env), galois_route.envelope_ideals(data)))
        for S, frame in b_frames.items():
            assert la.frame_eq(galois_route.induce_ideal(data, frame), e_frames[induce(S)],
                               1e-7), (name, S)
        for T, frame in e_frames.items():
            assert la.frame_eq(galois_route.restrict_ideal(data, frame), b_frames[restrict(T)],
                               1e-7), (name, T)


def test_report_equals_the_frame_route_report(oracle_bundles):
    for name, b in oracle_bundles.items():
        assert galois_check(b).to_json() == galois_route.galois_check(b).to_json(), name


def test_incidence_table_invariants(certify_bundles):
    for name, b in {**gallery.shipped_bundles(), **certify_bundles}.items():
        traces = incidence(b)
        table = ranks(traces)
        # each entry is the rank of the projection z_P phi(p_s)
        assert np.abs(traces - table).max() <= 1e-6, name
        assert (table >= 0).all(), name
        # sum_s p_s = 1 and phi is unital: each row sums to tr z_P
        assert table.sum(axis=1).tolist() == \
            [P.size * P.multiplicity for P in envelope_algebra(b).blocks], name
        # phi is unital and injective: no zero row, no zero column
        assert table.any(axis=0).all() and table.any(axis=1).all(), name


def test_trace_off_an_integer_is_a_violation(monkeypatch):
    b = gallery.a4_bundle()
    real = spectrum.incidence

    def shifted(bundle, tols):
        traces = real(bundle, tols)
        traces[0, 1] += 0.25
        return traces
    monkeypatch.setattr(spectrum, "incidence", shifted)
    violations = galois_check(b).violations
    assert [(v.check, v.where) for v in violations] == \
        [("incidence trace is an integer", "(env-block 0, spectrum block q:0)")]
    assert violations[0].residual == pytest.approx(0.25)


@pytest.mark.parametrize("name", ["line-pair5", "line-pair7"])
def test_galois_check_reaches_the_larger_pair_lines(certify_bundles, name):
    report = galois_check(certify_bundles[name])
    assert report.ok, report.summary()


def test_connection_identities_hold_on_the_frames(oracle_bundles):
    # i and r read off one table satisfy these by construction, so the
    # library no longer checks them; on the frames they are statements
    for name, b in oracle_bundles.items():
        report = galois_route.connection_identities(b)
        assert report.ok, (name, report.summary())


def test_connection_identities_catch_a_wrong_restriction(monkeypatch):
    # r(J) = 0 for every J: i r i = i fails on every nonzero ideal of B
    b = gallery.a4_bundle()
    n_spec = len(spectrum.fiber_spectrum(b).blocks())
    monkeypatch.setattr(galois_route, "restrict_ideal",
                        lambda data, frame, tols=None: np.zeros((0, data.coeff_total), complex))
    checks = {(v.check, v.where) for v in galois_route.connection_identities(b).violations}
    assert {("i r i = i", f"B-ideal {bi}") for bi in range(1, 2 ** n_spec)} <= checks
    assert any(check == "I <= r(J) iff i(I) <= J" for check, _ in checks)


@pytest.mark.parametrize("seed", [1, 4])
def test_galois_check_passes_on_line_z24(certify_bundles_by_seed, seed):
    # one spectrum block and 24 envelope blocks: 2 ideals of B to induce
    report = galois_check(certify_bundles_by_seed[(seed, "line-z24")])
    assert report.ok and report.violations == [], report.summary()


def test_coefficient_ideals_are_capped_before_the_envelope(monkeypatch):
    # one object whose unit fibre is the diagonal C^21: 21 spectrum blocks
    mats = [np.diag(row).astype(complex) for row in np.eye(21)]
    b = MatrixModelBundle(trivial_group(), {"e": mats}).to_fell_bundle()
    assert len(spectrum.fiber_spectrum(b).blocks()) == 21

    def fail(*args, **kwargs):
        raise AssertionError("ran before the cap")
    monkeypatch.setattr(spectrum, "envelope_algebra", fail)
    monkeypatch.setattr(ideals, "_enumerate_fell_ideals", fail)
    with pytest.raises(ValueError, match="2097152 coefficient ideals exceed the cap 1048576"):
        galois_check(b)
