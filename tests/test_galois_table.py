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
from fellbund import gallery, spectrum
from fellbund.envelope import envelope_algebra
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


def test_pair_count_is_capped_before_enumerating(certify_bundles, monkeypatch):
    # one spectrum block and 24 envelope blocks: 2^25 pairs
    b = certify_bundles["line-z24"]
    # the enumeration starts with _subset_masks: a call would raise TypeError
    monkeypatch.setattr(spectrum, "_subset_masks", None)
    with pytest.raises(ValueError, match="33554432 ideal pairs exceed the cap 1048576"):
        galois_check(b)
