"""The ideal-lattice record: invariant sets from the dual action, Fell
ideals from the search, both as bitsets over the spectrum blocks.

``spectrum.lattice`` reads the orbits off the dual groupoid's arrows and the
Fell ideals off the search, which never reads the dual groupoid; the
readers (``quasi_orbits``, ``invariant_subsets``, ``ideal_bijection_check``,
``galois_check``) compare them as bitsets.  Here both sides are checked
against a brute-force search of the subsets the dual arrows map into
themselves, and a lattice whose sides disagree must be reported.
"""

import dataclasses

import pytest

from fellbund import envelope, gallery, spectrum
from fellbund.cli import main
from fellbund.spectrum import (dual_groupoid, fiber_spectrum, ideal_bijection_check,
                               invariant_subsets, lattice, quasi_orbits)


def closed_subsets(bundle):
    """Every bitset over the spectrum blocks that contains the target of each
    dual arrow whose source it contains, by trying all 2^S."""
    keys = [b.key for b in fiber_spectrum(bundle).blocks()]
    assert len(keys) <= 10
    bit = {k: 1 << i for i, k in enumerate(keys)}
    arrows = [(bit[s], bit[t]) for _, s, t in dual_groupoid(bundle).arrow_data.values()]
    return {m for m in range(1 << len(keys)) if all(not m & s or m & t for s, t in arrows)}


def test_invariant_sets_are_the_closed_subsets_and_the_fell_ideals(certify_bundles_by_seed):
    for name, b in {**gallery.shipped_bundles(), **certify_bundles_by_seed}.items():
        lat = lattice(b)
        assert lat.keys == tuple(blk.key for blk in fiber_spectrum(b).blocks()), name
        assert len(set(lat.invariant)) == len(lat.invariant), name
        assert set(lat.invariant) == closed_subsets(b), name
        assert set(lat.invariant) == set(lat.fell), name
        # the orbits partition the blocks
        assert sum(lat.orbits) == (1 << len(lat.keys)) - 1 == \
            sum(1 << i for o in lat.orbits for i in range(len(lat.keys)) if o >> i & 1), name


def test_record_is_memoised_and_builds_no_envelope(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the lattice built the envelope")
    monkeypatch.setattr(envelope, "envelope_algebra", fail)
    monkeypatch.setattr(spectrum, "envelope_algebra", fail)
    b = gallery.a4_bundle()
    lat = lattice(b)
    assert lattice(b) is lat
    assert quasi_orbits(b) == [[("p", 0), ("q", 0)], [("r", 0)]]
    assert invariant_subsets(b) == [frozenset(), frozenset({("r", 0)}),
                                    frozenset({("p", 0), ("q", 0)}),
                                    frozenset({("p", 0), ("q", 0), ("r", 0)})]
    # only ints and keys: nothing refers back to the bundle
    fields = [getattr(lat, f.name) for f in dataclasses.fields(lat)]
    assert all(isinstance(v, tuple) for v in fields)
    assert all(isinstance(m, int) for v in fields[1:] for m in v)


@pytest.fixture
def units_only_orbits(monkeypatch):
    """The dual groupoid as the lattice reads it, cut to its unit arrows:
    every block is an orbit of its own."""
    real = spectrum.dual_groupoid

    def cut(bundle, tols):
        dual = real(bundle, tols)
        units = set(bundle.groupoid.unit.values())
        return dataclasses.replace(dual, arrow_data={
            a: data for a, data in dual.arrow_data.items() if data[0] in units})
    monkeypatch.setattr(spectrum, "dual_groupoid", cut)


def test_an_invariant_set_that_is_no_fell_ideal_is_named(units_only_orbits,
                                                         demo_workspace_path, capsys):
    b = gallery.a4_bundle()
    assert quasi_orbits(b) == [[("p", 0)], [("q", 0)], [("r", 0)]]
    report = ideal_bijection_check(b)
    # the Fell ideals are 0, {r}, {p, q} and everything
    assert [(v.check, v.where) for v in report.violations] == [
        ("subset family invariant", "subset [('p', 0)]"),
        ("subset family invariant", "subset [('q', 0)]"),
        ("subset family invariant", "subset [('p', 0), ('r', 0)]"),
        ("subset family invariant", "subset [('q', 0), ('r', 0)]"),
        ("counts agree with exhaustive enumeration", "lattice")]
    assert report.violations[-1].detail == "4 enumerated vs 8 subsets"
    assert main(["quasi-orbits", demo_workspace_path, "a4"]) == 1
    capsys.readouterr()
