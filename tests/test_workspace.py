import json

import numpy as np
import pytest

import fellbund._linalg as la
from conftest import demo_workspace_dict
from fellbund.workspace import (Workspace, WorkspaceError, dump_matrix,
                                parse_complex, parse_matrix)


def test_parse_complex_forms():
    assert parse_complex(2, "x") == 2 + 0j
    assert parse_complex(2.5, "x") == 2.5 + 0j
    assert parse_complex([1, -1], "x") == 1 - 1j
    with pytest.raises(WorkspaceError, match="x"):
        parse_complex("no", "x")
    with pytest.raises(WorkspaceError):
        parse_complex([1, 2, 3], "x")


def test_parse_matrix_ragged_rejected():
    with pytest.raises(WorkspaceError, match="ragged"):
        parse_matrix([[1, 2], [3]], "m")


def test_dump_matrix_roundtrip():
    m = np.array([[1.0, 1j], [0.5 - 0.25j, 2.0]])
    back = parse_matrix(dump_matrix(m), "m")
    np.testing.assert_allclose(back, m)


def test_workspace_loads_all_entries():
    ws = Workspace.from_dict(demo_workspace_dict())
    assert ws.groupoid("z2").arrows == ("e", "g1")
    assert ws.bundle("z2-line").dims == {"e": 1, "g1": 1}
    action = ws.action("swap-c2")
    assert action.ideal_dim("g1") == 2
    f = ws.section("f")
    assert f.at("g1")[0] == 1j
    ideal = ws.ideal("a4-pq")
    assert ideal.total_dim() == 4
    by_blocks = ws.ideal("a4-pq-by-blocks")
    assert by_blocks.total_dim() == 4
    rep = ws.rep("sign")
    assert rep.dims["pt"] == 1
    act = ws.set_action("swap-pq")
    assert act.domain("g1") == ("p", "q")
    action_obj, H, arrow_dict, bundle = ws.trafo_instance("pq-compare")
    assert len(H.arrows) == 4


def test_dangling_reference_reported():
    raw = demo_workspace_dict()
    raw["sections"]["broken"] = {"bundle": "nope", "entries": {}}
    ws = Workspace.from_dict(raw)
    with pytest.raises(WorkspaceError, match="nope"):
        ws.section("broken")


def test_unknown_arrow_in_section():
    raw = demo_workspace_dict()
    raw["sections"]["broken"] = {"bundle": "z2-line", "entries": {"zz": [1.0]}}
    ws = Workspace.from_dict(raw)
    with pytest.raises(WorkspaceError, match="zz"):
        ws.section("broken")


def test_json_parse_error_has_location(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\n  \"config\": ,\n}")
    with pytest.raises(WorkspaceError, match=r":2:"):
        Workspace.load(str(p))


def test_structure_tensor_bundle_form():
    # the non-matrix-model serialisation: Z/2 line bundle written longhand
    raw = {
        "groupoids": demo_workspace_dict()["groupoids"],
        "bundles": {
            "long": {
                "groupoid": "z2",
                "fibers": {"e": {"dim": 1}, "g1": {"dim": 1}},
                "mult": [["e", "e", 0, 0, 0, 1.0], ["e", "g1", 0, 0, 0, 1.0],
                         ["g1", "e", 0, 0, 0, 1.0], ["g1", "g1", 0, 0, 0, 1.0]],
                "inv": {"e": [[1.0]], "g1": [[1.0]]},
                "unit_algebras": {"pt": {"n": 1, "basis": [[[1.0]]]}},
            }
        },
    }
    ws = Workspace.from_dict(raw)
    b = ws.bundle("long")
    from fellbund.bundle import validate_fell_bundle
    assert validate_fell_bundle(b).ok
    from fellbund.envelope import envelope_algebra
    assert envelope_algebra(b).dim == 2


def test_config_seed_precedence(monkeypatch):
    raw = {"config": {"seed": 3}}
    assert Workspace.from_dict(raw).tols.seed == 3
    monkeypatch.setenv("FELLBUND_SEED", "7")
    assert Workspace.from_dict(raw).tols.seed == 7
    assert Workspace.from_dict(raw, seed=11).tols.seed == 11


def test_find_rejects_a_name_shared_by_two_tables():
    raw = demo_workspace_dict()
    raw["groupoids"]["z2-line"] = raw["groupoids"]["z2"]
    ws = Workspace.from_dict(raw)
    with pytest.raises(WorkspaceError, match="ambiguous.*groupoids, bundles"):
        ws.find("z2-line")
    assert ws.find("z2")[0] == "groupoids"


def test_parse_complex_rejects_non_finite():
    for bad in (float("nan"), float("inf"), [0.0, float("-inf")], [float("nan"), 1.0]):
        with pytest.raises(WorkspaceError, match="x: expected a finite number"):
            parse_complex(bad, "x")
    with pytest.raises(WorkspaceError, match="x: number too large"):
        parse_complex(10 ** 400, "x")


def test_overlong_integer_literal_is_a_workspace_error(tmp_path):
    path = tmp_path / "ws.json"
    path.write_text('{"sections": {"s": {"bundle": "b", "entries": {"e": [1' + "0" * 5000 + ']}}}}')
    with pytest.raises(WorkspaceError, match="ws.json"):
        Workspace.load(str(path))


@pytest.mark.parametrize("key", ["tolerance", "rank_threshold", "cluster_gap"])
@pytest.mark.parametrize("value", [0, -1e-9, float("nan"), float("inf"), "tiny"])
def test_config_thresholds_must_be_positive_and_finite(key, value):
    with pytest.raises(WorkspaceError, match=f"config.{key}"):
        Workspace.from_dict({"config": {key: value}})


def test_tolerance_override_must_be_positive_and_finite():
    with pytest.raises(WorkspaceError, match="tolerance"):
        Workspace.from_dict({}, tolerance=-1.0)
    with pytest.raises(WorkspaceError, match="config.tolerance"):
        Workspace.from_dict({"config": {"tolerance": -1}}, tolerance=1e-6)
    assert Workspace.from_dict({"config": {"tolerance": 1e-3}}, tolerance=1e-6).tols.tolerance == 1e-6


def test_block_family_ideal_equals_spectrum_subset():
    from fellbund.ideals import ideal_from_invariant_family
    from fellbund.spectrum import family_from_subset, fiber_spectrum
    ws = Workspace.from_dict(demo_workspace_dict())
    b = ws.bundle("a4")
    family = family_from_subset(b, fiber_spectrum(b, ws.tols), {("p", 0), ("q", 0)}, ws.tols)
    want = ideal_from_invariant_family(family, ws.tols)
    for name in ("a4-pq", "a4-pq-by-blocks"):
        got = ws.ideal(name)
        assert all(la.frame_eq(got.frames[g], want.frames[g], 1e-9)
                   for g in b.groupoid.arrows), name
    assert want.total_dim() == 4
