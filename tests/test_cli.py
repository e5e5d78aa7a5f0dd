import json
import warnings

import numpy as np
import pytest

from fellbund.cli import build_parser, main
from fellbund.report import ValidationReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_norms_command(demo_workspace_path, capsys):
    code, out, _ = run_cli(capsys, "norms", demo_workspace_path, "e-plus-g")
    assert code == 0
    payload = json.loads(out)
    assert payload["i_norm"] == pytest.approx(2.0)
    assert payload["cstar_norm"] == pytest.approx(2.0)


def test_norms_sqrt2_case(demo_workspace_path, capsys):
    code, out, _ = run_cli(capsys, "norms", demo_workspace_path, "f")
    payload = json.loads(out)
    assert payload["cstar_norm"] == pytest.approx(2 ** 0.5)
    assert code == 0


def test_validate_commands(demo_workspace_path, capsys):
    for name in ("z2", "z2-line", "swap-c2", "a4-pq", "sign", "swap-pq", "f"):
        code, out, _ = run_cli(capsys, "validate", demo_workspace_path, name)
        assert code == 0, name
        assert json.loads(out)["ok"] is True, name


def test_envelope_command(demo_workspace_path, capsys):
    code, out, _ = run_cli(capsys, "envelope", demo_workspace_path, "a4")
    payload = json.loads(out)
    assert code == 0
    assert payload["dim"] == 6
    assert {"size": 2, "multiplicity": 2} in payload["blocks"]


def test_exactness_command(demo_workspace_path, capsys):
    code, out, _ = run_cli(capsys, "exactness", demo_workspace_path, "a4-pq")
    payload = json.loads(out)
    assert code == 0
    assert payload["dims"] == {"ideal": 4, "quotient": 2, "total": 6}


def test_spectrum_and_quasi_orbits(demo_workspace_path, capsys):
    code, out, _ = run_cli(capsys, "spectrum", demo_workspace_path, "a4")
    payload = json.loads(out)
    assert code == 0
    assert payload["invariant_subsets"] == 4 and payload["fell_ideals"] == 4
    code, out, _ = run_cli(capsys, "quasi-orbits", demo_workspace_path, "a4")
    payload = json.loads(out)
    assert code == 0
    assert len(payload["orbits"]) == 2


def test_ideals_command(demo_workspace_path, capsys):
    code, out, _ = run_cli(capsys, "ideals", demo_workspace_path, "a4")
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 4


def test_compile_action_command(demo_workspace_path, capsys):
    code, out, _ = run_cli(capsys, "compile-action", demo_workspace_path, "swap-c2")
    payload = json.loads(out)
    assert code == 0
    assert payload["fiber_dims"] == {"e": 2, "g1": 2}
    assert payload["saturated"] == {"e": True, "g1": True}


def test_represent_commands(demo_workspace_path, capsys):
    code, out, _ = run_cli(capsys, "represent", demo_workspace_path, "sign")
    assert code == 0
    code, out, _ = run_cli(capsys, "represent", demo_workspace_path, "z2-line",
                           "--roundtrip", "--fuzz", "5")
    payload = json.loads(out)
    assert code == 0
    assert payload["max_roundtrip_residual"] <= 1e-8


def test_trafo_command(demo_workspace_path, capsys):
    code, out, _ = run_cli(capsys, "trafo", demo_workspace_path, "pq-compare")
    payload = json.loads(out)
    assert code == 0
    assert payload["envelopes"]["base_blocks"] == [{"size": 2, "multiplicity": 2}]


def test_reports_are_byte_identical(demo_workspace_path, capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "spectrum", demo_workspace_path, "a4")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_human_flag(demo_workspace_path, capsys):
    code, out, _ = run_cli(capsys, "norms", demo_workspace_path, "e-plus-g", "--human")
    assert code == 0
    assert "i_norm: 2.0" in out


def test_parser_is_built_once_and_options_do_not_leak(demo_workspace_path, capsys):
    assert build_parser() is build_parser()
    code, out, _ = run_cli(capsys, "norms", demo_workspace_path, "e-plus-g", "--human")
    assert code == 0 and "i_norm: 2.0" in out
    code, out, _ = run_cli(capsys, "norms", demo_workspace_path, "e-plus-g")
    assert code == 0 and json.loads(out)["i_norm"] == pytest.approx(2.0)
    code, out, _ = run_cli(capsys, "represent", demo_workspace_path, "z2-line",
                           "--roundtrip", "--fuzz", "2")
    assert code == 0 and json.loads(out)["samples"] == 2
    code, out, _ = run_cli(capsys, "represent", demo_workspace_path, "sign")
    assert code == 0 and json.loads(out)["ok"] is True


def test_missing_name_is_usage_error(demo_workspace_path, capsys):
    code, _, err = run_cli(capsys, "validate", demo_workspace_path, "missing")
    assert code == 2
    assert "missing" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "validate", "/nonexistent/ws.json", "x")
    assert code == 2


def test_failing_validation_exit_one(tmp_path, capsys):
    bad = {"groupoids": {"bad": {
        "objects": ["x"], "arrows": [{"id": "e", "src": "x", "rng": "x"}],
        "units": {"x": "e"}, "inv": {"e": "e"}, "comp": []}}}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "validate", str(p), "bad")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_action_without_a_unit_prints_its_report(tmp_path, capsys):
    # D_g1 = span{E12} has no unit: a witness in the report (exit 1), not an
    # error without one
    def unit(i, j):
        return [[1.0 if (a, b) == (i, j) else 0.0 for b in range(2)] for a in range(2)]
    eye = [[1.0, 0.0], [0.0, 1.0]]
    ws = {"groupoids": {"z2": {
        "objects": ["pt"], "arrows": [{"id": "e", "src": "pt", "rng": "pt"},
                                      {"id": "g1", "src": "pt", "rng": "pt"}],
        "units": {"pt": "e"}, "inv": {"e": "e", "g1": "g1"},
        "comp": [["e", "e", "e"], ["e", "g1", "g1"], ["g1", "e", "g1"], ["g1", "g1", "e"]]}},
        "actions": {"nilpotent": {
            "groupoid": "z2",
            "fibers": {"pt": {"n": 2, "basis": [unit(0, 0), unit(0, 1), unit(1, 0), unit(1, 1)]}},
            "ideals": {"g1": [unit(0, 1)]}, "alpha": {"g1": [[1.0]]},
            "w": {key: eye for key in ("e,e", "e,g1", "g1,e", "g1,g1")}}}}
    p = tmp_path / "nilpotent.json"
    p.write_text(json.dumps(ws))
    code, out, err = run_cli(capsys, "validate", str(p), "nilpotent")
    assert code == 1 and not err
    report = json.loads(out)
    assert report["ok"] is False
    assert [(v["check"], v["where"]) for v in report["violations"]][:3] == [
        ("ideal absorbs left multiplication", "D_g1[0]"),
        ("ideal absorbs right multiplication", "D_g1[0]"),
        ("ideal has a two-sided unit", "arrow g1")]
    code, out, err = run_cli(capsys, "compile-action", str(p), "nilpotent")
    assert code == 1 and json.loads(out) == report


def test_seed_env_override(demo_workspace_path, capsys, monkeypatch):
    monkeypatch.setenv("FELLBUND_SEED", "5")
    code, out1, _ = run_cli(capsys, "represent", demo_workspace_path, "z2-line",
                            "--roundtrip", "--fuzz", "3")
    assert code == 0
    monkeypatch.delenv("FELLBUND_SEED")
    code, out2, _ = run_cli(capsys, "represent", demo_workspace_path, "z2-line",
                            "--roundtrip", "--fuzz", "3", "--seed", "5")
    assert out1 == out2


def test_ambiguous_name_exits_2(tmp_path, capsys):
    from conftest import demo_workspace_dict
    raw = demo_workspace_dict()
    raw["groupoids"]["z2-line"] = raw["groupoids"]["z2"]
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "validate", str(path), "z2-line")
    assert code == 2 and out == ""
    assert "ambiguous" in err and "groupoids, bundles" in err


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_out_of_range_tolerance_exits_2(demo_workspace_path, capsys, value):
    code, out, err = run_cli(capsys, "validate", demo_workspace_path, "z2-line",
                             "--tolerance", value)
    assert code == 2 and out == ""
    assert "tolerance: expected a finite number > 0" in err


@pytest.mark.parametrize("value", ["-5", "0"])
def test_fuzz_below_one_exits_2(demo_workspace_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["represent", demo_workspace_path, "z2-line", "--roundtrip", "--fuzz", value])
    assert exc.value.code == 2
    assert "--fuzz" in capsys.readouterr().err


def _write_demo(tmp_path, edit):
    from conftest import demo_workspace_dict
    raw = demo_workspace_dict()
    edit(raw)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_config_tolerance_out_of_range_exits_2(tmp_path, capsys):
    path = _write_demo(tmp_path, lambda raw: raw["config"].update(tolerance=-1))
    code, out, err = run_cli(capsys, "validate", path, "z2-line")
    assert code == 2 and out == ""
    assert "config.tolerance" in err


def test_nan_section_entry_exits_2(tmp_path, capsys):
    path = _write_demo(tmp_path, lambda raw: raw["sections"]["f"]["entries"].update(
        e=[float("nan")]))
    code, out, err = run_cli(capsys, "norms", path, "f")
    assert code == 2 and out == ""
    assert "sections.f.entries.e" in err and "finite" in err


def test_inf_matrix_fibre_entry_exits_2(tmp_path, capsys):
    path = _write_demo(tmp_path, lambda raw: raw["bundles"]["z2-line"]["fibers"].update(
        g1=[[[float("inf")]]]))
    code, out, err = run_cli(capsys, "validate", path, "z2-line")
    assert code == 2 and out == ""
    assert "bundles.z2-line.fibers.g1" in err and "finite" in err


def test_non_finite_report_is_an_error_not_bare_nan(tmp_path, capsys, monkeypatch):
    # a norm that comes out NaN must not be printed as a bare NaN
    monkeypatch.setattr("fellbund.cli.i_norm", lambda f: float("nan"))
    code, out, err = run_cli(capsys, "norms", _write_demo(tmp_path, lambda raw: None), "f")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "non-finite" in err and "Traceback" not in err


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_norms_of_a_scaled_section_scale_the_report(tmp_path, capsys, scale):
    # at 1e200 an unscaled a*a overflows (NaN norms) and at 1e-200 it
    # underflows (zero norms); fibre norms are formed for a / 2^e instead
    def scaled(raw):
        raw["sections"]["f"]["entries"] = {"e": [scale], "g1": [[0.0, scale]]}
    code, out, _ = run_cli(capsys, "norms", _write_demo(tmp_path, lambda raw: None), "f")
    assert code == 0
    want = json.loads(out)
    code, out, err = run_cli(capsys, "norms", _write_demo(tmp_path, scaled), "f")
    assert code == 0 and err == ""
    got = json.loads(out)
    for key in ("i_norm", "cstar_norm", "sharper_upper_bound"):
        assert got[key] == pytest.approx(scale * want[key], rel=1e-14), key
    for x, norm in want["per_object_norms"].items():
        assert got["per_object_norms"][x] == pytest.approx(scale * norm, rel=1e-14), x


@pytest.mark.parametrize("family, needle", [
    ([["p", 0]], "expected an object"),
    ({"p": 0}, "ideals.a4-pq-by-blocks.invariant_family.p"),
    ({"p": ["x"]}, "integer block indices"),
    ({"p": [0.7]}, "integer block indices"),
    ({"p": [True]}, "integer block indices"),
    ({"p": [0], "zz": [0]}, "unknown object 'zz'"),
    ({"p": [0, 0]}, "repeated"),
    ({"p": [1]}, "out of range"),
], ids=["list", "scalar", "string", "float", "bool", "unknown-object", "repeated",
        "out-of-range"])
def test_malformed_invariant_family_exits_2(tmp_path, capsys, family, needle):
    path = _write_demo(tmp_path, lambda raw: raw["ideals"]["a4-pq-by-blocks"].update(
        invariant_family=family))
    code, out, err = run_cli(capsys, "exactness", path, "a4-pq-by-blocks")
    assert code == 2 and out == ""
    assert err.startswith("error:") and needle in err and "Traceback" not in err


def _add_longhand_a4(raw):
    """The demo bundle ``a4`` written again in the structure-tensor form, as
    ``a4-long``."""
    from fellbund.workspace import Workspace, dump_complex, dump_matrix
    b = Workspace.from_dict(raw).bundle("a4")
    G = b.groupoid
    raw["bundles"]["a4-long"] = {
        "groupoid": raw["bundles"]["a4"]["groupoid"],
        "fibers": {g: {"dim": b.dims[g]} for g in G.arrows},
        "mult": [[g, h, *idx, dump_complex(t[idx])]
                 for (g, h), t in b.mult.items() for idx in np.ndindex(t.shape) if t[idx]],
        "inv": {g: dump_matrix(b.inv[g]) for g in G.arrows},
        "unit_algebras": {x: {"n": b.unit_dim(x), "basis": [dump_matrix(m) for m in b.unit_rep[x]]}
                          for x in G.objects},
    }
    return raw["bundles"]["a4-long"]


def test_longhand_bundle_validates(tmp_path, capsys):
    path = _write_demo(tmp_path, _add_longhand_a4)
    code, out, _ = run_cli(capsys, "validate", path, "a4-long")
    assert code == 0 and json.loads(out)["ok"] is True


def _add_gap_bundles(raw):
    """Z/2 without the composite of (g1, g1) as ``z2-gap``, with a line
    bundle over it in the matrix form (``gap-matrix``) and in the
    structure-tensor form (``gap-long``)."""
    z2 = raw["groupoids"]["z2"]
    raw["groupoids"]["z2-gap"] = {**z2, "comp": [c for c in z2["comp"] if c[:2] != ["g1", "g1"]]}
    raw["bundles"]["gap-matrix"] = {"groupoid": "z2-gap", "model": "matrix",
                                    "fibers": {"e": [[[1.0]]], "g1": [[[1.0]]]}}
    raw["bundles"]["gap-long"] = {
        "groupoid": "z2-gap", "fibers": {"e": {"dim": 1}, "g1": {"dim": 1}},
        "mult": [["e", "e", 0, 0, 0, 1.0], ["e", "g1", 0, 0, 0, 1.0], ["g1", "e", 0, 0, 0, 1.0]],
        "inv": {"e": [[1.0]], "g1": [[1.0]]},
        "unit_algebras": {"pt": {"n": 1, "basis": [[[1.0]]]}}}


@pytest.mark.parametrize("name", ["gap-matrix", "gap-long"])
def test_bundle_over_a_groupoid_without_a_composite_exits_2(tmp_path, capsys, name):
    # the structure-tensor form ended in a KeyError traceback, exit 1
    path = _write_demo(tmp_path, _add_gap_bundles)
    code, out, err = run_cli(capsys, "validate", path, name)
    assert code == 2 and out == ""
    assert err == f"error: bundles.{name}: composable pair (g1,g1) has no composite\n"


@pytest.mark.parametrize("edit, name, needle", [
    (lambda raw: _add_longhand_a4(raw)["mult"].append(["p|e|p", "zz", 0, 0, 0, 1.0]),
     "a4-long", "('p|e|p', 'zz') is not a composable pair"),
    (lambda raw: _add_longhand_a4(raw)["mult"].append(["p|e|p", "q|e|q", 0, 0, 0, 1.0]),
     "a4-long", "('p|e|p', 'q|e|q') is not a composable pair"),
    (lambda raw: _add_longhand_a4(raw)["mult"].append(["p|e|p", "p|e|p", 1, 0, 0, 1.0]),
     "a4-long", "integer indices within shape (1, 1, 1) of (p|e|p,p|e|p), got [1, 0, 0]"),
    (lambda raw: _add_longhand_a4(raw)["mult"].append(["p|e|p", "p|e|p", -1, 0, 0, 1.0]),
     "a4-long", "integer indices within shape (1, 1, 1) of (p|e|p,p|e|p), got [-1, 0, 0]"),
    (lambda raw: _add_longhand_a4(raw)["fibers"].update({"p|e|p": 1}),
     "a4-long", "bundles.a4-long.fibers.p|e|p: expected an object"),
    (lambda raw: _add_longhand_a4(raw)["unit_algebras"]["p"].pop("n"),
     "a4-long", "bundles.a4-long.unit_algebras.p.n: expected a non-negative integer"),
    (lambda raw: _add_longhand_a4(raw)["fibers"]["p|e|p"].update(dim=1.5),
     "a4-long", "bundles.a4-long.fibers.p|e|p.dim: expected a non-negative integer"),
    (lambda raw: _add_longhand_a4(raw)["fibers"]["p|e|p"].update(dim=-1),
     "a4-long", "bundles.a4-long.fibers.p|e|p.dim: expected a non-negative integer"),
    (lambda raw: _add_longhand_a4(raw).update(mult=5),
     "a4-long", "bundles.a4-long.mult: expected a list"),
    (lambda raw: _add_longhand_a4(raw)["unit_algebras"]["p"].update(basis=1.0),
     "a4-long", "bundles.a4-long.unit_algebras.p: expected a list of matrices"),
    (lambda raw: _add_longhand_a4(raw)["unit_algebras"]["p"].update(n=3),
     "a4-long", "bundles.a4-long.unit_algebras.p[0]: shape (1, 1), want (3, 3)"),
    (lambda raw: _add_longhand_a4(raw)["unit_algebras"]["p"]["basis"].append(np.eye(2).tolist()),
     "a4-long", "bundles.a4-long.unit_algebras.p[1]: shape (2, 2), want (1, 1)"),
    (lambda raw: raw["reps"]["sign"].update(dims=[1]),
     "sign", "reps.sign.dims: expected an object"),
    (lambda raw: raw["reps"]["sign"]["maps"].update(g1=-1.0),
     "sign", "reps.sign.maps.g1: expected a list of matrices"),
    (lambda raw: raw["reps"]["sign"]["maps"].update(g1=[[[-1.0], [1.0, 2.0]]]),
     "sign", "reps.sign.maps.g1[0]: ragged matrix"),
    (lambda raw: raw["reps"]["sign"]["maps"].update(g1=[[[-1.0]], [[1.0, 2.0]]]),
     "sign", "reps.sign.maps.g1: ragged array"),
    (lambda raw: raw["reps"]["sign"]["dims"].update(pt=1.5),
     "sign", "reps.sign.dims.pt: expected a non-negative integer"),
    (lambda raw: raw["reps"]["sign"]["dims"].update(pt="1"),
     "sign", "reps.sign.dims.pt: expected a non-negative integer"),
    (lambda raw: raw["bundles"]["z2-line"].update(fibers=[[[[1.0]]], [[[1.0]]]]),
     "z2-line", "bundles.z2-line.fibers: expected an object"),
    (lambda raw: raw["bundles"]["z2-line"]["fibers"].update(g1=1.0),
     "z2-line", "bundles.z2-line.fibers.g1: expected a list of matrices"),
    (lambda raw: raw["bundles"]["z2-line"].update(obj_dims={"pt": 1.5}),
     "z2-line", "bundles.z2-line.obj_dims.pt: expected a non-negative integer"),
    (lambda raw: raw["bundles"]["z2-line"].update(obj_dims={"pt": "1"}),
     "z2-line", "bundles.z2-line.obj_dims.pt: expected a non-negative integer"),
    (lambda raw: raw["bundles"]["z2-line"].update(obj_dims={"nowhere": 1}),
     "z2-line", "bundles.z2-line.obj_dims: unknown object 'nowhere'"),
    (lambda raw: raw["bundles"]["z2-line"]["fibers"].update(g1=[[[1.0, 0.0]]]),
     "z2-line", "bundles.z2-line: inconsistent matrix size at object pt"),
    (lambda raw: raw["bundles"]["z2-line"]["fibers"].update(nope=[[[1.0]]]),
     "z2-line", "bundles.z2-line.fibers: unknown arrow 'nope'"),
    (lambda raw: raw["ideals"]["a4-pq"].update(fibers=[[1.0]]),
     "a4-pq", "ideals.a4-pq.fibers: expected an object"),
    (lambda raw: raw["ideals"]["a4-pq"]["fibers"].update(nope=[[1.0]]),
     "a4-pq", "ideals.a4-pq.fibers: unknown arrow 'nope'"),
    (lambda raw: raw["ideals"]["a4-pq"]["fibers"].update({"p|e|p": 1.0}),
     "a4-pq", "ideals.a4-pq.fibers.p|e|p: expected a matrix (list of rows)"),
    (lambda raw: raw["ideals"]["a4-pq"]["fibers"].update({"p|e|p": [[1.0, 0.0]]}),
     "a4-pq", "ideals.a4-pq.fibers.p|e|p: vectors of length 2, want 1"),
    (lambda raw: raw["ideals"]["a4-pq-by-blocks"].update(fibers={"nope": [[1.0]]}),
     "a4-pq-by-blocks", "ideals.a4-pq-by-blocks: give either fibers or invariant_family"),
    (lambda raw: raw.update(config={"seed": "abc"}), "z2", "config.seed: expected an integer"),
    (lambda raw: raw.update(config={"seed": 1.5}), "z2",
     "config.seed: expected an integer >= 0, got 1.5"),
    (lambda raw: raw.update(config={"seed": True}), "z2",
     "config.seed: expected an integer >= 0, got True"),
    (lambda raw: raw.update(config={"seed": -5}), "z2",
     "config.seed: expected an integer >= 0, got -5"),
    (lambda raw: raw.update(config=[1]), "z2", "config: expected an object"),
], ids=["mult-unknown-pair", "mult-non-composable-pair", "mult-index-out-of-range",
        "mult-negative-index", "fibre-not-an-object", "unit-algebra-without-n",
        "non-integer-dim", "negative-dim", "mult-not-a-list", "unit-basis-scalar",
        "unit-basis-wrong-n", "unit-basis-ragged",
        "rep-dims-not-an-object", "rep-map-scalar", "rep-map-ragged-matrix",
        "rep-map-ragged-array", "rep-dims-float", "rep-dims-string",
        "matrix-fibers-list", "matrix-fibre-scalar", "matrix-obj-dims-float",
        "matrix-obj-dims-string", "matrix-obj-dims-unknown-object", "matrix-inconsistent-sizes",
        "matrix-fibre-unknown-arrow", "ideal-fibers-list", "ideal-unknown-arrow",
        "ideal-fibre-scalar", "ideal-vector-wrong-length", "ideal-fibers-and-family",
        "config-seed-string", "config-seed-float", "config-seed-bool", "config-seed-negative",
        "config-list"])
def test_malformed_structure_bundle_or_rep_exits_2(tmp_path, capsys, edit, name, needle):
    path = _write_demo(tmp_path, edit)
    code, out, err = run_cli(capsys, "validate", path, name)
    assert code == 2 and out == ""
    assert err.startswith("error:") and needle in err and "Traceback" not in err


@pytest.mark.parametrize("edit, command, name, needle", [
    (lambda raw: raw["actions"]["swap-c2"]["fibers"]["pt"].pop("n"), "validate", "swap-c2",
     "actions.swap-c2.fibers.pt.n: expected a non-negative integer"),
    (lambda raw: raw["actions"]["swap-c2"]["fibers"].update(pt=2), "validate", "swap-c2",
     "actions.swap-c2.fibers.pt: expected an object"),
    (lambda raw: raw["actions"]["swap-c2"]["fibers"]["pt"].update(basis=1.0), "validate",
     "swap-c2", "actions.swap-c2.fibers.pt: expected a list of matrices"),
    (lambda raw: raw["actions"]["swap-c2"]["ideals"].update(e=1.0), "validate", "swap-c2",
     "actions.swap-c2.ideals.e: expected a list of matrices"),
    (lambda raw: raw["actions"]["swap-c2"].update(alpha=[]), "validate", "swap-c2",
     "actions.swap-c2.alpha: expected an object"),
    (lambda raw: raw["actions"]["swap-c2"]["ideals"].update(nope=[[[1.0, 0.0], [0.0, 0.0]]]),
     "validate", "swap-c2", "actions.swap-c2: ideals: unknown arrow 'nope'"),
    (lambda raw: raw["actions"]["swap-c2"].update(w={"g1,nope": 1.0}), "validate", "swap-c2",
     "actions.swap-c2: w: ('g1', 'nope') is not a composable pair"),
    (lambda raw: raw["actions"]["swap-c2"]["alpha"].update(g1=[[1.0]]), "validate", "swap-c2",
     "actions.swap-c2: alpha at g1 has shape (1, 1), want (2, 2)"),
    (lambda raw: raw["actions"]["swap-c2"].update(w={"g1,g1": np.eye(3).tolist()}), "validate",
     "swap-c2", "actions.swap-c2: w(g1,g1) has shape (3, 3), want (2, 2)"),
    (lambda raw: raw["set_actions"]["swap-pq"].update(points=5), "validate", "swap-pq",
     "set_actions.swap-pq.points: expected a list of point names"),
    (lambda raw: raw["set_actions"]["swap-pq"].update(act=5), "validate", "swap-pq",
     "set_actions.swap-pq.act: expected a list"),
    (lambda raw: raw["set_actions"]["swap-pq"].update(anchor=["p"]), "validate", "swap-pq",
     "set_actions.swap-pq.anchor: expected an object"),
    (lambda raw: raw["sections"].update(f=[1]), "norms", "f",
     "sections.f: expected an object"),
    (lambda raw: raw["sections"]["f"].update(entries=[1.0]), "norms", "f",
     "sections.f.entries: expected an object"),
    (lambda raw: raw["trafo"].update({"pq-compare": "swap-pq"}), "trafo", "pq-compare",
     "trafo.pq-compare: expected an object"),
], ids=["action-fibre-without-n", "action-fibre-scalar", "action-basis-scalar",
        "action-ideal-scalar", "action-alpha-list", "action-ideal-unknown-arrow",
        "action-w-non-composable-pair", "action-alpha-wrong-shape", "action-w-wrong-shape",
        "set-action-points-scalar",
        "set-action-act-scalar", "set-action-anchor-list", "section-list",
        "section-entries-list", "trafo-string"])
def test_malformed_action_set_action_section_or_trafo_exits_2(tmp_path, capsys, edit, command,
                                                              name, needle):
    path = _write_demo(tmp_path, edit)
    code, out, err = run_cli(capsys, command, path, name)
    assert code == 2 and out == ""
    assert err.startswith("error:") and needle in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "compile-action"])
@pytest.mark.parametrize("edit, needle", [
    # the Gram matrix of this basis overflows to NaN, which the
    # orthonormality test must not pass
    (lambda act: act["ideals"].update(g1=[[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]),
     "actions.swap-c2: ideal basis at g1 is not HS-orthonormal"),
    (lambda act: act["fibers"].update(pt={"n": 2, "basis": [np.diag([1.0, 0.0, 0.0]).tolist()]}),
     "actions.swap-c2.fibers.pt: expected 2x2 matrices, got shape (3, 3)"),
], ids=["ideal-gram-overflows", "fibre-basis-wrong-size"])
def test_action_with_overflowing_ideal_or_wrong_size_fibre_exits_2(tmp_path, capsys, edit,
                                                                   needle, command):
    path = _write_demo(tmp_path, lambda raw: edit(raw["actions"]["swap-c2"]))
    with np.errstate(all="ignore"):
        code, out, err = run_cli(capsys, command, path, "swap-c2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and needle in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "compile-action"])
@pytest.mark.parametrize("edit, witnesses", [
    (lambda act: act["alpha"].update(g1=[[0.0, 1e308], [1e308, 0.0]]),
     {("alpha multiplicative", "g1, basis (0,0)"), ("alpha multiplicative", "g1, basis (1,1)"),
      ("twisted composition alpha_g alpha_h = Ad(w) alpha_{gh}", "(g1,g1)")}),
    (lambda act: act.update(w={"g1,g1": 1e308}),
     {("unitarity w w* = unit", "(g1,g1)"), ("unitarity w* w = unit", "(g1,g1)"),
      ("twisted composition alpha_g alpha_h = Ad(w) alpha_{gh}", "(g1,g1)")}),
], ids=["alpha-overflows", "w-overflows"])
def test_overflowing_action_report_is_json_with_its_witnesses(tmp_path, capsys, edit, witnesses,
                                                              command):
    path = _write_demo(tmp_path, lambda raw: edit(raw["actions"]["swap-c2"]))
    with np.errstate(all="ignore"):
        code, out, err = run_cli(capsys, command, path, "swap-c2")
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["ok"] is False
    assert witnesses <= {(v["check"], v["where"]) for v in payload["violations"]}
    # residuals that overflowed are left out and named; the rest are finite
    overflowed = [v for v in payload["violations"] if "residual" not in v]
    assert overflowed and all(v["detail"] == "residual overflows" for v in overflowed)


@pytest.mark.parametrize("command", ["validate", "compile-action"])
@pytest.mark.parametrize("edit", [
    lambda act: act["alpha"].update(g1=[[0.0, 1e308], [1e308, 0.0]]),
    lambda act: act["ideals"].update(g1=[[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]),
], ids=["alpha-overflows", "ideal-gram-overflows"])
def test_overflowing_action_input_warns_nothing(tmp_path, capsys, edit, command):
    # the same report as with numpy's warnings silenced, and no RuntimeWarning
    path = _write_demo(tmp_path, lambda raw: edit(raw["actions"]["swap-c2"]))
    with np.errstate(all="ignore"):
        quiet = run_cli(capsys, command, path, "swap-c2")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(capsys, command, path, "swap-c2") == quiet
    assert [str(w.message) for w in caught] == []
    assert quiet[2] == "" or quiet[2].startswith("error: actions.swap-c2: ideal basis")


def _add_flipped_z8(raw):
    """The trivial line bundle over Z/8 with the sign of mult[(g1, g2)]
    flipped, in the structure-tensor form, as ``z8-flipped``, and the section
    ``flipped-ones``, 1 on every arrow."""
    from fellbund.groupoid import cyclic_group
    G = cyclic_group(8)
    raw["groupoids"]["z8-cyclic"] = {
        "objects": list(G.objects), "units": dict(G.unit), "inv": dict(G.inv),
        "arrows": [{"id": g, "src": G.src[g], "rng": G.rng[g]} for g in G.arrows],
        "comp": [[g, h, k] for (g, h), k in G.comp.items()]}
    raw["bundles"]["z8-flipped"] = {
        "groupoid": "z8-cyclic", "fibers": {g: {"dim": 1} for g in G.arrows},
        "mult": [[g, h, 0, 0, 0, -1.0 if (g, h) == ("g1", "g2") else 1.0] for g, h in G.comp],
        "inv": {g: [[1.0]] for g in G.arrows},
        "unit_algebras": {"pt": {"n": 1, "basis": [[[1.0]]]}}}
    raw["sections"]["flipped-ones"] = {"bundle": "z8-flipped",
                                       "entries": {g: [1.0] for g in G.arrows}}


def test_norms_on_a_bundle_that_is_no_fell_bundle_exits_1(tmp_path, capsys):
    path = _write_demo(tmp_path, _add_flipped_z8)
    code, out, _ = run_cli(capsys, "validate", path, "z8-flipped")
    assert code == 1 and json.loads(out)["ok"] is False
    code, out, err = run_cli(capsys, "norms", path, "flipped-ones")
    assert code == 1 and out == ""
    assert err.startswith("error: spanning stack is not closed under products")


def test_report_leaves_out_a_residual_that_overflowed():
    rep = ValidationReport("overflow")
    rep.add("a", "x", float("nan"))
    rep.check_residual(float("inf"), 1.0, "b", "y", detail="d")
    rep.add("c", "z", 2.0)
    assert [v.to_json() for v in rep.violations] == [
        {"check": "a", "where": "x", "detail": "residual overflows"},
        {"check": "b", "where": "y", "detail": "d; residual overflows"},
        {"check": "c", "where": "z", "residual": 2.0}]


def test_non_integer_seed_variable_exits_2(demo_workspace_path, capsys, monkeypatch):
    monkeypatch.setenv("FELLBUND_SEED", "abc")
    code, out, err = run_cli(capsys, "validate", demo_workspace_path, "z2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "FELLBUND_SEED" in err and "'abc'" in err
    # an explicit --seed takes precedence and the variable is not read
    code, _, _ = run_cli(capsys, "validate", demo_workspace_path, "z2", "--seed", "3")
    assert code == 0
    # a negative seed is a usage error before any command runs, whether it
    # draws random numbers (envelope) or not (validate)
    for command, name in (("envelope", "a4"), ("validate", "z2")):
        monkeypatch.setenv("FELLBUND_SEED", "-5")
        code, out, err = run_cli(capsys, command, demo_workspace_path, name)
        assert code == 2 and out == "", command
        assert "FELLBUND_SEED: expected an integer >= 0, got '-5'" in err, command
        monkeypatch.delenv("FELLBUND_SEED")
        code, out, err = run_cli(capsys, command, demo_workspace_path, name, "--seed", "-5")
        assert code == 2 and out == "", command
        assert err.startswith("error: seed: expected an integer >= 0, got -5"), command
