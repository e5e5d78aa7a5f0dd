import json

import pytest

from fellbund.cli import main


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


def test_non_finite_report_is_an_error_not_bare_nan(tmp_path, capsys):
    # i_norm overflows while forming a*a; the report must not print NaN
    def scale(raw):
        raw["sections"]["f"]["entries"] = {"e": [1e200], "g1": [[0.0, 1e200]]}
    path = _write_demo(tmp_path, scale)
    code, out, err = run_cli(capsys, "norms", path, "f")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


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
