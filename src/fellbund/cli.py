"""Batch front end: load a JSON workspace, run one command, emit a report.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage / parse /
reference error.  Reports are byte-identical across runs for a fixed
workspace and seed; pass --human for text instead of JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import _linalg as la
from .actions import _compiled, _validated, validate_action
from .bundle import saturation_check, validate_fell_bundle
from .envelope import (borderline_notes, cstar_norm, envelope_algebra, per_object_norms,
                       sharper_norm_bound)
from .groupoid import validate_groupoid, validate_partial_action
from .ideals import enumerate_fell_ideals, exactness_verify, validate_fell_ideal
from .report import ValidationReport
from .reps import integrate, random_fellrep, validate_rep
from .sections import i_norm, random_section
from .spectrum import dual_groupoid, fiber_spectrum, ideal_bijection_check, lattice, quasi_orbits
from .trafo import assemble_over_base, trafo_isomorphism_check
from .workspace import Workspace, WorkspaceError


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ws = Workspace.load(args.workspace, tolerance=args.tolerance, seed=args.seed)
        payload, ok = COMMANDS[args.command](ws, args)
    except (WorkspaceError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.human:
        print(render_human(payload))
    else:
        try:
            text = json.dumps(payload, sort_keys=True, indent=2, default=_json_default,
                              allow_nan=False)
        except ValueError as exc:
            print(f"error: the report holds a non-finite number ({exc})", file=sys.stderr)
            return 1
        print(text)
    return 0 if ok else 1


def positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {raw!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="fellbund",
        description="Fell bundles over finite groupoids: validation, norms, "
                    "envelopes, spectra, ideals, exactness, representations.")
    common = argparse.ArgumentParser(add_help=False)
    # checked (finite, > 0) with the config values in Workspace.from_dict
    common.add_argument("--tolerance", type=float, default=None,
                        help="override the workspace tolerance")
    common.add_argument("--seed", type=int, default=None,
                        help="override the workspace seed (FELLBUND_SEED also works)")
    common.add_argument("--human", action="store_true",
                        help="text output instead of JSON")
    common.add_argument("--fuzz", type=positive_int, default=50,
                        help="sample count for property commands")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_, *names):
        p = sub.add_parser(name, help=help_, parents=[common])
        p.add_argument("workspace", help="path to the JSON workspace")
        for n in names:
            p.add_argument(n)
        return p

    cmd("validate", "validate any named entry", "name")
    cmd("compile-action", "compile a twisted partial action to a Fell bundle", "name")
    cmd("norms", "I-norm and C*-norm of a section", "name")
    cmd("envelope", "block structure of the section C*-algebra", "name")
    cmd("spectrum", "fibre spectra and the dual groupoid", "name")
    cmd("quasi-orbits", "orbit partition of the fibre spectrum", "name")
    cmd("ideals", "enumerate Fell ideals of a bundle (or validate a named ideal)", "name")
    cmd("exactness", "verify the ideal/quotient C*-extension", "name")
    rep = cmd("represent", "validate a representation, or fuzz round trips", "name")
    rep.add_argument("--roundtrip", action="store_true",
                     help="treat NAME as a bundle and fuzz random representations")
    cmd("trafo", "compare a bundle over a transformation groupoid with its "
        "repackaging over the base", "name")
    return parser


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serialisable: {type(obj)}")


def render_human(payload: dict) -> str:
    lines = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}{k}.", value[k])
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, v in enumerate(value):
                walk(f"{prefix}{i}.", v)
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    walk("", payload)
    return "\n".join(lines)


def _report_payload(report: ValidationReport) -> tuple[dict, bool]:
    return report.to_json(), report.ok


def cmd_validate(ws: Workspace, args) -> tuple[dict, bool]:
    kind, _ = ws.find(args.name)
    if kind == "groupoids":
        return _report_payload(validate_groupoid(ws.groupoid(args.name)))
    if kind == "bundles":
        return _report_payload(validate_fell_bundle(ws.bundle(args.name), ws.tols))
    if kind == "actions":
        return _report_payload(validate_action(ws.action(args.name), ws.tols))
    if kind == "ideals":
        return _report_payload(validate_fell_ideal(ws.ideal(args.name), ws.tols))
    if kind == "reps":
        return _report_payload(validate_rep(ws.rep(args.name), ws.tols))
    if kind == "set_actions":
        return _report_payload(validate_partial_action(ws.set_action(args.name)))
    if kind == "sections":
        ws.section(args.name)
        return {"subject": f"section {args.name}", "ok": True, "violations": [],
                "notes": []}, True
    raise WorkspaceError(f"{args.name!r} ({kind}) has no validator")


def cmd_compile_action(ws: Workspace, args) -> tuple[dict, bool]:
    action = ws.action(args.name)
    check, table = _validated(action, ws.tols)
    if not check.ok:
        return check.to_json(), False
    bundle = _compiled(action, table, args.name)
    bcheck = validate_fell_bundle(bundle, ws.tols)
    sat = saturation_check(bundle, ws.tols)
    payload = {
        "action": args.name,
        "fiber_dims": {g: bundle.dims[g] for g in bundle.groupoid.arrows},
        "saturated": {g: bool(v) for g, v in sat.items()},
        "bundle_valid": bcheck.ok,
        "bundle_report": bcheck.to_json(),
    }
    return payload, bcheck.ok


def cmd_norms(ws: Workspace, args) -> tuple[dict, bool]:
    f = ws.section(args.name)
    envelope_algebra(f.bundle, ws.tols)  # its checks make Lambda a *-representation
    norms = per_object_norms(f.bundle, f, ws.tols)
    c, i = max(norms.values(), default=0.0), i_norm(f)
    payload = {
        "section": args.name,
        "i_norm": i,
        "cstar_norm": c,
        "sharper_upper_bound": sharper_norm_bound(f.bundle, f, ws.tols),
        "per_object_norms": norms,
    }
    # relative, so that it holds at every scale of f
    return payload, c <= i + ws.tols.tolerance * max(1.0, i)


def cmd_envelope(ws: Workspace, args) -> tuple[dict, bool]:
    env = envelope_algebra(ws.bundle(args.name), ws.tols)
    notes = borderline_notes(env.bundle, ws.tols)
    payload = {
        "bundle": args.name,
        "blocks": env.block_summary(),
        "dim": env.dim,
        "per_object_dims": dict(env.per_object_dims),
        "injective": env.injective,
        "gram_notes": notes,
    }
    return payload, env.injective


def _spectrum_payload(ws: Workspace, name: str) -> dict:
    bundle = ws.bundle(name)
    spec = fiber_spectrum(bundle, ws.tols)
    dual = dual_groupoid(bundle, ws.tols)
    lat = lattice(bundle, ws.tols)
    return {
        "bundle": name,
        "objects": [[b.obj, b.index, b.dim] for b in spec.blocks()],
        "arrows": [[g, list(skey), list(tkey)]
                   for (g, skey, tkey) in dual.arrow_data.values()],
        "orbits": [[list(k) for k in orbit] for orbit in quasi_orbits(bundle, ws.tols)],
        "invariant_subsets": len(lat.invariant),
        "fell_ideals": len(lat.fell),
        "note": "finite spectra are discrete; quasi-orbits coincide with orbits",
    }


def cmd_spectrum(ws: Workspace, args) -> tuple[dict, bool]:
    payload = _spectrum_payload(ws, args.name)
    check = ideal_bijection_check(ws.bundle(args.name), ws.tols)
    payload["bijection_ok"] = check.ok
    return payload, check.ok


def cmd_quasi_orbits(ws: Workspace, args) -> tuple[dict, bool]:
    payload = _spectrum_payload(ws, args.name)
    return payload, payload["invariant_subsets"] == payload["fell_ideals"]


def cmd_ideals(ws: Workspace, args) -> tuple[dict, bool]:
    kind, _ = ws.find(args.name)
    if kind == "ideals":
        ideal = ws.ideal(args.name)
        check = validate_fell_ideal(ideal, ws.tols)
        payload = check.to_json()
        payload["fiber_dims"] = {g: ideal.dim(g) for g in ideal.bundle.groupoid.arrows}
        return payload, check.ok
    bundle = ws.bundle(args.name)
    found = enumerate_fell_ideals(bundle, ws.tols)
    check = ideal_bijection_check(bundle, ws.tols)
    payload = {
        "bundle": args.name,
        "count": len(found),
        "ideals": [{g: I.dim(g) for g in bundle.groupoid.arrows} for I in found],
        "bijection": check.to_json(),
    }
    return payload, check.ok


def cmd_exactness(ws: Workspace, args) -> tuple[dict, bool]:
    ideal = ws.ideal(args.name)
    report = exactness_verify(ideal.bundle, ideal, ws.tols)
    payload = report.to_json()
    payload["ideal"] = args.name
    return payload, report.ok


def cmd_represent(ws: Workspace, args) -> tuple[dict, bool]:
    tols = ws.tols
    if getattr(args, "roundtrip", False):
        bundle = ws.bundle(args.name)
        rng = np.random.default_rng(tols.seed)
        from .reps import disintegrate
        worst = 0.0
        for _ in range(args.fuzz):
            R = random_fellrep(bundle, rng, tols)
            L = integrate(R)
            R2 = disintegrate(bundle, L.matrix, L.dim, tols)
            for g in bundle.groupoid.arrows:
                worst = max(worst, float(np.linalg.norm(
                    np.asarray(R.maps[g]) - np.asarray(R2.maps[g]))))
        payload = {"bundle": args.name, "samples": args.fuzz,
                   "max_roundtrip_residual": worst}
        return payload, worst <= 1e-8
    R = ws.rep(args.name)
    check = validate_rep(R, tols)
    payload = check.to_json()
    if check.ok:
        L = integrate(R)
        rng = np.random.default_rng(tols.seed)
        worst_gap = 0.0
        for _ in range(min(args.fuzz, 25)):
            f = random_section(R.bundle, rng)
            norm_l = la.operator_norm(L.matrix(f))
            bound = min(i_norm(f), cstar_norm(R.bundle, f, tols))
            worst_gap = max(worst_gap, norm_l - bound)
        payload["max_norm_excess"] = worst_gap
        return payload, worst_gap <= tols.tolerance
    return payload, False


def cmd_trafo(ws: Workspace, args) -> tuple[dict, bool]:
    action, H, arrow_dict, bundle = ws.trafo_instance(args.name)
    assembled = assemble_over_base(action, H, arrow_dict, bundle)
    report, summary = trafo_isomorphism_check(assembled, ws.tols)
    payload = {
        "comparison": args.name,
        "report": report.to_json(),
        "envelopes": summary,
        "base_fiber_dims": {g: assembled.base_bundle.dims[g]
                            for g in assembled.base_bundle.groupoid.arrows},
    }
    return payload, report.ok


COMMANDS = {
    "validate": cmd_validate,
    "compile-action": cmd_compile_action,
    "norms": cmd_norms,
    "envelope": cmd_envelope,
    "spectrum": cmd_spectrum,
    "quasi-orbits": cmd_quasi_orbits,
    "ideals": cmd_ideals,
    "exactness": cmd_exactness,
    "represent": cmd_represent,
    "trafo": cmd_trafo,
}


if __name__ == "__main__":
    sys.exit(main())
