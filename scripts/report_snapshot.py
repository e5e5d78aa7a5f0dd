"""Write the CLI reports of a checkout to a directory, one file per command.

    python3 scripts/report_snapshot.py OUT [--root CHECKOUT] [--seeds 1 4]

Runs, in process, the 11 README demo commands, two more ``represent
--roundtrip`` fuzz runs, ``validate`` on the demo's two twisted partial
actions, ``exactness`` on the ideal given by blocks and ``validate``/``ideals``
on the ideal given by vectors on ``examples_ws/demo.json``, and
``validate``/``envelope``/``spectrum``/``quasi-orbits``/``ideals`` on every
bundle of the seeded benchmark workspace ``perfbench/workloads.certify_workspace(seed)``,
``norms`` on a seeded section over its ``m3-pair3`` (M_3 fibres over the pair
groupoid on three objects) added to that workspace, and ``validate`` on two
bundles written as structure-tensor workspaces: the seeded 1e-6
perturbation of ``a4-over-z2`` that ``tests/test_witnesses.py`` checks,
whose report lists norm-check witnesses with their residuals, and the
trivial line bundle over Z/8 with one ``mult`` entry's sign flipped, whose
report lists associativity and anti-multiplicativity witnesses in triple
and pair order.  A last temp
workspace holds two twisted partial actions: one on the pair groupoid of
{p, q} with fibres C and the diagonal C^2 (``validate`` and
``compile-action``), and Z/2 on M_2 with the ideal span{E12}, which has no
unit (``validate``: a report of witnesses).
Each command's stdout goes to its own file under OUT, and ``exit_codes.txt``
lists the exit status of every command.  No command convolves or involutes,
and only the two ``norms`` commands print a C*-norm, so
``section_kernels.txt`` adds, for two seeded sections xi and eta of every
bundle above (the demo's, each certify workspace's and the two
structure-tensor bundles), the SHA-256 digests of the bytes of
``convolve(xi, eta)``, ``involute(xi)`` and ``i_norm(xi)``, and of each
section's ``per_object_norms`` values in object order, ``cstar_norm`` and
``envelope_algebra(b).lambda_of`` (or the error these raise).  The
``envelope`` and ``spectrum`` reports show
only block sizes, so ``block_digests.txt`` adds, for each of those bundles,
the SHA-256 of the sizes, multiplicities and projections of its envelope
blocks and of the same with the irreducible frames, and the SHA-256 of the
projections, coordinates and irreducible frames of its unit-fibre spectrum
blocks (or the error either raises).  ``block_characters.txt`` lists, for
the same bundles, each envelope block and each spectrum block with its
size, its multiplicity and its traces tr(P·Λ(δ_i)) (tr(P·ρ_x(e_i)) on the
unit fibre at x) rounded to 6 decimals: two checkouts whose projections
differ only in their last bits read the same there, while
``block_digests.txt`` shows the change.  ``family_verdicts.txt`` lists,
for the same bundles with at most 256 candidates in the Fell-ideal search,
each candidate family with its block masks, its verdict and the SHA-256 of
its ``validate_invariant_family`` report, residuals included.
``structure_digests.txt`` lists, for the same bundles, the SHA-256 of the
shape and bytes of each of its ``mult_stacks`` items in composable-pair
order, of its ``inv_stacks`` items in arrow order and of its ``unit_rep``
in object order, so that a change to how a bundle is built shows even
where no report reads the last bits.  ``regular_digests.txt`` does the same
for the regular representation: per bundle and object, the SHA-256 of the
shape and bytes of each summand's Gram quotient maps phi and psi and of
its K blocks (or the error building it raises).  ``galois_reports.txt``
holds, for each bundle of the demo and of each certify workspace with at
most 16 delta images and at most 2^10 ideal pairs (2^(S+P), for S
unit-spectrum blocks and P envelope blocks), the JSON of its
``galois_check`` report, keys sorted: the check runs in no CLI command.
``action_digests.txt`` pins the twisted partial actions' bits, which the
CLI prints only as residuals: for the five gallery actions of the
benchmark's ``roundtrip`` workload (``perfbench/workloads.ACTIONS``), the
demo's two actions and the temp workspace's two, the SHA-256 of the
``validate_action`` report's JSON (keys sorted), of the ``mult`` and ``inv``
items of ``compile_to_fell_bundle`` and of the ``ideal_basis``, ``alpha``
and ``w`` of ``reconstruct_action`` of that bundle (or the error compiling
or reconstructing raises).
fellbund is imported from CHECKOUT's ``src`` (default: the checkout
holding this script), so two checkouts can be compared byte for byte:

    python3 scripts/report_snapshot.py /tmp/old --root ../old-checkout
    python3 scripts/report_snapshot.py /tmp/new
    diff -r /tmp/old /tmp/new
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile

import numpy as np

DEMO_COMMANDS = [
    ["validate", "z2"],
    ["validate", "swap-c2"],
    ["validate", "klein-twisted"],
    ["norms", "e-plus-g"],
    ["envelope", "a4"],
    ["spectrum", "a4"],
    ["quasi-orbits", "a4"],
    ["ideals", "a4"],
    ["exactness", "a4-pq"],
    ["exactness", "a4-pq-by-blocks"],
    ["validate", "a4-pq"],
    ["ideals", "a4-pq"],
    ["compile-action", "swap-c2"],
    ["represent", "sign"],
    ["represent", "z2-line", "--roundtrip", "--fuzz", "50"],
    # the round trips whose digits follow disintegrate's maps bit for bit:
    # z2-line's maps are 1 x 1
    ["represent", "a4", "--roundtrip", "--fuzz", "20"],
    ["represent", "pq-line", "--roundtrip", "--fuzz", "20"],
    ["trafo", "pq-compare"],
]
CERTIFY_COMMANDS = ["validate", "envelope", "spectrum", "quasi-orbits", "ideals"]


def structure_workspace(fb, bundles: dict, seed: int) -> dict:
    """The bundles (name -> FellBundle) as a structure-tensor workspace with
    config seed ``seed``, each over its own groupoid, named ``{name}-base``."""
    dump_complex, dump_matrix = fb.workspace.dump_complex, fb.workspace.dump_matrix
    groupoids, specs = {}, {}
    for name, b in bundles.items():
        G = b.groupoid
        groupoids[f"{name}-base"] = {"objects": list(G.objects),
                           "arrows": [{"id": g, "src": G.src[g], "rng": G.rng[g]} for g in G.arrows],
                           "units": dict(G.unit), "inv": dict(G.inv),
                           "comp": [[g, h, k] for (g, h), k in G.comp.items()]}
        specs[name] = {
            "groupoid": f"{name}-base", "fibers": {g: {"dim": b.dims[g]} for g in G.arrows},
            "mult": [[g, h, *map(int, index), dump_complex(t[index])]
                     for (g, h), t in b.mult.items() for index in np.ndindex(t.shape)],
            "inv": {g: dump_matrix(m) for g, m in b.inv.items()},
            "unit_algebras": {x: {"n": int(r.shape[1]), "basis": [dump_matrix(m) for m in r]}
                              for x, r in b.unit_rep.items()}}
    return {"config": {"seed": seed}, "groupoids": groupoids, "bundles": specs}


def perturbed_bundle(fb):
    """``perturbed(a4-over-z2, seed=len("a4-over-z2"))`` of
    tests/test_witnesses.py: every entry of every structure tensor plus 1e-6
    times a seeded complex normal (validated with config seed 3, as there)."""
    b = fb.gallery.a4_over_z2_bundle()
    rng = np.random.default_rng(len("a4-over-z2"))

    def noisy(tensors: dict) -> dict:
        return {k: t + 1e-6 * (rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape))
                for k, t in tensors.items()}
    mult, inv, unit_rep = noisy(b.mult), noisy(b.inv), noisy(b.unit_rep)
    return fb.FellBundle(b.groupoid, b.dims, mult, inv, unit_rep)


def flipped_bundle(fb):
    """The trivial line bundle over Z/8 (every structure tensor 1) with the
    sign of mult[(g1, g2)] flipped: its report lists associativity witnesses
    on every triple that meets that pair and anti-multiplicativity
    witnesses on (g1, g2) and on (g6, g7), whose inverses reverse it."""
    G = fb.groupoid.cyclic_group(8)
    one = np.ones((1, 1, 1), dtype=np.complex128)
    mult = {p: -one if p == ("g1", "g2") else one for p in fb.groupoid.composable_pairs(G)}
    return fb.FellBundle(G, {g: 1 for g in G.arrows}, mult,
                         {g: np.ones((1, 1)) for g in G.arrows}, {"pt": one})


def actions_workspace() -> dict:
    """Two twisted partial actions: "two-objects" on pair({p, q}) with F_p = C
    and F_q the diagonal C^2 in M_2, D_{q<p} = span{E11}, D_{p<q} = F_p,
    alpha = 1 both ways and w defaulted; "nilpotent", Z/2 on M_2 with
    D_g1 = span{E12}, alpha = 1 and w = 1 on every pair."""
    def unit(i: int, j: int, n: int = 2) -> list:
        return [[1.0 if (a, b) == (i, j) else 0.0 for b in range(n)] for a in range(n)]

    def group(objects: list, arrows: list, src: dict, rng: dict, units: dict, inv: dict,
              comp: dict) -> dict:
        return {"objects": objects,
                "arrows": [{"id": g, "src": src[g], "rng": rng[g]} for g in arrows],
                "units": units, "inv": inv, "comp": [[g, h, k] for (g, h), k in comp.items()]}
    objs = ["p", "q"]
    pq = [f"{x}<{y}" for x in objs for y in objs]
    pair = group(objs, pq, {f"{x}<{y}": y for x in objs for y in objs},
                 {f"{x}<{y}": x for x in objs for y in objs}, {x: f"{x}<{x}" for x in objs},
                 {f"{x}<{y}": f"{y}<{x}" for x in objs for y in objs},
                 {(f"{x}<{y}", f"{y}<{z}"): f"{x}<{z}" for x in objs for y in objs for z in objs})
    z2 = group(["pt"], ["e", "g1"], {"e": "pt", "g1": "pt"}, {"e": "pt", "g1": "pt"},
               {"pt": "e"}, {"e": "e", "g1": "g1"},
               {("e", "e"): "e", ("e", "g1"): "g1", ("g1", "e"): "g1", ("g1", "g1"): "e"})
    eye = [[1.0, 0.0], [0.0, 1.0]]
    return {"groupoids": {"pq": pair, "z2": z2}, "actions": {
        "two-objects": {"groupoid": "pq",
                        "fibers": {"p": {"n": 1, "basis": [[[1.0]]]},
                                   "q": {"n": 2, "basis": [unit(0, 0), unit(1, 1)]}},
                        "ideals": {"q<p": [unit(0, 0)], "p<q": [[[1.0]]]},
                        "alpha": {"q<p": [[1.0]], "p<q": [[1.0]]}},
        "nilpotent": {"groupoid": "z2",
                      "fibers": {"pt": {"n": 2, "basis": [unit(0, 0), unit(0, 1), unit(1, 0),
                                                          unit(1, 1)]}},
                      "ideals": {"g1": [unit(0, 1)]}, "alpha": {"g1": [[1.0]]},
                      "w": {key: eye for key in ("e,e", "e,g1", "g1,e", "g1,g1")}}}}


def seeded_section(fb, raw: dict, bundle: str, seed: int) -> dict:
    """A section of ``bundle`` in the workspace ``raw``: per arrow with a
    nonzero fibre, in declared order, d standard normal real parts and then d
    imaginary parts from numpy's generator ``[seed, 19]``, so that every
    checkout reads the same coefficients."""
    b = fb.workspace.Workspace.from_dict(raw).bundle(bundle)
    rng = np.random.default_rng([seed, 19])
    entries = {}
    for g in b.groupoid.arrows:
        if d := b.dims[g]:
            coords = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            entries[g] = [fb.workspace.dump_complex(z) for z in coords]
    return {"bundle": bundle, "entries": entries}


def kernel_digests(fb, label: str, bundles: dict, seed: int, tols) -> list[str]:
    """Per bundle (name -> FellBundle), one line per kernel: the SHA-256 of
    the bytes of convolve(xi, eta), involute(xi) and i_norm(xi), and, for
    each of xi and eta, of its ``per_object_norms`` values in object order,
    its ``cstar_norm`` and ``envelope_algebra(b).lambda_of``, with xi and
    eta drawn per arrow in declared order, d standard normal real parts and
    then d imaginary parts, from numpy's generator ``[seed, 23]``.  A norm
    line holds the ValueError instead, if one is raised."""
    def norms(b, f):
        yield "per_object_norms", np.array(list(fb.envelope.per_object_norms(b, f, tols).values()))
        yield "cstar_norm", np.float64(fb.cstar_norm(b, f, tols))
        yield "lambda_of", fb.envelope_algebra(b, tols).lambda_of(f)

    rng = np.random.default_rng([seed, 23])
    lines = []
    for name, b in bundles.items():
        xi, eta = (fb.Section(b, {g: rng.standard_normal(b.dims[g])
                                  + 1j * rng.standard_normal(b.dims[g])
                                  for g in b.groupoid.arrows}) for _ in range(2))
        for kernel, value in (("convolve", fb.convolve(xi, eta).pack()),
                              ("involute", fb.involute(xi).pack()),
                              ("i_norm", np.float64(fb.i_norm(xi)))):
            digest = hashlib.sha256(value.tobytes()).hexdigest()
            lines.append(f"{label} {name} {kernel} {digest}")
        for which, f in (("xi", xi), ("eta", eta)):
            try:
                for kernel, value in norms(b, f):
                    digest = hashlib.sha256(value.tobytes()).hexdigest()
                    lines.append(f"{label} {name} {kernel}({which}) {digest}")
            except ValueError as exc:
                lines.append(f"{label} {name} norms({which}) error: {exc}")
    return lines


def block_digests(fb, label: str, bundles: dict, tols) -> list[str]:
    """Per bundle (name -> FellBundle), two lines.  The first is the SHA-256
    of the size, multiplicity and projection bytes of each block of
    ``envelope_algebra`` and then of each block of
    ``irreducible_envelope_blocks`` with its irreducible frame, in the order
    fellbund sorts them.  The second is the SHA-256 of the dimension,
    projection, unit-fibre coordinate and frame bytes of each
    ``fiber_spectrum`` block, object by object.  A line holds the ValueError
    instead, if one is raised."""
    def envelope_bytes(b):
        for blocks in (fb.envelope.envelope_algebra(b, tols).blocks,
                       fb.envelope.irreducible_envelope_blocks(b, tols)):
            for block in blocks:
                yield np.array([block.size, block.multiplicity]).tobytes()
                yield block.projection.tobytes()
                if block.irrep_frame is not None:
                    yield block.irrep_frame.tobytes()

    def spectrum_bytes(b):
        for block in fb.spectrum.fiber_spectrum(b, tols).blocks():
            yield np.array([block.dim]).tobytes()
            for array in (block.projection, block.coords, block.frame):
                yield array.tobytes()

    lines = []
    for name, b in bundles.items():
        for kind, parts in (("blocks", envelope_bytes), ("spectrum", spectrum_bytes)):
            digest = hashlib.sha256()
            try:
                for part in parts(b):
                    digest.update(part)
            except ValueError as exc:
                lines.append(f"{label} {name} {kind} error: {exc}")
                continue
            lines.append(f"{label} {name} {kind} {digest.hexdigest()}")
    return lines


def block_characters(fb, label: str, bundles: dict, tols) -> list[str]:
    """Per bundle (name -> FellBundle), one line per block of
    ``envelope_algebra`` and then per ``fiber_spectrum`` block, in the order
    fellbund sorts them: its size, its multiplicity and the real and
    imaginary parts of its traces tr(P·Λ(δ_i)) over the delta images (for a
    spectrum block at x, tr(P·ρ_x(e_i)) over the unit fibre's
    representation), rounded to 6 decimals, with -0 read as 0.  A ValueError
    gives the line ``error``, without its message, which names the failing
    check as each checkout words it."""
    def traces(projection, stack) -> str:
        values = np.round(np.einsum("ab,kba->k", projection, stack).view(np.float64), 6)
        return " ".join(f"{v + 0.0:.6f}" for v in values)

    def envelope_lines(b):
        env = fb.envelope.envelope_algebra(b, tols)
        for k, block in enumerate(env.blocks):
            yield (f"envelope {k} size {block.size} mult {block.multiplicity} "
                   f"traces {traces(block.projection, env.images)}")

    def spectrum_lines(b):
        for block in fb.spectrum.fiber_spectrum(b, tols).blocks():
            mult = round(float(np.trace(block.projection).real)) // block.dim
            yield (f"spectrum {block.obj} {block.index} size {block.dim} mult {mult} "
                   f"traces {traces(block.projection, b.unit_rep[block.obj])}")

    lines = []
    for name, b in bundles.items():
        for kind, parts in (("envelope", envelope_lines), ("spectrum", spectrum_lines)):
            try:
                got = list(parts(b))
            except ValueError:
                got = [f"{kind} error"]
            lines.extend(f"{label} {name} {line}" for line in got)
    return lines


def family_verdicts(fb, label: str, bundles: dict, tols) -> list[str]:
    """Per bundle (name -> FellBundle) with at most 256 candidate
    families in the Fell-ideal search, one line per candidate, in the
    search's order: its block masks per object, whether
    ``validate_invariant_family`` passes and the SHA-256 of its report's
    JSON with sorted keys, residuals included.  The search runs first and
    the candidates are formed as it forms them, so a checkout that keeps
    the search's checks reports what it recorded.  A ValueError from the
    spectrum or the search gives the line ``error``."""
    ideals, spectrum = fb.ideals, fb.spectrum
    lines = []
    for name, b in bundles.items():
        try:
            spec = spectrum.fiber_spectrum(b, tols)
            G = b.groupoid
            counts = [len(spec.by_object[x]) for x in G.objects]
            if 2 ** sum(counts) > 256:
                continue
            ideals.enumerate_fell_ideals(b, tols)
            frames = [[spectrum.support_frame(b, x, [k for k in spec.by_object[x]
                                                     if mask >> k.index & 1], tols)
                       for mask in range(2 ** c)] for x, c in zip(G.objects, counts)]
            for combo in itertools.product(*[range(2 ** c) for c in counts]):
                family = ideals.InvariantFamily(b, {x: frames[i][mask] for i, (x, mask)
                                                    in enumerate(zip(G.objects, combo))})
                rep = ideals.validate_invariant_family(family, tols)
                digest = hashlib.sha256(json.dumps(rep.to_json(), sort_keys=True).encode())
                lines.append(f"{label} {name} masks {','.join(map(str, combo))} "
                             f"ok {rep.ok} {digest.hexdigest()}")
        except ValueError:
            lines.append(f"{label} {name} error")
    return lines


def structure_digests(label: str, bundles: dict) -> list[str]:
    """Per bundle (name -> FellBundle), one line per kind of structure
    tensor: the SHA-256 of the shape and bytes of each ``mult_stacks`` item,
    each ``inv_stacks`` item and each ``unit_rep`` matrix stack, in order."""
    lines = []
    for name, b in bundles.items():
        for kind, tensors in (("mult", b.mult_stacks), ("inv", b.inv_stacks),
                              ("unit_rep", [b.unit_rep[x] for x in b.groupoid.objects])):
            digest = hashlib.sha256()
            for t in tensors:
                digest.update(np.array(t.shape).tobytes())
                digest.update(np.ascontiguousarray(t).tobytes())
            lines.append(f"{label} {name} {kind} {digest.hexdigest()}")
    return lines


def regular_digests(fb, label: str, bundles: dict, tols) -> list[str]:
    """Per bundle (name -> FellBundle) and object x, one line: the SHA-256
    of phi and psi of each summand g in G_x of ``regular_at(bundle, x)``, in
    declared order, each with the name g, and then of each K block with its
    key "h,g", in the order it holds them; every array by its shape and
    bytes.  A line holds the ValueError instead, if one is raised."""
    def parts(b, x):
        reg = fb.envelope.regular_at(b, x, tols)
        named = [(g, a) for g in reg.summands for a in (reg.phi[g], reg.psi[g])]
        named += [(",".join(key), block) for key, block in reg.blocks.items()]
        for key, a in named:
            yield key.encode()
            yield np.array(a.shape).tobytes()
            yield np.ascontiguousarray(a).tobytes()

    lines = []
    for name, b in bundles.items():
        for x in b.groupoid.objects:
            digest = hashlib.sha256()
            try:
                for part in parts(b, x):
                    digest.update(part)
            except ValueError as exc:
                lines.append(f"{label} {name} {x} error: {exc}")
                continue
            lines.append(f"{label} {name} {x} {digest.hexdigest()}")
    return lines


def galois_reports(fb, label: str, bundles: dict, tols) -> list[str]:
    """Per bundle (name -> FellBundle) with at most 16 delta images and at
    most 2^10 pairs of a coefficient ideal and an envelope ideal, one line:
    the JSON of ``galois_check``, keys sorted.  A ValueError gives the line
    ``error``.  The bounds read only the bundle, its spectrum and its
    envelope, so every checkout reports the same bundles."""
    lines = []
    for name, b in bundles.items():
        try:
            if b.total_dim > 16:
                continue
            blocks = len(fb.spectrum.fiber_spectrum(b, tols).blocks()) + \
                len(fb.envelope.envelope_algebra(b, tols).blocks)
            if blocks > 10:  # 2^blocks ideal pairs
                continue
            report = fb.spectrum.galois_check(b, tols).to_json()
            lines.append(f"{label} {name} {json.dumps(report, sort_keys=True)}")
        except ValueError:
            lines.append(f"{label} {name} error")
    return lines


def action_digests(fb, label: str, actions: dict, tols) -> list[str]:
    """Per twisted partial action (name -> TwistedPartialAction), one line
    for the SHA-256 of its ``validate_action`` report's JSON with sorted
    keys, then one line per kind of array: the ``mult`` items (composable-
    pair order) and ``inv`` items (arrow order) of ``compile_to_fell_bundle``,
    and the ``ideal_basis`` and ``alpha`` items (arrow order) and ``w`` items
    (composable-pair order) of ``reconstruct_action`` of that bundle, each
    digest over the shape and bytes of its items in order.  Where compiling
    or reconstructing raises a ValueError, its line holds the error's first
    line (the report's digest already pins the rest)."""
    actions_module, groupoid_module = fb.actions, fb.groupoid

    def digest(arrays) -> str:
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.array(np.shape(a)).tobytes())
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    lines = []
    for name, T in actions.items():
        report = actions_module.validate_action(T, tols).to_json()
        text = json.dumps(report, sort_keys=True).encode()
        lines.append(f"{label} {name} report {hashlib.sha256(text).hexdigest()}")
        G = T.groupoid
        pairs = groupoid_module.composable_pairs(G)
        try:
            b = actions_module.compile_to_fell_bundle(T, tols)
        except ValueError as exc:
            lines.append(f"{label} {name} compile error: {str(exc).splitlines()[0]}")
            continue
        lines.append(f"{label} {name} mult {digest(b.mult[p] for p in pairs)}")
        lines.append(f"{label} {name} inv {digest(b.inv[g] for g in G.arrows)}")
        try:
            R = actions_module.reconstruct_action(b, tols)
        except ValueError as exc:
            lines.append(f"{label} {name} reconstruct error: {str(exc).splitlines()[0]}")
            continue
        for kind, arrays in (("ideal_basis", [R.ideal_basis[g] for g in G.arrows]),
                             ("alpha", [R.alpha[g] for g in G.arrows]),
                             ("w", [R.w[p] for p in pairs])):
            lines.append(f"{label} {name} {kind} {digest(arrays)}")
    return lines


def workspace_bundles(fb, raw: dict) -> tuple[dict, object]:
    """The bundles of a workspace (name -> FellBundle) and its tolerances."""
    ws = fb.workspace.Workspace.from_dict(raw)
    return {name: ws.bundle(name) for name in ws.names("bundles")}, ws.tols


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="directory for the report files (created)")
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        help="checkout whose fellbund to run (default: this one)")
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 4],
                        help="certify_workspace seeds (default: 1 4)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    # the library and the benchmark's workspace generator of that checkout
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import fellbund
    import fellbund.actions
    import fellbund.cli
    import fellbund.envelope
    import fellbund.gallery
    import fellbund.ideals
    import fellbund.spectrum
    import fellbund.workspace
    from workloads import ACTIONS, CERTIFY_BUNDLES, certify_workspace

    jobs = []  # (file name, argv)
    demo = os.path.join(root, "examples_ws", "demo.json")
    for cmd in DEMO_COMMANDS:
        jobs.append(("demo " + " ".join(c.lstrip("-") for c in cmd), [cmd[0], demo, *cmd[1:]]))
    os.makedirs(args.out, exist_ok=True)
    codes, kernels, blocks, characters, verdicts, structures, regulars, galois = \
        [], [], [], [], [], [], [], []

    def add_digests(label: str, raw: dict, seed: int, with_galois: bool = True) -> None:
        bundles, tols = workspace_bundles(fellbund, raw)
        kernels.extend(kernel_digests(fellbund, label, bundles, seed, tols))
        blocks.extend(block_digests(fellbund, label, bundles, tols))
        characters.extend(block_characters(fellbund, label, bundles, tols))
        verdicts.extend(family_verdicts(fellbund, label, bundles, tols))
        structures.extend(structure_digests(label, bundles))
        regulars.extend(regular_digests(fellbund, label, bundles, tols))
        if with_galois:
            galois.extend(galois_reports(fellbund, label, bundles, tols))
    with open(demo) as fh:
        demo_raw = json.load(fh)
    add_digests("demo", demo_raw, 0)
    actions = action_digests(fellbund, "gallery",
                             {a: getattr(fellbund.gallery, a)() for a in ACTIONS},
                             fellbund.DEFAULT)
    for label, raw in (("demo", demo_raw), ("actions", actions_workspace())):
        ws = fellbund.workspace.Workspace.from_dict(raw)
        actions += action_digests(fellbund, label, {a: ws.action(a) for a in ws.names("actions")},
                                  ws.tols)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            ws = os.path.join(tmp, f"certify-{seed}.json")
            raw = certify_workspace(seed)
            raw["sections"] = {"m3-pair3-seeded": seeded_section(fellbund, raw, "m3-pair3", seed)}
            with open(ws, "w") as fh:
                json.dump(raw, fh)
            add_digests(f"certify{seed}", raw, seed)
            for name, *_ in CERTIFY_BUNDLES:
                for cmd in CERTIFY_COMMANDS:
                    jobs.append((f"certify{seed} {cmd} {name}", [cmd, ws, name]))
            jobs.append((f"certify{seed} norms m3-pair3-seeded", ["norms", ws, "m3-pair3-seeded"]))
        for label, name, bundle, seed in (
                ("perturbed", "a4-over-z2-perturbed", perturbed_bundle(fellbund), 3),
                ("flipped", "z8-flipped", flipped_bundle(fellbund), 0)):
            ws = os.path.join(tmp, f"{label}.json")
            raw = structure_workspace(fellbund, {name: bundle}, seed)
            with open(ws, "w") as fh:
                json.dump(raw, fh)
            add_digests(label, raw, seed, with_galois=False)
            jobs.append((f"{label} validate {name.rsplit('-', 1)[0]}", ["validate", ws, name]))
        ws = os.path.join(tmp, "actions.json")
        with open(ws, "w") as fh:
            json.dump(actions_workspace(), fh)
        for cmd, name in (("validate", "two-objects"), ("compile-action", "two-objects"),
                          ("validate", "nilpotent")):
            jobs.append((f"actions {cmd} {name}", [cmd, ws, name]))
        for label, cli_argv in jobs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = fellbund.cli.main(cli_argv)
            with open(os.path.join(args.out, label.replace(" ", "_") + ".out"), "w") as fh:
                fh.write(out.getvalue())
            codes.append(f"{code} {label}")
    with open(os.path.join(args.out, "exit_codes.txt"), "w") as fh:
        fh.write("\n".join(codes) + "\n")
    with open(os.path.join(args.out, "section_kernels.txt"), "w") as fh:
        fh.write("\n".join(kernels) + "\n")
    with open(os.path.join(args.out, "block_digests.txt"), "w") as fh:
        fh.write("\n".join(blocks) + "\n")
    with open(os.path.join(args.out, "block_characters.txt"), "w") as fh:
        fh.write("\n".join(characters) + "\n")
    with open(os.path.join(args.out, "family_verdicts.txt"), "w") as fh:
        fh.write("\n".join(verdicts) + "\n")
    with open(os.path.join(args.out, "structure_digests.txt"), "w") as fh:
        fh.write("\n".join(structures) + "\n")
    with open(os.path.join(args.out, "regular_digests.txt"), "w") as fh:
        fh.write("\n".join(regulars) + "\n")
    with open(os.path.join(args.out, "galois_reports.txt"), "w") as fh:
        fh.write("\n".join(galois) + "\n")
    with open(os.path.join(args.out, "action_digests.txt"), "w") as fh:
        fh.write("\n".join(actions) + "\n")
    print(f"{len(jobs)} reports written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
