"""The three benchmark workloads, their seeded inputs and their oracles.

Every workload is one client in a closed loop: the runner calls the ops of
one cycle in order, each after the previous one has returned.  An op raises
``Mismatch`` when fellbund's answer disagrees with the closed-form oracle,
or returns a check that does so and that the runner calls outside the timed
region; any other exception is a failure too, never a crash of the
benchmark.

fellbund is reached only through attribute lookups at call time
(``fb.convolve``, ``fb.cli.main``), so the outside-in tracer in
``tracer.py`` sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import fellbund as fb
import fellbund.cli
import fellbund.gallery

ROUNDTRIP_TOL = 1e-8   # as in `fellbund represent --roundtrip`
NORM_RTOL = 1e-8       # C*-identity and C*-norm <= I-norm, relative


class Mismatch(Exception):
    """fellbund returned an answer that disagrees with the oracle."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise Mismatch(what)


# -- seeded inputs ------------------------------------------------------------


def _cx(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _mat(m: np.ndarray) -> list:
    return [[_cx(z) for z in row] for row in m]


def pair_groupoid_spec(n: int) -> dict:
    """pair(n): one arrow a{i}_{j} from x{j} to x{i} for every i, j."""
    objs = [f"x{i}" for i in range(n)]
    arrows = [{"id": f"a{i}_{j}", "src": f"x{j}", "rng": f"x{i}"}
              for i in range(n) for j in range(n)]
    return {
        "objects": objs,
        "arrows": arrows,
        "units": {f"x{i}": f"a{i}_{i}" for i in range(n)},
        "inv": {f"a{i}_{j}": f"a{j}_{i}" for i in range(n) for j in range(n)},
        "comp": [[f"a{i}_{j}", f"a{j}_{k}", f"a{i}_{k}"]
                 for i in range(n) for j in range(n) for k in range(n)],
    }


def cyclic_groupoid_spec(n: int) -> dict:
    """Z/n as a one-object groupoid with arrows g0..g{n-1}."""
    arrows = [{"id": f"g{k}", "src": "pt", "rng": "pt"} for k in range(n)]
    return {
        "objects": ["pt"],
        "arrows": arrows,
        "units": {"pt": "g0"},
        "inv": {f"g{k}": f"g{(n - k) % n}" for k in range(n)},
        "comp": [[f"g{a}", f"g{b}", f"g{(a + b) % n}"] for a in range(n) for b in range(n)],
    }


def phased_line_bundle_spec(groupoid: str, spec: dict, rng: np.random.Generator) -> dict:
    """Matrix-model line bundle: the fibre at g is spanned by a seeded
    unit-modulus phase, so every structure tensor carries a phase."""
    fibers = {}
    for a in spec["arrows"]:
        phase = np.exp(2j * np.pi * rng.random())
        fibers[a["id"]] = [_mat(np.array([[phase]]))]
    return {"groupoid": groupoid, "model": "matrix", "fibers": fibers}


def rotated_matrix_bundle_spec(groupoid: str, spec: dict, k: int,
                               rng: np.random.Generator) -> dict:
    """M_k fibres over a groupoid, after a seeded unitary change of basis
    per object: the fibre at g: y -> x is U_x M_k U_y^*."""
    U = {}
    for x in spec["objects"]:
        z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        q, r = np.linalg.qr(z)
        U[x] = q * (np.diag(r) / np.abs(np.diag(r)))
    fibers = {}
    for a in spec["arrows"]:
        ux, uy = U[a["rng"]], U[a["src"]]
        mats = []
        for p in range(k):
            for q in range(k):
                e = np.zeros((k, k), dtype=np.complex128)
                e[p, q] = 1.0
                mats.append(_mat(ux @ e @ uy.conj().T))
        fibers[a["id"]] = mats
    return {"groupoid": groupoid, "model": "matrix", "fibers": fibers}


# Bundles of the certify workspace: (bundle name, groupoid name, kind, size)
# with the closed-form block structure of the section C*-algebra.  Names are
# unique across tables: Workspace.find searches groupoids first, so a
# groupoid sharing a bundle's name would shadow it in `validate`.
CERTIFY_BUNDLES = [
    ("line-pair3", "G-pair3", "pair", 3),
    ("line-pair5", "G-pair5", "pair", 5),
    ("line-pair7", "G-pair7", "pair", 7),
    ("line-z8", "G-z8", "cyclic", 8),
    ("line-z16", "G-z16", "cyclic", 16),
    ("line-z24", "G-z24", "cyclic", 24),
    ("m3-pair3", "G-pair3", "m3", 3),
]


def expected_blocks(kind: str, n: int) -> list[dict]:
    """Closed-form envelope blocks, sorted as fellbund sorts them."""
    if kind == "pair":      # C*(pair(n)) = M_n, n copies of C^n in the sum
        return [{"size": n, "multiplicity": n}]
    if kind == "cyclic":    # C*(Z/n) = C^n, each character once
        return [{"size": 1, "multiplicity": 1}] * n
    if kind == "m3":        # M_3 (x) M_n = M_3n, n copies of C^3n
        return [{"size": 3 * n, "multiplicity": n}]
    raise ValueError(kind)


def certify_workspace(seed: int) -> dict:
    rng = np.random.default_rng([seed, 11])
    groupoids, bundles = {}, {}
    for name, gname, kind, n in CERTIFY_BUNDLES:
        if gname not in groupoids:
            groupoids[gname] = (cyclic_groupoid_spec(n) if kind == "cyclic"
                                else pair_groupoid_spec(n))
        spec = groupoids[gname]
        bundles[name] = (rotated_matrix_bundle_spec(gname, spec, 3, rng) if kind == "m3"
                         else phased_line_bundle_spec(gname, spec, rng))
    return {"config": {"seed": 0, "tolerance": 1e-9},
            "groupoids": groupoids, "bundles": bundles}


def line_bundle(kind: str, n: int, seed: int) -> "fb.FellBundle":
    """A phased line bundle built through the workspace loader."""
    rng = np.random.default_rng([seed, 13, n])
    spec = pair_groupoid_spec(n) if kind == "pair" else cyclic_groupoid_spec(n)
    raw = {"groupoids": {"G": spec},
           "bundles": {"B": phased_line_bundle_spec("G", spec, rng)}}
    return fb.Workspace.from_dict(raw).bundle("B")


# -- certify: cold CLI jobs ---------------------------------------------------


def run_cli(argv: list[str]) -> dict:
    """One in-process `fellbund` command; its JSON report, or Mismatch on a
    nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fb.cli.main(argv)
    expect(code == 0, f"exit {code}: {err.getvalue().strip()[:200]}")
    return json.loads(out.getvalue())


def _near(a: float, b: float, rtol: float = 1e-9) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def demo_ops(demo: str) -> list[tuple[str, object]]:
    """The README commands on the shipped demo workspace, each with the
    mathematical facts its report must show."""

    def validate_z2():
        expect(run_cli(["validate", demo, "z2"])["ok"], "z2 groupoid invalid")

    def norms():
        r = run_cli(["norms", demo, "e-plus-g"])
        # 1 + g on Z/2: the characters give |1 +- 1|, so both norms are 2
        expect(_near(r["i_norm"], 2.0) and _near(r["cstar_norm"], 2.0), f"norms {r}")

    def envelope():
        r = run_cli(["envelope", demo, "a4"])
        want = [{"size": 1, "multiplicity": 1}, {"size": 1, "multiplicity": 1},
                {"size": 2, "multiplicity": 2}]
        expect(r["blocks"] == want and r["injective"] and r["dim"] == 6, f"a4 blocks {r['blocks']}")

    def spectrum():
        r = run_cli(["spectrum", demo, "a4"])
        expect(r["bijection_ok"] and r["fell_ideals"] == 4 and len(r["orbits"]) == 2,
               "a4 spectrum")

    def quasi_orbits():
        r = run_cli(["quasi-orbits", demo, "a4"])
        expect(r["invariant_subsets"] == 4 and r["fell_ideals"] == 4, "a4 quasi-orbits")

    def ideals():
        r = run_cli(["ideals", demo, "a4"])
        expect(r["count"] == 4 and r["bijection"]["ok"], f"a4 ideals {r['count']}")

    def exactness():
        r = run_cli(["exactness", demo, "a4-pq"])
        expect(r["ok"] and r["dims"] == {"ideal": 4, "quotient": 2, "total": 6},
               "a4-pq extension")

    def compile_action():
        r = run_cli(["compile-action", demo, "swap-c2"])
        expect(r["bundle_valid"] and r["fiber_dims"] == {"e": 2, "g1": 2}, "swap-c2 compile")

    def represent():
        r = run_cli(["represent", demo, "sign"])
        expect(r["ok"] and r["max_norm_excess"] <= 1e-9, "sign rep")

    def represent_roundtrip():
        r = run_cli(["represent", demo, "z2-line", "--roundtrip", "--fuzz", "50"])
        expect(r["samples"] == 50 and r["max_roundtrip_residual"] <= ROUNDTRIP_TOL,
               "z2-line round trip")

    def trafo():
        r = run_cli(["trafo", demo, "pq-compare"])
        two = [{"multiplicity": 2, "size": 2}]
        e = r["envelopes"]
        expect(r["report"]["ok"] and e["base_blocks"] == two and e["fiber_blocks"] == two,
               "pq-compare")

    return [("demo validate", validate_z2), ("demo norms", norms),
            ("demo envelope", envelope), ("demo spectrum", spectrum),
            ("demo quasi-orbits", quasi_orbits), ("demo ideals", ideals),
            ("demo exactness", exactness), ("demo compile-action", compile_action),
            ("demo represent", represent), ("demo represent --roundtrip", represent_roundtrip),
            ("demo trafo", trafo)]


class Certify:
    """Cold, structure-heavy CLI jobs on a seeded workspace and the demo."""

    name = "certify"
    window_cycles = 1      # 39 ops, ~20 s

    def __init__(self, root: str, workdir: str, seed: int):
        self.path = os.path.join(workdir, f"certify-{seed}-{os.getpid()}.json")
        with open(self.path, "w") as fh:
            json.dump(certify_workspace(seed), fh)
        self.demo = os.path.join(root, "examples_ws", "demo.json")
        expect(os.path.isfile(self.demo), f"{self.demo} missing")

    def close(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path)

    def ops(self, rng: np.random.Generator) -> list[tuple[str, object]]:
        ws = self.path
        out = []
        for name, _, kind, n in CERTIFY_BUNDLES:
            blocks = expected_blocks(kind, n)

            def validate(name=name):
                expect(run_cli(["validate", ws, name])["ok"], f"{name} invalid")

            def envelope(name=name, blocks=blocks):
                r = run_cli(["envelope", ws, name])
                expect(r["injective"], f"{name} not injective")
                expect(r["blocks"] == blocks, f"{name} blocks {r['blocks']} != {blocks}")

            def spectrum(name=name):
                r = run_cli(["spectrum", ws, name])
                expect(r["bijection_ok"] and r["fell_ideals"] == 2
                       and r["invariant_subsets"] == 2 and len(r["orbits"]) == 1,
                       f"{name} spectrum")

            def ideals(name=name):
                r = run_cli(["ideals", ws, name])
                expect(r["count"] == 2 and r["bijection"]["ok"], f"{name}: {r['count']} ideals")

            out += [(f"validate {name}", validate), (f"envelope {name}", envelope),
                    (f"spectrum {name}", spectrum), (f"ideals {name}", ideals)]
        return out + demo_ops(self.demo)


# -- section-stream: warm, element-heavy work ----------------------------------


def _direct_product_at(bundle, f, g, k: str) -> np.ndarray:
    """(f * g)(k) as the defining finite sum over composable pairs."""
    G = bundle.groupoid
    acc = np.zeros(bundle.dims[k], dtype=np.complex128)
    for a in G.range_fiber(G.rng[k]):
        b = G.comp.get((G.inv[a], k))
        if b is not None:
            acc += np.einsum("kij,i,j->k", bundle.mult[(a, b)], f.at(a), g.at(b))
    return acc


class SectionStream:
    """Convolution, involution and norms of seeded sections on warm bundles."""

    name = "section-stream"
    window_cycles = 40     # 600 ops, ~1 s

    def __init__(self, root: str, workdir: str, seed: int):
        self.tols = fb.DEFAULT
        bundles = dict(fb.gallery.shipped_bundles())
        # 15 op types, not 14: with an even count the median latency falls
        # in the gap between the 7th and 8th cheapest and jumps between them
        for kind, n in (("pair", 5), ("cyclic", 16), ("cyclic", 8)):
            bundles[f"line-{kind}{n}"] = line_bundle(kind, n, seed)
        for b in bundles.values():
            fb.envelope_algebra(b, self.tols)
        self.bundles = bundles

    def close(self) -> None:
        pass

    def ops(self, rng: np.random.Generator) -> list[tuple[str, object]]:
        return [(name, lambda n=name, b=b: self._op(n, b, rng))
                for name, b in self.bundles.items()]

    def _op(self, name: str, bundle, rng: np.random.Generator):
        tols = self.tols
        f = fb.sections.random_section(bundle, rng)
        g = fb.sections.random_section(bundle, rng)
        fg = fb.convolve(f, g)
        fs = fb.involute(f)
        i = fb.i_norm(f)
        c = fb.cstar_norm(bundle, f, tols)
        c2 = fb.cstar_norm(bundle, fb.convolve(fs, f), tols)
        arrows = bundle.groupoid.arrows
        k = arrows[int(rng.integers(len(arrows)))]

        def check():
            want = _direct_product_at(bundle, f, g, k)
            expect(np.linalg.norm(fg.at(k) - want) <= 1e-10 * max(1.0, float(np.linalg.norm(want))),
                   f"{name}: convolution at {k}")
            expect(abs(c2 - c * c) <= NORM_RTOL * c * c, f"{name}: |f*f| {c2} != |f|^2 {c * c}")
            expect(c <= i * (1 + NORM_RTOL), f"{name}: C*-norm {c} > I-norm {i}")
        return check


# -- roundtrip: the paper's two inverse constructions --------------------------


ACTIONS = ["z2_swap_action_on_c2", "restricted_swap_action", "a4_action",
           "matrix_twisted_action", "klein_twisted_action"]


class Roundtrip:
    """Representation and action round trips on warmed bundles."""

    name = "roundtrip"
    window_cycles = 12     # 204 ops, ~3 s

    def __init__(self, root: str, workdir: str, seed: int):
        self.tols = fb.DEFAULT
        self.bundles = fb.gallery.shipped_bundles()
        warm = np.random.default_rng([seed, 17])
        for b in self.bundles.values():
            fb.random_fellrep(b, warm, self.tols)
        self.actions = [(a, getattr(fb.gallery, a)()) for a in ACTIONS]

    def close(self) -> None:
        pass

    def ops(self, rng: np.random.Generator) -> list[tuple[str, object]]:
        reps = [(f"rep {name}", lambda n=name, b=b: self._rep(n, b, rng))
                for name, b in self.bundles.items()]
        acts = [(f"action {a}", lambda a=a, T=T: self._action(a, T)) for a, T in self.actions]
        return reps + acts

    def _rep(self, name: str, bundle, rng: np.random.Generator):
        tols = self.tols
        R = fb.random_fellrep(bundle, rng, tols)
        L = fb.integrate(R)
        R2 = fb.disintegrate(bundle, L.matrix, L.dim, tols)

        def check():
            worst = max(float(np.linalg.norm(np.asarray(R.maps[g]) - np.asarray(R2.maps[g])))
                        for g in bundle.groupoid.arrows)
            expect(worst <= ROUNDTRIP_TOL, f"{name}: round trip residual {worst:.3e}")
        return check

    def _action(self, name: str, T):
        tols = self.tols
        expect(fb.validate_action(T, tols).ok, f"{name} invalid")
        back = fb.reconstruct_action(fb.compile_to_fell_bundle(T, tols), tols)
        expect(fb.validate_action(back, tols).ok, f"{name}: reconstructed action invalid")

        def check():
            worst = 0.0
            for g in T.groupoid.arrows:
                worst = max(worst, float(np.linalg.norm(T.ideal_basis[g] - back.ideal_basis[g])),
                            float(np.linalg.norm(np.asarray(T.alpha[g]) - back.alpha[g])))
            for key in T.w:
                worst = max(worst, float(np.linalg.norm(T.w[key] - back.w[key])))
            expect(worst <= ROUNDTRIP_TOL, f"{name}: round trip residual {worst:.3e}")
        return check


WORKLOADS = {w.name: w for w in (Certify, SectionStream, Roundtrip)}
