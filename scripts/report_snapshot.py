"""Write the CLI reports of a checkout to a directory, one file per command.

    python3 scripts/report_snapshot.py OUT [--root CHECKOUT] [--seeds 1 4]

Runs, in process, the 11 README demo commands on ``examples_ws/demo.json``
and ``validate``/``envelope``/``spectrum``/``quasi-orbits``/``ideals`` on every
bundle of the seeded benchmark workspace ``perfbench/workloads.certify_workspace(seed)``.
Each command's stdout goes to its own file under OUT, and ``exit_codes.txt``
lists the exit status of every command.  fellbund is imported from
CHECKOUT's ``src`` (default: the checkout holding this script), so two
checkouts can be compared byte for byte:

    python3 scripts/report_snapshot.py /tmp/old --root ../old-checkout
    python3 scripts/report_snapshot.py /tmp/new
    diff -r /tmp/old /tmp/new
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

DEMO_COMMANDS = [
    ["validate", "z2"],
    ["norms", "e-plus-g"],
    ["envelope", "a4"],
    ["spectrum", "a4"],
    ["quasi-orbits", "a4"],
    ["ideals", "a4"],
    ["exactness", "a4-pq"],
    ["compile-action", "swap-c2"],
    ["represent", "sign"],
    ["represent", "z2-line", "--roundtrip", "--fuzz", "50"],
    ["trafo", "pq-compare"],
]
CERTIFY_COMMANDS = ["validate", "envelope", "spectrum", "quasi-orbits", "ideals"]


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
    import fellbund.cli
    from workloads import CERTIFY_BUNDLES, certify_workspace

    jobs = []  # (file name, argv)
    demo = os.path.join(root, "examples_ws", "demo.json")
    for cmd in DEMO_COMMANDS:
        jobs.append(("demo " + " ".join(c.lstrip("-") for c in cmd), [cmd[0], demo, *cmd[1:]]))
    os.makedirs(args.out, exist_ok=True)
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            ws = os.path.join(tmp, f"certify-{seed}.json")
            with open(ws, "w") as fh:
                json.dump(certify_workspace(seed), fh)
            for name, *_ in CERTIFY_BUNDLES:
                for cmd in CERTIFY_COMMANDS:
                    jobs.append((f"certify{seed} {cmd} {name}", [cmd, ws, name]))
        for label, cli_argv in jobs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = fellbund.cli.main(cli_argv)
            with open(os.path.join(args.out, label.replace(" ", "_") + ".out"), "w") as fh:
                fh.write(out.getvalue())
            codes.append(f"{code} {label}")
    with open(os.path.join(args.out, "exit_codes.txt"), "w") as fh:
        fh.write("\n".join(codes) + "\n")
    print(f"{len(jobs)} reports written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
