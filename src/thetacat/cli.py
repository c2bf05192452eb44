"""Batch command line: one JSON report per run.

Each command maps its arguments to a report and an exit code, and `main`
writes that report, or the report of a search that ran out of budget.

Exit codes: 0 success or check passed, 1 usage error, 2 check failed
(the report carries the witness), 3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

from . import __version__
from .anodyne import PROBE_ENDS, certify_union_inclusion, spine_probe, verify_certificate
from .checkers import check, parse_mode
from .errors import DEFAULT_BUDGET, BudgetExceededError
from .groups import FiniteGroup, builtin_group
from .nerves import (
    cocycle_to_map,
    homotopy_classes,
    map_to_cocycle,
    nerve_from_spec,
)
from .presheaves import check_functoriality, table_from_json
from .subshapes import DEFAULT_WINDOW, WindowSpec
from .theta import enumerate_hom, faces_of, parse_shape

MAX_DIM_CAP = 6
MAX_ENTRY_CAP = 6
REPORT_BATCH = 512  # encoder chunks per write of a report


def _write_report(report: dict, out_path: str | None) -> None:
    """Write the report to `out_path` or stdout as it is encoded.

    The chunks of the encoder behind `json.dumps(report, indent=2,
    sort_keys=True)` are joined and written `REPORT_BATCH` at a time, so
    the bytes are those of `json.dumps` plus a newline while memory stays
    bounded.  Joining matters when stdout is unbuffered (`PYTHONUNBUFFERED=1`,
    which `bench/run.py` passes to every job): each `write` is then a
    system call, and a report has tens of thousands of chunks.  A
    destination that cannot be written is a usage error and may be left
    holding part of the report.
    """
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
    try:
        if out_path:
            with open(out_path, "w") as fh:
                _write_batches(fh, chunks)
        else:
            _write_batches(sys.stdout, chunks)
            sys.stdout.flush()
    except OSError as exc:
        reason = exc.strerror or type(exc).__name__
        if not out_path:
            _discard_stdout()
        where = out_path or "stdout"
        raise SystemExit(_usage_error(f"cannot write {where}: {reason}")) from None


def _write_batches(fh, chunks) -> None:
    while batch := list(islice(chunks, REPORT_BATCH)):
        fh.write("".join(batch))
    fh.write("\n")


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device, so the flush at
    interpreter exit neither fails again nor prints "Exception ignored"."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # not backed by a descriptor
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _window_from_args(args) -> WindowSpec:
    d = args.max_dim if args.max_dim is not None else DEFAULT_WINDOW.max_dim
    s = args.max_entry if args.max_entry is not None else DEFAULT_WINDOW.max_entry
    if not (0 <= d <= MAX_DIM_CAP and 1 <= s <= MAX_ENTRY_CAP):
        raise SystemExit(_usage_error(f"window out of range: dim {d}, entry {s}"))
    return WindowSpec(d, s)


def _usage_error(message: str) -> int:
    sys.stderr.write(f"thetacat: {message}\n")
    return 1


def _parse_shape_arg(text: str):
    try:
        return parse_shape(text)
    except ValueError:
        raise SystemExit(_usage_error(f"bad shape token {text!r}")) from None


def _read_json(path: str, parse):
    """Load a JSON file and build an object from it with `parse`.

    A missing, unreadable or non-JSON file, JSON nested too deeply to
    decode or to parse, or JSON that `parse` rejects, is a usage error.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        reason = exc.strerror or type(exc).__name__
    except (RecursionError, ValueError) as exc:
        reason = f"not JSON ({exc})"
    else:
        try:
            return parse(data)
        except (
            AttributeError, IndexError, KeyError, RecursionError, TypeError, ValueError
        ) as exc:
            reason = f"invalid content ({type(exc).__name__}: {exc})"
    raise SystemExit(_usage_error(f"cannot read {path}: {reason}"))


def _load_group(token: str) -> FiniteGroup:
    if token.startswith("@"):
        return _read_json(token[1:], FiniteGroup.from_json)
    try:
        return builtin_group(token)
    except ValueError:
        raise SystemExit(_usage_error(f"bad group token {token!r}")) from None


def cmd_faces(args) -> tuple[dict, int]:
    a = _parse_shape_arg(args.shape)
    fds = faces_of(a)
    report = {
        "command": "faces",
        "shape": a.to_json(),
        "count": len(fds),
        "inner_count": sum(1 for fd in fds if fd.inner),
        "outer_count": sum(1 for fd in fds if not fd.inner),
        "faces": [
            {
                "k": fd.k,
                "m": fd.m,
                "kind": fd.kind,
                "target": fd.target.to_json(),
            }
            for fd in fds
        ],
    }
    return report, 0


def cmd_hom(args) -> tuple[dict, int]:
    a, b = _parse_shape_arg(args.src), _parse_shape_arg(args.dst)
    hom = enumerate_hom(a, b)
    report = {
        "command": "hom",
        "src": a.to_json(),
        "dst": b.to_json(),
        "count": len(hom),
        "by_degree": {
            str(q): sum(1 for f in hom if f.degree == q)
            for q in range(1, max(a.dim, b.dim) + 2)
        },
        "classes": [f.to_json() for f in hom],
    }
    return report, 0


def cmd_check(args) -> tuple[dict, int]:
    window = _window_from_args(args)
    if args.nerve is not None:
        try:
            x = nerve_from_spec(args.nerve)
        except ValueError as exc:
            raise SystemExit(_usage_error(str(exc))) from None
    else:
        def parse(data):
            table = table_from_json(data)
            table.require_covers(window)
            return table

        x = _read_json(args.input, parse)
    try:
        mode = parse_mode(args.mode)
    except ValueError as exc:
        raise SystemExit(_usage_error(str(exc))) from None
    if args.input is not None:
        funct = check_functoriality(x, window, args.budget)
        if not funct.ok:
            report = {
                "command": "check",
                "subject": x.name,
                "window": window.to_json(),
                "verdict": "fail",
                "functoriality": funct.to_json(),
            }
            return report, 2
    report = check(x, mode, window, args.budget)
    return dict(report.to_json(), command="check"), 0 if report.verdict else 2


def cmd_certify(args) -> tuple[dict, int]:
    a = _parse_shape_arg(args.shape)
    try:
        pairs = (map(int, tok.split(":")) for tok in args.gamma.split(",") if tok)
        gamma = [(k, m) for k, m in pairs]  # unpacking needs exactly two fields
    except ValueError:
        raise SystemExit(_usage_error(f"bad gamma list {args.gamma!r}")) from None
    try:
        cert = certify_union_inclusion(a, gamma)
    except ValueError as exc:
        raise SystemExit(_usage_error(str(exc))) from None
    verdict = verify_certificate(cert)
    report = {
        "command": "certify",
        "certificate": cert.to_json(),
        "verified": verdict.ok,
        "steps": len(cert.steps),
    }
    return report, 0 if verdict.ok else 2


def cmd_probe(args) -> tuple[dict, int]:
    a = _parse_shape_arg(args.shape)
    result = spine_probe(PROBE_ENDS[args.target](a), args.target, budget=args.budget)
    report = dict(result.to_json(), command="probe", shape=a.to_json())
    if not result.found:
        return report, 3
    report["verified"] = verify_certificate(result.certificate).ok
    return report, 0 if report["verified"] else 2


def cmd_h2(args) -> tuple[dict, int]:
    g, a = _load_group(args.group), _load_group(args.coeff)
    if not a.abelian:
        raise SystemExit(_usage_error(f"coefficient group {a.name} is not abelian"))
    hreport = homotopy_classes(g, a, budget=args.budget)
    data, maps = hreport.h2, hreport.maps
    round_trip = all(cocycle_to_map(map_to_cocycle(g, a, m)) == m for m in maps)
    report = {
        "command": "h2",
        "group": g.name,
        "coeff": a.name,
        "z2": len(data.z2),
        "b2": len(data.b2),
        "h2_classes": data.classes,
        "nat_maps": len(maps),
        "maps_equal_cocycles": len(maps) == len(data.z2),
        "round_trip_ok": round_trip,
        "num_classes": hreport.num_classes,
        "agree": hreport.agree,
        "relation": {
            "reflexive": hreport.relation_was_reflexive,
            "symmetric": hreport.relation_was_symmetric,
            "transitive": hreport.relation_was_transitive,
        },
        "counterexample": hreport.counterexample,
    }
    return report, 0 if (hreport.agree and report["maps_equal_cocycles"] and round_trip) else 2


def cmd_selftest(args) -> tuple[dict, int]:
    from .selftest import run_selftest

    report = dict(run_selftest(args.seed), command="selftest")
    return report, 0 if report["verdict"] == "pass" else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetacat",
        description="exact combinatorics of generalized simplices",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    searches = []

    def command(name, fn, summary, budget=False):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)
        if budget:
            searches.append(p)
        return p

    p = command("faces", cmd_faces, "list the faces of a shape")
    p.add_argument("shape")

    p = command("hom", cmd_hom, "enumerate classes between two shapes")
    p.add_argument("src")
    p.add_argument("dst")

    p = command("check", cmd_check, "horn-filling check of a presheaf", budget=True)
    p.add_argument("--mode", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--nerve", help="B1:G, B2strict:A or B2em:A")
    source.add_argument("--input", help="windowed presheaf JSON file")
    p.add_argument("--max-dim", type=int)
    p.add_argument("--max-entry", type=int)

    p = command("certify", cmd_certify, "certificate for a union of faces")
    p.add_argument("shape")
    p.add_argument("--gamma", required=True, help="comma list of k:m faces")

    p = command("probe", cmd_probe, "search a certificate from the spine", budget=True)
    p.add_argument("shape")
    p.add_argument("--target", choices=PROBE_ENDS, default="full")

    p = command("h2", cmd_h2, "maps, cocycles and homotopy classes", budget=True)
    p.add_argument("--group", required=True)
    p.add_argument("--coeff", required=True)

    p = command("selftest", cmd_selftest, "run every module's invariant suite")
    p.add_argument("--seed", type=int, default=0)

    for p in searches:  # last, so that --help lists it after the command's own
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if getattr(args, "budget", 1) < 1:
        return _usage_error(f"budget must be at least 1, got {args.budget}")
    try:
        try:
            report, code = args.fn(args)
        except BudgetExceededError as exc:
            report = {"command": args.command, "error": "budget exceeded", "nodes": exc.count}
            code = 3
        _write_report(report, args.out)
    except SystemExit as exc:  # a usage error, its message already written
        return exc.code
    return code


if __name__ == "__main__":
    sys.exit(main())
