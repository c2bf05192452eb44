"""Run one thetacat CLI job with a span recorder around each layer.

    python bench/tracer.py TRACE_OUT.json <cli arguments...>

The recorder wraps each layer's public functions at every module name
callers bind them by (`from .x import y` makes a second binding), keeps
spans and per-function totals in memory, and writes them to TRACE_OUT
when the job ends.  The exit code is the CLI's.  Hot leaf functions
(class composition, face membership, action arrays) get totals only,
no span per call, so the trace stays small.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.perf_counter


class Recorder:
    def __init__(self):
        self.stack = [[0.0, 0]]  # per active call: [child seconds, span id]
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.depth: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.next_id = 1
        self.origin = clock()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def enter(self) -> list:
        frame = [0.0, self.next_id]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def leave(self, name: str, frame: list, start: float, end: float, span: bool) -> None:
        """Close a call: inclusive time counts once per outermost recursion."""
        self.stack.pop()
        elapsed = end - start
        self.stack[-1][0] += elapsed
        t = self.totals.setdefault(name, [0, 0.0, 0.0])
        t[0] += 1
        if self.depth.get(name, 0) == 0:
            t[1] += elapsed
        t[2] += elapsed - frame[0]
        if span:
            self.spans.append((frame[1], self.stack[-1][1], name,
                               start - self.origin, end - self.origin))

    def wrap(self, fn, name: str, span: bool = True, on_result=None):
        rec = self

        def traced(*args, **kwargs):
            frame = rec.enter()
            rec.depth[name] = rec.depth.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                rec.depth[name] -= 1
                rec.leave(name, frame, start, end, span)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_solve_all(self, fn):
        """Network.solve_all is a generator: time only its resumptions."""
        rec = self
        name = "csp.solve_all"

        def solve_all(net, *args, **kwargs):
            net._nodes = 0  # the solver leaves it unset on an empty domain
            gen = fn(net, *args, **kwargs)
            first = last = None
            solutions = 0
            span_id = rec.next_id
            rec.next_id += 1
            try:
                while True:
                    frame = rec.enter()
                    start = clock()
                    first = start if first is None else first
                    try:
                        sol = next(gen)
                    except StopIteration:
                        return
                    finally:
                        last = clock()
                        rec.stack.pop()
                        rec.stack[-1][0] += last - start
                        t = rec.totals.setdefault(name, [0, 0.0, 0.0])
                        t[1] += last - start
                        t[2] += last - start - frame[0]
                    solutions += 1
                    yield sol
            finally:
                gen.close()
                rec.totals[name][0] += 1
                rec.count("csp.nodes", net._nodes)
                rec.count("csp.solutions", solutions)
                rec.count("csp.vars", len(net.domains))
                for arcs in net.adj:
                    for _, kind, _, forward in arcs:
                        if forward:
                            rec.count("csp.fn_arcs" if kind == "fn" else "csp.table_arcs")
                rec.spans.append((span_id, rec.stack[-1][1], name,
                                  first - rec.origin, last - rec.origin))

        return solve_all

    def wrap_action(self, fn):
        """Presheaf.action memoizes per presheaf; count memo hits."""
        traced = self.wrap(fn, "presheaves.action", span=False)
        rec = self

        def action(presheaf, f):
            if f in presheaf._actions:
                rec.count("presheaves.action.hits")
            return traced(presheaf, f)

        return action


def rebind(modules, original, replacement) -> None:
    """Replace every module-level binding of `original`."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


# (module, function, span name, keep a span per call)
FUNCTIONS = [
    ("checkers", "check", "checkers.check", True),
    ("checkers", "horn_filling", "checkers.horn_filling", True),
    ("presheaves", "nat_face_union", "presheaves.nat_face_union", True),
    ("presheaves", "nat_presheaves", "presheaves.nat_presheaves", True),
    ("nerves", "homotopy_classes", "nerves.homotopy_classes", True),
    ("nerves", "vertex_inclusion_values", "nerves.vertex_inclusion_values", True),
    ("groups", "cocycle_tools", "groups.cocycle_tools", True),
    ("anodyne", "spine_probe", "anodyne.spine_probe", True),
    ("anodyne", "certify_union_inclusion", "anodyne.certify", True),
    ("anodyne", "verify_certificate", "anodyne.verify", True),
    ("theta", "compose_classes", "theta.compose_classes", False),
    ("theta", "factor_through", "theta.factor_through", False),
    ("subshapes", "face_membership", "subshapes.face_membership", False),
] + [
    ("subshapes", fn, "subshapes.build", True)
    for fn in ("full_sub", "boundary", "face_image", "union_of_faces", "horn", "spine")
] + [
    ("subshapes", fn, "subshapes.algebra", True)
    for fn in ("sub_union", "sub_intersect", "sub_algebra", "pullback_along")
]

CACHED = ("enumerate_hom", "faces_of", "face_class")  # lru_cache in thetacat.theta


def install(rec: Recorder) -> None:
    modules = [m for name, m in sys.modules.items()
               if name == "thetacat" or name.startswith("thetacat.")]
    results = {
        "groups.cocycle_tools": lambda r: rec.count("groups.cocycles", len(r.z2)),
        "anodyne.spine_probe": lambda r: (rec.count("anodyne.probe.nodes", r.nodes),
                                          rec.count("anodyne.probe.states", r.states)),
        "anodyne.verify": lambda r: rec.count("anodyne.steps", r.steps_checked),
    }
    for mod_name, fn_name, name, span in FUNCTIONS:
        original = getattr(sys.modules[f"thetacat.{mod_name}"], fn_name)
        rebind(modules, original, rec.wrap(original, name, span, results.get(name)))
    csp, presheaves = sys.modules["thetacat.csp"], sys.modules["thetacat.presheaves"]
    csp.Network.solve_all = rec.wrap_solve_all(csp.Network.solve_all)
    presheaves.Presheaf.action = rec.wrap_action(presheaves.Presheaf.action)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    start = clock()
    import thetacat.cli
    import_s = clock() - start

    rec = Recorder()
    install(rec)
    start = clock()
    code = thetacat.cli.main(cli_args)
    main_s = clock() - start
    sys.stdout.flush()

    for fn_name in CACHED:
        info = getattr(sys.modules["thetacat.theta"], fn_name).cache_info()
        rec.count(f"theta.{fn_name}.hits", info.hits)
        rec.count(f"theta.{fn_name}.misses", info.misses)
    with open(out_path, "w") as fh:
        json.dump({"import_s": import_s, "main_s": main_s,
                   "covered_s": rec.stack[0][0],
                   "totals": rec.totals, "counters": rec.counters,
                   "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
