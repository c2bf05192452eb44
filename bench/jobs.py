"""Job pools, the seeded job generator, and the correctness gate.

A workload is a list of slots.  Each slot holds interchangeable jobs of
about the same cost; the seed picks one job per slot (and, for
`certify`, which inner faces are left out of the union) and shuffles
the order.  Every pass of a run executes the same drawn list, so the
pass cost hardly depends on the seed while the inputs do.

Expectations are written here: closed forms, the values the README and
the test suite state, and a few probe step counts recorded when the
benchmark was introduced.  None is read back from the program while it
runs.
"""

from __future__ import annotations

import itertools
import json
import math
import random

# One slot is a list of variants; a variant is (command, parameters).
POOLS = {
    # Many small table-constraint networks through nat_face_union.
    "horn-check": [
        [("check", ("strict-cat", "B2strict:Z2", None)),
         ("check", ("n-strict:2", "B2strict:Z2", None))],
        [("check", ("groupoid", "B2strict:Z2", (2, 3)))],
        [("check", ("strict-groupoid", "B1:V4", None)),
         ("check", ("strict-groupoid", "B1:Z4", None))],
        [("check", ("strict-groupoid", "B1:V4", None)),
         ("check", ("strict-groupoid", "B1:Z4", None))],
        [("check", ("strict-cat", "B1:Z2", None))],
    ],
    # A few large functional-constraint networks through nat_presheaves.
    "h2-maps": [
        [("h2", ("Z3", "Z3"))],
        [("h2", ("Z3", "Z2"))],
        [("h2", ("Z2", "Z2")), ("h2", ("Z2", "Z3")), ("h2", ("Z2", "Z4"))],
        [("h2", ("Z2", "Z2")), ("h2", ("Z2", "Z3")), ("h2", ("Z2", "Z4"))],
    ],
    # No solver calls: class composition, face membership, step checks.
    "anodyne-certify": [
        [("probe", ("t[3,1]", "full"))],
        [("probe", ("t[3,1]", "outer"))],
        [("probe", ("t[2,1,1]", "full")), ("probe", ("t[4]", "full"))],
        [("probe", ("t[2,2]", "full")), ("probe", ("t[1,3]", "full"))],
        [("probe", ("t[3]", "full")), ("probe", ("t[2,1]", "full"))],
        [("probe", ("t[3]", "outer")), ("probe", ("t[2,1]", "outer"))],
        # (shape, number of inner faces left out of the union)
        [("certify", ("t[3,3]", 2))],
        [("certify", ("t[3,3]", 4))],
        [("certify", ("t[3,2]", 2))],
        [("certify", ("t[2,2]", 1))],
        [("certify", ("t[4]", 2))],
    ],
}

DEFAULT_SEED = 1
DEFAULT_WINDOW = (3, 3)

# Probe step counts.  For t[n] they follow from counting nondegenerate
# simplices (one horn attachment adds two); t[2,1] is stated by the test
# suite; the remaining Theta shapes were recorded at the commit that
# introduced this benchmark.
PROBE_STEPS_RECORDED = {
    ("t[2,1]", "full"): 3,
    ("t[2,1]", "outer"): 2,
    ("t[2,2]", "full"): 9,
    ("t[1,3]", "full"): 4,
    ("t[2,1,1]", "full"): 5,
    ("t[3,1]", "full"): 12,
    ("t[3,1]", "outer"): 10,
}


def parse_shape(text: str) -> tuple[int, ...]:
    body = text.strip()[2:-1]
    return tuple(int(tok) for tok in body.split(",") if tok)


def faces(entries: tuple[int, ...]) -> list[tuple[int, int, bool]]:
    """(k, m, inner) for each face: entry a >= 2 has a + 1 faces, the
    inner ones missing an interior vertex; a top entry 1 has two outer
    faces; any other entry 1 has none."""
    out = []
    for k, a in enumerate(entries, start=1):
        if a >= 2:
            out.extend((k, m, 0 < m < a) for m in range(a + 1))
        elif k == len(entries):
            out.extend((k, m, False) for m in (0, 1))
    return out


def horn_count(window: tuple[int, int], inner_only: bool) -> int:
    d, s = window
    total = 0
    for dim in range(d + 1):
        for entries in itertools.product(range(1, s + 1), repeat=dim):
            total += sum(1 for _, _, inner in faces(entries) if inner or not inner_only)
    return total


def probe_steps(shape: str, target: str) -> int:
    entries = parse_shape(shape)
    if len(entries) == 1:
        n = entries[0]
        spine_cells = 2 * n + 1
        if target == "full":
            return (2 ** (n + 1) - 1 - spine_cells) // 2
        # spine plus the two outer faces, which overlap in an (n-2)-simplex
        return (2 * (2**n - 1) - (2 ** (n - 1) - 1) - spine_cells) // 2
    return PROBE_STEPS_RECORDED[(shape, target)]


# -- group theory for h2 ------------------------------------------------------

def h2_expect(g: str, a: str) -> dict:
    """|H^2(G;A)| and |B^2| for cyclic G, A with trivial action.

    H^2(Z_n; Z_m) = Z_gcd(n,m), and |B^2| = |A|^(|G|-1) / |Hom(G, A)|
    for normalized cochains, with |Hom(Z_n, Z_m)| = gcd(n, m); Z^2 is
    B^2 times the classes.
    """
    n, m = int(g[1:]), int(a[1:])
    h2 = math.gcd(n, m)
    b2 = m ** (n - 1) // h2
    return {"h2": h2, "b2": b2, "z2": b2 * h2}


# -- the generator ------------------------------------------------------------


def draw(workload: str, seed: int) -> list[dict]:
    """The job list of one pass, determined by the workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = [_job(*rng.choice(slot), rng) for slot in POOLS[workload]]
    rng.shuffle(jobs)
    return jobs


def _job(command: str, params: tuple, rng: random.Random) -> dict:
    if command == "check":
        mode, nerve, window = params
        argv = ["check", "--mode", mode, "--nerve", nerve]
        if window:
            argv += ["--max-dim", str(window[0]), "--max-entry", str(window[1])]
        return {"argv": argv, "kind": "check",
                "mode": mode, "window": window or DEFAULT_WINDOW}
    if command == "h2":
        g, a = params
        return {"argv": ["h2", "--group", g, "--coeff", a], "kind": "h2",
                "group": g, "coeff": a}
    if command == "probe":
        shape, target = params
        return {"argv": ["probe", shape, "--target", target], "kind": "probe",
                "shape": shape, "target": target}
    shape, missing = params
    fs = faces(parse_shape(shape))
    inner = [(k, m) for k, m, is_inner in fs if is_inner]
    kept = sorted(rng.sample(inner, len(inner) - missing))
    gamma = sorted([(k, m) for k, m, is_inner in fs if not is_inner] + kept)
    text = ",".join(f"{k}:{m}" for k, m in gamma)
    return {"argv": ["certify", shape, "--gamma", text], "kind": "certify",
            "shape": shape, "gamma": text, "missing": missing}


def label(job: dict) -> str:
    return " ".join(job["argv"])


# -- the correctness gate -----------------------------------------------------


def check_output(job: dict, code: int, stdout: bytes) -> str | None:
    """None when the job's exit code and report are as expected, else why not."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"exit {code}, report is not JSON"
    return _CHECKS[job["kind"]](job, code, report)


def _expect(pairs) -> str | None:
    for what, got, want in pairs:
        if got != want:
            return f"{what}: got {got!r}, expected {want!r}"
    return None


def _check_check(job, code, r):
    inner_only = job["mode"].split(":")[0] in ("cat", "strict-cat", "n-strict")
    passes = job["mode"] != "groupoid"
    horns = r.get("horns", [])
    problem = _expect([
        ("exit code", code, 0 if passes else 2),
        ("mode", r.get("mode"), job["mode"]),
        ("window", r.get("window"),
         {"max_dim": job["window"][0], "max_entry": job["window"][1]}),
        ("horns", len(horns), horn_count(job["window"], inner_only)),
        ("verdict", r.get("verdict"), "pass" if passes else "fail"),
    ])
    if problem:
        return problem
    if passes:
        return _expect([("failed horns", sum(not h["ok"] for h in horns), 0)])
    w = r.get("witness") or {}
    return _expect([("witness", (w.get("shape"), w.get("horn")), ([2, 1], [2, 0]))])


def _check_h2(job, code, r):
    want = h2_expect(job["group"], job["coeff"])
    return _expect([
        ("exit code", code, 0),
        ("z2", r.get("z2"), want["z2"]),
        ("b2", r.get("b2"), want["b2"]),
        ("h2_classes", r.get("h2_classes"), want["h2"]),
        ("num_classes", r.get("num_classes"), want["h2"]),
        ("nat_maps", r.get("nat_maps"), want["z2"]),
        ("agree", r.get("agree"), True),
        ("round_trip_ok", r.get("round_trip_ok"), True),
    ])


def _steps_are_inner_horns(steps) -> bool:
    for step in steps:
        k, m = step["horn"]
        if not (1 <= k <= len(step["shape"]) and 0 < m < step["shape"][k - 1]):
            return False
    return True


def _check_probe(job, code, r):
    cert = r.get("certificate") or {}
    steps = cert.get("steps", [])
    return _expect([
        ("exit code", code, 0),
        ("found", r.get("found"), True),
        ("verified", r.get("verified"), True),
        ("base", cert.get("base"), list(parse_shape(job["shape"]))),
        ("start", cert.get("start"), "spine"),
        ("target", cert.get("target"), job["target"]),
        ("steps", len(steps), probe_steps(job["shape"], job["target"])),
        ("every step attaches along an inner horn", _steps_are_inner_horns(steps), True),
    ])


def _check_certify(job, code, r):
    cert = r.get("certificate") or {}
    steps = cert.get("steps", [])
    # The pushout induction certifies j missing faces by certifying j - 1
    # on the first missing face, then j - 1 on the enlarged union.
    return _expect([
        ("exit code", code, 0),
        ("verified", r.get("verified"), True),
        ("base", cert.get("base"), list(parse_shape(job["shape"]))),
        ("start", cert.get("start"), "gamma:" + job["gamma"]),
        ("target", cert.get("target"), "full"),
        ("steps", r.get("steps"), 2 ** (job["missing"] - 1)),
        ("listed steps", len(steps), 2 ** (job["missing"] - 1)),
        ("every step attaches along an inner horn", _steps_are_inner_horns(steps), True),
    ])


_CHECKS = {"check": _check_check, "h2": _check_h2,
           "probe": _check_probe, "certify": _check_certify}
