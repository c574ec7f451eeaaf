"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of its seed and returns plain JSON
data in the formats the ellfib README documents, so the program under
test only ever receives generated inputs.  This module uses the standard
library only and never imports ellfib: a defect in the program cannot
leak into its own inputs.

Each operation is a dict with a "kind", the input document(s) and an
"expect" entry holding what the input was built to produce (a verdict,
a count); the oracles in oracles.py check results against it.

Each workload's inputs for a run are a list of *units* (a unit is one
operation, or a generic/gaussian pair that must run back to back).  The
composition is fixed (sizes, verdicts, sample counts), so every seed
measures the same mix; the seed picks the numbers, and pass_order() the
order of each pass over the units.  A unit listed more than once runs
that many times a pass: short operations whose median should rest on
more than the two or three passes a run has time for.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import comb

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
PRESET_H2 = {"kodaira": 4, "torus4": 6, "k3": 22}  # degree-2 basis lengths
PRESET_H02 = 1  # every preset ends its degree-2 basis with one (0,2) label

# Moduli cases: (n, torsion, samples).  The two anchors are the largest
# one-sample cases ROADMAP quotes (about 4 s each); the other cases are
# kept below a work cap (objects times samples) and run twice a pass, so
# that a pass takes about ten seconds.
MODULI_ANCHORS = ((3, 6, 1), (4, 4, 1))
MODULI_WORK_CAP = 1500
GERBE_FIXED_TIMES = 3  # runs of the fixed case per pass
CLI_FIXED_TIMES = 5


def pass_order(seed: int, index: int, units: list[list[dict]]) -> list[list[dict]]:
    """The units in the order of pass number `index`."""
    order = list(units)
    random.Random(f"pass/{seed}/{index}").shuffle(order)
    return order


def inputs_digest(units) -> str:
    """sha256 of the canonical JSON of a run's inputs."""
    text = json.dumps(units, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- closed-form counts (the moduli oracle) --------------------------------


def partitions(n: int, cap: int | None = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def section_count(n: int, torsion: int) -> int:
    """Multisets of n points among the torsion**2 torsion points."""
    return comb(torsion * torsion + n - 1, n)


def bundle_count(n: int, torsion: int) -> int:
    """Sum over partitions of n of prod_i C(T^2 + m_i - 1, m_i)."""
    points = torsion * torsion
    total = 0
    for shape in partitions(n):
        term = 1
        for part in set(shape):
            mult = shape.count(part)
            term *= comb(points + mult - 1, mult)
        total += term
    return total


def moduli_cases() -> list[tuple[int, int, int]]:
    """Every non-anchor case within the work cap, in a fixed order."""
    out = []
    for n in range(1, 5):
        for torsion in range(2, 7):
            for samples in (1, 4):
                case = (n, torsion, samples)
                objects = section_count(n, torsion) + bundle_count(n, torsion)
                if case not in MODULI_ANCHORS and objects * samples <= MODULI_WORK_CAP:
                    out.append(case)
    return out


def moduli_op(n: int, torsion: int, samples: int) -> dict:
    return {
        "kind": "roundtrip",
        "n": n,
        "torsion": torsion,
        "samples": samples,
        "expect": {
            "sections": section_count(n, torsion),
            "bundles": bundle_count(n, torsion),
        },
    }


def moduli_inputs() -> list[list[dict]]:
    """Both anchors and every other case; (3, 6, 1) is the fixed case.

    The cases are the same for every seed, which only orders the passes.
    """
    anchors = [[moduli_op(*case)] for case in MODULI_ANCHORS]
    anchors[0][0]["fixed"] = True
    return anchors + [[moduli_op(*case)] for case in moduli_cases()] * 2


# -- rationals, torsion points and primes ----------------------------------


def q_str(q) -> str:
    return str(Fraction(q))


def point_json(u: Fraction, v: Fraction) -> dict:
    return {"u": q_str(Fraction(u) % 1), "v": q_str(Fraction(v) % 1)}


def rand_torsion(rng: random.Random, max_den: int = 12) -> tuple[Fraction, Fraction]:
    den = rng.randint(2, max_den)
    return Fraction(rng.randrange(den), den), Fraction(rng.randrange(den), den)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases (exact below 3.3e24)."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


def semiprime(rng: random.Random) -> int:
    """A 20-digit semiprime: a 6-digit prime times a 14-digit prime.

    The small factor keeps factorization time steady (a few ms), so the
    share of hostile scalars, not factoring luck, sets the cost.
    """
    small = next_prime(rng.randrange(10**5, 10**6))
    large = next_prime(rng.randrange(10**13, 10**14))
    return small * large


def small_ratio(rng: random.Random) -> Fraction:
    sign = rng.choice((-1, 1))
    num = rng.choice(SMALL_PRIMES) ** rng.randint(0, 2)
    den = rng.choice(SMALL_PRIMES) ** rng.randint(0, 1)
    return Fraction(sign * num, den)


# -- nerves ----------------------------------------------------------------


def _label(i: int, j: int) -> str:
    return f"v{i}x{j}"


def grid_complex(k: int, periodic: bool):
    """Triangulated k x k grid: vertices, edges and triangles.

    The planar grid is a disc (contractible); the periodic one wraps both
    directions and is a closed torus.
    """
    span = range(k) if periodic else range(k - 1)

    def v(i, j):
        return _label(i % k, j % k)

    charts = [_label(i, j) for i in range(k) for j in range(k)]
    edges, triangles = set(), set()
    for i in range(k):
        for j in range(k):
            if i in span:
                edges.add(tuple(sorted((v(i, j), v(i + 1, j)))))
            if j in span:
                edges.add(tuple(sorted((v(i, j), v(i, j + 1)))))
            if i in span and j in span:
                edges.add(tuple(sorted((v(i, j), v(i + 1, j + 1)))))
                triangles.add(tuple(sorted((v(i, j), v(i + 1, j), v(i + 1, j + 1)))))
                triangles.add(tuple(sorted((v(i, j), v(i, j + 1), v(i + 1, j + 1)))))
    return sorted(charts), sorted(edges), sorted(triangles)


def complete_complex(m: int):
    charts = [f"c{i}" for i in range(m)]
    edges = [(charts[i], charts[j]) for i in range(m) for j in range(i + 1, m)]
    triangles = [
        (charts[i], charts[j], charts[k])
        for i in range(m)
        for j in range(i + 1, m)
        for k in range(j + 1, m)
    ]
    return charts, edges, triangles


def nerve_json(charts, edges, triangles, samples) -> dict:
    samples = list(samples)
    return {
        "charts": list(charts),
        "overlaps": [list(e) for e in edges],
        "triples": [list(t) for t in triangles],
        "samples": {
            "charts": {c: samples for c in charts},
            "overlaps": {",".join(e): samples for e in edges},
            "triples": {",".join(t): samples for t in triangles},
        },
    }


def sample_labels(count: int) -> list[str]:
    return ["s"] if count == 1 else [f"s{i}" for i in range(1, count + 1)]


# -- gerbe and cocycle documents ------------------------------------------

# Gerbe documents per run: (family, size, count).  Planar grids have
# side k = 3..5 plus the fixed 6 x 6 case, periodic grids k = 3..5,
# complete nerves m = 5..9; larger sizes cost 10-50x more and come fewer.
# Left out: the planar 7 x 7 grid and the periodic 6 x 6 and 7 x 7 tori
# (2.5 s, 2.5 s and 7 s at the seed), too slow to repeat within a run.
GERBE_SET = (
    ("planar", 3, 3), ("planar", 4, 3), ("planar", 5, 2),
    ("periodic", 3, 3), ("periodic", 4, 2), ("periodic", 5, 1),
    ("complete", 5, 3), ("complete", 6, 3), ("complete", 7, 2),
    ("complete", 8, 1), ("complete", 9, 1),
)
COCYCLE_SAMPLES = (1, 4, 8)  # one cocycle document each per grid side k = 3..7
# Every fifth gerbe carries a 20-digit semiprime numerator, and every
# other periodic or complete gerbe is built not to glue.  Both are fixed
# by position, not drawn, because they change a document's cost.
SEMIPRIME_EVERY = 5


def gerbe_doc(rng: random.Random, family: str, size: int, perturb: bool, hostile: bool):
    """A gerbe document and its expected verdicts.

    Scalars c are the coboundary of random overlap scalars b, so that c
    is a cocycle whose class vanishes; alpha = (delta a) / c then glues.
    Perturbing one triple's c by a prime leaves the class nonzero on a
    closed torus and breaks the cocycle identity on a complete nerve.
    On the planar (contractible) grid every c is used as drawn, since
    every gerbe glues there.
    """
    if family == "complete":
        charts, edges, triangles = complete_complex(size)
    else:
        charts, edges, triangles = grid_complex(size, periodic=family == "periodic")
    a = {e: small_ratio(rng) for e in edges}
    if hostile:
        e = rng.choice(edges)
        a[e] = Fraction(rng.choice((-1, 1)) * semiprime(rng), rng.choice(SMALL_PRIMES))
    if family == "planar":
        c = {t: small_ratio(rng) for t in triangles}
    else:
        b = {e: small_ratio(rng) for e in edges}
        c = {(i, j, k): b[(i, j)] * b[(j, k)] / b[(i, k)] for i, j, k in triangles}
        if perturb:
            t = rng.choice(triangles)
            c[t] *= rng.choice(SMALL_PRIMES)
    broken = perturb and family != "planar"
    doc = {
        "nerve": nerve_json(charts, edges, triangles, ["s"]),
        "gerbe": {
            "a": {",".join(e): q_str(q) for e, q in a.items()},
            "c": {",".join(t): q_str(q) for t, q in c.items()},
        },
    }
    expect = {
        "gluable": not broken,
        "cocycle_ok": not (broken and family == "complete"),
    }
    return doc, expect


def cocycle_doc(rng: random.Random, k: int, periodic: bool, samples: int, perturb: bool):
    """A translation cocycle lambda = delta mu on a grid, optionally broken.

    Breaking adds a nonzero torsion point to one overlap value at one
    sample, which makes every triangle through that overlap fail there.
    """
    charts, edges, triangles = grid_complex(k, periodic)
    labels = sample_labels(samples)
    mu = {(c, s): rand_torsion(rng) for c in charts for s in labels}
    lam = {}
    for i, j in edges:
        lam[(i, j)] = {
            s: (mu[(j, s)][0] - mu[(i, s)][0], mu[(j, s)][1] - mu[(i, s)][1])
            for s in labels
        }
    if perturb:
        e, s = rng.choice(edges), rng.choice(labels)
        t = (Fraction(0), Fraction(0))
        while t[0] % 1 == 0 and t[1] % 1 == 0:
            t = rand_torsion(rng)
        u, v = lam[e][s]
        lam[e][s] = (u + t[0], v + t[1])
    doc = {
        "nerve": nerve_json(charts, edges, triangles, labels),
        "cocycle": {
            "lambda": {
                ",".join(e): {s: point_json(*p) for s, p in per.items()}
                for e, per in lam.items()
            }
        },
    }
    return doc, {"solvable": not perturb}


def gerbe_inputs(seed: int) -> list[list[dict]]:
    """The fixed case, the GERBE_SET gerbes and the cocycles."""
    rng = random.Random(f"gerbe/{seed}")
    units = [[gerbe_fixed_case()]] * GERBE_FIXED_TIMES
    made = 0
    for family, size, count in GERBE_SET:
        for n in range(count):
            made += 1
            doc, expect = gerbe_doc(rng, family, size, n % 2 == 1, made % SEMIPRIME_EVERY == 0)
            units.append([{"kind": "gerbe", "doc": doc, "expect": expect}])
    for k in range(3, 8):
        for n, samples in enumerate(COCYCLE_SAMPLES):
            doc, expect = cocycle_doc(rng, k, (k + n) % 2 == 0, samples, n % 2 == 1)
            units.append([{"kind": "cocycle", "doc": doc, "expect": expect}])
    return units


def gerbe_fixed_case() -> dict:
    """Planar 6 x 6 grid gerbe with fixed scalars (0.8 s at the seed)."""
    doc, expect = gerbe_doc(random.Random("gerbe/fixed"), "planar", 6, False, False)
    return {"kind": "gerbe", "doc": doc, "expect": expect, "fixed": True}


# -- invariants ------------------------------------------------------------

# Classes per run: (preset, kind, count); each class runs in both modes.
INVARIANTS_SET = (
    ("kodaira", "plain", 10), ("kodaira", "synthetic", 10), ("kodaira", "zero", 1),
    ("torus4", "plain", 12), ("torus4", "zero", 1),
    ("k3", "plain", 15), ("k3", "zero", 1),
)


def _class_vector(rng: random.Random, length: int, density: float) -> list[str]:
    """Sparse small rationals; the trailing (0,2) entry is left at zero."""
    vec = []
    for _ in range(length - PRESET_H02):
        if rng.random() < density:
            vec.append(q_str(Fraction(rng.choice((-2, -1, 1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))))
        else:
            vec.append("0")
    return vec + ["0"] * PRESET_H02


def invariants_class(rng: random.Random, preset: str, kind: str) -> dict:
    """A plain, synthetic (kodaira only) or zero class on a preset.

    Synthetic classes carry their b seed either on the (0,2) entry alone
    or off it, never both: mixing the two trips the documented
    degeneration check, which is outside this workload.
    """
    length = PRESET_H2[preset]
    if kind == "zero":
        a = b = ["0"] * length
    elif kind == "synthetic":
        a = _class_vector(rng, length, 0.6)
        if rng.random() < 0.5:
            b = ["0"] * (length - 1) + [q_str(rng.choice((-2, -1, 1, 2, 3)))]
        else:
            b = _class_vector(rng, length, 0.6)
    else:
        density = 0.5 if length < 10 else 0.15
        a, b = _class_vector(rng, length, density), _class_vector(rng, length, density)
    return {"preset": preset, "a": a, "b": b, "synthetic": kind == "synthetic"}


def invariants_inputs(seed: int) -> list[list[dict]]:
    """INVARIANTS_SET classes as generic/gaussian pairs, the fixed case,
    and ring_validate on each preset."""
    rng = random.Random(f"invariants/{seed}")
    units = [[invariants_fixed_case()]]
    for preset, kind, count in INVARIANTS_SET:
        for _ in range(count):
            cls = invariants_class(rng, preset, kind)
            units.append([{"kind": "invariants", "mode": mode, **cls}
                          for mode in ("generic", "gaussian")])
    units += [[{"kind": "validate", "preset": preset}] for preset in PRESET_H2]
    return units


def invariants_fixed_case() -> dict:
    cls = {"preset": "k3", "a": ["0"] * 22, "b": ["0"] * 22, "synthetic": False}
    cls["a"][1] = "1"
    cls["b"][2] = "-2/3"
    return {"kind": "invariants", "mode": "generic", "fixed": True, **cls}


# -- cli documents ----------------------------------------------------------


def rand_bundle(rng: random.Random, rank: int | None = None) -> dict:
    """Blocks with random ranks summing to rank (1 to 6 when not given)."""
    left = rng.randint(1, 6) if rank is None else rank
    blocks = []
    while left:
        n = rng.randint(1, min(3, left))
        blocks.append({"n": n, "x": point_json(*rand_torsion(rng))})
        left -= n
    return {"blocks": blocks}


def _twist(bundle: dict, t) -> dict:
    out = []
    for block in bundle["blocks"]:
        u, v = Fraction(block["x"]["u"]), Fraction(block["x"]["v"])
        out.append({"n": block["n"], "x": point_json(u + t[0], v + t[1])})
    return {"blocks": out}


def _family_doc(rng: random.Random, broken: bool) -> dict:
    """Bundles on a triangle of charts, glued by lambda = delta mu.

    The chart-c bundle at a sample is a base bundle twisted by mu_c; on an
    overlap the spectral cycles then differ by the cocycle value.
    """
    charts, edges, triangles = complete_complex(3)
    labels = sample_labels(rng.randint(1, 3))
    rank = rng.randint(1, 4)  # a family has one rank at every sample
    base = {s: rand_bundle(rng, rank) for s in labels}
    mu = {(c, s): rand_torsion(rng) for c in charts for s in labels}
    data = {f"{c}/{s}": _twist(base[s], mu[(c, s)]) for c in charts for s in labels}
    if broken:
        c, s = rng.choice(charts[1:]), rng.choice(labels)
        data[f"{c}/{s}"] = _twist(base[s], (mu[(c, s)][0] + Fraction(1, 2), mu[(c, s)][1]))
    lam = {
        f"{i},{j}": {
            s: point_json(mu[(j, s)][0] - mu[(i, s)][0], mu[(j, s)][1] - mu[(i, s)][1])
            for s in labels
        }
        for i, j in edges
    }
    return {
        "nerve": nerve_json(charts, edges, triangles, labels),
        "cocycle": {"lambda": lam},
        "data": data,
    }


def _section_doc(rng: random.Random, broken: bool) -> dict:
    labels = sample_labels(rng.randint(1, 3))
    n = rng.randint(1, 4)
    section = {}
    for s in labels:
        parts, left = [], n
        while left:
            m = rng.randint(1, left)
            parts.append({"p": point_json(*rand_torsion(rng)), "m": m})
            left -= m
        section[s] = {"parts": parts}
    if broken:
        section[labels[0]]["parts"][0]["m"] += 1
    return {"nerve": nerve_json(["c"], [], [], labels), "section": section, "n": n}


def _classify_doc(rng: random.Random, broken: bool) -> dict:
    charts, edges, triangles = grid_complex(2, periodic=False)
    labels = sample_labels(rng.randint(1, 2))
    value = {s: point_json(*rand_torsion(rng)) for s in labels}
    local = {f"{c}/{s}": value[s] for c in charts for s in labels}
    if broken:
        local[f"{charts[-1]}/{labels[0]}"] = point_json(Fraction(1, 2), Fraction(1, 3))
        if value[labels[0]] == local[f"{charts[-1]}/{labels[0]}"]:
            local[f"{charts[-1]}/{labels[0]}"] = point_json(Fraction(1, 3), Fraction(0))
    zero = {s: point_json(0, 0) for s in labels}
    return {
        "nerve": nerve_json(charts, edges, triangles, labels),
        "cocycle": {"lambda": {",".join(e): dict(zero) for e in edges}},
        "local": local,
    }


def _bent_ring(ring_text: str, rng: random.Random) -> dict:
    """A ring document with one product coefficient moved by 1."""
    ring = json.loads(ring_text)
    x = rng.choice(sorted(ring["products"]))
    y = rng.choice(sorted(ring["products"][x]))
    z = rng.choice(sorted(ring["products"][x][y]))
    ring["products"][x][y][z] = q_str(Fraction(ring["products"][x][y][z]) + 1)
    return ring


CLI_VERBS = (
    "fm", "psi", "spectral-cover", "gamma", "beta", "roundtrip",
    "cocycle-check", "coboundary", "classify", "gerbe", "invariants", "validate-ring",
)
# Verbs whose input is built to give an exit-1 verdict: one half of the
# verbs that have such verdicts on even seeds, the other half on odd ones.
CLI_BROKEN = (
    ("psi", "gamma", "cocycle-check", "gerbe"),
    ("beta", "classify", "coboundary", "validate-ring"),
)




def cli_inputs(seed: int, kodaira_text: str) -> list[list[dict]]:
    """One seeded operation per verb, and the fixed case.

    An operation holds the argument list (with {doc} standing for the
    input file), the document to write, and the expected exit code.
    kodaira_text is the kodaira preset's JSON, read from the checkout;
    validate-ring gets a bent copy of it as a file: document.
    """
    rng = random.Random(f"cli/{seed}")
    broken = CLI_BROKEN[seed % 2]
    ops = [_cli_op(rng, verb, verb in broken, kodaira_text) for verb in CLI_VERBS]
    return [[op] for op in ops] + [[cli_fixed_case()]] * CLI_FIXED_TIMES


def _cli_op(rng: random.Random, verb: str, broken: bool, kodaira_text: str) -> dict:
    doc, args, code = None, [verb, "--in", "{doc}"], 1 if broken else 0
    if verb in ("fm", "spectral-cover"):
        doc, code = rand_bundle(rng), 0
    elif verb == "psi":
        sky = rand_bundle(rng)
        doc = {
            "degree": 1 if broken else 0,
            "parts": [{"p": b["x"], "len": b["n"]} for b in sky["blocks"]],
        }
    elif verb == "gamma":
        doc = _family_doc(rng, broken)
    elif verb == "beta":
        doc = _section_doc(rng, broken)
    elif verb == "roundtrip":
        args = [verb, "--n", "2", "--torsion", "3", "--samples", "2"]
        code = 0
    elif verb in ("cocycle-check", "coboundary"):
        doc, _ = cocycle_doc(rng, 3, verb == "coboundary", 2, broken)
    elif verb == "classify":
        doc = _classify_doc(rng, broken)
    elif verb == "gerbe":
        doc, _ = gerbe_doc(rng, "periodic", 3, broken, False)
    elif verb == "invariants":
        cls = invariants_class(rng, "torus4", "plain")
        # --a=... keeps argparse from reading a leading minus as an option
        args = [verb, "--preset", cls["preset"], "--a=" + ",".join(cls["a"]),
                "--b=" + ",".join(cls["b"]), "--mode", rng.choice(("generic", "gaussian")),
                "--out", rng.choice(("json", "table"))]
        if cls["synthetic"]:
            args.append("--synthetic")
        code = 0
    elif verb == "validate-ring":
        if broken:
            doc = _bent_ring(kodaira_text, rng)
            args = [verb, "--preset", "file:{doc}"]
        else:
            args = [verb, "--preset", "kodaira"]
    return {"kind": "cli", "verb": verb, "args": args, "doc": doc, "expect": {"code": code}}


def cli_fixed_case() -> dict:
    """The README's `ellfib fm` example."""
    doc = {"blocks": [{"n": 3, "x": {"u": "0", "v": "0"}}]}
    return {"kind": "cli", "verb": "fm", "args": ["fm", "--in", "{doc}"], "doc": doc,
            "expect": {"code": 0}, "fixed": True}
