"""One sha256 per CLI verb over the benchmark's seeded inputs.

Runs ellfib.cli.main in-process over perfbench.gen.cli_inputs (all
twelve verbs) and over the invariants classes of
perfbench.gen.invariants_inputs, each with --out json and --out table,
for seeds 0-39, then roundtrip over a fixed grid: n 1-3, torsion 1-4
and --samples 1, 2 and 5, plus two refused requests (over the work
budget, and --samples 0) and both sides of the budget edge (n 1,
torsion 1, --samples 10**6 and 10**6 + 1), then a fixed block-order
grid over the four 2-torsion points: every rank-3 bundle through fm
and spectral-cover, its blocks listed in reverse canonical order so
that the block sort has work to do, and every rank-3 degree-0 cycle,
as a skyscraper, through psi, then validate-ring on the torus4 and k3
presets and on three kodaira file: documents: one whose conjugation of
A is doubled (its inverse check fails), one whose product, de Rham
product and identification tables are scaled by 3/2, 1/6 and 5/4, and
one whose conjugation is an involution with fractional entries, then
invariants on the scaled kodaira document (the kodaira classes of seeds
0-9, both modes, --out json and --out table), then psi and beta at
transform.PSI_BLOCK_BUDGET blocks and one block past it (the refusal),
then gerbe on the 6-vertex triangulation of the real projective plane,
whose relator diagonal holds a 2: every sign pattern of c with a = 1,
then seeded signed prime ratios for a and c, then invariants on six
torus4 classes whose ranks change at tau = i (both modes, --out json
and --out table), then the fixed round trips of the moduli benchmark,
roundtrip --n 3 --torsion 6 and --n 4 --torsion 4, each in a fresh
`python -m ellfib.cli` process, then cocycle-check, classify and
gerbe on a three-chart nerve with data on it, as given and with one
defect each: in the nerve's charts, overlaps, triples or sample sets,
or in the cocycle, local classes or gerbe data off the nerve, and then
gerbe with descriptors: on that nerve given on a reversed key or
generator, with cancelling exponents, equal to the default, on both
orientations (agreeing and in conflict), and on the projective plane
one descriptor off its default by a vector in the rational span of the
relator rows but outside their lattice (condition 3 fails), and last
gerbe with c a coboundary on that three-chart nerve and on the complete
nerve of c1, c2, c3 and c10, its triple keys sorted, cyclically rotated
and transposed, and on a copy whose chart names sort in reverse.
Every run's argument list, exit code, stdout and stderr go into the
digest of its verb; the budget runs go into "psi budget" and "beta
budget", so the other eighteen digests can be compared with a checkout
that has no such budget, the projective-plane gerbes into "gerbe rp2",
the torus4 classes into "invariants tau=i", the two fresh-process
round trips into "roundtrip cold", the three-chart nerve runs into
"nerve errors", the descriptor runs into "gerbe descriptors", and the
coboundary runs into "gerbe parity": they read a c key given in an odd
order as inverted, which a checkout that reads c without its orientation
answers otherwise.  Input
documents are written to one fixed relative path inside a temporary
working directory, so no temporary path reaches the output.

Two checkouts that print the same digests gave the same bytes on every
one of these runs.  Run it from any directory, on each checkout:

    python3 tools/cli_digest.py

Standard library only; perfbench/ is read, never written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402  (perfbench/gen.py)
from ellfib.cli import main  # noqa: E402

# transform.PSI_BLOCK_BUDGET, written out so that the tool also runs on a
# checkout that has no such budget
PSI_BLOCK_BUDGET = 100_000

SEEDS = range(40)
FRACTIONAL_SEEDS = range(10)
DOC = "doc.json"


def cli_runs(seed: int, kodaira_text: str):
    """(argv, document) for every cli operation of the seed."""
    for unit in gen.cli_inputs(seed, kodaira_text):
        for op in unit:
            yield [arg.replace("{doc}", DOC) for arg in op["args"]], op["doc"]


def invariants_runs(seed: int, preset: str | None = None):
    """(argv, None) for every invariants class of the seed, in both outputs;
    given a preset, only its classes, run on the ring of the file DOC."""
    for unit in gen.invariants_inputs(seed):
        for op in unit:
            if op["kind"] != "invariants" or preset not in (None, op["preset"]):
                continue
            ring = op["preset"] if preset is None else f"file:{DOC}"
            argv = ["invariants", "--preset", ring, "--a=" + ",".join(op["a"]),
                    "--b=" + ",".join(op["b"]), "--mode", op["mode"]]
            if op["synthetic"]:
                argv.append("--synthetic")
            for out in ("json", "table"):
                yield argv + ["--out", out], None


def roundtrip_runs():
    """(argv, None) for the fixed roundtrip grid, refused requests and the budget edge."""
    for n in range(1, 4):
        for torsion in range(1, 5):
            for samples in (1, 2, 5):
                yield ["roundtrip", "--n", str(n), "--torsion", str(torsion),
                       "--samples", str(samples)], None
    # 18 204 objects times 110 samples is over spectral.ROUND_TRIP_BUDGET
    yield ["roundtrip", "--n", "3", "--torsion", "6", "--samples", "110"], None
    # 2 objects times 10**6 samples is the budget itself; one sample more is over it
    for samples in ("1000000", "1000001"):
        yield ["roundtrip", "--n", "1", "--torsion", "1", "--samples", samples], None
    yield ["roundtrip", "--n", "2", "--torsion", "3", "--samples", "0"], None


TWO_TORSION = [(Fraction(a, 2), Fraction(b, 2)) for a in range(2) for b in range(2)]


def _point_doc(point: tuple[Fraction, Fraction]) -> dict:
    return {"u": str(point[0]), "v": str(point[1])}


def block_order_runs():
    """(argv, document) for every rank-3 bundle and degree-0 cycle over 2-torsion.

    Bundles list their blocks in reverse (point, rank) order; cycles
    list their parts, lengths merged, in reverse point order.
    """
    # (rank, point) blocks in (point, rank) order, so each combination
    # below comes out in canonical block order
    blocks = [(n, x) for x in TWO_TORSION for n in (1, 2, 3)]
    for size in (1, 2, 3):
        for combo in combinations_with_replacement(blocks, size):
            if sum(n for n, _ in combo) != 3:
                continue
            doc = {"blocks": [{"n": n, "x": _point_doc(x)} for n, x in reversed(combo)]}
            for verb in ("fm", "spectral-cover"):
                yield [verb, "--in", DOC], doc
    for combo in combinations_with_replacement(TWO_TORSION, 3):
        parts = sorted({p: combo.count(p) for p in combo}.items(), reverse=True)
        doc = {"parts": [{"p": _point_doc(p), "len": m} for p, m in parts], "degree": 0}
        yield ["psi", "--in", DOC], doc


def scaled_kodaira(kodaira_text: str) -> dict:
    """The kodaira document with its product, de Rham product and
    identification tables scaled by 3/2, 1/6 and 5/4."""
    doc = json.loads(kodaira_text)

    def scaled(vectors: dict, c: Fraction) -> dict:
        return {x: {z: str(Fraction(v) * c) for z, v in vec.items()} for x, vec in vectors.items()}

    doc["products"] = {x: scaled(per, Fraction(3, 2)) for x, per in doc["products"].items()}
    doc["derham"]["products"] = {
        x: scaled(per, Fraction(1, 6)) for x, per in doc["derham"]["products"].items()
    }
    doc["ident"] = scaled(doc["ident"], Fraction(5, 4))
    return doc


def validate_ring_runs(kodaira_text: str):
    """(argv, document) for validate-ring beyond the kodaira files of the seeds."""
    for preset in ("torus4", "k3"):
        yield ["validate-ring", "--preset", preset], None
    argv = ["validate-ring", "--preset", f"file:{DOC}"]
    doc = json.loads(kodaira_text)
    doc["conjugation"]["A"]["B"] = "-2"
    yield argv, doc
    yield argv, scaled_kodaira(kodaira_text)
    # an involution whose conjugation table has the scale 6
    doc = json.loads(kodaira_text)
    doc["conjugation"].update(
        A={"B": "-2"}, B={"A": "-1/2"}, G2={"H1": "3"}, H1={"G2": "1/3"}
    )
    yield argv, doc


def fractional_ring_runs(kodaira_text: str):
    """(argv, document) for invariants on the kodaira ring with fractional tables."""
    doc = scaled_kodaira(kodaira_text)
    for seed in FRACTIONAL_SEEDS:
        for argv, _ in invariants_runs(seed, "kodaira"):
            yield argv, doc


def budget_runs():
    """(argv, document) for psi and beta at the block budget and one block past it."""
    origin = _point_doc((Fraction(0), Fraction(0)))
    for blocks in (PSI_BLOCK_BUDGET, PSI_BLOCK_BUDGET + 1):
        yield ["psi", "--in", DOC], {"parts": [{"p": origin, "len": blocks}], "degree": 0}
        section = {"s": {"parts": [{"p": origin, "m": blocks}]}}
        nerve = {"charts": ["c"], "samples": {"charts": {"c": ["s"]}}}
        yield ["beta", "--in", DOC], {"nerve": nerve, "section": section, "n": blocks}


# the 6-vertex triangulation of the real projective plane: every pair of
# vertices is an edge, and each edge lies on exactly two of the ten faces
RP2_FACES = (
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
)
RP2_SEEDS = range(64)


def _signed_ratio(rng: random.Random) -> Fraction:
    num = rng.choice((-1, 1)) * rng.choice((2, 3)) ** rng.randint(0, 2)
    return Fraction(num, rng.choice((1, 2, 3)))


RP2_CHARTS = [f"c{v}" for v in range(1, 7)]
RP2_OVERLAPS = list(combinations(RP2_CHARTS, 2))
RP2_TRIPLES = [tuple(f"c{v}" for v in face) for face in RP2_FACES]


def rp2_gerbe_runs():
    """(argv, document) for gerbe on the projective plane: each of the 1024
    sign patterns of c with a = 1 (it glues exactly when an even number of
    c are -1), then per seed random signed ratios of 2 and 3 for a, and c
    the coboundary of such ratios with random signs, on every fourth seed
    with one face doubled (its prime part no longer glues)."""
    nerve = gen.nerve_json(RP2_CHARTS, RP2_OVERLAPS, RP2_TRIPLES, ["s"])
    argv = ["gerbe", "--in", DOC]
    faces = [",".join(tri) for tri in RP2_TRIPLES]
    for signs in product(("1", "-1"), repeat=len(faces)):
        yield argv, {"nerve": nerve, "gerbe": {"c": dict(zip(faces, signs))}}
    for seed in RP2_SEEDS:
        rng = random.Random(seed)
        a = {",".join(pair): str(_signed_ratio(rng)) for pair in RP2_OVERLAPS}
        b = {pair: _signed_ratio(rng) for pair in RP2_OVERLAPS}
        c = {
            ",".join((i, j, k)): b[(i, j)] * b[(j, k)] / b[(i, k)] * rng.choice((-1, 1))
            for i, j, k in RP2_TRIPLES
        }
        if seed % 4 == 3:
            c[rng.choice(faces)] *= 2
        yield argv, {"nerve": nerve, "gerbe": {"a": a, "c": {f: str(q) for f, q in c.items()}}}


# torus4 classes (a, b) whose gaussian row of total degree 2, [3,6,2], differs
# from the generic [3,5,1]: tau = i changes their ranks, so a slip in how
# a rank at tau = i is read shows here first
TAU_I_CLASSES = [
    ("0,1/2,0,0,2,0", "2,0,-1,1,0,0"),
    ("0,2,0,0,-1,0", "2,0,2,1,0,0"),
    ("2,0,2,1,0,0", "-1,2,0,0,-1,0"),
    ("0,2,-1,0,-1,0", "1,1,2,1,0,0"),
    ("1/2,-1,0,0,1,0", "0,0,1,1,0,0"),
    ("0,0,1,1,1,0", "0,2,1,1,0,0"),
]


def tau_i_runs():
    """(argv, None) for invariants on each TAU_I_CLASSES class, both modes and outputs."""
    for a, b in TAU_I_CLASSES:
        for mode in ("generic", "gaussian"):
            for out in ("json", "table"):
                yield ["invariants", "--preset", "torus4", f"--a={a}", f"--b={b}",
                       "--mode", mode, "--out", out], None


# the fixed (n, torsion) round trips of the moduli benchmark, run cold
COLD_ROUNDTRIPS = [
    ["roundtrip", "--n", "3", "--torsion", "6"],
    ["roundtrip", "--n", "4", "--torsion", "4"],
]


ABC_PAIRS = ["a,b", "a,c", "b,c"]
ZERO = {"u": "0", "v": "0"}
DROP = object()  # a change that deletes its key


def _abc_parts() -> dict:
    """A nerve on charts a, b, c (samples s and t, their three overlaps with s
    and t, their triple with s) and valid cocycle, local and gerbe data on it."""
    return {
        "nerve": {
            "charts": ["a", "b", "c"],
            "overlaps": [pair.split(",") for pair in ABC_PAIRS],
            "triples": [["a", "b", "c"]],
            "samples": {
                "charts": {c: ["s", "t"] for c in "abc"},
                "overlaps": {pair: ["s", "t"] for pair in ABC_PAIRS},
                "triples": {"a,b,c": ["s"]},
            },
        },
        "cocycle": {"lambda": {pair: {"s": ZERO, "t": ZERO} for pair in ABC_PAIRS}},
        "local": {f"{c}/{s}": ZERO for c in "abc" for s in "st"},
        "gerbe": {"a": {"a,b": "2"}, "c": {"a,b,c": "3"}},
    }


def _pairs_plus(*extra) -> list:
    """The overlaps of _abc_parts, then each extra one, spelled as its charts' letters."""
    return [pair.split(",") for pair in ABC_PAIRS] + [list(x) for x in extra]


# (path, value): one change to the parts of _abc_parts; each run below
# carries a single defect, from the nerve's charts to the data on it
NERVE_DEFECTS = [
    (("nerve", "charts"), []),
    (("nerve", "charts"), ["a", "b", "c", "a"]),
    (("nerve", "charts"), ["a", "b", "c", ""]),
    (("nerve", "charts"), ["a", "b", "c", 7]),
    (("nerve", "charts"), ["a", "b", "c", "d,e"]),
    (("nerve", "charts"), ["a", "b", "c", "d/e"]),
    (("nerve", "charts"), "abc"),
    (("nerve", "overlaps"), _pairs_plus("a")),
    (("nerve", "overlaps"), _pairs_plus("abc")),
    (("nerve", "overlaps"), _pairs_plus("aa")),
    (("nerve", "overlaps"), _pairs_plus("za")),
    (("nerve", "overlaps"), _pairs_plus("ba")),
    (("nerve", "overlaps"), [["a", 7]]),
    (("nerve", "triples"), [["a", "b", "c"], ["a", "b"]]),
    (("nerve", "triples"), [["a", "b", "c"], ["a", "b", "a"]]),
    (("nerve", "triples"), [["a", "b", "c"], ["z", "b", "a"]]),
    (("nerve", "triples"), [["a", "b", "c"], ["c", "b", "a"]]),
    (("nerve", "triples"), {"a": "b"}),
    (("nerve", "overlaps"), _pairs_plus()[:2]),
    (("nerve", "samples"), DROP),
    (("nerve", "samples", "charts"), DROP),
    (("nerve", "samples", "overlaps", "b,a"), ["s"]),
    (("nerve", "samples", "triples", "c,a,b"), ["s"]),
    (("nerve", "samples", "charts", "b"), DROP),
    (("nerve", "samples", "overlaps", "a,c"), DROP),
    (("nerve", "samples", "triples", "a,b,c"), DROP),
    (("nerve", "samples", "charts", "a"), []),
    (("nerve", "samples", "overlaps", "a,c"), []),
    (("nerve", "samples", "triples", "a,b,c"), []),
    (("nerve", "samples", "charts", "c"), ["t", "s", "t"]),
    (("nerve", "samples", "overlaps", "b,c"), ["s", "s"]),
    (("nerve", "samples", "triples", "a,b,c"), ["s", "s"]),
    (("nerve", "samples", "charts", "a"), ["s", ""]),
    (("nerve", "samples", "overlaps", "a,b"), ["s", "x/y"]),
    (("nerve", "samples", "triples", "a,b,c"), ["x,y"]),
    (("nerve", "samples", "charts", "z"), ["s"]),
    (("nerve", "samples", "overlaps", "z,a"), ["s"]),
    (("nerve", "samples", "triples", "a,z,b"), ["s"]),
    (("nerve", "samples", "charts", "a,b"), ["s"]),
    (("nerve", "samples", "overlaps", "a"), ["s"]),
    (("nerve", "samples", "triples", "a,b"), ["s"]),
    (("nerve", "samples", "overlaps", "a,c"), ["s", "u"]),
    (("nerve", "samples", "charts", "c"), ["s"]),
    (("nerve", "samples", "triples", "a,b,c"), ["s", "t", "u"]),
    (("nerve", "samples", "unknown"), {}),
    (("cocycle", "lambda", "a,z"), {"s": ZERO}),
    (("cocycle", "lambda", "a,b", "u"), ZERO),
    (("cocycle", "lambda", "b,a"), {"s": ZERO}),
    (("cocycle", "lambda", "a,b"), DROP),
    (("local", "z/s"), ZERO),
    (("local", "a/u"), ZERO),
    (("local", "a,b/s"), ZERO),
    (("local", "a/s"), DROP),
    (("gerbe", "a", "a,z"), "2"),
    (("gerbe", "a", "b,a"), "1/2"),
    (("gerbe", "a", "a,a"), "2"),
    (("gerbe", "c", "a,b,z"), "2"),
    (("gerbe", "c", "c,b,a"), "3"),
    (("gerbe", "c", "a,b"), "3"),
    (("gerbe", "descriptors"), {"a,z": {}}),
    (("gerbe", "descriptors"), {"a,b": {"z,a": 1}}),
]

# descriptor sets on the nerve of _abc_parts, in the document's "i,j" keys
ABC_DESCRIPTORS = [
    {"b,a": {"a,b": 1}},  # on a reversed key
    {"a,b": {"b,a": -1}},  # a reversed generator: the default of a,b
    {"a,b": {"a,b": 2, "b,a": 2}},  # exponents that cancel
    {"a,c": {"a,b": 1, "b,a": 1, "a,c": 1}},  # a cancelling pair beside the default
    {"b,c": {"b,c": 1}},  # explicitly the default
    {"a,b": {"a,b": 1}, "b,a": {"b,a": 1}},  # both orientations, agreeing
    {"a,b": {"a,b": 1}, "b,a": {"a,b": 1}},  # both orientations, in conflict
    {"a,b": {"a,b": 2, "b,c": 1, "a,c": -1}},  # the default plus the relator row
]


def _rp2_relator_half_sum() -> dict:
    """Half the sum of the projective plane's relator rows g_ij + g_jk - g_ik.

    Each edge lies on two faces, so the sum is even.  Its half is in the
    rational span of the rows but not in their lattice: an integer
    combination equal to it would leave, doubled and less the sum, a
    vanishing combination with odd coefficients, and the rows are
    independent over the rationals.
    """
    total = dict.fromkeys(RP2_OVERLAPS, 0)
    for i, j, k in RP2_TRIPLES:
        total[(i, j)] += 1
        total[(j, k)] += 1
        total[(i, k)] -= 1
    assert all(e % 2 == 0 for e in total.values())
    return {pair: e // 2 for pair, e in total.items() if e}


def descriptor_runs():
    """(argv, document) for gerbe with descriptors: each ABC_DESCRIPTORS set
    beside the gerbe scalars of _abc_parts, then on the projective plane the
    descriptor of c1,c2 moved off its default by the half sum of the
    relator rows (condition 3 fails) and by the whole sum (it holds)."""
    argv = ["gerbe", "--in", DOC]
    for descriptors in ABC_DESCRIPTORS:
        parts = _abc_parts()
        gerbe = dict(parts["gerbe"], descriptors=descriptors)
        yield argv, {"nerve": parts["nerve"], "gerbe": gerbe}
    half = _rp2_relator_half_sum()
    nerve = gen.nerve_json(RP2_CHARTS, RP2_OVERLAPS, RP2_TRIPLES, ["s"])
    for times in (1, 2):
        vec = {pair: times * e for pair, e in half.items()}
        vec[("c1", "c2")] = vec.get(("c1", "c2"), 0) + 1
        descriptor = {",".join(pair): e for pair, e in vec.items() if e}
        yield argv, {"nerve": nerve, "gerbe": {"descriptors": {"c1,c2": descriptor}}}


# the complete nerve on c1, c2, c3 and c10, whose c10 sorts before c2 as a string
PARITY_CHARTS = ["c1", "c2", "c3", "c10"]


def renamed_nerve(nerve: dict, name: dict) -> dict:
    """The nerve document with each chart c called name[c], every key in its old order."""
    rename = lambda key: ",".join(name[c] for c in key.split(","))
    return {
        "charts": [name[c] for c in nerve["charts"]],
        "overlaps": [[name[c] for c in pair] for pair in nerve["overlaps"]],
        "triples": [[name[c] for c in tri] for tri in nerve["triples"]],
        "samples": {
            kind: {rename(key): labels for key, labels in table.items()}
            for kind, table in nerve["samples"].items()
        },
    }


def parity_runs():
    """(argv, document) for gerbe with c = delta b, b seeded signed ratios, on
    the nerve of _abc_parts and on the complete nerve of PARITY_CHARTS: each
    triple keyed in sorted order, cyclically rotated (an even permutation)
    and transposed (an odd one), then the sorted document with its charts
    renamed r9, r8, ... in sorted order, which reverses their string order
    and so makes every key odd.  Each glues when a c key carries its
    orientation."""
    argv = ["gerbe", "--in", DOC]
    pairs, triples = (list(combinations(PARITY_CHARTS, r)) for r in (2, 3))
    for nerve in (_abc_parts()["nerve"], gen.nerve_json(PARITY_CHARTS, pairs, triples, ["s"])):
        rng = random.Random(len(nerve["charts"]))
        b = {tuple(pair): _signed_ratio(rng) for pair in nerve["overlaps"]}
        beta = lambda i, j: b[(i, j)] if (i, j) in b else 1 / b[(j, i)]
        delta = lambda i, j, k: str(beta(i, j) * beta(j, k) / beta(i, k))
        for order in ((0, 1, 2), (1, 2, 0), (1, 0, 2)):
            keys = [[sorted(tri)[n] for n in order] for tri in nerve["triples"]]
            c = {",".join(key): delta(*key) for key in keys}
            yield argv, {"nerve": nerve, "gerbe": {"c": c}}
        name = {chart: f"r{9 - n}" for n, chart in enumerate(sorted(nerve["charts"]))}
        c = {
            ",".join(name[x] for x in sorted(tri)): delta(*sorted(tri)) for tri in nerve["triples"]
        }
        yield argv, {"nerve": renamed_nerve(nerve, name), "gerbe": {"c": c}}


NERVE_VERBS = {
    "cocycle-check": ("nerve", "cocycle"),
    "classify": ("nerve", "cocycle", "local"),
    "gerbe": ("nerve", "gerbe"),
}


def nerve_error_runs():
    """(argv, document) for cocycle-check, classify and gerbe on the parts of
    _abc_parts as given, then with each NERVE_DEFECTS change: a verb runs a
    change whose first step names one of the parts it reads."""
    for change in [None, *NERVE_DEFECTS]:
        parts = _abc_parts()
        if change is not None:
            (*steps, key), value = change
            at = parts
            for step in steps:
                at = at[step]
            if value is DROP:
                del at[key]
            else:
                at[key] = value
        for verb, names in NERVE_VERBS.items():
            if change is None or change[0][0] in names:
                yield [verb, "--in", DOC], {name: parts[name] for name in names}


def all_runs(kodaira_text: str):
    """Every run in digest order: the seeds' runs, the roundtrip grid, the
    block-order grid, validate-ring, invariants on fractional tables."""
    for seed in SEEDS:
        yield from list(cli_runs(seed, kodaira_text)) + list(invariants_runs(seed))
    yield from roundtrip_runs()
    yield from block_order_runs()
    yield from validate_ring_runs(kodaira_text)
    yield from fractional_ring_runs(kodaira_text)


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_cold(argv: list[str]) -> tuple[int, str, str]:
    """One `python -m ellfib.cli` process of this checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "ellfib.cli", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def main_digest() -> None:
    kodaira_text = (ROOT / "src/ellfib/cohomology/presets/kodaira.json").read_text()
    digests = {}
    counts: dict[str, int] = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            runs = [(argv[0], argv, doc) for argv, doc in all_runs(kodaira_text)]
            runs += [(f"{argv[0]} budget", argv, doc) for argv, doc in budget_runs()]
            runs += [("gerbe rp2", argv, doc) for argv, doc in rp2_gerbe_runs()]
            runs += [("invariants tau=i", argv, None) for argv, _ in tau_i_runs()]
            runs += [("roundtrip cold", argv, None) for argv in COLD_ROUNDTRIPS]
            runs += [("nerve errors", argv, doc) for argv, doc in nerve_error_runs()]
            runs += [("gerbe descriptors", argv, doc) for argv, doc in descriptor_runs()]
            runs += [("gerbe parity", argv, doc) for argv, doc in parity_runs()]
            for verb, argv, doc in runs:
                if doc is not None:
                    Path(DOC).write_text(json.dumps(doc, indent=1))
                code, out, err = (run_cold if verb == "roundtrip cold" else run)(argv)
                record = json.dumps([argv, code, out, err]) + "\n"
                digests.setdefault(verb, hashlib.sha256()).update(record.encode())
                counts[verb] = counts.get(verb, 0) + 1
        finally:
            os.chdir(home)
    for verb in sorted(digests):
        print(f"{verb:16} {counts[verb]:6} {digests[verb].hexdigest()}")


if __name__ == "__main__":
    main_digest()
