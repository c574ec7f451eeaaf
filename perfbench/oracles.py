"""Independent checks of every benchmark result.

The oracles never call ellfib.  They recompute what they need from the
generated input (closed-form counts, obstruction scalars, cocycle sums)
and read the program's result only through its public attributes.  Each
returns a list of problems; an empty list means the result is correct.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def check_roundtrip(op: dict, report) -> list[str]:
    expect = op["expect"]
    problems = []
    if not (report.ok and report.bijective and report.failures == ()):
        problems.append(f"round trip {op['n']},{op['torsion']} not ok: {report.failures[:2]}")
    if report.sections_checked != expect["sections"]:
        problems.append(f"sections {report.sections_checked} != {expect['sections']}")
    if report.bundles_checked != expect["bundles"]:
        problems.append(f"bundles {report.bundles_checked} != {expect['bundles']}")
    return problems


def _sorted_key(labels) -> tuple[str, ...]:
    return tuple(sorted(labels))


def gerbe_alpha(doc: dict) -> dict[tuple[str, str, str], Fraction]:
    """alpha_ijk = a_ij a_jk a_ki / c_ijk, with a_ki = 1 / a_ik."""
    a = {_sorted_key(k.split(",")): Fraction(v) for k, v in doc["gerbe"].get("a", {}).items()}
    c = {_sorted_key(k.split(",")): Fraction(v) for k, v in doc["gerbe"].get("c", {}).items()}
    one = Fraction(1)
    alpha = {}
    for tri in doc["nerve"]["triples"]:
        i, j, k = sorted(tri)
        alpha[(i, j, k)] = (
            a.get((i, j), one) * a.get((j, k), one) / a.get((i, k), one) / c.get((i, j, k), one)
        )
    return alpha


def check_gerbe(doc: dict, expect: dict, report) -> list[str]:
    alpha = gerbe_alpha(doc)
    problems = []
    if dict(report.alpha) != alpha:
        problems.append("obstruction scalars differ from a_ij a_jk a_ki / c_ijk")
    tetra = {}
    for quad in combinations(sorted(doc["nerve"]["charts"]), 4):
        i, j, k, l = quad
        faces = [(j, k, l), (i, j, l), (i, k, l), (i, j, k)]
        if all(f in alpha for f in faces):
            tetra[quad] = alpha[faces[0]] * alpha[faces[1]] / (alpha[faces[2]] * alpha[faces[3]])
    if dict(report.cocycle_checks) != tetra:
        problems.append("tetrahedron values differ from the cocycle identity")
    if report.cocycle_ok != all(v == 1 for v in tetra.values()):
        problems.append("cocycle_ok disagrees with the tetrahedron values")
    if report.cocycle_ok != expect["cocycle_ok"]:
        problems.append(f"cocycle_ok {report.cocycle_ok}, built to be {expect['cocycle_ok']}")
    if report.gluable != expect["gluable"]:
        problems.append(f"gluable {report.gluable}, built to be {expect['gluable']}")
    if report.gluable:
        beta = dict(report.witness or ())
        for (i, j, k), value in alpha.items():
            try:
                ok = beta[(i, j)] * beta[(j, k)] / beta[(i, k)] == value
            except (KeyError, ZeroDivisionError):
                ok = False
            if not ok:
                problems.append(f"witness fails beta_ij beta_jk / beta_ik = alpha on {(i, j, k)}")
                break
    elif report.witness is not None:
        problems.append("a witness was given for a gerbe that does not glue")
    return problems


def _lambda(doc: dict) -> dict[tuple[str, str], dict[str, tuple[Fraction, Fraction]]]:
    out = {}
    for key, per in doc["cocycle"]["lambda"].items():
        i, j = key.split(",")
        sign = 1 if i < j else -1
        out[_sorted_key((i, j))] = {
            s: ((sign * Fraction(p["u"])) % 1, (sign * Fraction(p["v"])) % 1)
            for s, p in per.items()
        }
    return out


def check_cocycle(doc: dict, expect: dict, report, mu) -> list[str]:
    """Violations must be exactly the nonzero triple sums; mu must solve."""
    lam = _lambda(doc)
    nerve = doc["nerve"]
    expected = set()
    for tri in nerve["triples"]:
        i, j, k = sorted(tri)
        for s in nerve["samples"]["triples"][",".join(tri)]:
            u = (lam[(i, j)][s][0] + lam[(j, k)][s][0] - lam[(i, k)][s][0]) % 1
            v = (lam[(i, j)][s][1] + lam[(j, k)][s][1] - lam[(i, k)][s][1]) % 1
            if u or v:
                expected.add(((i, j, k), s, (u, v)))
    got = {(tuple(tri), s, (p.u, p.v)) for tri, s, p in report.violations}
    problems = []
    if got != expected or report.ok != (not expected):
        problems.append(f"cocycle violations {len(got)} differ from the {len(expected)} expected")
    if expect["solvable"] != (not expected):
        problems.append("input was not built as described")
    if not expect["solvable"]:
        if mu is not None:
            problems.append("coboundary found for a cocycle built to have none")
        return problems
    if mu is None:
        return problems + ["no coboundary found for a cocycle built as one"]
    nodes = {(c, s) for c in nerve["charts"] for s in nerve["samples"]["charts"][c]}
    if set(mu) != nodes:
        problems.append("coboundary does not cover every chart sample")
        return problems
    for (i, j), per in lam.items():
        for s, (u, v) in per.items():
            du, dv = mu[(j, s)].u - mu[(i, s)].u, mu[(j, s)].v - mu[(i, s)].v
            if (du - u) % 1 or (dv - v) % 1:
                return problems + [f"mu_j - mu_i != lambda_ij on {(i, j)} at {s}"]
    return problems


def _has_specialization_flag(result) -> bool:
    return any("not reproduced" in flag for flag in result.profile.flags)


def check_invariants(op: dict, result, partner=None) -> list[str]:
    """Criterion-4 identities, kodaira Betti formulas, mode agreement.

    partner is the same class's result in the other mode, if already run.
    """
    diamond, betti = result.diamond, result.betti
    h = diamond.value
    problems = []
    if sum((-1) ** (p + q) * h(p, q) for p in range(4) for q in range(4)) != 0:
        problems.append("alternating Hodge sum is not 0")
    if sum((-1) ** k * bk for k, bk in enumerate(betti)) != 0:
        problems.append("alternating Betti sum is not 0")
    if any(betti[k] != betti[6 - k] for k in range(7)):
        problems.append("Betti duality fails")
    if any(h(p, q) != h(3 - p, 3 - q) for p in range(4) for q in range(4)):
        problems.append("Hodge duality fails")
    for k in range(7):
        if betti[k] > sum(h(p, k - p) for p in range(4) if 0 <= k - p <= 3):
            problems.append(f"degeneration bound fails at b{k}")
    if result.consistency:
        problems.append(f"consistency violations: {result.consistency[:2]}")
    nonzero = any(Fraction(x) for x in op["a"] + op["b"])
    if op["preset"] == "kodaira" and nonzero:
        d, dp = result.profile.d, result.profile.dprime
        if (betti[1], betti[2], betti[3]) != (5 - d, 10 - d - dp, 12 - 2 * dp):
            problems.append("kodaira Betti formulas b1=5-d, b2=10-d-d', b3=12-2d' fail")
    if partner is not None and not (
        _has_specialization_flag(result) or _has_specialization_flag(partner)
    ):
        mine, theirs = result.profile, partner.profile
        same = (
            diamond == partner.diamond
            and betti == partner.betti
            and (mine.e, mine.g, mine.d, mine.dprime, mine.h_rank, mine.f)
            == (theirs.e, theirs.g, theirs.d, theirs.dprime, theirs.h_rank, theirs.f)
        )
        if not same:
            problems.append("generic and gaussian modes disagree")
    return problems


def check_validate(op: dict, violations) -> list[str]:
    return [f"preset {op['preset']} reported invalid: {violations[:2]}"] if violations else []


def check_cli(op: dict, code: int, out: bytes, err: bytes, reference, earlier) -> list[str]:
    """Exit code as built; stdout equal to in-process main and to repeats.

    reference is (code, stdout) from ellfib.cli.main in this process;
    earlier is the stdout of a previous cold run of the same input.
    """
    problems = []
    if code != op["expect"]["code"]:
        problems.append(f"{op['verb']}: exit {code}, built for {op['expect']['code']}")
    if b"Traceback" in err:
        problems.append(f"{op['verb']}: traceback on stderr")
    if (code, out) != reference:
        problems.append(f"{op['verb']}: cold output differs from in-process main")
    if earlier is not None and out != earlier:
        problems.append(f"{op['verb']}: output differs between repeats")
    return problems
