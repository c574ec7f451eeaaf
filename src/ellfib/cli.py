"""Command line front end: one verb per operation, JSON in and out.

Each verb returns a payload and a verdict; `main` alone reads the --in
document, writes the payload and maps exit codes: 0 when the computation
succeeds and every check passes, 1 for domain errors or a failing verdict
(a cocycle violation, a gerbe that does not glue, a failed round trip), 2
for malformed input.  Output is canonical JSON (or the invariants table),
so repeated runs on the same input are byte-identical.

Each verb imports its layer when it runs, not when this module loads, so
a cold process imports (and compiles) only the modules its verb calls.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import DomainError, SchemaError
from .serialize import canonical_json

if TYPE_CHECKING:
    from .cohomology.engine import InvariantsResult


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key given twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"key {key!r} is given twice in one object")
            seen.add(key)
    return obj


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    except ValueError as exc:  # the plain ValueError of an integer past the digit limit
        limit = sys.get_int_max_str_digits()
        raise SchemaError(f"{path}: invalid JSON (an integer has over {limit} digits)") from exc


def cmd_fm(doc) -> tuple[dict, bool]:
    from .serialize import parse_bundle, skyscraper_json
    from .transform import fm_transform

    return skyscraper_json(fm_transform(parse_bundle(doc))), True


def cmd_psi(doc) -> tuple[dict, bool]:
    from .serialize import bundle_json, parse_skyscraper
    from .transform import psi_transform

    return bundle_json(psi_transform(parse_skyscraper(doc))), True


def cmd_spectral_cover(doc) -> tuple[dict, bool]:
    from .serialize import cycle_json, parse_bundle
    from .spectral import spectral_cover

    return cycle_json(spectral_cover(parse_bundle(doc))), True


def cmd_gamma(doc) -> tuple[dict, bool]:
    from .serialize import gamma_json, parse_family
    from .spectral import gamma_map

    return gamma_json(gamma_map(parse_family(doc))), True


def cmd_beta(doc) -> tuple[dict, bool]:
    from .serialize import family_json, parse_section_doc
    from .spectral import beta_map

    return family_json(beta_map(*parse_section_doc(doc))), True


def cmd_roundtrip(args) -> tuple[dict, bool]:
    from .fibration import Nerve
    from .serialize import roundtrip_report_json
    from .spectral import _check_budget, round_trip_verify

    if args.n < 1 or args.torsion < 1 or args.samples < 1:
        raise SchemaError("--n, --torsion, and --samples must be positive")
    _check_budget(args.n, args.torsion, args.samples)
    # round_trip_verify reads the first sample only; K counts toward the budget
    report = round_trip_verify(Nerve.single_chart(), args.n, args.torsion)
    return roundtrip_report_json(report), report.ok


def cmd_cocycle_check(doc) -> tuple[dict, bool]:
    from .fibration import check_cocycle
    from .serialize import cocycle_report_json, parse_cocycle, parse_nerve

    report = check_cocycle(parse_nerve(doc["nerve"]), parse_cocycle(doc["cocycle"]))
    return cocycle_report_json(report), report.ok


def cmd_coboundary(doc) -> tuple[dict, bool]:
    from .fibration import coboundary_solve
    from .serialize import mu_json, parse_cocycle, parse_nerve

    mu = coboundary_solve(parse_nerve(doc["nerve"]), parse_cocycle(doc["cocycle"]))
    return mu_json(mu), mu is not None


def cmd_classify(doc) -> tuple[dict, bool]:
    from .fibration import classify_line_family
    from .serialize import (
        glued_json, parse_chart_sample_map, parse_cocycle, parse_nerve, parse_point,
    )

    nerve = parse_nerve(doc["nerve"])
    cocycle = parse_cocycle(doc["cocycle"])
    local = parse_chart_sample_map(doc["local"], "local", parse_point)
    return glued_json(classify_line_family(nerve, cocycle, local)), True


def cmd_gerbe(doc) -> tuple[dict, bool]:
    from .fibration import gerbe_alpha
    from .serialize import gerbe_report_json, parse_gerbe, parse_nerve

    nerve = parse_nerve(doc["nerve"])
    report = gerbe_alpha(nerve, parse_gerbe(doc["gerbe"], nerve))
    return gerbe_report_json(report), report.cocycle_ok and report.gluable


def _resolve_ring(selector: str):
    from .cohomology.ring import PRESET_NAMES, BigradedRing, load_preset

    if selector in PRESET_NAMES:
        return load_preset(selector)
    if selector.startswith("file:"):
        return BigradedRing(_load(selector[len("file:"):]))
    raise SchemaError(
        f"unknown preset {selector!r}; use one of {', '.join(PRESET_NAMES)} or file:PATH"
    )


def _parse_vector(text: str, length: int, what: str) -> list[Fraction]:
    from .torus import parse_fraction

    if text.strip() == "0":
        return [Fraction(0)] * length
    vec = [parse_fraction(part.strip(), what) for part in text.split(",")]
    if len(vec) != length:
        raise SchemaError(f"{what} must have {length} entries, got {len(vec)}")
    return vec


def invariants_json(result: InvariantsResult) -> dict:
    p = result.profile
    return {
        "ranks": {
            "e": p.e,
            "g": p.g,
            "d": p.d,
            "dprime": p.dprime,
            "h": p.h_rank,
            "f": p.f,
        },
        "hodge": [list(row) for row in result.diamond.h],
        "betti": list(result.betti),
        "consistency": list(result.consistency),
        "flags": list(p.flags),
    }


def _invariants_table(result: InvariantsResult) -> str:
    p = result.profile
    lines = [
        f"ring: {result.ring_name}   mode: {result.mode_name}"
        + ("   synthetic" if result.synthetic else ""),
        f"ranks: e={p.e} g={p.g} d={p.d} dprime={p.dprime} h={p.h_rank} f={p.f}",
        "hodge numbers by total degree (decreasing q):",
    ]
    for row in result.diamond.rows_by_total():
        lines.append("  " + " ".join(str(x) for x in row))
    lines.append("betti: " + " ".join(str(b) for b in result.betti))
    if result.consistency:
        lines.append("consistency violations:")
        lines.extend("  " + item for item in result.consistency)
    else:
        lines.append("consistency: ok")
    if p.flags:
        lines.append("flags: " + "; ".join(p.flags))
    return "\n".join(lines) + "\n"


def cmd_invariants(args) -> tuple[dict | str, bool]:
    from .cohomology.engine import full_invariants
    from .cohomology.fields import MODES

    ring = _resolve_ring(args.preset)
    length = len(ring.degree_labels(2))
    a = _parse_vector(args.a, length, "--a")
    b = _parse_vector(args.b, length, "--b")
    result = full_invariants(ring, a, b, MODES[args.mode], synthetic=args.synthetic)
    payload = invariants_json(result) if args.out == "json" else _invariants_table(result)
    return payload, not result.consistency


def cmd_validate_ring(args) -> tuple[dict, bool]:
    from .cohomology.ring import ring_validate

    ring = _resolve_ring(args.preset)
    violations = list(ring_validate(ring))
    return {"name": ring.name, "valid": not violations, "violations": violations}, not violations


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellfib",
        description="Torsion transforms, gluing checks, and cohomology tables "
        "for elliptic fibrations over rational data.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def file_verb(name: str, help_text: str, func, *sections: str) -> None:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--in", dest="infile", required=True, metavar="PATH",
                       help="input JSON file")
        p.set_defaults(func=func, sections=set(sections))

    file_verb("fm", "bundle to its supported torsion class", cmd_fm)
    file_verb("psi", "degree-zero torsion class back to a polystable bundle", cmd_psi)
    file_verb("spectral-cover", "bundle to its weighted support cycle", cmd_spectral_cover)
    file_verb("gamma", "family of bundles to a glued cycle section", cmd_gamma)
    file_verb("beta", "cycle section back to a bundle family", cmd_beta)
    file_verb("cocycle-check", "verify the triple-sum identity on a nerve", cmd_cocycle_check,
              "nerve", "cocycle")
    file_verb("coboundary", "solve for per-chart translations, or report failure", cmd_coboundary,
              "nerve", "cocycle")
    file_verb("classify", "glue per-chart line classes into one sample map", cmd_classify,
              "nerve", "cocycle", "local")
    file_verb("gerbe", "obstruction scalars and gluability of twisting data", cmd_gerbe,
              "nerve", "gerbe")

    rt = sub.add_parser("roundtrip", help="exhaustive two-way check over torsion data")
    rt.add_argument("--n", type=int, required=True, help="total length bound")
    rt.add_argument("--torsion", type=int, required=True, help="torsion order bound")
    rt.add_argument("--samples", type=int, default=1,
                    help="sample count on the single chart (default 1)")
    rt.set_defaults(func=cmd_roundtrip)

    inv = sub.add_parser("invariants", help="rank profile, Hodge table, Betti numbers")
    inv.add_argument("--preset", required=True,
                     help="kodaira | torus4 | k3 | file:PATH")
    inv.add_argument("--a", required=True,
                     help="first degree-two class: comma-separated rationals, or 0")
    inv.add_argument("--b", required=True,
                     help="second degree-two class: comma-separated rationals, or 0")
    inv.add_argument("--mode", choices=("generic", "gaussian"), default="generic")
    inv.add_argument("--out", choices=("json", "table"), default="json")
    inv.add_argument("--synthetic", action="store_true",
                     help="treat --a/--b as the real and imaginary seeds of a "
                     "synthetic class instead of a plain rational pair")
    inv.set_defaults(func=cmd_invariants)

    vr = sub.add_parser("validate-ring", help="run the ring axioms on a preset or file")
    vr.add_argument("--preset", required=True, help="kodaira | torus4 | k3 | file:PATH")
    vr.set_defaults(func=cmd_validate_ring)

    return parser


def _run(args) -> int:
    """Run the verb of args: read its document, write its payload, map its verdict to 0 or 1."""
    given = _load(args.infile) if "infile" in args else args
    if getattr(args, "sections", None):
        from .serialize import _require_dict
        given = _require_dict(given, "input", args.sections)
    payload, ok = args.func(given)
    sys.stdout.write(payload if isinstance(payload, str) else canonical_json(payload))
    return 0 if ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
