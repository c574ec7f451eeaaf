"""JSON schemas for every value the command line reads or writes.

All rationals travel as lowest-term strings ("-3/7", "0"); floats are
rejected everywhere.  Parsing is strict: wrong shapes, unknown keys, or
non-integer counts raise SchemaError, which the command line maps to
exit code 2.  Emission is canonical (sorted keys, two-space indent,
trailing newline) so identical values always serialize byte-identically.

The parsers of nerves, cocycles, gerbes and families import the
fibration and spectral layers when they run, so reading a bundle, a
skyscraper or a cycle (a torus PointMultiset) loads neither.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .bundles import AtiyahBundle, make_bundle
from .errors import BudgetExceeded, SchemaError
from .torus import Divisor, PointMultiset, TorusPoint, make_divisor, make_multiset, parse_fraction
from .transform import PSI_BLOCK_BUDGET, SkyscraperClass, make_skyscraper

if TYPE_CHECKING:
    from .fibration import CocycleReport, GerbeData, GerbeReport, Nerve, TranslationCocycle
    from .spectral import BundleFamily, RoundTripReport


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _require_dict(obj, what: str, required: set[str], optional: set[str] = frozenset()) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object")
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"{what} missing keys {sorted(missing)}")
    unknown = set(obj) - required - optional
    if unknown:
        raise SchemaError(f"{what} has unknown keys {sorted(unknown)}")
    return obj


def _require_list(obj, what: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(f"{what} must be a JSON array")
    return obj


def _any_dict(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object")
    return obj


def fraction_json(q: Fraction) -> str:
    return str(Fraction(q))


def parse_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


# -- torus points and divisors --------------------------------------------


def parse_point(obj) -> TorusPoint:
    data = _require_dict(obj, "point", {"u", "v"})
    return TorusPoint(parse_fraction(data["u"], "u"), parse_fraction(data["v"], "v"))


def point_json(p: TorusPoint) -> dict:
    return {"u": fraction_json(p.u), "v": fraction_json(p.v)}


def _parse_counted(obj, what: str, item: str, point_key: str, count_key: str) -> list:
    """(point, count) pairs from a JSON array of {point_key, count_key} objects."""
    pairs = []
    for entry in _require_list(obj, what):
        data = _require_dict(entry, item, {point_key, count_key})
        pairs.append((parse_point(data[point_key]), parse_int(data[count_key], count_key)))
    return pairs


def _counted_json(pairs, point_key: str, count_key: str) -> list:
    return [{point_key: point_json(p), count_key: m} for p, m in pairs]


def parse_divisor(obj) -> Divisor:
    return make_divisor(_parse_counted(obj, "divisor", "divisor term", "point", "coeff"))


def divisor_json(d: Divisor) -> list:
    return _counted_json(d.terms, "point", "coeff")


# -- bundles, skyscrapers, cycles -----------------------------------------


def parse_bundle(obj) -> AtiyahBundle:
    data = _require_dict(obj, "bundle", {"blocks"})
    blocks = _parse_counted(data["blocks"], "blocks", "block", "x", "n")
    return make_bundle((n, x) for x, n in blocks)


def bundle_json(b: AtiyahBundle) -> dict:
    return {"blocks": _counted_json(((x, n) for n, x in b.blocks), "x", "n")}


def parse_skyscraper(obj) -> SkyscraperClass:
    data = _require_dict(obj, "skyscraper", {"parts", "degree"})
    parts = _parse_counted(data["parts"], "parts", "part", "p", "len")
    sky = make_skyscraper(parts, parse_int(data["degree"], "degree"))
    _check_blocks(sky.total(), "skyscraper asks for")
    return sky


def _check_blocks(count: int, what: str) -> None:
    """Refuse a document whose inverse transforms would build over PSI_BLOCK_BUDGET blocks."""
    if count > PSI_BLOCK_BUDGET:
        raise BudgetExceeded(
            f"{what} {count} rank-one blocks, over the budget of {PSI_BLOCK_BUDGET}"
        )


def skyscraper_json(s: SkyscraperClass) -> dict:
    return {"parts": _counted_json(s.parts, "p", "len"), "degree": s.degree}


def parse_cycle(obj) -> PointMultiset:
    data = _require_dict(obj, "cycle", {"parts"})
    return make_multiset(_parse_counted(data["parts"], "parts", "part", "p", "m"))


def cycle_json(c: PointMultiset) -> dict:
    return {"parts": _counted_json(c.parts, "p", "m")}


# -- nerve, cocycle, chart/sample maps ------------------------------------


def _split_key(key: str, parts: int, what: str) -> tuple[str, ...]:
    if not isinstance(key, str):
        raise SchemaError(f"{what} key must be a string")
    pieces = key.split(",")
    if len(pieces) != parts or not all(pieces):
        raise SchemaError(f"{what} key {key!r} must join {parts} labels with ','")
    return tuple(pieces)


def _labels(obj, what: str) -> list[str]:
    out = []
    for item in _require_list(obj, what):
        if not isinstance(item, str):
            raise SchemaError(f"{what} entries must be strings")
        out.append(item)
    return out


def parse_nerve(obj) -> Nerve:
    from .fibration import Nerve

    data = _require_dict(obj, "nerve", {"charts", "samples"}, {"overlaps", "triples"})
    charts = _labels(data["charts"], "charts")
    overlaps = [
        _labels(pair, "overlap") for pair in _require_list(data.get("overlaps", []), "overlaps")
    ]
    triples = [
        _labels(tri, "triple") for tri in _require_list(data.get("triples", []), "triples")
    ]
    samples = _require_dict(data["samples"], "samples", {"charts"}, {"overlaps", "triples"})
    tables = []
    for kind, parts in (("chart", 1), ("overlap", 2), ("triple", 3)):
        table = {}
        for key, listed in _any_dict(samples.get(f"{kind}s", {}), f"{kind} samples").items():
            label = key if parts == 1 else _split_key(key, parts, f"{kind} samples")
            table[label] = _labels(listed, f"samples for {kind} {key!r}")
        tables.append(table)
    return Nerve(charts, overlaps, triples, *tables)


def nerve_json(n: Nerve) -> dict:
    return {
        "charts": list(n.charts),
        "overlaps": [list(pair) for pair in n.overlaps],
        "triples": [list(tri) for tri in n.triples],
        "samples": {
            "charts": {c: list(n.chart_samples(c)) for c in n.charts},
            "overlaps": {
                ",".join(pair): list(n.overlap_samples(*pair)) for pair in n.overlaps
            },
            "triples": {
                ",".join(tri): list(n.triple_samples(*tri)) for tri in n.triples
            },
        },
    }


def parse_cocycle(obj) -> TranslationCocycle:
    from .fibration import TranslationCocycle

    data = _require_dict(obj, "cocycle", {"lambda"})
    table = {}
    lam = data["lambda"]
    if not isinstance(lam, dict):
        raise SchemaError("cocycle lambda must be an object")
    for key, per_sample in lam.items():
        pair = _split_key(key, 2, "cocycle")
        if not isinstance(per_sample, dict):
            raise SchemaError(f"cocycle values for {key!r} must be an object")
        table[pair] = {s: parse_point(p) for s, p in per_sample.items()}
    return TranslationCocycle(table)


def cocycle_json(t: TranslationCocycle) -> dict:
    return {
        "lambda": {
            ",".join(pair): {s: point_json(p) for s, p in sorted(per.items())}
            for pair, per in sorted(t.values.items())
        }
    }


def parse_chart_sample_map(obj, what: str, parse_value) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be an object keyed 'chart/sample'")
    out = {}
    for key, value in obj.items():
        if not isinstance(key, str):
            raise SchemaError(f"{what} key must be a string")
        pieces = key.split("/")
        if len(pieces) != 2 or not all(pieces):
            raise SchemaError(f"{what} key {key!r} must be 'chart/sample'")
        out[(pieces[0], pieces[1])] = parse_value(value)
    return out


def chart_sample_key(chart: str, sample: str) -> str:
    return f"{chart}/{sample}"


# -- gerbe ----------------------------------------------------------------


def parse_gerbe(obj, nerve: Nerve) -> GerbeData:
    from .fibration import GerbeData

    data = _require_dict(obj, "gerbe", set(), {"a", "c", "descriptors"})
    a, c = {}, {}
    for name, size, table in (("a", 2, a), ("c", 3, c)):
        where = f"gerbe {name}"
        for key, value in _any_dict(data.get(name, {}), where).items():
            table[_split_key(key, size, where)] = parse_fraction(value, f"{name}[{key}]")
    descriptors = {}
    for key, value in _any_dict(data.get("descriptors", {}), "gerbe descriptors").items():
        pair = _split_key(key, 2, "gerbe descriptors")
        if not isinstance(value, dict):
            raise SchemaError(f"descriptor for {key!r} must be an object")
        descriptors[pair] = {
            _split_key(gen, 2, "descriptor generator"): parse_int(e, "exponent")
            for gen, e in value.items()
        }
    return GerbeData(nerve, a, c, descriptors)


def gerbe_json(g: GerbeData) -> dict:
    payload: dict = {
        "a": {",".join(k): fraction_json(v) for k, v in sorted(g.a.items())},
        "c": {",".join(k): fraction_json(v) for k, v in sorted(g.c.items())},
    }
    nontrivial = {
        key: vec for key, vec in g.descriptors.items() if vec != {key: 1}
    }
    if nontrivial:
        payload["descriptors"] = {
            ",".join(k): {",".join(gen): e for gen, e in sorted(vec.items())}
            for k, vec in sorted(nontrivial.items())
        }
    return payload


# -- family and section documents -----------------------------------------


def parse_family(obj) -> BundleFamily:
    from .fibration import TranslationCocycle
    from .spectral import BundleFamily

    data = _require_dict(obj, "family", {"nerve", "data"}, {"cocycle", "rank"})
    nerve = parse_nerve(data["nerve"])
    cocycle = (
        parse_cocycle(data["cocycle"]) if "cocycle" in data else TranslationCocycle({})
    )
    bundles = parse_chart_sample_map(data["data"], "family data", parse_bundle)
    rank = parse_int(data["rank"], "rank") if "rank" in data else None
    return BundleFamily(nerve, cocycle, bundles, rank)


def family_json(f: BundleFamily) -> dict:
    return {
        "nerve": nerve_json(f.base),
        "cocycle": cocycle_json(f.cocycle),
        "data": {
            chart_sample_key(*key): bundle_json(b) for key, b in sorted(f.data.items())
        },
        "rank": f.rank,
    }


def parse_section_doc(obj) -> tuple[Nerve, dict[str, PointMultiset], int]:
    data = _require_dict(obj, "section document", {"nerve", "section", "n"})
    nerve = parse_nerve(data["nerve"])
    if not isinstance(data["section"], dict):
        raise SchemaError("section must be an object keyed by sample")
    section = {s: parse_cycle(c) for s, c in data["section"].items()}
    n = parse_int(data["n"], "n")
    # beta builds n blocks at every sample of the section
    _check_blocks(n * len(section), f"section (rank {n}, samples {len(section)}) asks for")
    return nerve, section, n


def section_doc_json(nerve: Nerve, section: dict[str, PointMultiset], n: int) -> dict:
    return {
        "nerve": nerve_json(nerve),
        "section": {s: cycle_json(c) for s, c in sorted(section.items())},
        "n": n,
    }


# -- report emitters -------------------------------------------------------


def cocycle_report_json(report: CocycleReport) -> dict:
    return {
        "ok": report.ok,
        "violations": [
            {"triple": list(tri), "sample": s, "defect": point_json(defect)}
            for tri, s, defect in report.violations
        ],
    }


def mu_json(mu: dict | None) -> dict:
    if mu is None:
        return {"solvable": False, "mu": None}
    return {
        "solvable": True,
        "mu": {chart_sample_key(*key): point_json(p) for key, p in sorted(mu.items())},
    }


def glued_json(glued: dict[str, TorusPoint]) -> dict:
    return {"glued": {s: point_json(p) for s, p in sorted(glued.items())}}


def gerbe_report_json(report: GerbeReport) -> dict:
    return {
        "alpha": {",".join(tri): fraction_json(v) for tri, v in report.alpha},
        "tetrahedra": {
            ",".join(quad): {"value": fraction_json(v), "ok": v == 1}
            for quad, v in report.cocycle_checks
        },
        "cocycle_ok": report.cocycle_ok,
        "gluable": report.gluable,
        "witness": None
        if report.witness is None
        else {",".join(pair): fraction_json(v) for pair, v in report.witness},
    }


def gamma_json(cycles: dict[tuple[str, str], PointMultiset]) -> dict:
    totals = {cycle.total() for cycle in cycles.values()}
    return {
        "n": min(totals) if totals else 0,
        "section": {
            chart_sample_key(*key): cycle_json(c) for key, c in sorted(cycles.items())
        },
    }


def roundtrip_report_json(report: RoundTripReport) -> dict:
    return {
        "ok": report.ok,
        "sections_checked": report.sections_checked,
        "bundles_checked": report.bundles_checked,
        "bijective": report.bijective,
        "failures": list(report.failures),
    }
