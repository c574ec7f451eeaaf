"""Span recording around ellfib's public functions, installed from outside.

A Recorder wraps each listed function at its module boundary and
rebinds the name in every ellfib module that imported it, so calls made
through the package's own imports are seen too.  Each call appends one
span (name, start, end, parent) to flat in-memory arrays; nothing is
written until dump() at the end of the run.  Counts, total and self
times, and distinct-argument shares are derived from the spans by
Summary.add().

Methods are wrapped on their class (a class name is never rebound, so
isinstance checks keep working); constructors through __init__.
TorusPoint constructions are only counted, not spanned: they are the
most frequent call in the package.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

# (span name, module, attribute).  "Class.method" patches the class.
TARGETS = (
    ("bundles.make_bundle", "ellfib.bundles", "make_bundle"),
    ("bundles.graded", "ellfib.bundles", "graded"),
    ("bundles.split_bundle", "ellfib.bundles", "split_bundle"),
    ("transform.fm_transform", "ellfib.transform", "fm_transform"),
    ("transform.psi_transform", "ellfib.transform", "psi_transform"),
    ("transform.make_skyscraper", "ellfib.transform", "make_skyscraper"),
    ("spectral.enumerate_cycles", "ellfib.spectral", "enumerate_cycles"),
    ("spectral.enumerate_bundles", "ellfib.spectral", "enumerate_bundles"),
    ("spectral.beta_map", "ellfib.spectral", "beta_map"),
    ("spectral.gamma_map", "ellfib.spectral", "gamma_map"),
    ("spectral.round_trip_verify", "ellfib.spectral", "round_trip_verify"),
    ("fibration.Nerve", "ellfib.fibration", "Nerve.__init__"),
    ("fibration.Nerve.tetrahedra", "ellfib.fibration", "Nerve.tetrahedra"),
    ("fibration.validate_gerbe", "ellfib.fibration", "validate_gerbe"),
    ("fibration.gerbe_alpha", "ellfib.fibration", "gerbe_alpha"),
    ("fibration.check_cocycle", "ellfib.fibration", "check_cocycle"),
    ("fibration.coboundary_solve", "ellfib.fibration", "coboundary_solve"),
    ("linalg.integer_diagonalize", "ellfib.linalg", "integer_diagonalize"),
    ("linalg.solve_integer", "ellfib.linalg", "solve_integer"),
    ("linalg.solve_gf2", "ellfib.linalg", "solve_gf2"),
    ("linalg.exact_rank", "ellfib.linalg", "exact_rank"),
    ("cohomology.char_to_eta", "ellfib.cohomology.engine", "char_to_eta"),
    ("cohomology.synthetic_eta", "ellfib.cohomology.engine", "synthetic_eta"),
    ("cohomology.borel_hodge", "ellfib.cohomology.engine", "borel_hodge"),
    ("cohomology.structure_maps", "ellfib.cohomology.engine", "structure_maps"),
    ("cohomology.leray_betti", "ellfib.cohomology.engine", "leray_betti"),
    ("cohomology.ring.mult_matrix", "ellfib.cohomology.ring", "BigradedRing.mult_matrix"),
    ("cohomology.ring.dr_mult_matrix", "ellfib.cohomology.ring", "BigradedRing.dr_mult_matrix"),
    ("cohomology.ring.to_derham", "ellfib.cohomology.ring", "BigradedRing.to_derham"),
    ("cohomology.ring_validate", "ellfib.cohomology.ring", "ring_validate"),
)

# Serialize functions are grouped: a group's time counts only spans with
# no ancestor in the same group, so nested parsing is not counted twice.
SERIALIZE_GROUPS = {
    "serialize.parse": (
        "parse_point", "parse_divisor", "parse_bundle", "parse_skyscraper",
        "parse_cycle", "parse_nerve", "parse_cocycle", "parse_chart_sample_map",
        "parse_gerbe", "parse_family", "parse_section_doc",
    ),
    "serialize.emit": (
        "canonical_json", "point_json", "bundle_json", "skyscraper_json",
        "cycle_json", "nerve_json", "cocycle_json", "family_json",
        "cocycle_report_json", "mu_json", "glued_json", "gerbe_report_json",
        "gamma_json", "roundtrip_report_json",
    ),
}


def _matrix_key(args, kwargs):
    matrix = args[0] if args else kwargs["matrix"]
    return hash(tuple(tuple(int(x) for x in row) for row in matrix))


def _int_key(args, kwargs):
    return int(args[0] if args else kwargs["n"])


SPAN_COLUMNS = ("name", "parent", "start", "end")

# Calls are told apart by these keys for the distinct_share ratios.
KEYED = {"linalg.integer_diagonalize": _matrix_key, "fibration.factorint": _int_key}


class Recorder:
    """In-memory spans plus counters; install() and uninstall() the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        self.counters: dict[str, int] = {}
        self.keys: dict[str, set] = {name: set() for name in KEYED}
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, fn, name: str, hook=None):
        """hook(args, kwargs) may return a span-name suffix for this call."""
        rec = self
        base = self._id(name)
        key_set, key = self.keys.get(name), KEYED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = base if hook is None else rec._id(f"{name}.{hook(args, kwargs)}")
            if key is not None:
                key_set.add(key(args, kwargs))
            idx = len(rec.name)
            rec.name.append(nid)
            rec.parent.append(rec.current)
            rec.start.append(perf_counter_ns())
            rec.end.append(0)
            rec.current = idx
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf_counter_ns()
                rec.current = rec.parent[idx]

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("ellfib") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        from ellfib.cohomology import fields
        from ellfib import linalg

        domains = {
            id(linalg.FRACTION_DOMAIN): "fraction",
            id(fields.POLY2_DOMAIN): "poly2",
            id(fields.GAUSS_DOMAIN): "gauss",
        }

        def rank_domain(args, kwargs):
            dom = args[1] if len(args) > 1 else kwargs.get("dom", linalg.FRACTION_DOMAIN)
            kind = domains.get(id(dom), "other")
            matrix = args[0] if args else kwargs["matrix"]
            rows = len(matrix)
            self.count(f"linalg.exact_rank.{kind}.cells", rows * (len(matrix[0]) if rows else 0))
            return kind

        for name, mod_name, attr in TARGETS:
            module = importlib.import_module(mod_name)
            hook = rank_domain if name == "linalg.exact_rank" else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self._wrapper(cls.__dict__[meth], name, hook))
            else:
                original = getattr(module, attr)
                self._rebind_everywhere(original, self._wrapper(original, name, hook))

        serialize = importlib.import_module("ellfib.serialize")
        for group, attrs in SERIALIZE_GROUPS.items():
            for attr in attrs:
                original = getattr(serialize, attr)
                self._rebind_everywhere(original, self._wrapper(original, f"{group}.{attr}"))

        # factorint is reached as sympy.factorint from the fibration module
        sympy = importlib.import_module("ellfib.fibration").sympy
        self._set(sympy, "factorint", self._wrapper(sympy.factorint, "fibration.factorint"))

        torus = importlib.import_module("ellfib.torus")
        post_init = torus.TorusPoint.__dict__["__post_init__"]
        counters = self.counters

        def counted_post_init(point):
            counters["torus.points_built"] = counters.get("torus.points_built", 0) + 1
            post_init(point)

        self._set(torus.TorusPoint, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the spans, names, counters and keys to one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "names": self.names,
            "columns": {col: getattr(self, col).tolist() for col in SPAN_COLUMNS},
            "counters": self.counters,
            "keys": {name: sorted(keys) for name, keys in self.keys.items()},
        }))

    @classmethod
    def load(cls, path: Path) -> "Recorder":
        rec = cls()
        data = json.loads(path.read_text())
        for name in data["names"]:
            rec._id(name)
        for col in SPAN_COLUMNS:
            getattr(rec, col).extend(data["columns"][col])
        rec.counters = data["counters"]
        rec.keys = {name: set(keys) for name, keys in data["keys"].items()}
        return rec


class Summary:
    """Per-name calls, total and self nanoseconds, merged over recorders."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.group_ns: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.keys: dict[str, set] = {name: set() for name in KEYED}

    def add(self, rec: Recorder) -> None:
        names, parent = rec.names, rec.parent
        group_of = [
            next((g for g in SERIALIZE_GROUPS if name.startswith(g + ".")), None)
            for name in names
        ]
        child_ns = [0] * len(rec.name)
        durations = [e - s for s, e in zip(rec.start, rec.end)]
        for idx in range(len(rec.name) - 1, -1, -1):
            p = parent[idx]
            if p >= 0:
                child_ns[p] += durations[idx]
        for idx, nid in enumerate(rec.name):
            name = names[nid]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + durations[idx]
            self.self_ns[name] = self.self_ns.get(name, 0) + durations[idx] - child_ns[idx]
            group = group_of[nid]
            if group is not None:
                p = parent[idx]
                while p >= 0 and group_of[rec.name[p]] != group:
                    p = parent[p]
                if p < 0:
                    self.group_ns[group] = self.group_ns.get(group, 0) + durations[idx]
        for name, n in rec.counters.items():
            self.counters[name] = self.counters.get(name, 0) + n
        for name, keys in rec.keys.items():
            self.keys.setdefault(name, set()).update(keys)

    def calls_of(self, name: str) -> int:
        return self.calls.get(name, 0)

    def total_s(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def distinct_share(self, name: str) -> float:
        calls = self.calls_of(name)
        return len(self.keys.get(name, ())) / calls if calls else 0.0
