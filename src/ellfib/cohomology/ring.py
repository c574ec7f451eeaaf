"""Bigraded cohomology ring of the base surface, plus its total-degree ring.

A ring value carries: basis labels per bidegree (p,q) with 0 <= p,q <= 2,
rational structure constants for the cup product, a conjugation map
sending (p,q) coordinates to (q,p) coordinates, a separate total-degree
(de Rham) ring, and a degreewise identification matrix from summed
bigraded coordinates onto the de Rham basis.  BigradedRing(payload)
reads the ring's JSON document, the one input format, in one pass and
checks its shape only; ring_validate reports the mathematical laws.

Both towers share one core.  One label loader decodes the "p,q" and "k"
keys and reads the bigraded and the de Rham basis; one vector loader
reads both product tables, the conjugation and the identification
straight from their JSON objects, every coefficient through
parse_fraction; ring_to_dict writes the document back.  One sparse
contraction builds every matrix (mult_matrix, dr_mult_matrix, to_derham
and the validation matrices) by walking only the nonzero table entries.

Each of the four tables (products, de Rham products, conjugation,
identification) is held once, as ints: the loader multiplies it by the
lcm of its own denominators and keeps that scale beside it.  Every
reader sees the scaled table: cup, dr_cup and the matrices differ from
the rational ones by the scale, which keeps every rank and every ring
law verdict, and ring_to_dict divides it out again.

The conjugation is validated in a one-sided form: dimensions h^{p,q} and
h^{q,p} may differ (non-Kahler bases), so the map is required to have
rank min(h^{p,q}, h^{q,p}) and to restrict to an inverse pair on the
smaller side.  With equal dimensions this is the usual involution.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from importlib import resources
from math import lcm
from typing import Mapping

from ..errors import SchemaError
from ..linalg import INTEGER_DOMAIN, exact_rank
from ..torus import parse_fraction

BIDEGREES = [(p, q) for p in range(3) for q in range(3)]


def degree_blocks(k: int) -> list[tuple[int, int]]:
    """Bidegrees of total degree k, highest p first (the declared order)."""
    return [(p, k - p) for p in range(min(k, 2), -1, -1) if 0 <= k - p <= 2]


def _object(raw, where: str) -> Mapping:
    if not isinstance(raw, Mapping):
        raise SchemaError(f"ring {where} must be an object, got {type(raw).__name__}")
    return raw


def _bidegree(key: str) -> tuple[int, int] | None:
    """(p, q) of a key spelled "p,q", or None for another spelling of it."""
    p, q = map(int, key.split(","))
    return (p, q) if f"{p},{q}" == key else None


def _degree(key: str) -> int | None:
    """k of a key spelled "k", or None for another spelling of it."""
    k = int(key)
    return k if str(k) == key else None


def _load_labels(raw, where: str, decode, degrees, what: str, unit: str) -> tuple[dict, dict]:
    """Labels per degree (every degree present) of the JSON object raw at
    where, whose keys decode reads, and the degree of each label."""
    given = {}
    for key, labels in _object(raw, where).items():
        try:
            degree = decode(key)
        except (ValueError, AttributeError, TypeError):
            degree = None
        if degree is None:
            raise SchemaError(f"bad ring {where} key {key!r}")
        if not isinstance(labels, list):
            raise SchemaError(f"ring {where}.{key} must be a list, got {type(labels).__name__}")
        given[degree] = labels
    extra = set(given) - set(degrees)
    if extra:
        raise SchemaError(f"{what} basis given at out-of-range {unit} {sorted(extra, key=repr)}")
    by_degree, degree_of = {}, {}
    for deg in degrees:
        by_degree[deg] = tuple(given.get(deg, ()))
        for label in by_degree[deg]:
            if not isinstance(label, str) or not label:
                raise SchemaError(f"bad {what} label {label!r} at {deg}")
            if label in degree_of:
                raise SchemaError(f"duplicate {what} label {label!r}")
            degree_of[label] = deg
    return by_degree, degree_of


def _load_vectors(
    raw, where: str, name: str, target_of, out_degree: Mapping, pairs: bool = False
) -> tuple[dict, int]:
    """The JSON object raw at where as an int table, and its scale (see _integral).

    raw maps a label to its vector, or with pairs x to y to the vector of
    (x, y); coefficients are read by parse_fraction and zeros dropped.
    target_of(key) is the degree of every output label of key's vector, or
    None past the top degree, where the vector must vanish; it raises
    KeyError when key names an unknown label.
    """
    rows = [(x, vec, f"{where}.{x}") for x, vec in _object(raw, where).items()]
    if pairs:
        rows = [((x, y), vec, f"{at}.{y}") for x, row, at in rows
                for y, vec in _object(row, at).items()]
    table = {}
    for key, vec, at in rows:
        vec = _object(vec, at)
        what = f"{name} of {key!r}"
        try:
            target = target_of(key)
        except KeyError:
            raise SchemaError(f"{what} references an unknown label") from None
        out = {}
        for z, coeff in vec.items():
            coeff = parse_fraction(coeff, f"{what} coefficient at {z!r}")
            if target is None:
                if coeff:
                    raise SchemaError(f"{what} exceeds the top degree")
            elif out_degree.get(z) != target:
                raise SchemaError(f"{what} must land in degree {target}, not at {z!r}")
            if coeff:
                out[z] = coeff
        table[key] = out
    return _integral(table)


def _integral(table: dict) -> tuple[dict, int]:
    """The table times the lcm of its denominators, with int coefficients, and that lcm."""
    denominators = {c.denominator for vec in table.values() for c in vec.values()} - {1}
    scale = lcm(*denominators) if denominators else 1
    return {
        key: {z: c.numerator * (scale // c.denominator) for z, c in vec.items()}
        for key, vec in table.items()
    }, scale


def _contract(rows, columns) -> list[list]:
    """The matrix whose column j sums value * vec over the (value, vec) of columns[j].

    Each vec maps row labels to coefficients, and only its entries are
    walked; a zero value adds nothing.  Every entry starts at 0 and sums
    its terms in the order columns[j] lists them.
    """
    at = {label: i for i, label in enumerate(rows)}
    matrix = [[0] * len(columns) for _ in rows]
    for j, terms in enumerate(columns):
        for value, vec in terms:
            if value:
                for out, coeff in vec.items():
                    row = matrix[at[out]]
                    row[j] = row[j] + value * coeff
    return matrix


class BigradedRing:
    __slots__ = (
        "name",
        "basis",
        "products", "product_scale",
        "conj", "conj_scale",
        "dr_basis",
        "dr_products", "dr_product_scale",
        "ident", "ident_scale",
        "_degree_of",
        "_dr_degree_of",
    )

    def __init__(self, payload: Mapping):
        """Read a ring from its JSON document, checking every section as it goes."""
        try:
            name, bigraded = payload["name"], payload["bigraded"]
            products, derham = payload["products"], payload["derham"]
            conj, ident = payload.get("conjugation", {}), payload.get("ident", {})
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"ring payload missing section: {exc}") from exc
        if not isinstance(name, str):
            raise SchemaError(f"ring name must be a string, got {type(name).__name__}")
        if "basis" not in _object(derham, "derham") or "products" not in derham:
            raise SchemaError("ring derham needs both basis and products")
        self.name = name
        self.basis, self._degree_of = _load_labels(
            bigraded, "bigraded", _bidegree, BIDEGREES, "bigraded", "bidegrees"
        )
        self.dr_basis, self._dr_degree_of = _load_labels(
            derham["basis"], "derham.basis", _degree, range(5), "de Rham", "degrees"
        )
        deg, dr_deg = self._degree_of, self._dr_degree_of

        def add_pq(key):
            (p1, q1), (p2, q2) = deg[key[0]], deg[key[1]]
            return (p1 + p2, q1 + q2) if p1 + p2 <= 2 and q1 + q2 <= 2 else None

        def add_k(key):
            k = dr_deg[key[0]] + dr_deg[key[1]]
            return k if k <= 4 else None

        self.products, self.product_scale = _load_vectors(
            products, "products", "bigraded product", add_pq, deg, pairs=True
        )
        self.dr_products, self.dr_product_scale = _load_vectors(
            derham["products"], "derham.products", "de Rham product", add_k, dr_deg, pairs=True
        )
        self.conj, self.conj_scale = _load_vectors(
            conj, "conjugation", "conjugation", lambda x: deg[x][::-1], deg
        )
        self.ident, self.ident_scale = _load_vectors(
            ident, "ident", "identification", lambda x: sum(deg[x]), dr_deg
        )
        for label in deg:
            self.conj.setdefault(label, {})
            self.ident.setdefault(label, {})

    # -- basis bookkeeping -------------------------------------------------

    def dim(self, p: int, q: int) -> int:
        return len(self.basis.get((p, q), ()))

    def labels(self, p: int, q: int) -> tuple[str, ...]:
        return self.basis.get((p, q), ())

    def dr_dim(self, k: int) -> int:
        return len(self.dr_basis.get(k, ()))

    def degree_labels(self, k: int) -> list[str]:
        """Concatenated degree-k bigraded labels, highest p first."""
        out = []
        for pq in degree_blocks(k):
            out.extend(self.basis[pq])
        return out

    # -- products ----------------------------------------------------------

    def cup(self, x: str, y: str) -> dict[str, int]:
        """x cup y, times product_scale."""
        return self.products.get((x, y), {})

    def dr_cup(self, x: str, y: str) -> dict[str, int]:
        """x cup y in the de Rham ring, times dr_product_scale."""
        return self.dr_products.get((x, y), {})

    def mult_matrix(self, source: tuple[int, int], w_block: tuple[int, int], w_coeffs):
        """Matrix of x -> x cup w from H^source, w given on w_block, times the product scale.

        Rows index the target-block basis; a target outside the bidegree
        square is the zero space (a 0-row matrix).
        """
        p, q = source[0] + w_block[0], source[1] + w_block[1]
        if p > 2 or q > 2:
            return []
        table = self.products
        w = [(value, y) for value, y in zip(w_coeffs, self.labels(*w_block)) if value]
        columns = [[(value, table.get((x, y), {})) for value, y in w] for x in self.labels(*source)]
        return _contract(self.labels(p, q), columns)

    def dr_mult_matrix(self, source_deg: int, w_vec, w_deg: int):
        """Matrix of m -> m cup w on the de Rham ring, times the de Rham product scale."""
        if source_deg + w_deg > 4:
            return []
        table = self.dr_products
        w = [(value, y) for value, y in zip(w_vec, self.dr_basis.get(w_deg, ())) if value]
        columns = [
            [(value, table.get((x, y), {})) for value, y in w]
            for x in self.dr_basis.get(source_deg, ())
        ]
        return _contract(self.dr_basis.get(source_deg + w_deg, ()), columns)

    def conj_matrix(self, p: int, q: int) -> list[list[int]]:
        """Matrix of the conjugation H^{p,q} -> H^{q,p}, times conj_scale."""
        columns = [[(1, self.conj[x])] for x in self.labels(p, q)]
        return _contract(self.labels(q, p), columns)

    def ident_matrix(self, k: int) -> list[list[int]]:
        """Matrix of the identification in degree k, times ident_scale."""
        columns = [[(1, self.ident[x])] for x in self.degree_labels(k)]
        return _contract(self.dr_basis.get(k, ()), columns)

    def to_derham(self, k: int, coords) -> list:
        """Push concatenated degree-k bigraded coordinates to de Rham ones,
        times the identification scale; int coordinates give ints."""
        cols = self.degree_labels(k)
        if len(coords) != len(cols):
            raise SchemaError(
                f"degree-{k} vector needs {len(cols)} coordinates, got {len(coords)}"
            )
        terms = [
            (value if type(value) is int else parse_fraction(value, f"degree-{k} coordinate"),
             self.ident[x])
            for x, value in zip(cols, coords)
        ]
        return [row[0] for row in _contract(self.dr_basis.get(k, ()), [terms])]


def _add_multiple(out: dict, c: int, vec: dict) -> None:
    """out += c * vec in place, dropping the entries that cancel."""
    for k, v in vec.items():
        n = out.get(k, 0) + c * v
        if n:
            out[k] = n
        else:
            del out[k]


def ring_validate(ring: BigradedRing) -> tuple[str, ...]:
    """Report every violated ring law; an empty report means valid.

    The scaled tables keep every verdict: commutativity and associativity are
    homogeneous, ranks ignore a scale, and conj twice must be conj_scale**2."""
    report: list[str] = []

    def check_laws(labels_by_degree, total, cup, tag, top_key, top_name):
        labels = sorted(total)
        for x in labels:
            for y in labels:
                sign = -1 if total[x] % 2 and total[y] % 2 else 1
                if cup(x, y) != {k: sign * v for k, v in cup(y, x).items()}:
                    report.append(f"{tag}: commutativity fails on ({x}, {y})")
        for x in labels:
            for y in labels:
                xy = cup(x, y)
                for z in labels:
                    left: dict[str, int] = {}
                    for mid, c in xy.items():
                        _add_multiple(left, c, cup(mid, z))
                    right: dict[str, int] = {}
                    for mid, c in cup(y, z).items():
                        _add_multiple(right, c, cup(x, mid))
                    if left != right:
                        report.append(f"{tag}: associativity fails on ({x}, {y}, {z})")
        if len(labels_by_degree.get(top_key, ())) != 1:
            report.append(f"{tag}: {top_name} is not one-dimensional")

    total = {x: p + q for x, (p, q) in ring._degree_of.items()}
    check_laws(ring.basis, total, ring.cup, "bigraded", (2, 2), "top bidegree (2,2)")
    check_laws(ring.dr_basis, ring._dr_degree_of, ring.dr_cup, "de Rham", 4, "top degree 4")

    for p in range(3):
        for q in range(3):
            dim_pq, dim_qp = ring.dim(p, q), ring.dim(q, p)
            if dim_pq == 0:
                continue
            forward = ring.conj_matrix(p, q)
            expected = min(dim_pq, dim_qp)
            got = exact_rank(forward, INTEGER_DOMAIN) if forward else 0
            if got != expected:
                report.append(f"conjugation rank at ({p},{q}) is {got}, expected {expected}")
            if dim_pq <= dim_qp:
                labels = ring.labels(p, q)
                # column x holds conj(conj(x)), summed over the nonzero entries of conj(x)
                twice = [[(c, ring.conj[m]) for m, c in ring.conj[x].items()] for x in labels]
                if _contract(labels, twice) != [
                    [ring.conj_scale**2 * (r == c) for c in range(dim_pq)] for r in range(dim_pq)
                ]:
                    report.append(f"conjugation at ({p},{q}) is not inverted by ({q},{p})")

    for k in range(5):
        matrix = ring.ident_matrix(k)
        need = ring.dr_dim(k)
        got = exact_rank(matrix, INTEGER_DOMAIN) if matrix else 0
        if got != need:
            report.append(f"identification in degree {k} has rank {got}, needs {need}")
    return tuple(report)


def ring_to_dict(ring: BigradedRing) -> dict:
    """The JSON form of a ring, each table divided by its scale again."""
    def vec_out(vec, scale):
        return {z: str(Fraction(c, scale)) for z, c in sorted(vec.items())}

    def table_out(table, scale):
        out: dict[str, dict[str, dict[str, str]]] = {}
        for (x, y), vec in sorted(table.items()):
            if vec:
                out.setdefault(x, {})[y] = vec_out(vec, scale)
        return out

    return {
        "name": ring.name,
        "bigraded": {f"{p},{q}": list(ring.basis[p, q]) for p, q in BIDEGREES if ring.basis[p, q]},
        "products": table_out(ring.products, ring.product_scale),
        "conjugation": {x: vec_out(v, ring.conj_scale) for x, v in sorted(ring.conj.items()) if v},
        "derham": {
            "basis": {str(k): list(v) for k, v in ring.dr_basis.items() if v},
            "products": table_out(ring.dr_products, ring.dr_product_scale),
        },
        "ident": {x: vec_out(v, ring.ident_scale) for x, v in sorted(ring.ident.items()) if v},
    }


PRESET_NAMES = ("kodaira", "torus4", "k3")


@functools.lru_cache(maxsize=None)
def load_preset(name: str) -> BigradedRing:
    if name not in PRESET_NAMES:
        raise SchemaError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    path = resources.files("ellfib.cohomology").joinpath(f"presets/{name}.json")
    return BigradedRing(json.loads(path.read_text()))
