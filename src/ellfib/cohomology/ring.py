"""Bigraded cohomology ring of the base surface, plus its total-degree ring.

A ring value carries: basis labels per bidegree (p,q) with 0 <= p,q <= 2,
rational structure constants for the cup product, a conjugation map
sending (p,q) coordinates to (q,p) coordinates, a separate total-degree
(de Rham) ring, and a degreewise identification matrix from summed
bigraded coordinates onto the de Rham basis.  Construction validates
shape only; ring_validate reports the mathematical laws.

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
from typing import Mapping

from ..errors import SchemaError
from ..linalg import exact_rank
from ..serialize import parse_fraction

BIDEGREES = [(p, q) for p in range(3) for q in range(3)]


def degree_blocks(k: int) -> list[tuple[int, int]]:
    """Bidegrees of total degree k, highest p first (the declared order)."""
    return [(p, k - p) for p in range(min(k, 2), -1, -1) if 0 <= k - p <= 2]


class BigradedRing:
    __slots__ = (
        "name",
        "basis",
        "products",
        "conj",
        "dr_basis",
        "dr_products",
        "ident",
        "_degree_of",
        "_dr_degree_of",
    )

    def __init__(
        self,
        name: str,
        basis: Mapping[tuple[int, int], list[str]],
        products: Mapping[tuple[str, str], Mapping[str, Fraction]],
        conj: Mapping[str, Mapping[str, Fraction]],
        dr_basis: Mapping[int, list[str]],
        dr_products: Mapping[tuple[str, str], Mapping[str, Fraction]],
        ident: Mapping[str, Mapping[str, Fraction]],
    ):
        self.name = str(name)
        self.basis = {}
        self._degree_of: dict[str, tuple[int, int]] = {}
        for pq in BIDEGREES:
            labels = tuple(basis.get(pq, ()))
            for label in labels:
                if not isinstance(label, str) or not label:
                    raise SchemaError(f"bad basis label {label!r} at {pq}")
                if label in self._degree_of:
                    raise SchemaError(f"duplicate basis label {label!r}")
                self._degree_of[label] = pq
            self.basis[pq] = labels
        extra = set(basis) - set(BIDEGREES)
        if extra:
            raise SchemaError(f"basis given at out-of-range bidegrees {sorted(extra)}")

        self.dr_basis = {}
        self._dr_degree_of: dict[str, int] = {}
        for k in range(5):
            labels = tuple(dr_basis.get(k, ()))
            for label in labels:
                if not isinstance(label, str) or not label:
                    raise SchemaError(f"bad de Rham label {label!r} in degree {k}")
                if label in self._dr_degree_of:
                    raise SchemaError(f"duplicate de Rham label {label!r}")
                self._dr_degree_of[label] = k
            self.dr_basis[k] = labels
        extra = set(dr_basis) - set(range(5))
        if extra:
            raise SchemaError(f"de Rham basis at out-of-range degrees {sorted(extra)}")

        def clean_table(raw, degree_of, where, add):
            table = {}
            for (x, y), vec in raw.items():
                if x not in degree_of or y not in degree_of:
                    raise SchemaError(f"{where} product references unknown labels {x!r}, {y!r}")
                target = add(degree_of[x], degree_of[y])
                if target is None:
                    if any(Fraction(c) for c in vec.values()):
                        raise SchemaError(f"{where} product {x!r}*{y!r} exceeds top degree")
                    table[(x, y)] = {}
                    continue
                out = {}
                for z, coeff in vec.items():
                    if z not in degree_of:
                        raise SchemaError(f"{where} product output {z!r} unknown")
                    if degree_of[z] != target:
                        raise SchemaError(
                            f"{where} product {x!r}*{y!r} output {z!r} has wrong degree"
                        )
                    coeff = Fraction(coeff)
                    if coeff:
                        out[z] = coeff
                table[(x, y)] = out
            return table

        def add_pq(d1, d2):
            p, q = d1[0] + d2[0], d1[1] + d2[1]
            return (p, q) if p <= 2 and q <= 2 else None

        def add_k(k1, k2):
            k = k1 + k2
            return k if k <= 4 else None

        self.products = clean_table(products, self._degree_of, "bigraded", add_pq)
        self.dr_products = clean_table(dr_products, self._dr_degree_of, "de Rham", add_k)

        self.conj = {}
        for x, vec in conj.items():
            if x not in self._degree_of:
                raise SchemaError(f"conjugation of unknown label {x!r}")
            p, q = self._degree_of[x]
            out = {}
            for z, coeff in vec.items():
                if z not in self._degree_of or self._degree_of[z] != (q, p):
                    raise SchemaError(f"conjugation of {x!r} must land in {(q, p)}")
                coeff = Fraction(coeff)
                if coeff:
                    out[z] = coeff
            self.conj[x] = out
        for label, pq in self._degree_of.items():
            self.conj.setdefault(label, {})

        self.ident = {}
        for x, vec in ident.items():
            if x not in self._degree_of:
                raise SchemaError(f"identification of unknown label {x!r}")
            k = sum(self._degree_of[x])
            out = {}
            for z, coeff in vec.items():
                if z not in self._dr_degree_of or self._dr_degree_of[z] != k:
                    raise SchemaError(f"identification of {x!r} must land in degree {k}")
                coeff = Fraction(coeff)
                if coeff:
                    out[z] = coeff
            self.ident[x] = out
        for label in self._degree_of:
            self.ident.setdefault(label, {})

    # -- basis bookkeeping -------------------------------------------------

    def dim(self, p: int, q: int) -> int:
        return len(self.basis.get((p, q), ()))

    def labels(self, p: int, q: int) -> tuple[str, ...]:
        return self.basis.get((p, q), ())

    def degree_of(self, label: str) -> tuple[int, int]:
        return self._degree_of[label]

    def dr_dim(self, k: int) -> int:
        return len(self.dr_basis.get(k, ()))

    def degree_labels(self, k: int) -> list[str]:
        """Concatenated degree-k bigraded labels, highest p first."""
        out = []
        for pq in degree_blocks(k):
            out.extend(self.basis[pq])
        return out

    # -- products ----------------------------------------------------------

    def cup(self, x: str, y: str) -> dict[str, Fraction]:
        return self.products.get((x, y), {})

    def dr_cup(self, x: str, y: str) -> dict[str, Fraction]:
        return self.dr_products.get((x, y), {})

    def mult_matrix(self, source: tuple[int, int], w_block: tuple[int, int], w_coeffs, embed, sign=1):
        """Field matrix of x -> x cup w from H^source, w given on w_block.

        Rows index the target-block basis; a target outside the bidegree
        square is the zero space (a 0-row matrix).
        """
        p, q = source[0] + w_block[0], source[1] + w_block[1]
        cols = self.labels(*source)
        w_labels = self.labels(*w_block)
        if p > 2 or q > 2:
            return [], cols
        rows = self.labels(p, q)
        zero = embed(Fraction(0))
        matrix = []
        for out in rows:
            row = []
            for x in cols:
                total = zero
                for w_label, w_val in zip(w_labels, w_coeffs):
                    coeff = self.cup(x, w_label).get(out)
                    if coeff:
                        total = total + (w_val * (sign * coeff))
                row.append(total)
            matrix.append(row)
        return matrix, cols

    def dr_mult_matrix(self, source_deg: int, w_vec, w_deg: int):
        """Rational matrix of m -> m cup w on the de Rham ring."""
        target = source_deg + w_deg
        cols = self.dr_basis.get(source_deg, ())
        if target > 4:
            return []
        rows = self.dr_basis.get(target, ())
        w_labels = self.dr_basis.get(w_deg, ())
        matrix = []
        for out in rows:
            row = []
            for x in cols:
                total = Fraction(0)
                for w_label, w_val in zip(w_labels, w_vec):
                    if w_val:
                        total += w_val * self.dr_cup(x, w_label).get(out, Fraction(0))
                row.append(total)
            matrix.append(row)
        return matrix

    def conj_matrix(self, p: int, q: int) -> list[list[Fraction]]:
        rows = self.labels(q, p)
        cols = self.labels(p, q)
        return [
            [self.conj[x].get(out, Fraction(0)) for x in cols] for out in rows
        ]

    def ident_matrix(self, k: int) -> list[list[Fraction]]:
        rows = self.dr_basis.get(k, ())
        cols = self.degree_labels(k)
        return [
            [self.ident[x].get(out, Fraction(0)) for x in cols] for out in rows
        ]

    def to_derham(self, k: int, coords) -> list[Fraction]:
        """Push concatenated degree-k bigraded coordinates to de Rham ones."""
        cols = self.degree_labels(k)
        if len(coords) != len(cols):
            raise SchemaError(
                f"degree-{k} vector needs {len(cols)} coordinates, got {len(coords)}"
            )
        out = []
        for row_label in self.dr_basis.get(k, ()):
            total = Fraction(0)
            for x, value in zip(cols, coords):
                if value:
                    total += Fraction(value) * self.ident[x].get(row_label, Fraction(0))
            out.append(total)
        return out


def _total_sign(d1, d2) -> int:
    t1 = sum(d1) if isinstance(d1, tuple) else d1
    t2 = sum(d2) if isinstance(d2, tuple) else d2
    return -1 if (t1 % 2) and (t2 % 2) else 1


def _vec_scale(vec, c):
    return {k: c * v for k, v in vec.items() if c * v}


def _vec_add(u, v):
    out = dict(u)
    for k, val in v.items():
        n = out.get(k, Fraction(0)) + val
        if n:
            out[k] = n
        else:
            out.pop(k, None)
    return out


def ring_validate(ring: BigradedRing) -> tuple[str, ...]:
    """Report every violated ring law; an empty report means valid."""
    report: list[str] = []

    def check_laws(labels_by_degree, degree_of, cup, tag, top_key, top_name):
        labels = sorted(degree_of)
        for x in labels:
            for y in labels:
                sign = _total_sign(degree_of[x], degree_of[y])
                left = cup(x, y)
                right = _vec_scale(cup(y, x), Fraction(sign))
                if left != right:
                    report.append(f"{tag}: commutativity fails on ({x}, {y})")
        for x in labels:
            for y in labels:
                xy = cup(x, y)
                for z in labels:
                    left: dict[str, Fraction] = {}
                    for mid, c in xy.items():
                        left = _vec_add(left, _vec_scale(cup(mid, z), c))
                    yz = cup(y, z)
                    right: dict[str, Fraction] = {}
                    for mid, c in yz.items():
                        right = _vec_add(right, _vec_scale(cup(x, mid), c))
                    if left != right:
                        report.append(f"{tag}: associativity fails on ({x}, {y}, {z})")
        if len(labels_by_degree.get(top_key, ())) != 1:
            report.append(f"{tag}: {top_name} is not one-dimensional")

    check_laws(
        ring.basis,
        ring._degree_of,
        ring.cup,
        "bigraded",
        (2, 2),
        "top bidegree (2,2)",
    )
    check_laws(
        ring.dr_basis,
        ring._dr_degree_of,
        ring.dr_cup,
        "de Rham",
        4,
        "top degree 4",
    )

    for p in range(3):
        for q in range(3):
            dim_pq, dim_qp = ring.dim(p, q), ring.dim(q, p)
            if dim_pq == 0:
                continue
            forward = ring.conj_matrix(p, q)
            expected = min(dim_pq, dim_qp)
            got = exact_rank(forward) if forward else 0
            if got != expected:
                report.append(
                    f"conjugation rank at ({p},{q}) is {got}, expected {expected}"
                )
            if dim_pq <= dim_qp:
                back = ring.conj_matrix(q, p)
                for col in range(dim_pq):
                    image = [
                        sum(
                            back[r][m] * forward[m][col]
                            for m in range(dim_qp)
                        )
                        for r in range(dim_pq)
                    ]
                    unit = [Fraction(int(r == col)) for r in range(dim_pq)]
                    if image != unit:
                        report.append(
                            f"conjugation at ({p},{q}) is not inverted by ({q},{p})"
                        )
                        break

    for k in range(5):
        matrix = ring.ident_matrix(k)
        need = ring.dr_dim(k)
        got = exact_rank(matrix) if matrix else 0
        if got != need:
            report.append(
                f"identification in degree {k} has rank {got}, needs {need}"
            )
    return tuple(report)


def ring_from_dict(payload: Mapping) -> BigradedRing:
    try:
        name = payload["name"]
        basis_raw = payload["bigraded"]
        products_raw = payload["products"]
        conj_raw = payload.get("conjugation", {})
        dr = payload["derham"]
        ident_raw = payload.get("ident", {})
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"ring payload missing section: {exc}") from exc
    if not isinstance(name, str):
        raise SchemaError(f"ring name must be a string, got {type(name).__name__}")

    def parse_pq(key: str) -> tuple[int, int]:
        try:
            p, q = key.split(",")
            return int(p), int(q)
        except ValueError as exc:
            raise SchemaError(f"bad bidegree key {key!r}") from exc

    def section(raw, where: str) -> Mapping:
        if not isinstance(raw, Mapping):
            raise SchemaError(f"ring {where} must be an object, got {type(raw).__name__}")
        return raw

    def labels(raw, where: str) -> list:
        if not isinstance(raw, (list, tuple)):
            raise SchemaError(f"ring {where} must be a list, got {type(raw).__name__}")
        return list(raw)

    def vector(raw, where: str) -> dict[str, Fraction]:
        return {
            z: parse_fraction(c, f"ring {where} coefficient at {z!r}")
            for z, c in section(raw, where).items()
        }

    def vectors(raw, where: str) -> dict[str, dict[str, Fraction]]:
        return {x: vector(vec, f"{where}.{x}") for x, vec in section(raw, where).items()}

    def table(raw, where: str) -> dict[tuple[str, str], dict[str, Fraction]]:
        return {
            (x, y): vec
            for x, per in section(raw, where).items()
            for y, vec in vectors(per, f"{where}.{x}").items()
        }

    basis = {
        parse_pq(k): labels(v, f"bigraded.{k}")
        for k, v in section(basis_raw, "bigraded").items()
    }
    products = table(products_raw, "products")
    conj = vectors(conj_raw, "conjugation")
    dr = section(dr, "derham")
    try:
        dr_basis = {
            int(k): labels(v, f"derham.basis.{k}")
            for k, v in section(dr["basis"], "derham.basis").items()
        }
        dr_products_raw = dr["products"]
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"bad de Rham section: {exc}") from exc
    dr_products = table(dr_products_raw, "derham.products")
    ident = vectors(ident_raw, "ident")
    return BigradedRing(name, basis, products, conj, dr_basis, dr_products, ident)


def ring_to_dict(ring: BigradedRing) -> dict:
    def table_out(table):
        out: dict[str, dict[str, dict[str, str]]] = {}
        for (x, y), vec in sorted(table.items()):
            if not vec:
                continue
            out.setdefault(x, {})[y] = {z: str(c) for z, c in sorted(vec.items())}
        return out

    return {
        "name": ring.name,
        "bigraded": {
            f"{p},{q}": list(ring.basis[(p, q)])
            for (p, q) in BIDEGREES
            if ring.basis[(p, q)]
        },
        "products": table_out(ring.products),
        "conjugation": {
            x: {z: str(c) for z, c in sorted(vec.items())}
            for x, vec in sorted(ring.conj.items())
            if vec
        },
        "derham": {
            "basis": {str(k): list(v) for k, v in ring.dr_basis.items() if v},
            "products": table_out(ring.dr_products),
        },
        "ident": {
            x: {z: str(c) for z, c in sorted(vec.items())}
            for x, vec in sorted(ring.ident.items())
            if vec
        },
    }


PRESET_NAMES = ("kodaira", "torus4", "k3")


@functools.lru_cache(maxsize=None)
def load_preset(name: str) -> BigradedRing:
    if name not in PRESET_NAMES:
        raise SchemaError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    path = resources.files("ellfib.cohomology").joinpath(f"presets/{name}.json")
    payload = json.loads(path.read_text())
    return ring_from_dict(payload)
