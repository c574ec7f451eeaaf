"""Finite chart model of the fibered surface base.

The base is replaced by a nerve: chart labels, unordered overlaps and
triples, and one table from each of them to its finite sample-label set,
with triple samples contained in overlap samples contained in chart
samples.  The nerve answers every membership question from that table,
and one of its methods refuses an overlap or triple key off the nerve.
Transition data becomes a translation-valued cocycle tabulated at
samples.  Two orientation routines check the charts of every overlap or
triple key, given as data or as a query, for distinct strings, and
return the canonical key and whether it was listed in an odd order; the
reader of data keys checks their length and refuses a string, as the
nerve does where it reads its charts or a sample set.  Data is
stored on canonical keys, so every loop over the sorted triples reads
the faces (i, j), (j, k), (i, k), with one minus sign on (i, k).  On
top of that sit the three classification tools: the cocycle checker,
the coboundary solver deciding whether the transition class is trivial,
and the gluing of locally constant classifying maps.  The
multiplicative gerbe obstruction lives here too, with scalars modeled
as nonzero rationals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    IncompatibleFamily,
    InvalidGerbe,
    MissingSample,
    SchemaError,
    WitnessMismatch,
)
from .linalg import integer_diagonalize, solve_diagonalized, solve_gf2
from .torus import ORIGIN, TorusPoint, parse_fraction

_BAD_LABEL_CHARS = set(",/")


def _check_label(label, kind: str) -> str:
    if not isinstance(label, str) or not label:
        raise SchemaError(f"{kind} label must be a nonempty string: {label!r}")
    if _BAD_LABEL_CHARS & set(label):
        raise SchemaError(f"{kind} label may not contain ',' or '/': {label!r}")
    return label


def _oriented(i: str, j: str) -> tuple[tuple[str, str], bool]:
    """The overlap key of (i, j), and whether (i, j) lists it in reverse."""
    if not (isinstance(i, str) and isinstance(j, str)):
        raise SchemaError(f"overlap charts must be strings: {(i, j)!r}")
    if i == j:
        raise SchemaError(f"overlap needs two distinct charts, got {i!r} twice")
    return ((i, j), False) if i < j else ((j, i), True)


def _oriented_triple(i: str, j: str, k: str) -> tuple[tuple[str, str, str], bool]:
    """The triple key of (i, j, k), and whether (i, j, k) is an odd permutation of it."""
    if not (isinstance(i, str) and isinstance(j, str) and isinstance(k, str)):
        raise SchemaError(f"triple charts must be strings: {(i, j, k)!r}")
    if len({i, j, k}) != 3:
        raise SchemaError(f"triple needs three distinct charts: {(i, j, k)!r}")
    return tuple(sorted((i, j, k))), (i > j) ^ (i > k) ^ (j > k)


def overlap_key(i: str, j: str) -> tuple[str, str]:
    """Canonical orientation of an overlap pair."""
    return _oriented(i, j)[0]


def triple_key(i: str, j: str, k: str) -> tuple[str, str, str]:
    return _oriented_triple(i, j, k)[0]


def _read_key(key, size: int) -> tuple[tuple[str, ...], bool]:
    """Canonical form of an overlap or triple key given as data, and whether its order is odd."""
    try:  # a string would be spread into its letters
        fits = not isinstance(key, str) and len(key) == size
    except TypeError:  # a key with no length
        fits = False
    if not fits:
        kind, count = ("overlap", "two") if size == 2 else ("triple", "three")
        raise SchemaError(f"{kind} must list {count} charts: {key!r}")
    return (_oriented if size == 2 else _oriented_triple)(*key)


class Nerve:
    """Validated chart/overlap/triple incidence with sample labels."""

    __slots__ = ("charts", "overlaps", "triples", "_samples", "_pairs", "_relator")

    def __init__(
        self,
        charts: Iterable[str],
        overlaps: Iterable[Sequence[str]] = (),
        triples: Iterable[Sequence[str]] = (),
        chart_samples: Mapping[str, Iterable[str]] | None = None,
        overlap_samples: Mapping[tuple[str, str], Iterable[str]] | None = None,
        triple_samples: Mapping[tuple[str, str, str], Iterable[str]] | None = None,
    ):
        if isinstance(charts, str):  # a string would be spread into its letters
            raise SchemaError(f"charts must be a collection of labels, not a string: {charts!r}")
        chart_list = [_check_label(c, "chart") for c in charts]
        if not chart_list:
            raise SchemaError("a nerve needs at least one chart")
        chart_set = set(chart_list)
        if len(chart_set) != len(chart_list):
            raise SchemaError("duplicate chart labels")
        self.charts = tuple(sorted(chart_set))

        seen_pairs = set()
        for pair in overlaps:
            key = _read_key(pair, 2)[0]
            if key[0] not in chart_set or key[1] not in chart_set:
                raise SchemaError(f"overlap {key!r} references unknown charts")
            if key in seen_pairs:
                raise SchemaError(f"duplicate overlap {key!r}")
            seen_pairs.add(key)
        self.overlaps = tuple(sorted(seen_pairs))

        seen_triples = set()
        for tri in triples:
            i, j, k = key = _read_key(tri, 3)[0]
            # the key is sorted, so its three pairs are overlap keys already
            for pair in ((i, j), (i, k), (j, k)):
                if pair not in seen_pairs:
                    raise SchemaError(f"triple {key!r} misses overlap {pair!r}")
            if key in seen_triples:
                raise SchemaError(f"duplicate triple {key!r}")
            seen_triples.add(key)
        self.triples = tuple(sorted(seen_triples))

        # chart label, overlap pair or sorted triple -> sorted samples, filled kind by kind
        # so that its order is canonical; members holds the same samples as sets
        self._samples, members = {}, {}
        for kind, keys, raw in (
            ("chart", self.charts, chart_samples),
            ("overlap", self.overlaps, overlap_samples),
            ("triple", self.triples, triple_samples),
        ):
            if raw is not None and not isinstance(raw, Mapping):
                raise SchemaError(f"{kind} samples must be a mapping: {raw!r}")
            given = {}
            for key, labels in (raw or {}).items():
                try:  # an overlap or triple key may list its charts in any order
                    key = tuple(sorted(key)) if isinstance(key, tuple) else key
                except TypeError:  # charts that do not compare are not all strings: unknown
                    pass
                if key in given:
                    raise SchemaError(f"samples for {kind} {key!r} given in two orders")
                given[key] = labels
            for key in keys:
                if key not in given:
                    raise SchemaError(f"missing samples for {kind} {key!r}")
                labels = given.pop(key)
                if isinstance(labels, str):
                    raise SchemaError(
                        f"samples for {kind} {key!r} must be a collection of labels, "
                        f"not a string: {labels!r}"
                    )
                labels = [_check_label(s, "sample") for s in labels]
                if not labels:
                    raise SchemaError(f"empty sample set for {kind} {key!r}")
                members[key] = distinct = set(labels)
                if len(distinct) != len(labels):
                    raise SchemaError(f"duplicate samples for {kind} {key!r}")
                self._samples[key] = tuple(sorted(labels))
            if given:  # by str, which compares keys whose charts are not all strings too
                raise SchemaError(f"samples given for unknown {kind}s: {sorted(given, key=str)!r}")

        for i, j in self.overlaps:
            for s in self._samples[(i, j)]:
                if s not in members[i] or s not in members[j]:
                    raise SchemaError(f"overlap {(i, j)!r} sample {s!r} missing from a chart")
        for i, j, k in self.triples:
            for s in self._samples[(i, j, k)]:
                for pair in ((i, j), (j, k), (i, k)):
                    if s not in members[pair]:
                        raise SchemaError(
                            f"triple {(i, j, k)!r} sample {s!r} missing from overlap {pair!r}"
                        )

    @classmethod
    def single_chart(cls, chart: str = "c", samples: Sequence[str] = ("s",)) -> "Nerve":
        return cls([chart], chart_samples={chart: samples})

    def chart_samples(self, chart: str) -> tuple[str, ...]:
        # a tuple would name an overlap or a triple of the table
        if not isinstance(chart, str) or (samples := self._samples.get(chart)) is None:
            raise SchemaError(f"unknown chart {chart!r}")
        return samples

    def overlap_samples(self, i: str, j: str) -> tuple[str, ...]:
        return self._samples[self._known(overlap_key(i, j))]

    def triple_samples(self, i: str, j: str, k: str) -> tuple[str, ...]:
        return self._samples[self._known(triple_key(i, j, k))]

    def _known(self, key: tuple[str, ...]) -> tuple[str, ...]:
        """key, a canonical overlap or triple key of the nerve; a key off the nerve is refused."""
        if key not in self._samples:
            raise SchemaError(f"unknown {'overlap' if len(key) == 2 else 'triple'} {key!r}")
        return key

    def __contains__(self, key) -> bool:
        """Whether key is a chart label, an overlap key or a sorted triple of the nerve."""
        return key in self._samples

    def check_data(self, cocycle: TranslationCocycle, local=None, what="local class"):
        """Refuse a cocycle value, or a key of local, that lies off the nerve.

        Given local, return the (chart, sample) pairs of the nerve it leaves out.
        """
        for key, per_sample in cocycle.values.items():
            # a cocycle key is an overlap key, so the table holds it only as an overlap
            if (samples := self._samples.get(key)) is None:
                raise SchemaError(f"cocycle value on unknown overlap {key!r}")
            if extra := per_sample.keys() - samples:
                raise SchemaError(
                    f"cocycle value on overlap {key!r} at unknown samples {sorted(extra)!r}"
                )
        if local is not None:
            try:
                pairs = self._pairs
            except AttributeError:  # the (chart, sample) keys, built at the first call and kept
                pairs = frozenset((c, s) for c in self.charts for s in self._samples[c])
                self._pairs = pairs
            for key in local:
                if key not in pairs:
                    raise SchemaError(f"{what} at unknown chart/sample {key!r}")
            return pairs - local.keys()

    def _relator_form(self):
        """Diagonal form (d, U, V) of the relator matrix R, built at the first call and kept.

        R has one row g_ij + g_jk - g_ik per sorted triple and one column
        per overlap; U R V = diag(d).  R itself is not kept: condition 3,
        the integer witness and its signs (the form read mod 2) all read
        the form, whose parts are tuples so no reader can change them.
        """
        try:
            return self._relator
        except AttributeError:
            column = {key: pos for pos, key in enumerate(self.overlaps)}
            rows = []
            for i, j, k in self.triples:
                row = [0] * len(column)
                row[column[(i, j)]] += 1
                row[column[(j, k)]] += 1
                row[column[(i, k)]] -= 1
                rows.append(row)
            if rows:
                d, u, v = integer_diagonalize(rows)
            else:  # an empty row list cannot carry the column count, so V is written out
                d, u, v = (), (), [[int(a == b) for b in self.overlaps] for a in self.overlaps]
            self._relator = (tuple(d), tuple(map(tuple, u)), tuple(map(tuple, v)))
            return self._relator

    def tetrahedra(self) -> tuple[tuple[str, str, str, str], ...]:
        """Chart quadruples all four of whose triples are present, sorted."""
        thirds: dict[tuple[str, str], set[str]] = {}
        for i, j, k in self.triples:
            thirds.setdefault((i, j), set()).add(k)
            thirds.setdefault((i, k), set()).add(j)
            thirds.setdefault((j, k), set()).add(i)
        return tuple(
            (i, j, k, l)
            for i, j, k in self.triples
            for l in sorted(thirds[(i, j)] & thirds[(i, k)] & thirds[(j, k)])
            if l > k
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Nerve) and self._samples == other._samples

    def __hash__(self):
        return hash(tuple(self._samples.items()))

    def __repr__(self) -> str:
        return (
            f"Nerve(charts={len(self.charts)}, overlaps={len(self.overlaps)}, "
            f"triples={len(self.triples)})"
        )


class TranslationCocycle:
    """Antisymmetric overlap data: lambda[j,i] is derived as -lambda[i,j]."""

    __slots__ = ("values",)

    def __init__(self, values: Mapping[tuple[str, str], Mapping[str, TorusPoint]]):
        self.values: dict[tuple[str, str], dict[str, TorusPoint]] = {}
        for pair, per_sample in values.items():
            key, flip = _read_key(pair, 2)
            if key in self.values:
                raise SchemaError(f"cocycle lists overlap {key!r} twice")
            if not isinstance(per_sample, Mapping):
                raise SchemaError(f"cocycle values for {key!r} must be a mapping: {per_sample!r}")
            entry = self.values[key] = {}
            for sample, point in per_sample.items():
                _check_label(sample, "sample")
                if not isinstance(point, TorusPoint):
                    raise SchemaError(f"cocycle value for {key!r}/{sample!r} not a point")
                entry[sample] = -point if flip else point

    def value(self, i: str, j: str, sample: str) -> TorusPoint:
        key, flip = _oriented(i, j)
        if (point := self.values.get(key, {}).get(sample)) is None:
            raise MissingSample(f"cocycle undefined on overlap {key!r} sample {sample!r}")
        return -point if flip else point

    def __eq__(self, other) -> bool:
        return isinstance(other, TranslationCocycle) and self.values == other.values

    def __repr__(self) -> str:
        return f"TranslationCocycle(overlaps={len(self.values)})"


@dataclass(frozen=True)
class CocycleReport:
    ok: bool
    violations: tuple[tuple[tuple[str, str, str], str, TorusPoint], ...]


def check_cocycle(nerve: Nerve, cocycle: TranslationCocycle) -> CocycleReport:
    """List every triple sample where lambda_ij + lambda_jk - lambda_ik is not zero."""
    nerve.check_data(cocycle)
    for i, j in nerve.overlaps:
        for s in nerve.overlap_samples(i, j):
            cocycle.value(i, j, s)
    violations = []
    for i, j, k in nerve.triples:
        # the pass above found every overlap sample, and a triple's samples lie in its overlaps
        ij, jk, ik = (cocycle.values[pair] for pair in ((i, j), (j, k), (i, k)))
        for s in nerve.triple_samples(i, j, k):
            total = ij[s] + jk[s] - ik[s]
            if not total.is_zero():
                violations.append(((i, j, k), s, total))
    return CocycleReport(ok=not violations, violations=tuple(violations))


def coboundary_solve(
    nerve: Nerve, cocycle: TranslationCocycle
) -> dict[tuple[str, str], TorusPoint] | None:
    """Find mu with lambda_ij = mu_j - mu_i on every overlap sample, or None.

    Each connected component of the (chart, sample) constraint graph is
    anchored by zeroing its smallest node, so the answer is canonical.
    """
    nerve.check_data(cocycle)
    nodes = sorted(
        (chart, s) for chart in nerve.charts for s in nerve.chart_samples(chart)
    )
    edges: dict[tuple[str, str], list[tuple[tuple[str, str], TorusPoint]]] = {
        node: [] for node in nodes
    }
    for i, j in nerve.overlaps:
        for s in nerve.overlap_samples(i, j):
            lam = cocycle.value(i, j, s)
            edges[(i, s)].append(((j, s), lam))
            edges[(j, s)].append(((i, s), -lam))
    mu: dict[tuple[str, str], TorusPoint] = {}
    for root in nodes:
        if root in mu:
            continue
        mu[root] = ORIGIN
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for neighbor, lam in edges[node]:
                expected = mu[node] + lam
                if neighbor in mu:
                    if mu[neighbor] != expected:
                        return None
                else:
                    mu[neighbor] = expected
                    queue.append(neighbor)
    return mu


def classify_line_family(
    nerve: Nerve,
    cocycle: TranslationCocycle,
    local: Mapping[tuple[str, str], TorusPoint],
) -> dict[str, TorusPoint]:
    """Glue per-chart classifying points into one map on sample labels.

    The transition translations do not move a degree-zero class, so
    gluing is plain equality of the local values on overlap samples.
    The cocycle is accepted for interface symmetry and precondition
    context only; like local, it may hold no value off the nerve.
    """
    missing = nerve.check_data(cocycle, local)
    if missing:
        chart, s = min(missing)
        raise MissingSample(f"no local class for chart {chart!r} sample {s!r}")
    for i, j in nerve.overlaps:
        for s in nerve.overlap_samples(i, j):
            left, right = local[(i, s)], local[(j, s)]
            if left != right:
                raise IncompatibleFamily(
                    f"overlap {(i, j)!r} sample {s!r}: chart values differ "
                    f"({left} vs {right})"
                )
    glued: dict[str, TorusPoint] = {}
    for chart in nerve.charts:
        for s in nerve.chart_samples(chart):
            value = local[(chart, s)]
            if s in glued and glued[s] != value:
                raise IncompatibleFamily(
                    f"sample {s!r}: charts disagree without a connecting overlap"
                )
            glued[s] = value
    return glued


class GerbeData:
    """Scalar twisting data on a nerve: descriptors F, scalars a and c.

    A validated record on the sorted keys of the nerve, each oriented once
    as the data enters.  Descriptors are integer exponent vectors over the
    overlap generators, one per overlap; a reversed generator counts with
    exponent -1, which builds condition 2 into the encoding and makes
    condition 1 vacuous (a chart never overlaps itself).  Scalars given on
    a reversed or odd key are stored inverted; a key left out stands for 1.
    """

    __slots__ = ("nerve", "a", "c", "descriptors")

    def __init__(
        self,
        nerve: Nerve,
        a: Mapping[tuple[str, str], object] | None = None,
        c: Mapping[tuple[str, str, str], object] | None = None,
        descriptors: Mapping[tuple[str, str], Mapping[tuple[str, str], int]] | None = None,
    ):
        self.nerve = nerve
        self.a: dict[tuple[str, str], Fraction] = {}
        self.c: dict[tuple[str, str, str], Fraction] = {}
        scalars = (("a", 2, "overlap", a, self.a), ("c", 3, "triple", c, self.c))
        for name, size, kind, given, table in scalars:
            for raw, value in (given or {}).items():
                key, flip = _read_key(raw, size)
                if key not in nerve:
                    raise SchemaError(f"gerbe scalar on unknown {kind} {key!r}")
                if key in table:
                    raise SchemaError(f"gerbe lists {kind} {key!r} twice")
                where = f"{name}[{','.join(raw)}]"  # the charts of a key on the nerve are strings
                if (q := parse_fraction(value, f"gerbe scalar {where}")) == 0:
                    raise InvalidGerbe(f"zero scalar at {where}")
                table[key] = 1 / q if flip else q

        self.descriptors: dict[tuple[str, str], dict[tuple[str, str], int]] = {}
        for pair, exps in (descriptors or {}).items():
            key, flip = _read_key(pair, 2)
            if key not in nerve:
                raise SchemaError(f"descriptor on unknown overlap {key!r}")
            if not isinstance(exps, Mapping):
                raise SchemaError(f"descriptor for {key!r} must be a mapping: {exps!r}")
            vec: dict[tuple[str, str], int] = {}
            for raw, e in exps.items():
                gen, reverse = _read_key(raw, 2)
                if gen not in nerve:
                    raise SchemaError(f"descriptor references unknown overlap {tuple(raw)!r}")
                if isinstance(e, bool) or not isinstance(e, int):
                    raise SchemaError(f"descriptor exponent must be an integer, got {e!r}")
                vec[gen] = vec.get(gen, 0) + (-e if reverse else e)
            vec = {g: -e if flip else e for g, e in vec.items() if e}
            if self.descriptors.setdefault(key, vec) != vec:
                raise InvalidGerbe(
                    f"condition 2 violated: descriptors for {key!r} and its "
                    "reverse are not inverse"
                )
        for key in nerve.overlaps:
            self.descriptors.setdefault(key, {key: 1})


def validate_gerbe(g: GerbeData) -> None:
    """Check descriptor condition 3; 1, 2 and 4 hold by encoding.

    Condition 3 (triviality of t = F_ij + F_jk - F_ik) means membership in
    the row lattice of the relator matrix R, whose rows are exactly the
    identifications the conditions impose on the free group of overlap
    generators.  With U R V = diag(d), t is in it exactly when t V is in
    the row lattice of diag(d): divisible by d, zero past it.

    Condition 4 (F_ijk - F_jkl + F_kli - F_lij trivial, with F_xyz =
    F_xy + F_yz + F_zx) telescopes to (F_ki + F_ik) - (F_lj + F_jl),
    which is zero because F_yx is stored as -F_xy.
    """
    nerve = g.nerve
    d, _, v = nerve._relator_form()
    gen_index = {key: pos for pos, key in enumerate(nerve.overlaps)}
    diagonal = d + (0,) * (len(v) - len(d))
    for i, j, k in nerve.triples:
        # t V: the rows of V named by the few nonzero entries of t = F_ij + F_jk - F_ik
        tv = [0] * len(v)
        for sign, pair in ((1, (i, j)), (1, (j, k)), (-1, (i, k))):
            for gen, e in g.descriptors[pair].items():
                tv = [x + sign * e * y for x, y in zip(tv, v[gen_index[gen]])]
        if any(x % dc if dc else x for x, dc in zip(tv, diagonal)):
            raise InvalidGerbe(
                f"condition 3 violated on triple {(i, j, k)!r}: descriptor "
                "product is not canonically trivial"
            )


@dataclass(frozen=True)
class GerbeReport:
    alpha: tuple[tuple[tuple[str, str, str], Fraction], ...]
    cocycle_checks: tuple[tuple[tuple[str, str, str, str], Fraction], ...]
    cocycle_ok: bool
    gluable: bool
    witness: tuple[tuple[tuple[str, str], Fraction], ...] | None


def __getattr__(name: str):
    # perfbench/tracing.py wraps factorint as `fibration.sympy.factorint`, so
    # the name resolves here; the hook goes when sympy does (ROADMAP item 3)
    if name != "sympy":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import sympy

    return sympy


def _prime_valuations(q: Fraction) -> dict[int, int]:
    import sympy  # deferred: only the gerbe witness factors
    # numerator and denominator are coprime, so no prime appears in both
    vals = {int(p): int(e) for p, e in sympy.factorint(abs(q.numerator)).items()}
    vals.update((int(p), -int(e)) for p, e in sympy.factorint(q.denominator).items())
    return vals


def _coboundary_witness(
    nerve: Nerve, alpha: dict[tuple[str, str, str], Fraction]
) -> dict[tuple[str, str], Fraction] | None:
    """Solve alpha = (delta beta) in nonzero rationals, prime by prime.

    Each alpha is factored once; the nerve's one diagonal form of R serves
    every prime and, read mod 2, the signs.
    """
    gens = nerve.overlaps
    form = nerve._relator_form()
    valuations = [_prime_valuations(alpha[tri]) for tri in nerve.triples]
    primes = sorted({p for vals in valuations for p in vals})
    # each overlap's numerator and denominator, multiplied by its nonzero exponents only
    num, den = [1] * len(gens), [1] * len(gens)
    for p in primes:
        sol = solve_diagonalized(form, [vals.get(p, 0) for vals in valuations])
        if sol is None:
            return None
        for pos, e in enumerate(sol):
            if e > 0:
                num[pos] *= p**e
            elif e:
                den[pos] *= p**-e
    sign_rhs = [0 if alpha[tri] > 0 else 1 for tri in nerve.triples]
    sign_sol = solve_gf2(form, sign_rhs)
    if sign_sol is None:
        return None
    return {
        key: Fraction(-x if bit else x, y)
        for key, x, y, bit in zip(gens, num, den, sign_sol)
    }


def gerbe_alpha(nerve: Nerve, g: GerbeData) -> GerbeReport:
    """Per-triple obstruction a_ij a_jk / (a_ik c_ijk), its cocycle identity, gluability."""
    if g.nerve is not nerve and g.nerve != nerve:
        raise SchemaError("gerbe data was built over a different nerve")
    validate_gerbe(g)
    a, c, one = g.a, g.c, Fraction(1)
    alpha: dict[tuple[str, str, str], Fraction] = {}
    for i, j, k in nerve.triples:
        alpha[(i, j, k)] = (
            a.get((i, j), one) * a.get((j, k), one) / (a.get((i, k), one) * c.get((i, j, k), one))
        )
    checks = []
    for i, j, k, l in nerve.tetrahedra():
        value = (alpha[(j, k, l)] * alpha[(i, j, l)]) / (alpha[(i, k, l)] * alpha[(i, j, k)])
        checks.append(((i, j, k, l), value))
    cocycle_ok = all(value == 1 for _, value in checks)
    witness = _coboundary_witness(nerve, alpha)
    if witness is not None:
        for i, j, k in nerve.triples:
            left, mid, right = witness[(i, j)], witness[(j, k)], witness[(i, k)]
            if left * mid / right != alpha[(i, j, k)]:
                raise WitnessMismatch(
                    f"gluability witness fails on triple {(i, j, k)!r}: "
                    f"{left} * {mid} / {right} != {alpha[(i, j, k)]}"
                )
    return GerbeReport(
        alpha=tuple(sorted(alpha.items())),
        cocycle_checks=tuple(checks),
        cocycle_ok=cocycle_ok,
        gluable=witness is not None,
        witness=None if witness is None else tuple(sorted(witness.items())),
    )
