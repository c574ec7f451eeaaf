#!/usr/bin/env python3
"""Build the three base-surface ring presets from first principles.

kodaira and torus4 come from invariant-form models: an exterior algebra
on four 1-form generators with declared structure differentials, from
which both cohomology towers, all products, the conjugation, and the
degreewise identification are computed by exact rational linear algebra.
One routine, tower, gives the dimensions and exact forms of dbar over
bidegrees and of d over degrees; per tower, one check validates the
chosen representatives and one table reduces their wedge products, with
the one reduction that also serves the conjugation and identification.
k3 is assembled directly from its classical Hodge numbers and
hyperbolic intersection pairing.  Every emitted ring must pass
ring_validate and reproduce the expected dimension tables, or the
script refuses to write it.

tests/test_nilmanifold_oracle.py imports ExteriorModel, acc, tower,
derham_complex, kodaira_model and torus4_model to take the Betti numbers
of a total space; tests/test_linalg.py imports rref and solve_fractions.

Run from the repository root:  python tools/make_presets.py
"""

from __future__ import annotations

import itertools
import os
import sys
from fractions import Fraction
from math import comb

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from ellfib.cohomology.ring import BigradedRing, ring_to_dict, ring_validate
from ellfib.serialize import canonical_json

Mono = tuple[int, ...]
Form = dict[Mono, Fraction]


def wedge_mono(a: Mono, b: Mono) -> tuple[int, Mono] | None:
    if set(a) & set(b):
        return None
    lst = list(a + b)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(lst)


def acc(out: Form, mono: Mono, c: Fraction) -> None:
    n = out.get(mono, Fraction(0)) + c
    if n:
        out[mono] = n
    else:
        out.pop(mono, None)


def wedge(f: Form, g: Form) -> Form:
    out: Form = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            hit = wedge_mono(m1, m2)
            if hit is None:
                continue
            s, m = hit
            acc(out, m, c1 * c2 * s)
    return out


def unit(mono: Mono) -> Form:
    return {tuple(mono): Fraction(1)}


class ExteriorModel:
    """Exterior algebra on 1-form generators with a declared differential.

    gen_types lists the bidegree of each generator, (1, 0) or (0, 1);
    dgen maps a generator index to the 2-form it differentiates to;
    conj_of pairs each generator with its conjugate partner.
    """

    def __init__(self, gen_types, dgen, conj_of):
        self.types = list(gen_types)
        self.dgen = {i: dict(f) for i, f in dgen.items()}
        self.conj_of = dict(conj_of)
        self.count = len(self.types)

    def bidegree(self, mono: Mono) -> tuple[int, int]:
        p = sum(self.types[i][0] for i in mono)
        q = sum(self.types[i][1] for i in mono)
        return p, q

    def monos_pq(self, p: int, q: int) -> list[Mono]:
        return [
            mono
            for r in range(self.count + 1)
            for mono in itertools.combinations(range(self.count), r)
            if self.bidegree(mono) == (p, q)
        ]

    def monos_k(self, k: int) -> list[Mono]:
        return list(itertools.combinations(range(self.count), k))

    def d_form(self, form: Form) -> Form:
        out: Form = {}
        for mono, coeff in form.items():
            for t, idx in enumerate(mono):
                piece = self.dgen.get(idx)
                if not piece:
                    continue
                sign_t = -1 if t % 2 else 1
                prefix, suffix = mono[:t], mono[t + 1:]
                for dmono, dcoeff in piece.items():
                    first = wedge_mono(prefix, dmono)
                    if first is None:
                        continue
                    s1, m1 = first
                    second = wedge_mono(m1, suffix)
                    if second is None:
                        continue
                    s2, m2 = second
                    acc(out, m2, coeff * dcoeff * sign_t * s1 * s2)
        return out

    def dbar_form(self, form: Form) -> Form:
        """(0,1) part of d on a pure-bidegree form."""
        degrees = {self.bidegree(m) for m in form}
        if not degrees:
            return {}
        if len(degrees) != 1:
            raise AssertionError("dbar needs a pure bidegree")
        p, q = degrees.pop()
        return {
            m: c for m, c in self.d_form(form).items() if self.bidegree(m) == (p, q + 1)
        }

    def conj_form(self, form: Form) -> Form:
        out: Form = {}
        for mono, coeff in form.items():
            swapped = tuple(self.conj_of[i] for i in mono)
            hit = wedge_mono(swapped, ())
            if hit is None:
                raise AssertionError("conjugation collided")
            s, m = hit
            acc(out, m, coeff * s)
        return out


# -- rational solving: reduced row echelon form over Q ---------------------


def _as_fractions(matrix) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in matrix]


def rref(matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals, with pivot columns."""
    rows = _as_fractions(matrix)
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: list[int] = []
    top = 0
    for col in range(n):
        piv = next((i for i in range(top, m) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        inv = 1 / rows[top][col]
        rows[top] = [inv * x for x in rows[top]]
        for i in range(m):
            if i != top and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[top])]
        pivots.append(col)
        top += 1
        if top == m:
            break
    return rows, pivots


def rank(matrix) -> int:
    """Rank over the rationals: the pivot count of rref (0 for no rows or columns)."""
    return len(rref(matrix)[1])


def solve_fractions(matrix, rhs) -> list[Fraction] | None:
    """One solution of A x = b over the rationals, or None; free variables 0."""
    rows = _as_fractions(matrix)
    m = len(rows)
    n = len(rows[0]) if m else 0
    b = [Fraction(x) for x in rhs]
    if len(b) != m:
        raise ValueError("rhs length mismatch")
    aug = [rows[i] + [b[i]] for i in range(m)]
    red, pivots = rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = red[r][n]
    return x


def vec_of(form: Form, monos: list[Mono]) -> list[Fraction]:
    extra = set(form) - set(monos)
    if extra:
        raise AssertionError(f"form leaves the block: {sorted(extra)}")
    return [form.get(m, Fraction(0)) for m in monos]


def tower(monos, diff, prev, nxt):
    """{degree: dim of kernel modulo image} and {degree: nonzero images of the degree below}.

    monos maps each degree of one complex to its monomials, diff is its
    differential, and prev and nxt step a degree down and up (a degree
    missing from monos is empty).
    """
    dims, exact = {}, {}
    for deg, here in monos.items():
        below, above = monos.get(prev(deg), []), monos.get(nxt(deg), [])
        leaving = rank([vec_of(diff(unit(m)), above) for m in here])
        entering = rank([vec_of(diff(unit(m)), here) for m in below])
        dims[deg] = len(here) - leaving - entering
        exact[deg] = [f for f in (diff(unit(m)) for m in below) if f]
    return dims, exact


def dolbeault_complex(model: ExteriorModel):
    """dbar over the bidegrees (p, q) of the square, stepping in q."""
    monos = {(p, q): model.monos_pq(p, q) for p in range(3) for q in range(3)}
    return monos, model.dbar_form, lambda pq: (pq[0], pq[1] - 1), lambda pq: (pq[0], pq[1] + 1)


def derham_complex(model: ExteriorModel):
    """d over the total degrees 0 to the generator count."""
    monos = {k: model.monos_k(k) for k in range(model.count + 1)}
    return monos, model.d_form, lambda k: k - 1, lambda k: k + 1


def class_coords(form: Form, reps: list[Form], images: list[Form], monos: list[Mono]):
    """Coordinates of a closed form in the chosen representative basis."""
    columns = [vec_of(r, monos) for r in reps] + [vec_of(im, monos) for im in images]
    matrix = [[col[i] for col in columns] for i in range(len(monos))]
    b = vec_of(form, monos)
    x = solve_fractions(matrix, b)
    if x is None:
        raise AssertionError("form is not a combination of representatives and exacts")
    return x[: len(reps)]


def check_representatives(where, reps, diff, monos, dims, exact):
    """Each degree's representatives: closed, as many as its dimension, independent mod exacts."""
    for deg, block in reps.items():
        for label, form in block:
            if diff(form):
                raise AssertionError(f"{where}: representative {label} is not closed")
        if len(block) != dims[deg]:
            raise AssertionError(f"{where} {deg}: {len(block)} representatives, dim {dims[deg]}")
        images = [vec_of(im, monos[deg]) for im in exact[deg]]
        forms = [vec_of(form, monos[deg]) for _, form in block]
        if rank(forms + images) != len(forms) + rank(images):
            raise AssertionError(f"{where} {deg}: dependent representatives modulo exact forms")


def labelled(reps) -> list[tuple[str, Form]]:
    """(label, form) over every degree of a basis, degrees in order."""
    return [(label, form) for _, block in sorted(reps.items()) for label, form in block]


def reducer(reps, monos, exact):
    """reduce(form): a closed homogeneous form's class, sparse over its degree's basis."""
    degree_of = {m: deg for deg, block in monos.items() for m in block}

    def reduce(form: Form) -> dict[str, str]:
        if not form:
            return {}
        deg = degree_of[next(iter(form))]
        target = reps.get(deg, [])
        coords = class_coords(form, [f for _, f in target], exact[deg], monos[deg])
        return {label: str(c) for (label, _), c in zip(target, coords) if c}

    return reduce


def product_table(reps, reduce) -> dict[str, dict[str, dict[str, str]]]:
    """Structure constants by wedge-and-reduce, both argument orders."""
    table: dict[str, dict[str, dict[str, str]]] = {}
    flat = labelled(reps)
    for xl, xf in flat:
        for yl, yf in flat:
            entry = reduce(wedge(xf, yf))
            if entry:
                table.setdefault(xl, {})[yl] = entry
    return table


def exterior_payload(name, model, dolbeault_reps, derham_reps, ident_patch, expect_h, expect_b):
    """Assemble a full ring payload from an exterior model and chosen bases.

    dolbeault_reps: {(p,q): [(label, Form)]}; derham_reps: {k: [(label, Form)]};
    ident_patch: {dolbeault label: {de Rham label: coeff}} for representatives
    that are not d-closed and need a declared degreewise identification.
    """
    # Each tower the same way: dimensions from the complex, the chosen
    # bases checked against them, then products reduced into the bases.
    reduce, products = {}, {}
    for kind, reps, (monos, diff, prev, nxt), expect in (
        ("Dolbeault", dolbeault_reps, dolbeault_complex(model), expect_h),
        ("de Rham", derham_reps, derham_complex(model), dict(enumerate(expect_b))),
    ):
        dims, exact = tower(monos, diff, prev, nxt)
        if dims != expect:
            raise AssertionError(f"{name}: {kind} dimensions {dims} != {expect}")
        check_representatives(f"{name} {kind}", reps, diff, monos, dims, exact)
        reduce[kind] = reducer(reps, monos, exact)
        products[kind] = product_table(reps, reduce[kind])

    # Conjugation: a conjugate that is not dbar-closed is the zero class, a
    # closed one reduces in the mirror block.  Identification: a d-closed
    # representative reduces in de Rham, any other takes the declared patch.
    conjugation: dict[str, dict[str, str]] = {}
    ident: dict[str, dict[str, str]] = {}
    for label, form in labelled(dolbeault_reps):
        image = model.conj_form(form)
        if not model.dbar_form(image) and (entry := reduce["Dolbeault"](image)):
            conjugation[label] = entry
        if model.d_form(form):
            if label not in ident_patch:
                raise AssertionError(f"{name}: {label} needs an identification patch")
            ident[label] = {z: str(Fraction(c)) for z, c in ident_patch[label].items()}
        elif label in ident_patch:
            raise AssertionError(f"{name}: {label} is d-closed, patch unused")
        elif entry := reduce["de Rham"](form):
            ident[label] = entry

    return {
        "name": name,
        "bigraded": {
            f"{p},{q}": [label for label, _ in dolbeault_reps[(p, q)]]
            for (p, q) in sorted(dolbeault_reps)
            if dolbeault_reps[(p, q)]
        },
        "products": products["Dolbeault"],
        "conjugation": conjugation,
        "derham": {
            "basis": {str(k): [label for label, _ in derham_reps[k]] for k in sorted(derham_reps)},
            "products": products["de Rham"],
        },
        "ident": ident,
    }


# -- kodaira: nilmanifold model with d(phi2) = phi1 ^ phibar1 --------------

F1, F2, B1, B2 = 0, 1, 2, 3


def kodaira_model():
    """The kodaira model with its Dolbeault and de Rham representatives."""
    model = ExteriorModel(
        gen_types=[(1, 0), (1, 0), (0, 1), (0, 1)],
        dgen={
            F2: {(F1, B1): Fraction(1)},
            B2: {(F1, B1): Fraction(-1)},
        },
        conj_of={F1: B1, B1: F1, F2: B2, B2: F2},
    )
    dolbeault = {
        (0, 0): [("one", unit(()))],
        (1, 0): [("f1", unit((F1,)))],
        (0, 1): [("F1", unit((B1,))), ("F2", unit((B2,)))],
        (2, 0): [("n1", unit((F1, F2)))],
        (1, 1): [("A", unit((F1, B2))), ("B", unit((F2, B1)))],
        (0, 2): [("FF", unit((B1, B2)))],
        (2, 1): [("G1", unit((F1, F2, B1))), ("G2", unit((F1, F2, B2)))],
        (1, 2): [("H1", unit((F2, B1, B2)))],
        (2, 2): [("T", unit((F1, F2, B1, B2)))],
    }
    derham = {
        0: [("one", unit(()))],
        1: [
            ("m1", unit((F1,))),
            ("m2", unit((B1,))),
            ("m3", {(F2,): Fraction(1), (B2,): Fraction(1)}),
        ],
        2: [
            ("n1", unit((F1, F2))),
            ("n2", unit((F1, B2))),
            ("n3", unit((F2, B1))),
            ("n4", unit((B1, B2))),
        ],
        3: [
            ("p1", unit((F1, F2, B1))),
            ("p2", unit((F1, F2, B2))),
            ("p3", unit((F2, B1, B2))),
        ],
        4: [("v", unit((F1, F2, B1, B2)))],
    }
    return model, dolbeault, derham


def kodaira_payload():
    model, dolbeault, derham = kodaira_model()
    expect_h = {
        (0, 0): 1, (1, 0): 1, (0, 1): 2,
        (2, 0): 1, (1, 1): 2, (0, 2): 1,
        (2, 1): 2, (1, 2): 1, (2, 2): 1,
    }
    expect_h = {(p, q): expect_h.get((p, q), 0) for p in range(3) for q in range(3)}
    return exterior_payload(
        "kodaira",
        model,
        dolbeault,
        derham,
        ident_patch={"F2": {"m3": 1}},
        expect_h=expect_h,
        expect_b=(1, 3, 4, 3, 1),
    )


# -- torus4: four flat generators, zero differential ----------------------


def torus4_model():
    """The torus4 model with its Dolbeault and de Rham representatives."""
    model = ExteriorModel(
        gen_types=[(1, 0), (1, 0), (0, 1), (0, 1)],
        dgen={},
        conj_of={0: 2, 2: 0, 1: 3, 3: 1},
    )

    def label(mono: Mono) -> str:
        return "e" + "".join(str(i + 1) for i in mono)

    dolbeault = {
        (p, q): [(label(m), unit(m)) for m in model.monos_pq(p, q)]
        for p in range(3)
        for q in range(3)
        if model.monos_pq(p, q)
    }
    derham = {k: [(label(m), unit(m)) for m in model.monos_k(k)] for k in range(5)}
    return model, dolbeault, derham


def torus4_payload():
    model, dolbeault, derham = torus4_model()
    expect_h = {
        (p, q): comb(2, p) * comb(2, q) for p in range(3) for q in range(3)
    }
    return exterior_payload(
        "torus4",
        model,
        dolbeault,
        derham,
        ident_patch={},
        expect_h=expect_h,
        expect_b=(1, 4, 6, 4, 1),
    )


# -- k3: classical Hodge numbers and hyperbolic pairing -------------------


def k3_payload():
    walls = [f"w{i}" for i in range(1, 21)]
    labels = ["one", "sg", *walls, "sgb", "top"]

    def pairing(x: str, y: str) -> int:
        if {x, y} == {"sg", "sgb"}:
            return 1
        if x in walls and y in walls:
            i, j = int(x[1:]), int(y[1:])
            block = (i - 1) // 2
            if block == (j - 1) // 2 and i != j:
                return 1
        return 0

    products: dict[str, dict[str, dict[str, str]]] = {}
    for x in labels:
        products.setdefault("one", {})[x] = {x: "1"}
        if x != "one":
            products.setdefault(x, {})["one"] = {x: "1"}
    degree2 = ["sg", *walls, "sgb"]
    for x in degree2:
        for y in degree2:
            c = pairing(x, y)
            if c:
                products.setdefault(x, {})[y] = {"top": str(c)}

    conjugation = {lbl: {lbl: "1"} for lbl in labels}
    conjugation["sg"] = {"sgb": "1"}
    conjugation["sgb"] = {"sg": "1"}

    payload = {
        "name": "k3",
        "bigraded": {
            "0,0": ["one"],
            "2,0": ["sg"],
            "1,1": walls,
            "0,2": ["sgb"],
            "2,2": ["top"],
        },
        "products": products,
        "conjugation": conjugation,
        "derham": {
            "basis": {"0": ["one"], "2": degree2, "4": ["top"]},
            "products": products,
        },
        "ident": {lbl: {lbl: "1"} for lbl in labels},
    }

    matrix = [[Fraction(pairing(x, y)) for y in degree2] for x in degree2]
    if rank(matrix) != 22:
        raise AssertionError("k3: intersection pairing is degenerate")
    return payload


def main() -> int:
    outdir = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src", "ellfib", "cohomology", "presets"
    )
    os.makedirs(outdir, exist_ok=True)
    for name, builder in (
        ("kodaira", kodaira_payload),
        ("torus4", torus4_payload),
        ("k3", k3_payload),
    ):
        payload = builder()
        ring = BigradedRing(payload)
        problems = ring_validate(ring)
        if problems:
            raise SystemExit(f"{name}: " + "; ".join(problems))
        # stable canonical shape: emit through the ring itself
        final = ring_to_dict(ring)
        if ring_validate(BigradedRing(final)):
            raise SystemExit(f"{name}: payload does not round trip")
        path = os.path.join(outdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(final))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
