"""An independent oracle for leray_betti on the nilmanifold presets.

kodaira and torus4 are built by tools/make_presets.py from invariant
1-forms on a nilpotent Lie group.  A principal elliptic bundle over such
a base whose Chern classes a and b are invariant is again a nilmanifold:
its model adds real generators e5 and e6 with de5 = a and de6 = b, each
class the sum of the degree-2 Dolbeault representatives weighted by its
coordinates in ring.degree_labels(2) order (on both presets those
representatives are d-closed).  Its de Rham cohomology is the
Chevalley-Eilenberg cohomology of that model (Nomizu, Ann. of Math. 59,
1954), whose dimensions the generator's tower routine takes over d with
the tool's own rref.  No rank here comes from a ring table, from
ellfib.linalg or from an engine page: the preset ring gives the label
order alone.
"""

import random
from fractions import Fraction

import pytest

from cli_digest import TAU_I_CLASSES
from ellfib.cohomology.engine import leray_betti
from ellfib.cohomology.ring import load_preset
from make_presets import ExteriorModel, acc, derham_complex, kodaira_model, torus4_model, tower

MODELS = {"kodaira": kodaira_model, "torus4": torus4_model}


def seeded_classes(name, count, seed):
    """count classes (a, b) with coordinates in [-2, 2], halves included, (0,2) parts too."""
    rng = random.Random(seed)
    size = len(load_preset(name).degree_labels(2))

    def coords():
        return [str(Fraction(rng.randint(-2 * d, 2 * d), d)) for d in rng.choices((1, 2), k=size)]

    return [(name, coords(), coords()) for _ in range(count)]


def unit_classes(name):
    """The zero class, and for each label's unit e the classes (e, 0), (0, e) and (e, -2e)."""
    size = len(load_preset(name).degree_labels(2))

    def unit(i, c):
        return [str(c) if j == i else "0" for j in range(size)]

    zero = ["0"] * size
    classes = [(name, zero, zero)]
    for i in range(size):
        e = unit(i, 1)
        classes += [(name, e, zero), (name, zero, e), (name, e, unit(i, -2))]
    return classes


CLASSES = [
    *seeded_classes("kodaira", 40, 2801),
    *seeded_classes("torus4", 30, 2802),
    *unit_classes("kodaira"),
    *unit_classes("torus4"),
    *[("torus4", a.split(","), b.split(",")) for a, b in TAU_I_CLASSES],
]


def total_space_betti(name, a, b):
    """Betti numbers 0-6 of the model of the bundle over name with Chern classes a and b."""
    base, dolbeault, _ = MODELS[name]()
    forms = {label: form for block in dolbeault.values() for label, form in block}
    labels = load_preset(name).degree_labels(2)

    def form_of(coords):
        out = {}
        for label, c in zip(labels, coords, strict=True):
            for mono, coeff in forms[label].items():
                acc(out, mono, coeff * Fraction(c))
        return out

    # e5 and e6 are real: the bidegrees they are given are never read, since only d enters
    total = ExteriorModel(
        [*base.types, (1, 0), (0, 1)],
        {**base.dgen, base.count: form_of(a), base.count + 1: form_of(b)},
        conj_of={},
    )
    dims, _ = tower(*derham_complex(total))
    return tuple(dims[k] for k in range(7))


@pytest.mark.parametrize(
    "name, a, b", CLASSES, ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(CLASSES)]
)
def test_leray_betti_is_the_chevalley_eilenberg_cohomology_of_the_total_space(name, a, b):
    assert leray_betti(load_preset(name), a, b) == total_space_betti(name, a, b)


def test_the_degree_two_representatives_are_closed():
    # the oracle's de5 and de6 must be closed, so that d squares to zero on the total space
    for build in MODELS.values():
        model, dolbeault, _ = build()
        for (p, q), block in dolbeault.items():
            if p + q == 2:
                assert all(not model.d_form(form) for _, form in block)
