"""Preset cohomology rings against independently frozen structure tables."""

import json
import random
import re
from fractions import Fraction
from importlib import resources

import pytest

from ellfib.cohomology.ring import (
    BIDEGREES,
    BigradedRing,
    PRESET_NAMES,
    load_preset,
    ring_to_dict,
    ring_validate,
)
from ellfib.errors import SchemaError
from ellfib.linalg import exact_rank
from ellfib.serialize import canonical_json
from make_presets import k3_payload, kodaira_payload, torus4_payload

KODAIRA_BASIS = {
    (0, 0): ("one",),
    (1, 0): ("f1",),
    (0, 1): ("F1", "F2"),
    (2, 0): ("n1",),
    (1, 1): ("A", "B"),
    (0, 2): ("FF",),
    (2, 1): ("G1", "G2"),
    (1, 2): ("H1",),
    (2, 2): ("T",),
}

# every nonzero product among non-unit labels, both orders, frozen by hand
KODAIRA_PRODUCTS = {
    ("f1", "F2"): {"A": 1},
    ("F2", "f1"): {"A": -1},
    ("f1", "B"): {"G1": 1},
    ("B", "f1"): {"G1": 1},
    ("f1", "H1"): {"T": 1},
    ("H1", "f1"): {"T": -1},
    ("F1", "F2"): {"FF": 1},
    ("F2", "F1"): {"FF": -1},
    ("F1", "n1"): {"G1": 1},
    ("n1", "F1"): {"G1": 1},
    ("F2", "n1"): {"G2": 1},
    ("n1", "F2"): {"G2": 1},
    ("F2", "B"): {"H1": 1},
    ("B", "F2"): {"H1": 1},
    ("F1", "G2"): {"T": 1},
    ("G2", "F1"): {"T": -1},
    ("F2", "G1"): {"T": -1},
    ("G1", "F2"): {"T": 1},
    ("n1", "FF"): {"T": 1},
    ("FF", "n1"): {"T": 1},
    ("A", "B"): {"T": 1},
    ("B", "A"): {"T": 1},
}

KODAIRA_CONJ = {
    "one": {"one": 1},
    "f1": {"F1": 1},
    "F1": {"f1": 1},
    "F2": {},
    "n1": {"FF": 1},
    "FF": {"n1": 1},
    "A": {"B": -1},
    "B": {"A": -1},
    "G1": {},
    "G2": {"H1": 1},
    "H1": {"G2": 1},
    "T": {"T": 1},
}

KODAIRA_IDENT = {
    "one": "one",
    "f1": "m1",
    "F1": "m2",
    "F2": "m3",
    "n1": "n1",
    "A": "n2",
    "B": "n3",
    "FF": "n4",
    "G1": "p1",
    "G2": "p2",
    "H1": "p3",
    "T": "v",
}

KODAIRA_DR_BASIS = {
    0: ("one",),
    1: ("m1", "m2", "m3"),
    2: ("n1", "n2", "n3", "n4"),
    3: ("p1", "p2", "p3"),
    4: ("v",),
}

KODAIRA_DR_PRODUCTS = {
    ("m1", "m3"): {"n1": 1, "n2": 1},
    ("m3", "m1"): {"n1": -1, "n2": -1},
    ("m2", "m3"): {"n3": -1, "n4": 1},
    ("m3", "m2"): {"n3": 1, "n4": -1},
    ("m1", "n3"): {"p1": 1},
    ("n3", "m1"): {"p1": 1},
    ("m1", "n4"): {"p1": 1},
    ("n4", "m1"): {"p1": 1},
    ("m2", "n1"): {"p1": 1},
    ("n1", "m2"): {"p1": 1},
    ("m2", "n2"): {"p1": -1},
    ("n2", "m2"): {"p1": -1},
    ("m3", "n1"): {"p2": 1},
    ("n1", "m3"): {"p2": 1},
    ("m3", "n2"): {"p2": -1},
    ("n2", "m3"): {"p2": -1},
    ("m3", "n3"): {"p3": 1},
    ("n3", "m3"): {"p3": 1},
    ("m3", "n4"): {"p3": 1},
    ("n4", "m3"): {"p3": 1},
    ("m1", "p3"): {"v": 1},
    ("p3", "m1"): {"v": -1},
    ("m2", "p2"): {"v": 1},
    ("p2", "m2"): {"v": -1},
    ("m3", "p1"): {"v": -1},
    ("p1", "m3"): {"v": 1},
    ("n1", "n4"): {"v": 1},
    ("n4", "n1"): {"v": 1},
    ("n2", "n3"): {"v": 1},
    ("n3", "n2"): {"v": 1},
}


def as_fracs(vec) -> dict[str, Fraction]:
    return {k: Fraction(v) for k, v in vec.items()}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_satisfy_every_ring_law(name):
    assert ring_validate(load_preset(name)) == ()


def test_load_preset_rejects_unknown_names():
    with pytest.raises(SchemaError):
        load_preset("zz")


def test_kodaira_basis_and_dims():
    ring = load_preset("kodaira")
    for pq, labels in KODAIRA_BASIS.items():
        assert ring.labels(*pq) == labels
    assert ring.degree_labels(2) == ["n1", "A", "B", "FF"]
    assert [ring.dr_dim(k) for k in range(5)] == [1, 3, 4, 3, 1]
    for k, labels in KODAIRA_DR_BASIS.items():
        assert tuple(ring.dr_basis[k]) == labels


def test_kodaira_full_bigraded_product_table():
    ring = load_preset("kodaira")
    labels = [x for labels in KODAIRA_BASIS.values() for x in labels]
    for x in labels:
        for y in labels:
            if x == "one" or y == "one":
                other = y if x == "one" else x
                expected = {other: Fraction(1)}
            else:
                expected = as_fracs(KODAIRA_PRODUCTS.get((x, y), {}))
            assert ring.cup(x, y) == expected, f"cup({x}, {y})"


def test_kodaira_full_derham_product_table():
    ring = load_preset("kodaira")
    labels = [x for labels in KODAIRA_DR_BASIS.values() for x in labels]
    for x in labels:
        for y in labels:
            if x == "one" or y == "one":
                other = y if x == "one" else x
                expected = {other: Fraction(1)}
            else:
                expected = as_fracs(KODAIRA_DR_PRODUCTS.get((x, y), {}))
            assert ring.dr_cup(x, y) == expected, f"dr_cup({x}, {y})"


def test_kodaira_conjugation_table():
    ring = load_preset("kodaira")
    for x, vec in KODAIRA_CONJ.items():
        assert ring.conj[x] == as_fracs(vec), f"conj({x})"


def test_kodaira_identification_table():
    ring = load_preset("kodaira")
    for x, target in KODAIRA_IDENT.items():
        assert ring.ident[x] == {target: Fraction(1)}, f"ident({x})"


def test_kodaira_to_derham_uses_the_identification():
    ring = load_preset("kodaira")
    vec = ring.to_derham(2, [1, 2, 3, 4])
    assert vec == [Fraction(1), Fraction(2), Fraction(3), Fraction(4)]
    with pytest.raises(SchemaError):
        ring.to_derham(2, [1, 2, 3])


def test_kodaira_conj_matrix_shapes():
    ring = load_preset("kodaira")
    # (1,0) -> (0,1): one column, rows F1, F2
    assert ring.conj_matrix(1, 0) == [[Fraction(1)], [Fraction(0)]]
    # (1,1) -> (1,1): A -> -B, B -> -A
    assert ring.conj_matrix(1, 1) == [
        [Fraction(0), Fraction(-1)],
        [Fraction(-1), Fraction(0)],
    ]


def test_torus4_bidegrees_and_dims():
    ring = load_preset("torus4")
    assert ring.labels(1, 0) == ("e1", "e2")
    assert ring.labels(0, 1) == ("e3", "e4")
    assert ring.labels(2, 0) == ("e12",)
    assert ring.labels(1, 1) == ("e13", "e14", "e23", "e24")
    assert ring.labels(0, 2) == ("e34",)
    assert ring.labels(2, 2) == ("e1234",)
    assert [ring.dr_dim(k) for k in range(5)] == [1, 4, 6, 4, 1]


def test_torus4_wedge_signs():
    ring = load_preset("torus4")
    assert ring.cup("e1", "e2") == {"e12": Fraction(1)}
    assert ring.cup("e2", "e1") == {"e12": Fraction(-1)}
    assert ring.cup("e13", "e24") == {"e1234": Fraction(-1)}
    assert ring.cup("e1", "e1") == {}
    assert ring.cup("e12", "e34") == {"e1234": Fraction(1)}
    assert ring.dr_cup("e1", "e234") == {"e1234": Fraction(1)}
    assert ring.dr_cup("e2", "e134") == {"e1234": Fraction(-1)}


def test_torus4_conjugation_swaps_generator_pairs():
    ring = load_preset("torus4")
    assert ring.conj["e1"] == {"e3": Fraction(1)}
    assert ring.conj["e3"] == {"e1": Fraction(1)}
    assert ring.conj["e13"] == {"e13": Fraction(-1)}
    assert ring.conj["e14"] == {"e23": Fraction(-1)}
    # involution on the (1,1) block
    conj2 = {}
    for x in ring.labels(1, 1):
        acc = {}
        for mid, c in ring.conj[x].items():
            for z, d in ring.conj[mid].items():
                acc[z] = acc.get(z, Fraction(0)) + c * d
        conj2[x] = {z: v for z, v in acc.items() if v}
    assert conj2 == {x: {x: Fraction(1)} for x in ring.labels(1, 1)}


def test_torus4_identification_is_by_name():
    ring = load_preset("torus4")
    for label in ring._degree_of:
        assert ring.ident[label] == {label: Fraction(1)}


def test_k3_shape_and_products():
    ring = load_preset("k3")
    assert ring.labels(2, 0) == ("sg",)
    assert ring.labels(0, 2) == ("sgb",)
    assert ring.dim(1, 1) == 20
    assert ring.dim(1, 0) == 0 and ring.dim(0, 1) == 0
    assert [ring.dr_dim(k) for k in range(5)] == [1, 0, 22, 0, 1]
    assert ring.cup("sg", "sgb") == {"top": Fraction(1)}
    assert ring.cup("sgb", "sg") == {"top": Fraction(1)}
    assert ring.cup("sg", "sg") == {}
    assert ring.cup("w1", "w2") == {"top": Fraction(1)}
    assert ring.cup("w2", "w1") == {"top": Fraction(1)}
    assert ring.cup("w1", "w3") == {}
    assert ring.conj["sg"] == {"sgb": Fraction(1)}
    assert ring.conj["w7"] == {"w7": Fraction(1)}


def test_k3_intersection_pairing_is_nondegenerate():
    ring = load_preset("k3")
    labels = ring.degree_labels(2)
    assert len(labels) == 22
    matrix = [
        [ring.cup(x, y).get("top", Fraction(0)) for y in labels] for x in labels
    ]
    assert exact_rank(matrix) == 22


def test_ring_dict_round_trip():
    for name in PRESET_NAMES:
        ring = load_preset(name)
        clone = BigradedRing(ring_to_dict(ring))
        assert clone.basis == ring.basis
        assert clone.dr_basis == ring.dr_basis
        assert {k: v for k, v in clone.products.items() if v} == {
            k: v for k, v in ring.products.items() if v
        }
        assert {k: v for k, v in clone.dr_products.items() if v} == {
            k: v for k, v in ring.dr_products.items() if v
        }
        assert clone.conj == ring.conj
        assert clone.ident == ring.ident


def test_preset_generator_reproduces_committed_presets():
    builders = {
        "kodaira": kodaira_payload,
        "torus4": torus4_payload,
        "k3": k3_payload,
    }
    assert sorted(builders) == sorted(PRESET_NAMES)
    presets = resources.files("ellfib.cohomology").joinpath("presets")
    for name, build in builders.items():
        emitted = canonical_json(ring_to_dict(BigradedRing(build())))
        assert emitted == presets.joinpath(f"{name}.json").read_text(), name


def test_bigraded_ring_rejects_missing_sections():
    with pytest.raises(SchemaError):
        BigradedRing({"name": "x"})


@pytest.mark.parametrize(
    "section, value",
    [
        ("bigraded", [1, 2]),
        ("bigraded", {"0,0": "one"}),
        ("products", [1, 2]),
        ("products", {"f1": [1]}),
        ("products", {"f1": {"F1": 3}}),
        ("products", {"f1": {"F1": {"A": "x"}}}),
        ("conjugation", [1]),
        ("conjugation", {"f1": "F1"}),
        ("derham", [1]),
        ("derham", {"basis": [1], "products": {}}),
        ("derham", {"basis": {"0": ["one"]}, "products": 3}),
        ("ident", {"one": 5}),
        ("products", {"f1": {"F1": {"A": 0.1}}}),
        ("products", {"f1": {"F1": {"A": True}}}),
        ("conjugation", {"f1": {"F1": 1.0}}),
        ("ident", {"one": {"one": False}}),
        ("name", [1, 2]),
        ("bigraded", {"0,0": ["one"], "0,3": ["extra"]}),
    ],
)
def test_bigraded_ring_rejects_malformed_shapes(section, value):
    payload = ring_to_dict(load_preset("kodaira"))
    payload[section] = value
    with pytest.raises(SchemaError):
        BigradedRing(payload)


def test_bigraded_ring_rejects_out_of_range_bidegrees():
    # no basis beyond 0 <= p, q <= 2 is what makes the engine's d*d vanish
    payload = ring_to_dict(load_preset("kodaira"))
    payload["bigraded"]["0,3"] = ["extra"]
    with pytest.raises(SchemaError, match="out-of-range bidegrees"):
        BigradedRing(payload)


@pytest.mark.parametrize(
    "section, key, same",
    [("bigraded", "0, 0", "0,0"), ("basis", "+1", "1")],
    ids=["bigraded", "derham"],
)
def test_bigraded_ring_rejects_a_degree_given_twice(section, key, same):
    # int() reads " 0" and "+1" as 0 and 1; only the canonical spelling is a key
    payload = ring_to_dict(load_preset("kodaira"))
    bases = payload["bigraded"] if section == "bigraded" else payload["derham"]["basis"]
    bases[key] = list(bases[same])
    with pytest.raises(SchemaError, match="bad ring .*" + re.escape(f"{section} key {key!r}")):
        BigradedRing(payload)


@pytest.mark.parametrize(
    "section, key, canonical",
    [
        ("basis", "\u0663", "3"),
        ("bigraded", "01,1", "1,1"),
        ("basis", "0_1", "1"),
        ("basis", "1_0", "1"),
        ("basis", " 1", "1"),
        ("bigraded", (1, 1), "1,1"),
        ("basis", 3, "3"),
    ],
    ids=["arabic-indic-digit", "leading-zero", "underscore", "underscore-10", "space", "tuple",
         "int"],
)
def test_bigraded_ring_rejects_a_non_canonical_degree_key(section, key, canonical):
    # int() reads each string as a degree ("1_0" as 10), but none is that degree's spelling
    payload = ring_to_dict(load_preset("kodaira"))
    bases = payload["bigraded"] if section == "bigraded" else payload["derham"]["basis"]
    bases[key] = bases.pop(canonical)
    with pytest.raises(SchemaError, match="bad ring .*" + re.escape(f"{section} key {key!r}")):
        BigradedRing(payload)


DROP = object()


def kodaira_doc() -> dict:
    return json.loads(resources.files("ellfib.cohomology").joinpath("presets/kodaira.json").read_text())


def defect(id, path, value, message):
    return pytest.param(path, value, message, id=id)


# one defect each: the value put at path in the kodaira document (DROP deletes
# the key; the empty path replaces the document), and the reader's whole message
READER_DEFECTS = [
    defect("not-an-object", (), [], "ring payload missing section: "
           "list indices must be integers or slices, not str"),
    defect("missing-section", ("products",), DROP, "ring payload missing section: 'products'"),
    defect("missing-derham", ("derham",), DROP, "ring payload missing section: 'derham'"),
    defect("name-not-a-string", ("name",), 7, "ring name must be a string, got int"),
    defect("bigraded-not-an-object", ("bigraded",), ["one"],
           "ring bigraded must be an object, got list"),
    defect("products-not-an-object", ("products",), 3, "ring products must be an object, got int"),
    defect("product-row-not-an-object", ("products", "f1"), "F2",
           "ring products.f1 must be an object, got str"),
    defect("product-not-an-object", ("products", "f1", "F2"), ["A"],
           "ring products.f1.F2 must be an object, got list"),
    defect("conjugation-not-an-object", ("conjugation",), ["f1"],
           "ring conjugation must be an object, got list"),
    defect("conjugate-not-an-object", ("conjugation", "f1"), "F1",
           "ring conjugation.f1 must be an object, got str"),
    defect("derham-not-an-object", ("derham",), [], "ring derham must be an object, got list"),
    defect("derham-basis-not-an-object", ("derham", "basis"), [["one"]],
           "ring derham.basis must be an object, got list"),
    defect("derham-product-not-an-object", ("derham", "products", "m1", "m3"), None,
           "ring derham.products.m1.m3 must be an object, got NoneType"),
    defect("ident-not-an-object", ("ident",), "one", "ring ident must be an object, got str"),
    defect("ident-vector-not-an-object", ("ident", "one"), 5,
           "ring ident.one must be an object, got int"),
    defect("derham-without-basis", ("derham", "basis"), DROP,
           "ring derham needs both basis and products"),
    defect("derham-without-products", ("derham", "products"), DROP,
           "ring derham needs both basis and products"),
    defect("bigraded-key", ("bigraded", "01,1"), ["x"], "bad ring bigraded key '01,1'"),
    defect("bigraded-key-of-one-part", ("bigraded", "1"), ["x"], "bad ring bigraded key '1'"),
    defect("derham-key", ("derham", "basis", "+1"), ["x"], "bad ring derham.basis key '+1'"),
    defect("labels-not-a-list", ("bigraded", "1,1"), "A", "ring bigraded.1,1 must be a list, got str"),
    defect("derham-labels-not-a-list", ("derham", "basis", "2"), {"n1": 1},
           "ring derham.basis.2 must be a list, got dict"),
    defect("bidegree-out-of-range", ("bigraded", "0,3"), ["x"],
           "bigraded basis given at out-of-range bidegrees [(0, 3)]"),
    defect("negative-bidegree", ("bigraded", "-1,0"), ["x"],
           "bigraded basis given at out-of-range bidegrees [(-1, 0)]"),
    defect("degree-out-of-range", ("derham", "basis", "5"), ["x"],
           "de Rham basis given at out-of-range degrees [5]"),
    defect("bad-label", ("bigraded", "2,2"), ["T", 5], "bad bigraded label 5 at (2, 2)"),
    defect("empty-label", ("bigraded", "0,0"), ["one", ""], "bad bigraded label '' at (0, 0)"),
    defect("bad-derham-label", ("derham", "basis", "4"), ["v", ""], "bad de Rham label '' at 4"),
    defect("duplicate-label", ("bigraded", "2,2"), ["T", "A"], "duplicate bigraded label 'A'"),
    defect("duplicate-derham-label", ("derham", "basis", "4"), ["v", "m1"],
           "duplicate de Rham label 'm1'"),
    defect("unknown-product-label", ("products", "f1", "zz"), {"A": "1"},
           "bigraded product of ('f1', 'zz') references an unknown label"),
    defect("unknown-product-row", ("products", "zz"), {"f1": {"A": "1"}},
           "bigraded product of ('zz', 'f1') references an unknown label"),
    defect("unknown-derham-product-label", ("derham", "products", "m1", "zz"), {"n1": "1"},
           "de Rham product of ('m1', 'zz') references an unknown label"),
    defect("unknown-conjugation-label", ("conjugation", "zz"), {"f1": "1"},
           "conjugation of 'zz' references an unknown label"),
    defect("unknown-ident-label", ("ident", "zz"), {"m1": "1"},
           "identification of 'zz' references an unknown label"),
    defect("unknown-output-label", ("products", "f1", "F2"), {"zz": "1"},
           "bigraded product of ('f1', 'F2') must land in degree (1, 1), not at 'zz'"),
    defect("product-past-the-top", ("products", "T", "T"), {"T": "1"},
           "bigraded product of ('T', 'T') exceeds the top degree"),
    defect("product-past-the-square", ("products", "G1", "f1"), {"T": "1"},
           "bigraded product of ('G1', 'f1') exceeds the top degree"),
    defect("derham-product-past-the-top", ("derham", "products", "v", "v"), {"v": "1"},
           "de Rham product of ('v', 'v') exceeds the top degree"),
    defect("product-in-the-wrong-degree", ("products", "f1", "F2"), {"T": "1"},
           "bigraded product of ('f1', 'F2') must land in degree (1, 1), not at 'T'"),
    defect("derham-product-in-the-wrong-degree", ("derham", "products", "m1", "m3"), {"v": "1"},
           "de Rham product of ('m1', 'm3') must land in degree 2, not at 'v'"),
    defect("conjugate-in-the-wrong-degree", ("conjugation", "f1"), {"f1": "1"},
           "conjugation of 'f1' must land in degree (0, 1), not at 'f1'"),
    defect("ident-in-the-wrong-degree", ("ident", "f1"), {"n1": "1"},
           "identification of 'f1' must land in degree 1, not at 'n1'"),
    defect("float-coefficient", ("products", "f1", "F2"), {"A": 0.5},
           "bigraded product of ('f1', 'F2') coefficient at 'A' must be a string rational, got 0.5"),
    defect("bool-coefficient", ("ident", "one"), {"one": True},
           "identification of 'one' coefficient at 'one' must be a string rational, got True"),
    defect("exponent-coefficient", ("conjugation", "f1"), {"F1": "1e3"},
           "conjugation of 'f1' coefficient at 'F1': bad rational '1e3'"),
    defect("float-derham-coefficient", ("derham", "products", "m1", "m3"), {"n1": "1", "n2": 1.0},
           "de Rham product of ('m1', 'm3') coefficient at 'n2' must be a string rational, got 1.0"),
]


@pytest.mark.parametrize("path, value, message", READER_DEFECTS)
def test_each_reader_defect_has_its_message(path, value, message):
    doc = kodaira_doc()
    if not path:
        doc = value
    else:
        *parents, key = path
        at = doc
        for step in parents:
            at = at.setdefault(step, {})
        if value is DROP:
            del at[key]
        else:
            at[key] = value
    with pytest.raises(SchemaError) as info:
        BigradedRing(doc)
    assert str(info.value) == message


def test_validate_flags_broken_commutativity():
    ring = BigradedRing(
        {
            "name": "broken",
            "bigraded": {"0,0": ["one"], "1,0": ["x"], "0,1": ["y"], "1,1": ["t"], "2,2": ["top"]},
            "products": {
                "one": {"one": {"one": 1}, "x": {"x": 1}, "y": {"y": 1}, "t": {"t": 1},
                        "top": {"top": 1}},
                "x": {"one": {"x": 1}, "y": {"t": 1}},
                "y": {"one": {"y": 1}, "x": {"t": 1}},
                "t": {"one": {"t": 1}},
                "top": {"one": {"top": 1}},
            },
            "conjugation": {
                "one": {"one": 1}, "x": {"y": 1}, "y": {"x": 1}, "t": {"t": 1}, "top": {"top": 1}
            },
            "derham": {
                "basis": {"0": ["o"], "1": ["a", "b"], "2": ["c"], "4": ["z"]},
                "products": {
                    "o": {"o": {"o": 1}, "a": {"a": 1}, "b": {"b": 1}, "c": {"c": 1},
                          "z": {"z": 1}},
                    "a": {"o": {"a": 1}, "b": {"c": 1}},
                    "b": {"o": {"b": 1}, "a": {"c": -1}},
                    "c": {"o": {"c": 1}},
                    "z": {"o": {"z": 1}},
                },
            },
            "ident": {"one": {"o": 1}, "x": {"a": 1}, "y": {"b": 1}, "t": {"c": 1}, "top": {"z": 1}},
        }
    )
    report = ring_validate(ring)
    assert any("commutativity" in line for line in report)


# -- the sparse contraction against the dense loops it replaced ---------------


def dense_mult_matrix(ring, source, w_block, w_coeffs):
    p, q = source[0] + w_block[0], source[1] + w_block[1]
    if p > 2 or q > 2:
        return []
    matrix = []
    for out in ring.labels(p, q):
        row = []
        for x in ring.labels(*source):
            total = Fraction(0)
            for w_label, w_val in zip(ring.labels(*w_block), w_coeffs):
                total = total + w_val * ring.cup(x, w_label).get(out, Fraction(0))
            row.append(total)
        matrix.append(row)
    return matrix


def dense_dr_mult_matrix(ring, source_deg, w_vec, w_deg):
    if source_deg + w_deg > 4:
        return []
    return [
        [
            sum(
                (w_val * ring.dr_cup(x, w).get(out, Fraction(0))
                 for w, w_val in zip(ring.dr_basis[w_deg], w_vec)),
                Fraction(0),
            )
            for x in ring.dr_basis[source_deg]
        ]
        for out in ring.dr_basis[source_deg + w_deg]
    ]


def dense_to_derham(ring, k, coords):
    return [
        sum(
            (Fraction(v) * ring.ident[x].get(out, Fraction(0))
             for x, v in zip(ring.degree_labels(k), coords)),
            Fraction(0),
        )
        for out in ring.dr_basis[k]
    ]


def random_rationals(rng, n):
    # mostly sparse, as twisting classes are, with some dense draws
    pool = [0, 0, 0, 1, -1, 2, Fraction(2, 3), Fraction(-5, 7)]
    return [Fraction(rng.choice(pool)) for _ in range(n)]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_sparse_contraction_matches_dense_loops(name):
    ring = load_preset(name)
    rng = random.Random(name)
    for w_block in BIDEGREES:
        w = random_rationals(rng, ring.dim(*w_block))
        for source in BIDEGREES:
            assert ring.mult_matrix(source, w_block, w) == (
                dense_mult_matrix(ring, source, w_block, w)
            ), (source, w_block)
    for w_deg in range(5):
        w = random_rationals(rng, ring.dr_dim(w_deg))
        for source_deg in range(5):
            assert ring.dr_mult_matrix(source_deg, w, w_deg) == (
                dense_dr_mult_matrix(ring, source_deg, w, w_deg)
            ), (source_deg, w_deg)
    for k in range(5):
        coords = random_rationals(rng, len(ring.degree_labels(k)))
        assert ring.to_derham(k, coords) == dense_to_derham(ring, k, coords), k


# -- exact validation reports on small broken rings ---------------------------


def tiny_ring(products=(), conj=(), ident=(), basis=(), dr_basis=(), dr_products=()):
    """A valid ring with (1,1) = <a, b> and a*b = b*a = top; the arguments patch it.

    Bases are patched by degree and products by the pair (x, y); the ring
    is read from the JSON document these make.
    """
    basis = {(0, 0): ["one"], (1, 1): ["a", "b"], (2, 2): ["top"], **dict(basis)}
    dr_basis = {0: ["o"], 2: ["c", "d"], 4: ["z"], **dict(dr_basis)}

    def with_unit(unit, labels, table):
        out = {}
        for x in (x for xs in labels.values() for x in xs):
            out[unit, x] = out[x, unit] = {x: 1}
        nested = {}
        for (x, y), vec in {**out, **table}.items():
            nested.setdefault(x, {})[y] = vec
        return nested

    return BigradedRing(
        {
            "name": "tiny",
            "bigraded": {f"{p},{q}": labels for (p, q), labels in basis.items()},
            "products": with_unit(
                "one", basis, {("a", "b"): {"top": 1}, ("b", "a"): {"top": 1}, **dict(products)}
            ),
            "conjugation": {"one": {"one": 1}, "a": {"a": 1}, "b": {"b": 1}, "top": {"top": 1},
                            **dict(conj)},
            "derham": {
                "basis": {str(k): labels for k, labels in dr_basis.items()},
                "products": with_unit(
                    "o", dr_basis, {("c", "d"): {"z": 1}, ("d", "c"): {"z": 1}, **dict(dr_products)}
                ),
            },
            "ident": {"one": {"o": 1}, "a": {"c": 1}, "b": {"d": 1}, "top": {"z": 1},
                      **dict(ident)},
        }
    )


@pytest.mark.parametrize(
    "patch, lines",
    [
        ({}, ()),
        (
            {"products": {("b", "a"): {"top": 2}}},
            (
                "bigraded: commutativity fails on (a, b)",
                "bigraded: commutativity fails on (b, a)",
            ),
        ),
        (
            {"products": {("one", "one"): {"one": 2}}},
            tuple(
                f"bigraded: associativity fails on ({x}, {y}, {z})"
                for x, y, z in [
                    ("a", "one", "one"), ("b", "one", "one"), ("one", "one", "a"),
                    ("one", "one", "b"), ("one", "one", "top"), ("top", "one", "one"),
                ]
            ),
        ),
        (
            {
                "basis": {(2, 2): ["top", "top2"]},
                "conj": {"top2": {"top2": 1}},
                "dr_basis": {4: ["z", "z2"]},
                "ident": {"top2": {"z2": 1}},
            },
            (
                "bigraded: top bidegree (2,2) is not one-dimensional",
                "de Rham: top degree 4 is not one-dimensional",
            ),
        ),
        (
            {"conj": {"b": {"a": 1}}},
            (
                "conjugation rank at (1,1) is 1, expected 2",
                "conjugation at (1,1) is not inverted by (1,1)",
            ),
        ),
        (
            {"conj": {"a": {"a": 2}}},
            ("conjugation at (1,1) is not inverted by (1,1)",),
        ),
        (
            {"ident": {"b": {"c": 1}}},
            ("identification in degree 2 has rank 1, needs 2",),
        ),
        # fractional tables are checked at their scale: conj twice against scale**2
        ({"conj": {"a": {"b": 2}, "b": {"a": "1/2"}}}, ()),
        (
            {"conj": {"a": {"b": 2}, "b": {"a": 1}}},
            ("conjugation at (1,1) is not inverted by (1,1)",),
        ),
        (
            {"products": {("a", "b"): {"top": "1/2"}, ("b", "a"): {"top": "1/2"}}},
            (),
        ),
    ],
    ids=["valid", "commutativity", "associativity", "top", "conj-rank", "conj-inverse",
         "ident-rank", "fractional-conj", "fractional-conj-inverse", "fractional-products"],
)
def test_validate_reports_exact_lines(patch, lines):
    assert ring_validate(tiny_ring(**patch)) == lines


def test_scaled_tables_validate_and_round_trip():
    preset = resources.files("ellfib.cohomology").joinpath("presets/kodaira.json").read_text()
    doc = json.loads(preset)

    def scaled(vectors, c):
        return {x: {z: str(Fraction(v) * c) for z, v in vec.items()} for x, vec in vectors.items()}

    doc["products"] = {x: scaled(per, Fraction(3, 2)) for x, per in doc["products"].items()}
    doc["derham"]["products"] = {
        x: scaled(per, Fraction(1, 6)) for x, per in doc["derham"]["products"].items()
    }
    doc["ident"] = scaled(doc["ident"], Fraction(5, 4))
    ring = BigradedRing(doc)
    assert (ring.product_scale, ring.dr_product_scale, ring.conj_scale, ring.ident_scale) == (
        2, 6, 1, 4
    )
    assert ring_validate(ring) == ()
    text = canonical_json(ring_to_dict(ring))
    assert text == canonical_json(doc)
    assert canonical_json(ring_to_dict(BigradedRing(json.loads(text)))) == text


# -- the constructor reads coefficients by the one rational grammar ----------


@pytest.mark.parametrize("coeff", [0.5, True, "1e3"], ids=["float", "bool", "exponent"])
@pytest.mark.parametrize("table", ["products", "conj", "ident", "dr_products"])
def test_constructor_refuses_inexact_coefficients(table, coeff):
    where = {
        "products": {("a", "b"): {"top": coeff}},
        "conj": {"a": {"a": coeff}},
        "ident": {"a": {"c": coeff}},
        "dr_products": {("c", "d"): {"z": coeff}},
    }
    with pytest.raises(SchemaError, match="bad rational|must be a string rational"):
        tiny_ring(**{table: where[table]})
