import itertools
import random
from pathlib import Path
from fractions import Fraction

import pytest

from ainfbench import GF, QQ, ainf
from ainfbench.ainf import (
    AInfCategory,
    _insertion_sums,
    _units_certify,
    algebra,
    check_stasheff,
    validate_structure,
)
from ainfbench.auslander import build_auslander
from ainfbench.filtration import Filtration
from ainfbench.hochschild import (
    HochschildCochain,
    _deform,
    deform_by_cocycle,
    diagonal_bimodule,
    square_zero_extension,
)
from ainfbench.linalg import GradedSpace
from ainfbench.specfile import parse_spec
from ainfbench.scalars import FieldError

from .corpus import (
    ASSOCIATIVE_CORPUS,
    LARGE_DENOMINATORS,
    _subspace_from_labels,
    dual_numbers,
    full_subcategory,
    graded_non_ainf,
    nonassociative_example,
    opposite,
    path_algebra_a3,
    random_associative_algebra,
    rescaled,
    toy_algebra,
    truncated_polynomial,
    unital_m2,
    upper_triangular_2,
)
from .oracles import naive_stasheff_holds, naive_validate_structure

F = Fraction


def test_validate_dual_numbers():
    report = validate_structure(dual_numbers())
    assert report.passed
    assert report.check("minimality").passed


def test_validate_broken_unit_has_witness():
    # same algebra but with m_2(1, e) redefined to zero
    m2 = unital_m2(["1", "e"], "1", {})
    del m2[("1", "e")]
    broken = algebra(QQ, [("1", 0), ("e", 0)], "1", {2: m2})
    report = validate_structure(broken)
    assert not report.passed
    units = report.check("units")
    assert not units.passed
    assert {"arity": 2, "tuple": ["1", "e"], "reason": "m_2(1,f) != f"} in units.witnesses


def test_validate_toy():
    toy = toy_algebra()
    report = validate_structure(toy)
    assert report.passed
    assert report.check("minimality").passed
    assert toy.arity_bound == 3


def test_degree_violation_detected():
    # an arity-2 product landing in the wrong degree
    bad = algebra(
        QQ,
        [("1", 0), ("e", 0), ("t", -1)],
        "1",
        {2: unital_m2(["1", "e", "t"], "1", {("e", "e"): {"t": 1}})},
    )
    report = validate_structure(bad)
    assert not report.check("degrees").passed


def test_structure_constants_must_be_exact():
    def x_squared(field, c):
        m2 = {("1", "1"): {"1": 1}, ("1", "x"): {"x": 1}, ("x", "1"): {"x": 1}, ("x", "x"): {"x": c}}
        return algebra(field, [("1", 0), ("x", 0)], "1", {2: m2})

    # a float constant used to pass validate_structure and check_stasheff
    with pytest.raises(FieldError):
        x_squared(QQ, 0.5)
    with pytest.raises(FieldError):
        x_squared(QQ, True)
    exact = x_squared(QQ, 2).mult[2]
    assert all(isinstance(c, Fraction) for vec in exact.values() for c in vec.values())
    assert ("x", "x") not in x_squared(GF(3), 3).mult[2]  # 3 is zero in F_3
    assert x_squared(GF(3), 5).mult[2][("x", "x")] == {"x": 2}


@pytest.mark.parametrize("name,make", ASSOCIATIVE_CORPUS)
def test_stasheff_passes_associative_corpus(name, make):
    cat = make()
    assert validate_structure(cat).passed
    report = check_stasheff(cat)
    assert report.passed, report.to_json()


def test_stasheff_toy_all_arities():
    toy = toy_algebra()
    report = check_stasheff(toy)  # default bound 2*3 - 1 = 5
    assert report.passed
    assert report.check("stasheff_n5") is not None


def _wrong_hom_category():
    """f: a -> b, but m_2(e_a, e_a) = e_a + f has f in the wrong hom-space."""
    hom = {
        ("a", "a"): GradedSpace(("ea",), (0,)),
        ("b", "b"): GradedSpace(("eb",), (0,)),
        ("a", "b"): GradedSpace(("f",), (0,)),
    }
    m2 = {
        ("ea", "ea"): {"ea": F(1), "f": F(1)},
        ("eb", "eb"): {"eb": F(1)},
        ("f", "ea"): {"f": F(1)},
        ("eb", "f"): {"f": F(1)},
    }
    return AInfCategory(QQ, ("a", "b"), hom, {"a": "ea", "b": "eb"}, {2: m2})


def _non_cocycle_deformations(count, field=QQ):
    """Deformations of small random algebras by arity-2 non-cocycles."""
    rng = random.Random(707)
    found = []
    while len(found) < count:
        c = random_associative_algebra(rng, field)
        if c.total_dim() > 3:
            continue
        m = diagonal_bimodule(c)
        labels = [l for l in c.all_labels() if not c.is_unit(l)]
        table = {}
        for key in itertools.product(labels, repeat=2):
            out = {f"M.{l}": field.of_int(v) for l in c.all_labels() if (v := rng.randint(-1, 1))}
            if out and rng.random() < 0.5:
                table[key] = out
        deformed, cocycle = deform_by_cocycle(c, m, HochschildCochain(c, m, 2, table))
        if not cocycle:
            found.append(deformed)
    return found


def _graded_deformation():
    """The toy algebra (t in degree -1) deformed by the non-cocycle
    phi(e) = M.1, so that the Koszul sign of an m_1 insertion matters.
    ``deform_by_cocycle`` refuses toy's m_3, so it is built ungated."""
    c = toy_algebra()
    m = diagonal_bimodule(c)
    return _deform(c, square_zero_extension(c, m, -1), HochschildCochain(c, m, 1, {("e",): {"M.1": F(1)}}))


def _stasheff_witnesses(cat, n_max):
    return {
        (w["arity"], tuple(w["tuple"])): w["defect"]
        for check in check_stasheff(cat, n_max=n_max).checks
        for w in check.witnesses
    }


def _oracle_witnesses(cat, n_max):
    return {
        (n, labels): {lab: cat.field.unparse(v) for lab, v in defect.items()}
        for n, labels, defect in naive_stasheff_holds(cat, n_max)
    }


def test_stasheff_toy_matches_naive_oracle():
    cases = [
        (toy_algebra(), 5, False),
        (toy_algebra(GF(3)), 5, False),
        (nonassociative_example(), 3, True),
        (_wrong_hom_category(), 3, True),
        (_graded_deformation(), 3, True),
    ] + [(cat, 3, True) for cat in _non_cocycle_deformations(4)]
    for cat, n_max, fails in cases:
        witnesses = _stasheff_witnesses(cat, n_max)
        assert witnesses == _oracle_witnesses(cat, n_max)
        assert bool(witnesses) == fails


def _gamma_of_toy(field):
    """The quotient category of the toy algebra for the filtration of
    fixtures/toy.json, whose levels are spanned by basis vectors and so are
    defined over every field."""
    toy = toy_algebra(field)
    spans = (["1", "e", "t"], ["e", "t"], ["t"], ["t"], [])
    levels = [_subspace_from_labels(toy, labels) for labels in spans]
    return build_auslander(toy, Filtration(toy, levels)).gamma


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_stasheff_witnesses_match_oracle_randomized(field):
    # every input also in a random diagonal basis with denominators 7, 11
    # and 13, so that the common denominator D and D^2 get large over Q
    rng = random.Random(29)
    cases = [(toy_algebra(field), 5), (_gamma_of_toy(field), 4), (nonassociative_example(field), 3)]
    cases += [(random_associative_algebra(rng, field), 3) for _ in range(8)]
    cases += [(cat, 3) for cat in _non_cocycle_deformations(4, field)]
    failing = 0
    for cat, n_max in cases:
        for c in (cat, rescaled(cat, rng, LARGE_DENOMINATORS)):
            witnesses = _stasheff_witnesses(c, n_max)
            assert witnesses == _oracle_witnesses(c, n_max)
            failing += bool(witnesses)
    assert failing >= 10


def _misgraded(cat, rng):
    """``cat`` with the output of every entry whose key holds no unit moved
    to a random non-unit label, most often one of the wrong degree."""
    labels = [lab for lab in cat.all_labels() if not cat.is_unit(lab)]
    mult = {p: {key: vec if any(map(cat.is_unit, key)) else {rng.choice(labels): v for v in vec.values()}
                for key, vec in table.items()}
            for p, table in cat.mult.items()}
    return AInfCategory(cat.field, cat.objects, cat.hom, cat.units, mult)


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_stasheff_graded_witnesses_match_oracle(field):
    # labels of degree -1..2 and m_1..m_3: the sums of the bar convention,
    # turned back into the unshifted one, equal the oracle's value by value,
    # also when the outputs are moved to labels of the wrong degree
    rng = random.Random(41)
    for seed in (31, 32, 33):
        cat = graded_non_ainf(field, seed)
        misgraded = _misgraded(cat, rng)
        assert not validate_structure(misgraded).check("degrees").passed
        for c in (cat, misgraded, rescaled(cat, rng, LARGE_DENOMINATORS)):
            witnesses = _stasheff_witnesses(c, 4)
            assert witnesses and witnesses == _oracle_witnesses(c, 4)


def _non_composable_key_category():
    """f, g: a -> b with m_2(eb, eb) = eb + g, so g lands in a wrong
    hom-space, and m_2(g, f) = 2f on a non-composable key; unital otherwise."""
    hom = {
        ("a", "a"): GradedSpace(("ea",), (0,)),
        ("b", "b"): GradedSpace(("eb",), (0,)),
        ("a", "b"): GradedSpace(("f", "g"), (0, 0)),
    }
    m2 = {
        ("ea", "ea"): {"ea": F(1)},
        ("eb", "eb"): {"eb": F(1), "g": F(1)},
        ("f", "ea"): {"f": F(1)},
        ("g", "ea"): {"g": F(1)},
        ("eb", "f"): {"f": F(1)},
        ("eb", "g"): {"g": F(1)},
        ("g", "f"): {"f": F(2)},
    }
    return AInfCategory(QQ, ("a", "b"), hom, {"a": "ea", "b": "eb"}, {2: m2})


def test_stasheff_non_composable_key_stays_exact():
    # the witness at (eb, eb, f) comes only from the non-composable key
    # (g, f): dropping such keys before the sweep would lose it
    c = _non_composable_key_category()
    assert not validate_structure(c).check("composability").passed
    witnesses = _stasheff_witnesses(c, 3)
    assert witnesses == _oracle_witnesses(c, 3)
    assert witnesses == {(3, ("eb", "eb", "eb")): {"g": "-1"}, (3, ("eb", "eb", "f")): {"f": "2"}}


def test_insertion_sums_composable_tuples_only():
    # p: x -> y, q: y -> x.  An empty inner key at slot 1 of (p, ex, q)
    # joins p and q; at slot 1 of (p, ex, p) it would join p and p.  The
    # break of (p, p, ex) at its first pair lies away from slot 2.
    hom = {
        ("x", "x"): GradedSpace(("ex",), (0,)),
        ("y", "y"): GradedSpace(("ey",), (0,)),
        ("x", "y"): GradedSpace(("p",), (0,)),
        ("y", "x"): GradedSpace(("q",), (0,)),
    }
    # All labels have degree 0, so eps is 0, and with |J| = 1 a term's sign
    # is the prefix Koszul sign (-1)^(sum_{u<r} (|K_u| - 1)) = (-1)^r: the
    # empty J's term at slot 1 of (p, ex, q) is negative.
    c = AInfCategory(QQ, ("x", "y"), hom, {"x": "ex", "y": "ey"}, {})
    empty_inner = ({("p", "ex", "q"): {"p": F(1, 2)}, ("p", "ex", "p"): {"p": F(1)}},
                   {(): {"ex": F(1, 3)}}, 1, 1)
    far_break = ({("p", "p", "ex"): {"p": F(1)}}, {("ex", "ex"): {"ex": F(1)}}, 1, 1)
    singles = [({("q", "p"): {"ey": F(3, 4)}, ("p", "p"): {"p": F(1)}}, -1)]
    sums = _insertion_sums(c, [empty_inner, far_break], singles)
    assert sums == {("p", "q"): {"p": F(-1, 6)}, ("q", "p"): {"ey": F(-3, 4)}}


def _restricted(sums, skip):
    return {t: v for t, v in sums.items() if skip.isdisjoint(t)}


def test_insertion_sums_skip_empty_inner_and_singles():
    # the category of test_insertion_sums_composable_tuples_only, with units
    # in outer, inner and single keys: skipping a set of labels gives the
    # full sums restricted to the tuples that hold none of them
    hom = {
        ("x", "x"): GradedSpace(("ex",), (0,)),
        ("y", "y"): GradedSpace(("ey",), (0,)),
        ("x", "y"): GradedSpace(("p",), (0,)),
        ("y", "x"): GradedSpace(("q",), (0,)),
    }
    c = AInfCategory(QQ, ("x", "y"), hom, {"x": "ex", "y": "ey"}, {})
    outer = {("p", "ex", "q"): {"p": F(1, 2)}, ("ex", "q"): {"q": F(2)}, ("ey", "p"): {"p": F(1)},
             ("q", "ey"): {"q": F(1)}, ("ex", "ex"): {"ex": F(1)}}
    inner = {(): {"ex": F(1, 3), "ey": F(1, 5)}, ("q", "p"): {"ex": F(1)}, ("ex", "ex"): {"ex": F(1)},
             ("p", "q"): {"ey": F(1, 7)}}
    singles = [({("q", "p"): {"ey": F(3, 4)}, ("ex", "q"): {"q": F(1)}, ("ey", "p"): {"p": F(5)}},
                -1)]
    pairs = [(outer, inner, 1, 1)]
    full = _insertion_sums(c, pairs, singles)
    for skip in ({"ex"}, {"ey"}, {"ex", "ey"}):
        pruned = _insertion_sums(c, pairs, singles, skip=skip)
        assert pruned == _restricted(full, skip)
        assert pruned != full
    pruned = _insertion_sums(c, pairs, singles, skip={"ex"})
    # the empty and the nonempty inner key at the unit's own slot of (p, ex,
    # q), each past the prefix p with the sign (-1)^(|J| * (|p| - 1)) = -1
    assert pruned[("p", "q")] == {"p": F(-1, 6)}
    assert pruned[("p", "q", "p", "q")] == {"p": F(-1, 2)}
    # (ex, q) gets a single, (ex, ex, q) the inner key (ex, ex)
    assert {("ex", "q"), ("ex", "ex", "q")} <= set(full) - set(pruned)


def _x4_gamma(field):
    """The quotient category of k[x]/x^4 for its radical-power filtration,
    whose levels are spanned by basis vectors over every field."""
    x4 = truncated_polynomial(4, field)
    spans = (["1", "x1", "x2", "x3"], ["x1", "x2", "x3"], ["x2", "x3"], ["x3"], [])
    return build_auslander(x4, Filtration(x4, [_subspace_from_labels(x4, lab) for lab in spans])).gamma


def _relation_pairs(cat, n_max):
    """The insertions that check_stasheff sums: b{b} in the bar convention."""
    return [(cat.mult[p], cat.mult[s], 1, 1) for p in cat.mult for s in cat.mult if p + s - 1 <= n_max]


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_unit_tuples_skipped_on_strictly_unital_inputs(field):
    # the pruned sweep is the full one off the unit tuples, and on the unit
    # tuples the oracle finds no defect, which is what makes skipping them
    # sound; nonassoc and the deformation fail their relations elsewhere
    cases = [(toy_algebra(field), 5), (_gamma_of_toy(field), 4), (_x4_gamma(field), 3),
             (_non_cocycle_deformations(1, field)[0], 3), (nonassociative_example(field), 3)]
    for cat, n_max in cases:
        assert _units_certify(validate_structure(cat))
        units = set(cat.units.values())
        pairs = _relation_pairs(cat, n_max)
        full = _insertion_sums(cat, pairs)
        assert _insertion_sums(cat, pairs, skip=units) == _restricted(full, units)
        oracle = _oracle_witnesses(cat, n_max)
        assert all(units.isdisjoint(labels) for _, labels in oracle)
        assert _stasheff_witnesses(cat, n_max) == oracle


def _misplaced_output_category():
    """Strictly unital, but m_2(f, h) = h lies in hom(b, a), not hom(b, b)."""
    hom = {
        ("a", "a"): GradedSpace(("ea",), (0,)),
        ("b", "b"): GradedSpace(("eb",), (0,)),
        ("a", "b"): GradedSpace(("f",), (0,)),
        ("b", "a"): GradedSpace(("h",), (0,)),
    }
    m2 = unital_m2([], "ea", {}) | unital_m2([], "eb", {}) | {
        ("eb", "f"): {"f": F(1)}, ("f", "ea"): {"f": F(1)},
        ("ea", "h"): {"h": F(1)}, ("h", "eb"): {"h": F(1)},
        ("f", "h"): {"h": F(1)},
    }
    return AInfCategory(QQ, ("a", "b"), hom, {"a": "ea", "b": "eb"}, {2: m2})


def _not_strictly_unital(field):
    """Categories that break strict unitality one way each, with the check
    they fail, and one that is strictly unital but misplaces an output."""
    m2 = unital_m2(["1", "e"], "1", {("1", "e"): {"e": 2}}, field)
    yield algebra(field, [("1", 0), ("e", 0)], "1", {2: m2}), "units"
    toy = toy_algebra(field)
    m3 = {**toy.mult[3], ("1", "e", "e"): {"t": field.one}}
    yield algebra(field, [("1", 0), ("e", 0), ("t", -1)], "1", {2: toy.mult[2], 3: m3}), "units"
    yield algebra(field, [("1", 1), ("e", 0), ("t", -1)], "1", toy.mult), "units"
    if field == QQ:
        yield _misplaced_output_category(), "composability"


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_unit_tuples_swept_when_units_do_not_certify(field):
    for cat, failing in _not_strictly_unital(field):
        report = validate_structure(cat)
        assert not _units_certify(report)
        assert not report.check(failing).passed
        assert report.check("units").passed is (failing != "units")
        n_max = 2 * cat.arity_bound - 1
        oracle = _oracle_witnesses(cat, n_max)
        assert _stasheff_witnesses(cat, n_max) == oracle
        assert any(not set(cat.units.values()).isdisjoint(labels) for _, labels in oracle)


def test_check_stasheff_skips_units_only_when_they_certify(monkeypatch):
    skips = []
    sweep = ainf._insertion_sums
    monkeypatch.setattr(ainf, "_insertion_sums", lambda *args, skip: skips.append(skip) or sweep(*args, skip=skip))
    for cat, _ in _not_strictly_unital(QQ):
        check_stasheff(cat)
    assert skips == [frozenset()] * 4
    gamma = _gamma_of_toy(QQ)
    check_stasheff(gamma)
    assert skips[-1] == set(gamma.units.values())


def _scrambled_failures(rng):
    """A two-object category whose tables fail the degree and composability
    checks at several outputs of one key, and the units check on an arity-3
    key, with its keys and outputs entered in a random order."""
    hom = {
        ("a", "a"): GradedSpace(("ea",), (0,)),
        ("b", "b"): GradedSpace(("eb",), (0,)),
        ("a", "b"): GradedSpace(("f", "g"), (0, 1)),
        ("b", "a"): GradedSpace(("h",), (0,)),
    }
    entries = [
        (2, ("ea", "ea"), {"ea": 1}), (2, ("eb", "eb"), {"eb": 1}),
        (2, ("f", "ea"), {"f": 1, "g": 1, "h": 1}),  # g: degree 1; h: hom(b, a)
        (2, ("eb", "f"), {"h": 1, "ea": 2, "g": 1, "f": 1}),  # h, ea: wrong hom-space; g: degree
        (2, ("g", "ea"), {"g": 1}), (2, ("eb", "g"), {"g": 1}),
        (2, ("ea", "h"), {"h": 1}), (2, ("h", "eb"), {"h": 1}),
        (2, ("f", "f"), {"f": 3}), (2, ("g", "f"), {"h": 1}),  # not composable
        (2, ("h", "f"), {"ea": 1, "eb": 1}),  # eb: wrong hom-space
        (3, ("ea", "ea", "ea"), {"ea": 1}),  # a unit in an arity-3 key, degree 0 not -1
        (3, ("h", "f", "h"), {"h": 1, "f": 1}),  # f: wrong hom-space; h: degree
        (1, ("g",), {"f": 1, "g": 1}),  # f, g: degree 0 and 1, not 2
    ]
    rng.shuffle(entries)
    mult: dict = {}
    for p, key, vec in entries:
        items = list(vec.items())
        rng.shuffle(items)
        mult.setdefault(p, {})[key] = dict(items)
    return AInfCategory(QQ, ("a", "b"), hom, {"a": "ea", "b": "eb"}, mult)


def _structure_cases(field):
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    cats = [parse_spec(str(path)).category for path in sorted(fixtures.glob("*.json"))] if field == QQ else []
    cats += [toy_algebra(field), _gamma_of_toy(field), _x4_gamma(field), nonassociative_example(field)]
    cats += _non_cocycle_deformations(3, field) + [cat for cat, _ in _not_strictly_unital(field)]
    if field == QQ:
        cats += [_wrong_hom_category(), _non_composable_key_category(), _graded_deformation()]
    return cats


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_validate_structure_matches_sorted_walk(field):
    # one walk in stored order, witnesses sorted afterwards: the report of a
    # walk over sorted tables and sorted outputs, on passing and failing inputs
    cats = _structure_cases(field)
    if field == QQ:
        rng = random.Random(5)
        cats += [_scrambled_failures(rng) for _ in range(6)]
    failing = 0
    for cat in cats:
        report = validate_structure(cat)
        assert report.to_json() == naive_validate_structure(cat).to_json()
        failing += not report.passed
    assert failing >= (9 if field == QQ else 3)


def test_scrambled_failures_list_every_witness_in_report_order():
    report = validate_structure(_scrambled_failures(random.Random(1)))
    assert [(w["arity"], w["tuple"], w["reason"]) for w in report.check("composability").witnesses] == [
        (2, ["eb", "f"], "output ea in wrong hom-space"),
        (2, ["eb", "f"], "output h in wrong hom-space"),
        (2, ["f", "ea"], "output h in wrong hom-space"),
        (2, ["f", "f"], "inputs not composable"),
        (2, ["g", "f"], "inputs not composable"),
        (2, ["h", "f"], "output eb in wrong hom-space"),
        (3, ["h", "f", "h"], "output f in wrong hom-space"),
    ]
    assert [(w["arity"], w["tuple"], w["reason"]) for w in report.check("degrees").witnesses] == [
        (1, ["g"], "output f has degree 0, expected 2"),
        (1, ["g"], "output g has degree 1, expected 2"),
        (2, ["eb", "f"], "output g has degree 1, expected 0"),
        (2, ["f", "ea"], "output g has degree 1, expected 0"),
        (3, ["ea", "ea", "ea"], "output ea has degree 0, expected -1"),
        (3, ["h", "f", "h"], "output h has degree 0, expected -1"),
    ]
    assert report.check("units").witnesses[-1] == {
        "arity": 3, "tuple": ["ea", "ea", "ea"], "reason": "higher product nonzero on a unit"}


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_check_stasheff_reads_the_unit_verdict_from_the_structure_report(field, monkeypatch):
    # the caller's structure report gives the same relation report, with no
    # second unit pass; without one, check_stasheff builds the report itself
    cats = _structure_cases(field)
    passes = []
    walk = ainf._unit_witnesses
    monkeypatch.setattr(ainf, "_unit_witnesses", lambda c: passes.append(1) or walk(c))
    for cat in cats:
        n_max = min(2 * cat.arity_bound - 1, 4)
        structure = validate_structure(cat)
        passes.clear()
        given = check_stasheff(cat, n_max, structure)
        assert not passes
        assert given.to_json() == check_stasheff(cat, n_max).to_json()
        assert passes == [1]



@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_check_stasheff_ignores_a_structure_report_of_another_category(field):
    # a passing report of toy must not let the sweep skip the unit tuples
    # of a category that is not strictly unital
    foreign = validate_structure(toy_algebra(field))
    assert foreign.passed and foreign.category is not None
    assert _units_certify(foreign)
    for cat, _ in _not_strictly_unital(field):
        assert not _units_certify(validate_structure(cat))
        n_max = 2 * cat.arity_bound - 1
        assert check_stasheff(cat, n_max, foreign).to_json() == check_stasheff(cat, n_max).to_json()


def test_stasheff_nonassociative_witness():
    bad = nonassociative_example()
    report = check_stasheff(bad, n_max=3)
    assert not report.passed
    n3 = report.check("stasheff_n3")
    assert not n3.passed
    tuples = [tuple(w["tuple"]) for w in n3.witnesses]
    assert ("x", "x", "x") in tuples
    # oracle agrees on the witness
    failures = naive_stasheff_holds(bad, 3)
    assert any(labels == ("x", "x", "x") for _, labels, _ in failures)


def test_opposite_commutative_algebra_fixed():
    alg = dual_numbers()
    assert opposite(alg).tables_equal(alg)


def test_opposite_involution_bit_exact():
    for make in (toy_algebra, path_algebra_a3, upper_triangular_2):
        cat = make()
        assert opposite(opposite(cat)).tables_equal(cat)


def test_opposite_transposes_hom_dims():
    # upper-triangular 2x2 matrices as the path category of v1 -> v2
    hom = {
        ("v1", "v1"): GradedSpace(("e1",), (0,)),
        ("v2", "v2"): GradedSpace(("e2",), (0,)),
        ("v1", "v2"): GradedSpace(("a",), (0,)),
    }
    m2 = {
        ("e1", "e1"): {"e1": F(1)},
        ("e2", "e2"): {"e2": F(1)},
        ("e2", "a"): {"a": F(1)},
        ("a", "e1"): {"a": F(1)},
    }
    cat = AInfCategory(QQ, ("v1", "v2"), hom, {"v1": "e1", "v2": "e2"}, {2: m2})
    op = opposite(cat)
    assert op.hom[("v2", "v1")].dim == 1
    assert op.hom[("v1", "v2")].dim == 0
    assert check_stasheff(op).passed


def test_opposite_preserves_stasheff_on_toy():
    assert check_stasheff(opposite(toy_algebra())).passed


def test_opposite_preserves_stasheff_on_quotient_category():
    # a multi-object category with odd degrees and genuinely asymmetric
    # tables: the quotient category of the filtered three-dimensional algebra
    from ainfbench.auslander import build_auslander
    from ainfbench.filtration import appendix_filtration

    toy = toy_algebra()
    filt, _ = appendix_filtration(toy, kappa=1)
    gamma = build_auslander(toy, filt).gamma
    op = opposite(gamma)
    assert not op.tables_equal(gamma)
    assert validate_structure(op).passed
    assert check_stasheff(op).passed
    assert opposite(op).tables_equal(gamma)


def test_opposite_preserves_stasheff_on_shifted_extension():
    # odd-degree module part: shift 1 puts the square-zero copy in degree -1
    from ainfbench.hochschild import diagonal_bimodule, square_zero_extension

    ext = square_zero_extension(dual_numbers(), diagonal_bimodule(dual_numbers()), 1)
    op = opposite(ext)
    assert check_stasheff(op).passed
    assert opposite(op).tables_equal(ext)


def test_full_subcategory_restrictions():
    cat = path_algebra_a3()
    sub = full_subcategory(cat, ("v1",))
    assert sub.objects == ("v1",)
    assert sub.total_dim() == 1
    same = full_subcategory(cat, cat.objects)
    assert same.tables_equal(cat)
    with pytest.raises(Exception):
        full_subcategory(cat, ("nope",))


def test_full_subcategory_direct_factor():
    hom = {
        ("u", "u"): GradedSpace(("eu",), (0,)),
        ("v", "v"): GradedSpace(("ev",), (0,)),
    }
    m2 = {("eu", "eu"): {"eu": F(1)}, ("ev", "ev"): {"ev": F(1)}}
    cat = AInfCategory(QQ, ("u", "v"), hom, {"u": "eu", "v": "ev"}, {2: m2})
    sub = full_subcategory(cat, ("u",))
    assert sub.total_dim() == 1
    assert check_stasheff(sub).passed


def test_unit_normalization_invariant():
    toy = toy_algebra()
    for p, table in toy.mult.items():
        if p == 2:
            continue
        for key in table:
            assert not any(toy.is_unit(lab) for lab in key)
