import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from ainfbench import GF, QQ, ainf, hochschild
from ainfbench.ainf import AInfCategory, check_stasheff, validate_structure
from ainfbench.cli import main
from ainfbench.hochschild import (
    Bimodule,
    HigherProductsError,
    HochschildCochain,
    HochschildError,
    _deform,
    _verify_functor,
    coboundary_trivialization,
    deform_by_cocycle,
    diagonal_bimodule,
    hochschild_differential,
    square_zero_extension,
)
from ainfbench.linalg import GradedSpace
from ainfbench.scalars import FieldError
from ainfbench.specfile import parse_spec

from .corpus import (
    ASSOCIATIVE_CORPUS,
    LARGE_DENOMINATORS,
    beilinson_algebra,
    bimodule_direct_sum,
    dg_closure_example,
    dual_numbers,
    path_algebra_a3,
    random_associative_algebra,
    random_cochain,
    rescaled,
    toy_algebra,
    trivial_extension,
    truncated_polynomial,
    upper_triangular_2,
    upper_triangular_3,
    zero_bimodule,
)
from .oracles import naive_hochschild_differential

F = Fraction


def test_diagonal_bimodule_shape():
    c = dual_numbers()
    m = diagonal_bimodule(c)
    assert sum(sp.dim for sp in m.spaces.values()) == 2
    assert 2 in m.action


def test_square_zero_extension_zero_module():
    c = dual_numbers()
    ext = square_zero_extension(c, zero_bimodule(c), 0)
    assert ext.tables_equal(c)


def test_square_zero_extension_dual_numbers():
    c = dual_numbers()
    ext = square_zero_extension(c, diagonal_bimodule(c), 0)
    assert ext.total_dim() == 4
    assert validate_structure(ext).passed
    assert check_stasheff(ext).passed
    # products of two module elements vanish
    assert ext.apply_labels(2, ("M.e", "M.e")) == {}
    assert ext.apply_labels(2, ("M.1", "M.1")) == {}
    # mixed products agree with the module action
    assert ext.apply_labels(2, ("e", "M.1")) == {"M.e": F(1)}
    assert ext.apply_labels(2, ("M.1", "e")) == {"M.e": F(1)}


def test_square_zero_extension_shift_one():
    c = dual_numbers()
    ext = square_zero_extension(c, diagonal_bimodule(c), 1)
    space = ext.hom[(ext.objects[0],) * 2]
    assert sorted(space.degrees) == [-1, -1, 0, 0]
    assert validate_structure(ext).passed
    assert check_stasheff(ext).passed


def test_square_zero_extension_toy_higher_actions():
    c = toy_algebra()
    ext = square_zero_extension(c, diagonal_bimodule(c), 0)
    assert validate_structure(ext).passed
    assert check_stasheff(ext).passed


def test_direct_sum_dims_add():
    c = dual_numbers()
    m1 = diagonal_bimodule(c, prefix="A")
    m2 = diagonal_bimodule(c, prefix="B")
    both = bimodule_direct_sum(m1, m2)
    ext = square_zero_extension(c, both, 0)
    assert ext.total_dim() == c.total_dim() + sum(sp.dim for m in (m1, m2) for sp in m.spaces.values())
    assert check_stasheff(ext).passed


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_bimodule_values_are_exact_where_they_enter(field):
    # the extension takes the action as built, so the bimodule coerces it
    # where it enters: floats and bools raise here, zeros are dropped
    c = dual_numbers(field)
    spaces = {("*", "*"): GradedSpace(("N.1", "N.e"), (0, 0))}

    def action(v):
        return {2: {("e", "N.1"): {"N.e": v}, ("N.1", "e"): {"N.e": 1, "N.1": 0}}}

    for bad in (0.5, 1.0, True, False):
        with pytest.raises(FieldError):
            Bimodule(c, spaces, action(bad))
    m = Bimodule(c, spaces, action(3))
    assert m.action[2][("N.1", "e")] == {"N.e": field.one}
    assert all(type(v) is type(field.one) for t in m.action.values() for vec in t.values() for v in vec.values())
    if field == GF(3):  # 3 is zero in F_3: the entry is dropped
        assert ("e", "N.1") not in m.action[2]
    else:
        assert m.action[2][("e", "N.1")] == {"N.e": field.of_int(3)}
    assert not Bimodule(c, spaces, {2: {("e", "N.1"): {"N.e": 0}}}).action
    for p, key in ((3, ("e", "N.1")), (0, ()), ("2", ("e", "N.1"))):
        with pytest.raises(HochschildError):
            Bimodule(c, spaces, {p: {key: {"N.e": 1}}})


def _extension_cases(field):
    cats = [toy_algebra(field), dg_closure_example(field)[0], trivial_extension(3, 1, field),
            beilinson_algebra(2, field)]
    if field == QQ:
        cats += [make() for _, make in ASSOCIATIVE_CORPUS]
    return cats


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_trusted_extension_equals_the_constructed_one(field):
    # the extension and the deformation are built valid by construction; the
    # checking constructor gives the same tables from them.  The deformation
    # is built ungated, as deform_by_cocycle refuses toy's m_3 and the DG m_1
    rng = random.Random(3)
    for c in _extension_cases(field):
        for m in (diagonal_bimodule(c), bimodule_direct_sum(diagonal_bimodule(c), diagonal_bimodule(c, "N"))):
            for shift in (-1, 0, 1, 2):
                ext = square_zero_extension(c, m, shift)
                assert ext.tables_equal(AInfCategory(field, c.objects, ext.hom, c.units, ext.mult))
                assert all(table for table in ext.mult.values())
        m = diagonal_bimodule(c)
        for arity in (1, 2, 3):
            for eta in (HochschildCochain(c, m, arity, {}), random_cochain(rng, c, m, arity)):
                if eta is None or eta.internal_degree:
                    continue
                deformed = _deform(c, square_zero_extension(c, m, arity - 2), eta)
                assert deformed.tables_equal(AInfCategory(field, c.objects, deformed.hom, c.units, deformed.mult))
                assert all(table for table in deformed.mult.values())


def test_deform_drops_an_empty_top_table():
    # an empty arity-3 cochain on an associative base adds no m_3 table,
    # which would raise arity_bound and the relation sweep's bound
    c = dual_numbers()
    m = diagonal_bimodule(c)
    deformed, cocycle = deform_by_cocycle(c, m, HochschildCochain(c, m, 3, {}))
    assert cocycle and set(deformed.mult) == {2} and deformed.arity_bound == 2
    assert deformed.tables_equal(square_zero_extension(c, m, 1))


def test_deform_refuses_a_cochain_valued_outside_the_bimodule():
    c = dual_numbers()
    m, other = diagonal_bimodule(c), diagonal_bimodule(c, "N")
    with pytest.raises(HochschildError, match="outside the given bimodule"):
        deform_by_cocycle(c, m, HochschildCochain(c, other, 2, {("e", "e"): {"N.1": F(1)}}))
    same = diagonal_bimodule(c)  # an equal bimodule of its own is accepted
    eta = HochschildCochain(c, same, 2, {("e", "e"): {"M.1": F(1)}})
    assert deform_by_cocycle(c, m, eta)[0].tables_equal(deform_by_cocycle(c, same, eta)[0])


# ---------------------------------------------------------------------------
# the differential


def test_cochain_rejects_units():
    c = dual_numbers()
    m = diagonal_bimodule(c)
    with pytest.raises(HochschildError):
        HochschildCochain(c, m, 2, {("1", "e"): {"M.e": F(1)}})


def test_cochain_rejects_output_outside_the_module():
    # "X" is no module label: refused as a HochschildError, not a KeyError
    c = dual_numbers()
    m = diagonal_bimodule(c)
    for arity, key in ((1, ("e",)), (0, "*")):
        with pytest.raises(HochschildError, match="'X' is not a module label"):
            HochschildCochain(c, m, arity, {key: {"X": 1}})


def test_cochain_values_are_exact():
    toy = parse_spec(Path(__file__).parent.parent / "fixtures" / "toy.json").category
    m = diagonal_bimodule(toy)
    # the float used to stay in the table
    with pytest.raises(FieldError):
        HochschildCochain(toy, m, 1, {("e",): {"M.e": 0.5}})
    with pytest.raises(FieldError):
        HochschildCochain(toy, m, 1, {("e",): {"M.e": True}})
    # ints are reduced mod p, and a value that becomes zero is dropped
    c = dual_numbers(GF(3))
    phi = HochschildCochain(c, diagonal_bimodule(c), 1, {("e",): {"M.e": 4, "M.1": 3}})
    assert phi.table == {("e",): {"M.e": 1}}


def test_differential_arity0_commutator():
    # d(phi)(a) = a phi - phi a; on the upper triangular algebra with
    # phi = M.a this is a*a - a*a = 0 at a, but nonzero against x
    c = upper_triangular_2()
    m = diagonal_bimodule(c)
    phi = HochschildCochain(c, m, 0, {"*": {"M.a": F(1)}})
    d = hochschild_differential(phi)
    # d(phi)(x) = x*a - a*x = 0 - x = -M.x
    assert d.table.get(("x",)) == {"M.x": F(-1)}
    # d(phi)(a) = a*a - a*a = 0
    assert ("a",) not in d.table


def test_differential_arity1_frozen():
    # phi(e) = M.1 on the dual numbers: d(phi)(e,e) = e phi(e) - phi(e^2)
    # + phi(e) e = M.e + 0 + M.e = 2 M.e
    c = dual_numbers()
    m = diagonal_bimodule(c)
    phi = HochschildCochain(c, m, 1, {("e",): {"M.1": F(1)}})
    d = hochschild_differential(phi)
    assert d.table == {("e", "e"): {"M.e": F(2)}}


def test_differential_graded_toy_frozen():
    # phi(e) = M.1 on the toy algebra, where t has degree -1: the entry at
    # (t, e) carries the Koszul sign of the cochain passing t
    c = toy_algebra()
    m = diagonal_bimodule(c)
    phi = HochschildCochain(c, m, 1, {("e",): {"M.1": F(1)}})
    d = hochschild_differential(phi)
    assert d.table == {
        ("e", "e"): {"M.e": F(2)},
        ("e", "t"): {"M.t": F(1)},
        ("t", "e"): {"M.t": F(1)},
    }


@pytest.mark.parametrize("arity,table,expected", [
    # internal degree 1: the cochain passes y0 and y1 of degree -1 with a sign
    (1, {("y0",): {"M.1": F(1)}}, {
        ("y0", "x1"): {"M.x1": F(1)}, ("x1", "y0"): {"M.x1": F(1)},
        ("y0", "y1"): {"M.y1": F(1)}, ("y1", "y0"): {"M.y1": F(-1)},
    }),
    # internal degree 2
    (2, {("y0", "y0"): {"M.1": F(1)}}, {
        ("y0", "y0", "x1"): {"M.x1": F(-1)}, ("x1", "y0", "y0"): {"M.x1": F(1)},
        ("y0", "y0", "y1"): {"M.y1": F(-1)}, ("y1", "y0", "y0"): {"M.y1": F(1)},
    }),
    # internal degree 0
    (2, {("y0", "x1"): {"M.y0": F(1)}}, {
        ("x1", "y0", "x1"): {"M.y1": F(1)}, ("y0", "x1", "x1"): {"M.y1": F(-1)},
    }),
], ids=["odd", "even", "zero"])
def test_differential_graded_trivial_extension_frozen(arity, table, expected):
    # k[x]/x^2 ⋉ (k[x]/x^2)[1], where y0 and y1 have degree -1
    c = trivial_extension(2, 1)
    m = diagonal_bimodule(c)
    assert hochschild_differential(HochschildCochain(c, m, arity, table)).table == expected


def test_eta_epsilon_squared_is_cocycle():
    # the hand evaluation: (d eta)(e,e,e) = e eta(e,e) - eta(e^2,e)
    # + eta(e,e^2) - eta(e,e) e = M.e - 0 + 0 - M.e = 0
    c = dual_numbers()
    m = diagonal_bimodule(c)
    eta = HochschildCochain(c, m, 2, {("e", "e"): {"M.1": F(1)}})
    assert hochschild_differential(eta).is_zero()


def _graded_bases(field):
    """m_2-only bases, most with labels of odd degree."""
    return [trivial_extension(2, 1, field), trivial_extension(2, 2, field), trivial_extension(3, 1, field),
            dual_numbers(field), beilinson_algebra(2, field), path_algebra_a3(field)]


def _graded_cochain(rng, c, m, arity, internal_degree):
    """A random cochain of the given internal degree with values in
    ``m = diagonal_bimodule(c)``, or None when the draw is zero: each
    composable tuple of non-unit labels gets, with probability 0.3, an output
    on the labels of the right degree, with coefficients -1, 1 or 2."""
    labels = [lab for lab in c.all_labels() if not c.is_unit(lab)]
    table = {}
    for key in itertools.product(labels, repeat=arity):
        if not c.composable(key) or rng.random() >= 0.3:
            continue
        want = sum(map(c.deg, key)) + internal_degree
        out = {f"M.{lab}": c.field.of_int(rng.choice((-1, 1, 2)))
               for lab in c.basis(c.src(key[-1]), c.tgt(key[0])) if c.deg(lab) == want and rng.random() < 0.5}
        if out:
            table[key] = out
    return HochschildCochain(c, m, arity, table, internal_degree) if table else None


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_dd_zero_graded_cochains(field):
    # d o d = 0 for every internal degree -2..2, on bases with labels of odd
    # degree; the draws hit tuples with nonzero d(phi) in every degree
    rng = random.Random(17)
    nonzero = set()
    for c in _graded_bases(field):
        m = diagonal_bimodule(c)
        for arity, internal, _ in itertools.product((1, 2), range(-2, 3), range(3)):
            phi = _graded_cochain(rng, c, m, arity, internal)
            if phi is None:
                continue
            d = hochschild_differential(phi)
            assert hochschild_differential(d).is_zero(), (arity, internal, phi.table)
            if not d.is_zero():
                nonzero.add(internal)
    assert nonzero == set(range(-2, 3))


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_coboundary_trivialization_on_graded_bases(field):
    # id + phi kills the deformation by d(phi) for q = 1, 2, 3
    rng = random.Random(19)
    trivialized = set()
    for c in _graded_bases(field):
        m = diagonal_bimodule(c)
        for q in (1, 2, 3):
            phi = _graded_cochain(rng, c, m, q, 0)
            if phi is None or hochschild_differential(phi).is_zero():
                continue
            assert coboundary_trivialization(c, m, phi), (q, phi.table)
            trivialized.add(q)
    assert trivialized == {1, 2, 3}


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_dd_zero_random_cochains(field):
    rng = random.Random(8)
    for _ in range(12):
        c = random_associative_algebra(rng, field)
        m = diagonal_bimodule(c)
        obj = c.objects[0]
        labels = [l for l in c.all_labels() if not c.is_unit(l)]
        if not labels:
            continue
        arity = rng.choice([1, 2])
        table = {}
        import itertools

        for key in itertools.product(labels, repeat=arity):
            out = {}
            for lab in labels:
                v = rng.randint(-1, 1)
                if v:
                    out[f"M.{lab}"] = field.of_int(v)
            if out and rng.random() < 0.5:
                table[key] = out
        try:
            phi = HochschildCochain(c, m, arity, table)
        except HochschildError:
            continue  # mixed internal degrees from a random table
        d1 = hochschild_differential(phi)
        d2 = hochschild_differential(d1)
        assert d2.is_zero(), (arity, table)


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_differential_matches_classical_oracle(field):
    # criterion-7 draws; every other one in a random diagonal basis with
    # denominators 7, 11 and 13 and with cochain values of those denominators
    rng = random.Random(707)
    compared = trivialized = 0
    while compared < 40:
        c = random_associative_algebra(rng, field)
        values = ((-1, 1), (1, 1))
        if compared % 2:
            c = rescaled(c, rng, LARGE_DENOMINATORS)
            values = LARGE_DENOMINATORS
        m = diagonal_bimodule(c)
        phi = random_cochain(rng, c, m, rng.choice([1, 2, 3]), values)
        if phi is None:
            continue
        d = hochschild_differential(phi)
        assert d.table == naive_hochschild_differential(phi), phi.table
        if not d.is_zero():
            assert coboundary_trivialization(c, m, phi), phi.table
            trivialized += 1
        compared += 1
    assert trivialized >= 20


# ---------------------------------------------------------------------------
# deformations


def test_deform_zero_cochain_is_extension():
    c = dual_numbers()
    m = diagonal_bimodule(c)
    eta = HochschildCochain(c, m, 2, {})
    assert deform_by_cocycle(c, m, eta)[0].tables_equal(square_zero_extension(c, m, 0))


def test_deform_dual_numbers_by_epsilon_cocycle():
    c = dual_numbers()
    m = diagonal_bimodule(c)
    eta = HochschildCochain(c, m, 2, {("e", "e"): {"M.1": F(1)}})
    deformed, cocycle = deform_by_cocycle(c, m, eta)
    assert cocycle and deformed.apply_labels(2, ("e", "e")) == {"M.1": F(1)}
    assert validate_structure(deformed).passed
    assert check_stasheff(deformed).passed


def test_non_normalized_cochain_rejected_then_breaks():
    c = dual_numbers()
    m = diagonal_bimodule(c)
    with pytest.raises(HochschildError):
        HochschildCochain(c, m, 2, {("1", "e"): {"M.1": F(1)}})
    # the same table, unchecked: deform_by_cocycle has no normalization gate
    raw = HochschildCochain._trusted(c, m, 2, {("1", "e"): {"M.1": F(1)}}, 0)
    broken, _ = deform_by_cocycle(c, m, raw)
    ok = validate_structure(broken).passed and check_stasheff(broken).passed
    assert not ok


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_deform_iff_cocycle_randomized(field):
    rng = random.Random(13)
    tried = 0
    cocycles = 0
    for _ in range(60):
        c = random_associative_algebra(rng, field)
        m = diagonal_bimodule(c)
        labels = [l for l in c.all_labels() if not c.is_unit(l)]
        if not labels:
            continue
        arity = rng.choice([2, 3])
        import itertools

        table = {}
        for key in itertools.product(labels, repeat=arity):
            out = {}
            for lab in labels + [c.units[c.objects[0]]]:
                v = rng.randint(-1, 1)
                if v:
                    out[f"M.{lab}"] = field.of_int(v)
            if out and rng.random() < 0.4:
                table[key] = out
        try:
            eta = HochschildCochain(c, m, arity, table)
        except HochschildError:
            continue
        if eta.internal_degree != 0:
            continue
        tried += 1
        deformed, cocycle = deform_by_cocycle(c, m, eta)
        passes = check_stasheff(deformed).passed
        # the differential on its own extension, not the one deform_by_cocycle shares
        assert passes == cocycle == hochschild_differential(eta).is_zero(), (arity, table)
        cocycles += cocycle
    assert tried >= 30


def test_coboundaries_deform_trivially():
    rng = random.Random(21)
    done = 0
    for _ in range(30):
        c = random_associative_algebra(rng)
        m = diagonal_bimodule(c)
        labels = [l for l in c.all_labels() if not c.is_unit(l)]
        if not labels:
            continue
        arity = rng.choice([1, 2])
        import itertools

        table = {}
        for key in itertools.product(labels, repeat=arity):
            out = {}
            for lab in labels:
                v = rng.randint(-1, 1)
                if v:
                    out[f"M.{lab}"] = F(v)
            if out and rng.random() < 0.5:
                table[key] = out
        try:
            phi = HochschildCochain(c, m, arity, table)
        except HochschildError:
            continue
        if phi.internal_degree != 0 or phi.is_zero():
            continue
        eta = hochschild_differential(phi)
        assert hochschild_differential(eta).is_zero()
        deformed, cocycle = deform_by_cocycle(
            c, m, HochschildCochain(c, m, eta.arity, eta.table, internal_degree=0)
        )
        assert cocycle and check_stasheff(deformed).passed
        assert coboundary_trivialization(c, m, phi)
        done += 1
    assert done >= 10


@pytest.mark.parametrize(
    "make,q,table",
    [
        (dual_numbers, 1, {("e",): {"M.1": F(1)}}),
        (upper_triangular_2, 2, {("a", "x"): {"M.x": F(1)}}),
        (upper_triangular_3, 3, {("a1", "x", "y"): {"M.z": F(1)}}),
        (lambda: trivial_extension(2, 1), 1, {("y0",): {"M.y0": F(1)}}),
        (lambda: trivial_extension(2, 1), 2, {("y0", "x1"): {"M.y0": F(1)}}),
        (lambda: trivial_extension(3, 1), 3, {("x1", "y0", "x1"): {"M.y0": F(1)}}),
    ],
    ids=["q1", "q2", "q3", "graded-q1", "graded-q2", "graded-q3"],
)
def test_functor_check_rejects_wrong_multiple(make, q, table):
    # the deformation by d(phi) is killed by id + phi, from the deformed to
    # the plain extension, and by no other multiple of phi, since d(phi) != 0
    c = make()
    m = diagonal_bimodule(c)
    eta = hochschild_differential(HochschildCochain(c, m, q, table))
    assert not eta.is_zero()
    deformed, _ = deform_by_cocycle(c, m, HochschildCochain(c, m, eta.arity, eta.table, internal_degree=0))
    plain = square_zero_extension(c, m, q - 1)

    def functor(k):
        scaled = {key: {lab: k * v for lab, v in vec.items()} for key, vec in table.items()}
        return _verify_functor(deformed, plain, HochschildCochain(c, m, q, scaled))

    assert coboundary_trivialization(c, m, HochschildCochain(c, m, q, table))
    assert functor(1)
    assert not functor(-1)
    assert not functor(2)
    assert not functor(0)


def test_coboundary_trivialization_refuses_a_base_with_higher_products():
    # toy has m_3(e, e, e) = t, which the differential does not insert: the
    # functor check used to fail on most single-entry phi of toy.  The
    # refusal names the arity and key of the CLI's witness
    c = toy_algebra()
    m = diagonal_bimodule(c)
    for check, (q, key) in itertools.product((coboundary_trivialization, deform_by_cocycle),
                                             ((1, ("e",)), (2, ("e", "e")))):
        with pytest.raises(HigherProductsError, match="m_3") as err:
            check(c, m, HochschildCochain(c, m, q, {key: {"M.e": F(1)}}))
        assert (err.value.arity, err.value.key) == (3, ("e", "e", "e"))


def test_coboundary_trivialization_refuses_a_dg_base():
    # m_1(a) = b, which the differential does not insert either
    c, _ = dg_closure_example()
    m = diagonal_bimodule(c)
    for check, (q, key) in itertools.product((coboundary_trivialization, deform_by_cocycle),
                                             ((1, ("b",)), (2, ("b", "b")))):
        with pytest.raises(HigherProductsError, match="m_1") as err:
            check(c, m, HochschildCochain(c, m, q, {key: {"M.b": F(1)}}))
        assert (err.value.arity, err.value.key) == (1, ("a",))



def test_coboundary_trivialization_refuses_a_cochain_off_its_base_or_bimodule():
    # phi enters the deformation's tables unchecked, so its base and its
    # values are gated as deform_by_cocycle gates eta
    c = dual_numbers()
    m = diagonal_bimodule(c)
    phi = HochschildCochain(c, diagonal_bimodule(c, "N"), 1, {("e",): {"N.e": F(1)}})
    with pytest.raises(HochschildError, match="outside the given bimodule"):
        coboundary_trivialization(c, m, phi)
    x3 = truncated_polynomial(3)
    phi = HochschildCochain(x3, diagonal_bimodule(x3), 1, {("x1",): {"M.x1": F(1)}})
    with pytest.raises(HochschildError, match="not over the given category"):
        coboundary_trivialization(c, m, phi)
    same = diagonal_bimodule(c)  # an equal bimodule of its own is accepted
    assert coboundary_trivialization(c, m, HochschildCochain(c, same, 1, {("e",): {"M.e": F(1)}}))


def _count_inits(monkeypatch, *classes) -> list:
    """Record the class name of every ``__init__`` call of ``classes``."""
    made = []
    for cls in classes:
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            made.append(_name)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return made


def test_cochains_checked_where_they_enter_one_extension_per_deformation(tmp_path, capsys, monkeypatch):
    """``deform`` makes three categories (the parsed base, the one
    square-zero extension and its deformation) and checks its one cochain
    once;
    ``coboundary_trivialization`` makes three (the differential's extension,
    the plain extension and its deformation) and checks no cochain; the
    differential checks none."""
    cochain = tmp_path / "eta.json"
    cochain.write_text(json.dumps({"arity": 2, "table": [{"inputs": ["e", "e"], "output": {"1": "1"}}]}))
    made = _count_inits(monkeypatch, AInfCategory, HochschildCochain)
    base = Path(__file__).resolve().parent.parent / "fixtures" / "dual.json"
    assert main(["deform", str(base), "--cochain", str(cochain), "-o", str(tmp_path / "out.json")]) == 0
    capsys.readouterr()
    assert (made.count("AInfCategory"), made.count("HochschildCochain")) == (3, 1)

    for make, q, table in [
        (dual_numbers, 1, {("e",): {"M.1": F(1)}}),
        (upper_triangular_2, 2, {("a", "x"): {"M.x": F(1)}}),
    ]:
        c = make()
        m = diagonal_bimodule(c)
        phi = HochschildCochain(c, m, q, table)
        made.clear()
        assert coboundary_trivialization(c, m, phi)
        assert (made.count("AInfCategory"), made.count("HochschildCochain")) == (3, 0)
        made.clear()
        assert not hochschild_differential(phi).is_zero()
        assert made.count("HochschildCochain") == 0


def test_deform_builds_each_category_once(tmp_path, capsys, monkeypatch):
    """One ``deform`` verdict builds one square-zero extension, which the
    differential and the deformation share; the parsed base is the only
    category built by the checking constructor (the extension and the
    deformation are ``_trusted``), and the unit check runs once per
    category, in ``validate_structure``."""
    counts = {"extension": 0, "init": 0, "trusted": 0, "units": 0}
    extension, init, trusted, units = (square_zero_extension, AInfCategory.__init__,
                                       AInfCategory._trusted.__func__, ainf._unit_witnesses)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    base = Path(__file__).resolve().parent.parent / "fixtures" / "dual.json"
    argv = ["deform", str(base), "--cochain", str(base), "-o", str(tmp_path / "out.json")]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(hochschild, "square_zero_extension", counted("extension", extension))
    monkeypatch.setattr(AInfCategory, "__init__", counted("init", init))
    monkeypatch.setattr(AInfCategory, "_trusted", classmethod(counted("trusted", trusted)))
    monkeypatch.setattr(ainf, "_unit_witnesses", counted("units", units))
    assert main(argv) == 0
    out = capsys.readouterr().out
    monkeypatch.undo()
    assert counts["extension"] == 1
    assert counts["init"] - counts["trusted"] == 1 and counts["trusted"] == 2
    assert counts["units"] == 2
    mask = re.compile(r'"timings": \{[^}]*\}')
    assert mask.sub("", out) == mask.sub("", expected)
