import random
from fractions import Fraction
from pathlib import Path

import pytest

from ainfbench import GF, QQ, check_stasheff, validate_structure
from ainfbench.hochschild import (
    HochschildCochain,
    HochschildError,
    _deform,
    _verify_functor,
    bimodule_direct_sum,
    coboundary_trivialization,
    deform_by_cocycle,
    diagonal_bimodule,
    hochschild_differential,
    is_cocycle,
    square_zero_extension,
    zero_bimodule,
)
from ainfbench.scalars import FieldError
from ainfbench.specfile import parse_spec

from .corpus import (
    dual_numbers,
    random_associative_algebra,
    toy_algebra,
    upper_triangular_2,
)

F = Fraction


def test_diagonal_bimodule_shape():
    c = dual_numbers()
    m = diagonal_bimodule(c)
    assert m.total_dim() == 2
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
    assert ext.total_dim() == c.total_dim() + m1.total_dim() + m2.total_dim()
    assert check_stasheff(ext).passed


# ---------------------------------------------------------------------------
# the differential


def test_cochain_rejects_units():
    c = dual_numbers()
    m = diagonal_bimodule(c)
    with pytest.raises(HochschildError):
        HochschildCochain(c, m, 2, {("1", "e"): {"M.e": F(1)}})


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


def test_eta_epsilon_squared_is_cocycle():
    # the hand evaluation: (d eta)(e,e,e) = e eta(e,e) - eta(e^2,e)
    # + eta(e,e^2) - eta(e,e) e = M.e - 0 + 0 - M.e = 0
    c = dual_numbers()
    m = diagonal_bimodule(c)
    eta = HochschildCochain(c, m, 2, {("e", "e"): {"M.1": F(1)}})
    assert is_cocycle(eta)


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


# ---------------------------------------------------------------------------
# deformations


def test_deform_zero_cochain_is_extension():
    c = dual_numbers()
    m = diagonal_bimodule(c)
    eta = HochschildCochain(c, m, 2, {})
    assert deform_by_cocycle(c, m, eta).tables_equal(square_zero_extension(c, m, 0))


def test_deform_dual_numbers_by_epsilon_cocycle():
    c = dual_numbers()
    m = diagonal_bimodule(c)
    eta = HochschildCochain(c, m, 2, {("e", "e"): {"M.1": F(1)}})
    deformed = deform_by_cocycle(c, m, eta)
    assert deformed.apply_labels(2, ("e", "e")) == {"M.1": F(1)}
    assert validate_structure(deformed).passed
    assert check_stasheff(deformed).passed


def test_non_normalized_cochain_rejected_then_breaks():
    c = dual_numbers()
    m = diagonal_bimodule(c)
    with pytest.raises(HochschildError):
        HochschildCochain(c, m, 2, {("1", "e"): {"M.1": F(1)}})
    raw = HochschildCochain(
        c, m, 2, {("1", "e"): {"M.1": F(1)}}, enforce_normalized=False
    )
    broken = _deform(c, m, raw)
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
        deformed = deform_by_cocycle(c, m, eta)
        passes = check_stasheff(deformed).passed
        cocycle = is_cocycle(eta)
        assert passes == cocycle, (arity, table)
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
        assert is_cocycle(eta)
        deformed = deform_by_cocycle(
            c, m, HochschildCochain(c, m, eta.arity, eta.table, internal_degree=0)
        )
        assert check_stasheff(deformed).passed
        assert coboundary_trivialization(c, m, phi)
        done += 1
    assert done >= 10


@pytest.mark.parametrize(
    "make,q,table",
    [
        (dual_numbers, 1, {("e",): {"M.1": F(1)}}),
        (upper_triangular_2, 2, {("a", "x"): {"M.x": F(1)}}),
    ],
    ids=["q1", "q2"],
)
def test_functor_check_rejects_wrong_multiple(make, q, table):
    # the deformation by d(phi) is killed by id + (-1)^(q+1) phi and by
    # no other multiple of phi, since d(phi) != 0
    c = make()
    m = diagonal_bimodule(c)
    eta = hochschild_differential(HochschildCochain(c, m, q, table))
    assert not eta.is_zero()
    deformed = deform_by_cocycle(c, m, HochschildCochain(c, m, eta.arity, eta.table, internal_degree=0))
    plain = square_zero_extension(c, m, q - 1)

    def functor(k):
        scaled = {key: {lab: k * v for lab, v in vec.items()} for key, vec in table.items()}
        return _verify_functor(deformed, plain, HochschildCochain(c, m, q, scaled), q)

    sign = (-1) ** (q + 1)
    assert coboundary_trivialization(c, m, HochschildCochain(c, m, q, table))
    assert functor(sign)
    assert not functor(-sign)
    assert not functor(2)
    assert not functor(0)
