import random
from fractions import Fraction
from pathlib import Path

import pytest

from ainfbench import QQ
from ainfbench.scalars import FieldError
from ainfbench.specfile import parse_spec
from ainfbench.auslander import build_auslander
from ainfbench.filtration import (
    Filtration,
    appendix_filtration,
    check_filtration,
    degree_filtration,
    full_subspace,
    zero_subspace,
)
from ainfbench.linalg import complex_cohomology
from ainfbench.perfmod import (
    ModuleError,
    TwistedComplex,
    cone,
    empty_complex,
    evaluate_at,
    hom_complex,
    identity_morphism,
    is_closed,
    maurer_cartan_defect,
    mu1,
    mu2,
    psi,
    representable,
    sod_report,
    zero_morphism,
)

from .corpus import dual_numbers, random_filtered_algebra, toy_algebra

F = Fraction
TOY = Path(__file__).parent.parent / "fixtures" / "toy.json"


@pytest.fixture(scope="module")
def toy_aus():
    toy = toy_algebra()
    filt, _ = appendix_filtration(toy, kappa=1)
    return build_auslander(toy, filt)


@pytest.fixture(scope="module")
def toy_deg_aus():
    toy = toy_algebra()
    return build_auslander(toy, degree_filtration(toy))


def cohom_dims(fc):
    return complex_cohomology(fc).dims()


# ---------------------------------------------------------------------------
# representables and evaluation


def test_representable_evaluations(toy_aus):
    # evaluate_at(P_i, j) is hom(i -> j) with zero differential
    p0 = representable(toy_aus, 0)
    c = evaluate_at(p0, 0)
    assert sum(len(v) for v in c.components.values()) == 3
    assert not c.diff
    # P_1 evaluated at 3 is hom(1 -> 3) = R/F^1, one-dimensional in degree 0
    p1 = representable(toy_aus, 1)
    c13 = evaluate_at(p1, 3)
    assert c13.dims() == {0: 1}


def test_representable_out_of_range(toy_aus):
    with pytest.raises(ModuleError):
        representable(toy_aus, 7)


def test_shifted_representable(toy_aus):
    p0 = representable(toy_aus, 0).shift(1)
    c = evaluate_at(p0, 0)
    # hom(0 -> 0) has dims {0: 2, -1: 1}; the shift moves them down by one
    assert c.dims() == {-1: 2, -2: 1}


def test_twisted_complex_connection_is_exact():
    toy = parse_spec(TOY).category
    entries = [("*", 0), ("*", 1)]
    # the float used to stay in conn
    with pytest.raises(FieldError):
        TwistedComplex(toy, entries, {(0, 1): {"e": 0.5}})
    with pytest.raises(FieldError):
        TwistedComplex(toy, entries, {(0, 1): {"e": True}})
    conn = TwistedComplex(toy, entries, {(0, 1): {"e": 2, "1": 0}}).conn
    assert conn == {(0, 1): {"e": F(2)}} and isinstance(conn[(0, 1)]["e"], Fraction)


# ---------------------------------------------------------------------------
# psi and cones


def test_psi_closed_degree_zero(toy_aus):
    for i in range(toy_aus.n - 1):
        f = psi(toy_aus, i)
        assert f.degree == 0
        assert is_closed(f)
        (t, s), elem = next(iter(f.comps.items()))
        assert (t, s) == (0, 0)
        # carried by the class of the unit in hom(i -> i+1) = F^0/F^{n-i-1}
        q = toy_aus.quotients[(i, i + 1)]
        assert len(elem) >= 1


def test_psi_composition_is_unit_class(toy_aus):
    # composing psi_i after psi_{i+1} gives the class of 1 in hom(i -> i+2)
    for i in range(toy_aus.n - 2):
        comp = mu2(psi(toy_aus, i), psi(toy_aus, i + 1))
        r = toy_aus.base
        obj = r.objects[0]
        unit_vec = r.element_to_coords(r.unit_vector(obj), obj, obj)
        q = toy_aus.quotients[(i, i + 2)]
        expected = toy_aus.gamma.coords_to_element(q.project_strict(unit_vec), i, i + 2)
        assert comp.comps == {(0, 0): expected}


def test_cone_requires_closed_degree_zero(toy_aus):
    p1 = representable(toy_aus, 1)
    p0 = representable(toy_aus, 0)
    bad = zero_morphism(p1, p0, degree=1)
    with pytest.raises(ModuleError):
        cone(bad)


def test_cone_of_zero_from_empty_is_identity(toy_aus):
    p = representable(toy_aus, toy_aus.n - 1)
    s = cone(zero_morphism(empty_complex(toy_aus.gamma), p))
    assert s.entries == p.entries
    assert s.conn == p.conn


def test_cone_shape_and_mc(toy_aus):
    s0 = cone(psi(toy_aus, 0))
    assert s0.entries == ((0, 0), (1, 1))
    assert not maurer_cartan_defect(s0)


def test_cone_values_toy(toy_aus):
    s0 = cone(psi(toy_aus, 0))
    # at object 0: cone of F^1 -> R, one class in degree 0
    assert cohom_dims(evaluate_at(s0, 0)) == {0: 1}
    # at object 1: both terms R/F^3 (dim 2), the induced map injective, acyclic
    c1 = evaluate_at(s0, 1)
    assert c1.dims() == {0: 2, -1: 2}
    assert cohom_dims(c1) == {}


def test_cone_values_follow_level_quotients(toy_aus):
    # H^*(S_i(j)) = F^{i-j}/F^{i-j+1} for j <= i and 0 for j > i
    filt = toy_aus.filtration
    n = toy_aus.n
    for i in range(n):
        if i < n - 1:
            s = cone(psi(toy_aus, i))
        else:
            s = cone(zero_morphism(empty_complex(toy_aus.gamma), representable(toy_aus, i)))
        for j in range(n):
            dims = cohom_dims(evaluate_at(s, j))
            if j > i:
                assert dims == {}
            else:
                num = filt.level(i - j)
                den = filt.level(i - j + 1)
                expected: dict = {}
                nd, dd = num.degree_dims(), den.degree_dims()
                for d in set(nd) | set(dd):
                    v = nd.get(d, 0) - dd.get(d, 0)
                    if v:
                        expected[d] = v
                assert dims == expected, (i, j, dims, expected)


# ---------------------------------------------------------------------------
# differentials square to zero; identities are closed


def test_identity_morphism_closed_on_cones(toy_aus):
    for i in range(toy_aus.n - 1):
        s = cone(psi(toy_aus, i))
        assert mu1(identity_morphism(s)).is_zero()


def test_hom_complex_dd_zero_everywhere(toy_aus):
    # constructing a HomComplexResult validates d o d = 0 internally
    n = toy_aus.n
    objs = [representable(toy_aus, i) for i in range(n)]
    ss = [cone(psi(toy_aus, i)) for i in range(n - 1)]
    for x in objs + ss:
        for y in objs + ss:
            hom_complex(x, y)


def test_mu1_squares_to_zero_random_morphisms(toy_aus):
    rng = random.Random(99)
    s0 = cone(psi(toy_aus, 0))
    s1 = cone(psi(toy_aus, 1))
    h = hom_complex(s0, s1)
    for d, keys in h.basis_by_degree.items():
        for _ in range(3):
            coords = tuple(F(rng.randint(-2, 2)) for _ in keys)
            f = h.morphism_from_coords(d, coords)
            assert mu1(mu1(f)).is_zero()


# ---------------------------------------------------------------------------
# iterated cones with shifts (hard sign territory)


def closed_degree0_morphisms(h):
    """All closed degree-0 basis combinations of a hom-complex."""
    out = []
    z = h.complex.differential(0)
    from ainfbench.linalg import nullspace

    dim0 = len(h.basis_by_degree.get(0, ()))
    if dim0 == 0:
        return out
    for v in nullspace(h.source.cat.field, z, dim0):
        out.append(h.morphism_from_coords(0, v))
    return out


def random_twisted_complex(aus, rng, depth=2):
    x = representable(aus, rng.randrange(aus.n)).shift(rng.randint(-1, 1))
    for _ in range(depth):
        y = representable(aus, rng.randrange(aus.n)).shift(rng.randint(-1, 1))
        if rng.random() < 0.5:
            src, tgt = x, y
        else:
            src, tgt = y, x
        closed = closed_degree0_morphisms(hom_complex(src, tgt))
        if not closed:
            continue
        f = rng.choice(closed)
        c = rng.randint(-2, 2)
        x = cone(f.scaled(QQ.of_int(c)) if c else f)
    return x


def test_iterated_cones_consistent(toy_aus):
    rng = random.Random(5)
    for _ in range(10):
        x = random_twisted_complex(toy_aus, rng)
        assert not maurer_cartan_defect(x)
        for j in range(toy_aus.n):
            evaluate_at(x, j)  # validates d o d = 0
        y = random_twisted_complex(toy_aus, rng, depth=1)
        hom_complex(x, y)  # validates d o d = 0


# ---------------------------------------------------------------------------
# Yoneda and Euler invariants


def test_yoneda_consistency(toy_aus):
    rng = random.Random(12)
    for _ in range(10):
        y = random_twisted_complex(toy_aus, rng)
        j = rng.randrange(toy_aus.n)
        pj = representable(toy_aus, j)
        lhs = hom_complex(pj, y).cohomology_dims()
        rhs = cohom_dims(evaluate_at(y, j))
        assert lhs == rhs


def test_triangle_euler_characteristic(toy_aus):
    n = toy_aus.n
    for i in range(n - 1):
        s = cone(psi(toy_aus, i))
        for j in range(n):
            chi_s = evaluate_at(s, j).euler_characteristic()
            chi_pi = evaluate_at(representable(toy_aus, i), j).euler_characteristic()
            chi_pi1 = evaluate_at(representable(toy_aus, i + 1), j).euler_characteristic()
            assert chi_s == chi_pi - chi_pi1


# ---------------------------------------------------------------------------
# the semiorthogonality report


def test_sod_report_toy_appendix(toy_aus):
    rep = sod_report(toy_aus)
    assert rep.passed, rep.to_json()["failures"]
    assert rep.rbar_dims == {0: 1}
    n = toy_aus.n
    for i in range(n):
        for j in range(n):
            cell = rep.ps_table[i][j]
            if j > i:
                assert cell == {}
            if j == i:
                assert cell == {0: 1}
            assert (rep.ss_table[i][j] == {}) == (j > i) or j <= i


def test_sod_report_toy_degree_filtration(toy_deg_aus):
    rep = sod_report(toy_deg_aus)
    assert rep.passed, rep.to_json()["failures"]
    assert rep.rbar_dims == {0: 2}
    for i in range(toy_deg_aus.n):
        assert rep.ps_table[i][i] == {0: 2}


def test_sod_report_trivial_filtration():
    alg = dual_numbers()
    filt = Filtration(alg, [full_subspace(alg), zero_subspace(alg)])
    rep = sod_report(build_auslander(alg, filt))
    assert rep.passed
    assert rep.rbar_dims == {0: 2}


def test_sod_report_noncommutative_quotient():
    # R/F^1 is the full upper-triangular algebra: the composition law of the
    # canonical End comparison is exercised on a noncommutative quotient
    from .corpus import upper_triangular_2

    alg = upper_triangular_2()
    filt = Filtration(alg, [full_subspace(alg), zero_subspace(alg)])
    rep = sod_report(build_auslander(alg, filt))
    assert rep.passed, rep.to_json()["failures"]
    assert rep.rbar_dims == {0: 3}


def test_sod_report_random_filtered():
    rng = random.Random(31)
    for _ in range(3):
        alg, filt = random_filtered_algebra(rng)
        rep = sod_report(build_auslander(alg, filt))
        assert rep.passed, rep.to_json()["failures"]


def test_sod_generation_witnesses(toy_aus):
    rep = sod_report(toy_aus)
    assert len(rep.generation_witnesses) == toy_aus.n
    assert rep.generation_witnesses[0]["object"] == toy_aus.n - 1


def test_hom_complex_end_of_generator_n1():
    # trivial filtration: End(P_0) has zero differential and recovers the
    # algebra itself, for the three-dimensional example dims {0: 2, -1: 1}
    toy = toy_algebra()
    filt = Filtration(toy, [full_subspace(toy), zero_subspace(toy)])
    aus = build_auslander(toy, filt)
    p0 = representable(aus, 0)
    h = hom_complex(p0, p0)
    assert h.dims() == {0: 2, -1: 1}
    assert h.cohomology_dims() == {0: 2, -1: 1}


def test_sod_over_prime_field():
    # the whole pipeline is exact over F_p as well (hand-built filtration,
    # since radical computation is restricted to characteristic zero)
    from ainfbench import GF
    from ainfbench.linalg import Subspace

    from .corpus import dual_numbers

    f5 = GF(5)
    alg = dual_numbers(f5)
    obj = alg.objects[0]
    space = alg.hom[(obj, obj)]
    ideal = Subspace(space, f5, [(0, 1)])
    filt = Filtration(alg, [full_subspace(alg), ideal, zero_subspace(alg)])
    assert check_filtration(alg, filt).passed
    rep = sod_report(build_auslander(alg, filt))
    assert rep.passed, rep.to_json()["failures"]
    assert rep.rbar_dims == {0: 1}
