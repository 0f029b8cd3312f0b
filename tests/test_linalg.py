import random
from fractions import Fraction

import pytest

from ainfbench import (
    ContainmentError,
    FiniteComplex,
    GF,
    GradedSpace,
    QQ,
    Subspace,
    complex_cohomology,
    echelon_basis,
    membership,
    quotient_space,
)
from ainfbench.linalg import ComplexError, LinAlgError, nullspace, rref, solve_linear
from ainfbench.scalars import FieldError

from .oracles import naive_quotient_coords, naive_rank, naive_rref, naive_solve

F = Fraction


def test_echelon_basis_forced_reduction():
    s = echelon_basis([(F(1), F(0), F(0)), (F(1), F(1), F(0))], QQ)
    assert s.dim == 2
    assert s.rows == ((F(1), F(0), F(0)), (F(0), F(1), F(0)))


def test_echelon_basis_integer_input_stays_exact():
    # the pivot inverse of an int must be a Fraction, never a float
    rows = echelon_basis([(3, 1)], QQ).rows
    assert rows == ((F(1), F(1, 3)),)
    assert all(isinstance(a, Fraction) for row in rows for a in row)


def test_echelon_basis_rejects_inexact_scalars():
    # echelon_basis([(0.5, 1)], QQ).rows used to be ((1.0, Fraction(2, 1)),)
    with pytest.raises(FieldError):
        echelon_basis([(0.5, 1)], QQ)
    with pytest.raises(FieldError):
        echelon_basis([(True, 1)], QQ)


def test_prime_field_input_is_reduced():
    # (3, 0) is the zero vector of F_3^2; contains used to compare 3 with 0
    amb = GradedSpace(("a", "b"), (0, 0))
    assert Subspace(amb, GF(3), []).contains((3, 0))
    assert not Subspace(amb, GF(3), []).contains((4, 0))
    assert Subspace(amb, GF(3), [(4, 5)]).rows == ((1, 2),)


def test_echelon_basis_empty_span():
    amb = GradedSpace(("a", "b"), (0, 0))
    s = Subspace(amb, QQ, ())
    assert s.dim == 0
    assert s.rows == ()


def test_echelon_basis_proportional_vectors():
    s = echelon_basis([(F(2), F(4)), (F(1), F(2))], QQ)
    assert s.dim == 1
    assert s.rows == ((F(1), F(2)),)


def test_membership():
    s = echelon_basis([(F(1), F(0))], QQ)
    assert membership(s, (F(3), F(0)))
    assert not membership(s, (F(0), F(1)))
    zero = Subspace(GradedSpace(("a", "b"), (0, 0)), QQ, ())
    assert membership(zero, (F(0), F(0)))


def test_membership_dimension_mismatch():
    s = echelon_basis([(F(1), F(0))], QQ)
    with pytest.raises(Exception):
        s.contains((F(1),))


def test_echelon_over_prime_field():
    f5 = GF(5)
    s = echelon_basis([(2, 4), (1, 2)], f5)
    assert s.dim == 1
    assert s.rows == ((1, 2),)  # (2,4) scaled by inverse(2) = 3
    assert s.contains((3, 6 % 5))


def test_quotient_trivial_cases():
    amb = GradedSpace(("a", "b"), (0, 0))
    full = Subspace(amb, QQ, [(F(1), F(0)), (F(0), F(1))])
    q_zero = quotient_space(full, full)
    assert q_zero.dim == 0
    zero = Subspace(amb, QQ, ())
    q_iso = quotient_space(full, zero)
    assert q_iso.dim == 2
    # lift is the inclusion of the chosen (echelon) numerator basis
    assert q_iso.reps == full.rows


def test_quotient_toy_coset():
    amb = GradedSpace(("1", "e", "t"), (0, 0, -1))
    num = Subspace(amb, QQ, [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))])
    den = Subspace(amb, QQ, [(F(0), F(1), F(0)), (F(0), F(0), F(1))])
    q = quotient_space(num, den)
    assert q.dim == 1
    assert q.reps == ((F(1), F(0), F(0)),)
    assert q.degrees == (0,)


def test_quotient_containment_violation_witness():
    amb = GradedSpace(("a", "b"), (0, 0))
    num = Subspace(amb, QQ, [(F(1), F(0))])
    den = Subspace(amb, QQ, [(F(0), F(1))])
    with pytest.raises(ContainmentError) as err:
        quotient_space(num, den)
    assert err.value.witness == (F(0), F(1))
    # the first denominator row lies in the numerator, the second does not
    amb3 = GradedSpace(("a", "b", "c"), (0, 0, 0))
    num = Subspace(amb3, QQ, [(1, 0, 0), (0, 1, 0)])
    den = Subspace(amb3, QQ, [(1, 0, 0), (0, 0, 1)])
    with pytest.raises(ContainmentError) as err:
        quotient_space(num, den)
    assert err.value.witness == (F(0), F(0), F(1))


def test_quotient_preferred_outside_numerator():
    amb = GradedSpace(("a", "b"), (0, 0))
    num = Subspace(amb, QQ, [(1, 0)])
    den = Subspace(amb, QQ, [])
    with pytest.raises(LinAlgError, match="preferred") as err:
        quotient_space(num, den, preferred=[(0, 1)])
    assert not isinstance(err.value, ContainmentError)


def test_quotient_projection_lift_invariants_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        amb = GradedSpace(tuple(f"b{i}" for i in range(n)), (0,) * n)
        den_vecs = [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(rng.randint(0, n))]
        num_vecs = den_vecs + [
            tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(rng.randint(0, n))
        ]
        num = Subspace(amb, QQ, num_vecs)
        den = Subspace(amb, QQ, den_vecs)
        q = quotient_space(num, den)
        assert q.dim == num.dim - den.dim
        assert q.verify()


@pytest.mark.parametrize(
    "field, outside",
    [
        # (vector outside the numerator, its non-strict projection)
        (QQ, [((1, 0, 0, 0), (F(-3), F(0))), ((2, 1, -1, 0), (F(-5), F(-4, 3)))]),
        (GF(3), [((1, 0, 0, 0), (2, 0)), ((2, 1, 2, 0), (1, 1))]),
    ],
    ids=["Q", "GF3"],
)
def test_project_strict_rejects_vectors_outside_numerator(field, outside):
    o = field.of_int
    amb = GradedSpace(("a", "b", "c", "d"), (0, 0, 0, 0))
    vecs = [(1, 2, 0, 1), (0, 1, 1, 0), (1, 0, 1, 2)]
    num = Subspace(amb, field, [tuple(map(o, v)) for v in vecs])
    den = Subspace(amb, field, [tuple(map(o, (1, 3, 1, 1)))])
    q = quotient_space(num, den)
    for _ in range(2):  # the second round reads the cached columns
        for v, projected in outside:
            v = tuple(map(o, v))
            assert not num.contains(v)
            with pytest.raises(LinAlgError):
                q.project_strict(v)
            with pytest.raises(LinAlgError):
                q.project_strict({k: c for k, c in enumerate(v) if c != 0})
            # non-strict projection keeps its value off the numerator
            assert q.project(v) == projected
        inside = tuple(map(o, (2, 3, 2, 3)))  # sum of the spanning vectors
        assert q.project_strict(inside) == q.project(inside)
    with pytest.raises(LinAlgError):
        q.project({4: o(1)})  # no basis index 4 in a 4-dimensional ambient


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_projection_matches_oracle_random(field):
    rng = random.Random(f"projection:{field.characteristic}")

    def rand_vec(n):
        return tuple(field.of_int(rng.randint(-3, 3)) for _ in range(n))

    outside = 0
    for _ in range(40):
        n = rng.randint(1, 6)
        amb = GradedSpace(tuple(f"b{i}" for i in range(n)), (0,) * n)
        den_vecs = [rand_vec(n) for _ in range(rng.randint(0, n))]
        extra = [rand_vec(n) for _ in range(rng.randint(0, n))]
        num = Subspace(amb, field, den_vecs + extra)
        den = Subspace(amb, field, den_vecs)
        preferred = extra[:1] if extra and rng.random() < 0.5 else []
        q = quotient_space(num, den, preferred=preferred)
        probes = [rand_vec(n) for _ in range(4)]
        for _ in range(3):  # random members of the numerator
            v = [field.zero] * n
            for row in num.rows:
                a = field.of_int(rng.randint(-2, 2))
                v = [field.add(x, field.mul(a, y)) for x, y in zip(v, row)]
            probes.append(tuple(v))
        for _ in range(2):  # the second round reads the cached columns
            for v in probes:
                want = naive_quotient_coords(q, v)
                sparse = {k: a for k, a in enumerate(v) if a != 0}
                if want is None:
                    outside += 1
                    with pytest.raises(LinAlgError):
                        q.project_strict(v)
                    with pytest.raises(LinAlgError):
                        q.project_strict(sparse)
                else:
                    assert q.project_strict(v) == want
                    assert q.project_strict(sparse) == want
                    assert q.project(v) == want
                assert q.project(sparse) == q.project(v)
    assert outside > 0


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_elimination_matches_dense_oracle(field):
    rng = random.Random(f"elimination:{field.characteristic}")

    def rand_vec(n, density):
        return tuple(field.of_int(rng.randint(-3, 3)) if rng.random() < density else field.zero
                     for _ in range(n))

    def dot(u, v):
        acc = field.zero
        for a, b in zip(u, v):
            acc = field.add(acc, field.mul(a, b))
        return acc

    shapes = [(1, 1), (1, 5), (5, 1), (2, 7), (7, 2), (4, 4), (6, 3), (3, 6), (8, 8)]
    inconsistent = 0
    for trial in range(60):
        nrows, ncols = shapes[trial % len(shapes)]
        m = [rand_vec(ncols, rng.choice((0.3, 0.7, 1.0))) for _ in range(nrows)]
        if nrows > 1 and trial % 3 == 0:
            m[-1] = m[0]  # a repeated row
        if trial % 4 == 1:
            m[rng.randrange(nrows)] = (field.zero,) * ncols  # a zero row
        m = tuple(m)
        want_rows, want_pivots = naive_rref(field, m, ncols)
        rows, pivots = rref(field, m)
        assert rows == tuple(want_rows) and pivots == tuple(want_pivots)

        kernel = nullspace(field, m, ncols)
        assert len(kernel) == ncols - len(pivots)
        assert naive_rank(field, kernel, ncols) == len(kernel)
        for v in kernel:
            assert all(dot(row, v) == 0 for row in m)

        x = rand_vec(ncols, 0.5)
        for b in (rand_vec(nrows, 1.0), tuple(dot(row, x) for row in m)):  # the second is consistent
            sol = solve_linear(field, m, b)
            assert sol == naive_solve(field, m, b, ncols)
            assert sol is None or tuple(dot(row, sol) for row in m) == b
            inconsistent += sol is None
    assert inconsistent > 0


def test_span_random_two_sided_membership():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 6)
        vecs = [tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(rng.randint(0, 4))]
        s = echelon_basis(vecs, QQ) if vecs else None
        if s is None:
            continue
        for v in vecs:
            assert s.contains(v)
        for r in s.rows:
            # each echelon row is a combination of the inputs: solve explicitly
            big = echelon_basis(vecs, QQ)
            assert big.contains(r)


def test_graded_subspace_homogeneous_rows():
    amb = GradedSpace(("1", "e", "t"), (0, 0, -1))
    s = Subspace(amb, QQ, [(F(1), F(1), F(0)), (F(0), F(0), F(2))])
    assert s.graded
    assert s.degree_dims() == {0: 1, -1: 1}
    mixed = Subspace(amb, QQ, [(F(1), F(0), F(1))])
    assert not mixed.graded


def test_complex_zero_differential():
    c = FiniteComplex(QQ, {0: ("a", "b"), 1: ("c", "d", "e")}, {})
    h = complex_cohomology(c)
    assert h.dims() == {0: 2, 1: 3}


def test_complex_identity_acyclic():
    c = FiniteComplex(QQ, {0: ("a",), 1: ("b",)}, {0: ((F(1),),)})
    h = complex_cohomology(c)
    assert h.dims() == {}
    assert h.total_dim() == 0


def test_complex_cone_of_inclusion():
    # span{e, t} included into span{1, e, t}, sitting in degrees -1 and 0
    d = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))
    c = FiniteComplex(QQ, {-1: ("e_src", "t_src"), 0: ("1", "e", "t")}, {-1: d})
    h = complex_cohomology(c)
    assert h.dims() == {0: 1}
    reps = h.representatives(0)
    assert len(reps) == 1 and reps[0][0] != 0


def test_complex_dd_violation_reported():
    m = ((F(1),),)
    with pytest.raises(ComplexError) as err:
        FiniteComplex(QQ, {0: ("a",), 1: ("b",), 2: ("c",)}, {0: m, 1: m})
    assert "entry (0,0)" in str(err.value)
    # d o d = ((0, 2), (5, 0)): the first nonzero entry in row-major order is (0,1)
    comps = {0: ("a0", "a1"), 1: ("b0", "b1"), 2: ("c0", "c1")}
    with pytest.raises(ComplexError) as err:
        FiniteComplex(QQ, comps, {0: ((1, 0), (0, 1)), 1: ((0, 2), (5, 0))})
    assert "entry (0,1) from degree 0 equals 2" in str(err.value)


def test_complex_entries_are_exact():
    # the float used to be accepted and only failed inside complex_cohomology
    with pytest.raises(FieldError):
        FiniteComplex(QQ, {0: ("a",), 1: ("b",)}, {0: ((0.5,),)})
    with pytest.raises(FieldError):
        FiniteComplex(QQ, {0: ("a",), 1: ("b",)}, {0: ((True,),)})
    # over F_3 the entry 3 is zero; .diff used to hold the unreduced ((3,),)
    gf3 = GF(3)
    c = FiniteComplex(gf3, {0: ("a",), 1: ("b",)}, {0: ((3,),)})
    assert c.diff == {}
    assert complex_cohomology(c).dims() == {0: 1, 1: 1}
    assert FiniteComplex(gf3, {0: ("a",), 1: ("b",)}, {0: ((4,),)}).diff == {0: ((1,),)}


def _apply(field, m, v):
    out = []
    for row in m:
        acc = field.zero
        for a, b in zip(row, v):
            acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return tuple(out)


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_euler_characteristic_random_complexes(field):
    rng = random.Random(3)
    wrng = random.Random(4)  # its own draws, so that the complexes stay the same
    for _ in range(20):
        n0, n1, n2 = (rng.randint(0, 4) for _ in range(3))
        d0 = tuple(tuple(field.of_int(rng.randint(-2, 2)) for _ in range(n0)) for _ in range(n1))
        # rows of d1 must annihilate the columns of d0
        left_null = nullspace(field, tuple(zip(*d0)) if n1 and n0 else (), n1)
        d1_rows = []
        for _ in range(n2):
            row = [field.zero] * n1
            for v in left_null:
                coeff = field.of_int(rng.randint(-2, 2))
                row = [field.add(a, field.mul(coeff, b)) for a, b in zip(row, v)]
            d1_rows.append(tuple(row))
        comps = {}
        if n0:
            comps[0] = tuple(f"a{i}" for i in range(n0))
        if n1:
            comps[1] = tuple(f"b{i}" for i in range(n1))
        if n2:
            comps[2] = tuple(f"c{i}" for i in range(n2))
        diffs = {}
        if n0 and n1:
            diffs[0] = d0
        if n1 and n2:
            diffs[1] = tuple(d1_rows)
        c = FiniteComplex(field, comps, diffs)
        h = complex_cohomology(c)
        chi_spaces = sum((-1) ** q * len(ls) for q, ls in c.components.items())
        chi_h = sum((-1) ** q * d for q, d in h.dims().items())
        assert chi_spaces == chi_h
        # dim H^q = dim C^q - rank d_q - rank d_{q-1}, ranks from the dense oracle
        ranks = {q: naive_rank(field, m, len(c.components[q])) for q, m in c.diff.items()}
        for q, labels in c.components.items():
            assert h.dims().get(q, 0) == len(labels) - ranks.get(q, 0) - ranks.get(q - 1, 0)
        # class coordinates: reps are the unit vectors, coboundaries do not
        # move a class, and a vector that is no cocycle has none
        for q, labels in c.components.items():
            reps = h.representatives(q)
            prev = c.differential(q - 1)
            for k, rep in enumerate(reps):
                unit = tuple(field.one if j == k else field.zero for j in range(len(reps)))
                assert h.class_coords(q, rep) == unit
                w = [field.of_int(wrng.randint(-2, 2)) for _ in c.components.get(q - 1, ())]
                moved = tuple(field.add(a, b) for a, b in zip(rep, _apply(field, prev, w)))
                assert h.class_coords(q, moved) == unit
            for j in range(len(labels)):
                v = tuple(field.one if i == j else field.zero for i in range(len(labels)))
                if any(a != 0 for a in _apply(field, c.differential(q), v)):
                    with pytest.raises(LinAlgError):
                        h.class_coords(q, v)
