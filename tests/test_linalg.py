import random
from collections import Counter
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
    quotient_space,
)
import ainfbench.linalg as linalg
from ainfbench.linalg import ComplexError, LinAlgError, QuotientPresentation, nullspace, rref, solve_linear
from ainfbench.scalars import FieldError

from .oracles import dense, naive_quotient_coords, naive_rank, naive_rref, naive_solve

F = Fraction


def test_echelon_basis_forced_reduction():
    s = echelon_basis([(F(1), F(0), F(0)), (F(1), F(1), F(0))], QQ)
    assert s.dim == 2
    assert s.rows == ({0: F(1)}, {1: F(1)})


def test_echelon_basis_integer_input_stays_exact():
    # the pivot inverse of an int must be a Fraction, never a float
    rows = echelon_basis([(3, 1)], QQ).rows
    assert rows == ({0: F(1), 1: F(1, 3)},)
    assert all(isinstance(a, Fraction) for row in rows for a in row.values())


def test_echelon_basis_rejects_inexact_scalars():
    # echelon_basis([(0.5, 1)], QQ) used to have the row (1.0, Fraction(2, 1))
    with pytest.raises(FieldError):
        echelon_basis([(0.5, 1)], QQ)
    with pytest.raises(FieldError):
        echelon_basis([(True, 1)], QQ)


def test_prime_field_input_is_reduced():
    # (3, 0) is the zero vector of F_3^2; contains used to compare 3 with 0
    amb = GradedSpace(("a", "b"), (0, 0))
    assert Subspace(amb, GF(3), []).contains((3, 0))
    assert not Subspace(amb, GF(3), []).contains((4, 0))
    assert Subspace(amb, GF(3), [(4, 5)]).rows == ({0: 1, 1: 2},)


def test_echelon_basis_empty_span():
    amb = GradedSpace(("a", "b"), (0, 0))
    s = Subspace(amb, QQ, ())
    assert s.dim == 0
    assert s.rows == ()


def test_echelon_basis_proportional_vectors():
    s = echelon_basis([(F(2), F(4)), (F(1), F(2))], QQ)
    assert s.dim == 1
    assert s.rows == ({0: F(1), 1: F(2)},)


def test_membership():
    s = echelon_basis([(F(1), F(0))], QQ)
    assert s.contains((F(3), F(0)))
    assert not s.contains((F(0), F(1)))
    zero = Subspace(GradedSpace(("a", "b"), (0, 0)), QQ, ())
    assert zero.contains((F(0), F(0)))


def test_membership_dimension_mismatch():
    s = echelon_basis([(F(1), F(0))], QQ)
    with pytest.raises(Exception):
        s.contains((F(1),))


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_subspace_sparse_input_matches_dense(field):
    rng = random.Random(f"sparse:{field.characteristic}")

    def draw(n, k):
        return [tuple(field.of_int(rng.randint(-2, 2)) for _ in range(n)) for _ in range(k)]

    def sparse(v):  # explicit zeros now and then
        return {j: a for j, a in enumerate(v) if a != 0 or rng.random() < 0.3}

    for _ in range(30):
        n = rng.randint(1, 6)
        amb = GradedSpace(tuple(f"b{i}" for i in range(n)), (0,) * n)
        vecs = draw(n, rng.randint(0, n))
        dense = Subspace(amb, field, vecs)
        sp = Subspace(amb, field, [sparse(v) for v in vecs])
        assert (sp.rows, sp.pivots) == (dense.rows, dense.pivots)
        assert all(list(r) == sorted(r) for r in sp.rows)
        for v in draw(n, 4) + vecs:
            inside = naive_rank(field, vecs + [v], n) == naive_rank(field, vecs, n)
            assert sp.contains(sparse(v)) == dense.contains(v) == inside
        part = Subspace(amb, field, [sparse(v) for v in vecs[: rng.randint(0, len(vecs))]])
        other = Subspace(amb, field, draw(n, rng.randint(0, n)))
        assert sp.contains_subspace(part) and dense.contains_subspace(part)
        assert sp.contains_subspace(other) == dense.contains_subspace(other)
        assert other.contains_subspace(sp) == other.contains_subspace(dense)


def test_subspace_rejects_vectors_outside_ambient():
    amb = GradedSpace(("a", "b"), (0, 0))
    s = Subspace(amb, QQ, [{0: 1}])
    with pytest.raises(LinAlgError):
        Subspace(amb, QQ, [{2: 1}])
    for v in ({2: 1}, {-1: 1}, (1, 0, 0)):
        with pytest.raises(LinAlgError):
            s.contains(v)
    big = GradedSpace(("a", "b", "c"), (0, 0, 0))
    bigger, zero = Subspace(big, QQ, [(1, 0, 0)]), Subspace(big, QQ, ())
    # a zero subspace of another ambient is refused like a nonzero one
    for x, y in ((s, bigger), (bigger, s), (s, zero)):
        with pytest.raises(LinAlgError, match="ambient spaces differ"):
            x.contains_subspace(y)
    assert s.contains_subspace(Subspace(amb, QQ, ()))


def test_echelon_over_prime_field():
    f5 = GF(5)
    s = echelon_basis([(2, 4), (1, 2)], f5)
    assert s.dim == 1
    assert s.rows == ({0: 1, 1: 2},)  # (2,4) scaled by inverse(2) = 3
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
    assert q.reps == ({0: F(1)},)
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
    # preferred vectors may be sparse; an index outside the ambient is a
    # dimension mismatch, as a tuple of the wrong length is
    assert quotient_space(num, den, preferred=[{0: 2}]).reps == ({0: 1},)
    for bad in ((1, 0, 0), {2: 1}, {-1: 1}):
        with pytest.raises(LinAlgError, match="dimension mismatch"):
            quotient_space(num, den, preferred=[bad])


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
    # presentations that quotient_space did not make: no numerator Subspace
    amb = GradedSpace(("a", "b"), (0, 0))
    assert QuotientPresentation(amb, QQ, [], [(1, 0)]).verify()
    c = FiniteComplex(QQ, {-1: ("e_src", "t_src"), 0: ("1", "e", "t")},
                      {-1: ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))})
    assert complex_cohomology(c).groups[0].verify()
    # a broken presentation fails the check: its representative's column
    # no longer reads it as the class e_0
    broken = QuotientPresentation(amb, QQ, [], [(1, 0)])
    broken._columns[0] = ({0: F(2)}, {})
    assert not broken.verify()


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
            v = {k: o(c) for k, c in enumerate(v) if c != 0}
            assert not num.contains(v)
            with pytest.raises(LinAlgError):
                q.project_strict(v)
            # non-strict projection keeps its value off the numerator
            assert dense(field, q.project(v), q.dim) == projected
        inside = dict(enumerate(map(o, (2, 3, 2, 3))))  # sum of the spanning vectors
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
                v = [field.add(x, field.mul(a, y)) for x, y in zip(v, dense(field, row, n))]
            probes.append(tuple(v))
        for _ in range(2):  # the second round reads the cached columns
            for v in probes:
                want = naive_quotient_coords(q, v)
                sparse = {k: a for k, a in enumerate(v) if a != 0}
                if want is None:
                    outside += 1
                    with pytest.raises(LinAlgError):
                        q.project_strict(sparse)
                else:
                    assert q.project_strict(sparse) == want
                    assert q.project(sparse) == want
                assert q.project(dict(enumerate(v))) == q.project(sparse)  # explicit zeros
    assert outside > 0


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_projections_and_lifts_are_ascending_sparse(field):
    rng = random.Random(f"sparse-projection:{field.characteristic}")

    def rand_vec(n):
        return tuple(field.of_int(rng.randint(-3, 3)) for _ in range(n))

    outside = 0
    for _ in range(40):
        n = rng.randint(1, 7)
        amb = GradedSpace(tuple(f"b{i}" for i in range(n)), (0,) * n)
        den_vecs = [rand_vec(n) for _ in range(rng.randint(0, n))]
        extra = [rand_vec(n) for _ in range(rng.randint(0, n))]
        num = Subspace(amb, field, den_vecs + extra)
        den = Subspace(amb, field, den_vecs)
        preferred = extra[:1] if extra and rng.random() < 0.5 else []
        q = quotient_space(num, den, preferred=preferred)
        # seeded from the denominator's reduced rows: the representatives of
        # the presentation that eliminates the dense rows again, and no row
        # shared with the Subspace
        again = QuotientPresentation(amb, field, den.rows, (*preferred, *num.rows))
        assert q.reps == again.reps
        assert not {id(r) for r in q._echelon.rows.values()} & {id(r) for r in den._echelon.rows.values()}
        lifts = [q.lift(dict(enumerate(rand_vec(q.dim)))) for _ in range(3)]
        assert all(list(v) == sorted(v) and all(c != 0 for c in v.values()) for v in (*q.reps, *lifts))
        for v in [dict(enumerate(rand_vec(n))) for _ in range(4)] + lifts:
            if not num.contains(v):
                outside += 1
                with pytest.raises(LinAlgError):
                    q.project_strict(v)
                continue
            coords = q.project_strict(v)
            assert list(coords) == sorted(coords) and all(c != 0 for c in coords.values())
            assert coords == q.project(v)
            assert q.project(q.lift(coords)) == coords
    with pytest.raises(LinAlgError):
        q.lift({q.dim: field.one})
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
    assert len(reps) == 1 and reps[0].get(0, 0) != 0


def _columns(m):
    """The sparse columns {j: {i: entry}} of a dense matrix, zeros left out."""
    cols = {}
    for i, row in enumerate(m):
        for j, a in enumerate(row):
            if a != 0:
                cols.setdefault(j, {})[i] = a
    return cols


def test_complex_dd_violation_reported():
    for form in (tuple, _columns):  # dense and sparse input
        m = ((F(1),),)
        with pytest.raises(ComplexError) as err:
            FiniteComplex(QQ, {0: ("a",), 1: ("b",), 2: ("c",)}, {0: form(m), 1: form(m)})
        assert "entry (0,0)" in str(err.value)
        # d o d = ((0, 2), (5, 0)): the first nonzero entry in row-major order is (0,1)
        comps = {0: ("a0", "a1"), 1: ("b0", "b1"), 2: ("c0", "c1")}
        with pytest.raises(ComplexError) as err:
            FiniteComplex(QQ, comps, {0: form(((1, 0), (0, 1))), 1: form(((0, 2), (5, 0)))})
        assert "entry (0,1) from degree 0 equals 2" in str(err.value)


def test_complex_entries_are_exact():
    # the float used to be accepted and only failed inside complex_cohomology
    comps = {0: ("a",), 1: ("b",)}
    for bad in (0.5, True):
        with pytest.raises(FieldError):
            FiniteComplex(QQ, comps, {0: ((bad,),)})
        with pytest.raises(FieldError):
            FiniteComplex(QQ, comps, {0: {0: {0: bad}}})
    # over F_3 the entry 3 is zero; .diff used to hold the unreduced ((3,),)
    gf3 = GF(3)
    c = FiniteComplex(gf3, comps, {0: ((3,),)})
    assert c.diff == {}
    assert complex_cohomology(c).dims() == {0: 1, 1: 1}
    assert FiniteComplex(gf3, comps, {0: ((4,),)}).diff == {0: ((1,),)}
    assert FiniteComplex(gf3, comps, {0: {0: {0: 3}}}).diff == {}
    assert FiniteComplex(gf3, comps, {0: {0: {0: 4}}}).diff == {0: ((1,),)}


def test_complex_shape_error():
    comps = {0: ("a",), 1: ("b",)}
    for diff in ({0: ((1, 0),)}, {0: ((1,), (0,))}, {0: {1: {0: 1}}}, {0: {0: {1: 1}}}, {0: {0: {-1: 1}}}):
        with pytest.raises(ComplexError, match="wrong shape"):
            FiniteComplex(QQ, comps, diff)
    # a zero map is dropped before its shape is looked at, in either form
    for diff in ({0: ((0, 0),)}, {0: {1: {0: 0}}}):
        assert FiniteComplex(QQ, comps, diff).diff == {}


def _apply(field, m, v):
    out = []
    for row in m:
        acc = field.zero
        for a, b in zip(row, v):
            acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return tuple(out)


def _random_complexes(field):
    """20 random complexes C^0 -> C^1 -> C^2 as (components, dense differentials)."""
    rng = random.Random(3)
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
        yield comps, diffs


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_complex_sparse_columns_match_dense(field):
    for comps, diffs in _random_complexes(field):
        dense = FiniteComplex(field, comps, diffs)
        sparse = FiniteComplex(field, comps, {q: _columns(m) for q, m in diffs.items()})
        assert sparse.diff == dense.diff
        hd, hs = complex_cohomology(dense), complex_cohomology(sparse)
        for q in range(-1, 3):
            assert sparse.differential(q) == dense.differential(q)
            assert hs.representatives(q) == hd.representatives(q)
            units = [{j: field.one} for j in range(len(comps.get(q, ())))]
            for v in list(hd.representatives(q)) + units:
                try:
                    want = hd.class_coords(q, v)
                except LinAlgError:
                    with pytest.raises(LinAlgError):
                        hs.class_coords(q, v)
                else:
                    assert hs.class_coords(q, v) == want


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_euler_characteristic_random_complexes(field):
    wrng = random.Random(4)  # its own draws, so that the complexes stay the same
    for comps, diffs in _random_complexes(field):
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
                assert h.class_coords(q, rep) == {k: field.one}
                w = [field.of_int(wrng.randint(-2, 2)) for _ in c.components.get(q - 1, ())]
                moved = [field.add(a, b) for a, b in zip(dense(field, rep, len(labels)), _apply(field, prev, w))]
                assert h.class_coords(q, dict(enumerate(moved))) == {k: field.one}
            for j in range(len(labels)):
                v = tuple(field.one if i == j else field.zero for i in range(len(labels)))
                if any(a != 0 for a in _apply(field, c.differential(q), v)):
                    with pytest.raises(LinAlgError):
                        h.class_coords(q, {j: field.one})


def _presented_eagerly(c):
    """H^q of ``c`` presented eagerly from its dense matrices: the image
    columns of d_{q-1} as denominator, the kernel basis of d_q as candidates."""
    groups = {}
    for q, labels in sorted(c.components.items()):
        image = [tuple(col) for col in zip(*c.differential(q - 1))]
        kernel = nullspace(c.field, c.differential(q), len(labels))
        groups[q] = QuotientPresentation(GradedSpace(labels, (q,) * len(labels)), c.field, image, kernel)
    return groups


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_cohomology_dims_from_ranks_present_classes_on_demand(field, monkeypatch):
    complexes = [FiniteComplex(field, comps, diffs) for comps, diffs in _random_complexes(field)]
    cases = [(c, _presented_eagerly(c)) for c in complexes]
    built = Counter()
    kernel, init = linalg._kernel, QuotientPresentation.__init__
    monkeypatch.setattr(linalg, "_kernel", lambda *a: built.update(["kernel"]) or kernel(*a))
    monkeypatch.setattr(QuotientPresentation, "__init__",
                        lambda self, *a: built.update(["presentation"]) or init(self, *a))
    for c, eager in cases:
        built.clear()
        columns = {q: {j: dict(col) for j, col in cols.items()} for q, cols in c.columns.items()}
        h = complex_cohomology(c)
        ranks = {q: naive_rank(field, m, len(c.components[q])) for q, m in c.diff.items()}
        want = {q: len(labels) - ranks.get(q, 0) - ranks.get(q - 1, 0)
                for q, labels in sorted(c.components.items())}
        assert h.dims() == {q: d for q, d in want.items() if d}
        assert h.total_dim() == sum(want.values())
        assert not built  # dimensions alone present nothing
        for q, labels in c.components.items():
            units = [{j: field.one} for j in range(len(labels))]
            for v in list(eager[q].reps) + units:
                try:
                    expected = eager[q].project_strict(v)
                except LinAlgError:
                    with pytest.raises(LinAlgError):
                        h.class_coords(q, v)
                else:
                    assert h.class_coords(q, v) == expected
        assert built == Counter({"kernel": len(c.components), "presentation": len(c.components)})
        assert {q: g.dim for q, g in h.groups.items() if g.dim} == h.dims()
        assert {q: g.reps for q, g in h.groups.items()} == {q: g.reps for q, g in eager.items()}
        assert c.columns == columns  # the echelons inserted copies of the columns


def test_cohomology_presentation_checked_against_ranks():
    c = FiniteComplex(QQ, {0: ("a",), 1: ("b", "c")}, {0: ((F(1),), (F(0),))})
    h = complex_cohomology(c)
    assert h.dims() == {1: 1}
    h._dims[1] = 2  # a rank that disagrees with the presentation
    with pytest.raises(LinAlgError, match="ranks give 2"):
        h.representatives(1)
