import random
from collections import Counter
from fractions import Fraction

import pytest

from ainfbench import GF, QQ
import ainfbench.linalg as linalg
from ainfbench.linalg import (
    ComplexError,
    ContainmentError,
    FiniteComplex,
    GradedSpace,
    LinAlgError,
    QuotientPresentation,
    Subspace,
    complex_cohomology,
    quotient_space,
)
from ainfbench.scalars import FieldError

from .oracles import (
    degree_dims,
    dense,
    dense_differential,
    euler_characteristic,
    naive_quotient_coords,
    naive_rank,
    naive_rref,
    naive_solve,
)

F = Fraction


def sparse(v) -> dict:
    """The coordinate tuple ``v`` as a sparse vector, zero entries kept (the
    package drops them after ``field.coerce``)."""
    return dict(enumerate(v))


def presentation_holds(q) -> bool:
    """Self-check of a ``QuotientPresentation`` from its own echelon:
    project(lift(e_k)) = e_k for each representative, and lift(project(r)) -
    r is a combination of the denominator rows alone for each echelon row r."""
    field = q.field
    if any(q.project(q.lift({k: field.one})) != {k: field.one} for k in range(q.dim)):
        return False
    for r in q._echelon.rows.values():
        residue = q.lift(q.project(r))
        field.add_scaled(residue, r, field.neg(field.one))
        multipliers = {}
        if q._echelon.reduce(residue, multipliers) or multipliers.keys() & q._rep_of.keys():
            return False
    return True


def reps(h, q):
    """The representative cocycles of H^q, none when C^q = 0."""
    g = h.group(q)
    return g.reps if g is not None else ()


def span(field, vectors):
    """The Subspace of the coordinate tuples ``vectors`` in k^n, n their length."""
    n = len(vectors[0])
    return Subspace(GradedSpace(tuple(f"e{i}" for i in range(n)), (0,) * n), field, map(sparse, vectors))


def test_echelon_basis_forced_reduction():
    s = span(QQ, [(F(1), F(0), F(0)), (F(1), F(1), F(0))])
    assert s.dim == 2
    assert s.rows == ({0: F(1)}, {1: F(1)})


def test_echelon_basis_integer_input_stays_exact():
    # the pivot inverse of an int must be a Fraction, never a float
    rows = span(QQ, [(3, 1)]).rows
    assert rows == ({0: F(1), 1: F(1, 3)},)
    assert all(isinstance(a, Fraction) for row in rows for a in row.values())


def test_echelon_basis_rejects_inexact_scalars():
    # the span of (0.5, 1) used to have the row (1.0, Fraction(2, 1))
    for bad in (0.5, True):
        with pytest.raises(FieldError):
            span(QQ, [(bad, 1)])
        with pytest.raises(FieldError):
            span(QQ, [(1, 0)]).contains({0: bad})


def test_dense_vectors_are_refused():
    # a coordinate tuple or list is refused at every entry, by name, before
    # any coordinate is read
    amb = GradedSpace(("a", "b"), (0, 0))
    s = Subspace(amb, QQ, [{0: 1}])
    for dense_vec in ((1, 0), [1, 0], (F(0), F(1))):
        for call in (lambda: Subspace(amb, QQ, [dense_vec]),
                     lambda: s.contains(dense_vec),
                     lambda: quotient_space(s, Subspace(amb, QQ, ()), preferred=[dense_vec]),
                     lambda: QuotientPresentation(amb, QQ, linalg._Echelon(QQ), [dense_vec])):
            with pytest.raises(LinAlgError, match=r"sparse dicts \{index: scalar\}"):
                call()
    # a FiniteComplex takes sparse columns only, dense rows are refused
    comps = {0: ("a",), 1: ("b",)}
    for diff in ({0: ((1,),)}, {0: [[1]]}, {0: {0: (1,)}}):
        with pytest.raises(ComplexError, match="not sparse columns"):
            FiniteComplex(QQ, comps, diff)


def test_prime_field_input_is_reduced():
    # (3, 0) is the zero vector of F_3^2; contains used to compare 3 with 0
    amb = GradedSpace(("a", "b"), (0, 0))
    assert Subspace(amb, GF(3), []).contains({0: 3, 1: 0})
    assert not Subspace(amb, GF(3), []).contains({0: 4})
    assert Subspace(amb, GF(3), [{0: 4, 1: 5}]).rows == ({0: 1, 1: 2},)


def test_echelon_basis_empty_span():
    amb = GradedSpace(("a", "b"), (0, 0))
    s = Subspace(amb, QQ, ())
    assert s.dim == 0
    assert s.rows == ()
    assert Subspace(amb, QQ, [{}, {0: 0}]).rows == ()


def test_echelon_basis_proportional_vectors():
    s = span(QQ, [(F(2), F(4)), (F(1), F(2))])
    assert s.dim == 1
    assert s.rows == ({0: F(1), 1: F(2)},)


def test_membership():
    s = span(QQ, [(F(1), F(0))])
    assert s.contains({0: F(3)})
    assert not s.contains({1: F(1)})
    zero = Subspace(GradedSpace(("a", "b"), (0, 0)), QQ, ())
    assert zero.contains({0: F(0), 1: F(0)}) and zero.contains({})


def test_membership_dimension_mismatch():
    s = span(QQ, [(F(1), F(0))])
    with pytest.raises(LinAlgError, match="dimension mismatch"):
        s.contains({2: F(1)})


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_subspace_sparse_input_matches_dense(field):
    # the same vectors with and without their zero entries span the same
    # Subspace, and membership agrees with the dense rank oracle
    rng = random.Random(f"sparse:{field.characteristic}")

    def draw(n, k):
        return [tuple(field.of_int(rng.randint(-2, 2)) for _ in range(n)) for _ in range(k)]

    def thin(v):  # explicit zeros now and then
        return {j: a for j, a in enumerate(v) if a != 0 or rng.random() < 0.3}

    for _ in range(30):
        n = rng.randint(1, 6)
        amb = GradedSpace(tuple(f"b{i}" for i in range(n)), (0,) * n)
        vecs = draw(n, rng.randint(0, n))
        full = Subspace(amb, field, map(sparse, vecs))
        sp = Subspace(amb, field, [thin(v) for v in vecs])
        assert (sp.rows, sp.pivots) == (full.rows, full.pivots)
        assert all(list(r) == sorted(r) for r in sp.rows)
        want = naive_rref(field, vecs, n)
        assert [dense(field, r, n) for r in sp.rows] == want[0] and list(sp.pivots) == want[1]
        for v in draw(n, 4) + vecs:
            inside = naive_rank(field, vecs + [v], n) == naive_rank(field, vecs, n)
            assert sp.contains(thin(v)) == full.contains(sparse(v)) == inside
        part = Subspace(amb, field, [thin(v) for v in vecs[: rng.randint(0, len(vecs))]])
        other = Subspace(amb, field, map(sparse, draw(n, rng.randint(0, n))))
        assert sp.contains_subspace(part) and full.contains_subspace(part)
        assert sp.contains_subspace(other) == full.contains_subspace(other)
        assert other.contains_subspace(sp) == other.contains_subspace(full)


def test_subspace_rejects_vectors_outside_ambient():
    amb = GradedSpace(("a", "b"), (0, 0))
    s = Subspace(amb, QQ, [{0: 1}])
    with pytest.raises(LinAlgError):
        Subspace(amb, QQ, [{2: 1}])
    for v in ({2: 1}, {-1: 1}, (1, 0, 0)):
        with pytest.raises(LinAlgError):
            s.contains(v)
    big = GradedSpace(("a", "b", "c"), (0, 0, 0))
    bigger, zero = Subspace(big, QQ, [{0: 1}]), Subspace(big, QQ, ())
    # a zero subspace of another ambient is refused like a nonzero one
    for x, y in ((s, bigger), (bigger, s), (s, zero)):
        with pytest.raises(LinAlgError, match="ambient spaces differ"):
            x.contains_subspace(y)
    assert s.contains_subspace(Subspace(amb, QQ, ()))


def test_echelon_over_prime_field():
    f5 = GF(5)
    s = span(f5, [(2, 4), (1, 2)])
    assert s.dim == 1
    assert s.rows == ({0: 1, 1: 2},)  # (2,4) scaled by inverse(2) = 3
    assert s.contains({0: 3, 1: 6})


def test_quotient_trivial_cases():
    amb = GradedSpace(("a", "b"), (0, 0))
    full = Subspace(amb, QQ, [{0: F(1)}, {1: F(1)}])
    q_zero = quotient_space(full, full)
    assert q_zero.dim == 0
    zero = Subspace(amb, QQ, ())
    q_iso = quotient_space(full, zero)
    assert q_iso.dim == 2
    # lift is the inclusion of the chosen (echelon) numerator basis
    assert q_iso.reps == full.rows


def test_quotient_toy_coset():
    amb = GradedSpace(("1", "e", "t"), (0, 0, -1))
    num = Subspace(amb, QQ, [{0: F(1)}, {1: F(1)}, {2: F(1)}])
    den = Subspace(amb, QQ, [{1: F(1)}, {2: F(1)}])
    q = quotient_space(num, den)
    assert q.dim == 1
    assert q.reps == ({0: F(1)},)
    assert q.degrees == (0,)


def test_quotient_containment_violation_witness():
    amb = GradedSpace(("a", "b"), (0, 0))
    num = Subspace(amb, QQ, [{0: F(1)}])
    den = Subspace(amb, QQ, [{1: F(1)}])
    with pytest.raises(ContainmentError) as err:
        quotient_space(num, den)
    assert err.value.witness == {1: F(1)}
    # the first denominator row lies in the numerator, the second does not;
    # the witness is that reduced row, sparse, and a copy of it
    amb3 = GradedSpace(("a", "b", "c"), (0, 0, 0))
    num = Subspace(amb3, QQ, [{0: 1}, {1: 1}])
    den = Subspace(amb3, QQ, [{0: 1}, {1: 2, 2: 1}])
    with pytest.raises(ContainmentError) as err:
        quotient_space(num, den)
    assert err.value.witness == {1: F(1), 2: F(1, 2)} == den.rows[1]
    assert err.value.witness is not den.rows[1]


def test_quotient_preferred_outside_numerator():
    amb = GradedSpace(("a", "b"), (0, 0))
    num = Subspace(amb, QQ, [{0: 1}])
    den = Subspace(amb, QQ, [])
    with pytest.raises(LinAlgError, match="preferred") as err:
        quotient_space(num, den, preferred=[{1: 1}])
    assert not isinstance(err.value, ContainmentError)
    # an index outside the ambient is a dimension mismatch (a coordinate
    # tuple is refused as such, test_dense_vectors_are_refused)
    assert quotient_space(num, den, preferred=[{0: 2}]).reps == ({0: 1},)
    for bad in ({2: 1}, {-1: 1}):
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
        num = Subspace(amb, QQ, map(sparse, num_vecs))
        den = Subspace(amb, QQ, map(sparse, den_vecs))
        q = quotient_space(num, den)
        assert q.dim == num.dim - den.dim
        assert presentation_holds(q)
    # presentations that quotient_space did not make: no numerator Subspace
    amb = GradedSpace(("a", "b"), (0, 0))
    assert presentation_holds(QuotientPresentation(amb, QQ, linalg._Echelon(QQ), [{0: 1}]))
    c = FiniteComplex(QQ, {-1: ("e_src", "t_src"), 0: ("1", "e", "t")},
                      {-1: {0: {1: F(1)}, 1: {2: F(1)}}})
    assert presentation_holds(complex_cohomology(c).groups[0])
    # a broken presentation fails the check: its representative's column
    # no longer reads it as the class e_0
    broken = QuotientPresentation(amb, QQ, linalg._Echelon(QQ), [{0: 1}])
    broken._columns[0] = ({0: F(2)}, {})
    assert not presentation_holds(broken)


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
    num = Subspace(amb, field, [sparse(map(o, v)) for v in vecs])
    den = Subspace(amb, field, [sparse(map(o, (1, 3, 1, 1)))])
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
        num = Subspace(amb, field, map(sparse, den_vecs + extra))
        den = Subspace(amb, field, map(sparse, den_vecs))
        preferred = [sparse(v) for v in extra[:1]] if extra and rng.random() < 0.5 else []
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
                nonzero = {k: a for k, a in enumerate(v) if a != 0}
                if want is None:
                    outside += 1
                    with pytest.raises(LinAlgError):
                        q.project_strict(nonzero)
                else:
                    assert q.project_strict(nonzero) == want
                    assert q.project(nonzero) == want
                assert q.project(sparse(v)) == q.project(nonzero)  # explicit zeros
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
        num = Subspace(amb, field, map(sparse, den_vecs + extra))
        den = Subspace(amb, field, map(sparse, den_vecs))
        preferred = [sparse(v) for v in extra[:1]] if extra and rng.random() < 0.5 else []
        q = quotient_space(num, den, preferred=preferred)
        # seeded from the denominator's reduced rows: the representatives of
        # the presentation that eliminates the reduced rows again, and no row
        # shared with the Subspace
        again = QuotientPresentation(amb, field, linalg._Echelon(field, den.rows), (*preferred, *num.rows))
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
    # the sparse kernels _reduced, _kernel and _solve against the textbook
    # dense elimination: random shapes, repeated, zero and empty rows, zero
    # columns, inconsistent systems and the empty matrix
    rng = random.Random(f"elimination:{field.characteristic}")

    def rand_vec(n, density):
        return tuple(field.of_int(rng.randint(-3, 3)) if rng.random() < density else field.zero
                     for _ in range(n))

    def dot(u, v):
        acc = field.zero
        for a, b in zip(u, v):
            acc = field.add(acc, field.mul(a, b))
        return acc

    def nonzero(v):
        return {j: a for j, a in enumerate(v) if a != 0}

    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 5), (5, 1), (2, 7), (7, 2), (4, 4), (6, 3), (3, 6), (8, 8)]
    inconsistent = zero_columns = 0
    for trial in range(72):
        nrows, ncols = shapes[trial % len(shapes)]
        m = [rand_vec(ncols, rng.choice((0.3, 0.7, 1.0))) for _ in range(nrows)]
        if nrows > 1 and trial % 3 == 0:
            m[-1] = m[0]  # a repeated row
        if nrows and trial % 4 == 1:
            m[rng.randrange(nrows)] = (field.zero,) * ncols  # a zero row
        if ncols and trial % 5 == 2:
            j = rng.randrange(ncols)  # a zero column
            m = [row[:j] + (field.zero,) + row[j + 1:] for row in m]
        zero_columns += any(all(row[j] == 0 for row in m) for j in range(ncols))
        want_rows, want_pivots = naive_rref(field, m, ncols)
        reduced = linalg._reduced(field, map(nonzero, m)).rows
        assert list(reduced) == want_pivots
        assert [dense(field, r, ncols) for r in reduced.values()] == want_rows
        assert all(list(r) == sorted(r) for r in reduced.values())

        kernel = linalg._kernel(field, map(nonzero, m), ncols)
        assert len(kernel) == ncols - len(want_pivots)
        assert naive_rank(field, [dense(field, v, ncols) for v in kernel], ncols) == len(kernel)
        for v in kernel:
            assert all(a != 0 and 0 <= j < ncols for j, a in v.items())
            assert all(dot(row, dense(field, v, ncols)) == 0 for row in m)

        columns = {}  # M as FiniteComplex.columns hold it
        for i, row in enumerate(m):
            for j, a in nonzero(row).items():
                columns.setdefault(j, {})[i] = a
        x = rand_vec(ncols, 0.5)
        for b in (rand_vec(nrows, 1.0), tuple(dot(row, x) for row in m)):  # the second is consistent
            sol = linalg._solve(field, columns, nonzero(b), ncols)
            want = naive_solve(field, m, b, ncols)
            assert (sol is None) == (want is None)
            if sol is not None:
                assert list(sol) == sorted(sol) and all(a != 0 for a in sol.values())
                assert dense(field, sol, ncols) == want
                assert tuple(dot(row, dense(field, sol, ncols)) for row in m) == b
            inconsistent += sol is None
    assert inconsistent > 0 and zero_columns > 0


def test_span_random_two_sided_membership():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 6)
        vecs = [tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(rng.randint(0, 4))]
        if not vecs:
            continue
        s = span(QQ, vecs)
        for v in vecs:
            assert s.contains(sparse(v))
        for r in s.rows:
            # each echelon row is a combination of the inputs: solve explicitly
            m = tuple(zip(*vecs))
            assert naive_solve(QQ, m, dense(QQ, r, n), len(vecs)) is not None


def test_graded_subspace_homogeneous_rows():
    amb = GradedSpace(("1", "e", "t"), (0, 0, -1))
    s = Subspace(amb, QQ, [{0: F(1), 1: F(1)}, {2: F(2)}])
    assert s.graded
    assert degree_dims(s) == {0: 1, -1: 1}
    mixed = Subspace(amb, QQ, [{0: F(1), 2: F(1)}])
    assert not mixed.graded


def test_complex_zero_differential():
    c = FiniteComplex(QQ, {0: ("a", "b"), 1: ("c", "d", "e")}, {})
    h = complex_cohomology(c)
    assert h.dims() == {0: 2, 1: 3}


def test_complex_identity_acyclic():
    c = FiniteComplex(QQ, {0: ("a",), 1: ("b",)}, {0: {0: {0: F(1)}}})
    h = complex_cohomology(c)
    assert h.dims() == {}


def test_complex_cone_of_inclusion():
    # span{e, t} included into span{1, e, t}, sitting in degrees -1 and 0
    d = {0: {1: F(1)}, 1: {2: F(1)}}
    c = FiniteComplex(QQ, {-1: ("e_src", "t_src"), 0: ("1", "e", "t")}, {-1: d})
    h = complex_cohomology(c)
    assert h.dims() == {0: 1}
    [rep] = reps(h, 0)
    assert rep.get(0, 0) != 0


def _columns(m):
    """The sparse columns {j: {i: entry}} of a dense matrix, zeros left out."""
    cols = {}
    for i, row in enumerate(m):
        for j, a in enumerate(row):
            if a != 0:
                cols.setdefault(j, {})[i] = a
    return cols


def _rows(m):
    """The sparse rows of a dense matrix, zeros left out."""
    return [{j: a for j, a in enumerate(row) if a != 0} for row in m]


def test_complex_dd_violation_reported():
    m = _columns(((F(1),),))
    with pytest.raises(ComplexError) as err:
        FiniteComplex(QQ, {0: ("a",), 1: ("b",), 2: ("c",)}, {0: m, 1: m})
    assert "entry (0,0)" in str(err.value)
    # d o d = ((0, 2), (5, 0)): the first nonzero entry in row-major order is (0,1)
    comps = {0: ("a0", "a1"), 1: ("b0", "b1"), 2: ("c0", "c1")}
    with pytest.raises(ComplexError) as err:
        FiniteComplex(QQ, comps, {0: _columns(((1, 0), (0, 1))), 1: _columns(((0, 2), (5, 0)))})
    assert "entry (0,1) from degree 0 equals 2" in str(err.value)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "GF5"])
def test_complex_dd_checked_across_a_gap(field):
    # C^0 -> C^1, no d_1, C^2 -> C^3 -> C^4: only the pair (2, 3) is walked
    half = field.inv(field.of_int(2))
    comps = {0: ("a0", "a1"), 1: ("b0",), 2: ("c0", "c1"), 3: ("d0", "d1"), 4: ("e0",)}
    d0 = _columns(((1, half),))
    d2 = _columns(((1, 0), (half, 0)))
    valid = FiniteComplex(field, comps, {0: d0, 2: d2, 3: _columns(((1, field.neg(field.of_int(2))),))})
    assert complex_cohomology(valid).dims() == {0: 1, 2: 1}
    # d_3 d_2 = (1 + 1/2, 0): the violation sits in the last pair only
    with pytest.raises(ComplexError) as err:
        FiniteComplex(field, comps, {0: d0, 2: d2, 3: _columns(((1, 1),))})
    assert str(err.value) == f"d o d != 0: entry (0,0) from degree 2 equals {field.add(field.one, half)}"


@pytest.mark.parametrize("field, integral, value", [
    (QQ, {0: ({0: {0: 3}, 1: {0: 1}}, 2), 1: ({0: {0: 1, 1: 5}}, 7)}, "3/14"),
    (GF(5), {0: ({0: {0: 3}, 1: {0: 1}}, 1), 1: ({0: {0: 1, 1: 2}}, 1)}, "3"),
    (GF(2), {0: ({0: {0: 3}, 1: {0: 1}}, 1), 1: ({0: {0: 1, 1: 3}}, 1)}, "1"),
], ids=["Q", "GF5", "GF2"])
def test_complex_dd_checked_on_the_int_path(field, integral, value):
    # _trusted takes int columns over one denominator per degree as they
    # are (over GF(2), the unreduced 3s); d o d != 0 there raises the
    # checked constructor's message
    comps = {0: ("a0", "a1"), 1: ("b0",), 2: ("c0", "c1")}
    diff = {q: {j: {i: field.ratio(a, den) for i, a in col.items()}
                for j, col in cols.items()} for q, (cols, den) in integral.items()}
    with pytest.raises(ComplexError) as checked:
        FiniteComplex(field, comps, diff)
    with pytest.raises(ComplexError) as trusted:
        FiniteComplex._trusted(field, comps, integral)
    assert str(trusted.value) == str(checked.value) == f"d o d != 0: entry (0,0) from degree 0 equals {value}"


def test_complex_entries_are_exact():
    # the float used to be accepted and only failed inside complex_cohomology
    comps = {0: ("a",), 1: ("b",)}
    for bad in (0.5, True):
        with pytest.raises(FieldError):
            FiniteComplex(QQ, comps, {0: {0: {0: bad}}})
    # over F_3 the entry 3 is zero: it is dropped, not kept unreduced
    gf3 = GF(3)
    c = FiniteComplex(gf3, comps, {0: {0: {0: 3}}})
    assert c.columns == {}
    assert complex_cohomology(c).dims() == {0: 1, 1: 1}
    assert FiniteComplex(gf3, comps, {0: {0: {0: 4}}}).columns == {0: {0: {0: 1}}}


def test_complex_shape_error():
    comps = {0: ("a",), 1: ("b",)}
    for diff in ({0: {1: {0: 1}}}, {0: {0: {1: 1}}}, {0: {0: {-1: 1}}}):
        with pytest.raises(ComplexError, match="wrong shape"):
            FiniteComplex(QQ, comps, diff)
    # a zero map is dropped before its shape is looked at
    assert FiniteComplex(QQ, comps, {0: {1: {0: 0}}}).columns == {}


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
        left_null = linalg._kernel(field, _rows(zip(*d0)) if n1 and n0 else [], n1)
        d1_rows = []
        for _ in range(n2):
            row = [field.zero] * n1
            for v in left_null:
                coeff = field.of_int(rng.randint(-2, 2))
                row = [field.add(a, field.mul(coeff, b)) for a, b in zip(row, dense(field, v, n1))]
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


def _complex(field, comps, diffs):
    return FiniteComplex(field, comps, {q: _columns(m) for q, m in diffs.items()})


def _ranks(c):
    """q -> rank of d_q, from the dense oracle."""
    return {q: naive_rank(c.field, dense_differential(c, q), len(c.components[q])) for q in c.columns}


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_complex_sparse_columns_match_dense(field):
    # the sparse columns are the dense matrices they came from, and class
    # coordinates agree with one dense solve over [representatives | image
    # columns of d_{q-1}]; a vector that is no cocycle has none
    for comps, diffs in _random_complexes(field):
        c = _complex(field, comps, diffs)
        h = complex_cohomology(c)
        for q in range(-1, 3):
            n = len(comps.get(q, ()))
            zero = tuple((field.zero,) * n for _ in comps.get(q + 1, ()))
            assert dense_differential(c, q) == diffs.get(q, zero)
            dense_reps = [dense(field, r, n) for r in reps(h, q)]
            prev = dense_differential(c, q - 1)
            for v in list(reps(h, q)) + [{j: field.one} for j in range(n)]:
                vd = dense(field, v, n)
                if any(a != 0 for a in _apply(field, dense_differential(c, q), vd)):
                    with pytest.raises(LinAlgError):
                        h.class_coords(q, v)
                    continue
                m = tuple(tuple(r[i] for r in dense_reps) + prev[i] for i in range(n))
                x = naive_solve(field, m, vd, len(dense_reps) + len(comps.get(q - 1, ())))
                assert h.class_coords(q, v) == {k: a for k, a in enumerate(x[:len(dense_reps)]) if a != 0}


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_euler_characteristic_random_complexes(field):
    wrng = random.Random(4)  # its own draws, so that the complexes stay the same
    for comps, diffs in _random_complexes(field):
        c = _complex(field, comps, diffs)
        h = complex_cohomology(c)
        chi_h = sum((-1) ** q * d for q, d in h.dims().items())
        assert euler_characteristic(c) == chi_h
        # dim H^q = dim C^q - rank d_q - rank d_{q-1}, ranks from the dense oracle
        ranks = _ranks(c)
        for q, labels in c.components.items():
            assert h.dims().get(q, 0) == len(labels) - ranks.get(q, 0) - ranks.get(q - 1, 0)
        # class coordinates: reps are the unit vectors, coboundaries do not
        # move a class, and a vector that is no cocycle has none
        for q, labels in c.components.items():
            prev = dense_differential(c, q - 1)
            for k, rep in enumerate(reps(h, q)):
                assert h.class_coords(q, rep) == {k: field.one}
                w = [field.of_int(wrng.randint(-2, 2)) for _ in c.components.get(q - 1, ())]
                moved = [field.add(a, b) for a, b in zip(dense(field, rep, len(labels)), _apply(field, prev, w))]
                assert h.class_coords(q, sparse(moved)) == {k: field.one}
            for j in range(len(labels)):
                v = tuple(field.one if i == j else field.zero for i in range(len(labels)))
                if any(a != 0 for a in _apply(field, dense_differential(c, q), v)):
                    with pytest.raises(LinAlgError):
                        h.class_coords(q, {j: field.one})


def _random_sparse_columns(field, rng, nrows, ncols):
    """Sparse columns of an nrows x ncols matrix, about half of them zero
    or combinations of earlier ones; over Q the entries are +-n/d with d up
    to 10^6."""
    def scalar():
        if field == QQ:
            return F(rng.choice((-1, 1)) * rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        return field.of_int(rng.randint(1, field.characteristic - 1))

    cols = []
    for _ in range(ncols):
        kind = rng.random()
        if kind < 0.15 or not nrows:
            col = {}
        elif kind < 0.45 and cols:
            col = {}
            for earlier in rng.sample(cols, min(len(cols), rng.randint(1, 3))):
                field.add_scaled(col, earlier, scalar())
        else:
            col = {i: scalar() for i in rng.sample(range(nrows), rng.randint(1, nrows))}
        cols.append(col)
    return {j: col for j, col in enumerate(cols) if col}


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=["Q", "GF2", "GF3", "GF5"])
def test_integer_ranks_match_the_dense_oracle(field):
    # dims() takes each rank from one fraction-free elimination, the same
    # over Q and F_p; on seeded random sparse maps C^0 -> C^1, with zero
    # and dependent columns, they equal the ranks of the dense naive_rref
    rng = random.Random(33)
    for _ in range(60):
        n0, n1 = rng.randint(1, 8), rng.randint(1, 8)
        c = FiniteComplex(field, {0: tuple(f"a{j}" for j in range(n0)), 1: tuple(f"b{i}" for i in range(n1))},
                          {0: _random_sparse_columns(field, rng, n1, n0)})
        rank = naive_rank(field, dense_differential(c, 0), n0)
        want = {0: n0 - rank, 1: n1 - rank}
        assert complex_cohomology(c).dims() == {q: d for q, d in want.items() if d}


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5), GF(2 ** 61 - 1)],
                         ids=["Q", "GF2", "GF3", "GF5", "GF-mersenne-61"])
def test_residue_and_ratio_read_the_integer_form(field):
    # an int n over a denominator d prime to p: ratio(n * d, d) is the
    # scalar n, and residue(n) is 0 exactly when that scalar is, negative n
    # and multiples of p included
    p = field.characteristic
    rng = random.Random(34)
    ns = [0, 1, -1, p, -p, 2 * p + 1, -3 * p - 2] + [rng.randint(-10 ** 30, 10 ** 30) for _ in range(50)]
    dens = [d for d in (1, 2, 3, 7, 10, 2 ** 61 - 2, 10 ** 25 + 1) if not p or d % p]
    for n in ns:
        assert (field.residue(n) == 0) == (field.of_int(n) == 0)
        assert field.residue(n) == (n % p if p else n)
        for d in dens:
            assert field.ratio(n * d, d) == field.of_int(n)
    for d in dens:
        assert field.ratio(1, d) == field.inv(field.of_int(d))


def _presented_eagerly(c):
    """H^q of ``c`` presented eagerly from its dense matrices: the image
    columns of d_{q-1} as denominator, the kernel basis of d_q as candidates."""
    groups = {}
    for q, labels in sorted(c.components.items()):
        image = _rows(zip(*dense_differential(c, q - 1)))
        kernel = linalg._kernel(c.field, _rows(dense_differential(c, q)), len(labels))
        groups[q] = QuotientPresentation(GradedSpace(labels, (q,) * len(labels)), c.field,
                                         linalg._Echelon(c.field, image), kernel)
    return groups


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
def test_cohomology_dims_from_ranks_present_classes_on_demand(field, monkeypatch):
    complexes = [_complex(field, comps, diffs) for comps, diffs in _random_complexes(field)]
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
        ranks = _ranks(c)
        want = {q: len(labels) - ranks.get(q, 0) - ranks.get(q - 1, 0)
                for q, labels in sorted(c.components.items())}
        assert h.dims() == {q: d for q, d in want.items() if d}
        assert not built  # dimensions alone present nothing

        def check_classes(q):
            units = [{j: field.one} for j in range(len(c.components[q]))]
            for v in list(eager[q].reps) + units:
                try:
                    expected = eager[q].project_strict(v)
                except LinAlgError:
                    with pytest.raises(LinAlgError):
                        h.class_coords(q, v)
                else:
                    assert h.class_coords(q, v) == expected

        degrees = list(c.components)
        if degrees:  # the first class asked for presents its degree alone
            check_classes(degrees[0])
            assert built == Counter({"kernel": 1, "presentation": 1})
        groups = h.groups  # and the all-degrees view presents the rest
        assert built == Counter({"kernel": len(degrees), "presentation": len(degrees)})
        for q in degrees[1:]:
            check_classes(q)
        assert built == Counter({"kernel": len(degrees), "presentation": len(degrees)})
        assert {q: g.dim for q, g in groups.items() if g.dim} == h.dims()
        assert {q: g.reps for q, g in h.groups.items()} == {q: g.reps for q, g in eager.items()}
        assert c.columns == columns  # the echelons inserted copies of the columns


def test_cohomology_presentation_checked_against_ranks():
    c = FiniteComplex(QQ, {0: ("a",), 1: ("b", "c")}, {0: {0: {0: F(1)}}})
    h = complex_cohomology(c)
    assert h.dims() == {1: 1}
    h._dims[1] = 2  # a rank that disagrees with the presentation
    with pytest.raises(LinAlgError, match="ranks give 2"):
        h.group(1)
