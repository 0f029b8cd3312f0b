import random
from fractions import Fraction
from pathlib import Path

import pytest

from ainfbench import GF, QQ
from ainfbench.ainf import algebra, check_stasheff, validate_structure
import ainfbench.filtration as filtration
from ainfbench.filtration import (
    AppendixParams,
    Filtration,
    FiltrationError,
    RadicalError,
    appendix_filtration,
    check_filtration,
    degree_filtration,
    full_subspace,
    quotient_by_ideal,
    radical,
    subspace_product,
    zero_subspace,
)
from ainfbench.linalg import GradedSpace, Subspace
from ainfbench.specfile import parse_spec

from .corpus import (
    beilinson_algebra,
    dual_numbers,
    ideal_power,
    k_times_k,
    random_associative_algebra,
    random_filtered_algebra,
    random_nilpotent_algebra,
    rescaled,
    toy_algebra,
    trivial_extension,
    truncated_polynomial,
    unital_m2,
    upper_triangular_2,
    upper_triangular_3,
)
from .oracles import naive_filtration_report, naive_quotient_table, naive_radical, nilpotency_index

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def unit_vectors(alg, labels):
    obj = alg.objects[0]
    space = alg.hom[(obj, obj)]
    return [{space.index(lab): alg.field.one} for lab in labels]


def span_of(alg, labels):
    obj = alg.objects[0]
    return Subspace(alg.hom[(obj, obj)], alg.field, unit_vectors(alg, labels))


def test_trivial_filtration_passes():
    alg = dual_numbers()
    filt = Filtration(alg, [full_subspace(alg), zero_subspace(alg)])
    assert check_filtration(alg, filt).passed


def test_toy_appendix_style_filtration_passes():
    toy = toy_algebra()
    levels = [
        span_of(toy, ["1", "e", "t"]),
        span_of(toy, ["e", "t"]),
        span_of(toy, ["t"]),
        span_of(toy, ["t"]),
        zero_subspace(toy),
    ]
    filt = Filtration(toy, levels)
    assert check_filtration(toy, filt).passed


def test_bad_filtration_witness():
    toy = toy_algebra()
    levels = [
        span_of(toy, ["1", "e", "t"]),
        span_of(toy, ["1", "t"]),  # contains the unit: m_2(F^1, F^1) escapes F^2
        span_of(toy, ["t"]),
        span_of(toy, ["t"]),
        zero_subspace(toy),
    ]
    filt = Filtration(toy, levels)
    report = check_filtration(toy, filt)
    assert not report.passed
    compat = report.check("compatibility")
    assert not compat.passed
    assert any(w["tuple"] == [1, 1] for w in compat.witnesses)


X6 = ["1", "x1", "x2", "x3", "x4", "x5"]


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
@pytest.mark.parametrize(
    "make, levels",
    [
        # F^1 shrunk to span(e): m_3(e, e, e) = t escapes it at indices (0, 0, 1),
        # after the same product passed at (0, 0, 0) into F^0
        (toy_algebra, [["1", "e", "t"], ["e"], ["t"], ["t"], []]),
        # F^2 shrunk to F^3: x1 * x1 = x2 escapes it, after passing into F^0 and F^1
        (lambda field: truncated_polynomial(6, field),
         [X6, X6[1:], X6[3:], X6[3:], X6[4:], X6[5:], []]),
    ],
    ids=["toy", "x6"],
)
def test_check_filtration_matches_naive_sweep(field, make, levels):
    alg = make(field)
    filt = Filtration(alg, [span_of(alg, labels) for labels in levels])
    report = check_filtration(alg, filt).to_json()
    assert not report["passed"] and report["checks"][-1]["witnesses"]
    assert report == naive_filtration_report(alg, filt)


def test_degree_filtration_degree_zero_algebra():
    alg = dual_numbers()
    filt = degree_filtration(alg)
    assert filt.n == 1
    assert filt.dims() == (2, 0)
    assert check_filtration(alg, filt).passed


def test_degree_filtration_toy():
    toy = toy_algebra()
    filt = degree_filtration(toy)
    assert filt.n == 2
    assert filt.dims() == (3, 1, 0)
    assert filt.levels[1] == span_of(toy, ["t"])
    assert check_filtration(toy, filt).passed


def test_degree_filtration_three_degrees():
    alg = algebra(
        QQ,
        [("1", 0), ("u", -1), ("v", -2)],
        "1",
        {2: unital_m2(["1", "u", "v"], "1", {("u", "u"): {"v": 1}})},
    )
    assert validate_structure(alg).passed and check_stasheff(alg).passed
    filt = degree_filtration(alg)
    assert filt.n == 3
    assert filt.levels[2] == span_of(alg, ["v"])
    assert check_filtration(alg, filt).passed


def test_degree_filtration_rejects_positive_degrees():
    alg = algebra(QQ, [("1", 0), ("s", 1)], "1", {2: unital_m2(["1", "s"], "1", {})})
    with pytest.raises(FiltrationError):
        degree_filtration(alg)


def test_radical_semisimple():
    assert radical(k_times_k()).dim == 0


def test_radical_dual_numbers():
    alg = dual_numbers()
    j = radical(alg)
    assert j == span_of(alg, ["e"])


def test_radical_upper_triangular():
    # trace-form kernel computed by hand: the strictly upper triangular part
    alg = upper_triangular_2()
    j = radical(alg)
    assert j.dim == 1
    assert j == span_of(alg, ["x"])


def test_radical_of_dual_numbers_over_prime_fields():
    # trace(L_1) = 2: over GF(5) the trace kernel is span(e), nilpotent, so
    # it is the radical; over GF(2) it is everything, and radical() refuses
    alg = dual_numbers(GF(5))
    assert radical(alg) == span_of(alg, ["e"])
    with pytest.raises(FiltrationError, match="not nilpotent"):
        radical(dual_numbers(GF(2)))


def test_radical_invariants_random():
    rng = random.Random(23)
    for _ in range(10):
        alg, xs, ys = random_nilpotent_algebra(rng)
        j = radical(alg)
        assert j == span_of(alg, xs + ys)
        # ideal property
        full = full_subspace(alg)
        assert j.contains_subspace(subspace_product(alg, full, j))
        assert j.contains_subspace(subspace_product(alg, j, full))
        a = nilpotency_index(alg, j)
        assert ideal_power_dim(alg, j, a) == 0
        quotient, _ = quotient_by_ideal(alg, j)
        assert radical(quotient).dim == 0


def test_appendix_builds_each_radical_power_once(monkeypatch):
    # k[x]/x^6: a = 6 and no degree -kappa part, so the levels are the powers
    # J^p themselves.  They are the powers of radical()'s nilpotency check on
    # the degree-0 copy: one chain J^2, ..., J^6 through one product table,
    # with no subspace_product call and no second chain on r
    import ainfbench.filtration as filtration

    r = truncated_polynomial(6)
    chains, calls = [], []
    powers, product = filtration._powers, filtration.subspace_product
    monkeypatch.setattr(filtration, "_powers", lambda alg, j: chains.append((alg, powers(alg, j))) or chains[-1][1])
    monkeypatch.setattr(filtration, "subspace_product", lambda alg, s, t: calls.append(alg) or product(alg, s, t))
    filt, params = appendix_filtration(r, 1)
    assert params.nil_index == 6 and filt.dims() == (6, 5, 4, 3, 2, 1, 0)
    assert len(chains) == 1 and chains[0][0] is not r
    assert [p.dim for p in chains[0][1]] == [6, 5, 4, 3, 2, 1, 0]
    assert calls == []
    assert nilpotency_index(r, params.radical) == 6


def _degree_zero_part(alg):
    obj = alg.objects[0]
    space = alg.hom[(obj, obj)]
    labels = [lab for lab, d in zip(space.labels, space.degrees) if d == 0]
    m2 = {key: vec for key, vec in alg.mult[2].items() if all(lab in labels for lab in key)}
    return algebra(alg.field, [(lab, 0) for lab in labels], alg.units[obj], {2: m2})


def _radical_corpus():
    cases = [(f"x{m}", lambda m=m: truncated_polynomial(m)) for m in range(2, 9)]
    cases += [(f"trivex{a}", lambda a=a: trivial_extension(a, 0)) for a in (2, 3, 4)]
    cases += [
        ("toy0", lambda: _degree_zero_part(toy_algebra())),
        ("ut2", upper_triangular_2),
        ("ut3", upper_triangular_3),
        ("kxk", k_times_k),
    ]
    rng = random.Random(31)
    cases += [(f"random{i}", lambda alg=random_associative_algebra(rng): alg) for i in range(8)]
    cases += [(f"beilinson{d}", lambda d=d: beilinson_algebra(d)) for d in (2, 3)]
    return cases


@pytest.mark.parametrize("make", [pytest.param(make, id=name) for name, make in _radical_corpus()])
def test_radical_matches_fixed_point_oracle(make):
    alg = make()
    assert radical(alg) == naive_radical(alg)


def test_radical_takes_one_quotient_and_two_trace_kernels(monkeypatch):
    import ainfbench.filtration as filtration

    calls = []
    for name in ("quotient_by_ideal", "_trace_kernel"):
        f = getattr(filtration, name)
        monkeypatch.setattr(filtration, name, lambda *args, f=f, name=name, **kw: calls.append(name) or f(*args, **kw))
    for alg in (truncated_polynomial(6), beilinson_algebra(2), upper_triangular_3()):
        calls.clear()
        assert radical(alg).dim > 0
        assert sorted(calls) == ["_trace_kernel", "_trace_kernel", "quotient_by_ideal"]


def test_radical_refuses_trace_kernel_with_non_semisimple_quotient():
    # not associative: (a1 a1) a0 = 0 but a1 (a1 a0) = a0.  The trace kernel
    # span(a0) is an ideal, but R/J is the dual numbers, with trace kernel
    # span(a1): the fixed-point loop grows J by it, radical() refuses
    labels = ["1", "a0", "a1"]
    alg = algebra(QQ, [(lab, 0) for lab in labels], "1",
                  {2: unital_m2(labels, "1", {("a1", "a0"): {"a0": -1}})})
    assert naive_radical(alg) == span_of(alg, ["a0", "a1"])
    with pytest.raises(RadicalError, match="nonzero trace kernel") as err:
        radical(alg)
    # the witness is the kernel vector of R/J, the class of a1
    assert list(err.value.witness["vector"]) == ["rq:a1"]


def test_radical_witness_lists_labels_in_index_order(monkeypatch):
    # a sparse kernel vector holds its free column first, then the pivots;
    # the refusal's witness still lists its labels in ascending index order
    labels = ["1", "a0", "a1"]
    alg = algebra(QQ, [(lab, 0) for lab in labels], "1",
                  {2: unital_m2(labels, "1", {("a1", "a0"): {"a0": -1}})})
    trace_kernel = filtration._trace_kernel

    def unordered(a):
        kernel = trace_kernel(a)
        if a is alg:
            return kernel
        assert kernel == [{1: QQ.one}]  # the class of a1, as above
        return [{1: QQ.one, 0: QQ.of_int(2)}]

    monkeypatch.setattr(filtration, "_trace_kernel", unordered)
    with pytest.raises(RadicalError, match="nonzero trace kernel") as err:
        radical(alg)
    assert err.value.witness["vector"] == {"rq:1": "2", "rq:a1": "1"}
    assert list(err.value.witness["vector"]) == ["rq:1", "rq:a1"]


def test_radical_refuses_nonassociative_fixture():
    # x*x = y and x*y = x: the trace kernel span(x, y) is an ideal with
    # semisimple quotient k, but it is its own square, so not nilpotent
    alg = parse_spec(FIXTURES / "nonassoc.json").category
    with pytest.raises(RadicalError, match="not nilpotent") as err:
        radical(alg)
    dim = alg.hom[(alg.objects[0],) * 2].dim
    assert err.value.witness["reason"] == f"J^{dim + 1} != 0" and err.value.witness["vector"]


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
def test_power_chain_matches_iterated_products(field):
    # the chain shares one product table and enters each distinct product
    # once; products here are combinations of several y's, so products with
    # one support need not be proportional
    from ainfbench.filtration import _powers

    rng = random.Random(f"powers:{field.characteristic}")
    for _ in range(8):
        alg, xs, ys = random_nilpotent_algebra(rng, field, max_x=3, max_y=3)
        j = span_of(alg, xs + ys)
        chain = _powers(alg, j)
        assert chain[1:] == [ideal_power(alg, j, k) for k in range(1, len(chain))]


def test_nilpotency_index_refuses_non_nilpotent():
    # the power chain that gives the nilpotency index (its length minus one)
    # refuses a subspace that is not nilpotent, with a nonzero vector of
    # J^(dim R + 1) as witness
    from ainfbench.filtration import _powers

    alg = dual_numbers()
    assert len(_powers(alg, zero_subspace(alg))) - 1 == 1
    with pytest.raises(RadicalError, match="not nilpotent") as err:
        _powers(alg, full_subspace(alg))
    assert err.value.witness["reason"] == "J^3 != 0" and err.value.witness["vector"]


def ideal_power_dim(alg, j, k):
    return ideal_power(alg, j, k).dim


def test_appendix_filtration_toy():
    toy = toy_algebra()
    filt, params = appendix_filtration(toy, kappa=1)
    assert isinstance(params, AppendixParams)
    assert params.radical == span_of(toy, ["e"])
    assert params.nil_index == 2
    assert params.big_n == 3
    assert filt.n == 4
    assert filt.dims() == (3, 2, 1, 1, 0)
    assert filt.levels[1] == span_of(toy, ["e", "t"])
    assert filt.levels[2] == span_of(toy, ["t"])
    assert check_filtration(toy, filt).passed
    rbar, _ = quotient_by_ideal(toy, filt.levels[1])
    assert rbar.total_dim() == 1
    assert radical(rbar).dim == 0


def test_appendix_filtration_semisimple_trivial():
    alg = k_times_k()
    filt, params = appendix_filtration(alg, kappa=1)
    assert params.radical.dim == 0
    assert params.nil_index == 1
    assert params.big_n == 0
    assert filt.n == 1
    assert filt.dims() == (2, 0)
    assert check_filtration(alg, filt).passed


def test_appendix_filtration_nonassociative_levels():
    # Degree-0 part k[e], degree -1 part k*t with e*t = t, t*e = 0 and no
    # higher product.  This is not associative ((e*e)*t = 0 but e*(e*t) = t),
    # so the recursion M_q = J M_{q-1} + M_{q-1} J never vanishes: M_q = k*t
    # for every q >= 1.  The levels stop at level N + 2a - 1, where M_q = 0
    # on every associative input, and the chain fails its certificate there.
    alg = algebra(
        QQ,
        [("1", 0), ("e", 0), ("t", -1)],
        "1",
        {2: unital_m2(["1", "e", "t"], "1", {("e", "t"): {"t": 1}})},
    )
    assert not check_stasheff(alg, n_max=3).passed  # genuinely non-associative
    filt, params = appendix_filtration(alg, kappa=1)
    assert params.nil_index == 2 and params.big_n == 3
    assert filt.n == 6
    assert filt.dims() == (3, 2, 1, 1, 1, 1, 1)
    report = check_filtration(alg, filt)
    assert [c.name for c in report.checks if not c.passed] == ["fn_zero"]


def test_appendix_filtration_semisimple_with_lower_part():
    # semisimple degree-0 part with nonzero R_{-kappa}: N is raised to 1
    alg = algebra(
        QQ,
        [("1", 0), ("t", -2)],
        "1",
        {2: unital_m2(["1", "t"], "1", {})},
    )
    filt, params = appendix_filtration(alg, kappa=2)
    assert params.nil_index == 1
    assert params.big_n == 1
    assert filt.dims() == (2, 1, 0)
    assert check_filtration(alg, filt).passed
    rbar, _ = quotient_by_ideal(alg, filt.levels[1])
    assert radical(rbar).dim == 0


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["Q", "GF3", "GF5"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_appendix_recursion_multiplies_on_both_sides(field, side):
    # k[x]/x^2 in degree 0 and y, z in degree -1, with x acting on one side
    # only: x*y = z (left) or y*x = z (right), every other product of x, y,
    # z zero.  M_1 = J R_{-1} + R_{-1} J = span(z) needs that side's product
    # and M_2 = 0: levels R, J + R_{-1}, then R_{-1} up to N = 3, M_1, 0.
    key = ("x", "y") if side == "left" else ("y", "x")
    alg = algebra(field, [("1", 0), ("x", 0), ("y", -1), ("z", -1)], "1",
                  {2: unital_m2(["1", "x", "y", "z"], "1", {key: {"z": 1}}, field)})
    assert validate_structure(alg).passed and check_stasheff(alg).passed
    filt, params = appendix_filtration(alg, kappa=1)
    assert (params.nil_index, params.big_n) == (2, 3)
    assert filt.dims() == (4, 3, 2, 2, 1, 0)
    assert filt.levels[4] == span_of(alg, ["z"])
    assert check_filtration(alg, filt).passed


def test_appendix_rejects_bad_grading():
    toy = toy_algebra()
    with pytest.raises(FiltrationError):
        appendix_filtration(toy, kappa=2)  # t sits in degree -1, not -2


def test_appendix_filtration_toy_over_prime_fields():
    # the degree-0 part is the dual numbers: over GF(7) the levels are those
    # over Q, over GF(2) the trace kernel is not nilpotent
    toy = toy_algebra(GF(7))
    filt, params = appendix_filtration(toy, kappa=1)
    assert params.radical == span_of(toy, ["e"]) and params.nil_index == 2
    assert filt.dims() == (3, 2, 1, 1, 0) and check_filtration(toy, filt).passed
    with pytest.raises(FiltrationError, match="not nilpotent"):
        appendix_filtration(toy_algebra(GF(2)), kappa=1)


def test_quotient_algebra_is_associative_unital():
    toy = toy_algebra()
    filt, _ = appendix_filtration(toy, kappa=1)
    rbar, pres = quotient_by_ideal(toy, filt.levels[1])
    assert validate_structure(rbar).passed
    assert check_stasheff(rbar).passed
    # induced higher products vanish on the quotient here
    assert all(p == 2 for p in rbar.mult)


def test_random_filtered_algebras_pass():
    rng = random.Random(5)
    for _ in range(6):
        alg, filt = random_filtered_algebra(rng)
        assert check_filtration(alg, filt).passed
        assert 2 <= filt.n <= 5


def _filtration_over(field, make, kappa):
    """``make(field)`` with its appendix filtration (its degree filtration
    when ``kappa`` is None).  Where F_p refuses the trace kernel, the
    rational filtration's levels are taken instead: they are spanned by basis
    vectors, so they read the same over every field."""
    alg = make(field)
    if kappa is None:
        return alg, degree_filtration(alg)
    try:
        return alg, appendix_filtration(alg, kappa)[0]
    except RadicalError:
        pass
    rational = appendix_filtration(make(QQ), kappa)[0]
    assert all(set(row.values()) == {1} for lv in rational.levels for row in lv.rows)
    space = alg.hom[(alg.objects[0],) * 2]
    return alg, Filtration(alg, [Subspace(space, field, [dict.fromkeys(row, field.one) for row in lv.rows])
                                 for lv in rational.levels])


FLAG_ORACLE_CASES = {
    "toy-appendix": (toy_algebra, 1),
    "toy-degree": (toy_algebra, None),
    "x6-appendix": (lambda field: truncated_polynomial(6, field), 1),
    "trivext-3-1-appendix": (lambda field: trivial_extension(3, 1, field), 1),
    "trivext-3-1-degree": (lambda field: trivial_extension(3, 1, field), None),
    "trivext-3-2-appendix": (lambda field: trivial_extension(3, 2, field), 2),
    "beilinson-2": (lambda field: beilinson_algebra(2, field), 1),
    "beilinson-3": (lambda field: beilinson_algebra(3, field), 1),
}


def _flag_oracle_inputs():
    for field in (QQ, GF(3), GF(5)):
        fid = "Q" if field == QQ else f"GF{field.characteristic}"
        for name in FLAG_ORACLE_CASES:
            yield pytest.param(field, name, id=f"{name}-{fid}")
        for k in range(2):
            yield pytest.param(field, k, id=f"random-{k}-{fid}")


def _perturbed(alg, filt, rng):
    """``filt`` with one level F^k, 1 <= k <= n, grown by one vector outside
    it, of one or two basis vectors with random nonzero coefficients."""
    field, space, levels = alg.field, filt.levels[0].ambient, list(filt.levels)
    k = rng.randint(1, filt.n)
    while True:
        vector = {i: field.coerce(rng.choice((1, -1, 2)))
                  for i in rng.sample(range(space.dim), min(space.dim, rng.randint(1, 2)))}
        if not levels[k].contains(vector):
            break
    levels[k] = Subspace(space, field, list(levels[k].rows) + [vector])
    return Filtration(alg, levels)


@pytest.mark.parametrize("field, case", list(_flag_oracle_inputs()))
def test_flag_proof_matches_naive_report(field, case):
    # on every input the report, decided by the flag proof, is the naive
    # sweep's; so is a seeded perturbation of one level, whose FAIL report
    # the witness listers write; the flag proves compatibility exactly when
    # the naive levels decrease to F^n = 0 and the products respect them
    if isinstance(case, int):
        rng = random.Random(f"flag-oracle:{field.characteristic}")
        for _ in range(case + 1):
            alg, filt = random_filtered_algebra(rng, field)
    else:
        alg, filt = _filtration_over(field, *FLAG_ORACLE_CASES[case])
    perturbed = _perturbed(alg, filt, random.Random(f"perturb:{case}:{field.characteristic}"))
    for f, passes in ((filt, True), (perturbed, False)):
        naive = naive_filtration_report(alg, f)
        assert naive["passed"] is passes
        assert check_filtration(alg, f).to_json() == naive
        proved = all(c["passed"] for c in naive["checks"] if c["name"] in ("fn_zero", "decreasing", "compatibility"))
        assert f._flag(alg).compatible is proved


def test_quotient_by_ideal_rejects_foreign_ambient():
    toy = toy_algebra()
    other_dim = Subspace(GradedSpace(("a", "b"), (0, 0)), QQ, [{1: 1}])
    other_labels = Subspace(GradedSpace(("a", "b", "c"), (0, 0, -1)), QQ, [{2: 1}])
    for ideal in (other_dim, other_labels):
        with pytest.raises(FiltrationError, match="not a subspace of the algebra"):
            quotient_by_ideal(toy, ideal)


def test_quotient_by_ideal_rejects_non_ideal():
    toy = toy_algebra()
    with pytest.raises(FiltrationError) as err:
        quotient_by_ideal(toy, span_of(toy, ["e"]))
    assert str(err.value) == "subspace is not an ideal: m_3 escapes it (slot 0)"


def _quotient_cases(field):
    toy = toy_algebra(field)
    yield toy, ["t"]
    yield toy, ["e", "t"]  # F^1 of the appendix filtration
    x6 = rescaled(truncated_polynomial(6, field), random.Random(f"quotient:{field.characteristic}"))
    for k in range(1, 6):
        yield x6, X6[k:]  # J^k
    rng = random.Random(f"quotient-nilpotent:{field.characteristic}")
    for _ in range(3):
        alg, xs, ys = random_nilpotent_algebra(rng, field)
        yield alg, xs + ys  # the radical
        yield alg, ys


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
def test_quotient_tables_match_naive_oracle(field):
    for alg, labels in _quotient_cases(field):
        quotient, q = quotient_by_ideal(alg, span_of(alg, labels))
        assert quotient.mult == naive_quotient_table(alg, quotient, q)
        assert quotient.total_dim() == alg.total_dim() - len(labels)
