import gc
import hashlib
import itertools
import json
import random
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from ainfbench import GF, QQ
from ainfbench.ainf import AInfCategory, check_stasheff, validate_structure
import ainfbench.auslander as auslander
from ainfbench.auslander import AuslanderError, build_auslander
from ainfbench.filtration import (
    Filtration,
    appendix_filtration,
    check_filtration,
    degree_filtration,
    full_subspace,
    quotient_by_ideal,
    zero_subspace,
)
from ainfbench.linalg import QuotientPresentation, Subspace
from ainfbench.perfmod import sod_report
from ainfbench.specfile import category_to_dict, serialize

from .corpus import (
    LARGE_DENOMINATORS,
    beilinson_algebra,
    dual_numbers,
    full_subcategory,
    incompatible_filtration,
    random_filtered_algebra,
    rescaled,
    toy_algebra,
    trivial_extension,
    truncated_polynomial,
)
from .oracles import (
    check_index_inequalities_exhaustive,
    degree_dims,
    embed_generator,
    index_inequality_denominators,
    index_inequality_telescoping,
    least_slack_brute_force,
    least_slack_by_prefixes,
    lift_independence_sampled,
    naive_gamma_table,
)

F = Fraction
GAMMA_GOLDEN = Path(__file__).parent / "gamma_golden.json"


@pytest.fixture(scope="module")
def toy_gamma():
    toy = toy_algebra()
    filt, _ = appendix_filtration(toy, kappa=1)
    return build_auslander(toy, filt)


def test_degenerate_single_object():
    alg = dual_numbers()
    filt = Filtration(alg, [full_subspace(alg), zero_subspace(alg)])
    aus = build_auslander(alg, filt)
    assert aus.n == 1
    assert aus.gamma.objects == (0,)
    assert aus.gamma.total_dim() == alg.total_dim()
    mapping = embed_generator(aus)
    assert len(mapping) == 2


def test_toy_gamma_hom_dims(toy_gamma):
    # rowwise dims of hom(j -> i), from level dims (3,2,1,1,0)
    assert toy_gamma.hom_dims() == (
        (3, 2, 1, 1),
        (2, 2, 1, 0),
        (2, 2, 2, 1),
        (1, 1, 1, 1),
    )
    assert toy_gamma.gamma.total_dim() == 23


def test_toy_gamma_valid_ainf(toy_gamma):
    gamma = toy_gamma.gamma
    assert validate_structure(gamma).passed
    report = check_stasheff(gamma)  # arity bound 3 -> n_max 5
    assert report.passed, report.to_json()


def test_toy_gamma_grading(toy_gamma):
    filt = toy_gamma.filtration
    n = toy_gamma.n
    for i in range(n):
        for j in range(n):
            num = degree_dims(filt.level(max(j - i, 0)))
            den = degree_dims(filt.level(n - i))
            want = {
                d: num.get(d, 0) - den.get(d, 0)
                for d in set(num) | set(den)
                if num.get(d, 0) - den.get(d, 0) > 0
            }
            space = toy_gamma.gamma.hom[(j, i)]
            got: dict = {}
            for d in space.degrees:
                got[d] = got.get(d, 0) + 1
            assert got == want


def test_embed_generator_toy(toy_gamma):
    mapping = embed_generator(toy_gamma)
    assert set(mapping) == {"1", "e", "t"}
    gamma00 = full_subcategory(toy_gamma.gamma, (0,))
    assert gamma00.total_dim() == 3


def test_padded_filtration_changes_gamma():
    alg = dual_numbers()
    z = zero_subspace(alg)
    padded = Filtration(alg, [full_subspace(alg), z, z])
    aus = build_auslander(alg, padded)
    assert aus.n == 2
    d = alg.total_dim()
    assert aus.hom_dims() == ((d, 0), (d, d))
    assert check_stasheff(aus.gamma).passed


def test_lift_independence_toy(toy_gamma):
    assert lift_independence_sampled(toy_gamma, trials=50, rng=random.Random(42))


def test_index_inequality_single_tuples():
    assert index_inequality_telescoping((0, 3, 1, 2))
    assert index_inequality_telescoping((2, 0))
    assert index_inequality_telescoping((0, 0, 0))


def test_index_inequalities_exhaustive_small():
    assert check_index_inequalities_exhaustive(n_max=5, p_max=4)


@pytest.mark.parametrize("n", range(1, 7))
def test_least_slack_matches_brute_force(n):
    # the index inequalities are a theorem (the auslander docstring), tight
    # at the constant chains: the brute-force least slacks are exactly
    # (0, 0), every chain passes both inequalities one at a time, and the
    # prefix walk behind the exhaustive check gives the same slacks
    for p in range(1, 5):
        assert least_slack_brute_force(n, p) == least_slack_by_prefixes(n, p) == (0, 0)
        chains = itertools.product(range(n), repeat=p + 1)
        assert all(index_inequality_telescoping(c) and index_inequality_denominators(c, n) for c in chains)


def test_degree_filtration_gamma_toy():
    toy = toy_algebra()
    filt = degree_filtration(toy)
    aus = build_auslander(toy, filt)
    assert aus.n == 2
    assert aus.hom_dims() == ((3, 1), (2, 2))
    assert check_stasheff(aus.gamma).passed
    embed_generator(aus)


def test_random_filtered_gammas_pass():
    rng = random.Random(17)
    for _ in range(4):
        alg, filt = random_filtered_algebra(rng)
        aus = build_auslander(alg, filt)
        assert validate_structure(aus.gamma).passed
        assert check_stasheff(aus.gamma).passed
        assert lift_independence_sampled(aus, trials=20, rng=rng)
        embed_generator(aus)


def _oracle_cases():
    toy = toy_algebra()
    x6 = rescaled(truncated_polynomial(6), random.Random(6))
    x6_large = rescaled(truncated_polynomial(6), random.Random(66), LARGE_DENOMINATORS)
    triv = trivial_extension(3, 1)
    p2 = beilinson_algebra(2)
    yield pytest.param(toy, appendix_filtration(toy, kappa=1)[0], id="toy-appendix")
    yield pytest.param(toy, degree_filtration(toy), id="toy-degree")
    yield pytest.param(x6, appendix_filtration(x6, kappa=1)[0], id="x6-radical")
    yield pytest.param(x6_large, appendix_filtration(x6_large, kappa=1)[0], id="x6-large-denominators")
    yield pytest.param(triv, appendix_filtration(triv, kappa=1)[0], id="trivext-3-1")
    yield pytest.param(p2, appendix_filtration(p2, kappa=1)[0], id="beilinson-2")
    # prime fields draw random filtrations
    for field, draws in ((QQ, 3), (GF(3), 3), (GF(5), 1)):
        rng = random.Random(f"gamma-oracle:{field.characteristic}")
        for k in range(draws):
            yield pytest.param(*random_filtered_algebra(rng, field),
                               id=f"random-{field.characteristic}-{k}")


@pytest.mark.parametrize("alg, filt", list(_oracle_cases()))
def test_lift_independence_sampled(alg, filt):
    # the build proves it; random lifts in every argument only sample it
    aus = build_auslander(alg, filt)
    assert lift_independence_sampled(aus, trials=30, rng=random.Random(f"lifts:{aus.n}"))


def test_lift_sampler_sees_an_incompatible_filtration(monkeypatch):
    # the build refuses the filtration; forced past its flag proof, it
    # builds a Gamma whose products depend on the lifts, which the sampler
    # must see
    alg, filt = incompatible_filtration()
    assert not check_filtration(alg, filt).passed
    with pytest.raises(AuslanderError, match="not compatible with the products"):
        build_auslander(alg, filt)
    monkeypatch.setattr(filt._flag(alg), "compatible", True)
    assert not lift_independence_sampled(build_auslander(alg, filt), trials=50, rng=random.Random(1))


def _ordered(table):
    """A product table as nested lists: key order and entry order both count."""
    return [(key, list(entry.items())) for key, entry in table.items()]


@pytest.mark.parametrize("alg, filt", list(_oracle_cases()))
def test_gamma_matches_naive_table(alg, filt):
    aus = build_auslander(alg, filt)
    naive = naive_gamma_table(aus)
    assert aus.gamma.mult  # not vacuous
    assert aus.gamma.mult == naive
    assert list(aus.gamma.mult) == list(naive)
    for p in naive:  # dict == ignores order
        assert _ordered(aus.gamma.mult[p]) == _ordered(naive[p])


def _appendix_case(alg, kappa=1):
    return alg, appendix_filtration(alg, kappa)[0]


def _gf3_random(seed):
    return random_filtered_algebra(random.Random(f"gamma-golden:{seed}"), GF(3))


GAMMA_GOLDEN_CASES = {
    "toy/Q": lambda: _appendix_case(toy_algebra()),
    "x6-rescaled/Q": lambda: _appendix_case(rescaled(truncated_polynomial(6), random.Random(6))),
    "trivext-3-1/Q": lambda: _appendix_case(trivial_extension(3, 1)),
    "trivext-3-2/Q": lambda: _appendix_case(trivial_extension(3, 2), 2),
    "beilinson-2/Q": lambda: _appendix_case(beilinson_algebra(2)),
    "toy-degree/GF3": lambda: (toy_algebra(GF(3)), degree_filtration(toy_algebra(GF(3)))),
    "random-1/GF3": lambda: _gf3_random(1),
    "random-2/GF3": lambda: _gf3_random(2),
}


def gamma_digest(alg, filt) -> str:
    """sha256 of Gamma as ``gamma build`` writes it."""
    gamma = build_auslander(alg, filt).gamma
    return hashlib.sha256(serialize(category_to_dict(gamma)).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", list(GAMMA_GOLDEN_CASES))
def test_gamma_matches_golden_digest(case):
    """Gamma, serialized byte for byte, equals the one recorded in
    ``gamma_golden.json`` by the build before the lockstep product loop and
    the sparse strict projection."""
    golden = json.loads(GAMMA_GOLDEN.read_text(encoding="utf-8"))
    assert gamma_digest(*GAMMA_GOLDEN_CASES[case]()) == golden[case]


def test_sweeps_evaluate_each_product_once(monkeypatch):
    # the filtration check and the ideal check with the induced tables each
    # meet the same argument tuples many times over
    alg = rescaled(truncated_polynomial(6), random.Random(8))
    filt, _ = appendix_filtration(alg, kappa=1)
    calls = Counter()
    apply = AInfCategory.apply

    def counting(self, p, args):
        calls[(p, tuple(tuple(sorted(a.items())) for a in args))] += 1
        return apply(self, p, args)

    monkeypatch.setattr(AInfCategory, "apply", counting)
    for sweep in (lambda: check_filtration(alg, filt),
                  lambda: quotient_by_ideal(alg, filt.levels[1])):
        calls.clear()
        sweep()
        assert calls and max(calls.values()) == 1
    # the build evaluates no product: its tables are read on demand
    calls.clear()
    build_auslander(alg, filt)
    assert not calls


@pytest.mark.parametrize("alg, filt", [
    pytest.param(*_appendix_case(toy_algebra()), id="toy"),
    pytest.param(*_appendix_case(rescaled(truncated_polynomial(6), random.Random(8))), id="x6"),
    pytest.param(*_appendix_case(beilinson_algebra(2)), id="beilinson-2"),
])
def test_one_flag_proof_per_filtration(alg, filt, monkeypatch):
    # the flag proof evaluates at most dim^p products per arity p, once per
    # Filtration: the build reuses the check's proof, and only a call with
    # another algebra proves afresh
    import ainfbench.filtration as filtration

    dim = alg.total_dim()
    calls, flags = Counter(), []
    apply, flag = AInfCategory.apply, filtration._Flag

    def counting(self, p, args):
        calls[p] += 1
        return apply(self, p, args)

    monkeypatch.setattr(AInfCategory, "apply", counting)
    monkeypatch.setattr(filtration, "_Flag", lambda *args: flags.append(args[0]) or flag(*args))
    assert check_filtration(alg, filt).passed
    assert calls and all(calls[p] <= dim ** p for p in calls) and set(calls) <= set(alg.mult)
    build_auslander(alg, filt)
    assert flags == [alg]
    other = AInfCategory(alg.field, alg.objects, alg.hom, alg.units, alg.mult)
    assert check_filtration(other, filt).passed and check_filtration(other, filt).passed
    build_auslander(alg, filt)
    assert flags == [alg, other, other]


@pytest.mark.parametrize("alg", [rescaled(truncated_polynomial(6), random.Random(8)),
                                 trivial_extension(3, 1)], ids=["x6", "trivext-3-1"])
def test_build_projects_each_product_once_per_presentation(alg, monkeypatch):
    # pairs (j, i) whose levels are equal share one presentation, and each
    # product of representatives reaches it once, whichever pair asks and
    # whether its entry is looked up or materialized; the build itself
    # proves strictness without projecting a product (it projects only the
    # unit, on the diagonal pairs with denominator 0, before any product)
    filt, _ = appendix_filtration(alg, kappa=1)
    assert check_filtration(alg, filt).passed  # the build reuses this flag proof
    n = filt.n
    last = []
    projected = Counter()
    product, project = auslander._ProductTable.product, QuotientPresentation.project

    def recording(self, ids):
        last[:] = [ids]
        return product(self, ids)

    def counting(self, v):
        projected[(id(self), last[0] if last else "unit")] += 1
        return project(self, v)

    monkeypatch.setattr(auslander._ProductTable, "product", recording)
    monkeypatch.setattr(QuotientPresentation, "project", counting)
    aus = build_auslander(alg, filt)
    assert projected and all(ids == "unit" for _, ids in projected)
    projected.clear()
    gamma = aus.gamma
    labels = list(gamma.all_labels())
    for key in itertools.product(labels, repeat=2):
        if gamma.tgt(key[0]) == 0:  # the products into object 0 first
            gamma.apply_labels(2, key)
    looked_up = sum(projected.values())
    for table in list(gamma.mult.values()):
        len(table)
    monkeypatch.undo()
    assert 0 < looked_up < sum(projected.values())
    assert max(projected.values()) == 1
    levels = {(filt.level(max(j - i, 0)), filt.level(n - i), i == j and filt.level(n - i).dim > 0)
              for i in range(n) for j in range(n)}
    assert len({id(q) for q in aus.quotients.values()}) == len(levels)


@pytest.mark.parametrize("alg, filt", list(_oracle_cases()))
def test_gamma_lookups_match_materialized_table(alg, filt):
    # entries evaluated one key at a time equal the materialized table on
    # every composable key, in it or not; the tables, once materialized,
    # are plain dicts that the full constructor accepts unchanged
    lazy = build_auslander(alg, filt).gamma
    aus = build_auslander(alg, filt)
    whole = {p: dict(table) for p, table in aus.gamma.mult.items()}
    assert all(type(table) is dict for table in aus.gamma.mult.values())
    assert set(lazy.mult) == set(whole)
    composable = 0
    for p in whole:
        for chain in itertools.product(lazy.objects, repeat=p + 1):
            for key in itertools.product(*[lazy.basis(chain[u + 1], chain[u]) for u in range(p)]):
                assert lazy.mult[p].get(key) == whole[p].get(key), key
                composable += 1
        assert lazy.mult[p].get(("no label",) * p) is None
    assert composable > sum(len(t) for t in whole.values())
    assert lazy.mult == whole
    full = AInfCategory(aus.gamma.field, aus.gamma.objects, aus.gamma.hom, aus.gamma.units, whole)
    assert full.tables_equal(aus.gamma) and full.tables_equal(lazy)


@pytest.mark.parametrize("alg", [rescaled(truncated_polynomial(6), random.Random(8)),
                                 trivial_extension(3, 1)], ids=["x6", "trivext-3-1"])
def test_sod_evaluates_fewer_entries_than_the_table_has(alg, monkeypatch):
    filt, _ = appendix_filtration(alg, kappa=1)
    aus = build_auslander(alg, filt)
    entry, read = auslander._Induced.entry, []

    def counting(self, p, key):
        out = entry(self, p, key)
        if out is not None:
            read.append((p, key))
        return out

    monkeypatch.setattr(auslander._Induced, "entry", counting)
    assert sod_report(aus).passed
    monkeypatch.undo()
    assert len(set(read)) == len(read)
    assert 0 < len(read) < sum(len(table) for table in aus.gamma.mult.values())


def test_gamma_and_its_memos_need_no_cycle_collector():
    # Gamma, its on-demand tables and their memos form no reference cycle:
    # after a sod report they go with the last reference, not at the next
    # run of the cycle collector
    alg = trivial_extension(3, 1)
    filt, _ = appendix_filtration(alg, kappa=1)
    gc.collect()
    gc.disable()
    try:
        aus = build_auslander(alg, filt)
        assert sod_report(aus).passed
        gamma, induced = weakref.ref(aus.gamma), weakref.ref(aus.gamma.mult[2]._induced)
        del aus
        assert gamma() is None and induced() is None
    finally:
        gc.enable()


def test_build_refuses_a_product_outside_its_numerator():
    # nested levels (R, <x1, x2, x3>, <x3>, 0) of k[x]/x^4 that the products
    # do not respect: x1 * x1 = x2 lies outside F^2 = <x3>, so the chain
    # (0, 1, 2) would meet a product outside its numerator; the build's flag
    # proof refuses the filtration before any quotient is taken
    alg = truncated_polynomial(4)
    space = alg.hom[("*", "*")]

    def span(*labels):
        return Subspace(space, QQ, [{space.index(lab): 1} for lab in labels])

    filt = Filtration(alg, [full_subspace(alg), span("x1", "x2", "x3"), span("x3"), zero_subspace(alg)])
    assert not check_filtration(alg, filt).passed
    with pytest.raises(AuslanderError, match="not compatible with the products"):
        build_auslander(alg, filt)


@pytest.mark.parametrize("levels, message", [
    (lambda a: [zero_subspace(a), full_subspace(a), zero_subspace(a)], "the levels do not decrease"),
    (lambda a: [full_subspace(a), full_subspace(a)], r"F\^1 is not 0"),
], ids=["increasing", "fn-nonzero"])
def test_build_refuses_levels_its_flag_cannot_prove(levels, message):
    alg = dual_numbers()
    filt = Filtration(alg, levels(alg))
    assert not check_filtration(alg, filt).passed
    with pytest.raises(AuslanderError, match=message):
        build_auslander(alg, filt)


def _span(alg, *labels):
    space = alg.hom[(alg.objects[0],) * 2]
    return Subspace(space, alg.field, [{space.index(lab): 1} for lab in labels])


def _x4_subalgebra_filtration():
    """k[x]/x^4 with F = (span(1, x^2), span(x^2), 0): the flag proves the
    products compatible, but Gamma(0, 0) would be F^0, with hom dims
    ((2, 1), (1, 1))."""
    alg = truncated_polynomial(4)
    return Filtration(alg, [_span(alg, "1", "x2"), _span(alg, "x2"), zero_subspace(alg)])


def _toy_unit_filtration():
    """toy with F = (span(1), 0): Gamma's m_3 would be an empty table."""
    alg = toy_algebra()
    return Filtration(alg, [_span(alg, "1"), zero_subspace(alg)])


@pytest.mark.parametrize("make", [_x4_subalgebra_filtration, _toy_unit_filtration],
                         ids=["x4-subalgebra", "toy-unit"])
def test_build_refuses_f0_other_than_r(make):
    filt = make()
    alg = filt.algebra
    assert filt._flag(alg).compatible
    report = check_filtration(alg, filt)
    assert [c.name for c in report.checks if not c.passed] == ["f0_full"]
    with pytest.raises(AuslanderError, match=r"F\^0 is not R"):
        build_auslander(alg, filt)


CORPUS_FIELDS = {"Q": QQ, "GF3": GF(3), "GF5": GF(5)}
CORPUS_FILTERED = {
    "toy": lambda f: _appendix_case(toy_algebra(f)),
    "toy-degree": lambda f: (toy_algebra(f), degree_filtration(toy_algebra(f))),
    "x6": lambda f: _appendix_case(truncated_polynomial(6, f)),
    "x7": lambda f: _appendix_case(truncated_polynomial(7, f)),
    "trivext-2-1": lambda f: _appendix_case(trivial_extension(2, 1, f)),
    "trivext-3-1": lambda f: _appendix_case(trivial_extension(3, 1, f)),
    "trivext-3-2": lambda f: _appendix_case(trivial_extension(3, 2, f), 2),
    "beilinson-2": lambda f: _appendix_case(beilinson_algebra(2, f)),
    "random": lambda f: random_filtered_algebra(random.Random(f"gamma-corpus:{f.characteristic}"), f),
}
# the appendix filtration needs the trace kernel to be the radical, which it
# is not in dimension 6 over GF(3), nor for Beilinson P^2 (dimension 10)
# over GF(5)
CORPUS_GAMMAS = [f"{name}/{f}" for f in CORPUS_FIELDS for name in CORPUS_FILTERED
                 if f"{name}/{f}" not in {"x6/GF3", "trivext-3-1/GF3", "trivext-3-2/GF3",
                                          "beilinson-2/GF5"}]


def _corpus_filtered(case):
    name, field = case.split("/")
    return CORPUS_FILTERED[name](CORPUS_FIELDS[field])


@pytest.mark.parametrize("case", CORPUS_GAMMAS)
def test_gamma_has_the_arities_of_r(case):
    # Gamma(0, 0) = F^0 / F^n is R, so every arity of R has a non-empty
    # table in Gamma, and Gamma has no other
    alg, filt = _corpus_filtered(case)
    gamma = build_auslander(alg, filt).gamma
    assert list(gamma.mult) == sorted(alg.mult)
    assert all(len(table) > 0 for table in gamma.mult.values())


@pytest.mark.parametrize("case", CORPUS_GAMMAS)
def test_direct_sweep_passes_on_corpus_gammas(case):
    # the oracle for the quotient argument of ``gamma build``, which does
    # not sweep Gamma's relations: the direct sweep passes on every Gamma
    alg, filt = _corpus_filtered(case)
    assert check_stasheff(alg).passed
    gamma = build_auslander(alg, filt).gamma
    assert validate_structure(gamma).passed
    assert check_stasheff(gamma).passed
