"""The Beilinson algebras of P^2 and P^3 in one-object form, against answers
known from their geometry rather than from this package (Beilinson 1978,
"Coherent sheaves on P^n and problems of linear algebra")."""

from math import comb

import pytest

from ainfbench import QQ
from ainfbench.ainf import check_stasheff, validate_structure
from ainfbench.auslander import build_auslander
from ainfbench.filtration import appendix_filtration
from ainfbench.perfmod import sod_report

from .corpus import beilinson_algebra

@pytest.fixture(scope="module", params=[2, 3])
def beilinson(request):
    d = request.param
    alg = beilinson_algebra(d)
    filt, _ = appendix_filtration(alg, 1)
    return d, filt, build_auslander(alg, filt)


@pytest.mark.parametrize("d", [2, 3])
def test_hom_dims_are_monomial_counts(d):
    # Hom(i, j) = degree-(j - i) monomials in d + 1 variables: C(d + j - i, d)
    alg = beilinson_algebra(d, QQ)
    counts = {}
    for lab in alg.basis("*", "*"):
        if lab.startswith("m"):
            pair = (int(lab[1]), int(lab[2]))
            counts[pair] = counts.get(pair, 0) + 1
    assert counts == {(i, j): comb(d + j - i, d) for i in range(d + 1) for j in range(i + 1, d + 1)}
    assert alg.total_dim() == sum(comb(d + k, d) * (d + 1 - k) for k in range(d + 1))


def test_p2_is_associative():
    alg = beilinson_algebra(2)
    assert validate_structure(alg).passed
    assert check_stasheff(alg).passed


@pytest.mark.parametrize("d, closed_form", [(2, [15, 12, 6, 0]), (3, [56, 52, 40, 20, 0])], ids=["2", "3"])
def test_radical_levels(d, closed_form):
    # F^p = J^p, spanned by the monomials of degree >= p:
    # dim J^p = sum_{k >= p} (d + 1 - k) C(d + k, d)
    filt, params = appendix_filtration(beilinson_algebra(d), 1)
    want = [sum((d + 1 - k) * comb(d + k, d) for k in range(p, d + 1)) for p in range(d + 2)]
    assert want == closed_form
    assert [lv.dim for lv in filt.levels] == want
    assert params.radical == filt.levels[1] and params.nil_index == d + 1


def test_gamma_hom_dims(beilinson):
    # dim Γ(j, i) = dim F^max(j-i,0) - dim F^(n-i)
    _, filt, aus = beilinson
    levels = [lv.dim for lv in filt.levels]
    n = len(levels) - 1
    assert aus.hom_dims() == tuple(
        tuple(levels[max(j - i, 0)] - levels[n - i] for j in range(n)) for i in range(n)
    )


def test_semiorthogonal(beilinson):
    # R/F^1 = R/J = k^(d+1), one copy of k per idempotent, all in degree 0;
    # the Hom-complexes vanish above the diagonal and are H(R/F^1) on it
    d, _, aus = beilinson
    rep = sod_report(aus)
    assert rep.passed, rep.to_json()["failures"]
    assert rep.rbar_dims == {0: d + 1}
    for i in range(aus.n):
        for j in range(aus.n):
            if j > i:
                assert rep.ps_table[i][j] == {} and rep.ss_table[i][j] == {}, (i, j)
        assert rep.ps_table[i][i] == rep.ss_table[i][i] == {0: d + 1}
    assert all(r["ok"] for r in rep.end_results)
