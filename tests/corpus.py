"""Shared fixture algebras and randomized generators for the test suite."""

from __future__ import annotations

import itertools
import random

from ainfbench import QQ
from ainfbench.ainf import AInfCategory, CategoryError, algebra
from ainfbench.filtration import Filtration, check_filtration, full_subspace, zero_subspace
from ainfbench.hochschild import Bimodule, HochschildCochain, HochschildError
from ainfbench.linalg import GradedSpace, Subspace


def unital_m2(labels, unit, products, field=QQ):
    """m_2 table with all unit products filled in, then the given products."""
    table = {}
    one = field.one
    for lab in labels:
        table[(unit, lab)] = {lab: one}
        table[(lab, unit)] = {lab: one}
    table[(unit, unit)] = {unit: one}
    for key, out in products.items():
        table[key] = {l: field.of_int(c) for l, c in out.items() if c != 0}
        if not table[key]:
            del table[key]
    return table


def toy_algebra(field=QQ):
    """Three-dimensional minimal example with one higher product.

    Basis 1, e (degree 0) and t (degree -1); e*e = 0, e*t = t*e = 0 and the
    single arity-3 product m_3(e,e,e) = t.
    """
    one = field.one
    m2 = unital_m2(["1", "e", "t"], "1", {}, field)
    return algebra(
        field,
        [("1", 0), ("e", 0), ("t", -1)],
        "1",
        {2: m2, 3: {("e", "e", "e"): {"t": one}}},
    )


def dual_numbers(field=QQ):
    return algebra(
        field,
        [("1", 0), ("e", 0)],
        "1",
        {2: unital_m2(["1", "e"], "1", {}, field)},
    )


def base_field_algebra(field=QQ):
    return algebra(field, [("1", 0)], "1", {2: {("1", "1"): {"1": field.one}}})


def k_times_k(field=QQ):
    # basis 1, e with e = (1,0) idempotent
    return algebra(
        field,
        [("1", 0), ("e", 0)],
        "1",
        {2: unital_m2(["1", "e"], "1", {("e", "e"): {"e": 1}}, field)},
    )


def upper_triangular_2(field=QQ):
    # basis 1, a = E11, x = E12
    prods = {
        ("a", "a"): {"a": 1},
        ("a", "x"): {"x": 1},
    }
    return algebra(
        field,
        [("1", 0), ("a", 0), ("x", 0)],
        "1",
        {2: unital_m2(["1", "a", "x"], "1", prods, field)},
    )


def upper_triangular_3(field=QQ):
    # basis 1, a1 = E11, a2 = E22, x = E12, y = E23, z = E13
    prods = {
        ("a1", "a1"): {"a1": 1},
        ("a2", "a2"): {"a2": 1},
        ("a1", "x"): {"x": 1},
        ("x", "a2"): {"x": 1},
        ("a2", "y"): {"y": 1},
        ("x", "y"): {"z": 1},
        ("a1", "z"): {"z": 1},
    }
    labels = ["1", "a1", "a2", "x", "y", "z"]
    return algebra(
        field,
        [(l, 0) for l in labels],
        "1",
        {2: unital_m2(labels, "1", prods, field)},
    )


def path_algebra_a3(field=QQ):
    """Path category of v1 -> v2 -> v3 with composite ba."""
    one = field.one
    hom = {
        ("v1", "v1"): GradedSpace(("e1",), (0,)),
        ("v2", "v2"): GradedSpace(("e2",), (0,)),
        ("v3", "v3"): GradedSpace(("e3",), (0,)),
        ("v1", "v2"): GradedSpace(("a",), (0,)),
        ("v2", "v3"): GradedSpace(("b",), (0,)),
        ("v1", "v3"): GradedSpace(("ba",), (0,)),
    }
    m2 = {
        ("e1", "e1"): {"e1": one},
        ("e2", "e2"): {"e2": one},
        ("e3", "e3"): {"e3": one},
        ("e2", "a"): {"a": one},
        ("a", "e1"): {"a": one},
        ("e3", "b"): {"b": one},
        ("b", "e2"): {"b": one},
        ("e3", "ba"): {"ba": one},
        ("ba", "e1"): {"ba": one},
        ("b", "a"): {"ba": one},
    }
    return AInfCategory(
        field,
        ("v1", "v2", "v3"),
        hom,
        {"v1": "e1", "v2": "e2", "v3": "e3"},
        {2: m2},
    )


def nonassociative_example(field=QQ):
    """Fails the arity-3 relation with witness (x, x, x)."""
    prods = {
        ("x", "x"): {"y": 1},
        ("x", "y"): {"x": 1},
    }
    return algebra(
        field,
        [("1", 0), ("x", 0), ("y", 0)],
        "1",
        {2: unital_m2(["1", "x", "y"], "1", prods, field)},
    )


def graded_non_ainf(field=QQ, seed=31):
    """A seeded, strictly unital graded category that fails its relations on
    many tuples: the unit 1 and a, b, c, d in degrees -1, 0, 1, 2, with
    m_1, m_2 and m_3 entries of the right degree (2 - p) drawn at random on
    the non-unit labels, with coefficients in -2..2.  Its witnesses carry
    the Koszul signs of odd-degree labels in every slot."""
    rng = random.Random(seed)
    basis = [("1", 0), ("a", -1), ("b", 0), ("c", 1), ("d", 2)]
    degree = dict(basis)
    by_degree = {d: lab for lab, d in basis if lab != "1"}
    mult: dict = {1: {}, 2: unital_m2([lab for lab, _ in basis], "1", {}, field), 3: {}}
    for p, chance in ((1, 1.0), (2, 0.6), (3, 0.3)):
        for key in itertools.product("abcd", repeat=p):
            out = by_degree.get(sum(degree[lab] for lab in key) + 2 - p)
            coeff = rng.randint(-2, 2)
            if out and coeff and rng.random() < chance:
                mult[p][key] = {out: field.of_int(coeff)}
    return algebra(field, basis, "1", mult)


def truncated_polynomial(m, field=QQ):
    """k[x]/(x^m) with basis 1, x, ..., x^(m-1)."""
    labels = ["1"] + [f"x{i}" for i in range(1, m)]
    prods = {}
    for i in range(1, m):
        for j in range(1, m):
            if i + j < m:
                prods[(f"x{i}", f"x{j}")] = {f"x{i+j}": 1}
    return algebra(field, [(l, 0) for l in labels], "1", {2: unital_m2(labels, "1", prods, field)})


def incompatible_filtration(field=QQ):
    """k[x]/x^4 with F = (R, (x), 0), which fails the compatibility check
    (x.x escapes F^2 = 0), so the quotient category build refuses it."""
    alg = truncated_polynomial(4, field)
    space = alg.hom[(alg.objects[0],) * 2]
    ideal = Subspace(space, field, [{i: field.one} for i in (1, 2, 3)])
    return alg, Filtration(alg, [full_subspace(alg), ideal, zero_subspace(alg)])


def dg_closure_example(field=QQ):
    """A DG algebra on which ``sod``'s End comparison must correct a
    candidate: basis 1 and b in degree 0, a in degree -1, m_1(a) = b, m_2
    unital with no other products, filtered by F = (R, span(b), 0).  In
    R/F^1 = span(1, a) the class of a is a cocycle, but its diagonal
    candidate in End(S_0) is not closed, as m_1 != 0: ``end_comparison``
    solves for its correction (with a free variable), once per ``sod``.
    Every corpus algebra with m_1 = 0 has closed diagonal candidates."""
    alg = algebra(field, [("1", 0), ("a", -1), ("b", 0)], "1",
                  {1: {("a",): {"b": field.one}}, 2: unital_m2(["1", "a", "b"], "1", {}, field)})
    span_b = Subspace(alg.hom[(alg.objects[0],) * 2], field, [{2: field.one}])
    return alg, Filtration(alg, [full_subspace(alg), span_b, zero_subspace(alg)])


def trivial_extension(a, kappa, field=QQ):
    """k[x]/(x^a) ⋉ (k[x]/(x^a))[kappa]: x_i in degree 0 and y_i = x_i eps in
    degree -kappa, with y0 = eps and eps^2 = 0."""
    xs = ["1"] + [f"x{i}" for i in range(1, a)]
    ys = [f"y{i}" for i in range(a)]
    prods = {}
    for i in range(1, a):
        for j in range(a - i):
            if j:
                prods[(xs[i], xs[j])] = {xs[i + j]: 1}
            prods[(xs[i], ys[j])] = {ys[i + j]: 1}
            prods[(ys[j], xs[i])] = {ys[i + j]: 1}
    basis = [(l, 0) for l in xs] + [(l, -kappa) for l in ys]
    return algebra(field, basis, "1", {2: unital_m2(xs + ys, "1", prods, field)})


def beilinson_algebra(d, field=QQ):
    """The Beilinson algebra of P^d in one-object form, from its closed form.

    It is the endomorphism algebra of O + O(1) + ... + O(d): objects 0..d,
    Hom(i, j) for i <= j spanned by the monomials of degree j - i in
    x_0..x_d, and composition multiplies monomials.  The basis is the unit
    1 = e_0 + ... + e_d, the idempotents e_1..e_d (the degree-0 monomials)
    and the monomials of positive degree, labelled m<i><j>_<exponents>; all
    in degree 0.  m_2(a, b) is a o b: nonzero only when b ends where a
    starts.
    """
    mono = {}  # label -> (i, j, exponents)
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            for exps in itertools.product(range(j - i + 1), repeat=d + 1):
                if sum(exps) == j - i:
                    mono[f"m{i}{j}_{''.join(map(str, exps))}"] = (i, j, exps)
    idem = {k: f"e{k}" for k in range(1, d + 1)}
    labels = ["1"] + list(idem.values()) + list(mono)
    prods = {(e, e): {e: 1} for e in idem.values()}
    for lab, (i, j, exps) in mono.items():
        if j in idem:
            prods[(idem[j], lab)] = {lab: 1}
        if i in idem:
            prods[(lab, idem[i])] = {lab: 1}
    by_key = {v: lab for lab, v in mono.items()}
    for a, (j, k, ea) in mono.items():
        for b, (i, j2, eb) in mono.items():
            if j2 == j:
                prods[(a, b)] = {by_key[(i, k, tuple(x + y for x, y in zip(ea, eb)))]: 1}
    return algebra(field, [(l, 0) for l in labels], "1", {2: unital_m2(labels, "1", prods, field)})


# scale factors (numerator, denominator) for ``rescaled``
SMALL_FACTORS = ((-3, 1), (-2, 1), (-1, 1), (1, 1), (2, 1), (3, 1))
# denominators 7, 11 and 13, all invertible mod 3 and mod 5: products of
# structure constants get large common denominators
LARGE_DENOMINATORS = ((1, 7), (-2, 7), (3, 11), (-1, 11), (2, 13), (-4, 13))


def rescaled(cat, rng: random.Random, factors=SMALL_FACTORS):
    """The same category in the basis s_l * l for random nonzero s_l drawn
    from ``factors`` (s = 1 on units): each structure constant becomes
    c * prod(s_inputs) / s_output."""
    field = cat.field
    units = set(cat.units.values())
    scale = {}
    for lab in cat.all_labels():
        s = field.zero
        while s == 0:
            num, den = rng.choice(factors)
            s = field.mul(field.of_int(num), field.inv(field.of_int(den)))
        scale[lab] = field.one if lab in units else s
    mult = {}
    for p, table in cat.mult.items():
        mult[p] = {}
        for key, vec in table.items():
            coeff = field.one
            for lab in key:
                coeff = field.mul(coeff, scale[lab])
            mult[p][key] = {
                lab: field.mul(field.mul(coeff, c), field.inv(scale[lab])) for lab, c in vec.items()
            }
    return AInfCategory(field, cat.objects, cat.hom, cat.units, mult)


def random_cochain(rng: random.Random, cat, module, arity, values=((-1, 1), (1, 1))):
    """A random normalized cochain of internal degree 0 with values in
    ``module = diagonal_bimodule(cat)``: each composable tuple of non-unit
    labels gets, with probability 0.4, an output in the matching hom-space
    whose coordinates are 0 or drawn from ``values``, (numerator,
    denominator) pairs.  None when the draw is zero or not of internal
    degree 0."""
    field = cat.field
    labels = [l for l in cat.all_labels() if not cat.is_unit(l)]
    table = {}
    for key in itertools.product(labels, repeat=arity):
        if not cat.composable(key):
            continue
        out = {}
        for lab in cat.basis(cat.src(key[-1]), cat.tgt(key[0])):
            if rng.random() < 0.5:
                num, den = rng.choice(values)
                out[f"M.{lab}"] = field.mul(field.of_int(num), field.inv(field.of_int(den)))
        if out and rng.random() < 0.4:
            table[key] = out
    try:
        eta = HochschildCochain(cat, module, arity, table)
    except HochschildError:
        return None
    if eta.internal_degree != 0 or eta.is_zero():
        return None
    return eta


ASSOCIATIVE_CORPUS = [
    ("k", base_field_algebra),
    ("k_x_k", k_times_k),
    ("dual_numbers", dual_numbers),
    ("upper_triangular_2", upper_triangular_2),
    ("upper_triangular_3", upper_triangular_3),
    ("path_algebra_a3", path_algebra_a3),
]


# ---------------------------------------------------------------------------
# randomized generators


def random_nilpotent_algebra(rng: random.Random, field=QQ, max_x=3, max_y=2):
    """Unital algebra 1 + x-block + y-block with x*x landing in the y-block.

    All triple products of non-units vanish, so associativity is automatic
    whatever the random structure constants are.
    """
    nx = rng.randint(1, max_x)
    ny = rng.randint(1, max_y)
    xs = [f"x{i}" for i in range(nx)]
    ys = [f"y{i}" for i in range(ny)]
    labels = ["1"] + xs + ys
    prods = {}
    for i in range(nx):
        for j in range(nx):
            out = {y: rng.randint(-2, 2) for y in ys}
            out = {y: c for y, c in out.items() if c != 0}
            if out and rng.random() < 0.8:
                prods[(xs[i], xs[j])] = out
    alg = algebra(field, [(l, 0) for l in labels], "1", {2: unital_m2(labels, "1", prods, field)})
    return alg, xs, ys


def random_associative_algebra(rng: random.Random, field=QQ):
    kind = rng.choice(["nilpotent", "truncated", "triangular", "split"])
    if kind == "nilpotent":
        alg, xs, ys = random_nilpotent_algebra(rng, field)
        return alg
    if kind == "truncated":
        return truncated_polynomial(rng.randint(2, 5), field)
    if kind == "triangular":
        return upper_triangular_2(field) if rng.random() < 0.5 else upper_triangular_3(field)
    return k_times_k(field)


def _subspace_from_labels(alg, labels_subset):
    space = alg.hom[(alg.objects[0],) * 2]
    return Subspace(space, alg.field, [{space.index(lab): alg.field.one} for lab in labels_subset])


def ideal_power(alg, ideal: Subspace, k: int) -> Subspace:
    from ainfbench.filtration import full_subspace, subspace_product

    if k == 0:
        return full_subspace(alg)
    out = ideal
    for _ in range(k - 1):
        out = subspace_product(alg, out, ideal)
    return out


def random_filtered_algebra(rng: random.Random, field=QQ, max_tries=40):
    """Random associative algebra with a random ideal-power filtration.

    Filtration levels are powers of a random nilpotent two-sided ideal,
    optionally with duplicated intermediate levels; candidates are validated
    and resampled until one passes the compatibility check (which structured
    draws essentially always do).
    """
    for _ in range(max_tries):
        alg = random_associative_algebra(rng, field)
        obj = alg.objects[0]
        space = alg.hom[(obj, obj)]
        non_unit = [l for l in space.labels if l != alg.units[obj]]
        # candidate nilpotent ideal: random subset of the radical-like part
        if not non_unit:
            continue
        nilpotent = [l for l in non_unit if _is_nilpotent_basis_label(alg, l)]
        if not nilpotent:
            continue
        size = rng.randint(1, len(nilpotent))
        chosen = rng.sample(nilpotent, size)
        ideal = _close_to_ideal(alg, _subspace_from_labels(alg, chosen))
        if ideal.dim == 0 or ideal.dim == space.dim:
            continue
        levels = [ideal_power(alg, ideal, 0)]
        power = ideal
        k = 1
        while power.dim > 0 and k < 7:
            levels.append(power)
            if rng.random() < 0.3:
                levels.append(power)  # duplicated level
            from ainfbench.filtration import subspace_product

            power = subspace_product(alg, power, ideal)
            k += 1
        levels.append(Subspace(space, alg.field, ()))
        if not 2 <= len(levels) - 1 <= 5:
            continue
        filt = Filtration(alg, levels)
        if check_filtration(alg, filt).passed:
            return alg, filt
    raise RuntimeError("could not draw a random filtered algebra")


def _is_nilpotent_basis_label(alg, lab) -> bool:
    seen = set()
    current = {lab: alg.field.one}
    for _ in range(alg.total_dim() + 1):
        current = alg.apply(2, [current, {lab: alg.field.one}])
        if not current:
            return True
        key = tuple(sorted(current))
        if key in seen:
            return False
        seen.add(key)
    return False


def _close_to_ideal(alg, seed: Subspace) -> Subspace:
    """Smallest two-sided ideal containing the seed subspace."""
    from ainfbench.filtration import subspace_product

    obj = alg.objects[0]
    space = alg.hom[(obj, obj)]
    full = Subspace(space, alg.field, [{j: alg.field.one} for j in range(space.dim)])
    out = seed
    while True:
        grown = out.sum(subspace_product(alg, full, out)).sum(subspace_product(alg, out, full))
        if grown.dim == out.dim:
            return out
        out = grown


def zero_bimodule(c):
    return Bimodule(c, {}, {})


def bimodule_direct_sum(m1, m2):
    if m1.base is not m2.base and not m1.base.tables_equal(m2.base):
        raise HochschildError("bimodules over different bases")
    spaces = {}
    for key in m1.spaces:
        a, b = m1.spaces[key], m2.spaces[key]
        spaces[key] = GradedSpace(a.labels + b.labels, a.degrees + b.degrees)
    action: dict = {}
    for src in (m1, m2):
        for p, table in src.action.items():
            tbl = action.setdefault(p, {})
            for key, vec in table.items():
                tbl[key] = dict(vec)
    return Bimodule(m1.base, spaces, action)


def full_subcategory(c: AInfCategory, objs) -> AInfCategory:
    """The full subcategory on ``objs``: their hom-spaces and the entries
    whose inputs all lie between them."""
    objs = tuple(objs)
    if not objs:
        raise CategoryError("object subset must be nonempty")
    for x in objs:
        if x not in c.objects:
            raise CategoryError(f"unknown object label {x!r}")
    keep = set(objs)
    hom = {(x, y): c.hom[(x, y)] for x in objs for y in objs}
    units = {x: c.units[x] for x in objs}
    mult: dict = {}
    for p, table in c.mult.items():
        new = {}
        for key, vec in table.items():
            if all(c.src(l) in keep and c.tgt(l) in keep for l in key):
                new[key] = dict(vec)
        if new:
            mult[p] = new
    return AInfCategory(c.field, objs, hom, units, mult)


def opposite(c: AInfCategory) -> AInfCategory:
    """The opposite category: hom-spaces reversed, and arguments reversed
    with the sign (-1)^sigma, sigma = sum_{u<v} |a_u| |a_v|, which makes it
    an involution on the nose."""
    field = c.field
    hom = {(x, y): c.hom[(y, x)] for x in c.objects for y in c.objects}
    mult: dict = {}
    for p, table in c.mult.items():
        new = {}
        for key, vec in table.items():
            degs = [c.deg(l) for l in key]
            sigma = sum(degs[u] * degs[v] for u in range(p) for v in range(u + 1, p)) % 2
            new[tuple(reversed(key))] = vec if sigma == 0 else {lab: field.neg(co) for lab, co in vec.items()}
        mult[p] = new
    return AInfCategory(field, c.objects, hom, dict(c.units), mult)
