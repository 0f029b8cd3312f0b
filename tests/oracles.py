"""Independent brute-force evaluators used as oracles by the test suite.

These deliberately avoid the library's own evaluation helpers: elements are
plain coefficient dicts and the relation sum below is written directly from
its definition, so that agreement with the package is a genuine two-route
check rather than a tautology.  Scalars go through the category's field
only, so the oracles are exact over F_p as well as over the rationals.
Linear algebra is the textbook dense Gauss-Jordan elimination below, column
by column with row swaps, sharing no code with ``ainfbench.linalg``;
quotient coordinates come from one direct linear solve with it, not from the
presentation's cached elimination.  The filtration report and the tables of
a quotient algebra are rebuilt from their definitions with those two, with no
memo.  The radical is the old fixed-point loop over trace
kernels of successive quotients, and a nilpotency index the count of iterated
subspace products.  The Hom-complex differential is
built one basis vector at a time from the definition of mu1: every pair of
connection paths, every choice of labels, :func:`naive_apply` on each label
tuple and the three sign exponents of ``perfmod``'s module docstring, summed
into a dense matrix, with no ``perfmod`` evaluation helper; the composition
mu2, the Maurer-Cartan defect and the differential of an evaluation (the
value of a twisted complex at an object, which ``perfmod`` computes as the
Hom-complex from a representable) are summed the same way over their own
paths.  The two
index inequalities of the quotient category are checked one chain at a time,
as stated, and their least slacks are the minimum over every chain (over a
large box, with the chains that share prefix statistics walked together); the
independence of its products from the coset representatives, which the build
proves, is sampled with random lifts, and the identification of R with
Gamma(0, 0) is checked table by table.  The Hochschild differential is the
classical alternating sum, term by term.  The structure report is rebuilt by
a walk over sorted tables and sorted outputs through the category's
accessors.

The package's linear algebra takes sparse vectors only; :func:`dense`,
:func:`dense_differential`, :func:`degree_dims` and
:func:`euler_characteristic` give the dense and counting views that the
tests compare with these oracles.
"""

from __future__ import annotations

import collections
import itertools
import math
import random

from ainfbench.ainf import ValidationReport


def dense(field, v: dict, n: int) -> tuple:
    """The sparse vector ``v`` as a coordinate tuple of length ``n``."""
    return tuple(v.get(i, field.zero) for i in range(n))


def dense_differential(c, q) -> tuple:
    """The matrix of d_q of the ``FiniteComplex`` ``c``, as a tuple of row
    tuples acting on column vectors, from its sparse columns (all zero
    outside them)."""
    zero = c.field.zero
    rows = [[zero] * len(c.components.get(q, ())) for _ in c.components.get(q + 1, ())]
    for j, col in c.columns.get(q, {}).items():
        for i, a in col.items():
            rows[i][j] = a
    return tuple(map(tuple, rows))


def degree_dims(s) -> dict:
    """Degree -> number of rows of that degree, for a graded ``Subspace``."""
    return dict(collections.Counter(s.ambient.degree_of_vector(r) for r in s.rows))


def euler_characteristic(c) -> int:
    """sum_q (-1)^q dim C^q of a ``FiniteComplex``."""
    return sum((-1) ** (q % 2) * len(labels) for q, labels in c.components.items())


def naive_rref(field, rows, ncols):
    """Reduced row echelon form of a dense matrix: (nonzero rows, pivots)."""
    m = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        pick = next((i for i in range(top, len(m)) if m[i][col] != 0), None)
        if pick is None:
            continue
        m[top], m[pick] = m[pick], m[top]
        inv = field.inv(m[top][col])
        m[top] = [field.mul(inv, a) for a in m[top]]
        for i in range(len(m)):
            c = m[i][col]
            if i != top and c != 0:
                m[i] = [field.add(a, field.neg(field.mul(c, b))) for a, b in zip(m[i], m[top])]
        pivots.append(col)
    return [tuple(r) for r in m[:len(pivots)]], pivots


def naive_rank(field, rows, ncols):
    return len(naive_rref(field, rows, ncols)[1])


def naive_solve(field, m, b, ncols):
    """The solution of M x = b with every free variable 0, or None."""
    rows, pivots = naive_rref(field, [tuple(r) + (bi,) for r, bi in zip(m, b)], ncols + 1)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for piv, row in zip(pivots, rows):
        x[piv] = row[ncols]
    return tuple(x)


def naive_mult(cat, p, arg_dicts):
    """Multilinear extension of the arity-p table, written naively."""
    return naive_apply(cat.field, cat.mult.get(p, {}), arg_dicts)


def naive_apply(field, table, arg_dicts):
    """Multilinear extension of one sparse table, written naively."""
    out = {}

    def rec(prefix, coeff, rest):
        if not rest:
            entry = table.get(tuple(prefix))
            if entry:
                for lab, c in entry.items():
                    out[lab] = field.add(out.get(lab, field.zero), field.mul(coeff, c))
            return
        head, tail = rest[0], rest[1:]
        for lab, c in head.items():
            rec(prefix + [lab], field.mul(coeff, c), tail)

    rec([], field.one, list(arg_dicts))
    return {l: c for l, c in out.items() if c != 0}


def naive_stasheff_sum(cat, labels):
    """sum_{r+s+t=n} (-1)^(r+st) m(id^r (x) m_s (x) id^t) on basis labels.

    The Koszul sign for sliding m_s (degree 2 - s) past the first r inputs is
    (-1)^((2-s) * (|a_1|+...+|a_r|)).
    """
    field = cat.field
    n = len(labels)
    total = {}
    for r in range(n):
        for s in range(1, n - r + 1):
            t = n - r - s
            inner = naive_mult(cat, s, [{lab: field.one} for lab in labels[r:r + s]])
            if not inner:
                continue
            koszul = (2 - s) * sum(cat.deg(l) for l in labels[:r])
            negate = (r + s * t + koszul) % 2
            args = (
                [{lab: field.one} for lab in labels[:r]]
                + [inner]
                + [{lab: field.one} for lab in labels[r + s:]]
            )
            term = naive_mult(cat, r + 1 + t, args)
            for lab, c in term.items():
                total[lab] = field.add(total.get(lab, field.zero), field.neg(c) if negate else c)
    return {l: c for l, c in total.items() if c != 0}


def naive_composable_tuples(cat, n):
    labels = list(cat.all_labels())

    def rec(chain):
        if len(chain) == n:
            yield tuple(chain)
            return
        for lab in labels:
            if not chain or cat.src(chain[-1]) == cat.tgt(lab):
                yield from rec(chain + [lab])

    yield from rec([])


def naive_stasheff_holds(cat, n_max):
    failures = []
    for n in range(1, n_max + 1):
        for labels in naive_composable_tuples(cat, n):
            defect = naive_stasheff_sum(cat, labels)
            if defect:
                failures.append((n, labels, defect))
    return failures


def naive_hochschild_differential(phi):
    """The classical alternating sum

        (d phi)(a_1, ..., a_{n+1}) = a_1 phi(a_2, ..., a_{n+1})
            + sum_{i=1..n} (-1)^i phi(a_1, ..., a_i a_{i+1}, ..., a_{n+1})
            + (-1)^(n+1) phi(a_1, ..., a_n) a_{n+1}

    on every composable tuple of non-unit labels, as a table of the nonzero
    values; the actions are the bimodule's arity-2 table, and an arity-0 phi
    contributes its value at the object each action needs.  It is the
    Hochschild differential only for associative bases in degree 0."""
    base, n = phi.base, phi.arity
    field = base.field
    m2 = base.mult.get(2, {})
    action = phi.module.action.get(2, {})
    table = {}
    for labels in naive_composable_tuples(base, n + 1):
        if any(base.is_unit(lab) for lab in labels):
            continue
        args = [{lab: field.one} for lab in labels]
        if n:
            inner_first = naive_apply(field, phi.table, args[1:])
            inner_last = naive_apply(field, phi.table, args[:-1])
        else:
            inner_first = phi.table.get(base.src(labels[0]), {})
            inner_last = phi.table.get(base.tgt(labels[0]), {})
        terms = [(0, naive_apply(field, action, [args[0], inner_first]))]
        for i in range(n):
            product = naive_apply(field, m2, args[i:i + 2])
            terms.append((i + 1, naive_apply(field, phi.table, args[:i] + [product] + args[i + 2:])))
        terms.append((n + 1, naive_apply(field, action, [inner_last, args[-1]])))
        total = {}
        for sign, vec in terms:
            for lab, c in vec.items():
                total[lab] = field.add(total.get(lab, field.zero), field.neg(c) if sign % 2 else c)
        total = {lab: c for lab, c in total.items() if c != 0}
        if total:
            table[labels] = total
    return table


def naive_quotient_coords(q, v):
    """Quotient coordinates of the dense vector ``v``, as a sparse dict, by
    solving v = sum_i d_i D_i + sum_k c_k r_k over the denominator rows D_i
    and the representatives r_k at once; these columns are a basis of the
    numerator, so the solution is unique.  None when ``v`` lies outside the
    numerator."""
    cols = [dense(q.field, r, len(v)) for r in (*q.denominator.rows, *q.reps)]
    m = tuple(tuple(col[i] for col in cols) for i in range(len(v)))
    x = naive_solve(q.field, m, tuple(v), len(cols))
    if x is None:
        return None
    return {k: c for k, c in enumerate(x[q.denominator.dim:]) if c != 0}


def naive_radical(a):
    """The Jacobson radical by the fixed-point loop that ``radical`` ran before
    it took one certified trace kernel: the trace kernel of each quotient,
    pulled back and added until it stops growing, then checked nilpotent.
    It shares the trace kernel, the quotient and the powers with the package;
    the independent part is the loop, which never assumes the first kernel
    is the radical."""
    from ainfbench.filtration import (
        FiltrationError,
        _one_object,
        _powers,
        _trace_kernel,
        quotient_by_ideal,
    )
    from ainfbench.linalg import Subspace

    obj, space = _one_object(a)
    field = a.field
    if field.characteristic != 0:
        raise FiltrationError("radical computation requires characteristic zero")
    if any(p != 2 for p in a.mult):
        raise FiltrationError("radical requires an associative algebra with only m_2")
    if any(d != 0 for d in space.degrees):
        raise FiltrationError("radical requires the algebra concentrated in degree 0")

    current = a
    lifts = None  # chain of quotient presentations back to `a`
    j_rows: list = []
    while True:
        kernel = _trace_kernel(current)
        if not kernel:
            break
        # pull the kernel back through the quotients taken so far
        vecs = kernel
        if lifts is not None:
            vecs = [lifts.lift(v) for v in vecs]
        grew = False
        amb = space
        base = Subspace(amb, field, j_rows)
        for v in vecs:
            if not base.contains(v):
                j_rows.append(v)
                base = Subspace(amb, field, j_rows)
                grew = True
        if not grew:
            break
        current, lifts = quotient_by_ideal(a, base, prefix="rq")

    j = Subspace(space, field, j_rows)
    _powers(a, j)  # FiltrationError unless nilpotent
    return j


def nilpotency_index(r, j):
    """Least a with J^a = 0 (a = 1 when J = 0), by iterated
    ``subspace_product`` rather than the package's power chain;
    FiltrationError once J^(dim R + 1) != 0."""
    from ainfbench.filtration import FiltrationError, subspace_product

    power, a = j, 1
    while power.dim:
        if a > j.ambient.dim:
            raise FiltrationError("subspace is not nilpotent")
        power, a = subspace_product(r, power, j), a + 1
    return a


def naive_gamma_table(aus):
    """Gamma's product tables from the definition: for every chain of objects
    and every tuple of representatives, multiply with :func:`naive_mult` and
    take quotient coordinates with :func:`naive_quotient_coords`."""
    r = aus.base
    field = r.field
    obj = r.objects[0]
    labels = r.hom[(obj, obj)].labels
    names = {pr: aus.gamma.hom[pr].labels for pr in aus.quotients}
    mult = {}
    for p in sorted(r.mult):
        table = {}
        for chain in itertools.product(range(aus.n), repeat=p + 1):
            pairs = [(chain[u + 1], chain[u]) for u in range(p)]
            out_pair = (chain[p], chain[0])
            for combo in itertools.product(*[range(aus.quotients[pr].dim) for pr in pairs]):
                args = [
                    {labels[i]: c for i, c in aus.quotients[pr].reps[k].items()}
                    for pr, k in zip(pairs, combo)
                ]
                out = naive_mult(r, p, args)
                vec = tuple(out.get(lab, field.zero) for lab in labels)
                coords = naive_quotient_coords(aus.quotients[out_pair], vec)
                if coords is None:
                    raise AssertionError(f"product on {chain} leaves the numerator")
                entry = {names[out_pair][k]: c for k, c in coords.items()}
                if entry:
                    table[tuple(names[pr][k] for pr, k in zip(pairs, combo))] = entry
        if table:
            mult[p] = table
    return mult


def lift_independence_sampled(aus, trials=50, rng=None):
    """Recompute random induced products of Gamma with perturbed coset lifts.

    Each trial picks a chain of objects and one representative per argument,
    perturbs every representative by a random element of its denominator,
    and multiplies both tuples with :func:`naive_mult`; the quotient
    coordinates of the two products (:func:`naive_quotient_coords`) must be
    equal and defined."""
    rng = rng or random.Random(0)
    r = aus.base
    field = r.field
    obj = r.objects[0]
    labels = r.hom[(obj, obj)].labels
    arities = sorted(r.mult)

    def product_coords(p, vectors, out_q):
        args = [{labels[i]: c for i, c in enumerate(v) if c != 0} for v in vectors]
        out = naive_mult(r, p, args)
        return naive_quotient_coords(out_q, tuple(out.get(lab, field.zero) for lab in labels))

    for _ in range(trials if arities else 0):
        p = rng.choice(arities)
        chain = [rng.randrange(aus.n) for _ in range(p + 1)]
        qs = [aus.quotients[(chain[u + 1], chain[u])] for u in range(p)]
        if any(q.dim == 0 for q in qs):
            continue
        reps = [dense(field, q.reps[rng.randrange(q.dim)], len(labels)) for q in qs]
        perturbed = []
        for q, rep in zip(qs, reps):
            v = list(rep)
            for row in q.denominator.rows:
                c = field.of_int(rng.randint(-2, 2))
                v = [field.add(x, field.mul(c, y)) for x, y in zip(v, dense(field, row, len(labels)))]
            perturbed.append(v)
        out_q = aus.quotients[(chain[p], chain[0])]
        coords = product_coords(p, reps, out_q)
        if coords is None or coords != product_coords(p, perturbed, out_q):
            return False
    return True


def naive_quotient_table(r, quotient, q):
    """The product tables of ``quotient`` = R/I, presented by ``q``, from the
    definition: m_p on every tuple of representatives by :func:`naive_mult`,
    quotient coordinates by :func:`naive_quotient_coords`."""
    field = r.field
    obj = r.objects[0]
    labels = r.hom[(obj, obj)].labels
    names = quotient.hom[(obj, obj)].labels
    reps = [{labels[i]: c for i, c in rep.items()} for rep in q.reps]
    mult = {}
    for p in sorted(r.mult):
        table = {}
        for key in itertools.product(range(q.dim), repeat=p):
            out = naive_mult(r, p, [reps[k] for k in key])
            coords = naive_quotient_coords(q, tuple(out.get(lab, field.zero) for lab in labels))
            entry = {names[k]: c for k, c in coords.items()}
            if entry:
                table[tuple(names[k] for k in key)] = entry
        if table:
            mult[p] = table
    return mult


def naive_filtration_report(r, filt):
    """``check_filtration(r, filt).to_json()`` from the definitions: each
    product of spanning vectors by :func:`naive_mult`, each level brought to
    :func:`naive_rref` once and a vector inside it when the reduced form
    clears it, every product evaluated and tested where it occurs."""
    field = r.field
    obj = r.objects[0]
    space = r.hom[(obj, obj)]
    labels, dim = space.labels, space.dim
    levels = [[dense(field, r, dim) for r in lv.rows] for lv in filt.levels]
    n = len(levels) - 1
    reduced = [naive_rref(field, level, dim) for level in levels]

    def inside(k, vecs):
        for v in vecs:
            v = list(v)
            for row, piv in zip(*reduced[k]):
                c = v[piv]
                if c != 0:
                    v = [field.add(a, field.neg(field.mul(c, b))) for a, b in zip(v, row)]
            if any(a != 0 for a in v):
                return False
        return True

    checks = []

    def add(name, witnesses, detail=""):
        witnesses = sorted(witnesses, key=lambda w: (w["arity"], tuple(w["tuple"])))
        checks.append({"name": name, "passed": not witnesses, "detail": detail, "witnesses": witnesses})

    full = len(reduced[0][1]) == dim
    add("f0_full", [] if full else [{"arity": 0, "tuple": [0], "reason": "F^0 != R"}],
        f"dim F^0 = {len(levels[0])}, dim R = {dim}")
    add("fn_zero", [] if not levels[n] else [{"arity": 0, "tuple": [n], "reason": f"F^{n} != 0"}],
        f"dim F^{n} = {len(levels[n])}")
    add("decreasing", [{"arity": 0, "tuple": [p], "reason": f"F^{p+1} not inside F^{p}"}
                       for p in range(n) if not inside(p, levels[p + 1])])
    add("graded", [{"arity": 0, "tuple": [p], "reason": "level not spanned by homogeneous vectors"}
                   for p in range(n + 1)
                   if any(len({space.degrees[i] for i, a in enumerate(row) if a != 0}) > 1
                          for row in levels[p])])
    bad = []
    for p in sorted(r.mult):
        for indices in itertools.product(range(n), repeat=p):
            total = sum(indices)
            if total > n:
                continue
            for combo in itertools.product(*[levels[i] for i in indices]):
                args = [{labels[k]: c for k, c in enumerate(v) if c != 0} for v in combo]
                out = naive_mult(r, p, args)
                if out and not inside(total, [tuple(out.get(lab, field.zero) for lab in labels)]):
                    bad.append({
                        "arity": p,
                        "tuple": list(indices),
                        "reason": f"m_{p}(F^{list(indices)}) escapes F^{total}",
                        "vector": {lab: field.unparse(c) for lab, c in sorted(out.items())},
                    })
    add("compatibility", bad)
    return {"passed": all(c["passed"] for c in checks), "checks": checks}


def naive_connection_paths(x, start, end):
    """Every chain start = v_0 > v_1 > ... > v_k = end of connection
    components of the twisted complex ``x`` (component (t, s) maps summand s
    to summand t), as lists of (k_src, k_tgt, element) in the order they
    apply; [[]], the empty chain, when start = end."""
    if start == end:
        return [[]]
    out = []
    for (t, s), elem in x.conn.items():
        if s == start and t >= end:
            step = (x.entries[s][1], x.entries[t][1], elem)
            out += [[step] + rest for rest in naive_connection_paths(x, t, end)]
    return out


def naive_signed_product(cat, items):
    """m_p on a chain of (k_src, k_tgt, element), one label tuple at a time:
    :func:`naive_apply` on the single labels, times (-1)^e with e the sum of
    the three exponents of the twisted-complex sign convention,

        sum_{u<p} (p-u) (deg_u - 1)                       (suspension of m_p)
        + sum_i (k_src_i - k_tgt_i)                       (the shift lines)
        + sum_{j>=2} (k_src_j - k_tgt_j) sum_{i<j} (deg_i - 1)   (shuffle),

    with indices from 1 in the order of ``items``."""
    field = cat.field
    p = len(items)
    table = cat.mult.get(p, {})
    shifts = [ks - kt for ks, kt, _ in items]
    total = {}
    for combo in itertools.product(*[list(e.items()) for _, _, e in items]):
        degs = [cat.deg(lab) for lab, _ in combo]
        e = sum((p - u) * (degs[u - 1] - 1) for u in range(1, p))
        e += sum(shifts)
        e += sum(shifts[j - 1] * sum(degs[i - 1] - 1 for i in range(1, j)) for j in range(2, p + 1))
        for lab, c in naive_apply(field, table, [{lab: c} for lab, c in combo]).items():
            total[lab] = field.add(total.get(lab, field.zero), field.neg(c) if e % 2 else c)
    return total


def naive_hom_differential(h, d):
    """The matrix of d: Hom^d -> Hom^{d+1} of the Hom-complex ``h`` from X
    to Y, densely in the bases ``h.basis_by_degree``.  The column of the basis
    morphism f with one label at slot (t, s) is mu1 f = sum of
    m(delta_X^a, f, delta_Y^b) over every connection path of X from some
    s_out down to s and of Y from t down to some t_out, by
    :func:`naive_signed_product`; the term lands at slot (t_out, s_out)."""
    x, y = h.source, h.target
    cat = x.cat
    field = cat.field
    src = h.basis_by_degree.get(d, ())
    row_of = {key: i for i, key in enumerate(h.basis_by_degree.get(d + 1, ()))}
    if not row_of:
        return ()
    m = [[field.zero] * len(src) for _ in row_of]
    for j, (t, s, lab) in enumerate(src):
        f = (x.entries[s][1], y.entries[t][1], {lab: field.one})
        for s_out in range(s, x.size):
            for pre in naive_connection_paths(x, s_out, s):
                for t_out in range(t + 1):
                    for post in naive_connection_paths(y, t, t_out):
                        for lab2, c in naive_signed_product(cat, pre + [f] + post).items():
                            i = row_of[(t_out, s_out, lab2)]
                            m[i][j] = field.add(m[i][j], c)
    return tuple(map(tuple, m))


def _accumulate(field, acc, vec, negate=False):
    for lab, c in vec.items():
        acc[lab] = field.add(acc.get(lab, field.zero), field.neg(c) if negate else c)


def _nonzero(comps):
    comps = {key: {lab: c for lab, c in e.items() if c != 0} for key, e in comps.items()}
    return {key: e for key, e in comps.items() if e}


def naive_mu2(f, g):
    """The components of mu2(f, g), g: X -> Y applied first and f: Y -> Z,
    by slot (t, s) with zeros dropped: for each component of g at (t_y, s_x)
    and of f at (t_z, s_y), every connection path of X from some s_out down
    to s_x, of Y from t_y down to s_y and of Z from t_z down to some t_out,
    :func:`naive_signed_product` of pre + g + mid + f + post at (t_out,
    s_out), all times (-1)^(deg g + 1)."""
    x, y, z = g.source, g.target, f.target
    cat = x.cat
    out = {}
    for (ty, sx), g_elem in g.comps.items():
        g_item = (x.entries[sx][1], y.entries[ty][1], g_elem)
        for (tz, sy), f_elem in f.comps.items():
            f_item = (y.entries[sy][1], z.entries[tz][1], f_elem)
            for s_out in range(sx, x.size):
                for t_out in range(tz + 1):
                    for pre in naive_connection_paths(x, s_out, sx):
                        for mid in naive_connection_paths(y, ty, sy):
                            for post in naive_connection_paths(z, tz, t_out):
                                term = naive_signed_product(cat, pre + [g_item] + mid + [f_item] + post)
                                _accumulate(cat.field, out.setdefault((t_out, s_out), {}), term,
                                            negate=g.degree % 2 == 0)
    return _nonzero(out)


def naive_maurer_cartan(x):
    """The nonzero components of sum_p m_p(delta, ..., delta) of the twisted
    complex ``x``, by (t, s): :func:`naive_signed_product` summed over every
    connection path from s down to t < s."""
    out = {}
    for s in range(x.size):
        for t in range(s):
            for path in naive_connection_paths(x, s, t):
                _accumulate(x.cat.field, out.setdefault((t, s), {}), naive_signed_product(x.cat, path))
    return _nonzero(out)


def naive_evaluation(x, j):
    """The value of ``x`` at object j: (labels, matrices), both keyed by
    degree.  The basis is every (summand a, label of hom(o_a -> j)) in
    summand order, in degree deg(label) - k_a, labelled "a|label"; the
    column of (a, label) sums :func:`naive_signed_product` of the label
    (shift 0 to k_a) followed by every connection path from a down to some
    t, landing at (t, output label)."""
    cat = x.cat
    field = cat.field
    by_degree = {}
    for a, (o, k) in enumerate(x.entries):
        for lab in cat.basis(o, j):
            by_degree.setdefault(cat.deg(lab) - k, []).append((a, lab))
    matrices = {}
    for d, keys in by_degree.items():
        row_of = {key: i for i, key in enumerate(by_degree.get(d + 1, ()))}
        m = [[field.zero] * len(keys) for _ in row_of]
        for col, (a, lab) in enumerate(keys):
            item = (0, x.entries[a][1], {lab: field.one})
            for t in range(a + 1):
                for path in naive_connection_paths(x, a, t):
                    for out_lab, c in naive_signed_product(cat, [item] + path).items():
                        i = row_of[(t, out_lab)]
                        m[i][col] = field.add(m[i][col], c)
        matrices[d] = tuple(map(tuple, m))
    labels = {d: tuple(f"{a}|{lab}" for a, lab in keys) for d, keys in by_degree.items()}
    return labels, matrices


def naive_evaluation_dims(x, j) -> dict:
    """The nonzero cohomology dims of :func:`naive_evaluation`, dim C^d -
    rank d_d - rank d_{d-1} with :func:`naive_rank`."""
    labels, matrices = naive_evaluation(x, j)
    rank = {d: naive_rank(x.cat.field, m, len(labels[d])) for d, m in matrices.items()}
    dims = {d: len(keys) - rank[d] - rank.get(d - 1, 0) for d, keys in labels.items()}
    return {d: v for d, v in dims.items() if v}


def index_inequality_telescoping(chain) -> bool:
    """max(i_{p+1} - i_1, 0) <= sum_u max(i_{u+1} - i_u, 0)."""
    p = len(chain) - 1
    rhs = sum(max(chain[u + 1] - chain[u], 0) for u in range(p))
    return max(chain[p] - chain[0], 0) <= rhs


def index_inequality_denominators(chain, n: int) -> bool:
    """Replacing any one factor by its denominator lands in the output denominator."""
    p = len(chain) - 1
    terms = [max(chain[u + 1] - chain[u], 0) for u in range(p)]
    total = sum(terms)
    for k in range(p):
        # argument k lives in hom(i_{k+2-1} -> i_k), denominator F^{n - i_k}
        if total - terms[k] + (n - chain[k]) < n - chain[0]:
            return False
    return True


def least_slack_brute_force(n: int, p: int) -> tuple:
    """The least slacks (rhs - lhs) of the telescoping inequality and of the
    denominator inequality, the latter least over the slots k too, over
    every chain (i_1, ..., i_{p+1}) in {0..n-1}^{p+1}, one chain at a time."""
    telescoping = denominator = None
    for chain in itertools.product(range(n), repeat=p + 1):
        terms = [max(chain[u + 1] - chain[u], 0) for u in range(p)]
        total = sum(terms)
        tel = total - max(chain[p] - chain[0], 0)
        den = min(total - terms[k] + (n - chain[k]) - (n - chain[0]) for k in range(p))
        telescoping = tel if telescoping is None else min(telescoping, tel)
        denominator = den if denominator is None else min(denominator, den)
    return telescoping, denominator


def least_slack_by_prefixes(n: int, p: int) -> tuple:
    """The least slacks of :func:`least_slack_brute_force`, from the same
    definitions, with the chains that share prefix statistics walked together.

    With d_u = max(i_{u+1} - i_u, 0), a prefix (i_1, ..., i_m) enters the
    slacks of its extensions only through i_1, i_m, its sum S of the d_u
    and its least denominator slack so far, D = min over its slots k < m of
    S - d_k - i_k + i_1: appending x adds d = max(x - i_m, 0) to S and to
    every slot's slack, and opens slot m with slack S - i_m + i_1.  Each
    step keeps the set of these statistics over all prefixes of its length
    (2,598 at n = 8, p = 6, against 8^7 chains), so the last set holds those
    of every chain."""
    stats = {(i, i, 0, math.inf) for i in range(n)}
    for _ in range(p):
        stats = {(first, x, s + max(x - last, 0), min(den + max(x - last, 0), s - last + first))
                 for first, last, s, den in stats for x in range(n)}
    return (min(s - max(last - first, 0) for first, last, s, _ in stats),
            min(den for *_, den in stats))


def check_index_inequalities_exhaustive(n_max: int = 8, p_max: int = 6) -> bool:
    """Exhaustive check of both inequalities for p <= p_max, n <= n_max.

    Subtracting n from both sides of the denominator inequality leaves
    sum_{u != k} max(i_{u+1} - i_u, 0) >= i_k - i_1, so neither inequality
    mentions n, and chains over {0..n-1} are among those over
    {0..n_max-1}; repeating the last index of a chain adds a slot with
    d = 0 and leaves every other slack as it was, so the chains of arity
    p_max cover every smaller arity.  One pass of
    :func:`least_slack_by_prefixes` over the largest box is therefore
    exhaustive (:func:`least_slack_brute_force` would walk its 8^7 chains one
    by one, about 16 s at the defaults).
    """
    return min(least_slack_by_prefixes(n_max, p_max)) >= 0


def embed_generator(aus) -> dict:
    """Basis-level identification R = Gamma(0,0) intertwining all products.

    Returns the label map R -> Gamma(0,0); raises AssertionError if
    Gamma(0,0) is not R on the nose, with R's basis as its representatives,
    or if any table entry fails to match bit-exactly."""
    r, gamma = aus.base, aus.gamma
    obj = r.objects[0]
    space = r.hom[(obj, obj)]
    q = aus.quotients[(0, 0)]
    if q.denominator.dim != 0 or q.dim != space.dim:
        raise AssertionError("Gamma(0,0) is not R on the nose")
    mapping = {}
    for k, rep in enumerate(q.reps):
        if list(rep.values()) != [r.field.one]:
            raise AssertionError("Gamma(0,0) representatives are not the basis of R")
        mapping[space.labels[min(rep)]] = gamma.hom[(0, 0)].labels[k]
    for p in sorted(set(r.mult) | set(gamma.mult)):
        restricted = {
            key: vec for key, vec in gamma.mult.get(p, {}).items()
            if all(gamma.src(lab) == 0 and gamma.tgt(lab) == 0 for lab in key)
        }
        translated = {
            tuple(mapping[lab] for lab in key): {mapping[lab]: c for lab, c in vec.items()}
            for key, vec in r.mult.get(p, {}).items()
        }
        if translated != restricted:
            raise AssertionError(f"generator embedding fails to intertwine m_{p}")
    return mapping


def naive_validate_structure(c):
    """``validate_structure`` as a walk over sorted tables and sorted
    outputs, with the unit checks written out through ``apply_labels`` and
    ``is_unit``: the same report, built in report order."""
    report = ValidationReport()
    degree_bad, compos_bad = [], []
    for p, table in sorted(c.mult.items()):
        for key in sorted(table):
            if not all(c.src(a) == c.tgt(b) for a, b in zip(key, key[1:])):
                compos_bad.append({"arity": p, "tuple": list(key), "reason": "inputs not composable"})
                continue
            want = sum(c.deg(lab) for lab in key) + 2 - p
            for lab in sorted(table[key]):
                if (c.src(lab), c.tgt(lab)) != (c.src(key[-1]), c.tgt(key[0])):
                    compos_bad.append({"arity": p, "tuple": list(key), "reason": f"output {lab} in wrong hom-space"})
                elif c.deg(lab) != want:
                    degree_bad.append({"arity": p, "tuple": list(key),
                                       "reason": f"output {lab} has degree {c.deg(lab)}, expected {want}"})
    report.add("degrees", not degree_bad, witnesses=degree_bad)
    report.add("composability", not compos_bad, witnesses=compos_bad)
    unit_bad = []
    for x in c.objects:
        if c.deg(c.units[x]) != 0:
            unit_bad.append({"arity": 0, "tuple": [c.units[x]], "reason": f"unit degree {c.deg(c.units[x])}"})
    one = c.field.one
    for (x, y), space in sorted(c.hom.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
        for lab in space.labels:
            if c.apply_labels(2, (c.units[y], lab)) != {lab: one}:
                unit_bad.append({"arity": 2, "tuple": [c.units[y], lab], "reason": "m_2(1,f) != f"})
            if c.apply_labels(2, (lab, c.units[x])) != {lab: one}:
                unit_bad.append({"arity": 2, "tuple": [lab, c.units[x]], "reason": "m_2(f,1) != f"})
    for p, table in sorted(c.mult.items()):
        for key in sorted(table):
            if p != 2 and any(c.is_unit(lab) for lab in key):
                unit_bad.append({"arity": p, "tuple": list(key), "reason": "higher product nonzero on a unit"})
    report.add("units", not unit_bad, witnesses=unit_bad)
    minimal = 1 not in c.mult
    report.add("minimality", minimal, detail="m_1 = 0" if minimal else "m_1 != 0", required=False)
    return report
