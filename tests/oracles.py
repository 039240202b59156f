"""Reference implementations that the tests compare the library against.
Each one is structurally unlike the library computation it checks; the
exhaustive searches are exponential in their input, so they only run on
small instances."""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from amenshift.configs import (
    CosetSet,
    ToeplitzTable,
    _coset_pair,
    _differs,
    evaluate,
    per_set_letter,
    require_known,
)
from amenshift.entropy import _check_params
from amenshift.errors import ChainMismatch, InconsistentCylinders
from amenshift.groups import add, aselem
from amenshift.measures import discrete_metric


# --- separated / spanning sets: plain 2^m enumeration -------------------------


def _far_counts(sys, eps) -> list[list[int]]:
    """For each pair of points, the positions where their letters lie more
    than ε apart in the discrete metric: where they differ, once ε < 1."""
    return [[c if eps < 1 else 0 for c in row] for row in sys.diff_counts]


def separated_max_oracle(sys, eps, delta) -> int:
    """Largest subset in which every pair differs on more than δ|F| positions,
    by growing every clique of the separation graph with no bound."""
    eps, delta = _check_params(sys, eps, delta)
    counts = _far_counts(sys, eps)
    threshold = delta * sys.window_size
    m = len(sys)
    adj = [0] * m
    for i in range(m):
        for j in range(m):
            if i != j and counts[i][j] > threshold:
                adj[i] |= 1 << j

    best = 1  # a singleton is vacuously separated

    def grow(chosen_size: int, allowed: int, start: int) -> None:
        nonlocal best
        best = max(best, chosen_size)
        i = start
        rest = allowed >> start
        while rest:
            if rest & 1:
                grow(chosen_size + 1, allowed & adj[i], i + 1)
            rest >>= 1
            i += 1

    grow(0, (1 << m) - 1, 0)
    return best


def spanning_min_oracle(sys, eps, delta) -> int:
    """Smallest subset Z such that every point agrees with some z ∈ Z on more
    than (1-δ)|F| positions, by trying every subset in size order."""
    eps, delta = _check_params(sys, eps, delta)
    counts = _far_counts(sys, eps)
    threshold = delta * sys.window_size
    m = len(sys)
    covers = [0] * m
    for z in range(m):
        for i in range(m):
            if counts[z][i] < threshold:
                covers[z] |= 1 << i
    full = (1 << m) - 1
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            mask = 0
            for z in subset:
                mask |= covers[z]
            if mask == full:
                return size
    raise AssertionError("the whole sample always spans itself")


# --- Prokhorov distance: literal definition over a candidate superset ---------


def prokhorov_oracle(mu, nu, metric=discrete_metric):
    """Least candidate ε satisfying the closed-expansion feasibility
    μ(B) ≤ ν(B^ε) + ε and ν(B) ≤ μ(B^ε) + ε for every subset B of the joint
    support, where the candidates are every pairwise distance and every
    difference of a μ-subset mass and a ν-subset mass.  Each measure's 2^n
    subset masses are summed once; structurally unlike the library's
    max-flow."""
    atoms = sorted(set(mu.support) | set(nu.support), key=repr)
    subsets = [
        c for r in range(len(atoms) + 1) for c in itertools.combinations(atoms, r)
    ]
    # combinations keep the atoms' order, so a closed expansion built by
    # filtering `atoms` is itself a key of these tables
    mu_mass = {B: sum((mu.weight(a) for a in B), Fraction(0)) for B in subsets}
    nu_mass = {B: sum((nu.weight(a) for a in B), Fraction(0)) for B in subsets}

    def feasible(eps):
        for B in subsets:
            grown = tuple(y for y in atoms if any(metric(a, y) <= eps for a in B))
            if mu_mass[B] > nu_mass[grown] + eps or nu_mass[B] > mu_mass[grown] + eps:
                return False
        return True

    mu_values, nu_values = set(mu_mass.values()), set(nu_mass.values())
    # exact candidates: a float ε would make the masses + ε above float sums
    candidates = {Fraction(0)} | {Fraction(metric(a, b)) for a in atoms for b in atoms}
    candidates.update(a - b for a in mu_values for b in nu_values)
    candidates.update(b - a for a in mu_values for b in nu_values)
    ordered = sorted(c for c in candidates if c >= 0)
    lo, hi = 0, len(ordered) - 1
    assert feasible(ordered[hi])
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(ordered[mid]):
            hi = mid
        else:
            lo = mid + 1
    return ordered[lo]


def total_variation_oracle(mu, nu) -> Fraction:
    """(1/2) Σ_a |μ(a) - ν(a)| over the joint support, summed in Fractions
    with a linear weight lookup per atom; unlike the library's one sum of
    signed integer units."""
    support = set(mu.support) | set(nu.support)
    return sum((abs(mu.weight(a) - nu.weight(a)) for a in support), Fraction(0)) / 2


# --- Ψ's sides: the coset expansion the path kept before it read Per sets ----


def psi_side_oracle(path, letter, level) -> frozenset:
    """The level-`level` representatives of Ψ's `letter` side, by expanding
    every side coset at a level no deeper than `level` to that level."""
    reps = set()
    for lvl, r, a in path.table.assignments:
        if a == letter and lvl <= level:
            for v in path.chain.subgroup_in_domain(lvl, level):
                reps.add(tuple(c + d for c, d in zip(r, v)))
    return frozenset(reps)


def psi_e_repset(path, level) -> frozenset:
    """E_level(t), Ψ's letter-"0" side, as a set of level-`level` representatives."""
    return per_set_letter(path.table, level, "0").reps


def psi_d_density_at(path, level) -> Fraction:
    """The exact density of D_level(t), Ψ's letter-"1" side at one level."""
    return per_set_letter(path.table, level, "1").density()


# --- geometric box lengths: the Fraction loop before the integer recurrence ---


def geometric_box_lengths_oracle(eps, count: int) -> list[int]:
    """L_0 = 1, L_{n+1} = max(round(L_n/(1-eps)) ties up, L_n + 1), in Fractions."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    ratio = 1 / (1 - eps)
    lengths = [1]
    for _ in range(count):
        nxt = lengths[-1] * ratio
        rounded = int(nxt) + (1 if nxt - int(nxt) >= Fraction(1, 2) else 0)
        lengths.append(max(rounded, lengths[-1] + 1))
    return lengths


# --- block_alternating: the per-shell scan it made before bisecting ----------


def block_alternating_letter_oracle(lengths, n) -> str:
    """Ones on F_1 = [0, L_1) and on the shells [L_k, L_{k+1}) with even k,
    found by scanning the box lengths."""
    if n < 0:
        return "0"
    if n < lengths[1]:
        return "1"
    for k in range(2, len(lengths) - 1):
        if lengths[k] <= n < lengths[k + 1]:
            return "1" if k % 2 == 0 else "0"
    return "0"


# --- champernowne_binary: one digit by counting the k-bit blocks --------------


def champernowne_letter_oracle(n) -> str:
    """Letter n of champernowne_binary: 0 below 0, else digit n of the
    concatenation 1 10 11 100 ..., found by skipping whole blocks of k-bit
    numbers (2^(k-1) numbers of k digits each) in a loop."""
    if n < 0:
        return "0"
    k = 1
    while n >= k << (k - 1):
        n -= k << (k - 1)
        k += 1
    number, place = divmod(n, k)
    return format((1 << (k - 1)) + number, "b")[place]


# --- point reads: an oracle's bounds test and a row-major index, cell by cell --


def oracle_letter(x, g):
    """The letter of the Oracle x at the cell g of its rank: its rule inside
    the declared box, None outside, by one bounds test per cell."""
    return x.rule(g) if all(a <= c <= b for a, c, b in zip(x.lo, g, x.hi)) else None


def row_major_index(g, q) -> int:
    """The row-major index in the box [0, q)^d of the cell of g mod q."""
    i = 0
    for c in g:
        i = i * q + c % q
    return i


# --- coset tables: the per-level dict walk the period array replaced ----------


def period_table_oracle(x, level) -> dict:
    """{f: letter or None} over F_level for level >= x.max_level, by writing
    each assignment's letter on every cell of its coset in F_level."""
    chain = x.chain
    if hasattr(x, "assignments"):
        triples = x.assignments
    else:
        triples = [(x.level, f, a) for f, a in x.word.items()]
    table = dict.fromkeys(chain.domain(level))
    for n, r, a in triples:
        for v in chain.subgroup_in_domain(n, level):
            table[tuple(c + d for c, d in zip(r, v))] = a
    return table


def krieger_window_count_oracle(result, n) -> int:
    """The distinct complete windows of shape F_{k_n} at the translates
    H_{k_n} ∩ F_{k_{n+1}} of the built configuration, stage n planting: the
    skeleton's letter where it has one, else ``result.cells``'s, else
    Unknown.  One lookup per cell of every window; where both give a letter
    they must agree."""
    st, chain = result.stages[n], result.chain

    def letter(g):
        a, b = result.skeleton.lookup(g), result.cells.get(g)
        assert a is None or b is None or a == b, f"skeleton and cells disagree at {g}"
        return b if a is None else a

    windows = set()
    for v in chain.subgroup_in_domain(st.level, st.next_level):
        window = tuple(letter(add(f, v)) for f in chain.domain(st.level))
        if None not in window:
            windows.add(window)
    return len(windows)


# --- odometer coordinates: the cylinder semantics of a coset table -------------


def odometer_phi(g, chain, N=None) -> tuple:
    """φ(g): the residue of g in each quotient G/H_n for n = 1..N."""
    N = chain.depth if N is None else N
    chain._check_level(N)
    g = aselem(g, chain.rank)
    return tuple(chain.coset_rep(g, n) for n in range(1, N + 1))


def odometer_compatible(chain, residues) -> bool:
    """Projection consistency of an inverse-limit point: r_{n+1} ≡ r_n mod H_n,
    and each r_n a cell of F_n."""
    residues = [aselem(r, chain.rank) for r in residues]
    nested = all(chain.coset_rep(r_next, n) == r for n, (r, r_next) in enumerate(zip(residues, residues[1:]), 1))
    return nested and all(chain.coset_rep(r, n) == r for n, r in enumerate(residues, 1))


def toeplitz_from_table(chain, cylinder_letters, alphabet) -> ToeplitzTable:
    """The configuration η(g) = f(φ(g)) for f constant on the given cylinders,
    each named by (level k ≥ 1, residue in F_k): the table of those
    assignments, which raises InconsistentCylinders for conflicting letters."""
    for k, _ in cylinder_letters:
        chain._check_level(k)
        if k < 1:
            raise InconsistentCylinders("cylinder levels start at 1")
    return ToeplitzTable(chain, tuple((k, r, a) for (k, r), a in cylinder_letters.items()), alphabet)


# --- letter measures: one evaluate per cell, no running count -----------------


def letter_frequencies(x, F) -> dict:
    """{letter: its frequency over F}, F read as a sequence (a repeated cell
    counts each time), one evaluate per cell in F's order; UnknownMembership
    at the first Unknown cell, written as a cell of x's rank."""
    counts = {}
    for g in F:
        g = aselem(g, x.rank)
        a = require_known(evaluate(x, g), g)
        counts[a] = counts.get(a, 0) + 1
    return {a: Fraction(c, len(F)) for a, c in counts.items()}


# --- window scans: the lazy walk the union-box kernel replaced -----------------


def window_walk(point, shape, translates):
    """For each translate g in order, [point(f + g) for f in shape], lazily,
    so a raising point function stops at the first offending cell."""
    for g in translates:
        yield [point(tuple(a + b for a, b in zip(f, g))) for f in shape]


def known_letter(x):
    """g ↦ the letter of x at g, raising UnknownMembership at an Unknown cell."""
    return lambda g: require_known(evaluate(x, g), g)


def known_difference(x, z):
    """g ↦ [x_g ≠ z_g], raising UnknownMembership where either side is Unknown."""

    def rho(g):
        a, b = evaluate(x, g), evaluate(z, g)
        return require_known(None if a is None or b is None else a != b, g)

    return rho


# --- groups and coset sets: helpers the library does not export ---------------


def translate(F, g) -> tuple:
    """F + g, in F's order."""
    return tuple(add(f, g) for f in F)


def in_subgroup(chain, g, n) -> bool:
    """Whether the element g lies in H_n = (q_n Z)^d."""
    return all(c % chain.scale(n) == 0 for c in g)


def folner_invariance_ratio(F, g) -> Fraction:
    """|(g+F) △ F| / |F|, the Følner defect of F under the translation g."""
    return Fraction(len(set(F) ^ set(translate(F, g))), len(set(F)))


def refine(cs, m) -> CosetSet:
    """The coset set cs re-represented at a level m >= cs.level."""
    shifts = cs.chain.subgroup_in_domain(cs.level, m)
    return CosetSet(cs.chain, m, frozenset(add(r, v) for r in cs.reps for v in shifts))


def density_in(F, member) -> Fraction:
    """D_F(A) = |A ∩ F| / |F| for a predicate decidable on every cell of F."""
    return Fraction(sum(1 for g in F if member(g)), len(F))


# --- disagreement sets: the coset and window structure D* counts ---------------


@dataclass(frozen=True)
class CosetDisagreement:
    """Exact disagreement structure of two same-chain configurations.

    ``confirmed`` holds the cosets where both sides are determined and differ;
    ``unresolved`` the cosets where at least one side is Unknown.  The true
    disagreement set lies between ``confirmed`` and their union.
    """

    confirmed: CosetSet
    unresolved: CosetSet

    @property
    def exact(self) -> bool:
        return not self.unresolved.reps


@dataclass(frozen=True)
class SampledDisagreement:
    """Pointwise disagreement flags over a finite window (None = unresolved)."""

    window: tuple
    flags: Mapping[tuple, "bool | None"]


def disagreement_set(x, z, window=None):
    """Where two configurations differ.

    Exact (a :class:`CosetDisagreement`) when both sides are Periodic or
    coset tables over the same chain; otherwise a window must be supplied and
    a :class:`SampledDisagreement` over it is returned.
    """
    if pair := _coset_pair(x, z):
        p, D = pair
        dom = x.chain.domain(p)
        cosets = lambda v: CosetSet(x.chain, p, frozenset(f for f, d in zip(dom, D) if d is v))
        return CosetDisagreement(cosets(True), cosets(None))
    if isinstance(x, ToeplitzTable) and isinstance(z, ToeplitzTable):
        raise ChainMismatch("coset tables use different chains")
    if window is None:
        raise ValueError("pair admits no exact disagreement set; supply a window")
    # each cell is a box of side 1, read on both sides
    differs, cell = _differs(x, z), (1,) * x.rank
    return SampledDisagreement(tuple(window), {g: differs(g, cell)[0] for g in window})
