"""Toeplitz machinery: skeleton checks, regularity profiles, periodic
approximation, the binary path Ψ, interpolation, and the positive-entropy
builder.

The path Ψ(t) splits the group into a "one" side D(t) and a "zero" side
E(t), built level by level: at stage m the single undecided coset of the
previous level splits into k fresh cosets of H_m (each of Banach density
1/|F_m|), a maximal prefix of them joins D(t) subject to D*'s budget t, the
suffix joins E(t), and at most one coset stays undecided.  The quota at
stage m is q = max{0 ≤ l ≤ k : l/|F_m| ≤ t - D*(D(t))}, i.e. fresh cosets
are weighted by their own density.

Enumeration order everywhere is the canonical lexicographic order of the
translates v in H_{m-1} ∩ F_m applied to the undecided representative, so
the whole construction is deterministic and s ≤ t gives the nesting
D_m(s) ⊆ D_m(t) at every level.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .configs import (
    Alphabet,
    Letter,
    Periodic,
    ToeplitzTable,
    _cycle,
    _exact_chain,
    _index,
    _level_labels,
    _window,
    per_set_letter,
)
from .entropy import EntropyEstimate, estimate_from_count
from .errors import ChainMismatch, ChainTooShallow, UnresolvedCells
from .groups import Element, SubgroupChain, add, identity


# ---------------------------------------------------------------------------
# skeleton and regularity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SkeletonReport:
    """Per-level skeleton diagnostics for a configuration.

    ``nonempty[n-1]`` records Per_{H_n} ≠ ∅; ``coverage`` is the exact
    fraction of F_N lying in ∪_{m≤N} Per_{H_m} (= Per_{H_N} by monotonicity);
    ``separation_failures`` lists pairs (n, g) of a level and a nonidentity
    representative whose shift leaves every Per_{H_n}(·, a) unchanged.
    """

    depth: int
    nonempty: tuple[bool, ...]
    coverage: Fraction
    separation_failures: tuple[tuple[int, Element], ...]

    @property
    def all_nonempty(self) -> bool:
        return all(self.nonempty)

    @property
    def separation_ok(self) -> bool:
        return not self.separation_failures


def verify_skeleton(x: Periodic | ToeplitzTable, N: int) -> SkeletonReport:
    """Check the three skeleton conditions for levels 1..N, exactly.

    The labels of F_N are computed once, and each coarser level's are
    folded from the next finer one's, or lifted from the period array at
    and above max_level (see ``configs._level_labels``); ``coverage`` is
    read from F_N's.  A shift fixes every Per_{H_n}(·, a) iff it preserves
    the labelling f ↦ letter (None off the periodic part), so it maps the
    rarest label class C onto itself: only the |C| - 1 shifts of
    :func:`_fixing_candidates` are compared, rather than every
    g ∈ F_n \\ {0}, each as the rows of the labels' window at offset g
    against their rows, stopping at the first unequal row (:func:`_fixes`).
    The cost is about one labelling of F_N and, per level, one count of
    its labels and at most |C| - 1 compares: none where an undecided
    coset is a class of its own, and none for a labelling of one class (a
    constant word, or a level all Unknown), whose every shift fixes it and
    is recorded unchecked.
    """
    chain = _exact_chain(x)
    chain._check_level(N)
    labels = _level_labels(x, N)
    nonempty = []
    failures: list[tuple[int, Element]] = []
    for n in range(1, N + 1):
        label, q = labels[n], chain.scale(n)
        nonempty.append(label.count(None) < len(label))
        shifts = _fixing_candidates(label, chain.domain(n), q)
        # all |F_n| - 1 candidates: the labelling is one class, fixed by every shift
        if 0 < len(shifts) < len(label) - 1:
            rows = [label[i : i + q] for i in range(0, len(label), q)]
            shifts = [g for g in shifts if _fixes(rows, q, g)]
        failures += [(n, g) for g in shifts]
    coverage = Fraction(len(labels[N]) - labels[N].count(None), len(labels[N]))
    return SkeletonReport(N, tuple(nonempty), coverage, tuple(failures))


def _fixes(rows: Sequence[Sequence], q: int, g: Element) -> bool:
    """Whether the shift g fixes the labelling of [0, q)^d with rows ``rows``
    along the last axis: the rows at offset g, in the order of a rank-(d-1)
    window of the row indices, each rotated by g's last coordinate, equal the
    rows in place; the compare stops at the first unequal row."""
    *outer, s = g
    order = _window(tuple(range(len(rows))), q, (q,) * len(outer), tuple(outer))
    return all(_cycle(s, q, q, rows[i]) == row for i, row in zip(order, rows))


def _fixing_candidates(label: Sequence[Letter | None], dom: Sequence[Element], q: int) -> list[Element]:
    """The nonidentity shifts of F_n that may fix the row-major labelling
    ``label`` of its domain ``dom``, in domain order.  A fixing shift g maps
    the rarest label class C (on ties the one whose first cell comes first)
    onto itself, so g ≡ f - f_0 mod q_n for some f ∈ C, f_0 the first cell
    of C: |C| - 1 candidates, none when C is a single cell."""
    counts = Counter(label)  # its keys in the order of their first cells
    rare = min(counts, key=counts.get)
    if counts[rare] == 1:
        return []
    at = [label.index(rare)]
    for _ in range(counts[rare] - 1):
        at.append(label.index(rare, at[-1] + 1))
    f0 = dom[at[0]]
    return sorted(tuple((c - c0) % q for c, c0 in zip(dom[i], f0)) for i in at[1:])


# the default reading of "regular": the confirmed periodic part reaches 1 - this
REGULARITY_TOLERANCE = Fraction(1, 1024)


@dataclass(frozen=True)
class RegularityProfile:
    """Exact densities of the confirmed periodic part, level by level."""

    levels: tuple[int, ...]
    densities: tuple[Fraction, ...]
    tolerance: Fraction
    regular: bool


def regularity_profile(x: Periodic | ToeplitzTable, N: int) -> RegularityProfile:
    """D*(Per_{H_n}(x)) for n = 1..N; flagged regular when the profile
    reaches 1 - REGULARITY_TOLERANCE.  The raw profile is always returned:
    regularity at finite depth is a judgment call and the flag is only a
    default reading.  The densities are read from the labels of every level
    that ``configs._level_labels`` derives from those of F_N, not from one
    Per set per level."""
    densities = tuple(Fraction(len(a) - a.count(None), len(a)) for a in _level_labels(x, N)[1:])
    regular = bool(densities) and densities[-1] >= 1 - REGULARITY_TOLERANCE
    return RegularityProfile(tuple(range(1, N + 1)), densities, REGULARITY_TOLERANCE, regular)


def periodic_approximation(x: Periodic | ToeplitzTable, n: int) -> Periodic:
    """The level-n periodic configuration agreeing with x on F_n.

    Its disagreement with x is contained in the complement of Per_{H_n}(x),
    so D*(x^{(n)}, x) ≤ 1 - D*(Per_{H_n}(x)) with both sides exact.
    """
    chain = _exact_chain(x)
    cells, dom = x._read(identity(chain.rank), (chain.scale(n),) * chain.rank), chain.domain(n)
    if None in cells:
        f = dom[cells.index(None)]
        raise UnresolvedCells(f"no value at {f}; cannot build a level-{n} word")
    return Periodic(chain, n, dict(zip(dom, cells)), x.alphabet)


# ---------------------------------------------------------------------------
# the path t ↦ Ψ(t)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsiPath:
    """The two-sided coset split behind Ψ(t), with its exact bookkeeping.

    ``table`` assigns "1" on D(t) and "0" on E(t); ``residual`` is the single
    still-undecided representative at ``depth`` (None once the split
    terminated, i.e. D(t) ∪ E(t) is everything).  D*(D(t)) ≤ t holds exactly
    at every level, with t - D*(D_m(t)) < 1/|F_m| after every stage.
    """

    t: Fraction
    chain: SubgroupChain
    depth: int
    residual: Element | None
    d_density: Fraction
    table: ToeplitzTable

    # the construction runs level by level and, within a level, in the
    # lexicographic order of the fresh translates, which is the table's order
    @property
    def d_cosets(self) -> tuple[tuple[int, Element], ...]:
        """D(t) as (level, representative) pairs in construction order."""
        return tuple((lvl, r) for lvl, r, a in self.table.assignments if a == "1")

    @property
    def e_cosets(self) -> tuple[tuple[int, Element], ...]:
        return tuple((lvl, r) for lvl, r, a in self.table.assignments if a == "0")

    @property
    def terminated(self) -> bool:
        return self.residual is None

    # at every level n ≥ 1 each side is the table's Per set of its letter:
    # stage n + 1 keeps part of the level-n residual undecided, or ends with
    # a quota 0 < q < k that gives it cosets of both letters, so deeper
    # cosets of one letter never make up a whole H_n-coset
    def d_repset(self, level: int) -> frozenset[Element]:
        """D_level(t) as a set of level-`level` representatives."""
        return per_set_letter(self.table, level, "1").reps


def psi_path(
    t,
    chain: SubgroupChain,
    depth: int | None = None,
) -> PsiPath:
    """Run the D/E split for the parameter t down to the given depth.

    Ψ(0) is all zeros, Ψ(1) all ones, and for s ≤ t the one-sides nest:
    D_m(s) ⊆ D_m(t) at every level.  The exact density of D(t) reaches t
    whenever the recursion terminates and approaches it within 1/|F_depth|
    otherwise.
    """
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError("t must lie in [0, 1]")
    depth = chain.depth if depth is None else depth
    chain._check_level(depth)
    if depth < 1:
        raise ValueError("need depth at least 1")

    assignments: list[tuple[int, Element, Letter]] = []
    d_density = Fraction(0)
    residual: Element | None = identity(chain.rank)

    for m in range(1, depth + 1):
        fresh = [add(v, residual) for v in chain.subgroup_in_domain(m - 1, m)]
        k = len(fresh)
        # fresh cosets are weighted by their density 1/|F_m|; weighting them
        # by 1/k instead stalls on the dyadic chain at t = 1/4 with D(t)
        # empty and the origin in neither side
        unit = Fraction(1, chain.domain_size(m))
        q = min(k, int((t - d_density) / unit))  # largest l with l·unit ≤ t - D*(D)
        assignments.extend((m, f, "1") for f in fresh[:q])
        d_density += q * unit
        if d_density == t:
            assignments.extend((m, f, "0") for f in fresh[q:])
            residual = None
            break
        assignments.extend((m, f, "0") for f in fresh[q + 1 :])
        residual = fresh[q]

    table = ToeplitzTable(chain, tuple(assignments), Alphabet(("0", "1")))
    return PsiPath(
        t=t, chain=chain, depth=depth, residual=residual, d_density=d_density, table=table
    )


def toeplitz_interpolate(
    z: Periodic | ToeplitzTable,
    z_prime: Periodic | ToeplitzTable,
    t,
    depth: int | None = None,
) -> ToeplitzTable:
    """The mixture that follows z on the one-side of Ψ(t) and z' on the zero-side.

    At t = 1 this reproduces z, at t = 0 it reproduces z'; every resolved
    cell keeps a finite period (the intersection of the Ψ-coset with the
    source assignment), and its disagreement stays dominated by that of Ψ.
    """
    chain = _exact_chain(z)
    if _exact_chain(z_prime) != chain:
        raise ChainMismatch("interpolation endpoints use different chains")
    path = psi_path(t, chain, depth)
    pieces: list[tuple[int, Element, Letter]] = []
    for lvl, r, side in path.table.assignments:
        pieces.extend((z if side == "1" else z_prime).restrict(lvl, r))
    if path.residual is not None:
        # on the undecided coset the mixture is determined wherever the two
        # sources agree, whichever way the split would have gone; the cells
        # residual + v already lie in F_level
        level = max(path.depth, z.max_level, z_prime.max_level)
        for v in chain.subgroup_in_domain(path.depth, level):
            f = add(path.residual, v)
            a = z._at(f)
            if a is not None and a == z_prime._at(f):
                pieces.append((level, f, a))
    letters = tuple(dict.fromkeys(z.alphabet.letters + z_prime.alphabet.letters))
    return ToeplitzTable(chain, tuple(pieces), Alphabet(letters))


# ---------------------------------------------------------------------------
# the positive-entropy builder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuilderStage:
    """One round of the positive-entropy construction.

    Round n reserves G_n (``claimed``, quota r_n = ⌊(1-γ)|F_{k_n}|/2^n⌋) as
    cosets of H_{k_n}, giving its ``arbitrary_cells`` a letter; S_n, the
    ``free_cells`` of F_{k_n}, are those no stage claims.  Each round but
    the last plants every pattern on S_n, bar F_{k_n}'s own when complete,
    on a fresh tile of F_{k_{n+1}} (``planted``).  The tiles carry the same
    claims, so their windows of shape F_{k_n} show ``window_count`` =
    |𝒜|^{|S_n|} ≥ |𝒜|^{γ|F_{k_n}|} patterns, unscanned; the tests count them
    by brute force.  The last round plants nothing and records both as 0.
    """

    index: int
    level: int
    quota: int
    claimed: tuple[Element, ...]
    arbitrary_cells: tuple[Element, ...]
    free_cells: int
    next_level: int | None
    planted: int
    window_count: int


@dataclass(frozen=True)
class KriegerResult:
    gamma: Fraction
    chain: SubgroupChain
    alphabet: Alphabet
    levels: tuple[int, ...]
    stages: tuple[BuilderStage, ...]
    skeleton: ToeplitzTable
    cells: Mapping[Element, Letter]

    def claimed_cells_within(self, n: int) -> int:
        """Σ_{i≤n} r_i · |F_{k_n}| / |F_{k_i}|: skeleton cells inside F_{k_n}."""
        if not 0 <= n < len(self.stages):
            raise ValueError(f"no stage {n}: the stages are 0..{len(self.stages) - 1}")
        size_n = self.chain.domain_size(self.levels[n])
        return sum(
            st.quota * size_n // self.chain.domain_size(st.level)
            for st in self.stages[: n + 1]
        )

    def entropy_at(self, n: int) -> EntropyEstimate:
        """Certified lower-bound entropy estimate at planting stage n, level k_n."""
        if not 0 <= n < len(self.stages) - 1:
            raise ValueError(f"stage {n} has no window certificate: stages 0..{len(self.stages) - 2} plant")
        st = self.stages[n]
        return estimate_from_count(
            st.window_count,
            st.level,
            self.chain.domain_size(st.level),
            len(self.alphabet),
        )


def meets_power_bound(count: int, exponent: Fraction, base: int) -> bool:
    """Exact check of count ≥ base^exponent for a rational exponent ≥ 0."""
    exponent = Fraction(exponent)
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    return count ** exponent.denominator >= base**exponent.numerator


def krieger_construct(
    gamma,
    chain: SubgroupChain,
    alphabet: Alphabet,
    stages: int = 2,
) -> KriegerResult:
    """Build a coset table whose pattern counts certify entropy ≥ γ·log|𝒜|.

    Runs the reserve-and-plant loop for the requested number of rounds,
    starting from k_0 = 0 (so r_0 = ⌊(1-γ)·1⌋ = 0 and the reserved fraction
    Σ r_i/|F_{k_i}| stays below (1-γ), which keeps |S_n| ≥ γ|F_{k_n}|).
    Raises ChainTooShallow, before drawing any pattern, when no level holds
    |𝒜|^{|F_{k_n}|} tiling copies of F_{k_n} and more than the round plants.
    """
    gamma = Fraction(gamma)
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    if stages < 1:
        raise ValueError("need at least one stage")
    nletters = len(alphabet)
    if nletters < 2:
        raise ValueError("need at least two letters")
    letters = alphabet.letters

    rank = chain.rank
    cells: dict[Element, Letter] = {identity(rank): letters[0]}  # arbitrary seed
    # the claimed cosets of every finished stage, which never overlap, and
    # their letters on F_{k_n}, row-major, None on unclaimed cells: claims of
    # levels ≤ k_n repeat with period q_{k_n}, so the array tiles up to F_k
    # for every k ≥ k_n
    claims: list[Letter | None] = [None]
    # the current stage's (level, quota, claimed, arbitrary); r_0 = 0 for gamma in (0,1)
    k_n, quota, claimed, arbitrary = 0, 0, (), ()
    records: list[BuilderStage] = []

    for n in range(stages + 1):
        free_cells = claims.count(None)
        # the last pass records the last reached level and plants nothing beyond it
        k_next, planted, window_count = None, 0, 0
        if n < stages:
            free = [f for f, v in zip(chain.domain(k_n), claims) if v is None]
            own = tuple(cells.get(f) for f in free)
            # every pattern on the free cells but F_{k_n}'s own, when that is complete
            window_count = nletters**free_cells
            planted = window_count - (None not in own)
            # k_{n+1}: the first level with |𝒜|^{|F_{k_n}|} copies of F_{k_n}, more than it plants,
            # found before any pattern is drawn
            size = chain.domain_size(k_n)
            least = max(nletters**size, planted + 1)
            fits = (m for m in range(k_n + 1, chain.depth + 1) if chain.domain_size(m) // size >= least)
            k_next = next(fits, None)
            if k_next is None:
                raise ChainTooShallow(f"no level offers {nletters}^{size} tiling copies of F_{k_n}")

            # the patterns go, as they are drawn, on the free cells of the
            # fresh tiles v + F_{k_n}, v ≠ 0, of F_{k_next}, where the free
            # cell f of the tile sits at offset(v) + offset(f); the claims
            # tile up to F_{k_next}
            dom_next, Q = chain.domain(k_next), chain.scale(k_next)
            claims = list(_window(claims, chain.scale(k_n), (Q,) * rank, identity(rank)))
            offsets = [_index(f, Q) for f in free]
            patterns = (p for p in itertools.product(letters, repeat=free_cells) if p != own)
            for v, pattern in zip(chain.subgroup_in_domain(k_n, k_next)[1:], patterns):
                base = _index(v, Q)
                for o, letter in zip(offsets, pattern):
                    cells[dom_next[base + o]] = letter

        records.append(
            BuilderStage(
                index=n,
                level=k_n,
                quota=quota,
                claimed=claimed,
                arbitrary_cells=arbitrary,
                free_cells=free_cells,
                next_level=k_next,
                planted=planted,
                window_count=window_count,
            )
        )
        if k_next is None:
            break

        # reserve G_{n+1} inside F_{k_next}: the first r cells avoiding older
        # claims, each one H_{k_next} coset, marked in the claims array
        r = (gamma.denominator - gamma.numerator) * len(dom_next) // (gamma.denominator * 2 ** (n + 1))
        picked = list(itertools.islice((i for i, v in enumerate(claims) if v is None), r))
        claimed = tuple(dom_next[i] for i in picked)
        arbitrary = tuple(f for f in claimed if f not in cells)
        cells.update(dict.fromkeys(arbitrary, letters[0]))
        for i, f in zip(picked, claimed):
            claims[i] = cells[f]
        k_n, quota = k_next, r

    # the skeleton is every stage's claims, and ``claims`` already is its
    # array: each reserve took unclaimed cells only, so no two claims
    # conflict, and a claimed cell's letter never changes once set.  The
    # triples come sorted: levels rise stage by stage, and a stage's claims
    # are picked in row-major order, which is the order of F_{k_n}'s cells
    assignments = tuple((st.level, f, cells[f]) for st in records for f in st.claimed)
    return KriegerResult(
        gamma=gamma,
        chain=chain,
        alphabet=alphabet,
        levels=tuple(st.level for st in records),
        stages=tuple(records),
        skeleton=ToeplitzTable._of_claims(chain, assignments, alphabet, claims, chain.scale(k_n)),
        cells=dict(cells),
    )


def regular_table(
    chain: SubgroupChain,
    letters: Sequence[Letter] = ("a", "b"),
    depth: int | None = None,
    resolve_tail: bool = True,
) -> ToeplitzTable:
    """A regular coset table: one undecided coset per level, shrinking to
    density 1/|F_n|, letters alternating by level.

    With ``resolve_tail`` the final level assigns everything, so the table is
    fully resolved (and therefore periodic at the last level); without it,
    the last residual coset stays Unknown and the confirmed periodic part has
    density exactly 1 - 1/|F_n| at every level.
    """
    if len(set(letters)) < 2:
        raise ValueError("need at least two distinct letters to alternate")
    depth = chain.depth if depth is None else depth
    chain._check_level(depth)
    if depth < 1:
        raise ValueError("need depth at least 1")
    assignments = []
    residual = identity(chain.rank)
    for n in range(1, depth + 1):
        fresh = [add(v, residual) for v in chain.subgroup_in_domain(n - 1, n)]
        letter = letters[(n - 1) % len(letters)]
        keep = fresh if (n == depth and resolve_tail) else fresh[:-1]
        assignments.extend((n, f, letter) for f in keep)
        residual = fresh[-1]
    return ToeplitzTable(chain, tuple(assignments), Alphabet(tuple(dict.fromkeys(letters))))
