"""Finite descriptions of shift configurations and their periodicity structure.

A configuration is a point of 𝒜^G for G = Z^d, described in one of three
finite ways:

* ``Periodic`` — a total word on the level-k fundamental domain, repeated on
  every coset of H_k;
* ``ToeplitzTable`` — a list of coset assignments (level, representative,
  letter); cells covered by no assignment are explicitly Unknown;
* ``Oracle`` — an evaluation rule on a declared finite box, Unknown outside.

Unknown is the value ``None``, never an exception: any aggregate over a
region containing Unknown must report an interval instead of guessing.

The shift action follows (h·x)(g) = x(g+h), so shifting by h moves the
pattern of x at g+h to g.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Mapping

from .errors import ChainMismatch, InconsistentCylinders, InexactVariant, UnknownMembership
from .groups import Element, FiniteSubset, SubgroupChain, add, aselem, sub

UNKNOWN = None

Letter = str


@dataclass(frozen=True)
class Alphabet:
    """Finite set of letters with the discrete metric ρ(a,b) = [a ≠ b].

    The discrete metric separates distinct cylinders at distance 1 > 1/2 and
    keeps every Δ_F sum an integer, so all densities stay rational.
    """

    letters: tuple[Letter, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("alphabet letters must be distinct")

    def __len__(self) -> int:
        return len(self.letters)

    def __contains__(self, a: Letter) -> bool:
        return a in self.letters

    @staticmethod
    def distance(a: Letter, b: Letter) -> int:
        return 0 if a == b else 1


BINARY = Alphabet(("0", "1"))


@dataclass(frozen=True)
class CosetSet:
    """A union of cosets of H_n, stored as level + representatives in F_n.

    Such sets are exactly the sets whose upper and lower Banach densities
    coincide and equal |reps| / |F_n|.
    """

    chain: SubgroupChain
    level: int
    reps: frozenset[Element]

    def __post_init__(self):
        dom = set(self.chain.domain(self.level))
        if not set(self.reps) <= dom:
            raise ValueError("representatives must lie in the fundamental domain")

    @classmethod
    def make(cls, chain: SubgroupChain, level: int, reps) -> "CosetSet":
        return cls(chain, level, frozenset(aselem(r, chain.rank) for r in reps))

    @classmethod
    def empty(cls, chain: SubgroupChain, level: int) -> "CosetSet":
        return cls(chain, level, frozenset())

    @classmethod
    def full(cls, chain: SubgroupChain, level: int) -> "CosetSet":
        return cls(chain, level, frozenset(chain.domain(level)))

    @property
    def is_empty(self) -> bool:
        return not self.reps

    def __contains__(self, g) -> bool:
        return self.chain.coset_rep(g, self.level) in self.reps

    def density(self) -> Fraction:
        return Fraction(len(self.reps), self.chain.domain_size(self.level))

    def complement(self) -> "CosetSet":
        dom = frozenset(self.chain.domain(self.level))
        return CosetSet(self.chain, self.level, dom - self.reps)

    def at_level(self, m: int) -> "CosetSet":
        """The same set re-represented at a deeper level m ≥ level."""
        if m < self.level:
            raise ValueError("can only refine to a deeper level")
        shifts = self.chain.subgroup_in_domain(self.level, m)
        reps = frozenset(add(r, v) for r in self.reps for v in shifts)
        return CosetSet(self.chain, m, reps)

    def _aligned(self, other: "CosetSet") -> tuple["CosetSet", "CosetSet"]:
        if self.chain != other.chain:
            raise ChainMismatch("coset sets live over different chains")
        m = max(self.level, other.level)
        return self.at_level(m), other.at_level(m)

    def union(self, other: "CosetSet") -> "CosetSet":
        a, b = self._aligned(other)
        return CosetSet(a.chain, a.level, a.reps | b.reps)

    def difference(self, other: "CosetSet") -> "CosetSet":
        a, b = self._aligned(other)
        return CosetSet(a.chain, a.level, a.reps - b.reps)

    def contains_set(self, other: "CosetSet") -> bool:
        a, b = self._aligned(other)
        return b.reps <= a.reps


# ---------------------------------------------------------------------------
# configuration variants
# ---------------------------------------------------------------------------


class _CosetTable:
    """The coset index of Periodic and ToeplitzTable: ``_levels`` holds
    (n, q_n, {representative: letter}) per assigned level, coarsest first,
    nested entries agreeing.  A plain attribute (repr, eq, hash and fields
    skip it) that no other module reads."""

    _levels: tuple[tuple[int, int, dict[Element, Letter]], ...]

    @property
    def rank(self) -> int:
        return self.chain.rank

    @property
    def max_level(self) -> int:
        return self._levels[-1][0] if self._levels else 1

    def lookup(self, g) -> Letter | None:
        """Letter at g, or None; nested assignments agree, so the first hit
        (coarsest level first) is the answer, at one dict probe per level."""
        g = aselem(g, self.chain.rank)
        for _, q, reps in self._levels:
            a = reps.get(tuple(c % q for c in g))
            if a is not None:
                return a
        return None

    def restrict(self, level: int, rep: Element) -> list[tuple[int, Element, Letter]]:
        """Assignments describing this table on the coset rep + H_level, rep in F_level.

        An assigned coset at a level no deeper than ``level`` that contains
        rep covers the whole target coset and is returned as one assignment
        at ``level``; otherwise the answer is the deeper assignments whose
        representatives reduce to rep mod q_level.
        """
        q = self.chain.scale(level)
        pieces = []
        for n, qn, reps in self._levels:
            if qn <= q:
                a = reps.get(tuple(c % qn for c in rep))
                if a is not None:
                    return [(level, rep, a)]
            else:
                pieces.extend((n, s, a) for s, a in reps.items() if tuple(c % q for c in s) == rep)
        return pieces

    def value_table(self, level: int) -> dict[Element, Letter | None]:
        """Values on F_level, one entry per H_level-coset (Unknown = None).

        Requires level ≥ max_level so the table is coset-constant.
        """
        if level < self.max_level:
            raise ValueError(f"need level >= {self.max_level} to tabulate")
        table: dict[Element, Letter | None] = dict.fromkeys(self.chain.domain(level))
        for n, _, reps in self._levels:
            shifts = self.chain.subgroup_in_domain(n, level)
            for r, a in reps.items():
                for v in shifts:
                    table[add(r, v)] = a
        return table

    def fully_resolved(self) -> bool:
        """Whether every cell is known, so x repeats with period q_max_level:
        the one periodicity test."""
        return all(self.lookup(f) is not None for f in self.chain.domain(self.max_level))


@dataclass(frozen=True)
class Periodic(_CosetTable):
    """x(g) = word(g mod q_k): a total word on F_k repeated on H_k-cosets,
    the coset table of one fully assigned level k (k = 0 allowed)."""

    chain: SubgroupChain
    level: int
    word: Mapping[Element, Letter]
    alphabet: Alphabet

    def __post_init__(self):
        dom = self.chain.domain(self.level)
        normalized = {aselem(k, self.chain.rank): v for k, v in self.word.items()}
        if set(normalized) != set(dom):
            raise ValueError(f"word must be total on the level-{self.level} domain")
        bad = [v for v in normalized.values() if v not in self.alphabet]
        if bad:
            raise ValueError(f"letters {bad} not in alphabet")
        object.__setattr__(self, "word", normalized)
        levels = ((self.level, self.chain.scale(self.level), normalized),)
        object.__setattr__(self, "_levels", levels)


@dataclass(frozen=True)
class ToeplitzTable(_CosetTable):
    """Coset assignments (level n ≥ 1, representative in F_n, letter).

    An assignment inside a coarser or equal one must agree with it, so all
    assignments covering a point carry one letter; a conflict raises
    ``InconsistentCylinders``.  Cells covered by no assignment are Unknown,
    and every aggregate over them is reported as an interval.
    """

    chain: SubgroupChain
    assignments: tuple[tuple[int, Element, Letter], ...]
    alphabet: Alphabet

    def __post_init__(self):
        distinct = set()
        for level, r, a in self.assignments:
            if not 1 <= level <= self.chain.depth:
                raise ValueError(f"assignment level {level} outside 1..{self.chain.depth}")
            r = self.chain.coset_rep(r, level)
            if a not in self.alphabet:
                raise ValueError(f"letter {a!r} not in alphabet")
            distinct.add((level, r, a))
        by_level = tuple(sorted(distinct))
        # coarsest first, each assignment is checked against every coarser or
        # equal level already indexed, so one coset given two letters is
        # caught like a nested conflict
        levels: list[tuple[int, int, dict[Element, Letter]]] = []
        for n, r, a in by_level:
            if not levels or levels[-1][0] != n:
                levels.append((n, self.chain.scale(n), {}))
            for m, q, reps in levels:
                rm = tuple(c % q for c in r)
                if reps.get(rm, a) != a:
                    raise InconsistentCylinders(
                        f"level-{n} assignment at {r} conflicts with level-{m} at {rm}"
                    )
            levels[-1][2][r] = a
        object.__setattr__(self, "assignments", by_level)
        object.__setattr__(self, "_levels", tuple(levels))


@dataclass(frozen=True)
class Oracle:
    """A rule on a declared box [lo, hi]; Unknown outside, never a guess.

    Exists to express hand-built counterexample configurations; exact Per
    sets and densities are undecidable from a bounded window, so the exact
    operations reject this variant.  Its ``chain`` is None: the one test by
    which every exact operation tells coset-structured configurations apart.
    """

    rank: int
    lo: Element
    hi: Element
    rule: Callable[[Element], Letter]
    alphabet: Alphabet
    name: str = "custom"
    offset: Element = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.offset is None:
            object.__setattr__(self, "offset", (0,) * self.rank)
        if len(self.lo) != self.rank or len(self.hi) != self.rank:
            raise ValueError("box bounds must match rank")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError("declared box is empty")

    @property
    def chain(self) -> None:
        """No subgroup chain: a property, so repr, eq, hash and fields skip it."""
        return None

    def in_box(self, g: Element) -> bool:
        return all(a <= c <= b for a, c, b in zip(self.lo, g, self.hi))


Configuration = Periodic | ToeplitzTable | Oracle


def evaluate(x: Configuration, g) -> Letter | None:
    """Point evaluation; returns None (Unknown) where x is undetermined."""
    if isinstance(x, _CosetTable):
        return x.lookup(g)
    if isinstance(x, Oracle):
        g = aselem(g, x.rank)
        if not x.in_box(g):
            return UNKNOWN
        return x.rule(add(g, x.offset))
    raise TypeError(f"not a configuration: {x!r}")


def _windows(point: Callable, shape: FiniteSubset, translates: Iterable[Element]) -> Iterator:
    """The scan kernel: for each translate g, [point(f + g) for f in shape].

    Every count over translates F + g reads its windows here.  They come
    lazily, so a raising point function stops at the first offending cell.
    """
    for g in translates:
        yield [point(add(f, g)) for f in shape]


def shift(h, x: Configuration) -> Configuration:
    """The shifted configuration h·x with (h·x)(g) = x(g+h); variant preserved."""
    if isinstance(x, Periodic):
        h = aselem(h, x.rank)
        return Periodic(x.chain, x.level, {f: x.lookup(add(f, h)) for f in x.word}, x.alphabet)
    if isinstance(x, ToeplitzTable):
        h = aselem(h, x.rank)
        # the table reduces each moved representative into its F_n
        moved = tuple((lvl, sub(r, h), a) for lvl, r, a in x.assignments)
        return ToeplitzTable(x.chain, moved, x.alphabet)
    if isinstance(x, Oracle):
        h = aselem(h, x.rank)
        return Oracle(
            rank=x.rank,
            lo=sub(x.lo, h),
            hi=sub(x.hi, h),
            rule=x.rule,
            alphabet=x.alphabet,
            name=x.name,
            offset=add(x.offset, h),
        )
    raise TypeError(f"not a configuration: {x!r}")


# ---------------------------------------------------------------------------
# periodicity structure
# ---------------------------------------------------------------------------


def _exact_chain(x: Configuration) -> SubgroupChain:
    if x.chain is None:
        raise InexactVariant("needs a subgroup chain: a Periodic or ToeplitzTable configuration")
    return x.chain


def _constant_cosets(x: Configuration, n: int) -> dict[Element, Letter]:
    """{f: a} for each f in F_n whose whole H_n-coset is known and constantly a.

    x is coset-constant at level depth = max(n, max_level), so the coset
    f + H_n is sampled by the cells of F_depth congruent to f mod q_n.
    """
    chain = _exact_chain(x)
    chain._check_level(n)
    q = chain.scale(n)
    values: dict[Element, set] = {}
    for g, a in x.value_table(max(n, x.max_level)).items():
        values.setdefault(tuple(c % q for c in g), set()).add(a)
    return {f: vs.pop() for f, vs in values.items() if len(vs) == 1 and None not in vs}


def per_set(x: Configuration, n: int) -> CosetSet:
    """Per_{H_n}(x): positions whose whole H_n-coset is determined and constant.

    For a partial coset table a coset with Unknown cells is never counted;
    the result is the confirmed periodic part.
    """
    found = _constant_cosets(x, n)
    return CosetSet(x.chain, n, frozenset(found))


def per_set_letter(x: Configuration, n: int, a: Letter) -> CosetSet:
    """Per_{H_n}(x, a): positions whose whole H_n-coset is constantly a."""
    found = _constant_cosets(x, n)
    return CosetSet(x.chain, n, frozenset(f for f, b in found.items() if b == a))


# ---------------------------------------------------------------------------
# disagreement sets
# ---------------------------------------------------------------------------


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
        return self.unresolved.is_empty


@dataclass(frozen=True)
class SampledDisagreement:
    """Pointwise disagreement flags over a finite window (None = unresolved)."""

    window: FiniteSubset
    flags: Mapping[Element, bool | None]


def disagreement_set(x: Configuration, z: Configuration, window: FiniteSubset | None = None):
    """Where two configurations differ.

    Exact (a :class:`CosetDisagreement`) when both sides are Periodic or
    coset tables over the same chain; otherwise a window must be supplied and
    a :class:`SampledDisagreement` over it is returned.
    """
    if x.chain is not None and x.chain == z.chain:
        level = max(x.max_level, z.max_level)
        tx, tz = x.value_table(level), z.value_table(level)
        confirmed, unresolved = [], []
        for f in x.chain.domain(level):
            a, b = tx[f], tz[f]
            if a is None or b is None:
                unresolved.append(f)
            elif a != b:
                confirmed.append(f)
        return CosetDisagreement(
            CosetSet(x.chain, level, frozenset(confirmed)),
            CosetSet(x.chain, level, frozenset(unresolved)),
        )
    if isinstance(x, ToeplitzTable) and isinstance(z, ToeplitzTable):
        raise ChainMismatch("coset tables use different chains")
    if window is None:
        raise ValueError("pair admits no exact disagreement set; supply a window")
    differs = _differs(x, z)
    return SampledDisagreement(tuple(window), {g: differs(g) for g in window})


def _differs(x: Configuration, z: Configuration) -> Callable[[Element], bool | None]:
    """The point function g ↦ [x_g ≠ z_g], None where either side is Unknown."""

    def differs(g):
        a, b = evaluate(x, g), evaluate(z, g)
        return None if a is None or b is None else a != b

    return differs


def require_known(value: Letter | None, g: Element) -> Letter:
    if value is None:
        raise UnknownMembership(f"configuration is Unknown at {g}")
    return value


# ---------------------------------------------------------------------------
# builtin oracle rules
# ---------------------------------------------------------------------------


def geometric_box_lengths(eps: Fraction, count: int) -> list[int]:
    """Box lengths L_0 = 1, L_n with L_n/L_{n+1} → 1-eps: L_{n+1} = round(L_n/(1-eps)).

    Rounding is to the nearest integer (ties up) with a floor of L_n + 1 so
    the boxes stay strictly nested.
    """
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


def block_alternating(eps, radius: int) -> Oracle:
    """Ones on F_1 and on the odd shells F_{2n+1} \\ F_{2n} of geometric boxes.

    The boxes are [0, L_n), n ≤ 64, with geometric lengths of ratio 1/(1-eps); along
    that sequence the letter-1 frequency oscillates between 1/(2-eps) (odd
    levels) and (1-eps)/(2-eps) (even levels), so the distribution measures
    split into two separated clusters.
    """
    eps = Fraction(eps)
    lengths = geometric_box_lengths(eps, 64)

    def rule(g: Element) -> Letter:
        (n,) = g
        # L_{i-1} ≤ n < L_i: F_1 for i ≤ 1, the shell F_i \ F_{i-1} for i ≥ 2
        # (ones for odd i), and 0 past the last box (i = len)
        i = bisect_right(lengths, n)
        return "1" if n >= 0 and (i == 0 or (i % 2 == 1 and i < len(lengths))) else "0"

    return Oracle(
        rank=1,
        lo=(-radius,),
        hi=(radius,),
        rule=rule,
        alphabet=BINARY,
        name=f"block_alternating({eps})",
    )


# _BLOCK_STARTS[k - 1] is the index of the first digit of the k-bit numbers,
# k ≤ 64: the 2^(j-1) numbers of j bits contribute j·2^(j-1) digits
_BLOCK_STARTS = tuple(accumulate((j << (j - 1) for j in range(1, 64)), initial=0))


def _champernowne_digit(n: int) -> str:
    """Digit n (0-based) of the binary concatenation 1 10 11 100 101 ..."""
    k = bisect_right(_BLOCK_STARTS, n)  # digit n lies among the k-bit numbers
    i, r = divmod(n - _BLOCK_STARTS[k - 1], k)
    return bin((1 << (k - 1)) + i)[2 + r]


def champernowne_binary(radius: int) -> Oracle:
    """Binary Champernowne-style concatenation on Z+, the letter 0 on Z-.

    Contains every finite binary word, so its pattern counts saturate and
    its entropy estimates approach log 2.
    """

    def rule(g: Element) -> Letter:
        (n,) = g
        return "0" if n < 0 else _champernowne_digit(n)

    return Oracle(
        rank=1,
        lo=(-radius,),
        hi=(radius,),
        rule=rule,
        alphabet=BINARY,
        name="champernowne_binary",
    )


BUILTIN_ORACLES = {
    "champernowne_binary": champernowne_binary,
    "block_alternating": block_alternating,
}


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------


def _parse_element(raw, rank: int) -> Element:
    if isinstance(raw, str):
        raw = [int(c) for c in raw.split(",")]
    return aselem(raw, rank)


def _element_key(g: Element) -> str:
    return ",".join(str(c) for c in g)


def _is_int(value) -> bool:
    # JSON true/false decode to bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_element(value) -> bool:
    return _is_int(value) or isinstance(value, (list, tuple)) and all(map(_is_int, value))


def _is_assignment(value) -> bool:
    # [level, rep, letter], the rep an element or its comma-joined key
    triple = isinstance(value, list) and len(value) == 3 and _is_int(value[0])
    return triple and (isinstance(value[1], str) or _is_element(value[1]))


# descriptor fields: the test each value must pass, and what errors call it
_DESCRIPTOR_FIELDS = {
    "level": (_is_int, "an integer"),
    "word": (lambda v: isinstance(v, dict), "an object"),
    "assignments": (
        lambda v: isinstance(v, list) and all(map(_is_assignment, v)),
        "an array of [level, rep, letter] triples",
    ),
    "box": (_is_int, "an integer"),
    "rule": (lambda v: isinstance(v, str), "a string"),
}


def _descriptor_field(desc: Mapping, variant: str, key: str):
    valid, kind = _DESCRIPTOR_FIELDS[key]
    value = desc.get(key)
    if not valid(value):
        raise ValueError(f"{variant} descriptor: {key!r} must be {kind}")
    return value


def config_from_descriptor(desc: Mapping, chain: SubgroupChain | None) -> Configuration:
    """Build a configuration from its JSON descriptor.

    Periodic: {"variant":"periodic","level":k,"word":{"0":"a","1":"b"}}
    Table:    {"variant":"toeplitz","assignments":[[n,rep,letter],...]}
    Oracle:   {"variant":"oracle","box":R,"rule":"champernowne_binary"}
              or rule "block_alternating(1/2)"
    Word keys and representatives are ints or comma-joined coordinates.
    A missing or mistyped field raises ValueError naming the variant and
    the field.
    """
    variant = desc.get("variant")
    if variant in ("periodic", "toeplitz") and chain is None:
        raise ValueError(f"{variant} descriptor needs a chain")
    if variant == "periodic":
        level = _descriptor_field(desc, variant, "level")
        word = {
            _parse_element(k, chain.rank): str(v)
            for k, v in _descriptor_field(desc, variant, "word").items()
        }
        letters = tuple(sorted(set(word.values())))
        return Periodic(chain, level, word, Alphabet(letters))
    if variant == "toeplitz":
        assignments = tuple(
            (n, _parse_element(rep, chain.rank), str(a))
            for n, rep, a in _descriptor_field(desc, variant, "assignments")
        )
        letters = tuple(sorted({a for _, _, a in assignments}))
        return ToeplitzTable(chain, assignments, Alphabet(letters))
    if variant == "oracle":
        radius = _descriptor_field(desc, variant, "box")
        rule = _descriptor_field(desc, variant, "rule")
        if rule == "champernowne_binary":
            return champernowne_binary(radius)
        if rule.startswith("block_alternating(") and rule.endswith(")"):
            eps = Fraction(rule[len("block_alternating(") : -1])
            return block_alternating(eps, radius)
        raise ValueError(f"unknown oracle rule {rule!r}")
    raise ValueError(f"unknown configuration variant {variant!r}")


def config_descriptor(x: Configuration) -> dict:
    """The JSON descriptor of a configuration (inverse of config_from_descriptor)."""
    if isinstance(x, Periodic):
        return {
            "variant": "periodic",
            "level": x.level,
            "word": {_element_key(k): v for k, v in sorted(x.word.items())},
        }
    if isinstance(x, ToeplitzTable):
        return {
            "variant": "toeplitz",
            "assignments": [[n, _element_key(r), a] for n, r, a in x.assignments],
        }
    if isinstance(x, Oracle):
        radius = max(max(abs(c) for c in x.lo), max(abs(c) for c in x.hi))
        return {"variant": "oracle", "box": radius, "rule": x.name}
    raise TypeError(f"not a configuration: {x!r}")
