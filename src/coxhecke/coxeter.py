"""Right-angled Coxeter systems and exact word combinatorics.

A system is given by an ordered list of generator names and a symmetric
commutation relation (``m(s,t) = 2`` for listed pairs, ``infinity``
otherwise).  Group elements are represented by their canonical reduced
word: the ShortLex-least word among all reduced expressions, under the
input generator order.  In the right-angled case all reduced expressions
of an element differ by swaps of adjacent commuting letters, so the
canonical word is the lexicographic normal form of a trace monoid.

All values are immutable after construction; every operation is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, DomainError, InputError

LEFT = "left"
RIGHT = "right"

#: A purely syntactic word: generator indices in order, possibly non-reduced.
Word = tuple[int, ...]

#: Default cap on the number of elements a single enumeration may produce.
DEFAULT_MAX_BALL = 10**6

#: Hard limit on the generator count; masks are kept in 64-bit words.
MAX_GENERATORS = 62


def _bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class CoxeterSystem:
    """A right-angled Coxeter system on an ordered finite generating set.

    Parameters
    ----------
    names:
        Ordered sequence of distinct generator labels.
    commuting_pairs:
        Unordered pairs of generator labels with ``m(s,t) = 2``.  Pairs may
        be given by name or by index.  Any pair not listed does not commute
        (``m(s,t) = infinity``); ``m(s,s) = 1`` is implicit and never stored.
    """

    def __init__(self, names: Sequence[str], commuting_pairs: Iterable = ()):
        names = tuple(str(n) for n in names)
        if not names:
            raise InputError("a Coxeter system needs at least one generator")
        if len(names) > MAX_GENERATORS:
            raise InputError(f"at most {MAX_GENERATORS} generators supported")
        if len(set(names)) != len(names):
            raise InputError("generator names must be distinct")
        for n in names:
            if not n or any(c.isspace() for c in n) or "." in n:
                raise InputError(f"invalid generator name {n!r}: names must be "
                                 "nonempty and contain no whitespace or '.'")
            if n == "e":
                raise InputError("generator name 'e' is reserved for the identity")
        self.names = names
        self.n = len(names)
        self._index = {n: i for i, n in enumerate(names)}

        comm = [0] * self.n
        seen = set()
        for pair in commuting_pairs:
            a, b = pair
            i = self.generator_index(a)
            j = self.generator_index(b)
            if i == j:
                raise InputError(f"self pair ({names[i]}, {names[j]}) not allowed")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise InputError(f"duplicate commuting pair ({names[i]}, {names[j]})")
            seen.add(key)
            comm[i] |= 1 << j
            comm[j] |= 1 << i
        self._comm = tuple(comm)

        full = (1 << self.n) - 1
        self._full = full
        # C(s): generators commuting with s, including s itself.
        self._cmask = tuple(comm[i] | (1 << i) for i in range(self.n))
        # Adjacency of the non-commutation graph (pairs with m = infinity).
        self._noncomm = tuple(full & ~self._cmask[i] for i in range(self.n))
        self.components = self._connected_components()
        self.irreducible = len(self.components) == 1

        # Transition tables of the canonical-word automaton: after emitting
        # letter t, letter s may follow iff s != t and either s, t do not
        # commute, or they commute with t < s and s was allowed before t.
        gt = [full & ~((1 << (i + 1)) - 1) for i in range(self.n)]
        self._ext_nc = self._noncomm
        self._ext_cgt = tuple(comm[i] & gt[i] for i in range(self.n))

        self._identity = Element(self, ())
        self._sphere_counts: list[int] = [1]
        self._sphere_frontier = np.array([full], dtype=np.int64)
        self._sphere_total = 1
        self._subsystem_cache: dict = {}

    # -- basic structure ----------------------------------------------------

    def generator_index(self, g) -> int:
        """Resolve a generator given by index or name."""
        if isinstance(g, str):
            try:
                return self._index[g]
            except KeyError:
                raise InputError(f"unknown generator {g!r}") from None
        i = int(g)
        if not 0 <= i < self.n:
            raise InputError(f"generator index {i} out of range")
        return i

    def commutes(self, i: int, j: int) -> bool:
        """Whether m(i,j) = 2 (distinct commuting generators)."""
        return bool((self._comm[i] >> j) & 1)

    def commuting_set(self, i: int) -> frozenset[int]:
        """C(i): the generators commuting with i, including i."""
        return frozenset(_bits(self._cmask[i]))

    def _connected_components(self) -> tuple[tuple[int, ...], ...]:
        seen = 0
        comps = []
        for start in range(self.n):
            if (seen >> start) & 1:
                continue
            comp = 0
            stack = [start]
            while stack:
                v = stack.pop()
                if (comp >> v) & 1:
                    continue
                comp |= 1 << v
                stack.extend(_bits(self._noncomm[v] & ~comp))
            seen |= comp
            comps.append(tuple(_bits(comp)))
        return tuple(comps)

    def component_is_finite(self, comp: Sequence[int]) -> bool:
        """A component of the non-commutation graph is finite iff it is a
        single vertex (the subgroup it generates is then Z2)."""
        return len(comp) == 1

    def is_finite(self) -> bool:
        """The whole group is finite iff all generators pairwise commute."""
        return all(len(c) == 1 for c in self.components)

    def free_z2_factor_generator(self) -> int | None:
        """Detect the shape Z2 * Z2^k and return the lone free factor.

        The shape holds iff some generator commutes with nothing and the
        remaining generators pairwise commute; the returned index is the
        generator of the Z2 free factor (smallest such index if ambiguous,
        which only happens for two generators).
        """
        if self.n < 2:
            return None
        for s in range(self.n):
            if self._comm[s] != 0:
                continue
            rest = [i for i in range(self.n) if i != s]
            if all(self.commutes(i, j) for k, i in enumerate(rest)
                   for j in rest[k + 1:]):
                return s
        return None

    def subsystem(self, indices: Sequence[int]) -> tuple["CoxeterSystem", tuple[int, ...]]:
        """Restriction to a subset of generators, with the index embedding.

        Indices must be strictly increasing so that the induced generator
        order (and hence canonical words) agrees with the parent's.
        """
        idx = tuple(self.generator_index(i) for i in indices)
        if any(b <= a for a, b in zip(idx, idx[1:])) or not idx:
            raise InputError("subsystem indices must be strictly increasing")
        cached = self._subsystem_cache.get(idx)
        if cached is not None:
            return cached, idx
        names = [self.names[i] for i in idx]
        pairs = [(a, b) for a in range(len(idx)) for b in range(a + 1, len(idx))
                 if self.commutes(idx[a], idx[b])]
        sub = CoxeterSystem(names, pairs)
        self._subsystem_cache[idx] = sub
        return sub, idx

    def embed_word(self, word: Sequence[int], index_map: Sequence[int]) -> "Element":
        """Map a canonical subsystem word into this system through the
        increasing index map (canonical forms are preserved)."""
        return Element(self, tuple(index_map[x] for x in word))

    # -- words and normal forms ---------------------------------------------

    @property
    def identity(self) -> "Element":
        return self._identity

    def parse_word(self, word) -> tuple[int, ...]:
        """Turn user input into a tuple of generator indices.

        Accepts sequences of indices or names, and strings: a string is
        split on whitespace and '.', and a separator-free string is read
        letter by letter when every generator name is a single character.
        """
        if isinstance(word, str):
            parts = [p for p in word.replace(".", " ").split() if p]
            if len(parts) == 1 and parts[0] not in self._index and \
                    all(len(n) == 1 for n in self.names):
                parts = list(parts[0])
            if word.strip() in ("", "e"):
                parts = []
            return tuple(self.generator_index(p) for p in parts)
        return tuple(self.generator_index(x) for x in word)

    def _reduce(self, letters: Iterable[int]) -> list[int]:
        """Delete-to-reduced: fold letters in from the right.

        Appending s to a reduced word is non-reduced iff some occurrence of
        s is followed only by letters commuting with s; the matched
        occurrence is deleted, otherwise s is appended.
        """
        comm = self._comm
        word: list[int] = []
        for s in letters:
            i = len(word) - 1
            while i >= 0:
                t = word[i]
                if t == s:
                    del word[i]
                    break
                if not ((comm[s] >> t) & 1):
                    word.append(s)
                    break
                i -= 1
            else:
                word.append(s)
        return word

    def _lex_least(self, letters: Sequence[int]) -> tuple[int, ...]:
        """Lexicographic normal form of a reduced word.

        Greedy selection: repeatedly emit the smallest letter having an
        occurrence whose whole left context commutes with it.  A local
        fixpoint of adjacent swaps is not sufficient here; see the test
        suite for a three-letter witness.
        """
        comm = self._comm
        rest = list(letters)
        out: list[int] = []
        while rest:
            movable = self._full
            best = -1
            for x in rest:
                if (movable >> x) & 1 and (best < 0 or x < best):
                    best = x
                movable &= comm[x]
                if not movable:
                    break
            out.append(best)
            rest.remove(best)
        return tuple(out)

    def normalize(self, word) -> "Element":
        """Canonical form of the group element spelled by an arbitrary word."""
        letters = self.parse_word(word)
        return Element(self, self._lex_least(self._reduce(letters)))

    def element(self, word) -> "Element":
        """Shorthand for :meth:`normalize`."""
        return self.normalize(word)

    # -- group operations ----------------------------------------------------

    def _check_own(self, *elems: "Element"):
        for e in elems:
            if e.system is not self:
                raise InputError("element belongs to a different Coxeter system")

    def multiply(self, a: "Element", b: "Element") -> "Element":
        """Product ab in canonical form."""
        self._check_own(a, b)
        word = list(a.word)
        comm = self._comm
        for s in b.word:
            i = len(word) - 1
            while i >= 0:
                t = word[i]
                if t == s:
                    del word[i]
                    break
                if not ((comm[s] >> t) & 1):
                    word.append(s)
                    break
                i -= 1
            else:
                word.append(s)
        return Element(self, self._lex_least(word))

    def inverse(self, a: "Element") -> "Element":
        self._check_own(a)
        return Element(self, self._lex_least(tuple(reversed(a.word))))

    def mult_gen(self, a: "Element", s, side: str = RIGHT) -> tuple["Element", int]:
        """Multiply by a generator on the given side; return (result, delta).

        delta is the exact length change, -1 iff s is a descent of a on
        that side.
        """
        self._check_own(a)
        s = self.generator_index(s)
        comm = self._comm
        word = list(a.word)
        if side == RIGHT:
            i = len(word) - 1
            while i >= 0:
                t = word[i]
                if t == s:
                    del word[i]
                    return Element(self, self._lex_least(word)), -1
                if not ((comm[s] >> t) & 1):
                    break
                i -= 1
            word.append(s)
        elif side == LEFT:
            i = 0
            while i < len(word):
                t = word[i]
                if t == s:
                    del word[i]
                    return Element(self, self._lex_least(word)), -1
                if not ((comm[s] >> t) & 1):
                    break
                i += 1
            word.insert(0, s)
        else:
            raise InputError(f"side must be {LEFT!r} or {RIGHT!r}")
        return Element(self, self._lex_least(word)), +1

    def descent_sets(self, a: "Element") -> tuple[frozenset[int], frozenset[int]]:
        """(D_L, D_R): generators shortening a on the left / right."""
        return self.left_descents(a), self.right_descents(a)

    def right_descents(self, a: "Element") -> frozenset[int]:
        self._check_own(a)
        d = 0
        movable = self._full
        for x in reversed(a.word):
            if (movable >> x) & 1:
                d |= 1 << x
            movable &= self._comm[x]
            if not movable:
                break
        return frozenset(_bits(d))

    def left_descents(self, a: "Element") -> frozenset[int]:
        self._check_own(a)
        d = 0
        movable = self._full
        for x in a.word:
            if (movable >> x) & 1:
                d |= 1 << x
            movable &= self._comm[x]
            if not movable:
                break
        return frozenset(_bits(d))

    def support(self, a: "Element") -> frozenset[int]:
        """S(a): generators appearing in any reduced expression of a."""
        self._check_own(a)
        return frozenset(a.word)

    def commutes_with_gen(self, a: "Element", r) -> bool:
        """Whether ar = ra, decided through S(a) being inside C(r)."""
        self._check_own(a)
        r = self.generator_index(r)
        cm = self._cmask[r]
        return all((cm >> x) & 1 for x in a.word)

    # -- enumeration ---------------------------------------------------------

    def _ball_levels(self, radius: int, max_elements: int):
        """Canonical words with their automaton masks, level by level.

        Canonical words are closed under prefixes, so each element is
        produced exactly once by extending its parent with its last letter;
        no deduplication is needed.
        """
        if radius < 0:
            raise InputError("radius must be nonnegative")
        levels = [[((), self._full)]]
        total = 1
        nc, cgt = self._ext_nc, self._ext_cgt
        for _ in range(radius):
            cur = levels[-1]
            nxt = []
            for word, mask in cur:
                for s in _bits(mask):
                    nxt.append((word + (s,), nc[s] | (cgt[s] & mask)))
            total += len(nxt)
            if total > max_elements:
                raise CapacityError(
                    f"ball would exceed {max_elements} elements; raise the cap "
                    "to enumerate further")
            if not nxt:
                break
            levels.append(nxt)
        return levels

    def ball(self, radius: int, max_elements: int = DEFAULT_MAX_BALL) -> list["Element"]:
        """All elements of length at most radius, sorted by (length, ShortLex)."""
        out = []
        for level in self._ball_levels(radius, max_elements):
            out.extend(Element(self, word) for word, _ in level)
        return out

    def ball_table(self, radius: int, max_elements: int = DEFAULT_MAX_BALL
                   ) -> tuple[list[Word], np.ndarray, np.ndarray, np.ndarray]:
        """The ball's canonical words with their right-multiplication table.

        Returns ``(words, lengths, right, descent)``: the words in ball
        order and their lengths; ``right[s, i]`` is the index of
        ``words[i] * s``, or -1 when the product leaves the ball, and
        ``descent[s, i]`` flags right descents.  No word is normalized:
        right multiplication by s is an involution, so the table is fixed
        by its descents.  For z = z't, zt = z'; a generator s != t is a
        descent of z iff it commutes with t and is a descent of z', and then
        zs = (z's)t is read from the row of z's, two levels down.  Each
        lengthening entry is the reverse of a descent entry of the level
        above, so a level's row is complete once the next level is built.
        """
        levels = self._ball_levels(radius, max_elements)
        words = [word for level in levels for word, _ in level]
        lengths = np.repeat(np.arange(len(levels)), [len(lv) for lv in levels])
        right = np.full((self.n, len(words)), -1, dtype=np.int64)
        descent = np.zeros((self.n, len(words)), dtype=bool)
        comm = np.array(self._comm, dtype=np.int64)
        bits = np.left_shift(1, np.arange(self.n, dtype=np.int64))
        start = 0
        for level, nxt in zip(levels, levels[1:]):
            masks = np.array([mask for _, mask in level], dtype=np.int64)
            # children in enumeration order: by parent, then by last letter
            parent, last = np.nonzero(masks[:, None] & bits)
            parent += start
            start += len(level)
            child = np.arange(start, start + len(nxt))
            for s in range(self.n):
                own = last == s
                right[s, child[own]] = parent[own]
                other = (comm[last] & bits[s] != 0) & descent[s, parent]
                right[s, child[other]] = right[last[other],
                                               right[s, parent[other]]]
                descent[s, child] = own | other
                down = child[own | other]
                right[s, right[s, down]] = down
        return words, lengths, right, descent

    def sphere_counts(self, n: int, max_total: int = DEFAULT_MAX_BALL) -> list[int]:
        """Counts a_0..a_n of elements of each length, a_k = #{w : |w| = k}.

        Levels are generated by the canonical-word automaton with masks held
        in numpy arrays; counts are cached on the system.
        """
        if n < 0:
            raise InputError("n must be nonnegative")
        counts = self._sphere_counts
        frontier = self._sphere_frontier
        total = self._sphere_total
        while len(counts) <= n and frontier.size:
            children = []
            for s in range(self.n):
                sel = frontier[(frontier >> s) & 1 == 1]
                if sel.size:
                    children.append(self._ext_nc[s] | (self._ext_cgt[s] & sel))
            frontier = (np.concatenate(children) if children
                        else np.empty(0, dtype=np.int64))
            total += int(frontier.size)
            if total > max_total:
                raise CapacityError(
                    f"sphere enumeration would exceed {max_total} elements")
            counts.append(int(frontier.size))
            self._sphere_counts = counts
            self._sphere_frontier = frontier
            self._sphere_total = total
        return [counts[k] if k < len(counts) else 0 for k in range(n + 1)]

    # -- length-additive joins ------------------------------------------------

    def regular_join(self, v: "Element", w: "Element") -> "Element":
        """An element u with |vuw| = |v| + |u| + |w| exactly.

        Constructive two-case argument: if some left descents of w are not
        right descents of v, absorb them first; then append all generators
        outside the right descent set, in input order.  Requires an
        irreducible infinite system.
        """
        self._check_own(v, w)
        if not self.irreducible or self.is_finite():
            raise DomainError("length-additive joins need an irreducible "
                              "infinite system")
        dl_w = self.left_descents(w)
        u_letters: list[int] = []
        cur = v
        extra = sorted(dl_w - self.right_descents(cur))
        for s in extra:
            cur, delta = self.mult_gen(cur, s, RIGHT)
            if delta != +1:
                raise DomainError("internal join invariant violated")
            u_letters.append(s)
        for s in sorted(set(range(self.n)) - self.right_descents(cur)):
            cur, delta = self.mult_gen(cur, s, RIGHT)
            if delta != +1:
                raise DomainError("internal join invariant violated")
            u_letters.append(s)
        u = self.normalize(u_letters)
        total = self.multiply(cur, w)
        if len(total) != len(v) + len(u) + len(w):
            raise DomainError("join construction failed to be length-additive")
        return u

    # -- word-condition reports -------------------------------------------------

    def check_conditions(self, word, s, t) -> "ConditionReport":
        """Evaluate the deletion, exchange and folding conditions on given data.

        Used by the property suites; each condition reports whether its
        hypothesis applied, whether it held, and a witness when one exists.
        """
        letters = self.parse_word(word)
        s = self.generator_index(s)
        t = self.generator_index(t)
        elem = self.normalize(letters)
        n = len(letters)

        # Deletion: a non-reduced word equals itself with two letters removed.
        deletion_applies = len(elem) < n
        deletion_holds = not deletion_applies
        deletion_witness = None
        if deletion_applies:
            for i in range(n):
                for j in range(i + 1, n):
                    shorter = letters[:i] + letters[i + 1:j] + letters[j + 1:]
                    if self.normalize(shorter) == elem:
                        deletion_witness = (i, j)
                        deletion_holds = True
                        break
                if deletion_holds:
                    break

        # Exchange: if the word is reduced and s shortens it on the left,
        # then sw equals the word with one letter removed.
        w_reduced = len(elem) == n
        sw = self.multiply(self.normalize((s,)), elem)
        exchange_applies = w_reduced and len(sw) < n + 1
        exchange_holds = not exchange_applies
        exchange_witness = None
        if exchange_applies:
            for i in range(n):
                if self.normalize(letters[:i] + letters[i + 1:]) == sw:
                    exchange_witness = i
                    exchange_holds = True
                    break

        # Folding: if sw and wt are reduced, then swt = w or swt is reduced.
        wt = self.multiply(elem, self.normalize((t,)))
        swt = self.multiply(sw, self.normalize((t,)))
        folding_applies = (w_reduced and len(sw) == len(elem) + 1
                           and len(wt) == len(elem) + 1)
        folding_holds = True
        folding_branch = None
        if folding_applies:
            if swt == elem:
                folding_branch = "swt = w"
            elif len(swt) == len(elem) + 2:
                folding_branch = "swt reduced"
            else:
                folding_holds = False

        return ConditionReport(
            word=letters, s=s, t=t,
            deletion_applies=deletion_applies, deletion_holds=deletion_holds,
            deletion_witness=deletion_witness,
            exchange_applies=exchange_applies, exchange_holds=exchange_holds,
            exchange_witness=exchange_witness,
            folding_applies=folding_applies, folding_holds=folding_holds,
            folding_branch=folding_branch,
        )

    # -- misc -----------------------------------------------------------------

    def word_str(self, word: Sequence[int]) -> str:
        """Readable form of a word: names joined by '.', identity as 'e'."""
        if not word:
            return "e"
        return ".".join(self.names[i] for i in word)

    def __repr__(self):
        pairs = [f"{self.names[i]}-{self.names[j]}"
                 for i in range(self.n) for j in range(i + 1, self.n)
                 if self.commutes(i, j)]
        return (f"CoxeterSystem({list(self.names)}, "
                f"commuting={pairs})")


@dataclass(frozen=True)
class Element:
    """A group element, held as its canonical reduced word.

    Equality and hashing are by identity of the owning system plus the
    canonical word; lengths and orderings refer to ShortLex.
    """
    system: CoxeterSystem
    word: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.word)

    @property
    def is_identity(self) -> bool:
        return not self.word

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.word), self.word)

    def __lt__(self, other: "Element") -> bool:
        if self.system is not other.system:
            raise InputError("cannot compare elements of different systems")
        return self.sort_key() < other.sort_key()

    def __hash__(self):
        return hash((id(self.system), self.word))

    def __eq__(self, other):
        return (isinstance(other, Element) and self.system is other.system
                and self.word == other.word)

    def __str__(self):
        return self.system.word_str(self.word)

    def __repr__(self):
        return f"<{self}>"


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of evaluating the three word conditions on one input."""
    word: tuple[int, ...]
    s: int
    t: int
    deletion_applies: bool
    deletion_holds: bool
    deletion_witness: tuple[int, int] | None
    exchange_applies: bool
    exchange_holds: bool
    exchange_witness: int | None
    folding_applies: bool
    folding_holds: bool
    folding_branch: str | None

    @property
    def all_hold(self) -> bool:
        return self.deletion_holds and self.exchange_holds and self.folding_holds
