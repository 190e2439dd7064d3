"""Right-angled Coxeter systems and exact word combinatorics.

A system is given by an ordered list of generator names and a symmetric
commutation relation (``m(s,t) = 2`` for listed pairs, ``infinity``
otherwise).  Group elements are represented by their canonical reduced
word: the ShortLex-least word among all reduced expressions, under the
input generator order.  In the right-angled case all reduced expressions
of an element differ by swaps of adjacent commuting letters, so the
canonical word is the lexicographic normal form of a trace monoid: the
order in which a greedy emits the letters, each time the smallest one
that commutes with every letter before it.  Every word operation builds
it by one rule, the right step of :meth:`CoxeterSystem.mult_gen`; even a
left step sw takes the right steps of the letters of w, starting from s.
Its second site is the walk of every Hecke product, exact or numeric,
which places each letter inline; the product tests against
``oracle_exact_mul`` and a numeric depth-first reference, both stepping
with ``_step``, pin the two.

All values are immutable after construction; every operation is a pure
function of its inputs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CapacityError, DomainError, InputError

LEFT = "left"
RIGHT = "right"

#: A purely syntactic word: generator indices in order, possibly non-reduced.
Word = tuple[int, ...]

#: Default cap on the elements a single enumeration may produce, and on the
#: automaton states of one level when spheres are counted.
DEFAULT_MAX_BALL = 10**6

#: States whose successor lists one sphere count keeps (bounds its memory).
_STEP_MEMO_STATES = 4096

#: Hard limit on the generator count; masks are kept in 64-bit words.
MAX_GENERATORS = 62


def _bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _component(adj: Sequence[int], start: int, within: int) -> int:
    """Bitmask of the connected component of vertex ``start`` in the
    subgraph that the bitmask ``within`` induces on adjacency ``adj``."""
    comp = frontier = 1 << start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adj[low.bit_length() - 1] & within & ~comp
        comp |= new
        frontier |= new
    return comp


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
            try:
                a, b = pair
            except (TypeError, ValueError):
                raise InputError(f"{pair!r} is not a pair of generators") from None
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

        # Canonical-word automaton, with _noncomm: after emitting letter t,
        # letter s may follow iff s != t and either s, t do not commute, or
        # they commute with t < s and s was allowed before t.
        gt = [full & ~((1 << (i + 1)) - 1) for i in range(self.n)]
        self._ext_cgt = tuple(comm[i] & gt[i] for i in range(self.n))

        self._identity = Element(self, ())
        self._subsystem_cache: dict = {}
        # the action matrices' one ball table, kept by the module building them
        self._ball_cache: tuple | None = None

    # -- basic structure ----------------------------------------------------

    def generator_index(self, g) -> int:
        """Resolve a generator given by name or by an integer index."""
        try:
            i = self._index[g] if isinstance(g, str) else operator.index(g)
        except (KeyError, TypeError):
            raise InputError(f"unknown generator {g!r}") from None
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
            comp = _component(self._noncomm, start, self._full)
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
        return next((s for s in range(self.n) if self._comm[s] == 0
                     and all(self._cmask[i] == self._full ^ (1 << s)
                             for i in range(self.n) if i != s)), None)

    def subsystem(self, indices: Sequence[int]) -> tuple["CoxeterSystem", tuple[int, ...]]:
        """Restriction to a subset of generators, with the index embedding.

        Indices must be strictly increasing so that the induced generator
        order (and hence canonical words) agrees with the parent's.  All
        the generators give the system itself.
        """
        idx = tuple(self.generator_index(i) for i in indices)
        if any(b <= a for a, b in zip(idx, idx[1:])) or not idx:
            raise InputError("subsystem indices must be strictly increasing")
        if len(idx) == self.n:
            return self, idx
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

    def normalize(self, word) -> "Element":
        """Canonical form of the group element spelled by an arbitrary word."""
        return Element(self, self._fold((), self.parse_word(word)))

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
        return Element(self, self._fold(a.word, b.word))

    def inverse(self, a: "Element") -> "Element":
        self._check_own(a)
        return Element(self, self._fold((), reversed(a.word)))

    def mult_gen(self, a: "Element", s, side: str = RIGHT) -> tuple["Element", int]:
        """Multiply by a generator on the given side; return (result, delta).

        delta is the exact length change, -1 iff s is a descent of a on
        that side.

        A right step is the one rule that places a letter in a canonical
        word: a lengthening product inserts s before the first letter
        greater than s among the trailing letters that commute with s, and
        a shortening one deletes s.  A left step folds the word onto (s,):
        it takes the right steps of the letters of a in order, from s.
        Its second site is the Hecke product's walk (see the module).
        """
        self._check_own(a)
        s = self.generator_index(s)
        if side not in (LEFT, RIGHT):
            raise InputError(f"side must be {LEFT!r} or {RIGHT!r}")
        word, delta = self._step(a.word, s, side)
        return Element(self, word), delta

    def _step(self, word: Word, s: int, side: str) -> tuple[Word, int]:
        """:meth:`mult_gen` on a canonical word and a generator index."""
        if side == LEFT:
            # sw is s followed by the letters of w: right steps from (s,)
            out = self._fold((s,), word)
            return out, len(out) - len(word)
        comm = self._comm[s]
        n = len(word)
        i = n - 1
        while i >= 0:
            t = word[i]
            if t == s:
                # the rest stays canonical (see the README)
                return word[:i] + word[i + 1:], -1
            if not ((comm >> t) & 1):
                break
            i -= 1
        i += 1
        while i < n and word[i] < s:
            i += 1
        if i == n:
            return word + (s,), +1
        return word[:i] + (s,) + word[i:], +1

    def _fold(self, word: Word, letters: Iterable[int]) -> Word:
        """The canonical word of ``word`` times ``letters``, by right steps
        from the canonical word ``word``."""
        for s in letters:
            word = self._step(word, s, RIGHT)[0]
        return word

    def descent_sets(self, a: "Element") -> tuple[frozenset[int], frozenset[int]]:
        """(D_L, D_R): generators shortening a on the left / right."""
        return self.left_descents(a), self.right_descents(a)

    def _front_letters(self, letters: Iterable[int]) -> frozenset[int]:
        """Letters of a reduced word that commute with every letter before
        them, i.e. the generators that can be moved to its front."""
        d = 0
        movable = self._full
        for x in letters:
            if (movable >> x) & 1:
                d |= 1 << x
            movable &= self._comm[x]
            if not movable:
                break
        return frozenset(_bits(d))

    def right_descents(self, a: "Element") -> frozenset[int]:
        self._check_own(a)
        return self._front_letters(reversed(a.word))

    def left_descents(self, a: "Element") -> frozenset[int]:
        self._check_own(a)
        return self._front_letters(a.word)

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
        """The ball's prefix tree, ``(lengths, parent, last)`` in ball order:
        the row of each canonical word minus its last letter, and that
        letter (0 and -1 at the identity).

        Canonical words are closed under prefixes, so each element is
        produced exactly once by extending its parent with its last letter;
        no deduplication is needed.  A level is one automaton step on the
        array of its states, sized by their mask bits against the cap before
        it is built: children by parent, then letter (ShortLex).
        """
        import numpy as np
        if radius < 0:
            raise InputError("radius must be nonnegative")
        if max_elements < 1:
            raise InputError("ball cap must be at least 1: a ball holds e")
        parents, lasts = [np.zeros(1, np.int64)], [np.full(1, -1, np.int64)]
        masks = np.array([self._full], dtype="<i8")  # uint8 view: low bits first
        nc, cgt = np.array([self._noncomm, self._ext_cgt], dtype="<i8")
        start, size = 0, 1
        for _ in range(radius):
            bits = np.unpackbits(masks.view(np.uint8).reshape(-1, 8), axis=1,
                                 count=self.n, bitorder="little")
            if size + np.count_nonzero(bits) > max_elements:
                raise CapacityError(
                    f"ball would exceed {max_elements} elements; raise the cap "
                    "to enumerate further")
            parent, last = np.nonzero(bits)
            if not len(parent):
                break
            masks = nc[last] | (cgt[last] & masks[parent])
            parents.append(parent + start)      # level-local to ball rows
            lasts.append(last)
            start, size = size, size + len(parent)
        lengths = np.repeat(np.arange(len(parents)), [len(p) for p in parents])
        return lengths, np.concatenate(parents), np.concatenate(lasts)

    def ball(self, radius: int, max_elements: int = DEFAULT_MAX_BALL) -> list["Element"]:
        """All elements of length at most radius, sorted by (length, ShortLex)."""
        _, parent, last = self._ball_levels(radius, max_elements)
        return [Element(self, word) for word in _tree_words(parent, last)]

    def ball_table(self, radius: int, max_elements: int = DEFAULT_MAX_BALL
                   ) -> "BallTable":
        """The ball's prefix tree with its right-multiplication table.

        The tree is the one of :meth:`_ball_levels`, and ``right`` and
        ``descent`` are filled level by level without normalizing a word:
        right multiplication by s is an involution, so the table is fixed
        by its descents.  For z = z't, zt = z'; a generator s != t is a
        descent of z iff it commutes with t and is a descent of z', and then
        zs = (z's)t is read from the row of z's, two levels down.  Each
        lengthening entry is the reverse of a descent entry of the level
        above, so a level's row is complete once the next level is built.
        ``right`` is int32, so the cap, checked before a level or a table
        is built, is at most 2^31 - 1 rows.
        """
        import numpy as np
        lengths, parent, last = self._ball_levels(
            radius, min(max_elements, np.iinfo(np.int32).max))
        right = np.full((self.n, len(lengths)), -1, dtype=np.int32)
        descent = np.zeros((self.n, len(lengths)), dtype=bool)
        commutes = ((np.array(self._comm, dtype=np.int64)[:, None]
                     >> np.arange(self.n)) & 1).astype(bool)
        for lo, hi in _level_rows(lengths):
            child = np.arange(lo, hi)
            up, t = parent[lo:hi], last[lo:hi]
            for s in range(self.n):
                own = t == s
                right[s, child[own]] = up[own]
                other = commutes[s][t] & descent[s, up]
                right[s, child[other]] = right[t[other], right[s, up[other]]]
                descent[s, child] = own | other
                down = child[own | other]
                right[s, right[s, down]] = down
        return BallTable(lengths, parent, last, right, descent)

    def sphere_counts(self, n: int, max_total: int = DEFAULT_MAX_BALL) -> list[int]:
        """Counts a_k = #{w : |w| = k} for k = 0..n by the canonical-word
        automaton (the ShortLex automatic structure of Brink-Howlett): a
        level maps each state, a mask of :meth:`_ball_levels`, to the words
        reaching it.  Each state's successors are computed once per call and
        kept for up to ``_STEP_MEMO_STATES`` states; later ones are stepped
        afresh.  ``CapacityError`` past ``max_total`` elements (``math.inf``:
        no cap) or ``DEFAULT_MAX_BALL`` states on a level, checked after each
        parent state (so never more than cap + n)."""
        if n < 0:
            raise InputError("n must be nonnegative")
        nc, cgt = self._noncomm, self._ext_cgt
        level, counts, total, steps = {self._full: 1}, [], 0, {}
        for k in range(n + 1):
            if k:
                nxt: dict[int, int] = {}
                for mask, count in level.items():
                    succ = steps.get(mask)
                    if succ is None:
                        succ = [nc[s] | (cgt[s] & mask) for s in _bits(mask)]
                        if len(steps) < _STEP_MEMO_STATES:
                            steps[mask] = succ
                    for state in succ:
                        nxt[state] = nxt.get(state, 0) + count
                    if len(nxt) > DEFAULT_MAX_BALL:
                        raise CapacityError(
                            f"sphere automaton level {k} has at least {len(nxt)}"
                            f" states, more than the cap of {DEFAULT_MAX_BALL}")
                level = nxt
            counts.append(sum(level.values()))
            total += counts[-1]
            if total > max_total:
                raise CapacityError(
                    f"ball of radius {n} would exceed {max_total} elements:"
                    f" {total} counted through length {k}")
        return counts

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
        u_letters: list[int] = []
        cur = v
        for pool in (self.left_descents(w), range(self.n)):
            for s in sorted(set(pool) - self.right_descents(cur)):
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
        deletion_witness = next(
            ((i, j) for i in range(n) for j in range(i + 1, n)
             if self.normalize(letters[:i] + letters[i + 1:j] + letters[j + 1:])
             == elem), None) if deletion_applies else None
        deletion_holds = not deletion_applies or deletion_witness is not None

        # Exchange: if the word is reduced and s shortens it on the left,
        # then sw equals the word with one letter removed.
        reduced = len(elem) == n
        sw = self.multiply(self.normalize((s,)), elem)
        exchange_applies = reduced and len(sw) < n + 1
        exchange_witness = next(
            (i for i in range(n)
             if self.normalize(letters[:i] + letters[i + 1:]) == sw),
            None) if exchange_applies else None
        exchange_holds = not exchange_applies or exchange_witness is not None

        # Folding: if sw and wt are reduced, then swt = w or swt is reduced.
        wt = self.multiply(elem, self.normalize((t,)))
        swt = self.multiply(sw, self.normalize((t,)))
        folding_applies = (reduced and len(sw) == len(elem) + 1
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


def _level_ends(lengths: np.ndarray) -> np.ndarray:
    """The end row of each level 0..lengths[-1] of a ball in ball order, or
    of a prefix of one: level k holds rows ends[k - 1]:ends[k]."""
    top = lengths[-1] + 1 if len(lengths) else 0
    return lengths.searchsorted(range(top), "right")


def _level_rows(lengths: np.ndarray) -> Iterator[tuple[int, int]]:
    """Row ranges ``(lo, hi)`` of levels 1, 2, ... of a ball or its prefix."""
    ends = _level_ends(lengths).tolist()
    return zip(ends, ends[1:])


def _tree_words(parent: np.ndarray, last: np.ndarray) -> list[Word]:
    """The canonical words of a ball's prefix tree, in ball order: each is
    its parent's word plus its last letter."""
    words: list[Word] = [()]
    for p, s in zip(parent[1:].tolist(), last[1:].tolist()):
        words.append(words[p] + (s,))
    return words


class BallTable(NamedTuple):
    """A ball of canonical words as the prefix tree of the canonical-word
    automaton, in ball order (by length, then ShortLex), with its
    right-multiplication table.

    Row i holds a word z = z't of length ``lengths[i]``: ``parent[i]`` is
    the row of z' and ``last[i]`` is t (0 and -1 at the identity, row 0).
    ``right[s, i]`` (int32) is the row of zs, or -1 when it leaves the ball,
    and ``descent[s, i]`` flags right descents.  Words are built only by
    :meth:`words`.
    """
    lengths: np.ndarray
    parent: np.ndarray
    last: np.ndarray
    right: np.ndarray
    descent: np.ndarray

    def words(self) -> list[Word]:
        return _tree_words(self.parent, self.last)

    def left(self, end: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Left multiplication on the first ``end`` rows: ``(left,
        descent)``, ``left[s, i]`` the row of s z or -1 outside the ball and
        ``descent[s, i]`` the left descents.  For z = z't, sz = (sz')t is
        read from the right table at the row of sz', which lies in the ball
        since |sz'| <= |z|; a generator at a time, so temporaries hold one
        level of one row.  As |sz| = |z| +- 1 and rows ascend in length, sz
        is shorter exactly when its row comes first."""
        import numpy as np
        left = self.right[:, :end].copy()   # row 0: se = es; levels follow
        for lo, hi in _level_rows(self.lengths[:end]):
            for row in left:
                row[lo:hi] = self.right[self.last[lo:hi], row[self.parent[lo:hi]]]
        descent = (left >= 0) & (left < np.arange(left.shape[1]))
        return left, descent

    def supports(self) -> np.ndarray:
        """Support bitmasks, level by level: supp(z't) = supp(z') | bit(t)."""
        import numpy as np
        supp = np.zeros(len(self.lengths), dtype=np.int64)
        for lo, hi in _level_rows(self.lengths):
            supp[lo:hi] = supp[self.parent[lo:hi]] | (1 << self.last[lo:hi])
        return supp


@dataclass(frozen=True)
class Element:
    """A group element, held as its canonical reduced word.

    Equality is by owning system and canonical word, the hash by the word
    alone; lengths and orderings refer to ShortLex.
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
        return hash(self.word)

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
