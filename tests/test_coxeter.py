"""Word combinatorics: canonical forms, products, descents, balls, joins.

The independent oracle for normal forms is rewriting closure: the set of
words reachable by commuting swaps and adjacent-equal deletions.  Its
minimal-length layer is the commutation class of the reduced words, so
two words spell the same element iff their closures share that layer,
and the canonical form must be the ShortLex-least member.
"""

import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from coxhecke import (CapacityError, CoxeterSystem, InputError, LEFT, RIGHT)
from coxhecke import coxeter
from coxhecke.verify import random_system, three_generator_patterns


def rewriting_closure_min(sys, word):
    """Minimal-length layer of the swap/delete rewriting closure."""
    word = tuple(word)
    seen = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            if w[i] == w[i + 1]:
                nxt = w[:i] + w[i + 2:]
            elif sys.commutes(w[i], w[i + 1]):
                nxt = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    min_len = min(len(w) for w in seen)
    return frozenset(w for w in seen if len(w) == min_len)


def greedy_normal_form(sys, letters):
    """Canonical word of any word, by an algorithm independent of the
    package's right steps.  First delete to a reduced word: fold letters
    in from the right, deleting the last occurrence of s that is followed
    only by letters commuting with s, else appending s.  Then emit the
    lexicographic normal form greedily: repeatedly take the smallest
    letter that commutes with every letter before it.  A local fixpoint
    of adjacent swaps would not do; see
    test_local_swap_fixpoint_is_not_canonical."""
    reduced = []
    for s in letters:
        for i in range(len(reduced) - 1, -1, -1):
            if reduced[i] == s:
                del reduced[i]
                break
            if not sys.commutes(s, reduced[i]):
                reduced.append(s)
                break
        else:
            reduced.append(s)
    out = []
    while reduced:
        best = None
        for i, x in enumerate(reduced):
            if all(sys.commutes(x, y) for y in reduced[:i]) and \
                    (best is None or x < reduced[best]):
                best = i
        out.append(reduced.pop(best))
    return tuple(out)


def four_generator_patterns():
    gens = "abcd"
    patterns = [
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],   # 4-cycle
        [("a", "b"), ("c", "d")],                           # two disjoint pairs
        [("b", "c"), ("b", "d"), ("c", "d")],               # triangle + apex
    ]
    return [CoxeterSystem(gens, p) for p in patterns]


# -- construction -----------------------------------------------------------------

def test_system_validation():
    with pytest.raises(InputError):
        CoxeterSystem([])
    with pytest.raises(InputError):
        CoxeterSystem(["s", "s"])
    with pytest.raises(InputError):
        CoxeterSystem(["s", "t"], [("s", "s")])
    with pytest.raises(InputError):
        CoxeterSystem(["s", "t"], [("s", "t"), ("t", "s")])
    with pytest.raises(InputError):
        CoxeterSystem(["s", "e"])
    with pytest.raises(InputError):
        CoxeterSystem(["s", "a b"])
    with pytest.raises(InputError, match="at most 62 generators supported"):
        CoxeterSystem([f"g{i}" for i in range(63)])


def test_subsystem_refuses_indices_that_do_not_increase(free3):
    for indices in ([1, 0], [0, 0], []):
        with pytest.raises(InputError, match="strictly increasing"):
            free3.subsystem(indices)


def test_components_and_irreducibility(free3, z2xz2, z2sq_z2):
    assert free3.irreducible and free3.components == ((0, 1, 2),)
    assert not z2xz2.irreducible
    assert z2xz2.components == ((0,), (1,))
    assert z2xz2.is_finite()
    assert z2sq_z2.irreducible and not z2sq_z2.is_finite()


def test_free_factor_shape(free3, z2sq_z2, pentagon):
    assert z2sq_z2.free_z2_factor_generator() == 0
    assert free3.free_z2_factor_generator() is None
    assert pentagon.free_z2_factor_generator() is None


def oracle_free_z2_factor_generator(sys):
    """free_z2_factor_generator as it tested commutation pairwise over the
    other generators, kept as its oracle."""
    if sys.n < 2:
        return None
    for s in range(sys.n):
        if sys._comm[s] != 0:
            continue
        rest = [i for i in range(sys.n) if i != s]
        if all(sys.commutes(i, j) for k, i in enumerate(rest)
               for j in rest[k + 1:]):
            return s
    return None


def test_free_z2_factor_generator_matches_pairwise_oracle():
    """The commutation-mask test finds the free factor the pairwise loop
    finds: on 2,000 seeded graphs and on every Z2 * Z2^k with k <= 7, the
    free generator in each position."""
    rng = random.Random(36)
    systems = [random_system(rng, 9) for _ in range(2000)]
    found = 0
    for sys in systems:
        expected = oracle_free_z2_factor_generator(sys)
        assert sys.free_z2_factor_generator() == expected, sys
        found += expected is not None
    assert found >= 100
    for k in range(8):
        for free in range(k + 1):
            rest = [i for i in range(k + 1) if i != free]
            sys = CoxeterSystem([f"g{i}" for i in range(k + 1)],
                                itertools.combinations(rest, 2))
            expected = oracle_free_z2_factor_generator(sys)
            assert sys.free_z2_factor_generator() == expected
            # two generators both qualify, and the smaller is returned
            assert expected == (None if k == 0 else 0 if k == 1 else free)


# -- normalize --------------------------------------------------------------------

def test_normalize_examples(free3, z2xz2, dihedral):
    assert str(free3.normalize("s s t")) == "t"
    assert str(z2xz2.normalize("t s")) == "s.t"
    assert z2xz2.normalize("t s") == z2xz2.normalize("s t")
    identity = dihedral.normalize("s t s s t s")
    assert identity.is_identity
    # cross-check by the rewriting oracle
    assert rewriting_closure_min(dihedral, dihedral.parse_word("s t s s t s")) \
        == frozenset({()})


def test_normalize_rejects_bad_letters(free3):
    with pytest.raises(InputError):
        free3.normalize([0, 7])
    with pytest.raises(InputError):
        free3.normalize("s x")


@pytest.mark.parametrize("index", [1.7, 2.9, 1.0, Fraction(1), None])
def test_generator_door_refuses_non_integral_indices(free3, index):
    """An index must be an integer: ``int(1.7)`` used to make s and t
    commute, and ``element([0, 2.9, 1.2])`` gave s.u.t."""
    with pytest.raises(InputError, match="unknown generator"):
        CoxeterSystem("stu", [(0, index)])
    with pytest.raises(InputError, match="unknown generator"):
        free3.element([0, index, 1])


@pytest.mark.parametrize("pair", [(0,), (0, 1, 2), 5, None])
def test_commuting_pair_must_be_two_generators(pair):
    with pytest.raises(InputError, match="is not a pair of generators"):
        CoxeterSystem("stu", [pair])


def test_generator_door_takes_numpy_integers(free3):
    sys = CoxeterSystem("stu", [(np.int64(0), np.int32(1))])
    assert sys.commutes(0, 1) and not sys.commutes(0, 2)
    assert str(sys.element([np.int64(1), np.uint8(2), 0])) == "t.u.s"
    assert free3.generator_index(np.int16(2)) == 2


def test_local_swap_fixpoint_is_not_canonical():
    """A word can admit no lex-decreasing adjacent swap yet fail to be the
    ShortLex-least member of its commutation class; the canonical form
    must use the global normal form."""
    sys = CoxeterSystem("abcd", [("c", "b"), ("c", "d")])
    w = sys.normalize([3, 1, 2])
    # [3,1,2] has no adjacent commuting inversion, but [2,3,1] is smaller
    assert w.word == (2, 3, 1)
    assert w.word in rewriting_closure_min(sys, (3, 1, 2))


@pytest.mark.parametrize("sys_idx", range(4))
def test_normal_form_soundness_three_generators(sys_idx):
    """Exhaustive words of length <= 6 over every 3-generator pattern:
    the canonical form is the ShortLex-least reduced word of the closure,
    so equal canonical forms characterize rewriting equivalence."""
    sys = three_generator_patterns()[sys_idx]
    for n in range(7):
        for word in itertools.product(range(3), repeat=n):
            cls = rewriting_closure_min(sys, word)
            e = sys.normalize(word)
            assert e.word == min(cls)
            assert (len(word) - len(e)) % 2 == 0


@pytest.mark.parametrize("sys_idx", range(3))
def test_normal_form_soundness_four_generators(sys_idx):
    sys = four_generator_patterns()[sys_idx]
    for n in range(6):
        for word in itertools.product(range(4), repeat=n):
            cls = rewriting_closure_min(sys, word)
            assert sys.normalize(word).word == min(cls)


def test_normalize_idempotent(free3, z2sq_z2):
    rng = random.Random(3)
    for sys in (free3, z2sq_z2):
        for _ in range(50):
            w = [rng.randrange(3) for _ in range(rng.randint(0, 10))]
            e = sys.normalize(w)
            assert sys.normalize(e.word) == e


# -- products ---------------------------------------------------------------------

def test_multiply_examples(free3, dihedral, z2xz2):
    s = free3.element("s")
    assert free3.multiply(s, s).is_identity
    sts = dihedral.element("sts")
    assert dihedral.multiply(sts, sts).is_identity
    st = z2xz2.multiply(z2xz2.element("s"), z2xz2.element("t"))
    assert str(st) == "s.t" and len(st) == 2


def test_multiply_associative_and_inverse(z2sq_z2):
    rng = random.Random(11)
    ball = z2sq_z2.ball(4)
    for _ in range(200):
        a, b, c = (rng.choice(ball) for _ in range(3))
        lhs = z2sq_z2.multiply(z2sq_z2.multiply(a, b), c)
        rhs = z2sq_z2.multiply(a, z2sq_z2.multiply(b, c))
        assert lhs == rhs
        assert z2sq_z2.multiply(a, z2sq_z2.inverse(a)).is_identity


def test_multiply_rejects_mixed_systems(free3, dihedral):
    with pytest.raises(InputError):
        free3.multiply(free3.element("s"), dihedral.element("s"))


def test_mult_gen(free3, z2sq_z2):
    e, d = free3.mult_gen(free3.identity, "u")
    assert str(e) == "u" and d == +1
    e, d = free3.mult_gen(free3.element("s t"), "t")
    assert str(e) == "s" and d == -1
    # t moves past the commuting u and cancels
    e, d = z2sq_z2.mult_gen(z2sq_z2.element("t u"), "t")
    assert str(e) == "u" and d == -1
    e, d = z2sq_z2.mult_gen(z2sq_z2.element("t u"), "s", side=LEFT)
    assert str(e) == "s.t.u" and d == +1
    with pytest.raises(InputError, match="side must be 'left' or 'right'"):
        free3.mult_gen(free3.identity, "s", side="up")


def test_mult_gen_matches_multiply(z2sq_z2, pentagon):
    for sys in (z2sq_z2, pentagon):
        for w in sys.ball(4):
            for s in range(sys.n):
                g = sys.element([s])
                right, dr = sys.mult_gen(w, s, RIGHT)
                left, dl = sys.mult_gen(w, s, LEFT)
                assert right == sys.multiply(w, g)
                assert left == sys.multiply(g, w)
                assert dr == len(right) - len(w)
                assert dl == len(left) - len(w)


def test_mult_gen_matches_normal_forms_random_graphs():
    """mult_gen inserts the new letter into the canonical word instead of
    re-sorting it: checked against the rewriting-closure oracle on short
    words and against normalize on long ones."""
    rng = random.Random(4242)
    for _ in range(60):
        sys = random_system(rng)
        for _ in range(20):
            w = sys.normalize([rng.randrange(sys.n)
                               for _ in range(rng.randint(0, 12))])
            for s in range(sys.n):
                for side, word in ((RIGHT, w.word + (s,)),
                                   (LEFT, (s,) + w.word)):
                    got, delta = sys.mult_gen(w, s, side)
                    want = (min(rewriting_closure_min(sys, word))
                            if len(word) <= 6 else sys.normalize(word).word)
                    assert got.word == want, (sys, w, s, side)
                    assert delta == len(want) - len(w)


def test_right_deletion_keeps_canonical_word():
    """Deleting a right descent s from a canonical word leaves a canonical
    word (every letter after s commutes with it), so the step returns it
    without a re-sort: the greedy normal form fixes it, and it is the
    product ws."""
    rng = random.Random(89)
    for _ in range(30):
        sys = random_system(rng, 6)
        for w in sys.ball(6):
            for s in sys.right_descents(w):
                word, delta = sys._step(w.word, s, RIGHT)
                assert delta == -1 and greedy_normal_form(sys, word) == word
                ws, delta = sys.mult_gen(w, s, RIGHT)
                assert ws.word == word and delta == -1
                assert ws == sys.multiply(w, sys.element([s]))


def test_word_operations_match_greedy_normal_form():
    """normalize, multiply, inverse and steps on both sides agree with the
    greedy oracle on long words, where the rewriting closure is too big."""
    rng = random.Random(1201)
    for _ in range(60):
        sys = random_system(rng, 10)
        for _ in range(10):
            a, b = ([rng.randrange(sys.n) for _ in range(rng.randint(0, 30))]
                    for _ in range(2))
            x, y = sys.normalize(a), sys.normalize(b)
            assert x.word == greedy_normal_form(sys, a)
            assert sys.multiply(x, y).word == greedy_normal_form(sys, a + b)
            assert sys.inverse(x).word == greedy_normal_form(sys, a[::-1])
            for s in range(sys.n):
                assert sys._step(x.word, s, RIGHT)[0] == \
                    greedy_normal_form(sys, x.word + (s,))
                assert sys._step(x.word, s, LEFT)[0] == \
                    greedy_normal_form(sys, (s,) + x.word)


def test_left_step_is_a_right_step_from_the_prefix(named_systems):
    """s(w't) = (sw')t: the left step of w = w't is one right step with t
    from the left step of its prefix w', and s e = s."""
    rng = random.Random(47)
    balls = [sys.ball(5) for sys in named_systems.values()]
    balls += [random_system(rng).ball(4) for _ in range(30)]
    for ball in balls:
        sys = ball[0].system
        for s in range(sys.n):
            assert sys._step((), s, LEFT)[0] == (s,)
        for w in ball[1:]:
            prefix, t = w.word[:-1], w.word[-1]
            for s in range(sys.n):
                assert sys._step(w.word, s, LEFT)[0] == sys._step(
                    sys._step(prefix, s, LEFT)[0], t, RIGHT)[0], (sys, w, s)


# -- descent sets -----------------------------------------------------------------

def test_descent_examples(free3, z2xz2):
    dl, dr = free3.descent_sets(free3.identity)
    assert dl == frozenset() and dr == frozenset()
    dl, dr = free3.descent_sets(free3.element("s t u"))
    assert dl == {0} and dr == {2}
    dl, dr = z2xz2.descent_sets(z2xz2.element("s t"))
    assert dl == dr == {0, 1}


def test_descents_characterize_shortening(named_systems):
    for sys in named_systems.values():
        for w in sys.ball(4):
            for s in range(sys.n):
                _, dr = sys.mult_gen(w, s, RIGHT)
                assert (s in sys.right_descents(w)) == (dr < 0)
                _, dl = sys.mult_gen(w, s, LEFT)
                assert (s in sys.left_descents(w)) == (dl < 0)


def test_descents_pairwise_commute_and_proper(named_systems):
    for sys in named_systems.values():
        for w in sys.ball(5):
            dr = sorted(sys.right_descents(w))
            for i, j in itertools.combinations(dr, 2):
                assert sys.commutes(i, j)
            assert len(dr) < sys.n


def test_descent_recursion_on_lengthening(named_systems):
    """D_R(ws) = (D_R(w) intersect C(s)) union {s} whenever |ws| > |w|."""
    for sys in named_systems.values():
        for w in sys.ball(5):
            for s in range(sys.n):
                ws, delta = sys.mult_gen(w, s, RIGHT)
                if delta > 0:
                    expect = (sys.right_descents(w) & sys.commuting_set(s)) | {s}
                    assert sys.right_descents(ws) == expect


def test_length_additivity_criterion(named_systems):
    for sys in named_systems.values():
        ball = sys.ball(4)
        for v in ball:
            for w in ball:
                additive = len(sys.multiply(v, w)) == len(v) + len(w)
                disjoint = not (sys.right_descents(v) & sys.left_descents(w))
                assert additive == disjoint


# -- support and centralizers ------------------------------------------------------

def test_elements_of_different_systems_differ(free3, z2sq_z2):
    """The hash ignores the system, equality does not."""
    s_free, s_z2 = free3.element("s"), z2sq_z2.element("s")
    assert hash(s_free) == hash(s_z2) and s_free != s_z2
    assert s_z2 not in {s_free: 1} and len({s_free, s_z2}) == 2
    with pytest.raises(InputError, match="elements of different systems"):
        s_free < s_z2


def test_support(free3, dihedral):
    assert free3.support(free3.identity) == frozenset()
    assert free3.support(free3.element("s t u")) == {0, 1, 2}
    assert dihedral.support(dihedral.element("sts")) == {0, 1}


def test_support_invariant_on_commutation_class(z2sq_z2, pentagon):
    for sys in (z2sq_z2, pentagon):
        for w in sys.ball(5):
            for rw in rewriting_closure_min(sys, w.word):
                assert frozenset(rw) == sys.support(w)


def test_commutes_with_gen(free3, z2sq_z2):
    assert free3.commutes_with_gen(free3.identity, "s")
    assert z2sq_z2.commutes_with_gen(z2sq_z2.element("u"), "t")
    assert not free3.commutes_with_gen(free3.element("t"), "s")


def test_commutes_with_gen_agrees_with_direct_product(named_systems):
    for sys in named_systems.values():
        for w in sys.ball(4):
            for r in range(sys.n):
                g = sys.element([r])
                direct = sys.multiply(w, g) == sys.multiply(g, w)
                assert sys.commutes_with_gen(w, r) == direct


# -- balls and sphere counts ---------------------------------------------------------

def test_ball_examples(free3, pentagon):
    assert [str(w) for w in free3.ball(0)] == ["e"]
    assert len(free3.ball(2)) == 10
    assert len(pentagon.ball(2)) == 21


def test_ball_sorted_and_deterministic(z2sq_z2):
    ball = z2sq_z2.ball(5)
    assert ball == z2sq_z2.ball(5)
    keys = [w.sort_key() for w in ball]
    assert keys == sorted(keys)
    assert len(set(ball)) == len(ball)


def test_ball_capacity_guard(free3):
    with pytest.raises(CapacityError):
        free3.ball(30, max_elements=1000)
    with pytest.raises(CapacityError):
        free3.ball_table(30, max_elements=1000)
    size = len(free3.ball(6))
    assert len(free3.ball_table(6, max_elements=size)[0]) == size
    with pytest.raises(CapacityError):
        free3.ball_table(6, max_elements=size - 1)
    with pytest.raises(CapacityError):
        free3.sphere_counts(30, max_total=1000)


@pytest.mark.parametrize("cap", [0, -1, -5])
def test_ball_cap_below_one_is_input_error(free3, cap):
    """No ball is empty, so a cap below 1 is a bad argument rather than a
    capacity failure, at every radius."""
    for call in (free3.ball, free3.ball_table):
        for radius in (0, 3):
            with pytest.raises(InputError, match="at least 1"):
                call(radius, cap)


def test_ball_exact_capacity_boundary(free3):
    size = len(free3.ball(6))
    assert len(free3.ball(6, max_elements=size)) == size
    with pytest.raises(CapacityError,
                       match=rf"ball would exceed {size - 1} elements"):
        free3.ball(6, max_elements=size - 1)


def enumerated_ball_words(system, radius, max_elements):
    """Canonical words of the ball, extending one (word, mask) pair at a
    time as the ball was enumerated before the level walk on arrays; kept
    as an oracle."""
    levels = [[((), system._full)]]
    total = 1
    nc, cgt = system._noncomm, system._ext_cgt
    for length in range(1, radius + 1):
        nxt = []
        for word, mask in levels[-1]:
            for s in coxeter._bits(mask):
                nxt.append((word + (s,), nc[s] | (cgt[s] & mask)))
        total += len(nxt)
        if total > max_elements:
            raise CapacityError(
                f"ball would exceed {max_elements} elements: {total} counted"
                f" through length {length}; raise the cap to enumerate further")
        if not nxt:
            break
        levels.append(nxt)
    return [word for level in levels for word, _ in level]


def assert_walk_matches_enumeration(sys, radius, max_elements=10**6):
    """Words of ball() and ball_table() against the oracle, or the same
    capacity message when the cap is hit."""
    try:
        expected = enumerated_ball_words(sys, radius, max_elements)
    except CapacityError as exc:
        for call in (sys.ball, sys.ball_table):
            with pytest.raises(CapacityError) as info:
                call(radius, max_elements)
            assert str(info.value) == str(exc)
        return
    assert [w.word for w in sys.ball(radius, max_elements)] == expected
    assert sys.ball_table(radius, max_elements).words() == expected


@pytest.mark.parametrize("name,radius",
                         [("free3", 10), ("z2sq-z2", 10), ("pentagon", 8)])
def test_ball_walk_matches_enumeration(named_systems, name, radius):
    assert_walk_matches_enumeration(named_systems[name], radius)


def test_ball_walk_matches_enumeration_random_graphs():
    rng = random.Random(2018)
    for _ in range(60):
        sys = random_system(rng, 9)
        assert_walk_matches_enumeration(sys, 5)
        assert_walk_matches_enumeration(sys, 5, max_elements=50)


def test_ball_walk_matches_enumeration_62_generators():
    """The free product of 62 involutions and Z2^62 use mask bit 61."""
    names = [f"g{i}" for i in range(62)]
    for sys in (CoxeterSystem(names),
                CoxeterSystem(names, itertools.combinations(range(62), 2))):
        assert_walk_matches_enumeration(sys, 2)
        assert_walk_matches_enumeration(sys, 3, max_elements=5000)


def assert_tree_matches_enumeration(sys, radius):
    """The table's prefix tree against the oracle's words: each word is its
    parent's word plus its last letter, and its length is the word's."""
    words = enumerated_ball_words(sys, radius, 10**6)
    table = sys.ball_table(radius)
    assert table.parent[0] == 0 and table.last[0] == -1
    for i in range(1, len(words)):
        assert words[i] == words[table.parent[i]] + (table.last[i],), i
    assert table.lengths.tolist() == [len(w) for w in words]


def test_ball_tree_matches_enumeration_random_graphs():
    rng = random.Random(2019)
    for _ in range(60):
        assert_tree_matches_enumeration(random_system(rng, 9), 5)


def test_ball_tree_matches_enumeration_62_generators():
    names = [f"g{i}" for i in range(62)]
    for sys in (CoxeterSystem(names),
                CoxeterSystem(names, itertools.combinations(range(62), 2))):
        assert_tree_matches_enumeration(sys, 2)


def test_ball_allocates_no_table():
    """ball() reads the prefix tree only: its peak allocation stays below
    the size of one right-multiplication table of the same ball."""
    sys = CoxeterSystem([f"g{i}" for i in range(62)])
    size = len(sys.ball(2))
    tracemalloc.start()
    try:
        sys.ball(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sys.n * size * np.dtype(np.int64).itemsize


def test_ball_past_the_cap_refuses_before_it_allocates():
    """Level 5 of 30 free involutions has 21,218,430 words, past the cap:
    ball() and ball_table() refuse it from the count of its parents' mask
    bits, with a message that names the cap and the 21,976,231 elements
    through length 5, and a traced peak far below the level."""
    sys = CoxeterSystem([f"g{i}" for i in range(30)])
    for call in (sys.ball, sys.ball_table):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError) as err:
                call(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == (
            f"ball would exceed {coxeter.DEFAULT_MAX_BALL} elements: 21976231 "
            "counted through length 5; raise the cap to enumerate further")
        assert peak < 100 * 2**20


def test_left_table_peak_is_near_its_result():
    """The left table is filled a generator row at a time and its
    descents are read from row order, so on 30 free involutions' ball(3)
    its traced peak stays below 1.5 times the bytes it returns."""
    table = CoxeterSystem([f"g{i}" for i in range(30)]).ball_table(3)
    tracemalloc.start()
    try:
        out = table.left()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sum(a.nbytes for a in out)


def assert_table_matches_mult_gen(sys, radius):
    """Every entry of the recurrence-built table against mult_gen."""
    table = sys.ball_table(radius)
    words, lengths, right, descent = (table.words(), table.lengths,
                                      table.right, table.descent)
    ball = sys.ball(radius)
    assert words == [w.word for w in ball]
    assert lengths.tolist() == [len(w) for w in ball]
    index = {w.word: i for i, w in enumerate(ball)}
    for i, w in enumerate(ball):
        for s in range(sys.n):
            ws, delta = sys.mult_gen(w, s, RIGHT)
            assert right[s, i] == index.get(ws.word, -1), (w, s)
            assert descent[s, i] == (delta < 0), (w, s)


@pytest.mark.parametrize("name,radius",
                         [("free3", 10), ("z2sq-z2", 10), ("pentagon", 8)])
def test_ball_table_matches_mult_gen(named_systems, name, radius):
    assert_table_matches_mult_gen(named_systems[name], radius)


def test_ball_table_matches_mult_gen_random_graphs():
    rng = random.Random(2015)
    for _ in range(60):
        sys = random_system(rng)
        assert_table_matches_mult_gen(sys, 6 if sys.n <= 4 else 4)


def test_ball_table_int32_random_graphs():
    """On the graphs above, the right table and the left table derived from
    it are int32, and the left entries still match mult_gen."""
    rng = random.Random(2015)
    for _ in range(60):
        sys = random_system(rng)
        table = sys.ball_table(6 if sys.n <= 4 else 4)
        assert table.right.dtype == np.int32
        assert table.left()[0].dtype == np.int32
        assert_left_table_matches_mult_gen(sys, 6 if sys.n <= 4 else 4)



def test_level_ends_match_sphere_count_cumsum():
    """The end row of each level is the running total of the sphere
    counts, on 60 seeded balls and on a prefix of each."""
    rng = random.Random(34)
    for _ in range(60):
        lengths = random_system(rng, 9).ball_table(rng.randint(0, 5)).lengths
        for end in (len(lengths), rng.randint(1, len(lengths))):
            expected = np.cumsum(np.bincount(lengths[:end]))
            assert (coxeter._level_ends(lengths[:end]) == expected).all()


def assert_left_table_matches_mult_gen(sys, radius):
    """Left table (index and descent) and support masks against mult_gen,
    on the whole ball and on a prefix."""
    table = sys.ball_table(radius)
    words = table.words()
    left, descent = table.left()
    supports = table.supports()
    ball = sys.ball(radius)
    index = {w.word: i for i, w in enumerate(ball)}
    for i, w in enumerate(ball):
        assert supports[i] == sum(1 << x for x in sys.support(w))
        for s in range(sys.n):
            sw, delta = sys.mult_gen(w, s, LEFT)
            assert left[s, i] == index.get(sw.word, -1), (w, s)
            assert descent[s, i] == (delta < 0), (w, s)
    end = (len(words) + 1) // 2
    prefix, prefix_descent = table.left(end)
    assert (prefix == left[:, :end]).all()
    assert (prefix_descent == descent[:, :end]).all()
    assert [a.shape for a in table.left(0)] == [(sys.n, 0)] * 2


@pytest.mark.parametrize("name,radius",
                         [("free3", 9), ("z2sq-z2", 10), ("pentagon", 7)])
def test_ball_left_table_matches_mult_gen(named_systems, name, radius):
    assert_left_table_matches_mult_gen(named_systems[name], radius)


def test_ball_left_table_matches_mult_gen_random_graphs():
    rng = random.Random(2016)
    for _ in range(60):
        sys = random_system(rng)
        assert_left_table_matches_mult_gen(sys, 6 if sys.n <= 4 else 4)


def brute_force_sphere_counts(sys, n):
    """Independent count: normalize every word of length <= n and dedup."""
    seen = {}
    for k in range(n + 1):
        for word in itertools.product(range(sys.n), repeat=k):
            e = sys.normalize(word)
            seen[e] = len(e)
    counts = [0] * (n + 1)
    for length in seen.values():
        counts[length] += 1
    return counts


def test_sphere_counts_against_brute_force(free3, z2sq_z2, z2xz2):
    assert free3.sphere_counts(6) == brute_force_sphere_counts(free3, 6)
    assert z2sq_z2.sphere_counts(6) == brute_force_sphere_counts(z2sq_z2, 6)
    assert z2xz2.sphere_counts(3) == brute_force_sphere_counts(z2xz2, 3)


def test_sphere_counts_pentagon_brute_force(pentagon):
    assert pentagon.sphere_counts(4) == brute_force_sphere_counts(pentagon, 4)


def test_sphere_counts_known_values(free3, z2xz2, pentagon):
    assert z2xz2.sphere_counts(4) == [1, 2, 1, 0, 0]
    assert free3.sphere_counts(5) == [1, 3, 6, 12, 24, 48]
    assert pentagon.sphere_counts(3) == [1, 5, 15, 40]


def test_sphere_counts_automaton_random_graphs():
    """Automaton counts against brute-force normalization and against the
    length histogram of the ball table, on 40 seeded random graphs."""
    rng = random.Random(2017)
    for _ in range(40):
        sys = random_system(rng)
        depth = 5 if sys.n <= 4 else 3
        assert sys.sphere_counts(depth) == brute_force_sphere_counts(sys, depth)
        radius = 6 if sys.n <= 4 else 4
        lengths = sys.ball_table(radius).lengths
        assert sys.sphere_counts(radius) == [int((lengths == k).sum())
                                             for k in range(radius + 1)]


def test_sphere_counts_deep_free3(free3):
    assert free3.sphere_counts(40, max_total=10**30) == (
        [1] + [3 * 2 ** (k - 1) for k in range(1, 41)])
    with pytest.raises(InputError, match="n must be nonnegative"):
        free3.sphere_counts(-1)


def test_sphere_automaton_state_cap(free3, monkeypatch):
    """Level 1 of free3's automaton has 3 states; a cap of 2 is named."""
    monkeypatch.setattr(coxeter, "DEFAULT_MAX_BALL", 2)
    assert free3.sphere_counts(0) == [1]
    with pytest.raises(CapacityError, match=r"3 states, more than the cap of 2"):
        free3.sphere_counts(1)


def test_sphere_automaton_state_cap_fails_fast(monkeypatch):
    """The cap is checked after each parent state: a level of 49 states
    stops at no more than cap + n of them."""
    rng = random.Random(14)
    pairs = [p for p in itertools.combinations(range(14), 2)
             if rng.random() < 0.7]
    sys = CoxeterSystem([f"g{i}" for i in range(14)], pairs)
    assert len(sys.sphere_counts(5, math.inf)) == 6
    monkeypatch.setattr(coxeter, "DEFAULT_MAX_BALL", 30)
    with pytest.raises(CapacityError, match="level 3 has at least") as info:
        sys.sphere_counts(5)
    states = int(re.search(r"at least (\d+) states", str(info.value))[1])
    assert 30 < states <= 30 + 14


def sphere_counts_stepped_afresh(sys, n):
    """Automaton counts that step every state again at every level, as
    before the successor memo; kept as an oracle."""
    nc, cgt = sys._noncomm, sys._ext_cgt
    level, counts = {sys._full: 1}, [1]
    for _ in range(n):
        nxt = {}
        for mask, count in level.items():
            for s in coxeter._bits(mask):
                state = nc[s] | (cgt[s] & mask)
                nxt[state] = nxt.get(state, 0) + count
        level = nxt
        counts.append(sum(level.values()))
    return counts


@pytest.mark.parametrize("memo_states", [None, 1])
def test_sphere_counts_memo_matches_fresh_steps(monkeypatch, memo_states):
    """Depth-12 counts on 60 seeded graphs of up to 20 generators equal the
    oracle's, with the default memo bound and with a bound of 1 state, so
    that states past the bound are stepped afresh."""
    if memo_states is not None:
        monkeypatch.setattr(coxeter, "_STEP_MEMO_STATES", memo_states)
    rng = random.Random(2051)
    for _ in range(60):
        sys = random_system(rng, max_n=20)
        assert sys.sphere_counts(12, math.inf) == (
            sphere_counts_stepped_afresh(sys, 12))


def test_sphere_total_cap_names_cap_and_count(free3):
    """free3's balls hold 766 elements through length 8 and 1534 through
    length 9: a cap of 1000 names both numbers and the length reached."""
    with pytest.raises(CapacityError) as info:
        free3.sphere_counts(30, max_total=1000)
    assert str(info.value) == ("ball of radius 30 would exceed 1000 elements:"
                               " 1534 counted through length 9")


def test_ball_matches_sphere_partial_sums(named_systems):
    for sys in named_systems.values():
        counts = sys.sphere_counts(5)
        ball = sys.ball(5)
        assert len(ball) == sum(counts)
        by_len = [0] * 6
        for w in ball:
            by_len[len(w)] += 1
        assert by_len == counts


# -- regular join -----------------------------------------------------------------

def test_regular_join_examples(dihedral, free3):
    u = dihedral.regular_join(dihedral.element("s"), dihedral.element("s"))
    assert str(u) == "t"
    u = free3.regular_join(free3.identity, free3.identity)
    assert str(u) == "s.t.u"
    v = w = free3.element("s")
    u = free3.regular_join(v, w)
    assert str(u) == "t.u"
    total = free3.multiply(free3.multiply(v, u), w)
    assert len(total) == len(v) + len(u) + len(w) == 4


def test_regular_join_length_additive(named_systems):
    for sys in named_systems.values():
        ball = sys.ball(3)
        rng = random.Random(5)
        for _ in range(60):
            v, w = rng.choice(ball), rng.choice(ball)
            u = sys.regular_join(v, w)
            total = sys.multiply(sys.multiply(v, u), w)
            assert len(total) == len(v) + len(u) + len(w)


def test_regular_join_domain_errors(z2xz2, dihedral):
    from coxhecke import DomainError
    with pytest.raises(DomainError):
        z2xz2.regular_join(z2xz2.identity, z2xz2.identity)
    # dihedral is infinite irreducible: allowed
    assert dihedral.regular_join(dihedral.identity, dihedral.identity)


# -- word conditions ---------------------------------------------------------------

def test_check_conditions_examples(free3, dihedral):
    rep = free3.check_conditions("s s", "s", "t")
    assert rep.deletion_applies and rep.deletion_holds
    assert rep.deletion_witness == (0, 1)
    rep = dihedral.check_conditions("s t", "s", "t")
    assert rep.exchange_applies and rep.exchange_holds
    assert rep.exchange_witness == 0
    rep = free3.check_conditions("u", "s", "t")
    assert rep.folding_applies and rep.folding_holds
    assert rep.folding_branch == "swt reduced"
    rep = free3.check_conditions("s", "s", "s")
    assert rep.folding_branch in (None, "swt = w")
