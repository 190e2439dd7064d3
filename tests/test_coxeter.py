"""Word combinatorics: canonical forms, products, descents, balls, joins.

The independent oracle for normal forms is rewriting closure: the set of
words reachable by commuting swaps and adjacent-equal deletions.  Its
minimal-length layer is the commutation class of the reduced words, so
two words spell the same element iff their closures share that layer,
and the canonical form must be the ShortLex-least member.
"""

import itertools
import random

import pytest

from coxhecke import (CapacityError, CoxeterSystem, InputError, LEFT, RIGHT)


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


def three_generator_patterns():
    gens = "abc"
    patterns = [[], [("a", "b")], [("a", "b"), ("b", "c")],
                [("a", "b"), ("b", "c"), ("a", "c")]]
    return [CoxeterSystem(gens, p) for p in patterns]


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


def assert_table_matches_mult_gen(sys, radius):
    """Every entry of the recurrence-built table against mult_gen."""
    words, lengths, right, descent = sys.ball_table(radius)
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
        n = rng.randint(1, 8)
        density = rng.random()
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < density]
        sys = CoxeterSystem([f"g{i}" for i in range(n)], pairs)
        assert_table_matches_mult_gen(sys, 6 if n <= 4 else 4)


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
