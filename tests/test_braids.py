"""Braid-word machinery, verified against the exact Burau oracle for B_3."""

import functools
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordercone import (BraidWord, BudgetExceededError, ContextMismatchError,
                       GroupContext, UsageError, braid_equal, budget_scope,
                       current_budget, handle_reduce, main_sign)
from ordercone import braids
from ordercone.braids import act, clear_caches, fingerprint, parse_letters
from ordercone.groups import product_key

from conftest import (_free_reduce, braids_equal_oracle, garside_key_oracle,
                      handle_reduce_oracle, random_positive_word, random_word)


def w3(text: str) -> BraidWord:
    return BraidWord.from_text(3, text)


def test_parse_and_format():
    word = w3("s1 S2 s1")
    assert word.letters == (1, -2, 1)
    assert word.to_text() == "s1 S2 s1"
    # A word is free-reduced on construction: S2 s2 cancels.
    assert w3("s1 S2 s2").letters == (1,)
    assert BraidWord.from_text(3, "").letters == ()
    with pytest.raises(UsageError):
        parse_letters("t1")


@pytest.mark.parametrize("letter", [0, 3, -3, 1.5, True],
                         ids=["zero", "high", "low", "float", "bool"])
def test_braid_word_rejects_bad_letters(letter):
    with pytest.raises(UsageError):
        BraidWord(3, (1, letter))


@pytest.mark.parametrize("letters", [5, None, "s1"],
                         ids=["int", "none", "text"])
def test_braid_word_rejects_non_iterable_letters(letters):
    # Text is not read character by character.
    with pytest.raises(UsageError, match="not an iterable of integers"):
        BraidWord(3, letters)


def test_braid_word_reads_letters_from_any_iterable():
    assert BraidWord(3, (x for x in (1, 2))).letters == (1, 2)
    assert BraidWord(3, [1, -2]).letters == (1, -2)
    with pytest.raises(UsageError):
        BraidWord(3, (x for x in (1, 3)))


def test_braid_word_keeps_a_reduced_tuple_itself():
    letters = (1, 2, -1)
    assert BraidWord(3, letters).letters is letters
    from_list = BraidWord(3, [1, 2, -1]).letters
    assert type(from_list) is tuple and from_list == letters
    assert BraidWord(3, (1, 2, -2, 1)).letters == (1, 1)
    assert BraidWord(3, [2, -1, 1, -2]).letters == ()
    # The reduction memo keys the element's own letters, not a copy, and
    # stores the reduced word: a hit returns that very object.
    clear_caches()
    word = GroupContext.braid(3).element([1, 2, -1]).payload
    reduced = handle_reduce(word)
    assert reduced.letters == (-2, 1, 2)
    key = next(k for k in braids._reduce_cache if k == (3, word.letters))
    assert key[1] is word.letters
    assert handle_reduce(BraidWord(3, (1, 2, -1))) is reduced
    assert handle_reduce(reduced) is reduced
    free = w3("s1 S2")  # handle free: the word is its own result
    assert handle_reduce(free) is free


def test_free_reduce_examples():
    assert w3("s1 S1").letters == ()
    assert w3("s1 s2 S2 s2").letters == (1, 2)
    assert w3("S2 s2 S2").letters == (-2,)
    assert (w3("s1 s2") * w3("S2 S1 s2")).letters == (2,)


@st.composite
def letter_pairs(draw):
    """(n, u, v): two letter tuples of up to 30 letters in B_n, n in
    [2, 6]; with few generators, adjacent inverse pairs are common."""
    n = draw(st.integers(2, 6))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    u, v = (tuple(draw(st.lists(letter, max_size=30))) for _ in range(2))
    return n, u, v


@given(letter_pairs())
def test_braid_word_is_free_reduced_against_oracle(case):
    n, u, v = case
    assert BraidWord(n, u).letters == tuple(_free_reduce(u))
    product = BraidWord(n, u) * BraidWord(n, v)
    assert product.letters == tuple(_free_reduce(u + v))


@st.composite
def valid_word_pairs(draw):
    """(u, v): two valid words in B_n, n in [3, 5], each canonical."""
    n = draw(st.integers(3, 5))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    u, v = (BraidWord(n, draw(st.lists(letter, max_size=24)))
            for _ in range(2))
    return u, v


def _main_sign_two_pass(reduced: BraidWord) -> tuple[int | None, int]:
    """The lowest index, then the sign of its first occurrence."""
    if not reduced.letters:
        return None, 0
    index = min(abs(l) for l in reduced.letters)
    first = next(l for l in reduced.letters if abs(l) == index)
    return index, 1 if first > 0 else -1


@given(valid_word_pairs())
@settings(max_examples=200, deadline=None)
def test_trusted_words_equal_validated_ones(case):
    # Products, inverses and reduction results skip the constructor's
    # checks; each must equal the word the public constructor builds.
    u, v = case
    n = u.n
    assert (u * v).letters == BraidWord(n, u.letters + v.letters).letters
    assert u.inverse().letters == BraidWord(
        n, tuple(-l for l in reversed(u.letters))).letters
    for word in (u, v, u * v):
        reduced = handle_reduce(word)
        assert BraidWord(n, reduced.letters).letters == reduced.letters
        report = main_sign(word)
        assert (report.index, report.sign) == _main_sign_two_pass(reduced)


def test_public_constructor_still_checks():
    # Only words made from canonical words skip the checks.
    with pytest.raises(UsageError):
        BraidWord(3, (1, 3))
    with pytest.raises(UsageError):
        BraidWord(3, (1, 2)).inverse() * BraidWord(3, (0,))
    with pytest.raises(ContextMismatchError):
        BraidWord(3, (1,)) * BraidWord(4, (1,))
    assert BraidWord(3, (1, 2, -2, -1, 2)).letters == (2,)


def test_handle_reduce_cancelling_pair():
    assert handle_reduce(w3("s1 S1")).letters == ()


def test_handle_reduce_single_main_generator():
    # s1 s2 S1 equals S2 s1 s2 with the main generator appearing once,
    # positively; verified through the independent Burau oracle.
    reduced = handle_reduce(w3("s1 s2 S1"))
    assert braids_equal_oracle(reduced, w3("s1 s2 S1"))
    ones = [l for l in reduced.letters if abs(l) == 1]
    assert ones == [1]
    assert braids_equal_oracle(reduced, w3("S2 s1 s2"))


def test_handle_reduce_braid_relator():
    # Both sides of the defining relation cancel to the empty word.
    assert handle_reduce(w3("s1 s2 s1 S2 S1 S2")).letters == ()


def test_handle_reduce_budget_error():
    with budget_scope(current_budget().with_overrides({"handle_steps": 1})):
        with pytest.raises(BudgetExceededError):
            handle_reduce(BraidWord(4, (1, 2, 1, -2, -1, -2) * 4))


def test_handle_steps_budget_counts_rewrites_exactly():
    # A budget of exactly the oracle's rewrite count suffices and one less
    # raises, so the resumed scan rewrites exactly the oracle's handles.
    rng = random.Random(31337)
    words = [BraidWord(4, (1, 2, 1, -2, -1, -2) * 4)]
    while len(words) < 13:
        words.append(random_word(rng, rng.randint(3, 5), 40, min_len=20))
    checked = 0
    for word in words:
        expected, k = handle_reduce_oracle(word.n, word.letters)
        if k < 2:
            continue
        checked += 1
        for steps, fits in ((k, True), (k - 1, False)):
            clear_caches()
            limit = current_budget().with_overrides({"handle_steps": steps})
            with budget_scope(limit):
                if fits:
                    assert handle_reduce(word).letters == expected
                else:
                    with pytest.raises(BudgetExceededError):
                        handle_reduce(word)
    assert checked >= 10


def test_main_sign_examples():
    report = main_sign(w3("S2"))
    assert (report.index, report.sign) == (2, -1)
    report = main_sign(w3("s1 S2"))
    assert (report.index, report.sign) == (1, 1)
    report = main_sign(w3("s1 s2 S1"))
    assert (report.index, report.sign) == (1, 1)
    report = main_sign(w3(""))
    assert (report.index, report.sign) == (None, 0)


def test_braid_equal_examples():
    assert braid_equal(w3("s1 s2 s1"), w3("s2 s1 s2"))
    assert not braid_equal(w3("s1 s2"), w3("s2 s1"))
    assert braid_equal(w3(""), w3("s1 S1"))


def test_reduction_sound_against_burau():
    rng = random.Random(20240811)
    for _ in range(300):
        word = random_word(rng, 3, 10)
        assert braids_equal_oracle(word, handle_reduce(word))


def test_reduction_soundness_b4():
    # braid_equal compares Garside normal-form keys, so this checks each
    # reduction against a decision that shares no code with it.
    rng = random.Random(606)
    for _ in range(150):
        word = random_word(rng, 4, 10)
        assert braid_equal(word, handle_reduce(word))


def test_reduction_reduced_shape():
    rng = random.Random(97)
    for n in (3, 4):
        for _ in range(300):
            word = random_word(rng, n, 12)
            reduced = handle_reduce(word)
            if not reduced.letters:
                continue
            lowest = min(abs(l) for l in reduced.letters)
            signs = {l > 0 for l in reduced.letters if abs(l) == lowest}
            assert len(signs) == 1


def test_trichotomy_and_inversion():
    rng = random.Random(4242)
    for n in (3, 4):
        for _ in range(400):
            word = random_word(rng, n, 12)
            report = main_sign(word)
            mirror = main_sign(word.inverse())
            assert report.sign == -mirror.sign
            assert report.index == mirror.index
            assert (report.sign == 0) == (report.index is None)


def test_positive_closure():
    rng = random.Random(777)
    done = 0
    while done < 100:
        u = random_word(rng, 3, 8)
        v = random_word(rng, 3, 8)
        ru, rv = main_sign(u), main_sign(v)
        if ru.sign == rv.sign == 1 and ru.index == rv.index:
            product = main_sign(u * v)
            assert (product.index, product.sign) == (ru.index, 1)
            done += 1


def test_equal_words_share_fingerprint():
    rng = random.Random(5150)
    for _ in range(150):
        word = random_word(rng, 4, 10)
        assert fingerprint(word) == fingerprint(handle_reduce(word))


def _relator(draw, n: int) -> tuple[int, ...]:
    """A cyclic rotation of a defining relator of B_n, or its inverse."""
    i = draw(st.integers(1, n - 1))
    kinds = ["free"] + (["braid"] if i < n - 1 else []) + (
        ["far"] if i < n - 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "free":
        rel = (i, -i)
    elif kind == "braid":
        rel = (i, i + 1, i, -(i + 1), -i, -(i + 1))
    else:
        j = draw(st.integers(i + 2, n - 1))
        rel = (i, j, -i, -j)
    shift = draw(st.integers(0, len(rel) - 1))
    rel = rel[shift:] + rel[:shift]
    return rel if draw(st.booleans()) else tuple(-l for l in reversed(rel))


@st.composite
def word_pairs(draw, lo: int, hi: int):
    """(u, v) in B_n, n in [lo, hi]: v is u with relators inserted (the
    same braid) or an independent word (usually a different one)."""
    n = draw(st.integers(lo, hi))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    u = tuple(draw(st.lists(letter, max_size=12)))
    if draw(st.booleans()):
        v = u
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(v)))
            v = v[:at] + _relator(draw, n) + v[at:]
    else:
        v = tuple(draw(st.lists(letter, max_size=12)))
    return BraidWord(n, u), BraidWord(n, v)


@st.composite
def reduction_words(draw):
    """(n, letters) in B_n, n in [2, 6], of up to about 80 letters: half
    random, half with relators inserted or a conjugate of a positive word
    (the benchmark's word-stream shape), sometimes inverted."""
    n = draw(st.integers(2, 6))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    kind = draw(st.sampled_from(("random", "random", "relators", "conjugate")))
    if kind == "conjugate":
        outer = tuple(draw(st.lists(letter, max_size=25)))
        inner = tuple(draw(st.lists(st.integers(1, n - 1), min_size=1,
                                    max_size=30)))
        word = outer + inner + tuple(-l for l in reversed(outer))
    else:
        word = tuple(draw(st.lists(letter, max_size=80 if kind == "random"
                                   else 56)))
        for _ in range(draw(st.integers(1, 4)) if kind == "relators" else 0):
            at = draw(st.integers(0, len(word)))
            word = word[:at] + _relator(draw, n) + word[at:]
    if draw(st.booleans()):
        word = tuple(-l for l in reversed(word))
    return n, word


@settings(deadline=None, max_examples=300)
@given(reduction_words())
def test_handle_reduction_matches_rescanning_oracle(case):
    # Under a budget of the oracle's rewrite count, so an extra rewrite
    # raises as well as a different result failing.
    n, letters = case
    expected, steps = handle_reduce_oracle(n, letters)
    clear_caches()
    limit = current_budget().with_overrides({"handle_steps": max(steps, 1)})
    with budget_scope(limit):
        assert handle_reduce(BraidWord(n, letters)).letters == expected


@given(word_pairs(3, 3))
def test_key_decides_equality_against_burau_b3(pair):
    u, v = pair
    assert (fingerprint(u) == fingerprint(v)) == braids_equal_oracle(u, v)


@given(word_pairs(4, 6))
def test_key_decides_equality_against_reduction(pair):
    u, v = pair
    trivial = not handle_reduce(u * v.inverse()).letters
    assert (fingerprint(u) == fingerprint(v)) == trivial


@st.composite
def long_word_pairs(draw, max_size: int):
    """(u, v) in B_n, n in [2, 8], u of up to ``max_size`` letters: v is u
    with relators inserted (the same braid), and then sometimes a letter
    or a commutator s_i s_{i+1} s_i^-1 s_{i+1}^-1 (a different braid)."""
    n = draw(st.integers(2, 8))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    u = tuple(draw(st.lists(letter, max_size=max_size)))
    v = u
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(v)))
        v = v[:at] + _relator(draw, n) + v[at:]
    kind = draw(st.sampled_from(("same", "letter", "commutator")))
    if kind != "same":
        at = draw(st.integers(0, len(v)))
        i = draw(st.integers(1, n - 2)) if n > 2 else 1
        extra = ((i,) if kind == "letter" or n == 2
                 else (i, i + 1, -i, -(i + 1)))
        v = v[:at] + extra + v[at:]
    return BraidWord(n, u), BraidWord(n, v)


@settings(deadline=None)
@given(long_word_pairs(300))
def test_key_decides_equality_against_garside_oracle(pair):
    u, v = pair
    assert ((fingerprint(u) == fingerprint(v))
            == (garside_key_oracle(u) == garside_key_oracle(v)))


@settings(deadline=None)
@given(long_word_pairs(100))
def test_key_is_zero_exactly_on_trivial_braids(pair):
    u, v = pair
    word = u * v.inverse()
    key = fingerprint(word)
    assert len(key) == 2 * word.n
    assert (not any(key)) == (not handle_reduce(word).letters)


@given(word_pairs(2, 6), st.data())
def test_key_invariant_under_relator_insertion(pair, data):
    u, _ = pair
    at = data.draw(st.integers(0, len(u)))
    rel = _relator(data.draw, u.n)
    v = BraidWord(u.n, u.letters[:at] + rel + u.letters[at:])
    assert fingerprint(u) == fingerprint(v)


@st.composite
def action_cases(draw):
    """(n, u, v) letter tuples in B_n, n in [2, 8], either possibly empty:
    v is random, or starts with the inverse of a tail of u (so u v
    cancels at the junction), or is u's inverse."""
    n = draw(st.integers(2, 8))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    u = tuple(draw(st.lists(letter, max_size=40)))
    kind = draw(st.sampled_from(("random", "cancel", "inverse")))
    v = tuple(draw(st.lists(letter, max_size=40)))
    if kind == "inverse":
        v = tuple(-l for l in reversed(u))
    elif kind == "cancel":
        tail = u[len(u) - draw(st.integers(0, len(u))):]
        v = tuple(-l for l in reversed(tail)) + v
    return n, u, v


def _coordinates(key):
    """Dynnikov coordinates from a key: the identity's (0,1, ..., 0,1)
    added back."""
    return [x + (k & 1) for k, x in enumerate(key)]


@settings(deadline=None, max_examples=300)
@given(action_cases())
@example((2, (), ()))
@example((5, (), (1, -4, 3)))
@example((5, (2, 3, -1), ()))
@example((4, (1, 2, 3), (-3, -2, 1)))
@example((4, (1, -3, 2), (-2, 3, -1)))
def test_action_on_key_matches_whole_word_key(case):
    # Letters acting on u's key give the key of the whole word u v; v's
    # letters are acted on as given, unreduced and across the junction.
    n, u, v = case
    u_key = fingerprint(BraidWord(n, u))
    whole = fingerprint(BraidWord(n, u + v))
    assert act(_coordinates(u_key), v) == whole
    assert product_key(GroupContext.braid(n), u_key, BraidWord(n, v)) == whole
    if v == tuple(-l for l in reversed(u)):
        assert whole == (0,) * (2 * n)


@given(word_pairs(3, 3), st.data())
def test_product_keys_decide_equality_against_burau_b3(pair, data):
    # Split each word of a pair into a left factor, keyed as a whole
    # word, and a right factor acting on that key.
    b3 = GroupContext.braid(3)
    keys = []
    for word in pair:
        at = data.draw(st.integers(0, len(word)))
        left = BraidWord(3, word.letters[:at])
        keys.append(product_key(b3, fingerprint(left),
                                BraidWord(3, word.letters[at:])))
    assert (keys[0] == keys[1]) == braids_equal_oracle(*pair)


def _inversions(perm) -> int:
    return sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])


def _finishing_set(perm) -> set[int]:
    """The j with perm = B s_j, B shorter: s_j on the right swaps
    positions j, j + 1."""
    def swapped(j):
        return perm[:j] + (perm[j + 1], perm[j]) + perm[j + 2:]
    return {j for j in range(len(perm) - 1)
            if _inversions(swapped(j)) < _inversions(perm)}


def _starting_set(perm) -> set[int]:
    """The j with perm = s_j B, B shorter: s_j on the left swaps values
    j, j + 1."""
    def swapped(j):
        return tuple({j: j + 1, j + 1: j}.get(v, v) for v in perm)
    return {j for j in range(len(perm) - 1)
            if _inversions(swapped(j)) < _inversions(perm)}


@functools.cache
def _perms_by_rank(n: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(n)))  # lexicographic order


@settings(deadline=None)
@given(reduction_words())
def test_key_is_a_left_normal_form(case):
    # The Garside oracle's factor ranks decode, independently of its
    # tables, to permutations; the factors are proper simples, each
    # adjacent pair is left-weighted, and Delta^p A_1 ... A_r has the
    # word's permutation.
    n, letters = case
    p, factors = garside_key_oracle(BraidWord(n, letters))
    perms = [_perms_by_rank(n)[a] for a in factors]
    identity, delta = tuple(range(n)), tuple(range(n - 1, -1, -1))
    assert identity not in perms and delta not in perms
    for a, b in zip(perms, perms[1:]):
        assert _starting_set(b) <= _finishing_set(a)
    image = delta if p % 2 else identity
    for perm in perms:
        image = tuple(image[v] for v in perm)
    expected = list(identity)
    for letter in letters:
        j = abs(letter) - 1
        expected[j], expected[j + 1] = expected[j + 1], expected[j]
    assert image == tuple(expected)


def test_keys_do_not_depend_on_cache_state():
    rng = random.Random(1313)
    words = [random_word(rng, n, 60, 20) for n in (3, 4, 5, 6) * 5]
    others = [random_word(rng, n, 60, 20) for n in (6, 5, 4, 3) * 5]
    b4 = GroupContext.braid(4)
    u = BraidWord(4, (1, 2, 1, -3, 2, 3, -1))
    v = BraidWord(4, (2, 1, 2, -3, 2, 3, -1))  # s1 s2 s1 = s2 s1 s2
    clear_caches()
    keys = [fingerprint(w) for w in words]
    before = b4.element(u)
    hash(before)  # caches its key
    clear_caches()
    for w in others:  # other words are keyed in between
        fingerprint(w)
    assert [fingerprint(w) for w in reversed(words)] == keys[::-1]
    after = b4.element(v)
    assert after == before and hash(after) == hash(before)


def test_clear_caches_resets_every_braid_memo():
    # The reduction memo is the one braid memo; keys are not memoized.
    word = BraidWord(4, (1, -2, 3, 2, -1, -3, 2))
    reduced = handle_reduce(word)
    assert braids._reduce_cache[(4, word.letters)] is reduced
    clear_caches()
    assert not braids._reduce_cache
    fingerprint(word)
    assert not braids._reduce_cache
    assert handle_reduce(word) is not reduced


def test_reduction_memo_holds_one_entry_per_reduction():
    # A rewriting reduction is stored under its input's letters only;
    # reducing its result again rescans it and returns it unchanged.
    clear_caches()
    word = BraidWord(4, (1, -2, 3, 2, -1, -3, 2))
    reduced = handle_reduce(word)
    assert reduced.letters != word.letters
    assert list(braids._reduce_cache) == [(4, word.letters)]
    again = BraidWord(4, reduced.letters)
    assert handle_reduce(again) is again
    assert len(braids._reduce_cache) == 2


def test_subword_property_sample():
    # Conjugates of positive words stay Dehornoy positive.
    rng = random.Random(2718)
    for _ in range(120):
        beta = random_word(rng, 3, 6)
        alpha = random_positive_word(rng, 3, 5)
        conjugated = beta * alpha * beta.inverse()
        assert main_sign(conjugated).sign == 1
