"""Braid-word machinery, verified against the exact Burau oracle for B_3."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordercone import (BraidWord, BudgetExceededError, UsageError,
                       braid_equal, budget_scope, current_budget,
                       free_reduce, handle_reduce, main_sign, shift_embed)
from ordercone.braids import (burau_fingerprint, fingerprint, parse_letters,
                               permutation)

from conftest import (braids_equal_oracle, burau_dense, random_positive_word,
                      random_word)


def w3(text: str) -> BraidWord:
    return BraidWord.from_text(3, text)


def test_parse_and_format():
    word = w3("s1 S2 s2")
    assert word.letters == (1, -2, 2)
    assert word.to_text() == "s1 S2 s2"
    assert BraidWord.from_text(3, "").letters == ()
    with pytest.raises(Exception):
        parse_letters("t1")


@pytest.mark.parametrize("letter", [0, 3, -3, 1.5, True],
                         ids=["zero", "high", "low", "float", "bool"])
def test_braid_word_rejects_bad_letters(letter):
    with pytest.raises(UsageError):
        BraidWord(3, (1, letter))


def test_free_reduce_examples():
    assert free_reduce(w3("s1 S1")).letters == ()
    assert free_reduce(w3("s1 s2 S2 s2")).letters == (1, 2)
    assert free_reduce(w3("S2 s2 S2")).letters == (-2,)


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
    # Permutation images differ, so the words cannot be equal.
    assert permutation(w3("s1 s2")) != permutation(w3("s2 s1"))
    assert not braid_equal(w3("s1 s2"), w3("s2 s1"))
    assert braid_equal(w3(""), w3("s1 S1"))


def test_shift_embed_examples():
    assert shift_embed(1, BraidWord.from_text(2, "s1"), 3).letters == (2,)
    word = w3("s1 S2")
    assert shift_embed(0, word, 3).letters == word.letters
    assert shift_embed(2, BraidWord.from_text(2, "s1 s1"), 4).letters == (3, 3)
    with pytest.raises(Exception):
        shift_embed(2, BraidWord.from_text(2, "s1"), 3)


def test_reduction_sound_against_burau():
    rng = random.Random(20240811)
    for _ in range(300):
        word = random_word(rng, 3, 10)
        assert braids_equal_oracle(word, handle_reduce(word))


def test_reduction_soundness_b4():
    # braid_equal is itself reduction based, but agreement between the
    # reduced form and the original word is still a consistency check.
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


@st.composite
def braid_words(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    letter = st.integers(min_value=1, max_value=n - 1).flatmap(
        lambda i: st.sampled_from((i, -i)))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=80))))


@given(braid_words())
def test_column_update_fingerprint_matches_dense_product(word):
    assert burau_fingerprint(word) == burau_dense(word)


def test_permutation_consistency():
    rng = random.Random(31337)
    for _ in range(150):
        u = random_word(rng, 4, 8)
        v = random_word(rng, 4, 8)
        if braid_equal(u, v):
            assert permutation(u) == permutation(v)


def test_subword_property_sample():
    # Conjugates of positive words stay Dehornoy positive.
    rng = random.Random(2718)
    for _ in range(120):
        beta = random_word(rng, 3, 6)
        alpha = random_positive_word(rng, 3, 5)
        conjugated = beta * alpha * beta.inverse()
        assert main_sign(conjugated).sign == 1
