from __future__ import annotations

import pytest

from vicsek_lab.errors import InvalidRatioError, LevelError
from vicsek_lab.ratios import (
    RatioSequence,
    constant_ratios,
    example_prefix,
    example_ratio,
    example_sequence_ratios,
)
from vicsek_lab.words import (
    CENTER,
    Letter,
    children,
    enumerate_letters,
    letter_from_index,
    letter_index,
    word_from_index,
    word_index,
    word_string,
)


def test_letter_count_formula():
    assert len(enumerate_letters(3)) == 5
    assert len(enumerate_letters(5)) == 9
    assert len(enumerate_letters(9)) == 17


def test_center_appears_once():
    letters = enumerate_letters(3)
    assert letters.count(CENTER) == 1
    assert len(set(letters)) == len(letters)


@pytest.mark.parametrize("bad", [2, 1, 4, 0, -3])
def test_even_or_small_ratio_rejected(bad):
    with pytest.raises(InvalidRatioError):
        enumerate_letters(bad)


def test_letter_index_roundtrip():
    for l in (3, 5, 7):
        for i, letter in enumerate(enumerate_letters(l)):
            assert letter_index(letter, l) == i
            assert letter_from_index(i, l) == letter


def test_children_count_depends_on_next_ratio():
    rs = RatioSequence((3, 5))
    assert len(children(rs, ())) == 5
    assert len(children(rs, (CENTER,))) == 9
    with pytest.raises(LevelError):
        children(rs, (CENTER, CENTER))


def test_word_index_roundtrip():
    rs = RatioSequence((3, 5, 3))
    total = rs.num_words(3)
    assert total == 5 * 9 * 5
    for idx in range(0, total, 37):
        w = word_from_index(rs, 3, idx)
        assert word_index(rs, w) == idx


def test_word_string_compact():
    assert word_string(()) == "-"
    assert word_string((CENTER, Letter(2, 1))) == "c.21"


def test_example_sequence_blocks():
    # a a b | a a a b b | a a a a b b b | ...
    expected = [3, 3, 5, 3, 3, 3, 5, 5, 3, 3, 3, 3, 5, 5, 5]
    got = [example_ratio(3, 5, k) for k in range(1, len(expected) + 1)]
    assert got == expected
    rs = example_sequence_ratios(3, 5, 6)
    assert rs.prefix(6) == (3, 3, 5, 3, 3, 3)
    # generator-backed extension beyond the stored prefix
    assert rs.ratio(8) == 5


@pytest.mark.parametrize("a, b", [(3, 5), (5, 3), (7, 3)])
def test_example_prefix_is_example_ratio(a, b):
    for n in (0, 1, 2, 3, 10_000):
        assert example_prefix(a, b, n) == tuple(example_ratio(a, b, k) for k in range(1, n + 1))
    assert example_sequence_ratios(a, b, 40).ratios == example_prefix(a, b, 40)


def test_constant_ratio_products():
    rs = constant_ratios(3, 5)
    assert rs.length_product(3) == 27
    assert rs.num_words(3) == 125
    assert rs.rho(2).numerator == 2 and rs.rho(2).denominator == 9
