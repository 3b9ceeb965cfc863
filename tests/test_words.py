from __future__ import annotations

import pytest

from _geometry_oracle import children, letter_index, word_index
from vicsek_lab.errors import InvalidRatioError, LevelError
from vicsek_lab.ratios import (
    RatioSequence,
    constant_ratios,
    example_prefix,
    example_ratio,
    example_sequence_ratios,
    periodic_ratios,
)
from vicsek_lab.words import (
    CENTER,
    Letter,
    enumerate_letters,
    letter_from_index,
    word_from_index,
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


def block_walk(a: int, b: int, n: int) -> tuple[int, ...]:
    """Reference: the first n ratios of a^2 b a^3 b^2 ..., written out block
    pair by block pair (pair j is a repeated j + 1 times, then b j times)."""
    out: list[int] = []
    j = 1
    while len(out) < n:
        out += [a] * (j + 1) + [b] * j
        j += 1
    return tuple(out[:n])


@pytest.mark.parametrize("a, b", [(3, 5), (5, 3), (7, 3), (3, 7), (9, 3)])
def test_example_prefix_is_example_ratio(a, b):
    for n in (0, 1, 2, 3, 10_000):
        assert example_prefix(a, b, n) == block_walk(a, b, n)
    walk = block_walk(a, b, 3_000)
    assert tuple(example_ratio(a, b, k) for k in range(1, 3_000 + 1)) == walk
    assert example_sequence_ratios(a, b, 40).ratios == walk[:40]


def test_distinct_ratios_is_the_whole_alphabet():
    """A generator stores at least one full period, so a prefix shorter
    than the block still yields every ratio the sequence takes."""
    assert periodic_ratios((3, 3, 3, 9), 3).distinct_ratios() == (3, 9)
    assert periodic_ratios((3, 3, 3, 9), 3).prefix(3) == (3, 3, 3)
    assert example_sequence_ratios(3, 9, 2).distinct_ratios() == (3, 9)
    assert example_sequence_ratios(3, 9, 0).distinct_ratios() == (3, 9)
    assert constant_ratios(5, 0).distinct_ratios() == (5,)
    assert RatioSequence((3, 5, 3, 7)).distinct_ratios() == (3, 5, 7)


def test_ratio_past_a_finite_sequence_names_index_and_count():
    rs = RatioSequence((3, 5, 3))
    assert rs.ratio(3) == 3
    with pytest.raises(LevelError, match=r"l_4 .*only 3 ratios were given"):
        rs.ratio(4)


def test_constant_ratio_products():
    rs = constant_ratios(3, 5)
    assert rs.length_product(3) == 27
    assert rs.num_words(3) == 125
    assert rs.rho(2).numerator == 2 and rs.rho(2).denominator == 9
