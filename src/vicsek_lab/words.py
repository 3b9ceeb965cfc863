"""Letters, words and their lexicographic indexing: the one home of the
subcell numbering that every geometric table reads.

A cell of ratio l has 2l - 1 subcells, one per letter.  Letter 0 is the
center subcell; step m = 1..(l - 1)/2 outward along diagonal arm j = 1..4,
numbered counterclockwise from the upper-right diagonal, is letter
1 + (j - 1)(l - 1)/2 + (m - 1) (``arm_letter``).  Slot 0 of a cell is its
center and slot j its corner in direction j.  A word is a tuple of
letters, one per refinement level.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidArgumentError, InvalidRatioError, LevelError
from .ratios import RatioSequence

# Unit diagonal vectors in scaled integer coordinates, indexed by direction:
# the offset of slot j from its cell's center (half-side 1).
DIRECTION_VECTORS = ((0, 0), (1, 1), (-1, 1), (-1, -1), (1, -1))


class Letter(NamedTuple):
    direction: int  # 0 = center, 1..4 = diagonal arm
    step: int  # 0 for the center, 1..(l-1)/2 along an arm

    @property
    def is_center(self) -> bool:
        return self.direction == 0


CENTER = Letter(0, 0)

Word = tuple[Letter, ...]


def enumerate_letters(l: int) -> list[Letter]:
    """The 2l-1 letters of the alphabet for an odd ratio l >= 3."""
    if not isinstance(l, int) or l < 3 or l % 2 == 0:
        raise InvalidRatioError(f"alphabet requires an odd ratio >= 3, got {l}")
    return [letter_from_index(i, l) for i in range(2 * l - 1)]


def letter_offset(letter: Letter) -> tuple[int, int]:
    """Center offset of the subcell, in the child level's scaled coordinates."""
    ux, uy = DIRECTION_VECTORS[letter.direction]
    return (2 * letter.step * ux, 2 * letter.step * uy)


def arm_letter(l: int, direction, step):
    """Index of step ``step`` >= 1 of arm ``direction``; elementwise."""
    return 1 + (direction - 1) * ((l - 1) // 2) + (step - 1)


def letter_index(letter: Letter, l: int) -> int:
    """Position of the letter in enumerate_letters(l)."""
    if letter.direction == 0:
        if letter.step != 0:
            raise InvalidArgumentError(f"center letter with step {letter.step}")
        return 0
    if not (1 <= letter.direction <= 4 and 1 <= letter.step <= (l - 1) // 2):
        raise InvalidArgumentError(f"letter {letter} invalid for ratio {l}")
    return arm_letter(l, letter.direction, letter.step)


def letter_from_index(idx: int, l: int) -> Letter:
    if idx == 0:
        return CENTER
    half = (l - 1) // 2
    if not 1 <= idx <= 4 * half:
        raise InvalidArgumentError(f"letter index {idx} invalid for ratio {l}")
    j, m = divmod(idx - 1, half)
    return Letter(j + 1, m + 1)


def validate_word(ratios: RatioSequence, word: Word) -> None:
    for k, letter in enumerate(word, start=1):
        letter_index(letter, ratios.ratio(k))


def children(ratios: RatioSequence, word: Word) -> list[Word]:
    """The 2 l_{n+1} - 1 one-letter extensions of a level-n word."""
    n = len(word)
    try:
        l = ratios.ratio(n + 1)
    except LevelError:
        raise LevelError(
            f"word at level {n} has no children within depth {ratios.depth}"
        ) from None
    return [word + (s,) for s in enumerate_letters(l)]


def word_index(ratios: RatioSequence, word: Word) -> int:
    """Index of the word in the lexicographic enumeration of its level."""
    idx = 0
    for k, letter in enumerate(word, start=1):
        l = ratios.ratio(k)
        idx = idx * (2 * l - 1) + letter_index(letter, l)
    return idx


def word_from_index(ratios: RatioSequence, level: int, idx: int) -> Word:
    """Inverse of word_index for a given level."""
    sizes = ratios.alphabet_sizes(level)
    letters: list[Letter] = []
    for k in range(level - 1, -1, -1):
        idx, li = divmod(idx, sizes[k])
        letters.append(letter_from_index(li, ratios.ratio(k + 1)))
    if idx != 0:
        raise InvalidArgumentError(f"word index out of range at level {level}")
    letters.reverse()
    return tuple(letters)


def ancestor_index_stride(ratios: RatioSequence, level: int, ancestor_level: int) -> int:
    """Dividing a level word index by this gives its ancestor's index."""
    if not 0 <= ancestor_level <= level:
        raise LevelError(f"ancestor level {ancestor_level} not in [0, {level}]")
    return ratios.num_words(level) // ratios.num_words(ancestor_level)


def word_string(word: Word) -> str:
    """Compact textual form, e.g. 'c.11.32' (direction then step)."""
    if not word:
        return "-"
    return ".".join("c" if s.is_center else f"{s.direction}{s.step}" for s in word)
