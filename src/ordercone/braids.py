"""Braid words, handle reduction, and the braid word problem.

A word in the Artin generators of the braid group on ``n`` strands is a
tuple of signed integers: ``+i`` encodes the generator ``s_i`` and
``-i`` its inverse, for ``1 <= i <= n - 1``.  Text form uses tokens
``s<i>`` and ``S<i>`` separated by whitespace, e.g. ``"s1 S2"``.  A
``BraidWord`` is canonical at construction: the public constructor
validates its letters and cancels adjacent inverse pairs, keeping the
input tuple itself when nothing cancels, so every word is free-reduced.
Words made from canonical words skip those checks through the private
``_canonical``: a product cancels only at its junction, and an inverse
or a reduction result is assembled as it is.

The reduction engine rewrites *handles*: a handle is a subword
``s_i^e  u  s_i^{-e}`` whose interior ``u`` only mentions indices above
``i``.  Rewriting replaces every interior letter ``s_{i+1}^d`` by
``s_{i+1}^{-e} s_i^d s_{i+1}^{e}``, keeps letters of index ``>= i + 2``,
and drops the outer pair.  We always rewrite the handle that *closes
earliest* in the word; that handle cannot contain a nested handle, so
the rewrite is permitted and the known termination argument applies.  The
current budget's ``handle_steps`` caps the rewrites regardless, and
running out raises instead of returning a non-reduced word.  After a
rewrite only the junction is free-reduced again, and the scan resumes
where the word first changed: the prefix before it holds no handle (one
would have closed earlier), so every rewrite and result is the one a
rescan from the start would give.

A reduced (handle-free) word has its lowest occurring generator index
appearing with a single sign, and a nonempty reduced word is never
trivial; the Dehornoy and Dubrovina-Dubrovin signs read it.  Reduction
results are memoized as words, keyed by the input's letter tuple.

Equality and hashing use an exact key instead, ``fingerprint``: the
Garside left normal form (Epstein et al., *Word Processing in Groups*,
ch. 9), with each simple factor stored as the lexicographic rank of its
permutation.  The ranks, the letters' simples, tau-flips and left-weighted
pairs sit in one lazily filled table per ``n``; a rank depends only on
the braid, so keys do not depend on what the memos held.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import factorial

from .budgets import current_budget
from .errors import BudgetExceededError, ContextMismatchError, UsageError

_TOKEN = re.compile(r"^([sS])([1-9][0-9]*)$")

# Reduction memo: (n, letters) of a word and of its result -> the result.
_reduce_cache: dict[tuple[int, tuple[int, ...]], "BraidWord"] = {}

# Normal-form memos: the simples of B_n, by n.
_tables: dict[int, _Simples] = {}


def clear_caches() -> None:
    _reduce_cache.clear()
    _tables.clear()


@dataclass(frozen=True, slots=True)
class BraidWord:
    """A word in the Artin generators of the braid group on ``n`` strands.

    Slotted: every braid element and the reduction memo hold words."""

    n: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        n, letters = self.n, self.letters
        if n < 2:
            raise UsageError(f"braid group needs n >= 2 strands, got {n}")
        if not isinstance(letters, tuple):
            if isinstance(letters, str) or not hasattr(letters, "__iter__"):
                raise UsageError(f"braid letters {letters!r} are not an "
                                 "iterable of integers")
            letters = tuple(letters)
        cancels, previous = False, 0
        for letter in letters:
            if type(letter) is not int or not 0 < abs(letter) < n:
                raise UsageError(f"letter {letter} out of range for {n} strands")
            if letter == -previous:
                cancels = True
            previous = letter
        if cancels:  # free-reduce: cancel adjacent inverse pairs
            out: list[int] = []
            for letter in letters:
                if out and out[-1] == -letter:
                    out.pop()
                else:
                    out.append(letter)
            letters = tuple(out)
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _canonical(cls, n: int, letters: tuple[int, ...]) -> "BraidWord":
        """The word of valid, free-reduced letters, built unchecked."""
        word = object.__new__(cls)
        object.__setattr__(word, "n", n)
        object.__setattr__(word, "letters", letters)
        return word

    @classmethod
    def from_text(cls, n: int, text: str) -> "BraidWord":
        return cls(n, parse_letters(text))

    def to_text(self) -> str:
        return " ".join(f"s{l}" if l > 0 else f"S{-l}" for l in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.n != other.n:
            raise ContextMismatchError("incompatible groups")
        left, right = self.letters, other.letters
        k, stop = 0, min(len(left), len(right))
        while k < stop and left[-1 - k] == -right[k]:
            k += 1
        return self._canonical(self.n, left[:len(left) - k] + right[k:])

    def inverse(self) -> "BraidWord":
        return self._canonical(self.n, tuple([-l for l in self.letters[::-1]]))

    def __repr__(self) -> str:
        return f"BraidWord({self.n}, {self.to_text()!r})"


@dataclass(frozen=True)
class MainSignReport:
    """Lowest generator index of the reduced form and its constant sign.

    ``sign`` is 0 exactly when ``index`` is None exactly when ``reduced``
    is the empty word (the braid is trivial).
    """

    index: int | None
    sign: int
    reduced: BraidWord


def parse_letters(text: str) -> tuple[int, ...]:
    """Parse whitespace-separated ``s<i>`` / ``S<i>`` tokens."""
    letters = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise UsageError(f"bad braid token {token!r} (expected s<i> or S<i>)")
        idx = int(m.group(2))
        letters.append(idx if m.group(1) == "s" else -idx)
    return tuple(letters)


def handle_reduce(word: BraidWord) -> BraidWord:
    """Reduce to a handle-free word equal to ``word`` in B_n.

    The lowest generator index of the result occurs with one sign only,
    and the result is empty exactly when the braid is trivial.

    ``last[i]`` is the latest scanned position of index ``i`` with no
    smaller index after it.  A rewrite pushes the new interior and the
    tail's junction onto the stack ``letters[:p]`` with cancellation; the scan
    resumes at ``low``, the shortest the stack got, with ``last`` rebuilt.
    """
    n = word.n
    key = (n, word.letters)
    cached = _reduce_cache.get(key)
    if cached is not None:
        return cached
    limit = 0  # the budget is read at the first rewrite
    letters = list(word.letters)
    unset: list[int | None] = [None] * n
    last = unset[:]
    q = steps = 0
    while q < len(letters):
        letter = letters[q]
        i = abs(letter)
        last[i + 1:] = unset[i + 1:]
        p = last[i]
        if p is None or letters[p] != -letter:
            last[i] = q
            q += 1
            continue
        steps += 1
        if steps > (limit := limit or current_budget().handle_steps):
            raise BudgetExceededError(
                f"reduction budget exceeded after {limit} steps")
        e = -1 if letter > 0 else 1  # the opener is s_i^e
        replacement: list[int] = []
        for x in letters[p + 1:q]:
            if abs(x) == i + 1:
                d = 1 if x > 0 else -1
                replacement.extend((-e * (i + 1), d * i, e * (i + 1)))
            else:
                replacement.append(x)
        tail = letters[q + 1:]
        del letters[p:]
        low = p
        for x in replacement:
            if letters and letters[-1] == -x:
                letters.pop()
                low = min(low, len(letters))
            else:
                letters.append(x)
        k = 0  # the tail is free-reduced: only its junction can cancel
        while k < len(tail) and letters and letters[-1] == -tail[k]:
            letters.pop()
            k += 1
        low = min(low, len(letters))
        letters += tail[k:]
        last = unset[:]
        lowest = n
        for k in range(low - 1, -1, -1):
            i = abs(letters[k])
            if i < lowest:
                last[i], lowest = k, i
                if i == 1:
                    break
        q = low
    result = BraidWord._canonical(n, tuple(letters)) if steps else word
    _reduce_cache[key] = result
    _reduce_cache[(n, result.letters)] = result
    return result


def main_sign(word: BraidWord) -> MainSignReport:
    """Lowest-index generator of the reduced form together with its sign."""
    reduced = handle_reduce(word)
    if not reduced.letters:
        return MainSignReport(None, 0, reduced)
    index, lowest = word.n, 0
    for letter in reduced.letters:  # the first letter of the lowest index
        if -index < letter < index:
            index, lowest = abs(letter), letter
    return MainSignReport(index, 1 if lowest > 0 else -1, reduced)


def braid_equal(u: BraidWord, v: BraidWord) -> bool:
    """Word problem: true iff ``u`` and ``v`` represent the same braid."""
    if u.n != v.n:
        raise ContextMismatchError("incompatible groups")
    return u.letters == v.letters or fingerprint(u) == fingerprint(v)


def shift_embed(r: int, word: BraidWord, n: int) -> BraidWord:
    """Embed by sending every generator index i to i + r, landing in B_n."""
    if r < 0:
        raise UsageError("shift amount must be nonnegative")
    shifted = tuple((abs(l) + r) * (1 if l > 0 else -1) for l in word.letters)
    if any(abs(l) > n - 1 for l in shifted):
        raise UsageError(f"shifted index exceeds {n - 1} (index overflow)")
    return BraidWord(n, shifted)


class _Simples:
    """The simples of B_n, each named by the lexicographic rank of its
    permutation (identity 0, Delta n! - 1), with lazily filled memos.

    ``perm`` and ``rank`` translate between a rank and its strand labels
    by position; ``letter[parity][l]`` is the simple of letter ``l`` at
    that parity of the Delta power; ``flip`` holds tau-flips, and
    ``weighted`` left-weighted pairs keyed ``(a << shift) | b``.
    """

    def __init__(self, n: int) -> None:
        self.n, self.delta = n, factorial(n) - 1
        self.shift = self.delta.bit_length()
        self.perm: dict[int, tuple[int, ...]] = {}
        self.rank: dict[tuple[int, ...], int] = {}
        self.flip: dict[int, int] = {}
        self.weighted: dict[int, tuple[int, int]] = {}
        identity, delta = tuple(range(n)), tuple(range(n - 1, -1, -1))
        self.letter = ({}, {})
        for parity, table in enumerate(self.letter):
            for i in range(1, n):
                j = i - 1 if parity == 0 else n - 1 - i
                for letter, base in ((i, identity), (-i, delta)):
                    # s_j, or Delta s_j^{-1}: swap positions j, j + 1
                    table[letter] = self.intern(
                        base[:j] + (base[j + 1], base[j]) + base[j + 2:])

    def intern(self, perm: tuple[int, ...]) -> int:
        """The rank of ``perm``, by its Lehmer code, recorded both ways."""
        rank = self.rank.get(perm)
        if rank is None:
            rank = 0
            for k, v in enumerate(perm):
                rank = rank * (self.n - k) + sum(u < v for u in perm[k + 1:])
            self.rank[perm], self.perm[rank] = rank, perm
        return rank

    def tau(self, a: int) -> int:
        """The rank of the tau-flip of ``a``: s_i -> s_{n-i}."""
        flipped = self.flip.get(a)
        if flipped is None:
            n = self.n
            flipped = self.flip[a] = self.intern(
                tuple(n - 1 - v for v in reversed(self.perm[a])))
        return flipped

    def left_weight(self, a: int, b: int) -> tuple[int, int]:
        """Simples (a', b') with a' b' = a b, left-weighted: while some s_j
        starts b (value j + 1 before j) but does not finish a (a[j] < a[j+1]),
        move it over: swap positions j, j + 1 of a and values j, j + 1 of b.
        Memoized in ``weighted``."""
        x, y = list(self.perm[a]), list(self.perm[b])
        where = sorted(range(len(y)), key=y.__getitem__)  # value -> position
        j = 0
        while j < len(x) - 1:
            if x[j] < x[j + 1] and where[j] > where[j + 1]:
                x[j], x[j + 1] = x[j + 1], x[j]
                y[where[j]], y[where[j + 1]] = j + 1, j
                where[j], where[j + 1] = where[j + 1], where[j]
                j = max(j - 1, 0)
            else:
                j += 1
        pair = self.weighted[(a << self.shift) | b] = (
            self.intern(tuple(x)), self.intern(tuple(y)))
        return pair


def fingerprint(word: BraidWord) -> tuple[int, tuple[int, ...]]:
    """Exact key ``(p, (A_1, ..., A_r))`` of the left normal form
    Delta^p A_1 ... A_r: equal exactly when the braids are equal.

    A simple is stored as the lexicographic rank of its permutation (its
    strand labels by position), a pure function of the braid: keys do not
    depend on what the memos held, so they stay valid across
    ``clear_caches``.  ``s_i^{-1}`` is Delta^{-1} (Delta s_i^{-1}), and
    moving Delta^{-1} to the front flips the simples it passes by tau:
    s_i -> s_{n-i}; factors are kept flipped by tau^p and restored at the
    end.  Each new simple is left-weighted against its predecessors from
    the right, up to the first pair that does not change.
    """
    n = word.n
    table = _tables.get(n)
    if table is None:
        table = _tables[n] = _Simples(n)
    of_letter, weighted = table.letter, table.weighted.get
    shift = table.shift
    p, factors = 0, []
    for letter in word.letters:
        p -= letter < 0
        b = of_letter[p & 1][letter]
        k = len(factors)
        factors.append(b)
        while k:  # left-weight b against the factors before it
            a = factors[k - 1]
            a2, b2 = weighted((a << shift) | b) or table.left_weight(a, b)
            if a2 == a:
                break
            factors[k], b, k = b2, a2, k - 1
        factors[k] = b
        if not factors[-1]:  # the identity
            factors.pop()
    if p & 1:
        factors = [table.tau(a) for a in factors]
    lead = factors.count(table.delta)  # Delta factors only lead a normal form
    return p + lead, tuple(factors[lead:])
