"""Braid words, handle reduction, and the braid word problem.

A word in the Artin generators of the braid group on ``n`` strands is a
tuple of signed integers: ``+i`` encodes the generator ``s_i`` and
``-i`` its inverse, for ``1 <= i <= n - 1``.  Text form uses tokens
``s<i>`` and ``S<i>`` separated by whitespace, e.g. ``"s1 S2"``.  A braid
element's payload is such a tuple, free-reduced: ``free_reduce``
validates the letters and cancels adjacent inverse pairs, keeping the
input tuple itself when nothing cancels, and ``groups.GroupElement``
calls it once, when an element is built from outside.  Words made from
free-reduced words need no such check: ``concat`` cancels only at the
junction, and an inverse or a reduction result is assembled as it is.

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
trivial; ``main_sign`` reports that index and sign, which the Dehornoy
and Dubrovina-Dubrovin signs read.  Reduction results are memoized,
keyed by ``n`` and the input's letter tuple.

Equality and hashing use an exact key instead, ``fingerprint``: the
braid's Dynnikov coordinates, a vector of ``2n`` ints on which each
letter acts by a piecewise-linear map (Dynnikov, *Russian Math. Surveys*
57, 2002).  It needs no reduction, budget or memo, and it depends only
on the braid.  The maps are a group action, so ``act``, which applies
letters, also keys a product ``p * q`` from ``p``'s key and ``q``'s
letters alone, as the ball products in ``groups`` do.

``s_i`` touches only coordinate pairs i and i + 1, and a nontrivial
key first becomes nonzero at the pair of the main index, so the first
``2r`` entries vanish exactly on ``<s_{r+1}, ..., s_{n-1}>``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import sub

from .budgets import current_budget
from .errors import BudgetExceededError, UsageError

_TOKEN = re.compile(r"^([sS])([1-9][0-9]*)$")

# Reduction memo: (n, letters) of an input word -> its reduced letters,
# one entry per reduction.  Reducing a reduced word again rescans it,
# makes no rewrite and returns the tuple it was given.
_reduce_cache: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}


def clear_caches() -> None:
    _reduce_cache.clear()


def free_reduce(n: int, letters) -> tuple[int, ...]:
    """Check an iterable of letters on ``n`` strands and cancel adjacent
    inverse pairs; a tuple in which nothing cancels is returned itself."""
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
    if not cancels:
        return letters
    out: list[int] = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def concat(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    """The free-reduced product of two free-reduced words: only the
    junction cancels."""
    k, stop = 0, min(len(left), len(right))
    while k < stop and left[-1 - k] == -right[k]:
        k += 1
    return left[:len(left) - k] + right[k:]


def to_text(letters: tuple[int, ...]) -> str:
    return " ".join(f"s{l}" if l > 0 else f"S{-l}" for l in letters)


@dataclass(frozen=True)
class MainSignReport:
    """Lowest generator index of the reduced form and its constant sign.

    ``sign`` is 0 exactly when ``index`` is None exactly when the braid
    is trivial.
    """

    index: int | None
    sign: int


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


def handle_reduce(n: int, letters: tuple[int, ...]) -> tuple[int, ...]:
    """Reduce free-reduced letters to a handle-free word of the same
    braid in B_n.

    The lowest generator index of the result occurs with one sign only,
    and the result is empty exactly when the braid is trivial.

    ``last[i]`` is the latest scanned position of index ``i`` with no
    smaller index after it.  A rewrite pushes the new interior and the
    tail's junction onto the stack ``letters[:p]`` with cancellation; the scan
    resumes at ``low``, the shortest the stack got, with ``last`` rebuilt.
    """
    key = (n, letters)
    cached = _reduce_cache.get(key)
    if cached is not None:
        return cached
    limit = current_budget().handle_steps
    letters = list(letters)
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
        if steps > limit:
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
    result = tuple(letters) if steps else key[1]
    _reduce_cache[key] = result
    return result


def main_sign(n: int, letters: tuple[int, ...]) -> MainSignReport:
    """Lowest-index generator of the reduced form together with its sign."""
    letters = handle_reduce(n, letters)
    if not letters:
        return MainSignReport(None, 0)
    index, lowest = n, 0
    for letter in letters:  # the first letter of the lowest index
        if -index < letter < index:
            index, lowest = abs(letter), letter
    return MainSignReport(index, 1 if lowest > 0 else -1)


def braid_equal(n: int, u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """Word problem: true iff ``u`` and ``v`` represent the same braid."""
    return u == v or fingerprint(n, u) == fingerprint(n, v)


def fingerprint(n: int, letters: tuple[int, ...]) -> tuple[int, ...]:
    """Exact key: the braid's Dynnikov coordinates less the identity's
    ``(0,1, ..., 0,1)``, a flat ``2n``-tuple of ints, equal exactly for
    equal braids and all zeros for the identity; ``act`` applies the
    letters, as it does for product keys."""
    return act([0, 1] * n, letters)


def act(c: list[int], letters) -> tuple[int, ...]:
    """The key of ``b * w`` from the Dynnikov coordinates ``c`` of ``b``
    (a list, overwritten) and the letters of ``w``, which need not be
    free-reduced: the letters act left to right.  With p+ = max(p, 0)
    and p- = min(p, 0), ``s_i`` maps (x1, y1, x2, y2) = (a_i, b_i,
    a_{i+1}, b_{i+1}), with z = x1 - y1- - x2 + y2+, to
    (x1 + y1+ + (y2+ - z)+, y2 - z+, x2 + y2- + (y1- + z)-, y1 + z+);
    ``s_i^-1`` acts by the inverse map.  Locals and conditional
    expressions stand in for ``max`` and ``min``, whose calls cost
    several times as much.
    """
    for letter in letters:
        j = 2 * letter - 2 if letter > 0 else -2 * letter - 2
        x1, y1, x2, y2 = c[j], c[j + 1], c[j + 2], c[j + 3]
        y1m = y1 if y1 < 0 else 0
        y2p = y2 if y2 > 0 else 0
        if letter > 0:
            z = x1 - y1m - x2 + y2p
            zp = z if z > 0 else 0
            t, u = y2p - z, y1m + z
            c[j] = x1 + y1 - y1m + (t if t > 0 else 0)
            c[j + 1] = y2 - zp
            c[j + 2] = x2 + y2 - y2p + (u if u < 0 else 0)
            c[j + 3] = y1 + zp
        else:
            z = x1 + y1m - x2 - y2p
            zm = z if z < 0 else 0
            t, u = y2p + z, y1m - z
            c[j] = x1 - y1 + y1m - (t if t > 0 else 0)
            c[j + 1] = y2 + zm
            c[j + 2] = x2 - y2 + y2p - (u if u < 0 else 0)
            c[j + 3] = y1 - zm
    return tuple(map(sub, c, (0, 1) * (len(c) >> 1)))
