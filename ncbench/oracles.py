"""Exact oracles for the ncprob benchmark.

Everything here is plain ``fractions.Fraction`` arithmetic and never imports
``ncprob``, so an oracle cannot share a defect with the path it checks:

* Catalan numbers and a direct crossing test, for ``nc``;
* mu(0_n, pi) = prod over blocks V of (-1)^(|V|-1) C_(|V|-1), for ``moebius``;
* the single-variable moment-cumulant recursion, for ``cumulants``,
  ``moments`` and ``convolve``;
* the first-block recursion with monochromatic first blocks, for the state
  of a free product (``product-eval`` and the warm session);
* counts of alternating words, for the ``checked_words`` of ``verify``.

Complex scalars are pairs ``(re, im)`` of Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


# -- complex rationals --------------------------------------------------------


def cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def csub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def cconj(x):
    return (x[0], -x[1])


def cpow(x, k: int):
    out = ONE
    for _ in range(k):
        out = cmul(out, x)
    return out


def fmt(x) -> str:
    """The text form ncprob reads: ``"re"``, ``"re+im i"`` or ``"im i"``."""
    re, im = (x, Fraction(0)) if isinstance(x, (int, Fraction)) else x
    if not im:
        return str(Fraction(re))
    if not re:
        return f"{im} i"
    return f"{re}+{im} i" if im > 0 else f"{re}-{-im} i"


def parse(text: str):
    """Inverse of ``fmt``; raises ValueError on anything else."""
    s = text.strip()
    if not s.endswith(" i"):
        return (Fraction(s), Fraction(0))
    body = s[:-2]
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "/+-":
            return (Fraction(body[:k]), Fraction(body[k:]))
    return (Fraction(0), Fraction(body))


def bits(x) -> int:
    """Largest numerator or denominator bit length of a complex rational."""
    return max(
        max(abs(f.numerator).bit_length(), f.denominator.bit_length()) for f in x
    )


# -- the lattice NC(n) --------------------------------------------------------


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def parse_blocks(text: str) -> list[tuple[int, ...]]:
    """``"{1,3}{2}"`` -> [(1, 3), (2,)]."""
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a partition: {text!r}")
    return [tuple(int(t) for t in chunk.split(",")) for chunk in text[1:-1].split("}{")]


def is_partition_of(blocks, n: int) -> bool:
    elements = sorted(x for b in blocks for x in b)
    return elements == list(range(1, n + 1))


def is_noncrossing(blocks) -> bool:
    """No a < b < c < d with a, c in one block and b, d in another."""
    owner = {x: k for k, block in enumerate(blocks) for x in block}
    n = len(owner)
    # Scan left to right with a stack of open blocks: element x may only
    # continue the block on top of the stack (after closing finished ones).
    remaining = [len(b) for b in blocks]
    stack: list[int] = []
    for x in range(1, n + 1):
        k = owner[x]
        if stack and stack[-1] == k:
            pass
        elif k in stack:
            return False
        else:
            stack.append(k)
        remaining[k] -= 1
        if remaining[k] == 0:
            stack.pop()
    return True


def moebius_from_bottom(blocks) -> int:
    """mu(0_n, pi) = prod over blocks V of (-1)^(|V|-1) C_(|V|-1)."""
    out = 1
    for block in blocks:
        k = len(block)
        out *= (-1) ** (k - 1) * catalan(k - 1)
    return out


def nc_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All of NC(n), by a stack walk; small n only (used to pick inputs)."""
    out = []

    def walk(pos: int, blocks: list[list[int]], stack: list[int]) -> None:
        if pos > n:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for depth in range(len(stack)):
            k = stack[depth]
            blocks[k].append(pos)
            walk(pos + 1, blocks, stack[: depth + 1])
            blocks[k].pop()
        blocks.append([pos])
        walk(pos + 1, blocks, stack + [len(blocks) - 1])
        blocks.pop()

    walk(1, [], [])
    return out


# -- one variable: the moment-cumulant recursion -------------------------------


def _power_coefficients(moments, n: int) -> list[list]:
    """coef[s][j] = [z^j] M(z)^s for M(z) = 1 + sum m_k z^k, j <= n."""
    m = [ONE] + [tuple(v) for v in moments[:n]] + [ZERO] * max(0, n - len(moments))
    coef = [[ONE] + [ZERO] * n]
    for _ in range(n):
        prev = coef[-1]
        row = []
        for j in range(n + 1):
            acc = ZERO
            for i in range(j + 1):
                if prev[j - i] != ZERO and m[i] != ZERO:
                    acc = cadd(acc, cmul(prev[j - i], m[i]))
            row.append(acc)
        coef.append(row)
    return coef


def cumulants_from_moments(moments) -> list:
    """kappa_1..kappa_N from m_1..m_N, by m_n = sum_s kappa_s [z^(n-s)] M^s."""
    n = len(moments)
    coef = _power_coefficients(moments, n)
    kappas = []
    for k in range(1, n + 1):
        acc = tuple(moments[k - 1])
        for s in range(1, k):
            acc = csub(acc, cmul(kappas[s - 1], coef[s][k - s]))
        kappas.append(acc)
    return kappas


def moments_from_cumulants(kappas) -> list:
    """m_1..m_N from kappa_1..kappa_N by the same recursion, forwards."""
    moments: list = []
    for k in range(1, len(kappas) + 1):
        coef = _power_coefficients(moments + [ZERO], k)
        acc = ZERO
        for s in range(1, k + 1):
            acc = cadd(acc, cmul(tuple(kappas[s - 1]), coef[s][k - s]))
        moments.append(acc)
    return moments


def free_convolve(mx, my) -> list:
    kx = cumulants_from_moments(mx)
    ky = cumulants_from_moments(my)
    return moments_from_cumulants([cadd(a, b) for a, b in zip(kx, ky)])


def measure_moments(atoms, n: int) -> list:
    """m_1..m_n of sum_j w_j delta_(x_j) for real rational atoms (x_j, w_j)."""
    return [(sum(w * x**k for x, w in atoms), Fraction(0)) for k in range(1, n + 1)]


# -- the free product state ----------------------------------------------------


class ProductOracle:
    """phi on words of a free product, by the first-block recursion.

    ``moment(factor, letters)`` gives a factor's moment of a letter tuple.
    Expanding phi(a_1..a_n) over the block V containing 1, only blocks whose
    letters share a factor contribute (mixed cumulants vanish), the gaps
    between consecutive elements of V are evaluated recursively, and the
    factor cumulant kappa(a_V) comes from the same recursion inside the
    factor, solved for its top term.  Letters are ``(factor, name, starred)``.
    """

    def __init__(self, moment):
        self._moment = moment
        self.phi = lru_cache(maxsize=None)(self._phi)
        self.kappa = lru_cache(maxsize=None)(self._kappa)
        self.factor_phi = lru_cache(maxsize=None)(self._factor_phi)

    def _factor_phi(self, word: tuple) -> tuple:
        if not word:
            return ONE
        return self._moment(word[0][0], word)

    def _expand(self, word: tuple, positions: list[int], phi, skip_full: bool):
        """sum over V = {0} + subsets of positions of kappa(w_V) * prod phi(gaps)."""
        n = len(word)
        total = ZERO
        rest = positions
        for mask in range(1 << len(rest)):
            chosen = [0] + [p for k, p in enumerate(rest) if mask >> k & 1]
            if skip_full and len(chosen) == n:
                continue
            term = self.kappa(tuple(word[p] for p in chosen))
            if term == ZERO:
                continue
            bounds = chosen + [n]
            for left, right in zip(bounds, bounds[1:]):
                term = cmul(term, phi(word[left + 1 : right]))
                if term == ZERO:
                    break
            total = cadd(total, term)
        return total

    def _kappa(self, word: tuple) -> tuple:
        # phi_factor(w) = kappa(w) + sum over V != all, V containing 1.
        positions = list(range(1, len(word)))
        rest = self._expand(word, positions, self.factor_phi, skip_full=True)
        return csub(self.factor_phi(word), rest)

    def _phi(self, word: tuple) -> tuple:
        if not word:
            return ONE
        same = [p for p in range(1, len(word)) if word[p][0] == word[0][0]]
        return self._expand(word, same, self.phi, skip_full=False)


def measure_moment_fn(factors: dict):
    """A ``moment`` callback for ProductOracle over the benchmark's factor kinds.

    ``factors[index]`` is ``("real", atoms)`` with real atoms (x, w), or
    ``("normal", atoms)`` with complex atoms (z, w) of a normal element.
    """

    def moment(index: str, word: tuple) -> tuple:
        kind, atoms = factors[index]
        if kind == "real":
            k = len(word)
            return (sum(w * x**k for x, w in atoms), Fraction(0))
        p = sum(1 for _, _, starred in word if not starred)
        q = len(word) - p
        total = ZERO
        for z, w in atoms:
            total = cadd(total, cmul((w, Fraction(0)), cmul(cpow(z, p), cpow(cconj(z), q))))
        return total

    return moment


# -- verify counts ---------------------------------------------------------------


def alternating_count(letter_counts: list[int], max_degree: int) -> int:
    """Alternating tuples of factor monomials of total degree 1..max_degree.

    A slot is a monomial of degree d >= 1 over one factor's L letters (L^d
    of them); adjacent slots come from different factors.
    """
    k = len(letter_counts)
    # ways[d][i] = sequences of total degree d whose last slot is factor i.
    ways = [[0] * k for _ in range(max_degree + 1)]
    for d in range(1, max_degree + 1):
        for i, letters in enumerate(letter_counts):
            total = 0
            for last in range(1, d + 1):
                before = 1 if d == last else sum(
                    ways[d - last][j] for j in range(k) if j != i
                )
                total += letters**last * before
            ways[d][i] = total
    return sum(sum(row) for row in ways)


def mixed_tuple_count(letter_counts: list[int], max_degree: int) -> int:
    """Letter tuples of length 2..max_degree that touch at least two factors."""
    total_letters = sum(letter_counts)
    return sum(
        total_letters**n - sum(c**n for c in letter_counts)
        for n in range(2, max_degree + 1)
    )
