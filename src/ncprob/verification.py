"""Executable checks: the two freeness definitions, variance factorization,
and exact positivity of states.

Positivity has one route, the Gram of a ProductSpace; a single factor is
checked as ``ProductSpace([state])``.  The basis is the unit plus the
alternating tensor words of centered factor monomials, each its tuple of
(factor, word) slots, ordered by degree, number of slots, then each slot's
factor and word, whatever the factor means are.  The Gram entry phi(b_s*
b_t) is the state on the concatenated slots of the two words, which are the
state's own atoms, read off the free cumulants without multiplying the
words in the algebra.  By the paper's Lemma 3 the Gram is 1 plus one
block per factor pattern, each built from the factors' centered Grams; the
side check reads each slot's kappa_2 from three moments of its factor.
Positive semidefiniteness is decided over the rationals by pivoted LDL*
without square roots: eliminate each positive diagonal pivot in place,
updating only the entries its Schur complement changes, and on failure lift
the witness back through the pivots in reverse, so a failing matrix always
comes with a rational vector x with x* M x < 0.

Freeness checks run on a joint state: a ProductSpace or an
ExplicitJointState, which both have ``degree_bound``, ``factors`` (index ->
FactorState), ``factor_state`` and ``state_eval`` on a tuple of letters.
They run over centered generator monomials (moments mode) and generator
letter tuples (cumulants mode); multilinearity reduces the general case to
these, and that reduction is itself exercised by the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .cumulant_calculus import first_block_cumulant, letter_table
from .errors import FactorMismatchError, TruncationError, ValidationError
from .moment_space import (
    FactorState,
    GeneratorSymbol,
    Letter,
    Word,
    all_words,
    generator_letters,
    normalize_moments,
    star_word,
    word_text,
)
from .free_product import ProductSpace, Slots, slots_sort_key, slots_text, star_slots
from .scalar import ONE, ZERO, ComplexRational
from .value import Value


# -- joint states -----------------------------------------------------------


class ExplicitJointState:
    """A hand-given joint moment table (e.g. the non-free counterexamples).

    Moments must cover every word of degree <= degree_bound over all factor
    letters; star conjugates are filled in and conflicts rejected exactly as
    for factor states.  Like a ProductSpace it has ``degree_bound``,
    ``factors`` (the marginals, by restriction), ``factor_state`` and
    ``state_eval``.
    """

    def __init__(
        self,
        factor_generators: Mapping[str, Sequence[GeneratorSymbol]],
        degree_bound: int,
        moments: Mapping[Word, ComplexRational],
    ):
        if degree_bound < 1:
            raise ValidationError("degree bound must be >= 1")
        self.degree_bound = degree_bound
        letters = {
            index: generator_letters(index, tuple(gens))
            for index, gens in sorted(factor_generators.items())
        }
        all_letters = [l for ls in letters.values() for l in ls]
        self._moments = normalize_moments(
            dict(moments), all_letters, degree_bound, "joint state"
        )
        self.factors: dict[str, FactorState] = {}
        for index, ls in letters.items():
            marginal = {w: self._moments[w] for w in all_words(ls, degree_bound)}
            self.factors[index] = FactorState(
                index, degree_bound, factor_generators[index], marginal
            )

    def factor_state(self, index: str) -> FactorState:
        try:
            return self.factors[index]
        except KeyError:
            raise FactorMismatchError(f"unknown factor {index!r}") from None

    def state_eval(self, letters: Sequence[Letter]) -> ComplexRational:
        for arg in (letters := tuple(letters)):
            if not isinstance(arg, Letter):
                raise ValidationError(f"cannot interpret {arg!r} as a pure product argument")
        if len(letters) > self.degree_bound:
            raise TruncationError(
                f"word {word_text(letters)!r} exceeds degree bound {self.degree_bound}"
            )
        try:
            return self._moments[letters]
        except KeyError:
            raise ValidationError(
                f"word {word_text(letters)!r} is not over the joint state's generators"
            ) from None


JointState = ProductSpace | ExplicitJointState


# -- freeness reports --------------------------------------------------------


class FreenessReport(Value):
    __slots__ = ("mode", "max_degree", "checked_words", "violations")

    def __init__(self, mode: str, max_degree: int, checked_words: int,
                 violations: tuple[tuple[str, ComplexRational], ...]):
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "checked_words", checked_words)
        object.__setattr__(self, "violations", violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "max_degree": self.max_degree,
            "checked_words": self.checked_words,
            "violations": [
                {"word": word, "value": str(value)} for word, value in self.violations
            ],
        }


def _alternating_slot_sequences(joint: JointState, max_degree: int) -> Iterator[Slots]:
    """Alternating tuples of (factor, monomial) slots of total degree <= max."""
    indices = sorted(joint.factors)
    words_by_factor = {
        i: [w for w in all_words(joint.factors[i].letters(), max_degree) if w]
        for i in indices
    }

    def extend(slots: Slots, used: int) -> Iterator[Slots]:
        if slots:
            yield slots
        for index in indices:
            if slots and slots[-1][0] == index:
                continue
            for word in words_by_factor[index]:
                if used + len(word) > max_degree:
                    break  # all_words yields the shortest words first
                yield from extend(slots + ((index, word),), used + len(word))

    yield from extend((), 0)


def _check_target(target: object, max_degree: int) -> None:
    if not isinstance(target, JointState):
        raise ValidationError(f"cannot treat {target!r} as a joint state")
    if max_degree < 0:
        raise ValidationError("max degree must be >= 0")
    if max_degree > target.degree_bound:
        raise TruncationError(
            f"max degree {max_degree} exceeds bound {target.degree_bound}"
        )


def check_freeness_moments(target: JointState, max_degree: int) -> FreenessReport:
    """Definition by moments: phi of every alternating centered product is 0,
    each expanded with one memo per check of the shared sub-expansions."""
    _check_target(target, max_degree)
    violations, checked, memo = [], 0, {}
    for slots in _alternating_slot_sequences(target, max_degree):
        value = _phi_of_centered_product(target, slots, memo)
        checked += 1
        if value:
            violations.append((slots_text(slots), value))
    return FreenessReport("moments", max_degree, checked, tuple(violations))


def _phi_of_centered_product(joint: JointState, slots: Slots, memo: dict) -> ComplexRational:
    # phi of prod_j (w_j - m_j 1), m_j = phi_j(w_j), nested slot by slot:
    # F(j, p) = F(j + 1, p w_j) - m_j F(j + 1, p), F(k, p) = phi(p), the word
    # branch first; a mean branch runs only if m_j != 0, and adds if nonzero.
    # ``memo`` holds the finished F(j, p), keyed by p and the slots from j on.
    means = [joint.factor_state(index).phi_word(word) for index, word in slots]

    def nested(j: int, letters: tuple[Letter, ...]) -> ComplexRational:
        if j == len(slots):
            return joint.state_eval(letters)
        key = letters, slots[j:]
        value = memo.get(key)
        if value is None:
            value = nested(j + 1, letters + slots[j][1])
            rest = nested(j + 1, letters) if means[j] else ZERO
            value = memo[key] = value - means[j] * rest if rest else value
        return value

    return nested(0, ())


def check_freeness_cumulants(target: JointState, max_degree: int) -> FreenessReport:
    """Definition by cumulants: every mixed kappa_n vanishes, n <= max_degree.

    Each kappa_n is recomputed from the joint moments by the sparse walk of
    ``letter_table``: it fills every tuple below the max degree, pure ones
    too, and the mixed ones at it, and reports the mixed ones of each order.
    With two or more factors, a max degree past the enumeration cap is
    refused before any cumulant is computed.
    """
    _check_target(target, max_degree)
    kappas: dict[Word, ComplexRational] = {}
    if len(target.factors) > 1 and max_degree > 1:
        letters = [l for _, s in sorted(target.factors.items()) for l in s.letters()]
        kappas = letter_table(
            letters, max_degree, first_block_cumulant, target.state_eval,
            keep=lambda t: len({l.factor for l in t}) > 1,
        )
    violations = tuple((word_text(t), value) for t, value in kappas.items() if value)
    return FreenessReport("cumulants", max_degree, len(kappas), violations)


# -- variance factorization ---------------------------------------------------


def _factor_kappa2(state: FactorState, v: Word, w: Word) -> ComplexRational:
    # kappa_2(v°*, w°) = phi(v* w) - phi(v*) phi(w): kappa_2 is 0 on the unit,
    # so the means drop out and three moments of the factor's table remain.
    vs = star_word(v)
    return state.phi_word(vs + w) - state.phi_word(vs) * state.phi_word(w)


def variance_factorization(
    space: ProductSpace, a: Slots, b: Slots, kappa2s: dict
) -> ComplexRational:
    """kappa_2(a*, b) of two centered tensor words via the slotwise product
    formula, from their (factor, word) slots as ``centered_basis`` gives them.

    Zero unless the two words have the same factor pattern; otherwise the
    product over slots u of kappa_2(a_u°*, b_u°), each read from three moments
    of the factor.  ``kappa2s`` is the caller's memo of slot kappa_2 by
    (factor, a_u, b_u), read and filled.
    """
    if [f for f, _ in a] != [f for f, _ in b]:
        return ZERO
    total = ONE
    for (factor, v), (_, w) in zip(a, b):
        key = (factor, v, w)
        if key not in kappa2s:
            kappa2s[key] = _factor_kappa2(space.factor_state(factor), v, w)
        total = total * kappa2s[key]
        if total.is_zero():
            break
    return total


# -- exact positivity ---------------------------------------------------------


class GramMatrix(Value):
    """phi(basis_s* basis_t), validated Hermitian at construction.

    Every entry is evaluated on its own, so the check compares independent
    computations; product entries are phi of the atoms of basis_s* then basis_t.
    """

    __slots__ = ("labels", "entries")

    def __init__(self, labels: tuple[str, ...], entries: tuple[tuple[ComplexRational, ...], ...]):
        n = len(labels)
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValidationError("Gram matrix must be square over its basis")
        for s in range(n):
            for t in range(s, n):
                if entries[t][s] != entries[s][t].conjugate():
                    raise RuntimeError(
                        "internal error: Gram matrix is not Hermitian at "
                        f"({s},{t}): {entries[s][t]} vs {entries[t][s]}"
                    )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "entries", entries)

    @property
    def size(self) -> int:
        return len(self.labels)


def ldlt_psd(
    entries: Sequence[Sequence[ComplexRational]],
) -> tuple[bool, tuple[Fraction, ...], tuple[ComplexRational, ...] | None]:
    """Exact PSD decision by pivoted LDL* over the rationals.

    Returns (psd, pivots, witness); the witness x satisfies x* M x < 0.
    Eliminates in place, pivoting on the first positive active diagonal.  The
    Schur complement m_ab - m_ap m_pb / m_pp keeps m_ab where m_ap or m_pb is
    0, so a step touches only the rows and columns where the pivot's column
    and row are nonzero: on a product Gram, 1 plus one block per factor
    pattern, that is the pivot's own block, so elimination runs block by
    block without looking for blocks.  A witness is lifted in reverse.
    """
    mat = [list(row) for row in entries]
    n = len(mat)
    if not all(row[i].is_real() for i, row in enumerate(mat)):
        raise RuntimeError("internal error: non-real diagonal in LDL*")
    active = list(range(n))
    pivots: list[Fraction] = []
    # (pivot, the active columns where its row was nonzero), to lift a witness
    steps: list[tuple[int, list[int]]] = []
    while (pivot := next((i for i in active if mat[i][i].re > 0), None)) is not None:
        active.remove(pivot)
        d, prow = mat[pivot][pivot], mat[pivot]
        cols = [b for b in active if prow[b]]
        for a in active:
            row = mat[a]
            if not row[pivot]:
                continue
            scale = row[pivot] / d
            for b in cols:
                row[b] = row[b] - scale * prow[b]
            if not row[a].is_real():
                raise RuntimeError("internal error: non-real diagonal in LDL*")
        pivots.append(d.re)
        steps.append((pivot, cols))
    witness = [ZERO] * n
    negative = next((i for i in active if mat[i][i].re < 0), None)
    pairs = ((i, j) for k, i in enumerate(active) for j in active[k + 1 :] if mat[i][j])
    if negative is not None:
        witness[negative] = ONE
    elif (pair := next(pairs, None)) is not None:
        # zero diagonal but m_ij != 0: x = e_i - conj(m_ij) e_j
        # gives x* M x = -2 |m_ij|^2 < 0
        i, j = pair
        witness[i], witness[j] = ONE, -mat[i][j].conjugate()
    else:
        return True, tuple(pivots) + (Fraction(0),) * len(active), None
    for pivot, cols in reversed(steps):
        acc = ZERO
        for b in cols:
            acc = acc + mat[pivot][b] * witness[b]
        witness[pivot] = -(acc / mat[pivot][pivot])
    return False, (), tuple(witness)


class PositivityResult(Value):
    __slots__ = ("psd", "pivots", "witness", "gram", "schur_consistent")

    def __init__(self, psd: bool, pivots: tuple[Fraction, ...],
                 witness: tuple[ComplexRational, ...] | None, gram: GramMatrix,
                 schur_consistent: bool):
        object.__setattr__(self, "psd", psd)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "schur_consistent", schur_consistent)

    def to_json(self) -> dict:
        return {
            "psd": self.psd,
            "basis": list(self.gram.labels),
            "pivots": [str(p) for p in self.pivots],
            "witness": None
            if self.witness is None
            else [str(x) for x in self.witness],
            "schur_consistent": self.schur_consistent,
        }


def check_positivity(space: ProductSpace, basis_degree: int) -> PositivityResult:
    """Exact Gram-matrix PSD check of a product state up to basis_degree.

    The basis is the unit plus every alternating tensor word of centered
    factor monomials of degree <= basis_degree, in the order of
    ``centered_basis``, which the factor means do not change; entry (s, t)
    is the state on the concatenated slots of b_s* and b_t (``star_slots``
    of b_s, then b_t), which the state reads as its atoms, each slot w°,
    without multiplying the words.  A factor is checked as the one-factor
    space ``ProductSpace([state])``.  By the paper's Lemma 3 an entry
    between the unit and a word, or between words of different factor
    patterns, is exactly 0 (checked, like the Hermitian symmetry), so the
    Gram is 1 plus one block per pattern and ``ldlt_psd``, which skips zero
    rows, factors it block by block.  The Lemma-3 structure is verified on
    the side, from the factors' moment tables alone: on each family of
    same-pattern tensor words the kappa_2 Gram equals the entrywise product
    of the per-slot kappa_2 matrices, each slot entry phi(v* w) - phi(v*)
    phi(w) on the slots' words v and w.
    """
    if not isinstance(space, ProductSpace):
        raise ValidationError(f"cannot treat {space!r} as a product space")
    if basis_degree < 0:
        raise ValidationError("basis degree must be >= 0")
    if 2 * basis_degree > space.degree_bound:
        raise TruncationError(
            f"Gram at degree {basis_degree} needs moments up to "
            f"{2 * basis_degree} > bound {space.degree_bound}"
        )
    basis = centered_basis(space, basis_degree)
    left = [()] + [star_slots(slots) for slots in basis]
    right = [()] + basis
    labels = ("1",) + tuple(_basis_label(space, slots) for slots in basis)
    entries = tuple(tuple(space.state_eval(ls + rt) for rt in right) for ls in left)
    schur_ok = _lemma3_structure_holds(space, basis, labels, entries)
    gram = GramMatrix(labels, entries)
    psd, pivots, witness = ldlt_psd(gram.entries)
    return PositivityResult(psd, pivots, witness, gram, schur_ok)


def _basis_label(space: ProductSpace, slots: Slots) -> str:
    # Each slot as its centered polynomial, [(-m) 1 + (1) w]@f, or [(1) w]@f
    # when m = phi_f(w) is 0.
    parts = []
    for f, w in slots:
        m = space.factor_state(f).phi_word(w)
        mean = f"({-m}) 1 + " if m else ""
        parts.append(f"[{mean}(1) {word_text(w)}]@{f}")
    return " (x) ".join(parts)


def centered_basis(space: ProductSpace, max_degree: int) -> list[Slots]:
    """The (factor, monomial) slots of every alternating tensor word of
    centered factor monomials of degree <= max, in ``slots_sort_key`` order:
    degree, number of slots, then each slot's factor and word, so the factor
    means do not enter."""
    return sorted(_alternating_slot_sequences(space, max_degree), key=slots_sort_key)


def _lemma3_structure_holds(
    space: ProductSpace, slots: Sequence[Slots], labels, entries
) -> bool:
    # Index 0 is the unit, of empty pattern; index k is slots[k - 1].  In one
    # row-major pass an entry across patterns must be 0, else it is an internal
    # error, also after a kappa_2 mismatch.  Up to the first mismatch, within a
    # pattern kappa_2(b_s*, b_t) = phi(b_s* b_t) must factor over the slots (each
    # computed once): row s has met phi(b_s*), the entry (s, 0), as 0.
    patterns = [()] + [tuple(f for f, _ in ss) for ss in slots]
    kappa2s: dict = {}
    consistent = True
    for s, row in enumerate(entries):
        for t, entry in enumerate(row):
            if patterns[s] != patterns[t]:
                if entry:
                    raise RuntimeError(
                        f"internal error: Gram entry ({labels[s]}, {labels[t]}) "
                        f"across factor patterns is {entry}, not 0"
                    )
            elif s and consistent:
                consistent = entry == variance_factorization(
                    space, slots[s - 1], slots[t - 1], kappa2s
                )
    return consistent
