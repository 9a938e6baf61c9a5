"""Executable checks: the two freeness definitions, their equivalence,
variance factorization, and exact positivity of states.

Positive semidefiniteness is decided over the rationals by pivoted LDL*
without square roots: split off a positive diagonal pivot, recurse on the
Schur complement, and on failure lift the inner witness back, so a failing
matrix always comes with a rational vector x with x* M x < 0.  On a free
product the Gram entry phi(b_s* b_t) is the state on the concatenated atoms
of the two tensor words, read off the free cumulants without multiplying the
words in the algebra.

Freeness checks run over centered generator monomials (moments mode) and
generator letter tuples (cumulants mode); multilinearity reduces the general
case to these, and that reduction is itself exercised by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Iterator, Mapping, Sequence

from .cumulant_calculus import first_block_cumulant
from .errors import TruncationError, ValidationError
from .moment_space import (
    FactorState,
    GeneratorSymbol,
    Letter,
    Polynomial,
    Word,
    all_words,
    canonical_moment_key,
    generator_letters,
    normalize_moments,
)
from .free_product import FreeElement, ProductSpace, TensorWord
from .scalar import ONE, ZERO, ComplexRational


# -- joint states -----------------------------------------------------------


class JointState:
    """A moment functional over words whose letters may span several factors."""

    degree_bound: int

    def factor_indices(self) -> tuple[str, ...]:
        raise NotImplementedError

    def factor_state(self, index: str) -> FactorState:
        raise NotImplementedError

    def factor_letters(self, index: str) -> tuple[Letter, ...]:
        return self.factor_state(index).letters()

    def phi_word(self, letters: tuple[Letter, ...]) -> ComplexRational:
        raise NotImplementedError


class ProductStateView(JointState):
    """The constructed free-product state, seen as a joint state."""

    def __init__(self, space: ProductSpace):
        self.space = space
        self.degree_bound = space.degree_bound

    def factor_indices(self) -> tuple[str, ...]:
        return tuple(sorted(self.space.factors))

    def factor_state(self, index: str) -> FactorState:
        return self.space.factor_state(index)

    def phi_word(self, letters: tuple[Letter, ...]) -> ComplexRational:
        if not letters:
            return ONE
        return self.space.state_eval(letters)


class ExplicitJointState(JointState):
    """A hand-given joint moment table (e.g. the non-free counterexamples).

    Moments must cover every word of degree <= degree_bound over all factor
    letters; star conjugates are filled in and conflicts rejected exactly as
    for factor states.  Marginals are derived by restriction.
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
        self._generators = {
            index: tuple(gens) for index, gens in sorted(factor_generators.items())
        }
        self._letters = tuple(
            letter
            for index, gens in self._generators.items()
            for letter in generator_letters(index, gens)
        )
        self._moments = normalize_moments(
            dict(moments), self._letters, degree_bound, "joint state"
        )
        self._marginals: dict[str, FactorState] = {}

    def factor_indices(self) -> tuple[str, ...]:
        return tuple(self._generators)

    def factor_state(self, index: str) -> FactorState:
        cached = self._marginals.get(index)
        if cached is not None:
            return cached
        gens = self._generators[index]
        letters = [l for l in self._letters if l.factor == index]
        marginal = {
            w: self.phi_word(w.letters)
            for w in all_words(letters, self.degree_bound)
            if w.degree > 0
        }
        state = FactorState(index, self.degree_bound, gens, marginal)
        self._marginals[index] = state
        return state

    def phi_word(self, letters: tuple[Letter, ...]) -> ComplexRational:
        word = Word(tuple(letters))
        if word.degree > self.degree_bound:
            raise TruncationError(
                f"word {word.text()!r} exceeds degree bound {self.degree_bound}",
                word=word.text(),
            )
        key, conjugated = canonical_moment_key(word)
        value = self._moments[key]
        return value.conjugate() if conjugated else value


def as_joint_state(target: ProductSpace | JointState) -> JointState:
    if isinstance(target, ProductSpace):
        return ProductStateView(target)
    if isinstance(target, JointState):
        return target
    raise ValidationError(f"cannot treat {target!r} as a joint state")


# -- freeness reports --------------------------------------------------------


@dataclass(frozen=True)
class FreenessReport:
    mode: str
    max_degree: int
    checked_words: int
    violations: tuple[tuple[str, ComplexRational], ...]

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


def _alternating_slot_sequences(
    joint: JointState, max_degree: int
) -> Iterator[tuple[tuple[str, Word], ...]]:
    """Alternating tuples of (factor, monomial) slots of total degree <= max."""
    indices = joint.factor_indices()
    words_by_factor = {
        i: {
            d: [w for w in all_words(joint.factor_letters(i), d) if w.degree == d]
            for d in range(1, max_degree + 1)
        }
        for i in indices
    }

    def extend(
        slots: tuple[tuple[str, Word], ...], used: int
    ) -> Iterator[tuple[tuple[str, Word], ...]]:
        if slots:
            yield slots
        for index in indices:
            if slots and slots[-1][0] == index:
                continue
            for degree in range(1, max_degree - used + 1):
                for word in words_by_factor[index][degree]:
                    yield from extend(slots + ((index, word),), used + degree)

    yield from extend((), 0)


def _check_max_degree(joint: JointState, max_degree: int) -> None:
    if max_degree < 0:
        raise ValidationError("max degree must be >= 0")
    if max_degree > joint.degree_bound:
        raise TruncationError(
            f"max degree {max_degree} exceeds bound {joint.degree_bound}"
        )


def check_freeness_moments(
    target: ProductSpace | JointState, max_degree: int
) -> FreenessReport:
    """Definition by moments: phi of every alternating centered product is 0."""
    joint = as_joint_state(target)
    _check_max_degree(joint, max_degree)
    violations = []
    checked = 0
    for slots in _alternating_slot_sequences(joint, max_degree):
        value = _phi_of_centered_product(joint, slots)
        checked += 1
        if value:
            text = " ".join(f"({w.text()})°" for _, w in slots)
            violations.append((text, value))
    return FreenessReport("moments", max_degree, checked, tuple(violations))


def _phi_of_centered_product(
    joint: JointState, slots: Sequence[tuple[str, Word]]
) -> ComplexRational:
    # Expand prod_j (w_j - phi_j(w_j) 1) into joint words and evaluate.
    expansions = []
    for index, word in slots:
        mean = joint.factor_state(index).phi_word(word)
        expansions.append(((ONE, word.letters), (-mean, ())))
    total = ZERO
    for combo in iter_product(*expansions):
        coeff = ONE
        letters: tuple[Letter, ...] = ()
        for c, ls in combo:
            coeff = coeff * c
            letters = letters + ls
        if coeff:
            total = total + coeff * joint.phi_word(letters)
    return total


def joint_kappa(joint: JointState, letters: Sequence[Letter]) -> ComplexRational:
    """kappa_n recomputed from the joint moments by the first-block recursion."""
    return first_block_cumulant(letters, joint.phi_word, {})


def check_freeness_cumulants(
    target: ProductSpace | JointState, max_degree: int
) -> FreenessReport:
    """Definition by cumulants: every mixed kappa_n vanishes, n <= max_degree.

    Each kappa_n is ``joint_kappa``'s, with one kernel memo for the whole
    check, so a sub-tuple shared by many letter tuples is computed once.
    """
    joint = as_joint_state(target)
    _check_max_degree(joint, max_degree)
    letters = [
        l for index in joint.factor_indices() for l in joint.factor_letters(index)
    ]
    kappas: dict[tuple[Letter, ...], ComplexRational] = {}
    violations = []
    checked = 0
    for n in range(2, max_degree + 1):
        for tup in iter_product(letters, repeat=n):
            if len({l.factor for l in tup}) < 2:
                continue
            checked += 1
            value = first_block_cumulant(tup, joint.phi_word, kappas)
            if value:
                violations.append((" ".join(l.text() for l in tup), value))
    return FreenessReport("cumulants", max_degree, checked, tuple(violations))


def check_equivalence(
    target: ProductSpace | JointState, max_degree: int
) -> bool:
    """Do the moment and cumulant freeness checks agree on this state?"""
    by_moments = check_freeness_moments(target, max_degree)
    by_cumulants = check_freeness_cumulants(target, max_degree)
    return by_moments.ok == by_cumulants.ok


# -- variance factorization ---------------------------------------------------


def _factor_kappa2(
    state: FactorState, left: Polynomial, right: Polynomial
) -> ComplexRational:
    # kappa_2(x, y) = phi(xy) - phi(x) phi(y), from the factor's moments;
    # kappa_elements, which it is checked against, reads the product state.
    return state.phi_poly(left * right) - state.phi_poly(left) * state.phi_poly(right)


def variance_factorization(
    space: ProductSpace, a: TensorWord, b: TensorWord
) -> ComplexRational:
    """kappa_2(a*, b) via the slotwise product formula.

    Zero unless the two words have equal length and identical factor
    patterns; otherwise the product over slots u of kappa_2(a_u*, b_u).
    """
    pattern_a = tuple(f for f, _ in a.components)
    pattern_b = tuple(f for f, _ in b.components)
    if pattern_a != pattern_b:
        return ZERO
    total = ONE
    for (factor, pa), (_, pb) in zip(a.components, b.components):
        state = space.factor_state(factor)
        total = total * _factor_kappa2(state, pa.star(), pb)
        if total.is_zero():
            break
    return total


# -- exact positivity ---------------------------------------------------------


@dataclass(frozen=True)
class GramMatrix:
    """phi(basis_s* basis_t), validated Hermitian at construction.

    Every entry is evaluated on its own, so the check compares independent
    computations; product entries are phi of the atoms of basis_s* then basis_t.
    """

    labels: tuple[str, ...]
    entries: tuple[tuple[ComplexRational, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ValidationError("Gram matrix must be square over its basis")
        for s in range(n):
            for t in range(s, n):
                if self.entries[t][s] != self.entries[s][t].conjugate():
                    raise RuntimeError(
                        "internal error: Gram matrix is not Hermitian at "
                        f"({s},{t}): {self.entries[s][t]} vs {self.entries[t][s]}"
                    )

    @property
    def size(self) -> int:
        return len(self.labels)


def ldlt_psd(
    entries: Sequence[Sequence[ComplexRational]],
) -> tuple[bool, tuple[Fraction, ...], tuple[ComplexRational, ...] | None]:
    """Exact PSD decision by pivoted LDL* over the rationals.

    Returns (psd, pivots, witness); the witness x satisfies x* M x < 0.
    """
    mat = [list(row) for row in entries]
    n = len(mat)
    for i in range(n):
        if not mat[i][i].is_real():
            raise RuntimeError("internal error: non-real diagonal in LDL*")
    pivot = next((i for i in range(n) if mat[i][i].re > 0), None)
    if pivot is None:
        negative = next((i for i in range(n) if mat[i][i].re < 0), None)
        if negative is not None:
            witness = [ZERO] * n
            witness[negative] = ONE
            return False, (), tuple(witness)
        for i in range(n):
            for j in range(i + 1, n):
                if mat[i][j]:
                    # zero diagonal but m_ij != 0: x = e_i - conj(m_ij) e_j
                    # gives x* M x = -2 |m_ij|^2 < 0
                    witness = [ZERO] * n
                    witness[i] = ONE
                    witness[j] = -mat[i][j].conjugate()
                    return False, (), tuple(witness)
        return True, (Fraction(0),) * n, None
    d = mat[pivot][pivot]
    rest = [i for i in range(n) if i != pivot]
    sub = []
    for a in rest:
        scale = mat[a][pivot] / d
        sub.append([mat[a][b] - scale * mat[pivot][b] for b in rest])
    psd, pivots, sub_witness = ldlt_psd(sub)
    if psd:
        return True, (d.re,) + pivots, None
    witness = [ZERO] * n
    acc = ZERO
    for k, b in enumerate(rest):
        witness[b] = sub_witness[k]
        acc = acc + mat[pivot][b] * sub_witness[k]
    witness[pivot] = -(acc / d)
    return False, (), tuple(witness)


@dataclass(frozen=True)
class PositivityResult:
    psd: bool
    pivots: tuple[Fraction, ...]
    witness: tuple[ComplexRational, ...] | None
    gram: GramMatrix
    schur_consistent: bool | None

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


def check_positivity(
    target: ProductSpace | FactorState, basis_degree: int
) -> PositivityResult:
    """Exact Gram-matrix PSD check over all words of degree <= basis_degree.

    For a product space the basis is the unit plus every alternating tensor
    word of centered factor monomials; entry (s, t) is the state on the
    concatenated atoms of b_s* and b_t, which the state evaluates without
    multiplying the words.  The Lemma-3 structure is verified on the
    side: on each family of same-pattern tensor words the kappa_2 Gram equals
    the entrywise product of the per-slot kappa_2 matrices.
    """
    if basis_degree < 0:
        raise ValidationError("basis degree must be >= 0")
    if 2 * basis_degree > target.degree_bound:
        raise TruncationError(
            f"Gram at degree {basis_degree} needs moments up to "
            f"{2 * basis_degree} > bound {target.degree_bound}"
        )
    if isinstance(target, FactorState):
        basis = sorted(
            all_words(target.letters(), basis_degree), key=Word.sort_key
        )
        labels = tuple(w.text() for w in basis)
        entries = tuple(
            tuple(target.phi_word(ws.star() * wt) for wt in basis) for ws in basis
        )
        schur_ok = None
    else:
        words = centered_word_basis(target, basis_degree)
        labels = ("1",) + tuple(w.text() for w in words)
        left = [()] + [w.star().components for w in words]
        right = [()] + [w.components for w in words]
        entries = tuple(
            tuple(target.state_eval(ls + rt) for rt in right) for ls in left
        )
        schur_ok = _schur_structure_holds(target, words)
    gram = GramMatrix(labels, entries)
    psd, pivots, witness = ldlt_psd(gram.entries)
    return PositivityResult(psd, pivots, witness, gram, schur_ok)


def centered_word_basis(space: ProductSpace, max_degree: int) -> list[TensorWord]:
    """Alternating tensor words of centered factor monomials, degree <= max."""
    out = [
        TensorWord(
            tuple(
                (index, space.centered_word(index, word)) for index, word in slots
            )
        )
        for slots in _alternating_slot_sequences(ProductStateView(space), max_degree)
    ]
    out.sort(key=TensorWord.sort_key)
    return out


def _schur_structure_holds(space: ProductSpace, words: Sequence[TensorWord]) -> bool:
    by_pattern: dict[tuple[str, ...], list[TensorWord]] = {}
    for w in words:
        by_pattern.setdefault(tuple(f for f, _ in w.components), []).append(w)
    for family in by_pattern.values():
        for ws in family:
            for wt in family:
                actual = space.kappa_elements(
                    [FreeElement.from_word(ws).star(), FreeElement.from_word(wt)]
                )
                if actual != variance_factorization(space, ws, wt):
                    return False
    return True
