"""Seeded inputs for the ncprob benchmark.

``make(workload, seed)`` returns the files to write, the op list, and the
input properties the workload's cost depends on.  The same seed always gives
the same inputs.  The structure of each op list (which subcommands, which
sizes) is fixed; the seed chooses the measures, partitions, words and query
streams, so runs on different seeds do comparable work.

Factors are moment functionals of discrete measures with rational atoms:

* ``int``: k atoms, weight 1/k each, all congruent mod k, so every moment
  is an integer;
* ``rat``: atoms p/q with q = 2, 3, 5 in turn and weights in sixths, so
  the moment denominators grow like q^n;
* ``normal``: complex rational atoms of a normal element u, so words in u
  and u* have complex moments and exercise the star paths;
* ``planted``: a ``rat`` measure whose 4th moment is lowered below the
  Hankel bound, so the state is not positive at basis degree 2.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import oracles as O

Q_CHOICES = (2, 3, 5)


# -- measures ------------------------------------------------------------------


def int_measure(rng: random.Random, k: int) -> list[tuple[Fraction, Fraction]]:
    base = rng.randint(-2, 2)
    return [(Fraction(base + k * rng.randint(-1, 1)), Fraction(1, k)) for _ in range(k)]


def _composition(rng: random.Random, total: int, k: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), k - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def rat_measure(rng: random.Random, k: int) -> list[tuple[Fraction, Fraction]]:
    # Atom j has denominator Q_CHOICES[j % 3] exactly and the weights are
    # sixths, so every seed gives the same denominators and bit growth.
    out = []
    for j, w in enumerate(_composition(rng, 6, k)):
        q = Q_CHOICES[j % len(Q_CHOICES)]
        p = rng.choice([p for p in range(-2 * q, 2 * q + 1) if math.gcd(p, q) == 1])
        out.append((Fraction(p, q), Fraction(w, 6)))
    return out


def normal_measure(rng: random.Random, k: int):
    halves = [Fraction(v, 2) for v in range(-2, 3)]
    weights = [rng.randint(1, 4) for _ in range(k)]
    total = sum(weights)
    return [
        ((rng.choice(halves), rng.choice(halves[:2] + halves[3:])), Fraction(w, total))
        for w in weights
    ]


def measure(rng: random.Random, family: str, k: int):
    return {"int": int_measure, "rat": rat_measure, "normal": normal_measure}[family](rng, k)


# -- factor and product specs ----------------------------------------------------


def _words(letters: list[tuple], degree: int):
    """Every word of degree 1..degree over ``letters``."""
    words = [()]
    for _ in range(degree):
        words = [w + (l,) for w in words for l in letters]
        yield from words


def factor_spec(index: str, name: str, kind: str, atoms, degree_bound: int, planted=False):
    """The JSON factor spec and the oracle's description of the same factor."""
    oracle_kind = "normal" if kind == "normal" else "real"
    moment = O.measure_moment_fn({index: (oracle_kind, atoms)})
    if kind == "normal":
        generators = [{"name": name, "selfadjoint": False}]
        words = list(_words([(index, name, False), (index, name, True)], degree_bound))
    else:
        generators = [{"name": name, "selfadjoint": True}]
        words = [((index, name, False),) * k for k in range(1, degree_bound + 1)]
    moments = {}
    for word in words:
        text = " ".join(n + ("*" if s else "") for _, n, s in word)
        moments[text] = moment(index, word)
    if planted:
        # PSD at basis degree 2 needs m4 >= m2^2 + (m3 - m1 m2)^2 / (m2 - m1^2).
        m = [moments[" ".join([name] * k)][0] for k in range(1, 5)]
        bound = m[1] ** 2 + (m[2] - m[0] * m[1]) ** 2 / (m[1] - m[0] ** 2)
        moments[" ".join([name] * 4)] = (bound - Fraction(1, 2), Fraction(0))
    spec = {
        "factor": index,
        "degree_bound": degree_bound,
        "generators": generators,
        "moments": {w: O.fmt(v) for w, v in moments.items()},
    }
    return spec, (oracle_kind, atoms)


def random_nc(rng: random.Random, n: int, sizes: tuple[int, ...]):
    """A seeded partition in NC(n) with the given multiset of block sizes."""
    want = sorted(sizes)
    choices = [p for p in O.nc_partitions(n) if sorted(len(b) for b in p) == want]
    return rng.choice(choices)


def blocks_text(blocks) -> str:
    return "".join("{" + ",".join(map(str, b)) + "}" for b in blocks)


def bottom_text(n: int) -> str:
    return blocks_text([(k,) for k in range(1, n + 1)])


# -- the workloads ---------------------------------------------------------------


class Inputs:
    """Files to write, the op list, and recorded input properties."""

    def __init__(self):
        self.files: dict[str, object] = {}
        self.ops: list[dict] = []
        self.props: dict[str, object] = {}
        self.max_bits = 0

    def add_file(self, name: str, obj) -> str:
        self.files[name] = obj
        return name

    def note_bits(self, values) -> None:
        for v in values:
            self.max_bits = max(self.max_bits, O.bits(v))


def _series(rng: random.Random) -> Inputs:
    inp = Inputs()
    # (N, family, atoms) of each cumulants op; N=7 is the Moebius-bound one.
    # N=8 took 8-13 s a run, and ten runs of it spread by 24% even when
    # scaled for the host's speed, so the N=8 path runs in the moments ops.
    for n, family, k in ((5, "rat", 3), (6, "int", 3), (7, "rat", 2), (7, "rat", 3)):
        moments = O.measure_moments(measure(rng, family, k), n)
        inp.note_bits(moments)
        path = inp.add_file(f"cum_in_{n}_{k}.json", {"moments": [O.fmt(m) for m in moments]})
        inp.ops.append({
            "name": f"cumulants-N{n}-{family}{k}",
            "argv": ["cumulants", "--from-moments", path],
            "check": ("sequence", "cumulants", [O.fmt(x) for x in O.cumulants_from_moments(moments)]),
        })
    # One moments op reads a factor-spec cumulant table (the CumulantTable
    # path), the other a plain cumulant sequence.
    for n, family, k, table in ((8, "int", 3, True), (8, "rat", 2, False)):
        moments = O.measure_moments(measure(rng, family, k), n)
        kappas = O.cumulants_from_moments(moments)
        inp.note_bits(kappas)
        if table:
            words = [" ".join(["a"] * j) for j in range(1, n + 1)]
            obj = {"factor": "A1", "degree_bound": n,
                   "generators": [{"name": "a", "selfadjoint": True}],
                   "cumulants": {w: O.fmt(x) for w, x in zip(words, kappas)}}
            check_spec = ("word_moments", {w: O.fmt(x) for w, x in zip(words, moments)})
        else:
            obj = {"cumulants": [O.fmt(x) for x in kappas]}
            check_spec = ("sequence", "moments", [O.fmt(x) for x in moments])
        path = inp.add_file(f"mom_in_{family}.json", obj)
        inp.ops.append({
            "name": f"moments-N{n}-{family}" + ("-table" if table else ""),
            "argv": ["moments", "--from-cumulants", path],
            "check": check_spec,
        })
    mx = O.measure_moments(measure(rng, "rat", 2), 7)
    my = O.measure_moments(measure(rng, "int", 2), 7)
    inp.note_bits(mx + my)
    px = inp.add_file("conv_x.json", {"moments": [O.fmt(m) for m in mx]})
    py = inp.add_file("conv_y.json", {"moments": [O.fmt(m) for m in my]})
    inp.ops.append({
        "name": "convolve-N7",
        "argv": ["convolve", px, py],
        "check": ("sequence", "moments", [O.fmt(x) for x in O.free_convolve(mx, my)]),
    })
    for n in (10, 11):
        inp.ops.append({"name": f"nc-{n}", "argv": ["nc", str(n)], "check": ("nc", n)})
    for n, sizes in ((6, (3, 2, 1)), (7, (4, 2, 1)), (8, (4, 3, 1))):
        pi = random_nc(rng, n, sizes)
        inp.ops.append({
            "name": f"moebius-{n}",
            "argv": ["moebius", str(n), bottom_text(n), blocks_text(pi)],
            "check": ("moebius", O.moebius_from_bottom(pi)),
        })
    inp.props = {"N_range": [5, 8], "nc_n": [10, 11], "moebius_n": [6, 8],
                 "factors": 1, "letters": 1}
    return inp


# Product spaces: key -> (N, [(factor, generator, measure kind, atoms)]).
LAYOUTS = {
    "p8": (8, [("A1", "a", "rat", 3), ("A2", "b", "int", 2)]),
    "p6": (6, [("A1", "a", "rat", 2), ("A2", "b", "int", 3), ("A3", "u", "normal", 2)]),
    "pu6": (6, [("A1", "a", "rat", 2), ("A2", "u", "normal", 2)]),
    "q6": (6, [("A1", "a", "rat", 2), ("A2", "b", "int", 2), ("A3", "c", "rat", 2)]),
    "r6": (6, [("A1", "a", "rat", 2), ("A2", "b", "int", 2)]),
    "neg": (6, [("A1", "a", "rat", 2), ("A2", "c", "planted", 3)]),
}


def _product_spaces(rng: random.Random, inp: Inputs, keys):
    """Specs and oracles of the LAYOUTS ``keys``; ``neg`` is not positive and has no oracle."""
    spaces = {}

    def build(key, n, layout):
        specs, oracle = [], {}
        for index, name, kind, k in layout:
            planted = kind == "planted"
            atoms = measure(rng, "rat" if planted else kind, k)
            while planted and len({x for x, _ in atoms}) < 2:
                atoms = measure(rng, "rat", k)
            spec, desc = factor_spec(index, name, kind, atoms, n, planted)
            specs.append(spec)
            if planted:
                oracle = None
            elif oracle is not None:
                oracle[index] = desc
            inp.note_bits(O.parse(v) for v in spec["moments"].values())
        path = inp.add_file(f"space_{key}.json", {"degree_bound": n, "factors": specs})
        letters = {name: (index, name) for index, name, _, _ in layout}
        spaces[key] = (path, letters, None if oracle is None else
                       O.ProductOracle(O.measure_moment_fn(oracle)))

    for key in keys:
        build(key, *LAYOUTS[key])
    return spaces


def _letters(letters: dict, text: str) -> tuple:
    out = []
    for token in text.split():
        starred = token.endswith("*")
        index, name = letters[token.rstrip("*")]
        out.append((index, name, starred))
    return tuple(out)


def _product(rng: random.Random) -> Inputs:
    inp = Inputs()
    spaces = _product_spaces(rng, inp, ["p8", "pu6", "q6", "r6", "neg"])
    # Fixed words: the cost of a product-eval depends on the word's shape
    # (a pure u/u* word costs up to 2x more in one order than another), so
    # the seed picks the factor measures and every seed evaluates the same
    # shapes.
    words = [
        ("alt", "p8", "a b a b a b a b"),
        ("mixed", "p8", "a a b a b b a b"),
        ("pure", "p8", "a a a a a a a"),
        ("alt", "pu6", "a u a u* a u"),
        ("mixed", "pu6", "a u a u* u a"),
        ("pure", "pu6", "u u* u* u u u*"),
    ]
    for kind, key, text in words:
        path, letters, oracle = spaces[key]
        value = oracle.phi(_letters(letters, text))
        inp.ops.append({
            "name": f"product-eval-{key}-{kind}",
            "argv": ["product-eval", "--spec", path, "--word", text],
            "check": ("value", O.fmt(value)),
        })
    counts = {key: [2 if kind == "normal" else 1 for _, _, kind, _ in LAYOUTS[key][1]]
              for key in spaces}
    for key, degree in (("pu6", 5), ("r6", 6)):
        inp.ops.append({
            "name": f"verify-both-{key}-d{degree}",
            "argv": ["verify", "--spec", spaces[key][0], "--max-degree", str(degree),
                     "--mode", "both"],
            "check": ("freeness", O.alternating_count(counts[key], degree),
                      O.mixed_tuple_count(counts[key], degree)),
        })
    for key, degree in (("pu6", 3), ("q6", 2), ("neg", 2)):
        inp.ops.append({
            "name": f"verify-positivity-{key}-d{degree}",
            "argv": ["verify", "--spec", spaces[key][0], "--max-degree", str(degree),
                     "--mode", "positivity"],
            "check": ("positivity", 1 + O.alternating_count(counts[key], degree),
                      key != "neg"),
        })
    inp.props = {"N_range": [6, 8], "factors": [2, 3],
                 "letters_per_factor": counts}
    return inp


SESSION_QUERIES = 3000
SESSION_FRESH = 0.1
SESSION_CUMULANTS = 0.03
WORD_LENGTHS = (4, 5, 6)


def _session_words(count: int) -> list[tuple]:
    """The session's distinct words, the same on every seed: the cost of a
    miss depends on how many letters share a factor, so seeded words moved
    the cost of a pass by 15%.  Spread evenly over the lengths 4-6."""
    rng = random.Random("session-words")
    tokens = ["a", "b", "u", "u*"]
    words: list[tuple] = []
    while len(words) < count:
        length = WORD_LENGTHS[len(words) % len(WORD_LENGTHS)]
        query = ("state", " ".join(rng.choice(tokens) for _ in range(length)))
        if query not in words:
            words.append(query)
    return words


def _session(rng: random.Random, queries: int) -> Inputs:
    """A stream with fixed shares: 10% new queries, 3% cumulant queries
    split evenly over the three sequences, and a fixed set of new words; the
    seed picks the factor measures, the order of the words and of the
    cumulant queries, and each repeat picks uniformly among earlier words."""
    inp = Inputs()
    path, letters, oracle = _product_spaces(rng, inp, ["p6"])["p6"]
    seqs = []
    for n, family, k in ((5, "rat", 2), (6, "int", 3), (6, "rat", 3)):
        moments = O.measure_moments(measure(rng, family, k), n)
        inp.note_bits(moments)
        seqs.append(inp.add_file(f"seq_{len(seqs)}.json",
                                 {"moments": [O.fmt(m) for m in moments]}))
    cumulant_count = round(queries * SESSION_CUMULANTS)
    new_words = round(queries * SESSION_FRESH) - len(seqs)
    words = _session_words(new_words)
    rng.shuffle(words)
    # The opening query below is the first cumulant query on sequence 1.
    cumulant_seqs = [k % len(seqs) for k in range(2, cumulant_count + 1)]
    rng.shuffle(cumulant_seqs)
    slots = ["new"] * new_words + ["cumulants"] * (cumulant_count - 1)
    slots += ["repeat"] * (queries - 1 - len(slots))
    rng.shuffle(slots)
    slots.insert(0, slots.pop(slots.index("new")))  # a repeat needs an earlier word
    # The stream opens with the N=6 cumulant query, which fills the Moebius
    # memo for NC(1..6): the hardest query, the same on every seed.
    stream = [("cumulants", 1)]
    seen_words: list[tuple] = []
    for slot in slots:
        if slot == "new":
            query = words.pop()
            seen_words.append(query)
        elif slot == "cumulants":
            query = ("cumulants", cumulant_seqs.pop())
        else:
            query = rng.choice(seen_words)
        stream.append(query)
    distinct = set(stream)
    expected = {q: O.fmt(oracle.phi(_letters(letters, q[1]))) for q in seen_words}
    seq_values = {i: [O.parse(v) for v in inp.files[p]["moments"]] for i, p in enumerate(seqs)}
    inp.ops = [{
        "name": "session",
        "space": path,
        "sequences": seqs,
        "stream": stream,
        "expected": [expected[q] if q[0] == "state" else
                     [O.fmt(x) for x in O.cumulants_from_moments(seq_values[q[1]])]
                     for q in stream],
    }]
    inp.props = {"N": 6, "factors": 3, "letters_per_factor": [1, 1, 2],
                 "queries": queries, "distinct_queries": len(distinct),
                 "repeat_share": 1 - len(distinct) / queries}
    return inp


WORKLOADS = ("series", "product", "session")


HEAVY = {"cumulants-N7-rat2", "cumulants-N7-rat3", "convolve-N7", "nc-11", "moebius-8",
         "product-eval-p8-pure", "verify-both-r6-d6", "verify-positivity-pu6-d3"}
SMOKE_QUERIES = 300


def make(workload: str, seed: int, smoke: bool = False) -> Inputs:
    """Inputs of one run; ``smoke`` drops the heavy ops and shortens the stream."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "series":
        inp = _series(rng)
    elif workload == "product":
        inp = _product(rng)
    else:
        inp = _session(rng, SMOKE_QUERIES if smoke else SESSION_QUERIES)
    if smoke:
        inp.ops = [op for op in inp.ops if op["name"] not in HEAVY]
    inp.props["max_input_bits"] = inp.max_bits
    inp.props["seed"] = seed
    return inp
