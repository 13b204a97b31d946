"""Seeded input generator for the benchmark workloads.

Every workload is a small set of problem files plus the CLI jobs run on
them.  The seed only draws coefficient values, from a multiset
that is the same for every seed; each workload's support (which monomials
appear) is a fixed function of the workload.  Runs with different seeds
therefore do the same bracket work on numbers of the same size, and their
timings can be compared.  The program under test only ever sees the JSON files this
module writes.

The bytes written depend on nothing but (workload, seed, size): the
generator uses its own ``random.Random`` instances and never iterates a
set or a dict whose order could depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

# Fixed seed for the support choices, shared by every run of a workload.
SUPPORT_SEED = 20260517
# The seeds whose outputs have pinned digests (``pin_digests.py``), at full
# and at smoke size.  A run's seed is taken modulo their count, so that the
# digest check of the exactness gate applies to every run.
SEEDS = range(32)
TINY_SEEDS = range(4)


@dataclass(frozen=True)
class Job:
    """One CLI call: argv without ``--input``, and the metric it feeds."""

    metric: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Input:
    """One generated problem file and the jobs run on it."""

    name: str
    document: dict
    jobs: tuple[Job, ...]

    def text(self) -> str:
        return json.dumps(self.document, indent=1) + "\n"

    def descriptor(self, seed: int) -> dict:
        return {
            "input": self.name,
            "n": self.document["n"],
            "lambda": self.document["lambda"],
            "order": self.document["order"],
            "terms": len(self.document["terms"]),
            "seed": seed,
        }


COMMANDS = {
    "lie_s": ("compute", "--method", "lie"),
    "trees_s": ("compute", "--method", "trees"),
    "onedof_s": ("compute", "--method", "onedof"),
    "check_s": ("check",),
    "structure_s": ("structure",),
}


def job(metric: str, order: int | None = None) -> Job:
    """The CLI call timed as ``metric``, optionally at another order."""
    argv = COMMANDS[metric]
    return Job(metric, argv if order is None else argv + ("--order", str(order)))


def _exponents(total: int, slots: int):
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _exponents(total - head, slots - 1):
            yield (head,) + rest


def monomials(n: int, degree: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All exponent pairs of one total degree, in a fixed order."""
    return [
        (alpha, beta)
        for da in range(degree + 1)
        for alpha in _exponents(da, n)
        for beta in _exponents(degree - da, n)
    ]


def _rationals(count: int, rng: random.Random) -> list[str]:
    """``count`` seeded rationals with the same numerator and denominator sizes.

    Numerators and denominators are each the values 1..9 in turn, shuffled
    by the seed, with seeded signs: every seed draws from the same multiset,
    so coefficient sizes, and with them the cost of exact arithmetic, do
    not drift from seed to seed.
    """
    numerators = [1 + k % 9 for k in range(count)]
    denominators = [1 + k % 9 for k in range(count)]
    rng.shuffle(numerators)
    rng.shuffle(denominators)
    return [
        str(Fraction(rng.choice((-1, 1)) * p, q))
        for p, q in zip(numerators, denominators)
    ]


def _problem(n, lam, order, support, rng, gaussian=False) -> dict:
    support = sorted(support, key=lambda p: (sum(p[0]) + sum(p[1]), p))
    values = _rationals(len(support) * (2 if gaussian else 1), rng)
    if gaussian:
        coeffs = [{"re": re, "im": im} for re, im in zip(values[::2], values[1::2])]
    else:
        coeffs = values
    terms = [
        {"alpha": list(alpha), "beta": list(beta), "coeff": coeff}
        for (alpha, beta), coeff in zip(support, coeffs)
    ]
    return {"n": n, "lambda": list(lam), "order": order, "terms": terms}


def first_dof(support):
    """The monomials of a support that involve only x1 and y1, as n=1 pairs."""
    return [
        (alpha[:1], beta[:1])
        for alpha, beta in support
        if not any(alpha[1:]) and not any(beta[1:])
    ]


def first_support(document: dict, count: int) -> dict:
    """The first ``count`` terms in canonical order, for the capped symbolic run."""
    return dict(document, terms=document["terms"][:count])


def deep_1dof(seed: int, tiny: bool) -> list[Input]:
    # Every monomial of degree 3 and 4.  Orders 10 (lie) and 7 (trees,
    # check) keep each job under a second, so that a run holds a dozen
    # repeats of each; at 11 and 8 it held five or six.
    rng = random.Random(seed)
    support = monomials(1, 3) + monomials(1, 4)
    doc = _problem(1, ["1"], 6 if tiny else 10, support, rng)
    if tiny:
        jobs = (job("lie_s"), job("trees_s", 5), job("onedof_s", 10), job("check_s", 5),
                job("structure_s", 5))
    else:
        jobs = (job("lie_s"), job("trees_s", 7), job("onedof_s", 20), job("check_s", 7),
                job("structure_s", 6))
    return [Input("deep-1dof", doc, jobs)]


def dense_3dof(seed: int, tiny: bool) -> list[Input]:
    # 15% of the monomials of each degree 3..6 in six variables (134 terms):
    # wide series, few brackets.  At 30% (270 terms) check took 5 s and a
    # run held too few samples for a steady median.
    shape = random.Random(SUPPORT_SEED)
    top = 4 if tiny else 6
    support = []
    for degree in range(3, top + 1):
        pool = monomials(3, degree)
        support += shape.sample(pool, round(0.15 * len(pool)))
    one_dof = [pair for degree in range(3, top + 1) for pair in monomials(1, degree)]
    rng = random.Random(seed)
    doc = _problem(3, ["1", "1", "1"], top, support, rng)
    return [
        Input("dense-3dof", doc, (job("lie_s"), job("trees_s"), job("check_s"))),
        # onedof needs n=1; the x1,y1 slice of this support has two terms,
        # so it gets every monomial of degree 3..6 in x1, y1 instead
        Input(
            "dense-3dof-1dof",
            _problem(1, ["1"], 8 if tiny else 12, one_dof, rng),
            (job("onedof_s"),),
        ),
        Input(
            "dense-3dof-cap",
            first_support(doc, 12),
            (job("structure_s", 4 if tiny else 6),),
        ),
    ]


def resonant_2dof(seed: int, tiny: bool) -> list[Input]:
    # 12 cubic monomials: both 1:2 resonant cubics x1^2 y2 and x2 y1^2, the
    # four cubics in x1, y1 alone (the onedof slice) and six more fixed ones,
    # with complex coefficients.  The support stays inside the structure
    # caps, so check's structure row really runs.
    resonant = [((2, 0), (0, 1)), ((0, 1), (2, 0))]
    cubics = monomials(2, 3)
    alone = [(a, b) for a, b in cubics if not a[1] and not b[1]]
    others = [p for p in cubics if p not in resonant + alone]
    support = resonant + alone + random.Random(SUPPORT_SEED).sample(others, 6)
    rng = random.Random(seed)
    doc = _problem(2, ["1", "2"], 5 if tiny else 6, support, rng, gaussian=True)
    return [
        Input(
            "resonant-2dof",
            doc,
            (job("lie_s"), job("trees_s"), job("check_s"), job("structure_s")),
        ),
        Input(
            "resonant-2dof-slice",
            _problem(1, ["1"], 8 if tiny else 20, first_dof(support), rng, gaussian=True),
            (job("onedof_s"),),
        ),
    ]


WORKLOADS = {
    "deep-1dof": deep_1dof,
    "dense-3dof": dense_3dof,
    "resonant-2dof": resonant_2dof,
}


def input_seed(seed: int, tiny: bool = False) -> int:
    """The pinned seed that a run's seed draws its inputs from."""
    return seed % len(TINY_SEEDS if tiny else SEEDS)


def generate(workload: str, seed: int, tiny: bool = False) -> list[Input]:
    """The inputs of one workload; ``tiny`` gives the smoke-run sizes."""
    return WORKLOADS[workload](input_seed(seed, tiny), tiny)
