"""Chain enumeration and truth valuation of derived facts.

Section 3.2 defines how the truth value of a derived fact follows from
the stored base facts:

    "A derived fact can be obtained by composing a chain of base facts
    if adjacent pairs of facts in the chain match. ... A chain of base
    facts matches exactly if each adjacent pair of facts match exactly.
    A derived fact is true if it is obtained from a chain of true base
    facts which matches exactly. It is ambiguous if it can be obtained
    from a chain of base facts which is not a superset of a NC and each
    chain of base facts from which it can be obtained either does not
    match exactly or contains at least one ambiguous fact. A derived
    fact is false if it is neither true nor ambiguous."

A :class:`Chain` is one sequence of stored facts, one per derivation
step (facts of inverted steps are traversed range-to-domain). The fact
*obtained* from a chain has the chain's endpoint values; endpoints are
therefore matched exactly, while adjacent interior values may match
exactly or ambiguously (through nulls).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from repro import cancel
from repro.core.derivation import Derivation, Op
from repro.fdb.database import FunctionalDatabase
from repro.fdb.facts import Fact, FactRef
from repro.fdb.logic import Truth
from repro.fdb.values import Value
from repro.obs.hooks import OBS

__all__ = [
    "Chain",
    "iter_chains",
    "truth_of",
    "truth_of_derived",
    "truth_over",
    "derived_extension",
    "derived_image",
    "extension_over",
    "image_over",
]


@dataclass(frozen=True)
class Chain:
    """One chain of stored base facts realizing a derivation.

    ``facts[i]`` comes from the table of ``derivation.steps[i]``'s
    function; inverted steps use the fact backwards. ``all_exact``
    records whether every adjacent pair matched exactly.
    """

    derivation: Derivation
    facts: tuple[Fact, ...]
    all_exact: bool

    @property
    def start(self) -> Value:
        step = self.derivation.steps[0]
        fact = self.facts[0]
        return fact.y if step.op is Op.INVERSE else fact.x

    @property
    def end(self) -> Value:
        step = self.derivation.steps[-1]
        fact = self.facts[-1]
        return fact.x if step.op is Op.INVERSE else fact.y

    @property
    def pair(self) -> tuple[Value, Value]:
        """The derived fact this chain obtains."""
        return (self.start, self.end)

    @property
    def all_true(self) -> bool:
        return all(fact.truth is Truth.TRUE for fact in self.facts)

    def conjuncts(self) -> list[tuple[str, Fact]]:
        """(function name, fact) pairs — the Conj-list for create-NC."""
        return [
            (step.function.name, fact)
            for step, fact in zip(self.derivation.steps, self.facts)
        ]

    @property
    def refs(self) -> frozenset[FactRef]:
        return frozenset(
            fact.ref(step.function.name)
            for step, fact in zip(self.derivation.steps, self.facts)
        )

    def is_known_false(self, db: FunctionalDatabase) -> bool:
        """Whether this chain's conjunction is already negated: its fact
        set is a superset of some live NC."""
        candidates: set[int] = set()
        for fact in self.facts:
            candidates |= fact.ncl
        if not candidates:
            return False
        return db.ncs.subset_of_some_nc(self.refs, candidates)

    def supports(self, db: FunctionalDatabase) -> Truth:
        """What this single chain contributes to its derived fact."""
        if self.all_exact and self.all_true:
            return Truth.TRUE
        if self.is_known_false(db):
            return Truth.FALSE
        return Truth.AMBIGUOUS

    def __str__(self) -> str:
        parts = [
            f"<{step.function.name}, {fact.x}, {fact.y}>"
            for step, fact in zip(self.derivation.steps, self.facts)
        ]
        return " . ".join(parts)


def iter_chains(
    db: FunctionalDatabase,
    derivation: Derivation,
    x: Value | None = None,
    y: Value | None = None,
    *,
    allow_ambiguous: bool = True,
) -> Iterator[Chain]:
    """Enumerate chains of stored facts realizing ``derivation``.

    ``x``/``y`` fix the chain endpoints (matched exactly, per the
    definition of the obtained fact). ``allow_ambiguous=False``
    restricts to exactly-matching chains — the ones whose conjunction
    implies the derived fact, which is what ``derived-delete`` negates.
    """
    steps = derivation.steps

    def candidates(index: int, current: Value | None) -> Iterator[tuple[Fact, bool]]:
        step = steps[index]
        table = db.table(step.function.name)
        inverse = step.op is Op.INVERSE
        if index == 0:
            if x is None:
                for fact in table.facts():
                    yield fact, True
            elif inverse:
                for fact in table.facts_with_y(x):
                    yield fact, True
            else:
                for fact in table.facts_with_x(x):
                    yield fact, True
            return
        exact, ambiguous = (
            table.matching_y(current) if inverse else table.matching_x(current)
        )
        for fact in exact:
            yield fact, True
        if allow_ambiguous:
            for fact in ambiguous:
                yield fact, False

    def extend(
        index: int,
        facts: tuple[Fact, ...],
        current: Value | None,
        all_exact: bool,
    ) -> Iterator[Chain]:
        if index == len(steps):
            yield Chain(derivation, facts, all_exact)
            return
        step = steps[index]
        inverse = step.op is Op.INVERSE
        last = index == len(steps) - 1
        for fact, exact_match in candidates(index, current):
            effective_end = fact.x if inverse else fact.y
            if last and y is not None and effective_end != y:
                continue
            yield from extend(
                index + 1,
                facts + (fact,),
                effective_end,
                all_exact and exact_match,
            )

    if not OBS.enabled:
        if not cancel.cancellation_active():
            # Fast path byte-identical to the pre-service engine: no
            # per-chain work when neither OBS nor a deadline is live.
            yield from extend(0, (), None, True)
            return
        for chain in extend(0, (), None, True):
            cancel.checkpoint()
            yield chain
        return
    # Instrumented path: count enumerations and every chain yielded.
    # Per-yield counting stays correct when a consumer abandons the
    # generator early (exists_nvc stops at the first NVC).
    OBS.inc("fdb.chains.enumerations")
    for chain in extend(0, (), None, True):
        cancel.checkpoint()
        OBS.inc("fdb.chains.enumerated")
        yield chain


def truth_over(
    db: FunctionalDatabase, derivations: tuple[Derivation, ...],
    x: Value, y: Value,
) -> Truth:
    """Section 3.2 truth valuation of the fact ``(x, y)`` obtained
    through any of ``derivations``: true as soon as one chain supports
    it exactly, ambiguous if some chain does so only ambiguously."""
    obs_on = OBS.enabled  # hoisted: one global+attr load, not per chain
    ambiguous_found = False
    for derivation in derivations:
        for chain in iter_chains(db, derivation, x, y):
            support = chain.supports(db)
            if obs_on:
                OBS.event("chain.evaluated", chain=str(chain),
                          verdict=support.value)
            if support is Truth.TRUE:
                return Truth.TRUE
            if support is Truth.AMBIGUOUS:
                ambiguous_found = True
    return Truth.AMBIGUOUS if ambiguous_found else Truth.FALSE


def truth_of_derived(
    db: FunctionalDatabase, name: str, x: Value, y: Value
) -> Truth:
    """Section 3.2 truth valuation of the derived fact ``name(x) = y``,
    considering every confirmed derivation of the function."""
    if OBS.enabled:
        OBS.inc("fdb.evaluate.truth_checks")
    return truth_over(db, db.derived(name).derivations, x, y)


def truth_of(db: FunctionalDatabase, name: str, x: Value, y: Value) -> Truth:
    """Truth of any fact: stored flag (or FALSE) for base functions,
    chain valuation for derived ones."""
    if db.is_base(name):
        return db.table(name).truth_of(x, y)
    return truth_of_derived(db, name, x, y)


def _accumulate(
    db: FunctionalDatabase,
    chains: Iterator[Chain],
    into: dict[tuple[Value, Value], Truth],
    label: str = "-",
) -> None:
    """Fold chains into a pair -> strongest-truth map.

    ``label`` names the derivation being evaluated; when observability
    is on, the walk is timed into the profiler under
    ``evaluate.accumulate`` so per-derivation evaluation cost is
    attributable.
    """
    obs_on = OBS.enabled
    if obs_on:
        OBS.inc("fdb.evaluate.accumulations")
        started = time.perf_counter()
    for chain in chains:
        support = chain.supports(db)
        if support is Truth.FALSE:
            continue
        pair = chain.pair
        current = into.get(pair, Truth.FALSE)
        if support > current:
            into[pair] = support
    if obs_on:
        OBS.profiler.record(
            "evaluate.accumulate", label, time.perf_counter() - started
        )


def extension_over(
    db: FunctionalDatabase, derivations: tuple[Derivation, ...]
) -> dict[tuple[Value, Value], Truth]:
    """Every fact obtainable through ``derivations``, with its
    strongest truth (false facts absent)."""
    result: dict[tuple[Value, Value], Truth] = {}
    for derivation in derivations:
        _accumulate(db, iter_chains(db, derivation), result,
                    label=str(derivation))
    return result


def image_over(
    db: FunctionalDatabase, derivations: tuple[Derivation, ...], x: Value
) -> dict[Value, Truth]:
    """Range values reached from ``x`` through ``derivations``."""
    pairs: dict[tuple[Value, Value], Truth] = {}
    for derivation in derivations:
        _accumulate(db, iter_chains(db, derivation, x=x), pairs,
                    label=str(derivation))
    return {y: truth for (_, y), truth in pairs.items()}


def derived_extension(
    db: FunctionalDatabase, name: str
) -> dict[tuple[Value, Value], Truth]:
    """All derivable facts of a derived function with their truth
    values (false facts are absent — they are simply not derivable).

    This is what the paper prints as the Pupil column of the Section 4.2
    tables, ambiguous facts starred.
    """
    return extension_over(db, db.derived(name).derivations)


def derived_image(
    db: FunctionalDatabase, name: str, x: Value
) -> dict[Value, Truth]:
    """Range values of ``x`` under a derived function, with truths."""
    return image_over(db, db.derived(name).derivations, x)
