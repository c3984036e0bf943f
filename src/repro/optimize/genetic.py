"""SPEA2-style multi-objective genetic optimization of CAN identifiers.

The paper's optimizer (ref [10], Zitzler/Laumanns/Thiele's SPEA2) searches
identifier permutations, evaluating each candidate with full what-if analysis
across several scenarios and keeping an archive of Pareto-optimal
configurations.  This module implements the same scheme:

* individuals are permutations assigning the existing identifier pool to the
  messages (order-based encoding);
* fitness follows SPEA2: strength / raw fitness from Pareto dominance plus a
  k-nearest-neighbour density term;
* variation uses order crossover (OX) and swap/insertion mutation;
* the initial population is seeded with the deterministic baselines
  (original, rate-monotonic, deadline-monotonic) so the GA never does worse
  than the best known heuristic;
* candidates are evaluated one after another on the calling thread through
  :class:`repro.service.evaluation.SessionEvaluator`, each seeded from its
  parent, whatever ``REPRO_PARALLEL`` says.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from repro.can.kmatrix import KMatrix
from repro.optimize.assignment import (
    audsley_assignment,
    deadline_monotonic_assignment,
    rate_monotonic_assignment,
)
from repro.optimize.objectives import (
    AnalysisScenario,
    ConfigurationEvaluation,
    evaluate_configuration,
)


@dataclass(frozen=True)
class GeneticOptimizerConfig:
    """Hyper-parameters of the SPEA2-style search.

    ``analysis_backend`` selects the optimised analysis kernel
    (``"kernel"``, the default) or the retained naive path
    (``"reference"``); the latter exists for the equivalence tests and the
    seed-vs-kernel benchmark, which assert that both return identical
    objective values.
    """

    population_size: int = 24
    archive_size: int = 12
    generations: int = 20
    crossover_probability: float = 0.9
    mutation_probability: float = 0.3
    mutation_swaps: int = 2
    seed: int = 42
    sensitivity_threshold: float = 0.10
    seed_with_audsley: bool = True
    analysis_backend: str = "kernel"

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.archive_size < 1:
            raise ValueError("archive_size must be at least 1")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        for name in ("crossover_probability", "mutation_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if self.analysis_backend not in ("kernel", "reference"):
            raise ValueError(
                f"unknown analysis backend {self.analysis_backend!r}")


@dataclass
class _Individual:
    """One candidate: an ordering of message names (priority order).

    ``parent_order`` identifies the already evaluated candidate this one was
    derived from; its cached fixed points warm-start this candidate's
    analysis (see :mod:`repro.service.evaluation`).
    """

    order: tuple[str, ...]
    evaluation: ConfigurationEvaluation | None = None
    fitness: float = math.inf
    parent_order: tuple[str, ...] | None = None


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one optimization run."""

    best_kmatrix: KMatrix
    best_evaluation: ConfigurationEvaluation
    original_evaluation: ConfigurationEvaluation
    generations_run: int
    evaluations: int
    archive: tuple[ConfigurationEvaluation, ...] = ()
    history: tuple[float, ...] = ()

    @property
    def improved(self) -> bool:
        """Whether the optimizer strictly reduced total message loss."""
        return (self.best_evaluation.lost_messages
                < self.original_evaluation.lost_messages)

    def describe(self) -> str:
        """Short textual summary of the run."""
        return (f"GA: {self.original_evaluation.lost_messages} -> "
                f"{self.best_evaluation.lost_messages} lost messages over "
                f"{self.generations_run} generations "
                f"({self.evaluations} analyses)")


def optimize_priorities(
    kmatrix: KMatrix,
    scenarios: Sequence[AnalysisScenario],
    config: GeneticOptimizerConfig | None = None,
) -> OptimizationResult:
    """Search for an identifier assignment with less loss and more robustness.

    Parameters
    ----------
    kmatrix:
        The original communication matrix (its identifier pool is reused).
    scenarios:
        What-if scenarios the candidates are evaluated against, e.g.
        :func:`repro.optimize.objectives.paper_scenarios`.
    config:
        GA hyper-parameters; the defaults complete in seconds on the
        case-study matrix while still improving on the heuristics.
    """
    config = config or GeneticOptimizerConfig()
    rng = random.Random(config.seed)
    id_pool = sorted(message.can_id for message in kmatrix)
    names = [message.name for message in kmatrix]
    evaluations = 0
    cache: dict[tuple[str, ...], ConfigurationEvaluation] = {}

    # Candidate evaluations of the kernel backend run as PriorityDelta
    # queries through cached-kernel sessions: messages whose higher-priority
    # set a mutation left untouched reuse the parent's fixed point outright,
    # demoted messages warm-start from it, promoted ones go cold -- the
    # incremental per-candidate re-analysis, bit-identical to a cold
    # evaluation (the reference backend runs one, for the equivalence tests).
    evaluator = None
    if config.analysis_backend != "reference":
        from repro.service.evaluation import SessionEvaluator
        evaluator = SessionEvaluator(
            kmatrix, scenarios,
            sensitivity_threshold=config.sensitivity_threshold)

    def matrix_for(order: Sequence[str]) -> KMatrix:
        mapping = {name: can_id for name, can_id in zip(order, id_pool)}
        return kmatrix.with_priorities(mapping)

    def evaluate(order: tuple[str, ...],
                 parent_order: tuple[str, ...] | None = None,
                 ) -> ConfigurationEvaluation:
        nonlocal evaluations
        if order not in cache:
            evaluations += 1
            if evaluator is not None:
                cache[order] = evaluator.evaluate(order, parent=parent_order)
            else:
                cache[order] = evaluate_configuration(
                    matrix_for(order), scenarios,
                    sensitivity_threshold=config.sensitivity_threshold,
                    backend="reference")
        return cache[order]

    def evaluate_population(individuals: Sequence[_Individual]) -> None:
        """Evaluate all candidates in population order on the calling
        thread, sharing the cache, so every ``REPRO_PARALLEL`` mode runs
        the same evaluations in the same order."""
        for individual in individuals:
            individual.evaluation = evaluate(individual.order,
                                             individual.parent_order)

    # --- seed population -------------------------------------------------
    # Besides the original assignment and the monotonic heuristics, the
    # population is seeded with Audsley's optimal assignment computed against
    # the tightest scenario: whenever *any* fixed-priority assignment is
    # feasible there, the GA starts from one and only has to improve
    # robustness, which mirrors how the paper's optimizer is configured.
    original_order = tuple(m.name for m in kmatrix.sorted_by_priority())
    seeds = [
        original_order,
        tuple(m.name for m in rate_monotonic_assignment(kmatrix)
              .sorted_by_priority()),
        tuple(m.name for m in deadline_monotonic_assignment(kmatrix)
              .sorted_by_priority()),
    ]
    if config.seed_with_audsley and scenarios:
        tightest = max(scenarios,
                       key=lambda s: (s.deadline_policy == "min-rearrival",
                                      s.assumed_jitter_fraction))
        opa_matrix, _feasible = audsley_assignment(kmatrix, tightest)
        seeds.append(tuple(
            m.name for m in opa_matrix.sorted_by_priority()))
    population: list[_Individual] = [_Individual(order=o) for o in seeds]
    while len(population) < config.population_size:
        shuffled = list(names)
        rng.shuffle(shuffled)
        population.append(_Individual(order=tuple(shuffled)))

    original_evaluation = evaluate(original_order)
    archive: list[_Individual] = []
    history: list[float] = []

    for generation in range(config.generations):
        evaluate_population(population)
        union = _dedupe(population + archive)
        _assign_spea2_fitness(union)
        archive = _environmental_selection(union, config.archive_size)
        best = min(archive, key=lambda ind: ind.evaluation.objectives())
        history.append(float(best.evaluation.lost_messages))

        # Early exit: nothing left to improve.
        if best.evaluation.lost_messages == 0 and generation >= 1:
            break

        mating_pool = [_tournament(archive if archive else union, rng)
                       for _ in range(config.population_size)]
        offspring: list[_Individual] = []
        for index in range(0, len(mating_pool), 2):
            parent_a = mating_pool[index]
            parent_b = mating_pool[(index + 1) % len(mating_pool)]
            if rng.random() < config.crossover_probability:
                child_order = _order_crossover(parent_a.order, parent_b.order, rng)
            else:
                child_order = parent_a.order
            if rng.random() < config.mutation_probability:
                child_order = _mutate(child_order, config.mutation_swaps, rng)
            offspring.append(_Individual(order=child_order,
                                         parent_order=parent_a.order))
            if len(offspring) >= config.population_size:
                break
        population = offspring

    for individual in archive:
        individual.evaluation = evaluate(individual.order)
    best = min(archive, key=lambda ind: ind.evaluation.objectives()) \
        if archive else min(population, key=lambda ind: evaluate(ind.order).objectives())
    best_evaluation = evaluate(best.order)

    # Never return something worse than the original configuration.
    if original_evaluation.objectives() <= best_evaluation.objectives():
        best_order, best_evaluation = original_order, original_evaluation
    else:
        best_order = best.order

    return OptimizationResult(
        best_kmatrix=matrix_for(best_order),
        best_evaluation=best_evaluation,
        original_evaluation=original_evaluation,
        generations_run=len(history),
        evaluations=evaluations,
        archive=tuple(ind.evaluation for ind in archive if ind.evaluation),
        history=tuple(history),
    )


# --------------------------------------------------------------------------- #
# SPEA2 machinery
# --------------------------------------------------------------------------- #
def _dedupe(individuals: Sequence[_Individual]) -> list[_Individual]:
    """Remove duplicate orderings, keeping the first occurrence."""
    seen: set[tuple[str, ...]] = set()
    unique = []
    for individual in individuals:
        if individual.order not in seen:
            seen.add(individual.order)
            unique.append(individual)
    return unique


def _assign_spea2_fitness(individuals: list[_Individual]) -> None:
    """SPEA2 fitness: strength-based raw fitness plus density."""
    n = len(individuals)
    strengths = [0] * n
    for i, a in enumerate(individuals):
        for j, b in enumerate(individuals):
            if i != j and a.evaluation.dominates(b.evaluation):
                strengths[i] += 1
    raw = [0.0] * n
    for i, a in enumerate(individuals):
        raw[i] = float(sum(
            strengths[j] for j, b in enumerate(individuals)
            if i != j and b.evaluation.dominates(a.evaluation)))
    k = max(int(math.sqrt(n)), 1)
    for i, a in enumerate(individuals):
        distances = sorted(
            _objective_distance(a.evaluation, b.evaluation)
            for j, b in enumerate(individuals) if i != j)
        kth = distances[min(k, len(distances)) - 1] if distances else 0.0
        density = 1.0 / (kth + 2.0)
        a.fitness = raw[i] + density


def _objective_distance(a: ConfigurationEvaluation,
                        b: ConfigurationEvaluation) -> float:
    """Euclidean distance in objective space."""
    return math.sqrt(sum(
        (x - y) ** 2 for x, y in zip(a.objectives(), b.objectives())))


def _environmental_selection(individuals: list[_Individual],
                             archive_size: int) -> list[_Individual]:
    """Keep non-dominated individuals, truncating/filling to archive size."""
    nondominated = [ind for ind in individuals if ind.fitness < 1.0]
    if len(nondominated) > archive_size:
        nondominated.sort(key=lambda ind: ind.fitness)
        return nondominated[:archive_size]
    if len(nondominated) < archive_size:
        dominated = sorted(
            (ind for ind in individuals if ind.fitness >= 1.0),
            key=lambda ind: ind.fitness)
        nondominated.extend(dominated[:archive_size - len(nondominated)])
    return nondominated


def _tournament(pool: Sequence[_Individual], rng: random.Random) -> _Individual:
    """Binary tournament selection on SPEA2 fitness (lower is better)."""
    a, b = rng.choice(pool), rng.choice(pool)
    return a if a.fitness <= b.fitness else b


def _order_crossover(parent_a: tuple[str, ...], parent_b: tuple[str, ...],
                     rng: random.Random) -> tuple[str, ...]:
    """Order crossover (OX): keep a slice of A, fill the rest in B's order."""
    size = len(parent_a)
    if size < 2:
        return parent_a
    start, end = sorted(rng.sample(range(size), 2))
    slice_a = parent_a[start:end + 1]
    fill = [name for name in parent_b if name not in slice_a]
    child = list(fill[:start]) + list(slice_a) + list(fill[start:])
    return tuple(child)


def _mutate(order: tuple[str, ...], swaps: int, rng: random.Random,
            ) -> tuple[str, ...]:
    """Mutate by a few random swaps and one insertion move."""
    mutable = list(order)
    size = len(mutable)
    if size < 2:
        return order
    for _ in range(max(swaps, 1)):
        i, j = rng.sample(range(size), 2)
        mutable[i], mutable[j] = mutable[j], mutable[i]
    # Insertion move: take one element and reinsert it elsewhere.
    source = rng.randrange(size)
    element = mutable.pop(source)
    mutable.insert(rng.randrange(size), element)
    return tuple(mutable)
