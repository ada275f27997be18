"""Relay-station configuration optimisation.

Table 1 contains two "Optimal" rows ("Optimal 1 (no CU-IC)" and
"Optimal 2 (no CU-IC)"): configurations in which the same amount of wire
pipelining is distributed over the links so that the throughput is maximised,
rather than being applied uniformly.  This module provides the search
machinery for such rows and, more generally, for the methodology step "given
the relay stations the floorplan forces on me, which additional freedom do I
have and how should I use it?".

Three strategies are implemented over a per-link integer search space:

* exhaustive enumeration (exact, practical for block-level netlists);
* a greedy construction that adds relay stations one at a time where they
  hurt the objective least;
* simulated annealing with a deterministic seed for larger spaces.

The objective is pluggable: the static loop bound (fast, used by default) or
the simulated throughput of a workload under WP1 or WP2 wrappers.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .config import RSConfiguration
from .exceptions import OptimizationError
from .netlist import Netlist
from .static_analysis import throughput_bound


#: An objective maps a per-link relay-station assignment to a score to maximise.
Objective = Callable[[Mapping[str, int]], float]
#: A constraint accepts or rejects a per-link assignment.
Constraint = Callable[[Mapping[str, int]], bool]


@dataclass(frozen=True)
class LinkRange:
    """Allowed relay-station counts for one link."""

    minimum: int
    maximum: int

    def __post_init__(self) -> None:
        if self.minimum < 0 or self.maximum < self.minimum:
            raise OptimizationError(
                f"invalid link range [{self.minimum}, {self.maximum}]"
            )

    def values(self) -> range:
        return range(self.minimum, self.maximum + 1)


@dataclass
class SearchSpace:
    """Per-link count ranges plus an optional total-count constraint."""

    ranges: Dict[str, LinkRange]
    total: Optional[int] = None

    @classmethod
    def bounded(
        cls,
        links: Iterable[str],
        maximum: int,
        minimum: int = 0,
        total: Optional[int] = None,
        fixed: Optional[Mapping[str, int]] = None,
    ) -> "SearchSpace":
        """Uniform [minimum, maximum] range on every link, with per-link overrides.

        *fixed* pins specific links to an exact count (e.g. ``{"CU-IC": 0}``
        for the "no CU-IC" rows).
        """
        ranges: Dict[str, LinkRange] = {}
        pinned = dict(fixed or {})
        for link in links:
            if link in pinned:
                ranges[link] = LinkRange(pinned[link], pinned[link])
            else:
                ranges[link] = LinkRange(minimum, maximum)
        return cls(ranges=ranges, total=total)

    def size(self) -> int:
        """Number of assignments ignoring the total-count constraint."""
        product = 1
        for link_range in self.ranges.values():
            product *= len(link_range.values())
        return product

    def clamp(self, assignment: Mapping[str, int]) -> Dict[str, int]:
        """Clamp an assignment into the per-link ranges."""
        return {
            link: min(max(int(assignment.get(link, rng.minimum)), rng.minimum), rng.maximum)
            for link, rng in self.ranges.items()
        }

    def satisfies(self, assignment: Mapping[str, int]) -> bool:
        """True when the assignment respects ranges and the total constraint."""
        for link, rng in self.ranges.items():
            value = assignment.get(link, 0)
            if value < rng.minimum or value > rng.maximum:
                return False
        if self.total is not None and sum(assignment.values()) != self.total:
            return False
        return True


@dataclass
class OptimizationResult:
    """Best assignment found, its score and the search statistics."""

    assignment: Dict[str, int]
    score: float
    evaluations: int
    strategy: str
    history: List[Tuple[Dict[str, int], float]] = field(default_factory=list)

    def as_configuration(self, label: Optional[str] = None) -> RSConfiguration:
        """Package the winning assignment as an :class:`RSConfiguration`."""
        return RSConfiguration.from_mapping(
            self.assignment, label=label or f"optimised ({self.strategy})"
        )


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------

def static_objective(netlist: Netlist) -> Objective:
    """Objective: the static WP1 loop bound (fast, no simulation needed)."""

    def objective(assignment: Mapping[str, int]) -> float:
        config = RSConfiguration.from_mapping(assignment, label="candidate")
        return throughput_bound(netlist, configuration=config).bound_float

    return objective


def simulation_objective(
    run: Callable[[RSConfiguration], float],
) -> Objective:
    """Objective built from a caller-provided simulation runner.

    *run* receives a configuration and returns the throughput to maximise
    (e.g. the WP2 throughput of the extraction-sort workload).  The runner is
    responsible for memoising if needed; the optimiser calls it once per
    distinct assignment it evaluates.  For the common case — "simulate this
    netlist and maximise its throughput" — prefer
    :func:`simulated_throughput_objective`, which shares one elaborated model
    across every evaluation and runs uninstrumented.
    """

    def objective(assignment: Mapping[str, int]) -> float:
        config = RSConfiguration.from_mapping(assignment, label="candidate")
        return run(config)

    return objective


def simulated_throughput_objective(
    netlist: Netlist,
    relaxed: bool = False,
    golden_cycles: Optional[int] = None,
    kernel: Optional[str] = None,
    queue_capacity: Optional[int] = None,
    on_error: str = "raise",
    workers: int = 1,
    service=None,
    priority: int = 0,
    **run_kwargs,
) -> Objective:
    """Objective: the simulated throughput of *netlist* under each assignment.

    Built on :class:`repro.engine.evaluator.BatchEvaluator`: the netlist
    layout is elaborated once, every candidate only re-binds the relay
    chains, and the runs are uninstrumented (no traces, shell stats or
    occupancy tracking), so a search over many assignments pays the
    simulation cost and nothing else.
    *kernel* selects the simulation engine (``"compiled"`` amortises its
    per-shape code generation across the whole search).

    With *golden_cycles* the score is the paper's golden-relative throughput
    (``golden_cycles / cycles``); otherwise it is the system minimum of
    firings per cycle.  ``on_error="zero"`` scores infeasible corners
    (deadlocks, timeouts) as 0.0 instead of raising.  With ``workers > 1``
    the objective's batch entry point (``objective.many``, used by
    :func:`exhaustive_search`) shards its evaluations across worker
    processes.  Remaining keyword arguments are run controls
    (``stop_process``, ``target_firings``, ``max_cycles``, ``horizon``,
    ``steady_state``, ...) — long-horizon objectives (``horizon=100_000``)
    are served by steady-state period detection wherever the netlist
    supports it (see :mod:`repro.engine.steady_state`).

    With *service* (an :class:`~repro.service.EvaluationService`) every
    evaluation is submitted through the shared scheduler instead of a
    private runner: candidates the search revisits (greedy re-probes,
    annealing moves, restarts) are answered from the content-addressed
    result cache, identical candidates submitted by concurrent searches
    deduplicate in flight, and the worker pool is shared with every other
    consumer of the service.  *priority* orders this objective's jobs
    against other submitters.  On either path ``on_error="raise"`` raises a
    :class:`~repro.core.exceptions.SimulationError` on infeasible corners;
    ``"zero"`` scores them 0.0.
    """
    from ..engine.evaluator import BatchEvaluator

    runner_kwargs = {}
    if queue_capacity is not None:
        runner_kwargs["queue_capacity"] = queue_capacity
    evaluator = BatchEvaluator(
        {"candidate": (netlist, relaxed)}, "objective", kernel=kernel,
        workers=workers, service=service, priority=priority, **runner_kwargs,
    )

    def evaluate_many(assignments: Sequence[Mapping[str, int]]) -> List[float]:
        results = evaluator.run(
            [
                ("candidate", RSConfiguration.from_mapping(a, label="candidate"))
                for a in assignments
            ],
            on_error=on_error, **run_kwargs,
        )
        return [result.throughput(golden_cycles) for result in results]

    def evaluate(assignment: Mapping[str, int]) -> float:
        [score] = evaluate_many([assignment])
        return score

    evaluate.many = evaluate_many
    return evaluate


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def exhaustive_search(space: SearchSpace, objective: Objective) -> OptimizationResult:
    """Enumerate every assignment in the space (respecting the total constraint).

    Objectives exposing a ``many(assignments)`` batch entry point (the
    simulated-throughput objectives built on
    :class:`repro.engine.batch.BatchRunner` do) are evaluated through it so
    the whole enumeration can be sharded across worker processes; plain
    callables are evaluated one by one without materialising the space.
    """
    links = sorted(space.ranges)
    best_assignment: Optional[Dict[str, int]] = None
    best_score = -math.inf
    evaluations = 0

    def feasible():
        for combination in itertools.product(
            *(space.ranges[link].values() for link in links)
        ):
            if space.total is not None and sum(combination) != space.total:
                continue
            yield dict(zip(links, combination))

    evaluate_many = getattr(objective, "many", None)
    if evaluate_many is not None:
        assignments = list(feasible())
        scores = evaluate_many(assignments)
        evaluations = len(assignments)
        for assignment, score in zip(assignments, scores):
            if score > best_score:
                best_score = score
                best_assignment = assignment
    else:
        for assignment in feasible():
            score = objective(assignment)
            evaluations += 1
            if score > best_score:
                best_score = score
                best_assignment = assignment
    if best_assignment is None:
        raise OptimizationError("search space contains no feasible assignment")
    return OptimizationResult(
        assignment=best_assignment,
        score=best_score,
        evaluations=evaluations,
        strategy="exhaustive",
    )


def greedy_search(space: SearchSpace, objective: Objective) -> OptimizationResult:
    """Start from the per-link minima and add relay stations where they hurt least.

    If the space has a total-count constraint, relay stations are added until
    the total is met; otherwise the greedy stops as soon as adding anywhere
    would lower the objective.
    """
    assignment = {link: rng.minimum for link, rng in space.ranges.items()}
    score = objective(assignment)
    evaluations = 1
    history = [(dict(assignment), score)]

    def total(a: Mapping[str, int]) -> int:
        return sum(a.values())

    while True:
        if space.total is not None and total(assignment) >= space.total:
            break
        best_link: Optional[str] = None
        best_next_score = -math.inf
        for link, rng in space.ranges.items():
            if assignment[link] >= rng.maximum:
                continue
            candidate = dict(assignment)
            candidate[link] += 1
            candidate_score = objective(candidate)
            evaluations += 1
            if candidate_score > best_next_score:
                best_next_score = candidate_score
                best_link = link
        if best_link is None:
            break
        if space.total is None and best_next_score < score:
            break
        assignment[best_link] += 1
        score = best_next_score
        history.append((dict(assignment), score))

    if space.total is not None and total(assignment) != space.total:
        raise OptimizationError(
            f"greedy search could not reach the required total of {space.total} relay stations"
        )
    return OptimizationResult(
        assignment=assignment,
        score=score,
        evaluations=evaluations,
        strategy="greedy",
        history=history,
    )


def annealing_search(
    space: SearchSpace,
    objective: Objective,
    iterations: int = 500,
    seed: int = 0,
    initial_temperature: float = 0.2,
) -> OptimizationResult:
    """Simulated annealing over the assignment space (deterministic seed).

    Moves transfer one relay station between two links (preserving the total
    when a total constraint is present) or increment/decrement a single link
    otherwise.
    """
    rng = random.Random(seed)
    links = sorted(space.ranges)
    if not links:
        raise OptimizationError("empty search space")

    # Feasible starting point.
    assignment = {link: space.ranges[link].minimum for link in links}
    if space.total is not None:
        deficit = space.total - sum(assignment.values())
        if deficit < 0:
            raise OptimizationError("total constraint below the sum of per-link minima")
        for link in itertools.cycle(links):
            if deficit == 0:
                break
            if assignment[link] < space.ranges[link].maximum:
                assignment[link] += 1
                deficit -= 1
            elif all(
                assignment[other] >= space.ranges[other].maximum for other in links
            ):
                raise OptimizationError("total constraint above the sum of per-link maxima")

    score = objective(assignment)
    evaluations = 1
    best_assignment = dict(assignment)
    best_score = score
    history = [(dict(assignment), score)]

    for step in range(iterations):
        temperature = initial_temperature * (1.0 - step / max(iterations, 1))
        candidate = dict(assignment)
        if space.total is not None:
            donors = [l for l in links if candidate[l] > space.ranges[l].minimum]
            receivers = [l for l in links if candidate[l] < space.ranges[l].maximum]
            if not donors or not receivers:
                break
            donor = rng.choice(donors)
            receiver = rng.choice([l for l in receivers if l != donor] or receivers)
            if donor == receiver:
                continue
            candidate[donor] -= 1
            candidate[receiver] += 1
        else:
            link = rng.choice(links)
            delta = rng.choice((-1, 1))
            candidate[link] = min(
                max(candidate[link] + delta, space.ranges[link].minimum),
                space.ranges[link].maximum,
            )
            if candidate == assignment:
                continue
        candidate_score = objective(candidate)
        evaluations += 1
        accept = candidate_score >= score
        if not accept and temperature > 0:
            accept = rng.random() < math.exp((candidate_score - score) / temperature)
        if accept:
            assignment = candidate
            score = candidate_score
            history.append((dict(assignment), score))
            if score > best_score:
                best_score = score
                best_assignment = dict(assignment)

    return OptimizationResult(
        assignment=best_assignment,
        score=best_score,
        evaluations=evaluations,
        strategy="annealing",
        history=history,
    )


def optimize_configuration(
    netlist: Netlist,
    space: SearchSpace,
    objective: Optional[Objective] = None,
    strategy: str = "auto",
    exhaustive_limit: int = 50_000,
    **strategy_kwargs,
) -> OptimizationResult:
    """Front door: pick a strategy and run it.

    ``strategy="auto"`` uses exhaustive search when the space has at most
    *exhaustive_limit* assignments and greedy otherwise.
    """
    chosen_objective = objective if objective is not None else static_objective(netlist)
    if strategy == "auto":
        strategy = "exhaustive" if space.size() <= exhaustive_limit else "greedy"
    if strategy == "exhaustive":
        return exhaustive_search(space, chosen_objective)
    if strategy == "greedy":
        return greedy_search(space, chosen_objective)
    if strategy == "annealing":
        return annealing_search(space, chosen_objective, **strategy_kwargs)
    raise OptimizationError(f"unknown strategy {strategy!r}")
