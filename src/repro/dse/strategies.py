"""Pluggable search strategies over the cached design space.

The explorer used to sweep the Cartesian space exhaustively, which
wastes exactly the advantage the design cache created: repeated point
evaluations are nearly free, so a *guided* search can afford to revisit
promising neighbourhoods and spend its budget where the objective is
steep.  This module turns the search policy into a first-class object:

``Exhaustive``
    the original behaviour, refactored behind the interface — evaluate
    every feasible point.
``SimulatedAnnealing``
    neighbourhood moves over the array-shape / buffer-size / bandwidth /
    dataflow-set axes with a Metropolis acceptance rule.  Revisits hit
    the in-run memo (and across runs, the design cache), so they cost
    nothing.
``SuccessiveHalving``
    rank every point on a cheap proxy (a strided subset of each model's
    layers), then promote only the top ``1/eta`` survivors to a
    full-fidelity evaluation — two rungs of the Hyperband ladder.

All strategies speak through a :class:`PointEvaluator`, which owns the
models, the technology node and the area screen, memoizes points, and
meters evaluation cost in *full-model-equivalents* so proxy
evaluations are charged fairly.  A strategy's ``run`` is a generator:
each batch of rows it needs is yielded to whoever drives the search —
:func:`complete` in this process (``run_search``), or ``repro serve``'s
event loop, which fans the rows out over its process pool:

>>> sorted(set(STRATEGIES.values()), key=lambda c: c.__name__)
[<class 'repro.dse.strategies.Exhaustive'>, \
<class 'repro.dse.strategies.SimulatedAnnealing'>, \
<class 'repro.dse.strategies.SuccessiveHalving'>]
>>> get_strategy("anneal").name
'anneal'

Typical use goes through :func:`run_search`:

>>> from repro.dse.explorer import DesignSpace
>>> from repro.models import zoo
>>> space = DesignSpace(arrays=((8, 8),), buffer_kb=(128.0,),
...                     dataflow_sets=(("ICOC",), ("MN", "ICOC")))
>>> result = run_search([zoo.lenet()], space, strategy="exhaustive")
>>> result.points_evaluated, result.space_size
(2, 2)
>>> result.best is result.points[0]
True
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..models.layers import Model
from ..obs import trace_span
from .explorer import DesignPoint, DesignSpace, pareto_front

__all__ = [
    "OBJECTIVES", "PointEvaluator", "SearchResult",
    "SearchStrategy", "Exhaustive", "SimulatedAnnealing",
    "SuccessiveHalving", "STRATEGIES", "get_strategy", "run_search",
    "search", "complete",
]

#: Objective name -> sort key (lower is better) on a :class:`DesignPoint`.
OBJECTIVES = {
    "edp": lambda p: p.edp,
    "latency": lambda p: p.cycles,
    "energy": lambda p: p.energy_pj,
    "throughput": lambda p: -p.gops,
}


class PointEvaluator:
    """Meters and memoizes design-point evaluations for the strategies.

    Owns everything a strategy should *not* care about: the model list,
    the technology node, the area-budget screen, the worker pool and the
    (optional cross-run) design cache.  Strategies only propose
    architectures; the evaluator answers with :class:`DesignPoint`
    objects — or ``None`` for degenerate points (zero cycles or energy),
    which are counted in :attr:`degenerate_skipped` instead of being
    reported as bogus 1-watt designs.

    Cost accounting: :attr:`evals_used` is normalized to
    *full-model-list equivalents* (one unit = evaluating every layer of
    every model on one architecture), so a proxy evaluation on a quarter
    of the layers charges 0.25.  :attr:`points_evaluated` counts
    distinct full-fidelity architectures.
    """

    def __init__(self, models, tech=None, cache=None, workers: int = 1,
                 area_budget_mm2: float | None = None,
                 objective: str = "edp"):
        from ..sim.energy_model import TSMC28

        if objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}; "
                             f"expected {sorted(OBJECTIVES)}")
        self.models = list(models)
        self.tech = tech or TSMC28
        self.cache = cache
        self.workers = workers
        self.area_budget_mm2 = area_budget_mm2
        self.objective = objective
        self.key = OBJECTIVES[objective]
        self._full_cost = sum(len(m.layers) for m in self.models) or 1
        self._memo: dict[tuple, DesignPoint | None] = {}
        self._full_points: dict = {}  # arch -> DesignPoint, full fidelity
        self.evals_used = 0.0
        self.points_evaluated = 0
        self.degenerate_skipped = 0

    # -- feasibility ---------------------------------------------------------

    def feasible(self, arch) -> bool:
        """Cheap area screen: MACs + SRAM must fit the budget."""
        if self.area_budget_mm2 is None:
            return True
        from ..sim.energy_model import sram_model

        mac_area = arch.n_fus * self.tech.mult_area_per_bit2 * 64
        sram_area = sram_model(self.tech, arch.buffer_kb, 64, 16)["area_um2"]
        return (mac_area + sram_area) / 1e6 <= self.area_budget_mm2

    def candidates(self, space: DesignSpace) -> list:
        """Every point of *space* that passes the area screen."""
        return [arch for arch in space.points() if self.feasible(arch)]

    # -- proxy fidelity ------------------------------------------------------

    def cost_fraction(self, models) -> float:
        """Cost of evaluating *models* on one arch, in full-model units."""
        return sum(len(m.layers) for m in models) / self._full_cost

    def proxy_models(self, fraction: float = 0.25) -> list[Model]:
        """A cheap ranking proxy: every model reduced to a strided subset
        of roughly ``fraction`` of its layers.  Rankings transfer because
        per-layer optima vary slowly across the space; the survivors are
        re-scored at full fidelity anyway."""
        stride = max(1, round(1.0 / max(fraction, 1e-9)))
        proxies = []
        for m in self.models:
            layers = m.layers[::stride] or m.layers[:1]
            proxies.append(Model(f"{m.name}#proxy{stride}", tuple(layers)))
        return proxies

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, archs, models=None) -> list[DesignPoint | None]:
        """Evaluate *archs* (full fidelity unless a *models* subset is
        given); returns one point (or ``None`` if degenerate) per arch,
        in order.  Within-run revisits are free; cold points route
        through the service engine (parallel workers + design cache)."""
        return complete(self.evaluating(archs, models), self.workers,
                        self.cache)

    def evaluating(self, archs, models=None):
        """:meth:`evaluate` as a generator, the form strategies use:
        when some of *archs* are not memoized it yields one ``(models,
        archs, tech)`` row request for them and expects their rows sent
        back (:func:`~repro.service.engine.evaluate_archs`'s), then
        returns the points."""
        full = models is None
        models = self.models if full else list(models)
        mkey = tuple((m.name, len(m.layers)) for m in models)
        cost = self.cost_fraction(models)

        archs = list(archs)
        todo, seen = [], set()
        for arch in archs:
            if (mkey, arch) not in self._memo and arch not in seen:
                todo.append(arch)
                seen.add(arch)
        rows = (yield models, todo, self.tech) if todo else []
        for arch, row in zip(todo, rows):
            point = self._to_point(arch, row)
            self._memo[(mkey, arch)] = point
            self.evals_used += cost
            if full:
                self.points_evaluated += 1
                if point is not None:
                    self._full_points[arch] = point
        return [self._memo[(mkey, arch)] for arch in archs]

    def _to_point(self, arch, row) -> DesignPoint | None:
        cycles, energy, ops = row["cycles"], row["energy_pj"], row["ops"]
        if cycles <= 0.0 or energy <= 0.0:
            # A zero-cycle/zero-energy result is a modelling degenerate
            # (e.g. an empty model); reporting it as a 1 W, 0-GOPS design
            # would let it win any EDP sort.  Skip and count it.
            self.degenerate_skipped += 1
            return None
        seconds = cycles / (arch.freq_mhz * 1e6)
        gops = ops / seconds / 1e9
        watts = energy * 1e-12 / seconds
        return DesignPoint(arch=arch, gops=gops,
                           gops_per_watt=gops / watts if watts else 0.0,
                           cycles=cycles, energy_pj=energy)

    def sorted_points(self) -> list[DesignPoint]:
        """All full-fidelity points seen so far, best-first."""
        return sorted(self._full_points.values(), key=self.key)

    def result(self, strategy_name: str,
               space: DesignSpace) -> "SearchResult":
        """Package the evaluator's current score as a `SearchResult`."""
        return SearchResult(strategy=strategy_name,
                            objective=self.objective,
                            points=self.sorted_points(),
                            evals_used=round(self.evals_used, 6),
                            points_evaluated=self.points_evaluated,
                            space_size=space.size(),
                            degenerate_skipped=self.degenerate_skipped)


@dataclass(frozen=True)
class SearchResult:
    """What a strategy run produced, plus its metered cost."""

    strategy: str
    objective: str
    #: full-fidelity points actually evaluated, sorted best-first
    points: list[DesignPoint]
    #: normalized cost: 1.0 = one full-model-list point evaluation
    evals_used: float
    #: distinct full-fidelity architectures evaluated
    points_evaluated: int
    #: size of the (unscreened) Cartesian space
    space_size: int
    degenerate_skipped: int = 0

    @property
    def best(self) -> DesignPoint | None:
        return self.points[0] if self.points else None

    def to_json(self) -> dict:
        """The result record: an ``/explore`` job's result, and what
        ``repro explore`` prints from, in-process or over ``--url``
        (``pareto`` is the latency/energy frontier of ``points``)."""
        return {"strategy": self.strategy, "objective": self.objective,
                "evals_used": self.evals_used,
                "points_evaluated": self.points_evaluated,
                "space_size": self.space_size,
                "degenerate_skipped": self.degenerate_skipped,
                "best": _point_to_json(self.best) if self.best else None,
                "points": [_point_to_json(p) for p in self.points],
                "pareto": [_point_to_json(p)
                           for p in pareto_front(self.points)]}


def _point_to_json(point: DesignPoint) -> dict:
    arch = point.arch
    return {"arch": {"name": arch.name, "array": list(arch.array),
                     "buffer_kb": arch.buffer_kb,
                     "dram_gbps": arch.dram_gbps,
                     "freq_mhz": arch.freq_mhz,
                     "dataflows": list(arch.dataflows)},
            "gops": point.gops, "gops_per_watt": point.gops_per_watt,
            "cycles": point.cycles, "energy_pj": point.energy_pj,
            "edp": point.edp}


class SearchStrategy:
    """Protocol for pluggable searches: implement :meth:`run`.

    A strategy receives the evaluator, the space, a seeded
    ``random.Random`` and an optional evaluation budget.  ``run`` is a
    generator: it proposes architectures with ``points = yield from
    evaluator.evaluating(archs)`` and returns nothing — the evaluator
    keeps the score.
    """

    name = "strategy"

    def run(self, evaluator: PointEvaluator, space: DesignSpace,
            rng: random.Random, max_evals: int | None = None) -> None:
        raise NotImplementedError


class Exhaustive(SearchStrategy):
    """Evaluate every feasible point (the pre-strategy behaviour).

    With ``max_evals`` smaller than the space it degrades to uniform
    random sampling — an unbiased budget baseline — rather than
    silently evaluating a lexicographic prefix of the product order.
    """

    name = "exhaustive"

    def run(self, evaluator, space, rng, max_evals=None):
        archs = evaluator.candidates(space)
        if max_evals is not None and len(archs) > max_evals:
            archs = rng.sample(archs, max_evals)
        yield from evaluator.evaluating(archs)


class SimulatedAnnealing(SearchStrategy):
    """Metropolis annealing over the space's index grid.

    A state is one index per axis (arrays, buffer_kb, dram_gbps,
    dataflow_sets); a move perturbs one axis — half the time a ±1 step
    (locality on ordered axes like buffer size), half the time a fresh
    draw (mixing on categorical axes like dataflow sets).  Worse moves
    are accepted with probability ``exp(-relative_delta / T)`` under a
    geometric cooling schedule.  Restarts split the budget; revisited
    states cost nothing thanks to the evaluator memo, so the warm design
    cache makes repeated guided runs nearly free.
    """

    name = "anneal"

    def __init__(self, restarts: int = 2, t0: float = 0.08,
                 t_end: float = 1e-3):
        self.restarts = max(1, restarts)
        self.t0 = t0
        self.t_end = t_end

    def run(self, evaluator, space, rng, max_evals=None):
        axes = space.axes()
        sizes = [len(axis) for axis in axes]
        total = space.size()
        budget = max_evals if max_evals is not None \
            else max(1, math.ceil(0.25 * total))

        def evaluate(idx):
            arch = space.point_at(idx)
            if not evaluator.feasible(arch):
                return None
            [point] = yield from evaluator.evaluating([arch])
            return point

        def random_state():
            return tuple(rng.randrange(n) for n in sizes)

        def neighbour(idx):
            movable = [i for i, n in enumerate(sizes) if n > 1]
            if not movable:
                return idx
            axis = rng.choice(movable)
            cur = idx[axis]
            if rng.random() < 0.5 and sizes[axis] > 2:
                # Local step, clamped at the ends: ordered axes (buffer
                # size, bandwidth) must not wrap min->max.
                step = rng.choice((-1, 1))
                nxt = min(max(cur + step, 0), sizes[axis] - 1)
                if nxt == cur:
                    nxt = cur - step
            else:
                nxt = rng.randrange(sizes[axis] - 1)
                if nxt >= cur:
                    nxt += 1
            out = list(idx)
            out[axis] = nxt
            return tuple(out)

        steps_per_restart = max(1, budget // self.restarts)
        decay = self.t_end / self.t0
        guard = 50 * budget  # proposals, not evaluations

        for _ in range(self.restarts):
            if evaluator.points_evaluated >= budget:
                break
            state, current = None, None
            for _ in range(4 * max(total, 1)):  # find a feasible start
                state = random_state()
                current = yield from evaluate(state)
                if current is not None:
                    break
                if evaluator.points_evaluated >= budget:
                    return
            if current is None:
                continue
            start_evals = evaluator.points_evaluated
            while evaluator.points_evaluated < budget and guard > 0:
                guard -= 1
                cand_state = neighbour(state)
                cand = yield from evaluate(cand_state)
                # Cool by *consumed budget*, not by proposal count: free
                # memo revisits and infeasible moves must not freeze the
                # schedule before the evaluation budget is spent.
                spent = evaluator.points_evaluated - start_evals
                temp = max(self.t0 * decay ** (spent / steps_per_restart),
                           self.t_end)
                if cand is None:
                    continue
                old, new = evaluator.key(current), evaluator.key(cand)
                scale = max(abs(old), 1e-30)
                delta = (new - old) / scale
                if delta <= 0 or rng.random() < math.exp(-delta / temp):
                    state, current = cand_state, cand


class SuccessiveHalving(SearchStrategy):
    """Two-rung successive halving: proxy sweep, then promotion.

    Rung 0 scores *every* feasible point on the cheap proxy models
    (:meth:`PointEvaluator.proxy_models`, ~``proxy_fraction`` of the
    layers, so a point costs ~``proxy_fraction`` of a full evaluation).
    Rung 1 promotes the top ``1/eta`` of the proxy ranking to the full
    model list.  Total cost ≈ ``(proxy_fraction + 1/eta) * N`` full
    evaluations versus the exhaustive ``N``.

    ``max_evals`` bounds the *total* metered cost: when the budget is
    smaller than a full proxy sweep plus the promotions, rung 0 is
    randomly subsampled so sweep + promotions stay within it (a minimum
    of one promoted evaluation always runs).
    """

    name = "halving"

    def __init__(self, eta: int = 8, proxy_fraction: float = 0.25):
        if eta < 2:
            raise ValueError(f"eta must be >= 2, got {eta}")
        self.eta = eta
        self.proxy_fraction = proxy_fraction

    def run(self, evaluator, space, rng, max_evals=None):
        archs = evaluator.candidates(space)
        if not archs:
            return
        proxies = evaluator.proxy_models(self.proxy_fraction)
        if max_evals is not None:
            # Budget the proxy sweep too: leave room for at least one
            # full-fidelity promotion.
            per_point = max(evaluator.cost_fraction(proxies), 1e-9)
            limit = max(1, int((max_evals - 1) / per_point))
            if len(archs) > limit:
                archs = rng.sample(archs, limit)
        scores = yield from evaluator.evaluating(archs, models=proxies)
        scored = [(evaluator.key(p), i) for i, p in enumerate(scores)
                  if p is not None]
        scored.sort()
        ranked = [archs[i] for _, i in scored]
        survivors = max(1, math.ceil(len(ranked) / self.eta))
        if max_evals is not None:
            remaining = int(max_evals - evaluator.evals_used)
            survivors = max(1, min(survivors, remaining))
        yield from evaluator.evaluating(ranked[:survivors])


#: Registry of named strategies (CLI ``--strategy`` values + aliases).
STRATEGIES: dict[str, type[SearchStrategy]] = {
    "exhaustive": Exhaustive,
    "anneal": SimulatedAnnealing,
    "annealing": SimulatedAnnealing,
    "halving": SuccessiveHalving,
    "sh": SuccessiveHalving,
}


def get_strategy(spec, **kwargs) -> SearchStrategy:
    """Resolve *spec* — a strategy instance, or a registry name — into a
    ready-to-run strategy.  Keyword arguments go to the constructor.

    >>> get_strategy("halving", eta=4).eta
    4
    >>> get_strategy(Exhaustive()).name
    'exhaustive'
    """
    if isinstance(spec, SearchStrategy):
        return spec
    try:
        cls = STRATEGIES[spec.lower()]
    except (KeyError, AttributeError):
        raise ValueError(f"unknown strategy {spec!r}; "
                         f"expected one of {sorted(STRATEGIES)} "
                         "or a SearchStrategy instance") from None
    return cls(**kwargs)


def search(models, space: DesignSpace | None = None,
           strategy="exhaustive", objective: str = "edp",
           area_budget_mm2: float | None = None, tech=None,
           max_evals: int | None = None, seed: int = 0):
    """:func:`run_search` as a generator: it yields each ``(models,
    archs, tech)`` row request of the search, expects the rows sent
    back, and returns the :class:`SearchResult`.  :func:`complete`
    drives it in this process; ``repro serve`` drives it from its event
    loop, sending the rows of each request to its process pool."""
    space = space or DesignSpace()
    strat = get_strategy(strategy)
    evaluator = PointEvaluator(models, tech=tech,
                               area_budget_mm2=area_budget_mm2,
                               objective=objective)
    with trace_span("dse:search", strategy=strat.name,
                    objective=objective):
        yield from strat.run(evaluator, space, random.Random(seed),
                             max_evals=max_evals)
    return evaluator.result(strat.name, space)


def complete(steps, workers: int = 1, cache=None):
    """Drive *steps* — a :func:`search` or one
    :meth:`PointEvaluator.evaluating` — to its end in this process,
    answering every row request with
    :func:`~repro.service.engine.evaluate_archs` (*workers* processes,
    *cache*), and return its value."""
    from ..service.engine import evaluate_archs

    rows = None
    try:
        while True:
            models, archs, tech = steps.send(rows)
            rows = evaluate_archs(models, archs, tech, workers=workers,
                                  cache=cache)
    except StopIteration as stop:
        return stop.value
    finally:
        steps.close()


def run_search(models, space: DesignSpace | None = None,
               strategy="exhaustive", objective: str = "edp",
               area_budget_mm2: float | None = None, tech=None,
               workers: int = 1, cache=None,
               max_evals: int | None = None,
               seed: int = 0) -> SearchResult:
    """Search *space* on *models* (a list of zoo models) with one
    strategy and return the :class:`SearchResult`: the evaluated points
    sorted best-first by *objective* (``edp`` | ``latency`` | ``energy``
    | ``throughput``) plus the metered cost.

    *strategy* is ``"exhaustive"`` (every feasible point), ``"anneal"``,
    ``"halving"`` or any :class:`SearchStrategy` instance; *max_evals*
    bounds the guided strategies' full-fidelity budget.  ``workers > 1``
    fans point evaluations across a process pool, and a
    :class:`~repro.service.cache.DesignCache` *cache* memoizes them, so
    repeated explorations (the LEGO-in-series-with-DSE loop) skip
    re-evaluation.

    A search is a deterministic function of its arguments: every
    proposal is drawn from ``random.Random(seed)`` and every decision
    depends only on that stream and the evaluated rows.  So rerunning an
    interrupted search over the same *cache* is its resume path — it
    replays the same evaluations, and the rows the first run stored come
    back as cache hits.
    """
    return complete(search(models, space, strategy, objective,
                           area_budget_mm2, tech, max_evals, seed),
                    workers, cache)
