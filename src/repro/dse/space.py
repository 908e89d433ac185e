"""The SUIT design space: genomes, search specs and variation operators.

A :class:`Genome` is one candidate operating point — deadline, strategy,
efficient-curve offset, process-variation corner and IMUL pipeline
latency — with every gene drawn from the discrete grids of a
:class:`DseSpec`.  Discrete grids keep the evolutionary search honest
about what the platform can actually program (MSR granularity, Table 7
parameter steps), make genomes content-addressable for deduplication,
and let a whole generation batch through ``simulate_sweep`` per
deadline group.

Genome *canonicalization* folds genes that cannot influence the
phenotype: the emulation strategy ``e`` never arms the deadline timer
and always ships the paper's default +1-cycle IMUL hardening, so every
``e`` genome canonicalizes to one deadline/latency — revisited points
collapse onto one cache entry instead of re-simulating.

All identity is sha256-based (:meth:`Genome.canonical_key`,
:meth:`DseSpec.digest`): no salted ``hash()``, no dict-order
dependence, so reports are byte-identical across ``PYTHONHASHSEED``
values (the regression suite runs a generation under two different
hash seeds and compares bytes).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from repro.runtime.study import StudySpec

#: Strategies a genome may select (matches the service / CLI set).
KNOWN_STRATEGIES: Tuple[str, ...] = ("fV", "f", "V", "e")

#: Process-variation corners: uniform margin shift in units of the
#: fault model's per-chip sigma.  Negative = strong silicon (margins
#: move away from the curve), positive = weak silicon.
CORNER_SIGMA_SHIFTS: Dict[str, float] = {
    "fast": -1.5,
    "typical": 0.0,
    "slow": 1.5,
    "worst": 3.0,
}

#: Baseline IMUL pipeline latency (cycles) — latency 3 means *no* SUIT
#: hardening; each extra cycle deepens IMUL's Vmin margin and raises
#: the static latency tax.
IMUL_BASE_LATENCY = 3

#: Canonical deadline/latency the ``e`` strategy folds onto: emulation
#: never arms the timer and always uses the paper's +1-cycle hardening.
E_CANONICAL_DEADLINE_US = 30.0
E_CANONICAL_IMUL_LATENCY = 4

#: Identity domain tags; bump when the canonical layout changes.
_GENOME_DOMAIN = "repro.dse.genome.v1"
_SPEC_SCHEMA = "repro.dse.spec.v1"


@dataclass(frozen=True)
class Genome:
    """One candidate SUIT operating point.

    Attributes:
        deadline_us: ``p_dl`` in microseconds (Table 7 knob).
        strategy: operating strategy short name ("fV", "f", "V", "e").
        offset_mv: efficient-curve offset in millivolts (negative).
        corner: process-variation corner (see
            :data:`CORNER_SIGMA_SHIFTS`).
        imul_latency: IMUL pipeline latency in cycles; 3 = unhardened,
            4 = the paper's +1-stage hardening.
    """

    deadline_us: float
    strategy: str
    offset_mv: float
    corner: str
    imul_latency: int

    def __post_init__(self) -> None:
        if self.strategy not in KNOWN_STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.corner not in CORNER_SIGMA_SHIFTS:
            raise ValueError(f"unknown corner {self.corner!r}; "
                             f"know {sorted(CORNER_SIGMA_SHIFTS)}")
        if self.deadline_us <= 0:
            raise ValueError("deadline must be positive")
        if self.offset_mv >= 0:
            raise ValueError("offset_mv must be negative (an undervolt)")
        if self.imul_latency < IMUL_BASE_LATENCY:
            raise ValueError(
                f"imul_latency must be >= {IMUL_BASE_LATENCY}")

    @property
    def imul_extra_cycles(self) -> int:
        """Extra pipeline cycles over the unhardened baseline."""
        return self.imul_latency - IMUL_BASE_LATENCY

    def canonical(self) -> "Genome":
        """The phenotype-equivalent canonical form.

        The ``e`` strategy ignores the deadline (no timer) and always
        carries the default hardening, so those genes fold onto fixed
        canonical values — different raw genomes with identical
        behaviour share one evaluation and one cache entry.
        """
        if self.strategy == "e":
            return replace(self, deadline_us=E_CANONICAL_DEADLINE_US,
                           imul_latency=E_CANONICAL_IMUL_LATENCY)
        return self

    def to_json_dict(self) -> dict:
        """Plain-JSON form (round-trips through :meth:`from_json_dict`)."""
        return {
            "deadline_us": float(self.deadline_us),
            "strategy": self.strategy,
            "offset_mv": float(self.offset_mv),
            "corner": self.corner,
            "imul_latency": int(self.imul_latency),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Genome":
        """Rebuild a genome from :meth:`to_json_dict` output."""
        known = set(cls.__dataclass_fields__)  # type: ignore[attr-defined]
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown genome field(s): {sorted(unknown)}")
        return cls(**payload)

    def canonical_key(self) -> str:
        """sha256 content address of the canonical form (64 hex chars).

        This is the deduplication / checkpoint identity; it must never
        depend on ``hash()`` or dict iteration order.
        """
        material = {"domain": _GENOME_DOMAIN,
                    "genome": self.canonical().to_json_dict()}
        canonical = json.dumps(material, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Compact human-readable form for tables and logs."""
        return (f"{self.strategy}@{self.offset_mv:g}mV "
                f"dl={self.deadline_us:g}us imul={self.imul_latency} "
                f"{self.corner}")


@dataclass(frozen=True)
class DseSpec(StudySpec):
    """One design-space search, declaratively.

    Attributes:
        name: search name (seeds, file names, reports).
        cpu: paper CPU short name ("A", "B", "C", "i5").
        workload: workload profile searched over.
        seed: master seed; the whole search is a pure function of it.
        generations: evolutionary generations to run.
        population: genomes per generation (>= 4).
        n_cores: active cores sharing the workload.
        deadlines_us: deadline gene grid (microseconds, ascending).
        strategies: strategy gene choices.
        offsets_mv: offset gene grid (millivolts, negative).
        corners: process-variation corner choices.
        imul_latencies: IMUL pipeline latency grid (cycles).
        mutation_rate: per-gene mutation probability.
        crossover_rate: probability a child is recombined at all.
        weights: MCDM weights (performance, energy, security margin).
        security_floor_mv: minimum kept-instruction margin (mV) a
            feasible operating point must preserve; smaller margins
            count as security-invariant violations.
    """

    name: str
    cpu: str = "C"
    workload: str = "nginx"
    seed: int = 0
    generations: int = 4
    population: int = 16
    n_cores: int = 1
    deadlines_us: Tuple[float, ...] = (10.0, 20.0, 30.0, 50.0, 100.0,
                                       200.0, 450.0, 700.0)
    strategies: Tuple[str, ...] = ("fV", "f", "V", "e")
    offsets_mv: Tuple[float, ...] = (-50.0, -70.0, -85.0, -97.0,
                                     -110.0, -125.0, -140.0, -160.0)
    corners: Tuple[str, ...] = ("fast", "typical", "slow", "worst")
    imul_latencies: Tuple[int, ...] = (3, 4, 5, 6)
    mutation_rate: float = 0.25
    crossover_rate: float = 0.9
    weights: Tuple[float, float, float] = (0.45, 0.3, 0.25)
    security_floor_mv: float = 100.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a search needs a name")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.population < 4:
            raise ValueError("population must be >= 4")
        if self.n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        for grid, label in ((self.deadlines_us, "deadlines_us"),
                            (self.strategies, "strategies"),
                            (self.offsets_mv, "offsets_mv"),
                            (self.corners, "corners"),
                            (self.imul_latencies, "imul_latencies")):
            if not grid:
                raise ValueError(f"{label} grid must not be empty")
            if len(set(grid)) != len(grid):
                raise ValueError(f"{label} grid has duplicates")
        if any(d <= 0 for d in self.deadlines_us):
            raise ValueError("deadlines must be positive")
        unknown = set(self.strategies) - set(KNOWN_STRATEGIES)
        if unknown:
            raise ValueError(f"unknown strategies: {sorted(unknown)}")
        if any(o >= 0 for o in self.offsets_mv):
            raise ValueError("offsets_mv must be negative (undervolts)")
        unknown = set(self.corners) - set(CORNER_SIGMA_SHIFTS)
        if unknown:
            raise ValueError(f"unknown corners: {sorted(unknown)}")
        if any(latency < IMUL_BASE_LATENCY
               for latency in self.imul_latencies):
            raise ValueError(
                f"IMUL latencies must be >= {IMUL_BASE_LATENCY}")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be a probability")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be a probability")
        if len(self.weights) != 3:
            raise ValueError("weights are (performance, energy, security)")
        if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ValueError("weights must be non-negative, not all zero")
        if self.security_floor_mv < 0:
            raise ValueError("security_floor_mv must be non-negative")

    def canonical_json(self) -> str:
        """Deterministic serialization (digest input), schema-tagged."""
        return json.dumps({"schema": _SPEC_SCHEMA,
                           "spec": self.to_json_dict()},
                          sort_keys=True, separators=(",", ":"))


# -- variation operators --------------------------------------------------

def random_genome(spec: DseSpec, rng: np.random.Generator) -> Genome:
    """Sample one genome uniformly from the spec's grids.

    Draw order is fixed (deadline, strategy, offset, corner, latency)
    so populations are reproducible for a given generator state.
    """
    return Genome(
        deadline_us=float(spec.deadlines_us[
            int(rng.integers(len(spec.deadlines_us)))]),
        strategy=str(spec.strategies[
            int(rng.integers(len(spec.strategies)))]),
        offset_mv=float(spec.offsets_mv[
            int(rng.integers(len(spec.offsets_mv)))]),
        corner=str(spec.corners[int(rng.integers(len(spec.corners)))]),
        imul_latency=int(spec.imul_latencies[
            int(rng.integers(len(spec.imul_latencies)))]),
    )


def _step(grid: Tuple, value, rng: np.random.Generator):
    """Move one step up or down an ordinal grid (clipped at the ends)."""
    index = grid.index(value)
    index += 1 if rng.random() < 0.5 else -1
    return grid[min(max(index, 0), len(grid) - 1)]


def _resample(grid: Tuple, value, rng: np.random.Generator):
    """Draw a different categorical value (no-op on 1-element grids)."""
    if len(grid) == 1:
        return value
    choices = [g for g in grid if g != value]
    return choices[int(rng.integers(len(choices)))]


def mutate(genome: Genome, spec: DseSpec,
           rng: np.random.Generator) -> Genome:
    """Mutate each gene with probability ``spec.mutation_rate``.

    Ordinal genes (deadline, offset, IMUL latency) take one grid step;
    categorical genes (strategy, corner) resample a different value.
    Every gene draws its mutation coin in fixed order so the operator
    is a pure function of the generator state.
    """
    deadline = genome.deadline_us
    if rng.random() < spec.mutation_rate:
        deadline = float(_step(spec.deadlines_us, deadline, rng))
    strategy = genome.strategy
    if rng.random() < spec.mutation_rate:
        strategy = str(_resample(spec.strategies, strategy, rng))
    offset = genome.offset_mv
    if rng.random() < spec.mutation_rate:
        offset = float(_step(spec.offsets_mv, offset, rng))
    corner = genome.corner
    if rng.random() < spec.mutation_rate:
        corner = str(_resample(spec.corners, corner, rng))
    latency = genome.imul_latency
    if rng.random() < spec.mutation_rate:
        latency = int(_step(spec.imul_latencies, latency, rng))
    return Genome(deadline_us=deadline, strategy=strategy,
                  offset_mv=offset, corner=corner, imul_latency=latency)


def crossover(a: Genome, b: Genome,
              rng: np.random.Generator) -> Genome:
    """Uniform crossover: each gene comes from either parent (p = 0.5)."""
    genes_a = a.to_json_dict()
    genes_b = b.to_json_dict()
    child = {key: (genes_a if rng.random() < 0.5 else genes_b)[key]
             for key in ("deadline_us", "strategy", "offset_mv",
                         "corner", "imul_latency")}
    return Genome.from_json_dict(child)


# -- canned searches ------------------------------------------------------

#: Canned searches shipped with the reproduction.  ``nginx_pareto`` is
#: the ISSUE's end-to-end golden: 4 generations x 16 genomes over the
#: nginx trace, whose recommendation must land in the paper-consistent
#: region (offset near -97 mV, zero violations on the frontier).
CANNED_SEARCHES: Dict[str, DseSpec] = {
    "nginx_pareto": DseSpec(
        name="nginx_pareto",
        cpu="C",
        workload="nginx",
        generations=4,
        population=16,
    ),
    "nginx_quick": DseSpec(
        name="nginx_quick",
        cpu="C",
        workload="nginx",
        generations=2,
        population=8,
    ),
}


def canned_search(name: str) -> DseSpec:
    """Look up a canned search (ValueError with the catalogue if unknown)."""
    try:
        return CANNED_SEARCHES[name]
    except KeyError:
        raise ValueError(
            f"unknown canned search {name!r}; know "
            f"{sorted(CANNED_SEARCHES)} (or pass a spec file path)")


def load_search(path: Path) -> DseSpec:
    """Load a search spec from a ``.json`` file."""
    with open(Path(path), encoding="utf-8") as handle:
        payload = json.load(handle)
    if "search" in payload and isinstance(payload["search"], dict):
        payload = payload["search"]
    return DseSpec.from_json_dict(payload)


def resolve_search(name_or_path: str) -> DseSpec:
    """A canned search name, or a path to a JSON spec file."""
    if name_or_path in CANNED_SEARCHES:
        return CANNED_SEARCHES[name_or_path]
    path = Path(name_or_path)
    if path.exists():
        return load_search(path)
    return canned_search(name_or_path)  # raises with the catalogue
