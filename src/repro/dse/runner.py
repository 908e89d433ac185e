"""The evolutionary search loop: NSGA-II over the SUIT design space.

:class:`DseRunner` drives a (mu + lambda) NSGA-II: each generation
breeds ``population`` offspring by binary tournament on (front rank,
crowding distance), uniform crossover and per-gene grid mutation, then
survivor-selects the best ``population`` of parents + offspring by
non-dominated front and crowding.  Every random draw comes from a
per-generation stream seeded with
``derive_seed(spec.seed, "dse.gen:<g>")`` — sha256-based, so the whole
trajectory is a pure function of the spec (and independent of
``PYTHONHASHSEED``, pool composition and resume points).

Like the campaign runner, :class:`DseRunner` is a
:class:`~repro.runtime.study.Study`: an atomic ``dse.ckpt.json``
rewritten after every completed generation (resume is byte-identical —
the checkpoint stores populations and the simulation memo, and every
derived number is recomputed from those), a timestamp-free
``dse_report.json`` and a standalone HTML dashboard.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.dse import mcdm, pareto
from repro.dse.evaluate import LocalEvalBackend, build_record
from repro.dse.objectives import REFERENCE_POINT
from repro.dse.space import DseSpec, Genome, crossover, mutate, random_genome
from repro.obs.profiling import profiled
from repro.obs.registry import get_registry
from repro.runtime.seeding import derive_seed
from repro.runtime.study import HTML_NAME  # noqa: F401 - re-exported
from repro.runtime.study import Study

#: Schema tags; bump on layout changes so stale artifacts fail loudly.
CKPT_SCHEMA = "repro.dse-checkpoint.v1"
REPORT_SCHEMA = "repro.dse-report.v1"

CKPT_NAME = "dse.ckpt.json"
REPORT_NAME = "dse_report.json"


def load_checkpoint_spec(out_dir: Path) -> DseSpec:
    """The search recorded in *out_dir*'s checkpoint — lets
    ``dse resume --out DIR`` continue without re-passing the spec."""
    return DseRunner.load_checkpoint_spec(out_dir)


def _genome_counter():
    return get_registry().counter(
        "dse_genomes_total",
        "DSE genome evaluations, by evaluation path.",
        label_names=("path",))


def _generation_counter():
    return get_registry().counter(
        "dse_generations_total",
        "DSE generations completed.")


class DseRunner(Study):
    """Executes one design-space search.

    Args:
        spec: the search definition.
        out_dir: artifact directory (checkpoint, report, HTML).  None
            runs fully in memory (no checkpoint, no resume).
        jobs: worker processes for the local evaluation backend;
            ignored when *backend* is supplied.
        backend: evaluation backend; defaults to a
            :class:`~repro.dse.evaluate.LocalEvalBackend`.
    """

    CKPT_NAME = CKPT_NAME
    CKPT_SCHEMA = CKPT_SCHEMA
    REPORT_NAME = REPORT_NAME
    SPEC_TYPE = DseSpec
    KIND = "DSE"
    SPEC_NOUN = "search"

    def __init__(self, spec: DseSpec, out_dir: Optional[Path] = None,
                 jobs: int = 1, backend=None) -> None:
        """See class docstring."""
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        super().__init__(spec, out_dir)
        self.backend = backend if backend is not None \
            else LocalEvalBackend(spec, jobs=jobs)
        #: One entry per completed generation: the population's genome
        #: dicts in breeding order.
        self.populations: List[List[dict]] = []

    def _checkpoint_state(self) -> dict:
        return {"generations": self.populations,
                "sims": {key: self.backend.sims[key]
                         for key in sorted(self.backend.sims)}}

    def _restore(self, payload: dict) -> None:
        self.populations = [list(generation)
                            for generation in payload.get("generations", [])]
        self.backend.sims.update(payload.get("sims", {}))

    # -- evolutionary machinery ------------------------------------------

    def _rng_for(self, generation: int) -> np.random.Generator:
        """The generation's private random stream (sha256-derived)."""
        return np.random.default_rng(
            derive_seed(self.spec.seed, f"dse.gen:{generation}"))

    @staticmethod
    def _rank_and_crowd(records: List[dict]):
        """Front rank and crowding distance per record."""
        points = [r["objectives"] for r in records]
        violations = [r["violation_mv"] for r in records]
        fronts = pareto.non_dominated_sort(points, violations)
        rank = [0] * len(records)
        crowd = [0.0] * len(records)
        for front_i, front in enumerate(fronts):
            distances = pareto.crowding_distance([points[i] for i in front])
            for i, distance in zip(front, distances):
                rank[i] = front_i
                crowd[i] = distance
        return rank, crowd

    def _offspring(self, parents: List[Genome], records: List[dict],
                   rng: np.random.Generator) -> List[Genome]:
        """Breed one offspring population by binary tournament."""
        rank, crowd = self._rank_and_crowd(records)

        def tournament() -> Genome:
            i = int(rng.integers(len(parents)))
            j = int(rng.integers(len(parents)))
            # Lower rank wins; ties break on larger crowding, then on
            # the earlier index (deterministic).
            if (rank[i], -crowd[i], i) <= (rank[j], -crowd[j], j):
                return parents[i]
            return parents[j]

        children: List[Genome] = []
        while len(children) < self.spec.population:
            mother, father = tournament(), tournament()
            if rng.random() < self.spec.crossover_rate:
                child = crossover(mother, father, rng)
            else:
                child = mother
            children.append(mutate(child, self.spec, rng))
        return children

    def _survivors(self, genomes: List[Genome],
                   records: List[dict]) -> List[Genome]:
        """NSGA-II survivor selection: best ``population`` of *genomes*."""
        n_keep = self.spec.population
        points = [r["objectives"] for r in records]
        violations = [r["violation_mv"] for r in records]
        fronts = pareto.non_dominated_sort(points, violations)
        chosen: List[int] = []
        for front in fronts:
            if len(chosen) + len(front) <= n_keep:
                chosen.extend(front)
                continue
            distances = pareto.crowding_distance(
                [points[i] for i in front])
            # Most crowded-out last; ties break on index for determinism.
            ordered = sorted(range(len(front)),
                             key=lambda k: (-distances[k], front[k]))
            chosen.extend(front[k]
                          for k in ordered[:n_keep - len(chosen)])
            break
        return [genomes[i] for i in chosen]

    # -- execution -------------------------------------------------------

    def _evaluate(self, genomes: List[Genome]) -> List[dict]:
        """Backend evaluation plus per-genome path metrics."""
        before = dict(getattr(self.backend, "sims", {}))
        records = self.backend.evaluate(genomes)
        counter = _genome_counter()
        for record in records:
            path = record["path"] if record["sim_key"] not in before \
                else "memo"
            counter.inc(path=path)
        return records

    def run(self, resume: bool = False,
            stop_after_generations: Optional[int] = None) -> dict:
        """Execute every (remaining) generation; return the report dict.

        Args:
            resume: load ``dse.ckpt.json`` first and continue after its
                last completed generation.  Refuses a checkpoint from a
                different spec.
            stop_after_generations: stop once this many *new*
                generations completed (used by tests to simulate an
                interrupted search); the checkpoint stays on disk for a
                later resume.
        """
        self._start(resume)
        completed_now = 0
        gen_counter = _generation_counter()
        while len(self.populations) < self.spec.generations:
            if (stop_after_generations is not None
                    and completed_now >= stop_after_generations):
                break
            g = len(self.populations)
            with profiled("dse.generation", "dse",
                          args={"generation": g,
                                "population": self.spec.population,
                                "search": self.spec.name}):
                if g == 0:
                    rng = self._rng_for(0)
                    population = [random_genome(self.spec, rng)
                                  for _ in range(self.spec.population)]
                    self._evaluate(population)
                else:
                    parents = [Genome.from_json_dict(entry)
                               for entry in self.populations[g - 1]]
                    parent_records = self._evaluate(parents)
                    rng = self._rng_for(g)
                    children = self._offspring(parents, parent_records,
                                               rng)
                    child_records = self._evaluate(children)
                    combined = parents + children
                    population = self._survivors(
                        combined, parent_records + child_records)
            self.populations.append(
                [genome.to_json_dict() for genome in population])
            gen_counter.inc()
            completed_now += 1
            self._save_checkpoint()
        return self.build_report()

    # -- reporting -------------------------------------------------------

    def build_report(self) -> dict:
        """The deterministic search report (no timestamps, no paths: a
        pure function of spec + populations + simulation memo)."""
        from repro.dse.objectives import SimJob

        def record_of(genome: Genome) -> dict:
            sim = self.backend.sims[SimJob.from_genome(self.spec,
                                                       genome).key()]
            return build_record(self.spec, self.backend.cpu, genome, sim)

        generations = []
        seen: Dict[str, dict] = {}
        for g, entries in enumerate(self.populations):
            records = [record_of(Genome.from_json_dict(e))
                       for e in entries]
            for record in records:
                seen.setdefault(record["key"], record)
            points = [r["objectives"] for r in records]
            violations = [r["violation_mv"] for r in records]
            front = pareto.pareto_front_indices(points, violations)
            feasible = [p for p, v in zip(points, violations) if v == 0.0]
            generations.append({
                "index": g,
                "n_evaluated": len(records),
                "n_feasible": sum(1 for v in violations if v == 0.0),
                "front_size": len(front),
                "hypervolume": pareto.hypervolume(feasible,
                                                  REFERENCE_POINT),
            })

        # The global frontier over every distinct genome ever evaluated,
        # in canonical-key order so the front is permutation-invariant.
        keys = sorted(seen)
        all_records = [seen[key] for key in keys]
        points = [r["objectives"] for r in all_records]
        violations = [r["violation_mv"] for r in all_records]
        front_indices = pareto.pareto_front_indices(points, violations)
        front = [all_records[i] for i in front_indices]

        ranking, recommendation = self._rank_front(front)
        return {
            "schema": REPORT_SCHEMA,
            "search": self.spec.name,
            "spec": self.spec.to_json_dict(),
            "spec_digest": self.spec.digest(),
            "n_generations": len(self.populations),
            "generations_requested": self.spec.generations,
            "n_distinct_genomes": len(all_records),
            "n_unique_sims": len(self.backend.sims),
            "generations": generations,
            "front": front,
            "front_violations": sum(1 for r in front
                                    if r["violation_mv"] > 0.0),
            "ranking": ranking,
            "recommendation": recommendation,
            "all_evaluated": all_records,
        }

    def _rank_front(self, front: List[dict]):
        """MCDM ranking of the frontier and the recommended point."""
        if not front:
            return [], None
        matrix = [r["objectives"] for r in front]
        weights = list(self.spec.weights)
        ws_scores = mcdm.weighted_sum_scores(matrix, weights)
        topsis_scores = mcdm.topsis_closeness(matrix, weights)
        ws_ranks = mcdm.rank_rows(ws_scores)
        topsis_ranks = mcdm.rank_rows(topsis_scores, descending=True)
        ranking = []
        for i, record in enumerate(front):
            ranking.append({
                "key": record["key"],
                "genome": record["genome"],
                "objectives": record["objectives"],
                "weighted_sum": ws_scores[i],
                "weighted_sum_rank": ws_ranks[i],
                "topsis": topsis_scores[i],
                "topsis_rank": topsis_ranks[i],
            })
        best = min(range(len(front)),
                   key=lambda i: (topsis_ranks[i], ws_ranks[i],
                                  front[i]["key"]))
        record = front[best]
        recommendation = {
            "method": "topsis",
            "genome": record["genome"],
            "key": record["key"],
            "describe": Genome.from_json_dict(record["genome"]).describe(),
            "objectives": {
                "duration_ratio": record["duration_ratio"],
                "energy_ratio": record["energy_ratio"],
                "security_headroom_mv": record["headroom_mv"],
            },
            "offset_mv": record["genome"]["offset_mv"],
            "perf_change_pct": record["perf_change_pct"],
            "power_change_pct": record["power_change_pct"],
            "efficiency_change_pct": record["efficiency_change_pct"],
            "violation_mv": record["violation_mv"],
            "topsis": topsis_scores[best],
            "weighted_sum": ws_scores[best],
        }
        return ranking, recommendation

    @staticmethod
    def render_html(report: dict) -> str:
        """The standalone DSE dashboard of *report*."""
        from repro.dse.report import ReportBuilder

        return ReportBuilder(report).render()
