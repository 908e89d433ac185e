"""Evolutionary design-space exploration for SUIT operating points.

The subpackage searches the SUIT parameter space — deadline, strategy,
efficient-curve offset, process-variation corner, IMUL pipeline depth —
with a seed-deterministic NSGA-II loop over three minimized objectives
(performance, energy, negated security headroom), then distills the
Pareto front into one recommended operating point per workload via
MCDM ranking (TOPSIS, cross-checked by weighted sum).

Modules:

* :mod:`repro.dse.space` — genome/spec types, mutation, crossover and
  the canned searches;
* :mod:`repro.dse.objectives` — simulation identity (:class:`SimJob`)
  and the analytic security-headroom audit;
* :mod:`repro.dse.pareto` — constrained dominance, non-dominated
  sorting, crowding distance, exact hypervolume;
* :mod:`repro.dse.mcdm` — normalization, weighted-sum and TOPSIS
  ranking;
* :mod:`repro.dse.evaluate` — batched evaluation backends (local
  :func:`~repro.core.batchsim.simulate_sweep` fan-out or the
  simulation service);
* :mod:`repro.dse.runner` — the generation loop, checkpointing and
  report assembly;
* :mod:`repro.dse.report` — the standalone HTML dashboard.
"""

from repro.dse import mcdm, pareto
from repro.dse.evaluate import (LocalEvalBackend, ServiceEvalBackend,
                                build_record)
from repro.dse.mcdm import (minmax_normalize, rank_rows, topsis_closeness,
                            weighted_sum_scores)
from repro.dse.objectives import (REFERENCE_POINT, SimJob, objective_vector,
                                  security_headroom_mv, violation_mv,
                                  worst_kept_offset_v)
from repro.dse.pareto import (crowding_distance, dominates, hypervolume,
                              non_dominated_sort, pareto_front_indices)
from repro.dse.report import ReportBuilder
from repro.dse.runner import DseRunner, load_checkpoint_spec
from repro.dse.space import (CANNED_SEARCHES, DseSpec, Genome, canned_search,
                             crossover, load_search, mutate, random_genome,
                             resolve_search)
from repro.runtime.study import CheckpointMismatchError

__all__ = [
    "CANNED_SEARCHES",
    "CheckpointMismatchError",
    "DseRunner",
    "DseSpec",
    "Genome",
    "LocalEvalBackend",
    "REFERENCE_POINT",
    "ReportBuilder",
    "ServiceEvalBackend",
    "SimJob",
    "build_record",
    "canned_search",
    "crossover",
    "crowding_distance",
    "dominates",
    "hypervolume",
    "load_checkpoint_spec",
    "load_search",
    "mcdm",
    "minmax_normalize",
    "mutate",
    "non_dominated_sort",
    "objective_vector",
    "pareto",
    "pareto_front_indices",
    "random_genome",
    "rank_rows",
    "resolve_search",
    "security_headroom_mv",
    "topsis_closeness",
    "violation_mv",
    "weighted_sum_scores",
    "worst_kept_offset_v",
]
