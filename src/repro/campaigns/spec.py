"""Declarative faultload specifications (DAVOS-style campaigns).

A :class:`FaultloadSpec` names *what to attack* on the modeled machine
(the target **scope**), *how* (the **fault model**), and the size and
seeding of the sample matrix.  Specs are plain dataclasses, loadable
from JSON (always) or TOML (Python >= 3.11), and expand
deterministically into per-run injection plans
(:mod:`repro.campaigns.plan`).

Target scopes:

* ``msr`` — bits of the SUIT configuration MSRs
  (:class:`repro.hardware.msr.Msr`): the disabled-opcode mask, the
  curve select and the deadline register.  A cleared mask bit lets a
  trapped-class instruction execute on the efficient curve — the exact
  event SUIT must make impossible.
* ``vmin`` — per-instruction minimum-voltage drift in the fault model
  (:mod:`repro.faults.model`): the silicon ages/heats away from the
  Vmin curves the system was calibrated with, so the calibrated
  invariant monitor no longer matches physical truth (the
  silent-data-corruption regime).
* ``dvfs`` — voltage perturbations of the conservative DVFS curve
  anchors (:mod:`repro.power.dvfs`): a miscalibrated regulator delivers
  less voltage than the software believes.
* ``injector`` — a background result-bit-flip rate layered over the
  :class:`repro.faults.injector.FaultInjector` path, modeling
  voltage-independent soft errors (undervolted-SRAM style).

Fault models: ``stuck_at_0`` / ``stuck_at_1`` / ``bit_flip`` for bit
scopes, ``drift`` (Gaussian voltage shift) for analog scopes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

from repro.runtime.study import StudySpec

#: Valid target scopes.
TARGET_SCOPES: Tuple[str, ...] = ("msr", "vmin", "dvfs", "injector")

#: Valid fault models, per scope.
SCOPE_FAULT_MODELS: Dict[str, Tuple[str, ...]] = {
    "msr": ("bit_flip", "stuck_at_0", "stuck_at_1"),
    "vmin": ("drift",),
    "dvfs": ("drift",),
    "injector": ("bit_flip",),
}

#: MSR targets the ``msr`` scope may hit, with their faultable bit width.
#: The disable mask has one bit per trapped opcode; the deadline is a
#: tick count (24 bits covers x100 inflation of the intended value).
MSR_TARGET_WIDTHS: Dict[str, int] = {
    "SUIT_DISABLE_MASK": 11,
    "SUIT_CURVE_SELECT": 1,
    "SUIT_DEADLINE": 24,
}


@dataclass(frozen=True)
class FaultloadSpec(StudySpec):
    """One campaign's declarative faultload.

    Attributes:
        name: campaign name (used in seeds, file names and reports).
        scope: target scope (see :data:`TARGET_SCOPES`).
        fault_model: fault model (must be valid for the scope).
        multiplicity: simultaneous injections per run.
        samples: runs per undervolt-depth grid point.
        seed: master seed; the whole campaign is a pure function of it.
        cpu: paper CPU short name ("A", "B", "C", "i5").
        workload: workload profile supplying the instruction mix.
        offsets_v: efficient-curve offsets (negative volts), shallow to
            deep — the undervolt-depth axis of the report.
        n_ops: faultable-instruction executions simulated per run.
        deadline_us: intended SUIT deadline in microseconds.
        targets: restrict the scope's target space (empty: scope
            defaults — all MSRs / all faultable opcodes / all curve
            anchors).
        drift_mean_v: mean of the Gaussian drift (volts; positive moves
            Vmin toward the curve, i.e. less margin).
        drift_sigma_v: standard deviation of the drift (volts).
        flip_rate: per-execution background bit-flip probability
            (``injector`` scope).
    """

    name: str
    scope: str
    fault_model: str
    multiplicity: int = 1
    samples: int = 8
    seed: int = 0
    cpu: str = "C"
    workload: str = "nginx"
    offsets_v: Tuple[float, ...] = (-0.050, -0.080, -0.110, -0.140)
    n_ops: int = 1200
    deadline_us: float = 30.0
    targets: Tuple[str, ...] = ()
    drift_mean_v: float = 0.040
    drift_sigma_v: float = 0.020
    flip_rate: float = 0.001

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a campaign needs a name")
        if self.scope not in TARGET_SCOPES:
            raise ValueError(
                f"unknown scope {self.scope!r}; know {TARGET_SCOPES}")
        allowed = SCOPE_FAULT_MODELS[self.scope]
        if self.fault_model not in allowed:
            raise ValueError(
                f"fault model {self.fault_model!r} invalid for scope "
                f"{self.scope!r}; allowed: {allowed}")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not self.offsets_v:
            raise ValueError("need at least one undervolt offset")
        if any(o >= 0 for o in self.offsets_v):
            raise ValueError("offsets must be negative (undervolts)")
        if self.n_ops < 1:
            raise ValueError("n_ops must be >= 1")
        if self.deadline_us <= 0:
            raise ValueError("deadline must be positive")
        if not 0.0 <= self.flip_rate <= 1.0:
            raise ValueError("flip_rate must be a probability")
        if self.scope == "msr":
            unknown = set(self.targets) - set(MSR_TARGET_WIDTHS)
            if unknown:
                raise ValueError(f"unknown MSR target(s): {sorted(unknown)}")

    @property
    def n_runs(self) -> int:
        """Size of the sample matrix."""
        return self.samples * len(self.offsets_v)


def load_spec(path: Path) -> FaultloadSpec:
    """Load a spec from a ``.json`` or ``.toml`` file.

    TOML needs the stdlib ``tomllib`` (Python >= 3.11); on older
    interpreters a clear error tells the user to supply JSON instead.
    """
    path = Path(path)
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover - py<3.11 branch
            raise RuntimeError(
                "TOML specs need Python >= 3.11 (stdlib tomllib); "
                "convert the spec to JSON")
        with open(path, "rb") as handle:
            payload = tomllib.load(handle)
    else:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    if "campaign" in payload and isinstance(payload["campaign"], dict):
        payload = payload["campaign"]  # allow a [campaign] TOML table
    return FaultloadSpec.from_json_dict(payload)


#: The canned campaigns shipped with the reproduction (also registered
#: as experiments: ``ext_campaign_msr`` / ``ext_campaign_vmin``).
CANNED_CAMPAIGNS: Dict[str, FaultloadSpec] = {
    # Flip bits in the SUIT MSRs while serving nginx.  Cleared disable-
    # mask bits surface as *detected* (the invariant monitor trips) once
    # the offset is deep enough to cross the untrapped opcode's Vmin;
    # curve-select / deadline corruption surfaces as *degraded*.
    "msr_bitflip_nginx": FaultloadSpec(
        name="msr_bitflip_nginx",
        scope="msr",
        fault_model="bit_flip",
        multiplicity=1,
        samples=8,
        cpu="C",
        workload="nginx",
        offsets_v=(-0.050, -0.080, -0.110, -0.140),
        n_ops=1200,
    ),
    # Drift the per-instruction Vmin margins toward the curve (aging /
    # heating) while the monitor still believes the calibrated values:
    # the silent-data-corruption rate climbs with undervolt depth.
    # Targets: the statically hardened IMUL — the one faultable opcode
    # SUIT leaves on the efficient curve, so its margin erosion is the
    # SDC channel — plus two trapped opcodes as controls (they execute
    # at the conservative voltage and should mask).
    "vmin_drift_nginx": FaultloadSpec(
        name="vmin_drift_nginx",
        scope="vmin",
        fault_model="drift",
        multiplicity=1,
        samples=12,
        cpu="C",
        workload="nginx",
        offsets_v=(-0.097, -0.140, -0.180, -0.220),
        n_ops=1200,
        targets=("IMUL", "AESENC", "VPCLMULQDQ"),
        drift_mean_v=0.040,
        drift_sigma_v=0.020,
    ),
}


def canned_campaign(name: str) -> FaultloadSpec:
    """Look up a canned campaign (ValueError with the catalogue if unknown)."""
    try:
        return CANNED_CAMPAIGNS[name]
    except KeyError:
        raise ValueError(
            f"unknown canned campaign {name!r}; know "
            f"{sorted(CANNED_CAMPAIGNS)} (or pass a spec file path)")


def resolve_spec(name_or_path: str) -> FaultloadSpec:
    """A canned campaign name, or a path to a JSON/TOML spec file."""
    if name_or_path in CANNED_CAMPAIGNS:
        return CANNED_CAMPAIGNS[name_or_path]
    path = Path(name_or_path)
    if path.exists():
        return load_spec(path)
    return canned_campaign(name_or_path)  # raises with the catalogue
