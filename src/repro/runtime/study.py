"""Checkpointed studies: the runner layer campaigns and DSE share.

A *study* executes one declarative spec (a campaign faultload, a
design-space search) in resumable steps and ends in a timestamp-free
JSON report plus a standalone ``index.html``.  :class:`StudySpec` gives
specs their JSON round trip and digest, :class:`Study` owns the
checkpoint, resume and outputs, and :func:`fan_out` is the one
process-pool loop.  See ``docs/experiment_engine.md`` (§Checkpoint /
resume).
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence, Tuple

#: The dashboard file every study writes next to its JSON report.
HTML_NAME = "index.html"


def atomic_write_json(path: Path, payload: dict) -> None:
    """Write *payload* via tmp-file + rename, so a kill mid-write never
    leaves a truncated file behind."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)


class CheckpointMismatchError(RuntimeError):
    """A checkpoint that cannot be resumed: unreadable, of an unknown
    schema, or written by a different spec."""


def fan_out(fn: Callable, tasks: Sequence[Tuple], jobs: int = 1,
            on_lost: Optional[Callable[[int, Exception], Any]] = None
            ) -> Iterator[Tuple[int, Any]]:
    """Yield ``(i, fn(*tasks[i]))`` for every task: in task order in
    this process when ``jobs <= 1`` or there is one task, else in
    completion order from a pool of ``jobs`` processes.  Both paths call
    the same *fn*.  When a pooled task's worker dies, ``on_lost(i, exc)``
    stands in for its result (None re-raises)."""
    if jobs <= 1 or len(tasks) <= 1:
        for i, task in enumerate(tasks):
            yield i, fn(*task)
        return
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = {pool.submit(fn, *task): i for i, task in enumerate(tasks)}
        for future in as_completed(futures):
            i = futures[future]
            try:
                result = future.result()
            except Exception as exc:  # e.g. BrokenProcessPool
                if on_lost is None:
                    raise
                result = on_lost(i, exc)
            yield i, result


class StudySpec:
    """Mixin for the frozen-dataclass specs of studies: a JSON round
    trip (tuples as lists) that refuses unknown fields, a sha256 digest
    of the canonical JSON and field overrides."""

    def to_json_dict(self) -> dict:
        """Plain-JSON form (round-trips through :meth:`from_json_dict`)."""
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in asdict(self).items()}

    @classmethod
    def from_json_dict(cls, payload: dict):
        """Rebuild a spec from :meth:`to_json_dict` output (or a spec
        file's parsed contents).  Unknown keys raise, so a typo in a
        spec file fails loudly instead of silently using a default."""
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown spec field(s): {sorted(unknown)}")
        return cls(**{key: tuple(value) if isinstance(value, list) else value
                      for key, value in payload.items()})

    def canonical_json(self) -> str:
        """Deterministic serialization (digest input)."""
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """Content address; checkpoints pin it so a resume refuses a
        checkpoint written by a different spec."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def with_overrides(self, **kwargs):
        """A copy with the given fields replaced (CLI overrides)."""
        return replace(self, **kwargs)


def _read_checkpoint(path: Path, schema: str) -> dict:
    """The parsed, schema-checked checkpoint at *path*."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # also UnicodeDecodeError
        raise CheckpointMismatchError(
            f"unreadable checkpoint {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise CheckpointMismatchError(
            f"unreadable checkpoint {path}: not a JSON object")
    if payload.get("schema") != schema:
        raise CheckpointMismatchError(
            f"unknown checkpoint schema {payload.get('schema')!r} in {path}")
    return payload


class Study:
    """Base of a checkpointed, resumable study.

    A subclass sets ``CKPT_NAME``, ``CKPT_SCHEMA``, ``REPORT_NAME``,
    ``SPEC_TYPE`` (a :class:`StudySpec`), ``KIND`` and ``SPEC_NOUN``
    (what error messages call the study and its spec) and provides
    ``_checkpoint_state()`` (progress fields stored next to the spec),
    ``_restore(payload)``, ``build_report()`` and a static
    ``render_html(report)``.  Its ``run`` calls :meth:`_start` first and
    :meth:`_save_checkpoint` after every completed step.

    Args:
        spec: the study's spec.
        out_dir: artifact directory (checkpoint, report, HTML).  None
            runs fully in memory (no checkpoint, no resume).
    """

    def __init__(self, spec, out_dir: Optional[Path] = None) -> None:
        """See class docstring."""
        self.spec = spec
        self.out_dir = Path(out_dir) if out_dir is not None else None

    @classmethod
    def load_checkpoint_spec(cls, out_dir: Path):
        """The spec recorded in *out_dir*'s checkpoint — lets ``resume
        --out DIR`` continue without re-passing the spec."""
        path = Path(out_dir) / cls.CKPT_NAME
        if not path.exists():
            raise FileNotFoundError(f"no {cls.KIND} checkpoint at {path}")
        payload = _read_checkpoint(path, cls.CKPT_SCHEMA)
        try:
            return cls.SPEC_TYPE.from_json_dict(payload["spec"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointMismatchError(
                f"unreadable checkpoint {path}: bad spec ({exc})") from None

    @property
    def ckpt_path(self) -> Optional[Path]:
        """The checkpoint location (None when running in memory)."""
        return self.out_dir / self.CKPT_NAME if self.out_dir else None

    def _start(self, resume: bool) -> None:
        """Create the artifact directory; on *resume*, restore the
        checkpoint, refusing one written by a different spec."""
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.ckpt_path
        if not resume or path is None or not path.exists():
            return
        payload = _read_checkpoint(path, self.CKPT_SCHEMA)
        if payload.get("spec_digest") != self.spec.digest():
            raise CheckpointMismatchError(
                f"checkpoint in {path} was written by a different "
                f"{self.SPEC_NOUN} (digest {payload.get('spec_digest')!r} "
                f"!= {self.spec.digest()!r}); delete it or rerun with the "
                "original spec")
        self._restore(payload)

    def _save_checkpoint(self) -> None:
        """Atomically rewrite the checkpoint (no-op in memory)."""
        if self.ckpt_path is not None:
            atomic_write_json(self.ckpt_path, {
                "schema": self.CKPT_SCHEMA,
                "spec_digest": self.spec.digest(),
                "spec": self.spec.to_json_dict(),
                **self._checkpoint_state()})

    def write_outputs(self, html: bool = True) -> dict:
        """Write the JSON report (and the HTML dashboard) into the
        artifact directory; returns the report dict."""
        if self.out_dir is None:
            raise ValueError(
                f"{type(self).__name__} needs an out_dir to write outputs")
        report = self.build_report()
        atomic_write_json(self.out_dir / self.REPORT_NAME, report)
        if html:
            (self.out_dir / HTML_NAME).write_text(
                self.render_html(report), encoding="utf-8")
        return report
