"""Deterministic, seedable fault injection.

Chaos testing only earns its keep when a failure reproduces: a
:class:`FaultPlan` is a declarative list of :class:`FaultSpec` entries
that fire at named *sites* instrumented through the codebase, with
per-spec trigger counting (``after``/``times``) and an optional seeded
probability, so the same plan injects the same faults in the same
places every run.

Sites currently instrumented:

========================  ====================================================
``pipeline.cell``         inside :func:`repro.pipeline.cells.compute_cell`
                          (ctx: ``kind``, ``model``, ``dataset``) — a ``kill``
                          here takes down a pool worker mid-batch
``cache.put``             after a :class:`~repro.pipeline.store.CacheStore`
                          write (ctx: ``kind``, ``key``) — ``corrupt``
                          truncates or bit-flips the entry on disk
``serve.decode``          per request, before the continuous batcher's
                          batched decode call (ctx: ``request``) —
                          ``delay`` stalls the step
========================  ====================================================

Actions:

* ``kill``  — ``os._exit(exit_code)`` (a crash, not an exception: no
  ``finally`` blocks run, exactly like a segfault or SIGKILL);
* ``raise`` — raise :class:`FaultInjected`;
* ``delay`` — sleep ``delay_s`` then continue;
* ``corrupt`` — returned to the call site, which applies
  :func:`corrupt_file` (``mode``: ``truncate`` or ``flip``) to the file
  it just wrote.

Activation: set ``$REPRO_FAULTS`` to inline JSON or ``@/path/plan.json``
(worker processes inherit the environment, so pool workers honor the
same plan), or call :func:`set_fault_plan` in-process (tests).  When
the plan comes from a file, cross-process ``times`` accounting lands in
``<plan>.state/`` marker files (override with ``$REPRO_FAULTS_STATE``):
a ``times: 1`` worker-kill fires once across the whole pool, so the
respawned worker survives — which is what makes kill-and-recover tests
deterministic.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

__all__ = [
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "clear_fault_plan",
    "corrupt_file",
    "enabled",
    "fire",
    "get_fault_plan",
    "set_fault_plan",
]

_ACTIONS = ("kill", "raise", "delay", "corrupt")
_CORRUPT_MODES = ("truncate", "flip")


class FaultInjected(RuntimeError):
    """The error a ``raise`` fault throws at its site."""

    def __init__(self, site: str, ctx: Optional[Mapping[str, object]] = None):
        super().__init__(f"injected fault at {site} ({dict(ctx or {})})")
        self.site = site
        self.ctx = dict(ctx or {})


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: where, what, and when it fires."""

    site: str
    action: str
    #: Context filters: every (key, value) must equal the site's ctx.
    match: Tuple[Tuple[str, object], ...] = ()
    #: Matching events to let pass (per process) before firing.
    after: int = 0
    #: Total activations allowed (global when a state dir is set).
    times: int = 1
    #: Fire probability per eligible event (seeded; 1.0 = always).
    p: float = 1.0
    delay_s: float = 0.0
    exit_code: int = 137
    mode: str = "truncate"

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; known: {', '.join(_ACTIONS)}"
            )
        if self.mode not in _CORRUPT_MODES:
            raise ValueError(
                f"unknown corrupt mode {self.mode!r}; known: {', '.join(_CORRUPT_MODES)}"
            )
        if self.after < 0 or self.times < 1 or not (0.0 < self.p <= 1.0):
            raise ValueError("need after >= 0, times >= 1, 0 < p <= 1")

    def matches(self, site: str, ctx: Mapping[str, object]) -> bool:
        if site != self.site:
            return False
        return all(ctx.get(k) == v for k, v in self.match)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["match"] = dict(self.match)
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "FaultSpec":
        d = dict(d)
        match = d.pop("match", {}) or {}
        return cls(match=tuple(sorted(match.items())), **d)  # type: ignore[arg-type]


class FaultPlan:
    """A seeded list of fault specs with deterministic trigger state."""

    def __init__(
        self,
        faults: List[FaultSpec],
        seed: int = 0,
        state_dir: Optional[Union[str, Path]] = None,
    ):
        self.faults = list(faults)
        self.seed = int(seed)
        self.state_dir = None if state_dir is None else Path(state_dir)
        # Per-process trigger state; ``times`` moves to marker files
        # under ``state_dir`` when one is configured.
        self._seen: Dict[int, int] = {}
        self._fired: Dict[int, int] = {}
        self._rngs: Dict[int, np.random.Generator] = {}

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"seed": self.seed, "faults": [f.to_dict() for f in self.faults]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(
        cls, d: Mapping[str, object], state_dir: Optional[Union[str, Path]] = None
    ) -> "FaultPlan":
        faults = [FaultSpec.from_dict(f) for f in d.get("faults", ())]  # type: ignore[union-attr]
        return cls(faults, seed=int(d.get("seed", 0)), state_dir=state_dir)  # type: ignore[arg-type]

    @classmethod
    def from_env(cls, value: str) -> "FaultPlan":
        """Parse ``$REPRO_FAULTS``: inline JSON or ``@/path/plan.json``."""
        state_dir = os.environ.get("REPRO_FAULTS_STATE") or None
        if value.startswith("@"):
            path = Path(value[1:])
            if state_dir is None:
                state_dir = f"{path}.state"
            return cls.from_dict(
                json.loads(path.read_text(encoding="utf-8")), state_dir=state_dir
            )
        return cls.from_dict(json.loads(value), state_dir=state_dir)

    # ------------------------------------------------------------------
    def _rng(self, idx: int) -> np.random.Generator:
        rng = self._rngs.get(idx)
        if rng is None:
            rng = self._rngs[idx] = np.random.default_rng((self.seed, idx))
        return rng

    def _claim(self, idx: int, spec: FaultSpec) -> bool:
        """Claim one of the spec's ``times`` activation slots.

        With a ``state_dir`` the slots are ``O_EXCL`` marker files, so
        the budget holds across every process sharing the plan file —
        a respawned pool worker cannot re-fire a spent fault.
        """
        if self.state_dir is None:
            if self._fired.get(idx, 0) >= spec.times:
                return False
            self._fired[idx] = self._fired.get(idx, 0) + 1
            return True
        self.state_dir.mkdir(parents=True, exist_ok=True)
        for slot in range(spec.times):
            marker = self.state_dir / f"fault-{idx}.{slot}"
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.write(fd, f"pid={os.getpid()}\n".encode())
            os.close(fd)
            return True
        return False

    def fire(self, site: str, **ctx) -> Optional[FaultSpec]:
        """Evaluate every spec against one event at ``site``.

        Performs ``kill``/``raise``/``delay`` actions directly; returns
        the matched spec (``corrupt`` specs are the caller's job) or
        ``None`` when nothing fired.
        """
        for idx, spec in enumerate(self.faults):
            if not spec.matches(site, ctx):
                continue
            seen = self._seen.get(idx, 0) + 1
            self._seen[idx] = seen
            if seen <= spec.after:
                continue
            if spec.p < 1.0 and self._rng(idx).random() >= spec.p:
                continue
            if not self._claim(idx, spec):
                continue
            self._record(spec, site)
            if spec.action == "kill":
                os._exit(spec.exit_code)
            if spec.action == "raise":
                raise FaultInjected(site, ctx)
            if spec.action == "delay":
                time.sleep(spec.delay_s)
            return spec
        return None

    @staticmethod
    def _record(spec: FaultSpec, site: str) -> None:
        # Imported lazily: obs must stay importable without resilience
        # and vice versa.
        from repro import obs

        obs.counter("resilience.faults_injected", site=site, action=spec.action).inc()
        obs.get_logger(__name__).warning(
            "injecting %s fault at %s", spec.action, site
        )


def corrupt_file(path: Union[str, Path], mode: str = "truncate") -> None:
    """Damage a file in place: drop its tail, or flip a middle byte."""
    path = Path(path)
    data = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(data[: max(len(data) // 2, 1)])
    elif mode == "flip":
        if not data:
            return
        mid = len(data) // 2
        path.write_bytes(data[:mid] + bytes([data[mid] ^ 0xFF]) + data[mid + 1 :])
    else:
        raise ValueError(f"unknown corrupt mode {mode!r}")


# ----------------------------------------------------------------------
# Process-global plan (lazy $REPRO_FAULTS load; swappable in tests).
# ----------------------------------------------------------------------

_PLAN: Optional[FaultPlan] = None
_LOADED = False


def get_fault_plan() -> Optional[FaultPlan]:
    """The active plan: in-process override or ``$REPRO_FAULTS``."""
    global _PLAN, _LOADED
    if not _LOADED:
        _LOADED = True
        env = os.environ.get("REPRO_FAULTS")
        if env:
            _PLAN = FaultPlan.from_env(env)
    return _PLAN


def set_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` for this process (tests/fixtures)."""
    global _PLAN, _LOADED
    _PLAN = plan
    _LOADED = True


def clear_fault_plan() -> None:
    """Drop any plan and re-read ``$REPRO_FAULTS`` on next use."""
    global _PLAN, _LOADED
    _PLAN = None
    _LOADED = False


def enabled() -> bool:
    """Cheap hot-path guard: is any fault plan active?"""
    return get_fault_plan() is not None


def fire(site: str, **ctx) -> Optional[FaultSpec]:
    """Fire one event at ``site`` against the active plan (if any)."""
    plan = get_fault_plan()
    if plan is None:
        return None
    return plan.fire(site, **ctx)
