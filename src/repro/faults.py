"""Deterministic, seeded fault injection for the soak harness and the tests.

The serve stack claims to survive socket drops, slow writes, solver crashes,
durable-store I/O errors, and executor worker death.  This module makes those
claims testable: a :class:`FaultPlan` assigns a firing probability to each
named *injection point*, a :class:`FaultInjector` draws from one seeded RNG
(so a run is reproducible from ``(plan, seed)`` alone), and the hardened code
paths ask ``faults.should_fire(point)`` / ``faults.maybe_fail(point)`` at the
places where the real world would hurt them.

Like :mod:`repro.obs`, the layer is built to cost nothing when idle: the
module-level :data:`STATE` holds ``injector=None`` by default, and every hook
returns after a single attribute check.  Activate it programmatically::

    from repro import faults

    injector = faults.install("mixed", seed=7)
    try:
        ...  # every hardened layer now rolls the dice
        print(injector.stats())
    finally:
        faults.uninstall()

or from the environment — ``REPRO_FAULTS=mixed`` (a schedule name) or
``REPRO_FAULTS="solver=0.1,daemon.drop=0.05,seed=3"`` (explicit rates) — which
is how a daemon in another process gets its plan.

Injection points
----------------

=================  ==========================================================
``daemon.drop``    abort the connection instead of writing a response
``daemon.partial`` write a prefix of the response line, then abort
``daemon.delay``   sleep ``delay_ms`` before writing the response
``solver``         raise :class:`InjectedFault` inside the Presburger solver
``executor``       raise :class:`InjectedFault` inside an executor worker
``persist.io``     raise :class:`InjectedIOError` before a WAL append or
                   snapshot write touches the file (clean failure)
``persist.torn_write``  write a *partial* WAL record, then raise — the
                   torn-tail state crash recovery must truncate
=================  ==========================================================
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.obs import metrics as _obs_metrics

#: Every injection point a hardened layer may ask about.
FAULT_POINTS = (
    "daemon.drop",
    "daemon.partial",
    "daemon.delay",
    "solver",
    "executor",
    "persist.io",
    "persist.torn_write",
)

#: Named fault schedules: point -> firing probability per check.
SCHEDULES: Dict[str, Dict[str, float]] = {
    "none": {},
    "drops": {"daemon.drop": 0.05, "daemon.partial": 0.03},
    "slow": {"daemon.delay": 0.2},
    "compute": {"solver": 0.04, "executor": 0.04},
    "disk": {"persist.io": 0.04, "persist.torn_write": 0.03},
    "mixed": {
        "daemon.drop": 0.03,
        "daemon.partial": 0.02,
        "daemon.delay": 0.05,
        "solver": 0.02,
        "executor": 0.02,
        "persist.io": 0.02,
        "persist.torn_write": 0.01,
    },
}

_M_INJECTED = _obs_metrics.get_registry().counter(
    "repro_faults_injected_total",
    "Faults fired by the active injector, by injection point.",
    labels=("point",),
)


class InjectedFault(RuntimeError):
    """Raised at an injection point standing in for a real crash.

    Hardened layers must treat it exactly like the failure it simulates
    (an executor worker dying, the solver blowing up); nothing may catch it
    *because* it is injected.
    """

    def __init__(self, point: str, message: str = ""):
        super().__init__(message or f"injected fault at {point!r}")
        self.point = point


class InjectedIOError(InjectedFault, OSError):
    """An injected disk error; also an ``OSError`` so I/O handlers see it."""


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule: per-point rates plus the RNG seed.

    ``rates`` maps injection points to per-check firing probabilities;
    ``delay_ms`` is how long a fired ``daemon.delay`` sleeps.  Plans are
    immutable; :meth:`parse` builds one from a schedule name or a
    ``point=rate,...`` spec string (the ``REPRO_FAULTS`` format).
    """

    rates: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0
    delay_ms: float = 5.0
    name: str = "custom"

    def __post_init__(self):
        for point in self.rates:
            if point not in FAULT_POINTS:
                raise ValueError(
                    f"unknown fault point {point!r}; expected one of "
                    f"{', '.join(FAULT_POINTS)}"
                )

    @classmethod
    def parse(cls, spec: str, seed: Optional[int] = None) -> "FaultPlan":
        """Build a plan from ``"mixed"``, ``"mixed,seed=7"``, or explicit rates.

        Comma-separated tokens: a bare token names a schedule from
        :data:`SCHEDULES` (rates merge, later tokens win); ``seed=N`` and
        ``delay_ms=X`` set those fields; ``point=rate`` sets one point.  The
        ``seed`` argument, when given, overrides any ``seed=`` token.
        """
        rates: Dict[str, float] = {}
        plan_seed = 0
        delay_ms = 5.0
        names = []
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" not in token:
                if token not in SCHEDULES:
                    raise ValueError(
                        f"unknown fault schedule {token!r}; expected one of "
                        f"{', '.join(sorted(SCHEDULES))}"
                    )
                rates.update(SCHEDULES[token])
                names.append(token)
                continue
            key, _, value = token.partition("=")
            key = key.strip()
            if key == "seed":
                plan_seed = int(value)
            elif key == "delay_ms":
                delay_ms = float(value)
            else:
                rates[key] = float(value)
                names.append(key)
        if seed is not None:
            plan_seed = seed
        return cls(
            rates=rates,
            seed=plan_seed,
            delay_ms=delay_ms,
            name=",".join(names) or "none",
        )


class FaultInjector:
    """Draws per-point firing decisions from one seeded RNG, thread-safely.

    The injector is shared by every layer of the process (daemon writer,
    solver, durable store, executors), so the draw and the tally sit behind one
    lock; the sequence of decisions is a pure function of the plan's seed
    and the order of checks.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._fired: Dict[str, int] = {}
        self._checked: Dict[str, int] = {}
        self._lock = threading.Lock()

    def should_fire(self, point: str) -> bool:
        """Roll the dice for ``point``; record and report a firing."""
        rate = self.plan.rates.get(point, 0.0)
        with self._lock:
            self._checked[point] = self._checked.get(point, 0) + 1
            if rate <= 0.0 or self._rng.random() >= rate:
                return False
            self._fired[point] = self._fired.get(point, 0) + 1
        if _obs_metrics.STATE.enabled:
            _M_INJECTED.labels(point=point).inc()
        return True

    def maybe_fail(self, point: str) -> None:
        """Raise :class:`InjectedFault` (``persist.*`` points raise the
        :class:`InjectedIOError` flavour) when the roll fires."""
        if self.should_fire(point):
            if point.startswith("persist."):
                raise InjectedIOError(point)
            raise InjectedFault(point)

    def stats(self) -> Dict[str, Dict[str, int]]:
        """``{"fired": {point: n}, "checked": {point: n}}`` so far."""
        with self._lock:
            return {"fired": dict(self._fired), "checked": dict(self._checked)}

    def fired_total(self) -> int:
        """Total faults fired across every point."""
        with self._lock:
            return sum(self._fired.values())


class _State:
    """Module-level injector slot; ``None`` keeps every hook a no-op."""

    __slots__ = ("injector",)

    def __init__(self) -> None:
        self.injector: Optional[FaultInjector] = None
        spec = os.environ.get("REPRO_FAULTS", "")
        if spec and spec not in ("0", "false", "off"):
            self.injector = FaultInjector(FaultPlan.parse(spec))


STATE = _State()


def install(plan, seed: Optional[int] = None) -> FaultInjector:
    """Activate fault injection; ``plan`` is a :class:`FaultPlan` or a spec
    string for :meth:`FaultPlan.parse`.  Returns the live injector."""
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan, seed=seed)
    elif seed is not None:
        plan = FaultPlan(
            rates=plan.rates, seed=seed, delay_ms=plan.delay_ms, name=plan.name
        )
    STATE.injector = FaultInjector(plan)
    return STATE.injector


def uninstall() -> Optional[FaultInjector]:
    """Deactivate fault injection; returns the injector that was active."""
    injector, STATE.injector = STATE.injector, None
    return injector


def active() -> Optional[FaultInjector]:
    """The live injector, or ``None`` when injection is off."""
    return STATE.injector


def should_fire(point: str) -> bool:
    """Hot-path hook: ``False`` immediately unless an injector is installed."""
    injector = STATE.injector
    if injector is None:
        return False
    return injector.should_fire(point)


def maybe_fail(point: str) -> None:
    """Hot-path hook: raise the point's injected exception when it fires."""
    injector = STATE.injector
    if injector is not None:
        injector.maybe_fail(point)


def stats() -> Dict[str, Dict[str, int]]:
    """The active injector's tallies (empty dicts when injection is off)."""
    injector = STATE.injector
    if injector is None:
        return {"fired": {}, "checked": {}}
    return injector.stats()


def delay_seconds() -> float:
    """The active plan's ``daemon.delay`` sleep, in seconds (0 when off)."""
    injector = STATE.injector
    if injector is None:
        return 0.0
    return injector.plan.delay_ms / 1000.0


def plan_summary() -> Optional[Tuple[str, int]]:
    """``(name, seed)`` of the active plan, or ``None`` when injection is off."""
    injector = STATE.injector
    if injector is None:
        return None
    return injector.plan.name, injector.plan.seed
