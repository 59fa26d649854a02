"""Deterministic, seedable fault injection for resilience testing.

The engine and the server call :func:`fault_point` at two *named
sites*.  In normal operation these are no-ops.  When a
:class:`FaultPlan` is active — installed for a ``with`` body by
:func:`inject` or parsed from the ``REPRO_FAULTS`` environment
variable — each site consults the plan's rules and may raise a typed,
*retryable* :class:`~repro.common.errors.ReproError` subtype.  Every
recovery path in the engine and server is therefore testable and
CI-reproducible: the same plan string always injects the same faults
at the same call counts.

Sites
-----
``cache.get``
    On a :class:`ProgramCache` hit.  ``poison`` rules make the cached
    template raise, exercising evict-and-recompile.
``session.run``
    Around a whole query inside :class:`QueryServer`.  Exercises the
    server retry budget and circuit breaker.

Plan syntax (``REPRO_FAULTS``)
------------------------------
Semicolon-separated entries; the first may pin the seed::

    REPRO_FAULTS="seed=1306;cache.get:poison:every=3;session.run:unavailable:every=11"

Each rule is ``site:kind[:knob=value[,knob=value...]]`` with kinds
``transient`` / ``unavailable`` / ``poison`` and knobs:

``p=0.25``
    Fire with this probability (per-rule seeded RNG; deterministic for
    a fixed plan seed and call order).
``n=2``
    Fire on the first *n* matching calls (``fail_n_times``).
``every=3``
    Fire on every 3rd matching call (periodic — consecutive calls never
    both fire, so a single retry deterministically succeeds; this is
    what the CI chaos leg uses to stay flake-free).

A rule with no trigger knob (no ``p``/``n``/``every``) fires on every
matching call.
"""

from __future__ import annotations

import os
import random
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.common.errors import (
    BackendUnavailable,
    ConfigError,
    PoisonedTemplateError,
    TransientError,
)

#: The named injection sites.  ``fault_point`` validates against this so
#: a typo'd site in a plan or a call site fails loudly.
SITE_CACHE_GET = "cache.get"
SITE_SESSION_RUN = "session.run"

SITES = frozenset({SITE_CACHE_GET, SITE_SESSION_RUN})

#: What each fault kind raises, and the message it raises with.
_RAISES = {
    "transient": (TransientError, "injected transient fault"),
    "unavailable": (BackendUnavailable, "injected backend-unavailable fault"),
    "poison": (PoisonedTemplateError, "injected template poison"),
}
KINDS = frozenset(_RAISES)

#: Seed for plans that do not pin one (matches the repo-wide default).
DEFAULT_FAULT_SEED = 20220612


@dataclass
class FaultRule:
    """One injection rule: *where*, *what*, and *when* to fire."""

    site: str
    kind: str
    p: float | None = None
    n: int | None = None
    every: int | None = None

    # Mutable per-rule state (guarded by the owning plan's lock).
    calls: int = field(default=0, repr=False)
    fires: int = field(default=0, repr=False)
    _rng: random.Random | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ConfigError(
                f"unknown fault site {self.site!r}; "
                f"expected one of {sorted(SITES)}")
        if self.kind not in KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(KINDS)}")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"fault probability out of range: {self.p}")
        if self.every is not None and self.every < 1:
            raise ConfigError(f"fault 'every' must be >= 1: {self.every}")

    def _bind(self, seed: int, index: int) -> None:
        """Give the rule its own RNG stream so rules don't perturb each
        other's draws (plan determinism survives adding a rule)."""
        self._rng = random.Random(f"{seed}/{index}/{self.site}/{self.kind}")

    def _should_fire(self) -> bool:
        """Advance the call counter and decide.  Caller holds the lock."""
        self.calls += 1
        if self.n is not None:
            fire = self.calls <= self.n
        elif self.every is not None:
            fire = self.calls % self.every == 0
        elif self.p is not None:
            assert self._rng is not None, "rule used outside a plan"
            fire = self._rng.random() < self.p
        else:
            fire = True
        if fire:
            self.fires += 1
        return fire


class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s with thread-safe counters.

    One plan instance accumulates counters across threads and queries;
    :meth:`stats` exposes them for tests and ``resilience_stats()``.
    """

    def __init__(self, rules: list[FaultRule] | None = None,
                 seed: int = DEFAULT_FAULT_SEED):
        self.seed = seed
        self.rules: list[FaultRule] = list(rules or [])
        self._lock = threading.Lock()
        for index, rule in enumerate(self.rules):
            rule._bind(seed, index)

    def fired_rules(self, site: str) -> list[FaultRule]:
        """Advance counters for *site* and return the rules that fire."""
        fired = []
        with self._lock:
            for rule in self.rules:
                if rule.site == site and rule._should_fire():
                    fired.append(rule)
        return fired

    def stats(self) -> dict:
        with self._lock:
            return {
                "seed": self.seed,
                "rules": [
                    {
                        "site": rule.site,
                        "kind": rule.kind,
                        "calls": rule.calls,
                        "fires": rule.fires,
                    }
                    for rule in self.rules
                ],
            }


def parse_fault_plan(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` plan string (syntax in module docstring)."""
    seed = DEFAULT_FAULT_SEED
    rules: list[FaultRule] = []
    for entry in spec.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        if entry.startswith("seed="):
            try:
                seed = int(entry[len("seed="):])
            except ValueError as exc:
                raise ConfigError(f"bad fault seed: {entry!r}") from exc
            continue
        parts = entry.split(":")
        if len(parts) < 2 or len(parts) > 3:
            raise ConfigError(
                f"bad fault rule {entry!r}; "
                f"expected 'site:kind[:knob=value,...]'")
        site, kind = parts[0].strip(), parts[1].strip()
        knobs: dict[str, float | int] = {}
        if len(parts) == 3:
            for token in parts[2].split(","):
                token = token.strip()
                if not token:
                    continue
                if "=" not in token:
                    raise ConfigError(f"bad fault knob {token!r} in {entry!r}")
                key, _, raw = token.partition("=")
                key = key.strip()
                try:
                    if key in ("n", "every"):
                        knobs[key] = int(raw)
                    elif key == "p":
                        knobs[key] = float(raw)
                    else:
                        raise ConfigError(
                            f"unknown fault knob {key!r} in {entry!r}")
                except ValueError as exc:
                    raise ConfigError(
                        f"bad fault knob value {token!r} in {entry!r}"
                    ) from exc
        rules.append(FaultRule(
            site=site,
            kind=kind,
            p=knobs.get("p"),
            n=knobs.get("n"),
            every=knobs.get("every"),
        ))
    return FaultPlan(rules, seed=seed)


# --- active-plan management -------------------------------------------------

#: ``inject``'s default: no plan of its own, so ``REPRO_FAULTS`` applies.
_FROM_ENV = object()
_explicit_plan: FaultPlan | None | object = _FROM_ENV
_env_cache: tuple[str, FaultPlan] | None = None
_state_lock = threading.Lock()
_local = threading.local()


def active_plan() -> FaultPlan | None:
    """The plan in effect: the innermost :func:`inject`'s, else
    ``REPRO_FAULTS``.

    The env-parsed plan is cached per spec string as one shared
    instance, so its counters accumulate for the whole process — the
    CI chaos leg's ``every=k`` periodicity spans test cases.
    """
    global _env_cache
    with _state_lock:
        if _explicit_plan is not _FROM_ENV:
            return _explicit_plan
        spec = os.environ.get("REPRO_FAULTS", "").strip()
        if not spec:
            return None
        if _env_cache is None or _env_cache[0] != spec:
            _env_cache = (spec, parse_fault_plan(spec))
        return _env_cache[1]


@contextmanager
def inject(plan=_FROM_ENV) -> Iterator[None]:
    """Install *plan* process-wide for the ``with`` body and restore the
    prior state after.  ``inject(None)`` disables injection even when
    ``REPRO_FAULTS`` is set; ``inject()`` defers to ``REPRO_FAULTS``."""
    global _explicit_plan
    with _state_lock:
        prior = _explicit_plan
        _explicit_plan = plan
    try:
        yield
    finally:
        with _state_lock:
            _explicit_plan = prior


@contextmanager
def suppress() -> Iterator[None]:
    """Disable injection on the *current thread* for the ``with`` body.

    The server's degradation rung uses this: after retries exhaust, it
    re-executes work that must not be re-faulted (otherwise an
    always-fire plan could never converge).  Thread-local on purpose —
    queries on other threads keep faulting.
    """
    depth = getattr(_local, "suppressed", 0)
    _local.suppressed = depth + 1
    try:
        yield
    finally:
        _local.suppressed = depth


def fault_point(site: str) -> None:
    """Injection hook: raise per the active plan.

    No-op (a dict lookup and one branch) when no plan is active or the
    current thread is inside :func:`suppress`.
    """
    if site not in SITES:
        raise ConfigError(f"unknown fault site {site!r}")
    if getattr(_local, "suppressed", 0):
        return
    plan = active_plan()
    if plan is None:
        return
    fired = plan.fired_rules(site)
    if fired:
        error, message = _RAISES[fired[0].kind]
        raise error(f"{message} at {site}")
