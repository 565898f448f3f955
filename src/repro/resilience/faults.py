"""Deterministic, seedable fault injection.

Chaos testing is only useful if a failure found at seed 1234 fails the
same way tomorrow.  A :class:`FaultPlan` is therefore fully
deterministic: every site draws from its own ``random.Random`` seeded
with ``f"{seed}:{site}"`` and keeps its own call counter, so the k-th
call to a given site fires (or not) identically across runs regardless
of thread interleaving elsewhere.

The spec grammar (``REPRO_FAULTS`` env var or ``repro serve --faults``)
is ``;``-separated clauses::

    seed=1234; cache.read:p=0.5:corrupt; shard.run:n=3; http.response:always

* ``seed=<int>`` — the plan seed (default 0).
* ``<site>:<trigger>[:<mode>]`` — arm one site.
  Triggers: ``p=<float>`` (each call fires with that probability),
  ``n=<int>`` (exactly the Nth call to the site fires, 1-based),
  ``always`` (every call fires).
  Modes: ``error`` (default — raise :class:`FaultError`),
  ``corrupt`` (only meaningful for data-bearing sites: the payload is
  truncated via :func:`mangle`), ``hang=<seconds>`` (sleep that long,
  then continue — exercises watchdogs and deadlines, not error paths).

Sites are fixed (:data:`FAULT_SITES`); unknown sites are a spec error,
so a typo cannot silently arm nothing.

Instrumented code calls the module-level :func:`check`/:func:`mangle`.
With no plan installed (the production default) these are one global
load and a ``None`` test — the "zero overhead when off" contract the
bench gate holds us to.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from .. import obs

__all__ = [
    "FAULTS_ENV",
    "FAULT_SITES",
    "FaultError",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "active",
    "check",
    "injected_faults",
    "install_faults",
    "mangle",
    "uninstall_faults",
]

#: Environment variable holding a fault spec for ``repro serve``.
FAULTS_ENV = "REPRO_FAULTS"

#: The injectable sites.  A closed set: every site name in a spec must
#: match one of these, and every ``check``/``mangle`` call site in the
#: codebase uses one of these strings.
FAULT_SITES = (
    "cache.read",
    "cache.write",
    "shard.run",
    "http.response",
    "store.write",
)

_MODES = ("error", "corrupt", "hang")


class FaultSpecError(ValueError):
    """A ``--faults`` / ``REPRO_FAULTS`` spec failed to parse."""


class FaultError(RuntimeError):
    """An injected failure (mode ``error``); carries the firing site."""

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at {site}")
        self.site = site


@dataclass(frozen=True)
class FaultRule:
    """One armed site: exactly one of ``probability``/``nth``/``always``."""

    site: str
    probability: float | None = None
    nth: int | None = None
    always: bool = False
    mode: str = "error"
    hang_seconds: float = 0.0


def _parse_clause(clause: str) -> FaultRule:
    parts = [part.strip() for part in clause.split(":")]
    if len(parts) < 2 or len(parts) > 3:
        raise FaultSpecError(
            f"fault clause must be site:trigger[:mode], got {clause!r}"
        )
    site = parts[0]
    if site not in FAULT_SITES:
        raise FaultSpecError(
            f"unknown fault site {site!r}; expected one of "
            f"{', '.join(FAULT_SITES)}"
        )
    trigger = parts[1]
    probability: float | None = None
    nth: int | None = None
    always = False
    if trigger == "always":
        always = True
    elif trigger.startswith("p="):
        try:
            probability = float(trigger[2:])
        except ValueError:
            raise FaultSpecError(
                f"bad probability in {clause!r}"
            ) from None
        if not 0.0 < probability <= 1.0:
            raise FaultSpecError(
                f"probability must be in (0, 1], got {probability}"
            )
    elif trigger.startswith("n="):
        try:
            nth = int(trigger[2:])
        except ValueError:
            raise FaultSpecError(f"bad call index in {clause!r}") from None
        if nth < 1:
            raise FaultSpecError(f"call index must be >= 1, got {nth}")
    else:
        raise FaultSpecError(
            f"trigger must be p=<float>, n=<int> or always, got {trigger!r}"
        )

    mode = "error"
    hang_seconds = 0.0
    if len(parts) == 3:
        mode_part = parts[2]
        if mode_part.startswith("hang="):
            mode = "hang"
            try:
                hang_seconds = float(mode_part[5:])
            except ValueError:
                raise FaultSpecError(
                    f"bad hang duration in {clause!r}"
                ) from None
            if hang_seconds <= 0:
                raise FaultSpecError(
                    f"hang duration must be positive, got {hang_seconds}"
                )
        elif mode_part in _MODES and mode_part != "hang":
            mode = mode_part
        else:
            raise FaultSpecError(
                f"mode must be error, corrupt or hang=<seconds>, "
                f"got {mode_part!r}"
            )
    return FaultRule(
        site=site,
        probability=probability,
        nth=nth,
        always=always,
        mode=mode,
        hang_seconds=hang_seconds,
    )


class FaultPlan:
    """A parsed, armed fault spec with per-site deterministic state."""

    def __init__(self, rules: list[FaultRule], seed: int = 0) -> None:
        by_site: dict[str, FaultRule] = {}
        for rule in rules:
            if rule.site in by_site:
                raise FaultSpecError(
                    f"site {rule.site!r} armed twice in one plan"
                )
            by_site[rule.site] = rule
        self.seed = seed
        self.rules = by_site
        self._lock = threading.Lock()
        # Per-site RNG keyed off a string seed: deterministic across
        # runs and independent of how other sites are exercised.
        self._rng = {
            site: random.Random(f"{seed}:{site}") for site in by_site
        }
        self._calls = {site: 0 for site in by_site}

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a spec string; raises :class:`FaultSpecError`."""
        seed = 0
        rules: list[FaultRule] = []
        for raw in spec.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                try:
                    seed = int(clause[5:])
                except ValueError:
                    raise FaultSpecError(
                        f"bad seed in {clause!r}"
                    ) from None
                continue
            rules.append(_parse_clause(clause))
        if not rules:
            raise FaultSpecError(
                f"fault spec {spec!r} arms no sites"
            )
        return cls(rules, seed=seed)

    def should_fire(self, site: str) -> FaultRule | None:
        """Advance the site's counter and decide; None means pass through."""
        rule = self.rules.get(site)
        if rule is None:
            return None
        with self._lock:
            self._calls[site] += 1
            count = self._calls[site]
            if rule.always:
                fired = True
            elif rule.nth is not None:
                fired = count == rule.nth
            else:
                fired = self._rng[site].random() < (rule.probability or 0.0)
        return rule if fired else None

    def calls(self, site: str) -> int:
        with self._lock:
            return self._calls.get(site, 0)

    def __repr__(self) -> str:
        armed = ", ".join(sorted(self.rules))
        return f"FaultPlan(seed={self.seed}, sites=[{armed}])"


# The installed plan.  None in production: check()/mangle() then cost
# one global load and one comparison.
_PLAN: FaultPlan | None = None


def install_faults(plan: FaultPlan) -> None:
    """Arm ``plan`` process-wide (replaces any previous plan)."""
    global _PLAN
    _PLAN = plan


def uninstall_faults() -> None:
    """Disarm fault injection entirely."""
    global _PLAN
    _PLAN = None


def active() -> bool:
    """True when a plan is installed (lets callers skip mangle work)."""
    return _PLAN is not None


def _fire(rule: FaultRule) -> None:
    obs.inc("faults.injected", site=rule.site, mode=rule.mode)
    if rule.mode == "hang":
        time.sleep(rule.hang_seconds)
        return
    raise FaultError(rule.site)


def check(site: str) -> None:
    """Maybe inject at ``site``: no-op unless a plan arms it and fires.

    ``error`` raises :class:`FaultError`; ``hang`` sleeps then returns;
    ``corrupt`` is treated as ``error`` here because a pure checkpoint
    has no payload to corrupt — use :func:`mangle` at data sites.
    """
    plan = _PLAN
    if plan is None:
        return
    rule = plan.should_fire(site)
    if rule is None:
        return
    if rule.mode == "corrupt":
        obs.inc("faults.injected", site=site, mode=rule.mode)
        raise FaultError(site)
    _fire(rule)


def mangle(site: str, text: str | bytes) -> str | bytes:
    """Maybe corrupt a payload (text or bytes) read/written at ``site``.

    ``corrupt`` mode returns the payload truncated to half length (a torn
    write); ``error`` raises; ``hang`` sleeps then passes the payload
    through unchanged.
    """
    plan = _PLAN
    if plan is None:
        return text
    rule = plan.should_fire(site)
    if rule is None:
        return text
    if rule.mode == "corrupt":
        obs.inc("faults.injected", site=site, mode=rule.mode)
        return text[: len(text) // 2]
    _fire(rule)
    return text


@contextmanager
def injected_faults(plan: FaultPlan | str) -> Iterator[FaultPlan]:
    """Install a plan (or spec string) for a block; restore on exit.

    The test-suite entry point: guarantees a chaos test can never leak
    an armed plan into the next test.
    """
    global _PLAN
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    previous = _PLAN
    install_faults(plan)
    try:
        yield plan
    finally:
        _PLAN = previous
