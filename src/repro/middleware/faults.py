"""Deterministic fault injection for the middleware substrate.

Faults are configured per *site* (a string such as ``"bus.deliver"`` or
``"txn.prepare"``).  Sites may be patterns: a configured site containing
``*`` or ``?`` is matched against checked sites with :mod:`fnmatch`
semantics (``"bus.*"`` targets the whole bus layer), letting scenario
fault campaigns cover a layer without enumerating every site.  An exact
configuration always takes precedence over pattern matches; patterns are
consulted in configuration order.

Two mechanisms compose:

* probabilistic faults from a seeded RNG (reproducible across runs), and
* scripted one-shot faults (``fail_next``) for targeted tests.

The injector is thread-safe: the concurrent dispatcher checks sites from
many worker threads, and the RNG, scripted counters, and statistics stay
consistent under that load.  Replay is deterministic for a fixed seed as
long as the *sequence* of checks is deterministic (e.g. the sequential
dispatcher, or a single client).
"""

from __future__ import annotations

import fnmatch
import random
from dataclasses import dataclass
from typing import Dict, Optional, Type

from repro.analysis.witness import named_rlock
from repro.errors import MiddlewareError


def _is_pattern(site: str) -> bool:
    return "*" in site or "?" in site or "[" in site


@dataclass
class FaultSpec:
    """Probability and exception type for one fault site."""

    probability: float = 0.0
    exception: Type[Exception] = MiddlewareError
    message: str = "injected fault"


class FaultInjector:
    """Decides, deterministically, whether an operation at a site fails."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self._specs: Dict[str, FaultSpec] = {}
        self._scripted: Dict[str, int] = {}  # guarded_by: _lock
        self._lock = named_rlock("faults.injector")
        #: counters of injected faults per (concrete) site
        self.injected: Dict[str, int] = {}  # guarded_by: _lock

    def configure(
        self,
        site: str,
        probability: float,
        exception: Type[Exception] = MiddlewareError,
        message: Optional[str] = None,
    ) -> None:
        """Set a steady-state failure probability for ``site`` (or pattern)."""
        if not 0.0 <= probability <= 1.0:
            raise MiddlewareError(f"probability {probability} out of [0, 1]")
        with self._lock:
            self._specs[site] = FaultSpec(
                probability, exception, message or f"injected fault at {site}"
            )

    def fail_next(self, site: str, count: int = 1) -> None:
        """Force the next ``count`` operations at ``site`` to fail.

        ``site`` may be a pattern: ``fail_next("txn.*")`` fails the next
        operation checked at any site below ``txn.``.
        """
        if count < 1:
            raise MiddlewareError("fail_next count must be >= 1")
        with self._lock:
            self._scripted[site] = self._scripted.get(site, 0) + count

    def clear(self, site: Optional[str] = None) -> None:
        with self._lock:
            if site is None:
                self._specs.clear()
                self._scripted.clear()
            else:
                self._specs.pop(site, None)
                self._scripted.pop(site, None)

    # -- matching ----------------------------------------------------------------

    def _scripted_key(self, site: str) -> Optional[str]:
        """The scripted entry covering ``site``: exact first, then patterns."""
        if self._scripted.get(site, 0) > 0:
            return site
        for key, remaining in self._scripted.items():
            if remaining > 0 and _is_pattern(key) and fnmatch.fnmatchcase(site, key):
                return key
        return None

    def _spec_for(self, site: str) -> Optional[FaultSpec]:
        """The spec covering ``site``: exact first, then patterns in order."""
        spec = self._specs.get(site)
        if spec is not None:
            return spec
        for key, candidate in self._specs.items():
            if _is_pattern(key) and fnmatch.fnmatchcase(site, key):
                return candidate
        return None

    def interceptor(self, site: str):
        """This injector as a chain element: check ``site`` before delivery.

        The returned element plugs into an
        :class:`~repro.middleware.envelope.InterceptorChain`, so fault
        injection composes with latency, statistics, and metrics in one
        ordered pipeline instead of ad-hoc ``check()`` call sites.
        """

        def fault_element(envelope, next):
            self.check(site)
            return next(envelope)

        return fault_element

    def check(self, site: str) -> None:
        """Raise the configured exception if this operation should fail."""
        with self._lock:
            key = self._scripted_key(site)
            if key is not None:
                self._scripted[key] -= 1
                if self._scripted[key] == 0:
                    del self._scripted[key]
                self.injected[site] = self.injected.get(site, 0) + 1
                spec = self._spec_for(site)
                exception = spec.exception if spec else MiddlewareError
                raise exception(f"injected fault at {site} (scripted)")
            spec = self._spec_for(site)
            if spec and spec.probability > 0 and self._rng.random() < spec.probability:
                self.injected[site] = self.injected.get(site, 0) + 1
                raise spec.exception(spec.message)
