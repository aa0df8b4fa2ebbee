"""Sanitizer hook surface and activation (import-cycle-free).

This module is imported by the hot core paths (`predict_redistribution`,
`plan_redistribution`, the dataplane, tree edits), so it imports
**nothing** from the rest of the library — just ``os`` and
``contextvars``.  The real checks live in
:mod:`repro.sanitize.checks` and are loaded lazily, only when a
sanitizer is actually activated.

Activation, in precedence order:

1. explicitly scoped: ``with use_sanitizer(Sanitizer()): ...``
   (what ``repro sanitize run`` and the tests do);
2. the environment: ``REPRO_SANITIZE=1`` turns every instrumented run
   in the process into a sanitized run (the CI smoke job).  The
   environment is read **once** and cached — a sanctioned config read
   (reprolint R012 exempts this module), not a per-call dependency.

Hot-path contract: call sites fetch the hook and guard on ``enabled``::

    san = get_sanitizer()
    if san.enabled:
        san.after_plan(plan, nest_sizes)

so a disabled run pays one ContextVar read and one attribute test.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any

__all__ = [
    "SanitizerHook",
    "NULL_SANITIZER",
    "get_sanitizer",
    "set_sanitizer",
    "use_sanitizer",
]


class SanitizerHook:
    """No-op base for adaptation-point checkpoints.

    Each method is called (guarded by ``enabled``) right after the
    library action it is named for; implementations assert conservation
    properties and record violations.  Arguments are duck-typed so this
    module never imports the core.
    """

    enabled = False

    def after_prediction(
        self, prediction: Any, nest_sizes: dict[int, tuple[int, int]]
    ) -> None:
        """After ``predict_redistribution`` built ``prediction``."""

    def after_plan(self, plan: Any, nest_sizes: dict[int, tuple[int, int]]) -> None:
        """After ``plan_redistribution`` returns ``plan``."""

    def after_execute(self, store: Any, nest_id: int, nx: int, ny: int) -> None:
        """After the dataplane moved ``nest_id``'s blocks to new owners."""

    def after_scatter(self, store: Any, nest_id: int, nx: int, ny: int) -> None:
        """After ``scatter_nest`` distributed a field into ``store``."""

    def after_tree_edit(
        self,
        tree: Any,
        deleted: list[int],
        retained_weights: dict[int, float],
        new_weights: dict[int, float],
    ) -> None:
        """After ``diffusion_edit`` produced ``tree`` (may be ``None``)."""

    def after_pda(self, result: Any) -> None:
        """After ``parallel_data_analysis`` built its result."""

    def after_busiest_link(
        self, link_load: float, contributions: dict[tuple[int, int], float]
    ) -> None:
        """After the netsim reported the busiest link's per-pair split."""

    def after_link_state(self, link_state: Any) -> None:
        """After incremental link-load deltas were applied for one plan."""

    def after_recovery(
        self, store: Any, nest_sizes: dict[int, tuple[int, int]], retained: list[int]
    ) -> None:
        """After fault recovery rebuilt the surviving nests' storage."""

    def check_ledger(self, ledger: Any) -> None:
        """End of run: cross-check the comm ledger's totals."""


#: the shared disabled hook (one instance, no state)
NULL_SANITIZER = SanitizerHook()

_ACTIVE: ContextVar[SanitizerHook | None] = ContextVar(
    "repro.sanitize", default=None
)
#: one-slot cache for the REPRO_SANITIZE-resolved hook (filled on first use)
_ENV_CACHE: list[SanitizerHook | None] = [None]


def _env_sanitizer() -> SanitizerHook:
    cached = _ENV_CACHE[0]
    if cached is None:
        if os.environ.get("REPRO_SANITIZE", "") not in ("", "0"):
            from repro.sanitize.checks import Sanitizer

            cached = Sanitizer()
        else:
            cached = NULL_SANITIZER
        _ENV_CACHE[0] = cached
    return cached


def get_sanitizer() -> SanitizerHook:
    """The ambient sanitizer (scoped > environment > disabled)."""
    active = _ACTIVE.get()
    if active is not None:
        return active
    return _env_sanitizer()


def set_sanitizer(hook: SanitizerHook | None) -> SanitizerHook | None:
    """Install ``hook`` as the active sanitizer; returns the previous.

    ``None`` clears the scoped sanitizer (falling back to the
    environment-resolved one).
    """
    previous = _ACTIVE.get()
    _ACTIVE.set(hook)
    return previous


@contextmanager
def use_sanitizer(hook: SanitizerHook) -> Iterator[SanitizerHook]:
    """Scope ``hook`` as the active sanitizer, restoring the previous."""
    previous = set_sanitizer(hook)
    try:
        yield hook
    finally:
        set_sanitizer(previous)
