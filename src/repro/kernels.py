"""Kernel selection: the vectorized fast path vs the scalar reference oracle.

The quantities the paper's diffusion strategy optimises — redistribution
bytes, hop-bytes, per-link contention — are computed by three hot kernels
(network-simulator link accounting, redistribution data movement, PDA
aggregation).  Each ships in two implementations:

* ``"vector"`` (default) — batched NumPy array arithmetic: routes as flat
  link-id arrays with CSR offsets, link loads via ``np.bincount``, block
  intersections as broadcast clips, masked tile reductions;
* ``"reference"`` — the original per-message / per-block Python loops,
  kept as the readable oracle the equivalence suite checks the fast path
  against (see ``tests/test_kernels_equivalence.py``).

Neither mode memoises routes.  A route is closed-form torus (or
fat-tree) geometry, and one batched ``topology.batch_routes`` call over a
whole message set costs less than a per-pair memo lookup would; a caller
that needs the same routing twice computes it once and passes the result
on (``NetworkSimulator.link_load_arrays``).

**Incremental vs rebuild.** The large-machine scaling work adds a third
axis: stateful kernels that maintain results by *deltas* instead of
recomputing them — :class:`~repro.mpisim.netsim.LinkLoadState` applies
per-adaptation message-set retire/update deltas to a live per-link load
array, and :class:`~repro.mpisim.ledger.PairByteAccumulator` accumulates
sparse COO pair-byte chunks with amortised compaction.  The policy for
every such kernel:

* the incremental path must keep a **from-scratch rebuild twin** (e.g.
  ``LinkLoadState.rebuild``) that recomputes the same result with no
  retained state, and the two must agree **bit-for-bit** — message byte
  counts are integer-valued float64, so sums and subtractions are exact
  in any order;
* the sanitizer cross-checks live state against its rebuild at every
  adaptation point (``linkstate.conservation``), and the property-based
  churn suite drives both through nest birth/merge/split/decay and rank
  failure;
* within each path the ``vector``/``reference`` mode switch still
  applies, so the equivalence matrix is (incremental | rebuild) x
  (vector | reference), all four corners identical.

The switch is threaded from
:class:`~repro.experiments.runner.ExperimentContext` through the
reallocator, simulator, data plane and analysis layers, so a whole
experiment can be flipped to either mode (``repro bench --kernels
reference`` regenerates oracle baselines).  See ``docs/performance.md``
for the policy on which outputs are bit-for-bit identical across modes
and which agree to 1-ulp-scale rounding.
"""

from __future__ import annotations

__all__ = ["KERNEL_MODES", "DEFAULT_KERNELS", "check_kernels"]

#: the two implementations every hot kernel ships
KERNEL_MODES = ("vector", "reference")

#: the fast path is the default; ``"reference"`` is the scalar oracle
DEFAULT_KERNELS = "vector"


def check_kernels(kernels: str) -> str:
    """Validate a kernel-mode string and return it.

    Raises :class:`ValueError` for anything but ``"vector"`` or
    ``"reference"`` so a typo cannot silently select the slow path.
    """
    if kernels not in KERNEL_MODES:
        raise ValueError(
            f"kernels must be one of {KERNEL_MODES}, got {kernels!r}"
        )
    return kernels
