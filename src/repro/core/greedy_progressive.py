"""The Greedy Progressive KD-Tree (Section III-C) — cost-model-driven PKD.

The fixed ``delta`` of the Progressive KD-Tree trades overhead against
convergence speed.  The greedy variant removes the trade-off: for each
query it estimates the *net* execution time ``t'_i`` with the cost model,
then sets the indexing budget to ``t_total - t'_i`` so that every query's
*gross* time stays constant at ``t_total = t_scan + t_budget(delta_0)``
until the index converges.  Because the estimate is conservative, a query
may finish under budget; a *reactive phase* then tops up the indexing
until the budget is consumed.

Time here is *model time*: work counters priced by the machine profile
(:meth:`CostModel.seconds_of`).  That makes the greedy invariant — gross
model cost constant per query — exact and testable; wall-clock follows it
up to interpreter noise.  It also makes the greedy controller oblivious
to *how* its budget is spent physically: with parallel workers
configured (:mod:`repro.parallel`) the inherited refinement step fans
the same row budget out across disjoint pieces and the scans run as
morsels, while every budget decision here stays driven by the same
deterministic model-time ledger.

Interactivity threshold (paper Section III-C): with a threshold ``tau``,

* if a full scan fits under ``tau``: ``t_total = tau`` (delta/x ignored);
* else with a penalty budget ``delta`` (GPFP): start at
  ``t_total = t_scan + t_budget(delta)`` until the per-query scan cost
  drops under ``tau``, then switch to ``t_total = tau``;
* else with a query limit ``x`` (GPFQ): spread the indexing work needed to
  push scans under ``tau`` evenly over the first ``x`` queries, then
  proceed as above.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import InvalidParameterError
from .cost_model import CostModel
from .index_base import IndexDebugState
from .metrics import PhaseTimer, QueryStats
from .progressive_kdtree import CONVERGED, CREATION, REFINEMENT, ProgressiveKDTree
from .query import RangeQuery
from .table import Table

__all__ = ["GreedyProgressiveKDTree"]

#: Stop the reactive phase once the remaining headroom is below this
#: fraction of t_total (avoids unbounded tiny top-ups).
REACTIVE_SLACK = 0.01


class GreedyProgressiveKDTree(ProgressiveKDTree):
    """Greedy Progressive KD-Tree (GPKD).

    Parameters
    ----------
    table, delta, size_threshold, tau, cost_model:
        As for :class:`ProgressiveKDTree`; ``delta`` only determines the
        first query's budget ("the first query uses the user-provided
        delta"), after which the cost model takes over.
    query_limit:
        Optional ``x``: with ``tau`` set and a full scan above ``tau``,
        distribute the indexing needed to get under ``tau`` over the first
        ``x`` queries (the paper's GPFQ mode).  Mutually exclusive with
        relying on ``delta`` for that situation (GPFP mode).
    use_histograms:
        Build per-column equi-width histograms at load time and use them
        to estimate candidate survival per predicate instead of the
        conservative half-per-column default (extension; see
        :mod:`repro.core.histogram`).
    """

    name = "GPKD"

    def __init__(
        self,
        table: Table,
        delta: float = 0.2,
        size_threshold: int = 1024,
        tau: Optional[float] = None,
        query_limit: Optional[int] = None,
        cost_model: Optional[CostModel] = None,
        use_histograms: bool = False,
    ) -> None:
        super().__init__(
            table,
            delta=delta,
            size_threshold=size_threshold,
            tau=tau,
            cost_model=cost_model,
        )
        if query_limit is not None and query_limit < 1:
            raise InvalidParameterError(
                f"query_limit must be >= 1, got {query_limit}"
            )
        self.query_limit = query_limit
        self._t_total: Optional[float] = None
        self._fixed_budget_seconds: Optional[float] = None  # GPFQ spreading
        self._under_tau = False
        self._histograms = None
        if use_histograms:
            from .histogram import TableHistograms

            self._histograms = TableHistograms(table)

    # ----------------------------------------------------------------- targets

    def _scan_d_factor(self) -> float:
        return 1.0 + 0.5 * (self.n_dims - 1)

    def _establish_t_total(self) -> None:
        """Fix the gross per-query target on the first query."""
        model = self.cost_model
        scan_seconds = model.full_scan_seconds()
        if self.tau is not None and scan_seconds <= self.tau:
            self._t_total = self.tau
            self._under_tau = True
            return
        budget = model.creation_indexing_seconds(self.delta)
        self._t_total = scan_seconds + budget
        if self.tau is not None and self.query_limit is not None:
            # GPFQ: total indexing needed = full creation plus enough whole
            # refinement levels that the largest piece scans under tau,
            # spread evenly (in model seconds) over the first x queries.
            target_rows = max(
                self.size_threshold,
                int(self.tau / (model.profile.seq_read * self._scan_d_factor())),
            )
            levels = max(0, math.ceil(math.log2(max(2, self.n_rows) / target_rows)))
            total_seconds = model.creation_indexing_seconds(
                1.0
            ) + levels * model.refinement_swap_seconds(1.0)
            self._fixed_budget_seconds = total_seconds / self.query_limit

    def _maybe_switch_to_tau(self) -> None:
        """GPFP/GPFQ: once scans fit under tau, the target becomes tau.

        In GPFQ mode the switch is additionally held until the user's
        ``x`` queries have run: the work was deliberately spread over
        exactly that many queries (Fig. 7: "this first drop happens after
        ten queries, as requested by the user").
        """
        if self._fixed_budget_seconds is not None and (
            self.queries_executed + 1 < self.query_limit
        ):
            return
        if (
            self.tau is not None
            and not self._under_tau
            and self._estimated_scan_seconds() < self.tau
        ):
            self._t_total = self.tau
            self._under_tau = True
            self._fixed_budget_seconds = None

    # ---------------------------------------------------------------- estimates

    def _net_scan_elements(self, query: RangeQuery, touched: int) -> int:
        """Expected element touches to candidate-scan ``touched`` rows.

        With histograms: the estimated candidate survival per predicate,
        padded 20% to stay an over-estimate (the reactive phase repairs
        under-spending; over-spending cannot be taken back).  Without:
        the conservative half-per-column default.
        """
        if self._histograms is not None:
            return int(
                1.2 * self._histograms.estimate_candidate_elements(query, touched)
            )
        return int(touched * self._scan_d_factor())

    def _estimate_net_seconds(self, query: RangeQuery, stats: QueryStats) -> float:
        """Conservative model estimate of this query's non-indexing cost."""
        model = self.cost_model
        if self.phase == CREATION:
            touched = self.n_rows - self._rows_copied
            if self._pivot0 is not None:
                if query.lows[0] < self._pivot0:
                    touched += self._top_write
                if query.highs[0] > self._pivot0:
                    touched += self.n_rows - 1 - self._bottom_write
            alpha = touched / self.n_rows
            return model.creation_lookup_seconds(alpha) + model.scan_seconds(
                self._net_scan_elements(query, touched)
            )
        if self._tree is None:
            return model.full_scan_seconds()
        nodes_before = stats.lookup_nodes
        # Pricing-only descent: same visits, no match construction.
        touched = self._tree.arena.probe(query, stats)
        visited = stats.lookup_nodes - nodes_before
        # The answering search after refinement re-pays roughly the same
        # node visits, so count them twice to stay conservative.
        return 2.0 * visited * model.profile.random_access + model.scan_seconds(
            self._net_scan_elements(query, touched)
        )

    def _budget_rows_for(self, headroom_seconds: float) -> int:
        if headroom_seconds <= 0.0:
            return 0
        if self.phase == CREATION:
            return self.cost_model.rows_for_creation_budget(headroom_seconds)
        return self.cost_model.rows_for_refinement_budget(headroom_seconds)

    # -------------------------------------------------------------------- query

    def _spend(self, budget_rows: int, query: RangeQuery, stats: QueryStats) -> None:
        """Run one indexing slice of ``budget_rows`` in the current phase."""
        if budget_rows <= 0 or self.phase == CONVERGED:
            return
        if self.phase == CREATION:
            copied = self._creation_step(budget_rows, stats)
            leftover = budget_rows - copied
            if leftover > 0 and self.phase == REFINEMENT:
                # Same time budget, dearer row visits during refinement.
                leftover = self.cost_model.rows_for_refinement_budget(
                    leftover * self.cost_model.creation_row_seconds()
                )
                if leftover > 0:
                    self._refine_step(leftover, query, stats)
        elif self.phase == REFINEMENT:
            self._refine_step(budget_rows, query, stats)

    def _execute(self, query: RangeQuery, stats: QueryStats) -> np.ndarray:
        self._ensure_initialized(stats)
        if self._t_total is None:
            self._establish_t_total()
            if self._fixed_budget_seconds is not None:
                budget_rows = self._budget_rows_for(self._fixed_budget_seconds)
            elif self._under_tau:
                # tau situation (1): the user delta is ignored; derive the
                # first budget from the headroom under tau directly.
                net = self._estimate_net_seconds(query, stats)
                budget_rows = self._budget_rows_for(self._t_total - net)
            else:
                budget_rows = max(1, int(round(self.delta * self.n_rows)))
        else:
            self._maybe_switch_to_tau()
            if self._fixed_budget_seconds is not None:
                budget_rows = self._budget_rows_for(self._fixed_budget_seconds)
            else:
                net = self._estimate_net_seconds(query, stats)
                budget_rows = self._budget_rows_for(self._t_total - net)
        stats.delta_used = budget_rows / self.n_rows
        with PhaseTimer(stats, "adaptation"):
            self._spend(budget_rows, query, stats)
        if self.phase == CREATION:
            with PhaseTimer(stats, "scan"):
                answer = self._creation_scan(query, stats)
        else:
            with PhaseTimer(stats, "scan"):
                answer = self._refined_scan(query, stats)
        # Reactive phase: the estimate was conservative; top the budget up
        # until the gross model cost reaches t_total.
        if self._fixed_budget_seconds is None:
            with PhaseTimer(stats, "adaptation"):
                self._reactive(query, stats)
        stats.delta_used = None if self.n_rows == 0 else stats.indexing_work / (
            (self.n_dims + 1) * self.n_rows
        )
        return answer

    def debug_state(self) -> IndexDebugState:
        """PKD state plus the greedy controller's target bookkeeping."""
        state = super().debug_state()
        state.extras["t_total"] = self._t_total
        state.extras["under_tau"] = self._under_tau
        state.extras["fixed_budget_seconds"] = self._fixed_budget_seconds
        return state

    def _reactive(self, query: RangeQuery, stats: QueryStats) -> None:
        model = self.cost_model
        slack = REACTIVE_SLACK * self._t_total
        for _ in range(64):  # hard cap; each round makes forward progress
            if self.phase == CONVERGED:
                return
            headroom = self._t_total - model.seconds_of(stats)
            if headroom <= slack:
                return
            rows = self._budget_rows_for(headroom)
            if rows <= 0:
                return
            self._spend(rows, query, stats)
