"""External-memory join algorithms: the paper's contribution and baselines.

Contents map to the paper as follows:

* :mod:`repro.core.twoway` — Section 3's two-relation joins;
* :mod:`repro.core.line3` — Algorithm 1 (3-relation line join);
* :mod:`repro.core.acyclic` — Algorithm 2 (``AcyclicJoin``) plus the
  peel-plan machinery standing in for its nondeterminism;
* :mod:`repro.core.line5` — Algorithm 4 (unbalanced ``L5``);
* :mod:`repro.core.line7` — Algorithm 5 and the ``L6``/``L8``
  reductions of Section 6.3;
* :mod:`repro.core.yannakakis_em` — the pairwise baseline the paper
  departs from (Section 1.2);
* :mod:`repro.core.reducer_em` — the external-memory full reducer;
* :mod:`repro.core.planner` — shape-based dispatch (the public API).
"""

from repro.core.acyclic import (BestRun, Plan, PlanRun, acyclic_join,
                                acyclic_join_best, clone_instance,
                                end_chooser, enumerate_plans,
                                first_leaf_chooser, largest_leaf_chooser,
                                plan_chooser, smallest_leaf_chooser)
from repro.core.emit import (AssignmentEmitter, CallbackEmitter,
                             CollectingEmitter, CountingEmitter, Emitter)
from repro.core.guided import (dumbbell_paper_chooser,
                               lollipop_paper_chooser, priority_chooser)
from repro.core.line3 import line3_join
from repro.core.line5 import line5_unbalanced_join
from repro.core.line7 import (line6_unbalanced_join, line7_cover11_join,
                              line7_unbalanced_join, line8_join,
                              line_join_auto, nlj_outer)
from repro.core.lw import detect_lw, lw_join, lw_query
from repro.core.planner import (ExecutionReport, estimate_memory_need,
                                execute)
from repro.core.reducer_em import full_reduce_em
from repro.core.triangle import detect_triangle, triangle_join
from repro.core.twoway import nested_loop_join, sort_merge_join
from repro.core.yannakakis_em import yannakakis_em

__all__ = [
    "acyclic_join", "acyclic_join_best", "enumerate_plans", "plan_chooser",
    "first_leaf_chooser", "smallest_leaf_chooser", "largest_leaf_chooser",
    "end_chooser", "clone_instance", "BestRun", "Plan", "PlanRun",
    "Emitter", "CountingEmitter", "CollectingEmitter", "AssignmentEmitter",
    "CallbackEmitter",
    "line3_join", "line5_unbalanced_join", "line6_unbalanced_join",
    "line7_unbalanced_join", "line7_cover11_join", "line8_join",
    "line_join_auto", "nlj_outer",
    "nested_loop_join", "sort_merge_join", "yannakakis_em",
    "full_reduce_em", "execute", "ExecutionReport", "estimate_memory_need",
    "triangle_join", "detect_triangle",
    "priority_chooser", "lollipop_paper_chooser", "dumbbell_paper_chooser",
    "lw_join", "lw_query", "detect_lw",
]
