(** ILP-based mappers on the in-tree simplex + branch & bound, matching
    the three ILP cells of Table I.  All three restrict the formulation
    (distance caps / nearest-neighbour placement) and rely on lazy
    strict routing; see DESIGN.md §4b.  Only these three mapper values
    are exported: the bench and the CLI reach them through the
    registry like every other cell.  Each records one span per solve
    and flushes the B&B core's tallies ([ilp.nodes], [ilp.lp_solves],
    [ilp.pruned], [ilp.improved]). *)

(** Spatial binding ILP ([34], [23], [35]): assignment binaries with
    pairwise distance caps, escalating the cap on infeasibility. *)
val spatial : Ocgra_core.Mapper.t

(** Joint time-indexed binding+scheduling ILP ([41], [15]) over
    {!Ocgra_core.Mapper.sweep}; intended for small arrays and kernels,
    and capped at 12 s of wall clock under the caller's deadline. *)
val temporal : Ocgra_core.Mapper.t

(** Scheduling-only ILP ([15], [53]): re-time a heuristic binding at
    its II.  It never claims an optimal II. *)
val schedule : Ocgra_core.Mapper.t
