(** Graph-based binding via subgraph isomorphism on the modulo
    time-extended CGRA (the EPIMap [28] / graph-minor [27] / backward
    simultaneous [47] school): list-schedule, materialise every
    dependence as a chain of Route nodes so each pattern edge spans one
    cycle, then embed the pattern into the (PE, slot) graph with VF2.
    Injectivity on (PE, slot) is exactly FU exclusivity. *)

(** Bind a scheduled DFG; [None] when the embedding search fails. *)
val bind : Ocgra_core.Problem.t -> ii:int -> int array -> Ocgra_core.Mapping.t option

(** Up to four schedule-and-embed attempts per candidate II of
    {!Ocgra_core.Mapper.sweep}; [obs] records one span per embedding
    attempt ([iso:ii=N]) and counts attempts ([iso.matches]). *)
val mapper : Ocgra_core.Mapper.t
