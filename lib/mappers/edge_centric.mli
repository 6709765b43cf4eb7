(** Edge-centric modulo scheduling (EMS, Park et al. [37]): the router
    drives placement — each consumer lands on the cheapest (PE, cycle)
    reachable from its primary producer's routing cost field. *)

val attempt :
  Ocgra_core.Problem.t -> Ocgra_util.Rng.t -> ii:int -> Ocgra_core.Mapping.t option

(** Eight restarts per candidate II of {!Ocgra_core.Mapper.sweep}, or
    at II = 1 on a spatial problem.  [obs] records one span per
    temporal attempt ([ems:ii=N]) and the attempt tally
    ([ems.attempts]). *)
val mapper : Ocgra_core.Mapper.t
