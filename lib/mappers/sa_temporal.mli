(** DRESC-style temporal mapping by simulated annealing ([22], [30]):
    anneal a full node->(PE, cycle) binding under an FU-collision +
    timing-feasibility + wirelength cost, then strict-route (with
    negotiated fallback) at extraction. *)

type state = { binding : (int * int) array }

(** The annealing cost (cheap, O(nodes + edges)). *)
val cost : Ocgra_core.Problem.t -> int array array -> ii:int -> state -> float

(** One annealing run + extraction at a fixed II.  Flushes the
    annealer's tallies to [obs] ([sa.steps], [sa.accepted]). *)
val try_ii :
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  ii:int ->
  config:Ocgra_meta.Sa.config ->
  obs:Ocgra_obs.Ctx.t ->
  Ocgra_core.Mapping.t option

(** Three annealing restarts per candidate II of
    {!Ocgra_core.Mapper.sweep}; [obs] records one span per restart
    ([sa:ii=N]). *)
val mapper : Ocgra_core.Mapper.t
