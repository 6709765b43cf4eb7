(** Constructive modulo scheduling with integrated greedy placement and
    routing — the workhorse heuristic (iterative modulo scheduling /
    deterministic DRESC lineage).  The II loop starts at the MII lower
    bound, so success at MII is provably optimal. *)

(** Operation heights (longest dist-0 path to a sink). *)
val heights : Ocgra_dfg.Dfg.t -> int array

(** A topological order sorted by ASAP level then height, with random
    tie-breaking (the restart diversification). *)
val topo_order_by_height : Ocgra_util.Rng.t -> Ocgra_dfg.Dfg.t -> int list

(** Hop-distance sum from [pe] to the already-placed neighbours of a
    node; [None] when nothing relevant is placed yet. *)
val proximity : Place_route.t -> int array array -> int -> int -> int option

(** One placement attempt at a fixed II ([time_slack] widens the time
    window tried per candidate PE; [hop_table] is
    [Cgra.hop_table p.cgra], which [map] computes once for all its
    attempts). *)
val attempt :
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  hop_table:int array array ->
  ii:int ->
  time_slack:int ->
  Ocgra_core.Mapping.t option

(** Map at the smallest feasible II with random restarts; returns
    (mapping, attempts, achieved the MII bound).  [deadline_s] bounds
    the run in wall-clock seconds (polled between attempts).
    [deadline] additionally threads an externally built deadline --
    including any attached cancellation hook -- into the same stop
    signal.  [obs] receives the total placement-attempt count
    ([constructive.attempts]). *)
val map :
  ?restarts:int ->
  ?time_slack:int ->
  ?deadline_s:float ->
  ?deadline:Ocgra_core.Deadline.t ->
  ?obs:Ocgra_obs.Ctx.t ->
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  Ocgra_core.Mapping.t option * int * bool
