(** SAT-based temporal mapping ([17]): binding, scheduling and routing
    encoded propositionally per candidate II, starting at MII — SAT at
    MII certifies the optimal II; UNSAT certifies infeasibility within
    the schedule window.  Routes use FU hops only (no RF holds) and
    fan-out edges route separately; see DESIGN.md.

    The sweep is incremental by default: the x/y/h propositions are
    II-independent, so one solver instance serves every candidate II —
    per-II constraints join under an activation literal, each II is
    solved under that assumption, and refuted candidates are retired
    with a unit against their guard.  Learnt clauses, VSIDS activity
    and saved phases carry across the sweep (DESIGN.md §4i). *)

(** (mapping, attempts, proven optimal, note) over
    {!Ocgra_core.Mapper.sweep}.  Proven optimal means found at MII, or
    every smaller II refuted without hitting [max_conflicts].  A failed
    sweep's note says why it stopped: ["budget"], ["unsat up to max
    II"] or ["deadline"].  [deadline] is threaded into the CDCL search
    as a [should_stop] hook and may carry a cancellation hook.  [obs]
    records one span per candidate II and flushes the solver's
    conflict/decision/propagation tallies as per-II deltas
    ([sat.conflicts], ...).  [incremental:false] restores the
    cold-per-II baseline (a fresh solver per candidate II); cold and
    incremental sweeps reach the same verdict and the same final II,
    though not necessarily the same model. *)
val map :
  ?max_conflicts:int ->
  ?deadline:Ocgra_core.Deadline.t ->
  ?obs:Ocgra_obs.Ctx.t ->
  ?incremental:bool ->
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  Ocgra_core.Mapping.t option * int * bool * string

val mapper : Ocgra_core.Mapper.t

(** The cold-per-II baseline as a registered mapper ("sat-cold"), kept
    so the incremental sweep can be priced against it. *)
val mapper_cold : Ocgra_core.Mapper.t
