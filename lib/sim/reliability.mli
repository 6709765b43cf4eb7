(** Monte-Carlo reliability campaign: N seeded fault-injection trials
    of one mapping, each classified against the reference outputs.
    The reliability axis of the repo's mapper comparisons — hardened
    and unhardened mappings of any technique are judged under the same
    injected fault load, next to the II/energy overhead hardening
    costs. *)

type trial_class =
  | Correct  (** outputs matched; no voter saw a disagreement *)
  | Masked  (** outputs matched because a TMR voter outvoted a replica *)
  | Detected  (** a comparator or the tag check caught the corruption *)
  | Sdc  (** completed with a wrong output: silent data corruption *)
  | Crash  (** the machine stopped (RF miss, bad state, ...) *)

val trial_class_to_string : trial_class -> string

(** Inverse of {!trial_class_to_string}; [None] on unknown names. *)
val trial_class_of_string : string -> trial_class option

type report = {
  trials : int;
  correct : int;
  masked : int;
  detected : int;
  sdc : int;
  crash : int;
  injected : int;  (** events drawn across all trials *)
  applied : int;  (** events that struck live state (completed trials) *)
  quarantined : int;
      (** trials whose task kept raising through every supervised
          retry — degraded coverage, not campaign death *)
}

val sdc_rate : report -> float
val masked_rate : report -> float
val detected_rate : report -> float
val crash_rate : report -> float
val to_string : report -> string

(** First cycle strictly after the last instruction of the run; the
    window transient events are drawn over. *)
val horizon : Ocgra_core.Mapping.t -> iters:int -> int

(** Classify a single trial under the given bombardment.  The stats
    are available only for completed (non-raising) runs. *)
val classify :
  Ocgra_core.Problem.t ->
  Ocgra_core.Mapping.t ->
  io:Machine.io ->
  iters:int ->
  expected:(string * int list) list ->
  transients:Ocgra_arch.Fault.transient list ->
  trial_class * Machine.transient_stats option

(** Crash-safe checkpointing for {!run_campaign}: journal every
    completed trial to [path] (one JSON line, fsync'd in batches) and,
    with [resume], replay an existing journal first — its header must
    match the campaign exactly and every journaled seed must equal the
    pre-drawn seed of its trial (exactly-once-per-seed), or
    [Invalid_argument] is raised.  Replayed trials are skipped, never
    re-simulated or re-journaled, so a SIGKILL'd campaign resumed from
    its journal produces a byte-identical report. *)
type checkpoint = { path : string; resume : bool }

(** Decode one journaled trial line into [(trial, seed, (class,
    injected, applied))]; [None] for anything else (a torn tail, a
    header, garbage).  Never raises. *)
val parse_trial_line : string -> (int * int * (trial_class * int * int)) option

(** [run_campaign p m ~mk_io ~iters ~expected ~trials ~rate ~seed]
    executes [trials] independent seeded trials at per-(PE, cycle)
    event probability [rate], sharded across [workers] domains
    (default {!Ocgra_par.Pool.default_workers}).  All per-trial seeds
    are pre-drawn from the campaign RNG before the fan-out and the
    per-trial results are folded in trial order, so the report is
    bit-identical for every worker count — deterministic in [seed]
    alone.  [mk_io] must build a fresh io per trial (Store ops mutate
    memory) and is called from worker domains, so it must not close
    over unsynchronised mutable state.  Raises [Invalid_argument] on a
    negative trial count.

    Trials run under {!Ocgra_par.Supervise}: a raising trial is
    retried up to [retries] times (seeded backoff) and a
    deterministically-poisonous one lands in [report.quarantined]
    instead of aborting the campaign.  [chaos] injects seeded
    synthetic failures/delays per (trial, try) — a trial's record is a
    pure function of its pre-drawn seed, so retries that mask every
    injection reproduce the chaos-free report exactly.  [checkpoint]
    journals and resumes; see {!checkpoint}.

    [obs] records one span over the fan-out, the campaign tallies
    ([campaign.trials], [campaign.correct], [campaign.masked],
    [campaign.detected], [campaign.sdc], [campaign.crash],
    [campaign.injected], [campaign.applied], [campaign.resumed],
    [campaign.quarantined], [checkpoint.journaled]) and the
    supervision counters ([supervise.retries], [supervise.ok], ...).  *)
val run_campaign :
  ?workers:int ->
  ?obs:Ocgra_obs.Ctx.t ->
  ?retries:int ->
  ?chaos:Ocgra_par.Chaos.t ->
  ?checkpoint:checkpoint ->
  Ocgra_core.Problem.t ->
  Ocgra_core.Mapping.t ->
  mk_io:(unit -> Machine.io) ->
  iters:int ->
  expected:(string * int list) list ->
  trials:int ->
  rate:float ->
  seed:int ->
  report

(** {2 Survivor campaign} — graceful degradation under an escalating
    permanent-fault sequence, mapped through {!Ocgra_core.Repair}. *)

type survivor_step = {
  step : int;  (** permanent faults injected at this step *)
  rung : Ocgra_core.Mapper.rung option;
      (** certifying ladder rung; [None] = this step failed *)
  ii : int option;  (** survivor's II, when certified *)
  repair_s : float;  (** wall clock of the ladder *)
  scratch_s : float option;  (** wall clock of the cold remap, when measured *)
  scratch_ok : bool;  (** the cold remap also found a mapping *)
  replayed : bool;  (** survivor replayed correctly on the simulator *)
  note : string;
}

type survivor_report = {
  steps : survivor_step list;  (** in walk order; ends at the failure step *)
  survived : int;  (** highest fault count with a certified, replayed survivor *)
  certified_failure : int option;
      (** first fault count no rung could certify; [None] = walked out *)
  ii_curve : (int * int) list;  (** (fault count, II) per surviving step *)
  repair_vs_scratch : float option;
      (** median of scratch-time / repair-time over surviving steps *)
}

val survivor_step_to_string : survivor_step -> string
val survivor_to_string : survivor_report -> string

(** [run_survivor ~chain p m0 ~mk_io ~iters ~expected ~steps ~seed]
    walks an escalating seeded permanent-fault sequence on [p]'s (clean)
    array: step [k] re-masks the fabric with
    [Cgra.inject_faults ~seed ~n:k] — sequential draws, so each mask
    strictly contains the previous one — and salvages the previous
    step's mapping through {!Ocgra_core.Repair.repair} with [chain] as
    the fallback race, then replays the survivor on the cycle-accurate
    simulator against [expected].  The walk stops at the first step
    with no certified, correctly-replaying mapping (the certified
    failure point) or after [steps] steps.

    Unless [~scratch:false], every step also cold-remaps with
    {!Ocgra_core.Mapper.Harness.race} on the same mask to price the
    repair against a from-scratch solve.  [?step_deadline_s] budgets
    each step's ladder (and each cold remap) separately.  Deterministic
    in [seed] for a single-tier [chain]; with racing fallbacks the
    failure point is stable but which tier wins is timing-dependent.

    [obs] records one [survivor:step] span per step plus
    [survivor.steps] / [survivor.survived] and everything {!repair}
    itself attributes.  Raises [Invalid_argument] on a negative step
    count. *)
val run_survivor :
  ?workers:int ->
  ?obs:Ocgra_obs.Ctx.t ->
  ?scratch:bool ->
  ?step_deadline_s:float ->
  ?max_ii_bumps:int ->
  chain:Ocgra_core.Mapper.t list ->
  Ocgra_core.Problem.t ->
  Ocgra_core.Mapping.t ->
  mk_io:(unit -> Machine.io) ->
  iters:int ->
  expected:(string * int list) list ->
  steps:int ->
  seed:int ->
  survivor_report

(** {2 Hardening overhead} — measured on clean runs of both mappings. *)

type overhead = {
  ii_base : int;
  ii_hard : int;
  ops_base : int;
  ops_hard : int;
  energy_base : float;
  energy_hard : float;
}

(** Relative overheads: hardened / baseline - 1. *)
val ii_overhead : overhead -> float

val ops_overhead : overhead -> float
val energy_overhead : overhead -> float
val overhead_to_string : overhead -> string

(** Energy of one clean run via {!Energy.of_mapping_run}. *)
val measure_energy :
  Ocgra_core.Problem.t -> Ocgra_core.Mapping.t -> mk_io:(unit -> Machine.io) -> iters:int -> float

val overhead :
  baseline:Ocgra_core.Problem.t * Ocgra_core.Mapping.t ->
  hardened:Ocgra_core.Problem.t * Ocgra_core.Mapping.t ->
  mk_io:(unit -> Machine.io) ->
  iters:int ->
  overhead
