(** CDCL SAT solver in the MiniSat lineage: two-watched-literal
    propagation, VSIDS decision heap, first-UIP learning with
    backjumping, phase saving, Luby restarts — plus the incremental
    machinery the modulo-scheduling II sweep leans on: solving under
    assumption literals with a failed-assumption core, LBD-guided
    learnt-DB reduction and root-level simplification, so one solver
    instance can be reused across many related queries while keeping
    its learnt clauses, variable activities and saved phases.

    Literals: variable [v] (1-based) gives literals [pos v] and
    [neg v]; [negate] flips polarity.

    Watches are kept per literal in a growable [int array] of clause
    indices, used as a stack: the entry pushed last is visited first.
    Propagation visits a copy of the vector and pushes the watches it
    keeps back in visit order; after a conflict the unvisited rest goes
    back on top in its old order.  That is the order a cons list of
    watches would have, and the order decides which unit or conflict
    propagation finds first, so the search (decisions, conflicts,
    propagations) is fixed by the instance and the call sequence alone.
    Propagation and conflict analysis allocate nothing beyond the
    learnt clause itself. *)

type t
type lit = int

val pos : int -> lit
val neg : int -> lit
val negate : lit -> lit
val var_of : lit -> int
val is_pos : lit -> bool
val lit_to_string : lit -> string

type result = Sat | Unsat | Unknown

(** [reduce_base] is the initial learnt-clause budget before the first
    [reduce_db] pass (default 4000; the budget then grows by half at
    every reduction).  Tests use a tiny budget to exercise reduction
    cheaply. *)
val create : ?reduce_base:int -> unit -> t

val n_vars : t -> int

(** Fresh variable (1-based index). *)
val new_var : t -> int

val new_vars : t -> int -> int list

(** Adding a clause backtracks to the root level first; empty or
    immediately-contradicted clauses make the instance permanently
    UNSAT. Raises [Invalid_argument] on unknown variables, whatever the
    clause (a tautology too) and whatever the state of the instance. *)
val add_clause : t -> lit list -> unit

(** [solve ?max_conflicts ?should_stop ?assumptions t]: [Unknown] when
    the conflict budget runs out or [should_stop] (polled at amortised
    checkpoints, e.g. a wall-clock deadline) returns true.  Raises
    [Invalid_argument] on an assumption over an unknown variable, also
    when the instance is already UNSAT.

    Assumptions are established one per decision level before any free
    decision (the decision level is the assumption cursor, so the
    prefix costs O(1) per decision).  UNSAT under assumptions leaves
    the instance usable and records a failed-assumption core
    ({!conflict_assumptions}); UNSAT with an empty core means the
    instance itself is unsatisfiable ({!is_ok} turns false).  After
    [Sat], read the model with {!value}. *)
val solve :
  ?max_conflicts:int -> ?should_stop:(unit -> bool) -> ?assumptions:lit list -> t -> result

(** After an [Unsat] answer under assumptions: a subset of the
    assumption literals whose conjunction is already inconsistent with
    the instance (re-solving under exactly this core is again
    [Unsat]).  Empty when the last [Unsat] was instance-level, and
    after [Sat]/[Unknown]. *)
val conflict_assumptions : t -> lit list

(** False once the instance is unsatisfiable outright (empty clause,
    root-level conflict) — as opposed to UNSAT under assumptions,
    which keeps the instance usable. *)
val is_ok : t -> bool

(** Model value of a variable (meaningful after [Sat]). *)
val value : t -> int -> bool

(** (conflicts, decisions, propagations) since creation. *)
val stats : t -> int * int * int

(** Learnt clauses currently stored (after any reduction). *)
val n_learnts : t -> int

(** [reduce_db] passes run so far. *)
val n_reduces : t -> int

(** Luby restarts taken so far. *)
val n_restarts : t -> int

(** Convergence distributions, tallied once per conflict as plain
    64-cell count arrays (the solver carries no observability
    dependency; mapper wrappers flush deltas into histograms).
    [dist_lbd] is indexed by the learnt clause's exact LBD (tail
    bucket at 63); [dist_trail] and [dist_ppd] by [floor(log2 v)] of
    the trail depth at conflict and of propagations-per-decision
    since the previous conflict. *)
val dist_lbd : t -> int array

val dist_trail : t -> int array
val dist_ppd : t -> int array

(** Internal-consistency audit for tests: reason indices must point at
    live clauses asserting their variable, and every stored clause
    must appear exactly once in the watch vector of each of its first
    two literals and in no other (so there are [2 * clauses] live
    watches).  Returns human-readable violations; [[]] means
    healthy. *)
val self_check : t -> string list
