(** A CGRA instance: a rows x cols array of PEs joined by a topology.
    Capability queries, neighbour sets and hop tables are the whole
    interface the mappers use, so any array describable here is
    mappable by all of them.

    {b Derived view.} [make] and [with_faults] derive the fault-masked
    view of the array once: per PE its health, its masked neighbour
    list, its one-cycle reach and its effective register-file size.
    {!pe_ok}, {!neighbours}, {!reachable_in_one}, {!supports} and
    {!effective_rf_size} are then O(1) lookups returning stored lists,
    which is what keeps the router's inner loop free of allocation.
    The view costs O(PEs x degree) words per instance.  [t] is
    [private] so that a record update such as [{ c with faults }]
    cannot leave a stale view behind: build with [make], change the
    mask with [with_faults].

    {b Precondition.} The per-PE lookups ({!pe}, {!pe_ok},
    {!neighbours}, {!reachable_in_one}, {!supports},
    {!effective_rf_size}) expect an index in 0 .. [pe_count t - 1] and
    raise [Invalid_argument] outside it.  Code that reads PE indices
    from outside (a mapping under validation, a wire request) checks
    the range first, as [Check.validate] does.  Fault entries naming
    PEs outside the array are kept in the mask but mask nothing. *)

(** The fault-masked view; see above. *)
type derived

type t = private {
  rows : int;
  cols : int;
  topology : Topology.t;
  pes : Pe.t array;  (** row-major, length rows * cols *)
  name : string;
  faults : Fault.t list;  (** resources out of service; [[]] = healthy *)
  derived : derived;  (** computed from the fields above by [make] *)
}

(** Raises [Invalid_argument] when the PE array has the wrong length. *)
val make :
  ?name:string -> ?faults:Fault.t list -> rows:int -> cols:int -> topology:Topology.t -> Pe.t array -> t

val pe_count : t -> int
val pe : t -> int -> Pe.t
val coords : t -> int -> int * int
val index : t -> row:int -> col:int -> int

(** {2 Faults}

    [neighbours], [reachable_in_one], [supports] and [capable_pes] are
    all fault-masked: a downed PE supports nothing and has no links, a
    downed link disappears from the adjacency.  Mappers that only go
    through these queries avoid faulted resources with no changes. *)

val faults : t -> Fault.t list

(** Same array with a (deduplicated) replacement fault set. *)
val with_faults : t -> Fault.t list -> t

(** False when the cell itself is [Pe_down]. *)
val pe_ok : t -> int -> bool

(** False when the directed link i -> j is [Link_down] (endpoint health
    is not considered — combine with [pe_ok]). *)
val link_ok : t -> int -> int -> bool

(** False when config slot [time mod ii] of [pe] is [Fu_slot_dead]. *)
val slot_ok : t -> pe:int -> ii:int -> time:int -> bool

(** Dead config-memory slot indices of [pe]. *)
val dead_slots : t -> pe:int -> int list

(** Register-file capacity after [Rf_reduced] faults (0 for a downed
    PE), clamped at 0. *)
val effective_rf_size : t -> int -> int

(** Physical topology adjacency, ignoring faults. *)
val raw_neighbours : t -> int -> int list

(** Draw up to [n] distinct random faults (fewer only if the array runs
    out of distinct resources); deterministic in [seed]. *)
val inject_faults : t -> seed:int -> n:int -> Fault.t list

(** All directed physical wires (faults ignored), row-major source
    order. *)
val raw_links : t -> (int * int) list

(** Seeded Monte-Carlo transient bombardment of this array over cycles
    [0, horizon) at per-(PE, cycle) event probability [rate];
    deterministic in [seed].  See {!Fault.monte_carlo}. *)
val inject_transients :
  t -> seed:int -> horizon:int -> rate:float -> Fault.transient list

val neighbours : t -> int -> int list

(** Including staying put. *)
val reachable_in_one : t -> int -> int list

val supports : t -> int -> Ocgra_dfg.Op.t -> bool
val capable_pes : t -> Ocgra_dfg.Op.t -> int list
val connectivity_graph : t -> Ocgra_graph.Digraph.t

(** [.(i).(j)] = minimum cycles to move a value from PE i to PE j. *)
val hop_table : t -> int array array

(** Homogeneous full-featured mesh: the "simple CGRA" of Fig. 2. *)
val uniform : ?topology:Topology.t -> ?rf_size:int -> rows:int -> cols:int -> unit -> t

(** ADRES-flavoured heterogeneity: memory and I/O in column 0,
    multipliers on even cells. *)
val adres_like : ?topology:Topology.t -> ?rf_size:int -> rows:int -> cols:int -> unit -> t

(** The CPU-like end of the Fig. 1 spectrum: one full PE. *)
val single_pe : ?rf_size:int -> unit -> t

val describe : t -> string
