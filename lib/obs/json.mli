(** The tree's one JSON (RFC 8259) codec: a recursive-descent reader,
    a compact writer and a handful of [Result]-returning decoders.
    Every JSON document the system reads or writes — the [serve] wire,
    exporter dumps, [BENCH_*.json] snapshots, checkpoint journals —
    goes through this module.

    Object member order is preserved both ways; numbers are floats, so
    integers are exact up to 2{^53} (carry anything wider, e.g. 62-bit
    seeds, as a string). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Whole-input parse; the error names the byte offset.  Never
    raises. *)

(** {2 Writer} *)

val to_buffer : Buffer.t -> t -> unit
(** Compact (no whitespace) rendering.  Integral [Num]s up to 2{^53}
    print as plain integers, other finite floats as the shortest
    decimal that reads back to the same float, non-finite ones as
    [null].  Strings escape the quote, the backslash and control
    characters only; every other byte passes through, so
    [parse (write v) = Ok v] for finite numbers. *)

val write : t -> string
(** {!to_buffer} into a fresh string. *)

val of_int : int -> t
(** [Num], exact for magnitudes up to 2{^53}. *)

(** {2 Decoders}

    Each error message names what was expected, and {!field}/{!opt}
    prefix it with the field name. *)

type 'a decoder = t -> ('a, string) result

val int : int decoder
(** An integral [Num] of magnitude at most 2{^53}. *)

val float : float decoder
val bool : bool decoder
val string : string decoder

val list : 'a decoder -> 'a list decoder
(** An array, every element decoded; the first failure wins. *)

val field : string -> 'a decoder -> 'a decoder
(** A required object member. *)

val opt : string -> 'a decoder -> default:'a -> 'a decoder
(** An optional object member: [default] when absent, decoded when
    present. *)
