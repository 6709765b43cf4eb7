(** SMT-based mapping ([44], restricted routing networks): placement is
    propositional (one op per PE), the schedule lives in integer
    difference logic with placement-conditional atoms; routing is lazy
    with placement blocking clauses. *)

(** One lazy-SMT solve per candidate II of {!Ocgra_core.Mapper.sweep},
    each with up to six placement-blocking routing retries; threads the
    deadline into the lazy loop and the inner SAT search.  [obs] records
    one span per candidate II and flushes the lazy-SMT tallies
    ([sat.conflicts], [sat.decisions], [sat.propagations],
    [smt.rounds]). *)
val mapper : Ocgra_core.Mapper.t
