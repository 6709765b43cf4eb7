(** GenMap-style spatial mapping by genetic algorithm ([19]): up to ten
    evolution runs, each followed by a strict extraction.  [obs] records
    one span per evolution run and flushes the GA core's tally
    ([ga.evaluations]). *)
val mapper : Ocgra_core.Mapper.t
