(** Spatial mapping by simulated annealing over placements (the
    SPR/SNAFU/DSAGEN school [49], [33], [32]): up to ten annealing runs,
    each followed by a strict extraction.  [obs] records one span per
    annealing run and flushes the annealer's tallies ([sa.steps],
    [sa.accepted]). *)
val mapper : Ocgra_core.Mapper.t
