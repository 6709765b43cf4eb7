(* Spatial mapping by simulated annealing over placements — the
   SPR/SNAFU/DSAGEN school ([49], [33], [32]): anneal a node->PE vector
   on collision + wirelength cost, then pipeline and route strictly. *)

open Ocgra_core

let config = { Ocgra_meta.Sa.default_config with max_steps = 20_000 }
let extractions = 10

let mapper =
  Mapper.make ~name:"sa-spatial" ~citation:"Friedman et al. SPR [49]; SNAFU [33]; DSAGEN [32]"
    ~scope:Taxonomy.Spatial_mapping ~approach:(Taxonomy.Meta_local "SA")
    (fun p rng dl obs ->
      let hop_table = Ocgra_arch.Cgra.hop_table p.cgra in
      let attempts = ref 0 in
      let rec go k =
        if k <= 0 || Deadline.expired dl then None
        else begin
          incr attempts;
          let init = Spatial_common.random_genome p rng in
          let best, _cost, (stats : Ocgra_meta.Sa.stats) =
            Ocgra_obs.Ctx.span obs ~cat:"sa" "sa-spatial:anneal" (fun () ->
                Ocgra_meta.Sa.run ~config rng ~init
                  ~neighbour:(fun rng g -> Spatial_common.mutate p rng g)
                  ~cost:(fun g -> float_of_int (Spatial_common.genome_cost p hop_table g)))
          in
          Ocgra_obs.Ctx.add obs "sa.steps" stats.steps;
          Ocgra_obs.Ctx.add obs "sa.accepted" stats.accepted;
          match Spatial_common.extract p best with
          | Some m -> Some m
          | None -> go (k - 1)
        end
      in
      let m = go extractions in
      Mapper.answer ~note:"annealed placement + strict pipeline routing" ~attempts:!attempts
        (m, Mapper.at_mii p m))
