(* Edge-centric modulo scheduling (EMS, Park et al. [37]).

   Instead of picking a slot for an operation and then routing its
   operands, the router drives placement: for each unplaced consumer,
   the cost field of a routing search from its (already placed) primary
   producer is explored, and the consumer lands on the cheapest
   reachable (PE, cycle) — routing failures are discovered before
   commitment rather than after. *)

open Ocgra_dfg
open Ocgra_core
module Rng = Ocgra_util.Rng

(* Candidate order: routing cost, then layer, then jitter, then PE,
   then time — the lexicographic order of the tuples, compared as ints. *)
let compare_candidates ((c1 : int), (l1 : int), (j1 : int), (pe1 : int), (t1 : int))
    (c2, l2, j2, pe2, t2) =
  if c1 <> c2 then Int.compare c1 c2
  else if l1 <> l2 then Int.compare l1 l2
  else if j1 <> j2 then Int.compare j1 j2
  else if pe1 <> pe2 then Int.compare pe1 pe2
  else Int.compare t1 t2

let attempt (p : Problem.t) rng ~ii =
  let state = Place_route.create p ~ii in
  let cgra = p.cgra in
  let npe = Ocgra_arch.Cgra.pe_count cgra in
  let hop_table = Ocgra_arch.Cgra.hop_table cgra in
  let order = Constructive.topo_order_by_height rng p.dfg in
  let horizon = Problem.max_time p in
  let edges = Array.of_list (Dfg.edges p.dfg) in
  let ok =
    List.for_all
      (fun v ->
        let op = Dfg.op p.dfg v in
        (* primary producer: the placed predecessor with the latest
           ready time *)
        let preds =
          List.filter_map
            (fun i ->
              let e = edges.(i) in
              if e.dst = v && e.src <> v && Place_route.is_placed state e.src then Some e else None)
            (List.init (Array.length edges) Fun.id)
        in
        let primary =
          List.fold_left
            (fun acc (e : Dfg.edge) ->
              let _, tu = Place_route.binding_of state e.src in
              match acc with
              | None -> Some (e, tu)
              | Some (_, best) -> if tu > best then Some (e, tu) else acc)
            None preds
        in
        match primary with
        | None ->
            (* source node: greedy placement *)
            let capable =
              List.filter (fun pe -> Ocgra_arch.Cgra.supports cgra pe op) (List.init npe Fun.id)
            in
            let shuffled = Array.to_list (Rng.shuffle rng (Array.of_list capable)) in
            List.exists
              (fun pe ->
                let est, lst = Place_route.time_window state hop_table v pe in
                let rec try_time t =
                  t <= min lst (est + (2 * ii)) && (Place_route.place state v ~pe ~time:t || try_time (t + 1))
                in
                est <= lst && try_time est)
              shuffled
        | Some (e, tu) ->
            let pu, _ = Place_route.binding_of state e.src in
            let lat = Op.latency (Dfg.op p.dfg e.src) in
            let avail = tu + lat in
            let max_layers = min (3 * ii + 4) (horizon - avail - 1) in
            if max_layers < 0 then false
            else begin
              let cm = Route.strict cgra state.occ in
              let field = Route.explore ~ii cgra cm ~src_pe:pu ~avail ~layers:max_layers in
              (* candidate slots ordered by routing cost from the primary
                 producer, then by time *)
              let candidates = ref [] in
              for layer = 0 to max_layers do
                let t = avail + layer - (e.dist * ii) in
                if t >= 0 && t < horizon then
                  for pe = 0 to npe - 1 do
                    if Ocgra_arch.Cgra.supports cgra pe op then begin
                      match Route.goal_state field ~dst_pe:pe ~layer with
                      | Some (_, c) -> candidates := (c, layer, Rng.int rng 8, pe, t) :: !candidates
                      | None -> ()
                    end
                  done
              done;
              let candidates = List.sort compare_candidates !candidates in
              List.exists
                (fun (_, _, _, pe, t) -> Place_route.place state v ~pe ~time:t)
                candidates
            end)
      order
  in
  if ok then Place_route.to_mapping state else None

let map ?(restarts = 8) ?deadline_s ?(deadline = Deadline.none) ?(obs = Ocgra_obs.Ctx.off)
    (p : Problem.t) rng =
  let dl = Deadline.sooner deadline (Deadline.of_seconds deadline_s) in
  let attempts = ref 0 in
  let result =
    match p.kind with
    | Problem.Spatial ->
        let rec go r =
          if r >= restarts || Deadline.expired dl then None
          else begin
            incr attempts;
            match attempt p rng ~ii:1 with Some m -> Some m | None -> go (r + 1)
          end
        in
        (go 0, !attempts, false)
    | Problem.Temporal { max_ii; _ } ->
        let mii = Mii.mii p.dfg p.cgra in
        let rec over_ii ii =
          if ii > max_ii || Deadline.expired dl then (None, false)
          else begin
            let rec go r =
              if r >= restarts || Deadline.expired dl then None
              else begin
                incr attempts;
                match
                  Ocgra_obs.Ctx.span obs ~cat:"ems" (Printf.sprintf "ems:ii=%d" ii) (fun () ->
                      attempt p rng ~ii)
                with
                | Some m -> Some m
                | None -> go (r + 1)
              end
            in
            match go 0 with Some m -> (Some m, ii = mii) | None -> over_ii (ii + 1)
          end
        in
        let m, proven = over_ii (max 1 mii) in
        (m, !attempts, proven)
  in
  let _, attempts_n, _ = result in
  Ocgra_obs.Ctx.add obs "ems.attempts" attempts_n;
  result

let mapper =
  Mapper.make ~name:"edge-centric" ~citation:"Park et al. EMS [37]"
    ~scope:Taxonomy.Temporal_mapping ~approach:Taxonomy.Heuristic
    (fun p rng dl obs ->
      let m, attempts, proven = map ~deadline:dl ~obs p rng in
      {
        Mapper.mapping = m;
        proven_optimal = proven && m <> None;
        attempts;
        elapsed_s = 0.0;
        note = "routing-driven slot selection (edge-centric)";
        trail = [];
      })
