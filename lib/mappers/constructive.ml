(* Constructive modulo scheduling with greedy placement and routing —
   the workhorse heuristic in the lineage of iterative modulo
   scheduling and DRESC-style CGRA compilation: nodes are placed in
   priority order at the earliest feasible (PE, cycle), dependences are
   routed immediately, and the whole attempt restarts with a different
   random tie-breaking when it dead-ends.  The II loop starts at the
   MII lower bound, so a success at MII is provably optimal. *)

open Ocgra_dfg
open Ocgra_core
module Rng = Ocgra_util.Rng

(* Priority: longest path to a sink over dist-0 edges (operation height),
   the classic list-scheduling priority. *)
let heights dfg = Ocgra_graph.Topo.longest_to_sinks (Dfg.to_digraph dfg)

let topo_order_by_height rng dfg =
  let order =
    match Ocgra_graph.Topo.sort (Dfg.to_digraph dfg) with
    | Some o -> o
    | None -> invalid_arg "Constructive: intra-iteration dependence cycle"
  in
  let h = heights dfg in
  (* stable-sort a topological order by decreasing height while keeping
     it topological: process by levels *)
  let jitter = Array.init (Dfg.node_count dfg) (fun _ -> Rng.int rng 1000) in
  (* levels by ASAP; inside a level, height descending, random ties *)
  let asap = Dfg.asap dfg in
  List.stable_sort
    (fun a b ->
      match compare asap.(a) asap.(b) with
      | 0 -> (
          match compare h.(b) h.(a) with 0 -> compare jitter.(a) jitter.(b) | c -> c)
      | c -> c)
    order

(* Sum of hop distances from [pe] to every placed neighbour of [v]; a
   centre-distance bias when nothing is placed yet, so early nodes
   cluster and later routes stay short.  Self-loops have no other end
   and are skipped. *)
let proximity (state : Place_route.t) hop_table v pe =
  let total = ref 0 and neighbours = ref 0 in
  List.iter
    (fun i ->
      let e = state.edges.(i) in
      let other = if e.Dfg.src = v then e.dst else e.src in
      if other <> v && Place_route.is_placed state other then begin
        let po, _ = Place_route.binding_of state other in
        let h = if e.src = v then hop_table.(pe).(po) else hop_table.(po).(pe) in
        if h < Ocgra_graph.Paths.unreachable then begin
          total := !total + h;
          incr neighbours
        end
      end)
    state.incident.(v);
  if !neighbours > 0 then Some !total else None

(* Candidate order: time, then proximity, then jitter, then PE — the
   lexicographic order of the tuples, compared as ints. *)
let compare_candidates ((t1 : int), (p1 : int), (j1 : int), (pe1 : int)) (t2, p2, j2, pe2) =
  if t1 <> t2 then Int.compare t1 t2
  else if p1 <> p2 then Int.compare p1 p2
  else if j1 <> j2 then Int.compare j1 j2
  else Int.compare pe1 pe2

(* One placement attempt at a fixed II; [hop_table] is the array's,
   computed once per [map]. *)
let attempt (p : Problem.t) rng ~hop_table ~ii ~time_slack =
  let state = Place_route.create p ~ii in
  let cgra = p.cgra in
  let order = topo_order_by_height rng p.dfg in
  let ok =
    List.for_all
      (fun v ->
        let capable = Ocgra_arch.Cgra.capable_pes cgra (Dfg.op p.dfg v) in
        (* candidate (pe, t) pairs ordered by time, then proximity to the
           placed neighbours, then a random jitter to diversify restarts;
           nodes with no placed neighbour yet (inputs, constants) are
           placed at random so restarts explore different geometries *)
        let candidates =
          List.concat_map
            (fun pe ->
              let est, lst = Place_route.time_window state hop_table v pe in
              if est > lst then []
              else begin
                let prox =
                  match proximity state hop_table v pe with
                  | Some p -> (2 * p) + Rng.int rng 2
                  | None -> Rng.int rng 64
                in
                let upper = min lst (est + time_slack) in
                List.init (upper - est + 1) (fun i -> (est + i, prox, Rng.int rng 16, pe))
              end)
            capable
        in
        let candidates = List.sort compare_candidates candidates in
        List.exists (fun (t, _, _, pe) -> Place_route.place state v ~pe ~time:t) candidates)
      order
  in
  if ok then Place_route.to_mapping state else None

(* Map at the smallest feasible II with random restarts.  The deadline
   is polled between attempts (each attempt is short), so an expired
   budget surfaces as a clean failure. *)
let map ?(restarts = 8) ?(time_slack = 6) ?deadline_s ?(deadline = Deadline.none)
    ?(obs = Ocgra_obs.Ctx.off) (p : Problem.t) rng =
  let dl = Deadline.sooner deadline (Deadline.of_seconds deadline_s) in
  let hop_table = Ocgra_arch.Cgra.hop_table p.cgra in
  let attempts = ref 0 in
  let result =
    match p.kind with
  | Problem.Spatial ->
      let rec go r =
        if r >= restarts || Deadline.expired dl then None
        else begin
          incr attempts;
          match attempt p rng ~hop_table ~ii:1 ~time_slack with
          | Some m -> Some m
          | None -> go (r + 1)
        end
      in
      (go 0, !attempts, true)
  | Problem.Temporal { max_ii; _ } ->
      let mii = Mii.mii p.dfg p.cgra in
      let rec over_ii ii =
        if ii > max_ii || Deadline.expired dl then (None, false)
        else begin
          let rec go r =
            if r >= restarts || Deadline.expired dl then None
            else begin
              incr attempts;
              match attempt p rng ~hop_table ~ii ~time_slack with
              | Some m -> Some m
              | None -> go (r + 1)
            end
          in
          match go 0 with
          | Some m -> (Some m, ii = mii)
          | None -> over_ii (ii + 1)
        end
      in
      let m, at_mii = over_ii (max 1 mii) in
      (m, !attempts, at_mii)
  in
  Ocgra_obs.Ctx.add obs "constructive.attempts" !attempts;
  result
