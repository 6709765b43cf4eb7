(* Router over the time-expanded modulo routing resource graph (MRRG).

   A route moves a value from its producer (pu, tu) to a consumer
   (pv, tv + dist * II) through one-cycle hops (Route ops occupying FU
   slots) and register-file holds (occupying RF entries).  Because
   every transition advances time by exactly one cycle (RF entry is the
   only zero-time move), the search is a layered dynamic program over
   states (pe, in_rf) per cycle — Dijkstra specialised to a DAG.

   Costs are supplied by the caller: [fu_cost pe time] and
   [rf_cost pe time] return [None] to forbid a resource (strict
   routing) or [Some c] to price it (negotiated congestion). *)

open Ocgra_arch

type cost_model = {
  fu_cost : int -> int -> int option; (* pe -> absolute time -> cost *)
  rf_cost : int -> int -> int option;
}

(* Strict cost model against an occupancy: occupied FU slots and full
   RFs are forbidden; free resources have unit-ish costs that prefer
   short paths and cheap holds. *)
let strict (cgra : Cgra.t) (occ : Occupancy.t) =
  {
    fu_cost = (fun pe time -> if Occupancy.fu_free occ ~pe ~time then Some 4 else None);
    rf_cost =
      (fun pe time ->
        let size = Cgra.effective_rf_size cgra pe in
        if Occupancy.rf_count occ ~pe ~time < size then Some 1 else None);
  }

(* Congestion pricing for negotiated (PathFinder-style) routing: overuse
   is allowed but increasingly expensive.  Faulted slots stay hard
   obstacles — congestion may not negotiate with dead silicon. *)
let congestion ?(alpha = 40) (cgra : Cgra.t) (occ : Occupancy.t) =
  {
    fu_cost =
      (fun pe time ->
        match Occupancy.fu_user occ ~pe ~time with
        | Some Occupancy.U_fault -> None
        | Some _ -> Some (4 + alpha)
        | None -> Some 4);
    rf_cost =
      (fun pe time ->
        let size = Cgra.effective_rf_size cgra pe in
        if size = 0 then None
        else begin
          let over = Occupancy.rf_count occ ~pe ~time - size + 1 in
          Some (1 + (alpha * max 0 over))
        end);
  }

let inf = max_int / 4

(* The cost field of a routing search: costs and parents per layer
   (cycle offset from [avail]) and state (pe, in_rf).  The edge-centric
   mapper reads the whole field to choose consumer slots; [find]
   extracts one goal. *)
type field = {
  cgra : Cgra.t;
  avail : int;
  src_pe : int;
  layers : int;
  cost : int array array; (* layer -> state -> cost *)
  parent : int array array; (* layer -> state -> layer * nstates + state *)
}

let state_cost field ~layer ~pe ~in_rf =
  field.cost.(layer).((2 * pe) + if in_rf then 1 else 0)

(* Build the cost field up to [layers] cycles after [avail].

   [ii] teaches the search which transitions are structurally illegal
   at II = 1: a self-hop re-uses the same FU slot its producer (or the
   previous hop) already holds, and an RF hold needs two FU uses of the
   holding PE (the write-through instruction and the reader), so both
   are dropped — II = 1 routing is exact-length disjoint paths, the
   systolic regime.  Residual modulo self-conflicts of long routes at
   II >= 2 are caught at claim time by the callers. *)
let explore ?(ii = max_int) (cgra : Cgra.t) (cm : cost_model) ~src_pe ~avail ~layers =
  let npe = Cgra.pe_count cgra in
  let rf_usable = ii > 1 in
  let nstates = npe * 2 in
  let idx pe in_rf = (2 * pe) + if in_rf then 1 else 0 in
  let cost = Array.init (layers + 1) (fun _ -> Array.make nstates inf) in
  let parent = Array.init (layers + 1) (fun _ -> Array.make nstates (-1)) in
  let time_of_layer l = avail + l in
  cost.(0).(idx src_pe false) <- 0;
    (* entering the RF is a zero-time move within a layer: the RF write
       happens at the end of the value's production cycle *)
    let intra_layer l =
      if rf_usable then begin
        let t = time_of_layer l in
        for pe = 0 to npe - 1 do
          let cf = cost.(l).(idx pe false) in
          if cf < inf then begin
            match cm.rf_cost pe t with
            | Some c when cf + c < cost.(l).(idx pe true) ->
                cost.(l).(idx pe true) <- cf + c;
                parent.(l).(idx pe true) <- (l * nstates) + idx pe false
            | _ -> ()
          end
        done
      end
    in
    (* hop: a Route op on each target q at cycle t reads the output
       register of [from], whose state in layer l costs [cf] *)
    let rec hops l t cf from = function
      | [] -> ()
      | q :: rest ->
          (match cm.fu_cost q t with
          | Some c when cf + c < cost.(l + 1).(idx q false) ->
              cost.(l + 1).(idx q false) <- cf + c;
              parent.(l + 1).(idx q false) <- (l * nstates) + idx from false
          | _ -> ());
          hops l t cf from rest
    in
    intra_layer 0;
    for l = 0 to layers - 1 do
      let t = time_of_layer l in
      for pe = 0 to npe - 1 do
        let cf = cost.(l).(idx pe false) in
        if cf < inf then
          hops l t cf pe (if rf_usable then Cgra.reachable_in_one cgra pe else Cgra.neighbours cgra pe);
        let cr = cost.(l).(idx pe true) in
        if cr < inf then begin
          (* keep holding *)
          (match cm.rf_cost pe (t + 1) with
          | Some c when cr + c < cost.(l + 1).(idx pe true) ->
              cost.(l + 1).(idx pe true) <- cr + c;
              parent.(l + 1).(idx pe true) <- (l * nstates) + idx pe true
          | _ -> ());
          (* re-emit: Route op on pe at cycle t reads own RF *)
          match cm.fu_cost pe t with
          | Some c when cr + c < cost.(l + 1).(idx pe false) ->
              cost.(l + 1).(idx pe false) <- cr + c;
              parent.(l + 1).(idx pe false) <- (l * nstates) + idx pe true
          | _ -> ()
        end
      done;
      intra_layer (l + 1)
    done;
  { cgra; avail; src_pe; layers; cost; parent }

(* Best final state for a consumer on [dst_pe] reading at layer [l]:
   a neighbour's (or own) output register, or its own RF. *)
let goal_state (field : field) ~dst_pe ~layer =
  let cgra = field.cgra in
  let npe = Cgra.pe_count cgra in
  let idx pe in_rf = (2 * pe) + if in_rf then 1 else 0 in
  let best = ref inf and best_state = ref (-1) in
  for pe = 0 to npe - 1 do
    (* [memq] on ints is integer equality, without a polymorphic compare *)
    if pe = dst_pe || List.memq dst_pe (Cgra.neighbours cgra pe) then begin
      let c = field.cost.(layer).(idx pe false) in
      if c < !best then begin
        best := c;
        best_state := idx pe false
      end
    end
  done;
  let c_rf = field.cost.(layer).(idx dst_pe true) in
  if c_rf < !best then begin
    best := c_rf;
    best_state := idx dst_pe true
  end;
  if !best >= inf then None else Some (!best_state, !best)

(* Extract the steps reaching [dst_pe] at [consume_at] from a field. *)
let extract (field : field) ~dst_pe ~consume_at =
  let layers = consume_at - field.avail in
  if layers < 0 || layers > field.layers then None
  else begin
    let npe = Cgra.pe_count field.cgra in
    let nstates = npe * 2 in
    let time_of_layer l = field.avail + l in
    match goal_state field ~dst_pe ~layer:layers with
    | None -> None
    | Some (goal, best) ->
        (* walk parents to recover the (layer, state) sequence *)
        let seq = ref [] in
        let l = ref layers and s = ref goal in
        let continue_ = ref true in
        while !continue_ do
          seq := (!l, !s) :: !seq;
          let p = field.parent.(!l).(!s) in
          if p < 0 then continue_ := false
          else begin
            l := p / nstates;
            s := p mod nstates
          end
        done;
        (* forward pass: convert state transitions into steps *)
        let steps = ref [] in
        let rf_entry_time = ref None in
        let rec walk = function
          | (l1, s1) :: ((l2, s2) :: _ as rest) ->
              let t1 = time_of_layer l1 in
              let pe1 = s1 / 2 and rf1 = s1 land 1 = 1 in
              let pe2 = s2 / 2 and rf2 = s2 land 1 = 1 in
              (if l1 = l2 then begin
                 (* rf entry at time t1 *)
                 assert ((not rf1) && rf2 && pe1 = pe2);
                 rf_entry_time := Some t1
               end
               else if rf1 && rf2 then () (* hold extension *)
               else if rf1 && not rf2 then begin
                 (* re-emit: Hold then Hop on pe1 at t1 *)
                 match !rf_entry_time with
                 | Some te ->
                     steps :=
                       Mapping.Hop { pe = pe1; time = t1 }
                       :: Mapping.Hold { pe = pe1; from_ = te - 1; until = t1 }
                       :: !steps;
                     rf_entry_time := None
                 | None -> steps := Mapping.Hop { pe = pe1; time = t1 } :: !steps
               end
               else (* plain hop onto pe2 *)
                 steps := Mapping.Hop { pe = pe2; time = t1 } :: !steps);
              walk rest
          | [ (_, s_last) ] ->
              if s_last land 1 = 1 then begin
                match !rf_entry_time with
                | Some te ->
                    steps :=
                      Mapping.Hold { pe = s_last / 2; from_ = te - 1; until = consume_at }
                      :: !steps
                | None -> ()
              end
          | [] -> ()
        in
        walk !seq;
        Some (List.rev !steps, best)
  end

(* Find a cheapest route for a value produced on [src_pe] readable from
   cycle [avail] to a consumer op on [dst_pe] executing at cycle
   [consume_at].  Returns (steps, cost). *)
let find ?ii (cgra : Cgra.t) (cm : cost_model) ~src_pe ~avail ~dst_pe ~consume_at =
  if consume_at < avail then None
  else begin
    let field = explore ?ii cgra cm ~src_pe ~avail ~layers:(consume_at - avail) in
    extract field ~dst_pe ~consume_at
  end

(* Convenience: route a DFG edge of a partially-built mapping.  [lat]
   is the producer latency; [ii] the initiation interval (the consumer
   of a distance-d edge reads d iterations later). *)
let route_edge cgra cm ~ii ~src:(src_pe, src_time) ~dst:(dst_pe, dst_time) ~lat ~dist =
  find ~ii cgra cm ~src_pe ~avail:(src_time + lat) ~dst_pe
    ~consume_at:(dst_time + (dist * ii))
