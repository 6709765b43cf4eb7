(* Core framework tests: MII bounds, the router, the independent
   checker (including its ability to catch corrupted mappings),
   occupancy bookkeeping, costs, context generation, taxonomy. *)

open Ocgra_core
module Dfg = Ocgra_dfg.Dfg
module Op = Ocgra_dfg.Op
module Cgra = Ocgra_arch.Cgra
module Rng = Ocgra_util.Rng
module Kernels = Ocgra_workloads.Kernels

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let cgra44 = Cgra.uniform ~rows:4 ~cols:4 ()

let mapped_kernel ?(seed = 42) (k : Kernels.t) =
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:16 () in
  let rng = Rng.create seed in
  match Ocgra_mappers.Constructive.map p rng with
  | Some m, _, _ -> (p, m)
  | None, _, _ -> Alcotest.fail (Printf.sprintf "could not map %s" k.name)

(* ---------- Mii ---------- *)

let test_mii () =
  checki "dot product mii" 1 (Mii.mii (Kernels.dot_product ()).dfg cgra44);
  checki "horner mii (rec bound)" 2 (Mii.mii (Kernels.horner ()).dfg cgra44);
  (* resource bound: 20 alu ops on a 2x2 need ceil(20/4) = 5 *)
  let g = Dfg.create () in
  let a = Dfg.input g "a" in
  let prev = ref a in
  for _ = 1 to 19 do
    prev := Dfg.binop g Op.Add !prev a
  done;
  let small = Cgra.uniform ~rows:2 ~cols:2 () in
  checki "res bound" 5 (Mii.res_mii g small)

let test_mii_heterogeneous () =
  (* 4 loads on an adres-like 2x2 with a single mem column (2 cells) *)
  let g = Dfg.create () in
  let i = Dfg.input g "i" in
  for _ = 1 to 4 do
    ignore (Dfg.load g "m" i)
  done;
  let cgra = Cgra.adres_like ~rows:2 ~cols:2 () in
  checkb "mem pressure drives mii" true (Mii.res_mii g cgra >= 2)

(* ---------- router ---------- *)

let test_router_direct_adjacency () =
  let occ = Occupancy.create ~npe:16 ~ii:2 () in
  let cm = Route.strict cgra44 occ in
  (* produce on pe 5 at t=0 (readable 1), consume on neighbour 6 at 1 *)
  match Route.find ~ii:2 cgra44 cm ~src_pe:5 ~avail:1 ~dst_pe:6 ~consume_at:1 with
  | Some ([], 0) -> ()
  | Some (steps, _) ->
      Alcotest.fail
        ("expected empty route, got " ^ String.concat " " (List.map Mapping.step_to_string steps))
  | None -> Alcotest.fail "expected a route"

let test_router_respects_occupancy () =
  let occ = Occupancy.create ~npe:4 ~ii:1 () in
  let cgra = Cgra.uniform ~rows:2 ~cols:2 () in
  (* block every PE except the endpoints: pes 0 -> 3 need 1 intermediate *)
  Occupancy.claim_fu occ ~pe:1 ~time:0 (Occupancy.U_node 99);
  Occupancy.claim_fu occ ~pe:2 ~time:0 (Occupancy.U_node 98);
  let cm = Route.strict cgra occ in
  checkb "blocked" true (Route.find ~ii:1 cgra cm ~src_pe:0 ~avail:1 ~dst_pe:3 ~consume_at:2 = None)

let test_router_uses_hold () =
  (* waiting 3 cycles on the same PE at II >= 2 should use the RF *)
  let occ = Occupancy.create ~npe:16 ~ii:4 () in
  let cm = Route.strict cgra44 occ in
  match Route.find ~ii:4 cgra44 cm ~src_pe:5 ~avail:1 ~dst_pe:5 ~consume_at:4 with
  | Some (steps, _) ->
      checkb "uses a hold" true
        (List.exists (function Mapping.Hold _ -> true | Mapping.Hop _ -> false) steps)
  | None -> Alcotest.fail "expected a route"

let test_router_no_backward_time () =
  let occ = Occupancy.create ~npe:16 ~ii:2 () in
  let cm = Route.strict cgra44 occ in
  checkb "no time travel" true
    (Route.find ~ii:2 cgra44 cm ~src_pe:5 ~avail:3 ~dst_pe:6 ~consume_at:2 = None)

(* router round-trip property: any route the strict router returns for
   a random two-op problem yields a checker-valid mapping *)
let qcheck_router_checker_roundtrip =
  QCheck.Test.make ~name:"strict routes always validate" ~count:300
    QCheck.(pair small_int (pair (int_range 1 4) (int_range 0 2)))
    (fun (seed, (ii, dist)) ->
      let rng = Rng.create ((seed * 31) + ii) in
      let g = Dfg.create () in
      let u = Dfg.input g "u" in
      let v = Dfg.add g Op.Not in
      Dfg.add_edge g ~src:u ~dst:v ~port:0 ~dist;
      let p = Problem.temporal ~dfg:g ~cgra:cgra44 ~max_ii:ii ~max_time:24 () in
      let pu = Rng.int rng 16 and pv = Rng.int rng 16 in
      let tu = Rng.int rng 6 in
      let tv = tu + Rng.int_in rng (-2) 8 in
      if tv < 0 || (pu = pv && tu mod ii = tv mod ii && (tu <> tv || u = v)) then true
      else begin
        let occ = Occupancy.create ~npe:16 ~ii () in
        Occupancy.claim_fu occ ~pe:pu ~time:tu (Occupancy.U_node u);
        if not (Occupancy.fu_free occ ~pe:pv ~time:tv) then true
        else begin
          Occupancy.claim_fu occ ~pe:pv ~time:tv (Occupancy.U_node v);
          let cm = Route.strict cgra44 occ in
          match
            Route.route_edge cgra44 cm ~ii ~src:(pu, tu) ~dst:(pv, tv)
              ~lat:(Op.latency (Dfg.op g u)) ~dist
          with
          | None -> true (* infeasible is fine; wrong routes are not *)
          | Some (route, _) ->
              (* the route must also be claimable (no self-conflicts) *)
              let m = { Mapping.ii; binding = [| (pu, tu); (pv, tv) |]; routes = [| route |] } in
              (match Check.validate p m with
              | [] -> true
              | v ->
                  (* modulo self-conflicts of wrapping routes are allowed
                     router outcomes; everything else is a bug *)
                  List.for_all
                    (fun msg ->
                      let has sub =
                        let n = String.length msg and m = String.length sub in
                        let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
                        go 0
                      in
                      has "oversubscribed")
                    v)
        end
      end)

(* every mapping of every kernel yields contexts whose encoded words
   decode back exactly *)
let qcheck_context_roundtrip_mapped =
  QCheck.Test.make ~name:"mapped contexts roundtrip through bits" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let k = Kernels.find (if seed mod 2 = 0 then "fir4" else "matvec2") in
      let p = Problem.temporal ~init:k.Kernels.init ~dfg:k.Kernels.dfg ~cgra:cgra44 ~max_ii:16 () in
      match Ocgra_mappers.Constructive.map p (Rng.create seed) with
      | None, _, _ -> false
      | Some m, _, _ ->
          let build = Contexts.of_mapping p m in
          let words = Contexts.encode build in
          let ok = ref true in
          Array.iteri
            (fun c row ->
              Array.iteri
                (fun pe w ->
                  if Ocgra_arch.Context.decode_slot w <> build.Contexts.contexts.(c).(pe) then
                    ok := false)
                row)
            words;
          !ok)

(* ---------- checker catches corruption ---------- *)

let test_checker_accepts_valid () =
  let p, m = mapped_kernel (Kernels.fir4 ()) in
  Alcotest.(check (list string)) "valid" [] (Check.validate p m)

let corrupt_and_check mutate =
  let p, m = mapped_kernel (Kernels.fir4 ()) in
  let m' = mutate { m with Mapping.binding = Array.copy m.Mapping.binding; routes = Array.copy m.Mapping.routes } in
  Check.validate p m' <> []

(* Fuzz: valid mappings with bindings, hops and holds moved onto PEs
   drawn from [-3, npe + 3].  The validator must never raise (the arch
   queries index arrays, so an unchecked out-of-range PE would), and
   must report a violation whenever a PE left the array; Repair must
   refuse such a mapping cleanly. *)
let fuzz_cases =
  lazy
    (let faulted = Cgra.with_faults cgra44 (Cgra.inject_faults cgra44 ~seed:101 ~n:3) in
     List.concat_map
       (fun (k : Kernels.t) ->
         List.filter_map
           (fun cgra ->
             let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ~max_ii:16 () in
             match Ocgra_mappers.Constructive.map p (Rng.create 42) with
             | Some m, _, _ -> Some (p, m)
             | None, _, _ -> None)
           [ cgra44; faulted ])
       [ Kernels.fir4 (); Kernels.saxpy (); Kernels.iir2 () ])

let qcheck_validate_out_of_range_pes =
  QCheck.Test.make ~name:"off-array PEs: validate reports, repair refuses" ~count:300
    QCheck.(pair small_nat (int_range 1 4))
    (fun (seed, n_mutations) ->
      let cases = Lazy.force fuzz_cases in
      let rng = Rng.create seed in
      let p, m = List.nth cases (Rng.int rng (List.length cases)) in
      let npe = Cgra.pe_count p.Problem.cgra in
      let binding = Array.copy m.Mapping.binding and routes = Array.copy m.Mapping.routes in
      let draw () = Rng.int rng (npe + 7) - 3 in
      for _ = 1 to n_mutations do
        let e = Rng.int rng (Array.length routes) in
        if Rng.bool rng || routes.(e) = [] then begin
          let v = Rng.int rng (Array.length binding) in
          binding.(v) <- (draw (), snd binding.(v))
        end
        else begin
          let k = Rng.int rng (List.length routes.(e)) in
          routes.(e) <-
            List.mapi
              (fun i step ->
                if i <> k then step
                else
                  match step with
                  | Mapping.Hop h -> Mapping.Hop { h with pe = draw () }
                  | Mapping.Hold h -> Mapping.Hold { h with pe = draw () })
              routes.(e)
        end
      done;
      let m' = { m with Mapping.binding; routes } in
      let off pe = pe < 0 || pe >= npe in
      let escaped =
        Array.exists (fun (pe, _) -> off pe) binding
        || Array.exists
             (List.exists (function Mapping.Hop { pe; _ } | Mapping.Hold { pe; _ } -> off pe))
             routes
      in
      let violations = Check.validate p m' in
      let repaired = Repair.repair p m' in
      if escaped && violations = [] then QCheck.Test.fail_report "no violation for an off-array PE";
      if escaped && repaired.Repair.mapping <> None then
        QCheck.Test.fail_reportf "repair accepted an off-array PE: %s" repaired.Repair.note;
      true)

let test_checker_catches_bad_pe () =
  checkb "bad pe" true
    (corrupt_and_check (fun m ->
         m.Mapping.binding.(0) <- (999, snd m.Mapping.binding.(0));
         m))

let test_checker_catches_moved_op () =
  checkb "moved op breaks dependences" true
    (corrupt_and_check (fun m ->
         (* move a node far away without rerouting *)
         let pe, t = m.Mapping.binding.(2) in
         m.Mapping.binding.(2) <- ((pe + 7) mod 16, t);
         m))

let test_checker_catches_dropped_route () =
  checkb "dropped route" true
    (corrupt_and_check (fun m ->
         (* blank out the longest route *)
         let longest = ref 0 and idx = ref (-1) in
         Array.iteri
           (fun i r ->
             if List.length r > !longest then begin
               longest := List.length r;
               idx := i
             end)
           m.Mapping.routes;
         if !idx >= 0 then m.Mapping.routes.(!idx) <- [];
         m))

let test_checker_catches_double_booking () =
  checkb "double booking" true
    (corrupt_and_check (fun m ->
         (* put node 1 exactly where node 0 sits *)
         m.Mapping.binding.(1) <- m.Mapping.binding.(0);
         m))

let test_checker_catches_wrong_ii () =
  checkb "ii out of bounds" true
    (corrupt_and_check (fun m -> { m with Mapping.ii = 0 }))

(* ---------- occupancy ---------- *)

let test_occupancy_claim_release () =
  let occ = Occupancy.create ~npe:4 ~ii:2 () in
  checkb "free" true (Occupancy.fu_free occ ~pe:1 ~time:5);
  Occupancy.claim_fu occ ~pe:1 ~time:5 (Occupancy.U_node 3);
  checkb "claimed (mod ii)" false (Occupancy.fu_free occ ~pe:1 ~time:7);
  Occupancy.release_fu occ ~pe:1 ~time:7;
  checkb "released" true (Occupancy.fu_free occ ~pe:1 ~time:5);
  Occupancy.claim_hold occ ~pe:2 ~from_:0 ~until:3;
  (* cycles 1,2,3 at ii=2: slot 1 is covered twice (cycles 1 and 3) *)
  checki "rf pressure wraps" 2 (Occupancy.rf_count occ ~pe:2 ~time:1);
  checki "rf pressure" 1 (Occupancy.rf_count occ ~pe:2 ~time:2);
  Occupancy.release_hold occ ~pe:2 ~from_:0 ~until:3;
  checki "rf released" 0 (Occupancy.rf_count occ ~pe:2 ~time:1)

let test_occupancy_double_claim_rejected () =
  let occ = Occupancy.create ~npe:2 ~ii:1 () in
  Occupancy.claim_fu occ ~pe:0 ~time:0 (Occupancy.U_node 1);
  Alcotest.check_raises "double claim"
    (Invalid_argument "Occupancy.claim_fu: slot already in use") (fun () ->
      Occupancy.claim_fu occ ~pe:0 ~time:3 (Occupancy.U_node 2))

(* ---------- cost ---------- *)

let test_cost_fields () =
  let p, m = mapped_kernel (Kernels.dot_product ()) in
  let c = Cost.of_mapping p m in
  checki "ops" (Dfg.node_count (Kernels.dot_product ()).dfg) c.Cost.ops;
  checkb "ii positive" true (c.Cost.ii >= 1);
  checkb "utilization in (0,1]" true (c.Cost.fu_utilization > 0.0 && c.Cost.fu_utilization <= 1.0);
  checkb "throughput" true (Cost.throughput c > 0.0)

(* ---------- contexts ---------- *)

let test_contexts_generation () =
  let p, m = mapped_kernel (Kernels.fir4 ()) in
  let build = Contexts.of_mapping p m in
  checki "one context per II cycle" m.Mapping.ii (Array.length build.Contexts.contexts);
  let words = Contexts.encode build in
  (* decode every word back and compare field-wise *)
  Array.iteri
    (fun c _ctx ->
      Array.iteri
        (fun pe word ->
          let slot = Ocgra_arch.Context.decode_slot word in
          checkb "roundtrip" true (slot = build.Contexts.contexts.(c).(pe)))
        words.(c))
    words;
  (* every scheduled op appears in some context *)
  let non_nop =
    Array.fold_left
      (fun acc ctx ->
        acc
        + Array.fold_left
            (fun acc (s : Ocgra_arch.Context.slot) -> if s.opcode <> 0 then acc + 1 else acc)
            0 ctx)
      0 build.Contexts.contexts
  in
  checkb "ops + routes present" true (non_nop >= Dfg.node_count (Kernels.fir4 ()).dfg)

(* ---------- taxonomy / registry ---------- *)

let test_taxonomy_columns () =
  let open Taxonomy in
  checkb "sa is metaheuristic" true (column_of_approach (Meta_local "SA") = Col_metaheuristics);
  checkb "sat is csp" true (column_of_approach Exact_sat = Col_csp);
  checkb "ilp exact" true (is_exact Exact_ilp);
  checkb "heuristic not exact" false (is_exact Heuristic)

let test_registry_covers_table1 () =
  (* at least one implemented mapper in every non-empty Table I cell
     family: heuristic/meta/ilp-bb/csp x spatial/temporal *)
  let has scope col =
    List.exists
      (fun (m : Mapper.t) ->
        m.scope = scope && Taxonomy.column_of_approach m.approach = col)
      Ocgra_mappers.Registry.all
  in
  checkb "spatial heuristics" true (has Taxonomy.Spatial_mapping Taxonomy.Col_heuristics);
  checkb "spatial meta" true (has Taxonomy.Spatial_mapping Taxonomy.Col_metaheuristics);
  checkb "spatial ilp" true (has Taxonomy.Spatial_mapping Taxonomy.Col_ilp_bb);
  checkb "temporal heuristics" true (has Taxonomy.Temporal_mapping Taxonomy.Col_heuristics);
  checkb "temporal meta" true (has Taxonomy.Temporal_mapping Taxonomy.Col_metaheuristics);
  checkb "temporal ilp/bb" true (has Taxonomy.Temporal_mapping Taxonomy.Col_ilp_bb);
  checkb "temporal csp" true (has Taxonomy.Temporal_mapping Taxonomy.Col_csp);
  checkb "binding heuristics" true (has Taxonomy.Binding_only Taxonomy.Col_heuristics);
  checkb "binding meta" true (has Taxonomy.Binding_only Taxonomy.Col_metaheuristics);
  checkb "scheduling heuristics" true (has Taxonomy.Scheduling_only Taxonomy.Col_heuristics);
  checkb "scheduling ilp" true (has Taxonomy.Scheduling_only Taxonomy.Col_ilp_bb);
  checki "18 mappers" 18 (List.length Ocgra_mappers.Registry.all)

let test_mapper_run_validates () =
  (* Mapper.run must demote invalid mappings: a fake mapper returning
     garbage gets reported as a failure with violations in the note *)
  let bogus =
    Mapper.make ~name:"bogus" ~citation:"-" ~scope:Taxonomy.Temporal_mapping
      ~approach:Taxonomy.Heuristic (fun p _rng _dl _obs ->
        let n = Dfg.node_count p.Problem.dfg in
        {
          Mapper.mapping =
            Some { Mapping.ii = 1; binding = Array.make n (0, 0); routes = Array.make (Ocgra_dfg.Dfg.edge_count p.Problem.dfg) [] };
          proven_optimal = true;
          attempts = 1;
          elapsed_s = 0.0;
          note = "";
          trail = [];
        })
  in
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let o = Mapper.run bogus p in
  checkb "demoted" true (o.Mapper.mapping = None);
  checkb "note explains" true (String.length o.Mapper.note > 0)

let () =
  Alcotest.run "core"
    [
      ( "mii",
        [
          Alcotest.test_case "bounds" `Quick test_mii;
          Alcotest.test_case "heterogeneous" `Quick test_mii_heterogeneous;
        ] );
      ( "router",
        [
          Alcotest.test_case "direct adjacency" `Quick test_router_direct_adjacency;
          Alcotest.test_case "occupancy respected" `Quick test_router_respects_occupancy;
          Alcotest.test_case "uses holds" `Quick test_router_uses_hold;
          Alcotest.test_case "no backward time" `Quick test_router_no_backward_time;
          QCheck_alcotest.to_alcotest qcheck_router_checker_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_context_roundtrip_mapped;
        ] );
      ( "checker",
        [
          Alcotest.test_case "accepts valid" `Quick test_checker_accepts_valid;
          Alcotest.test_case "bad pe" `Quick test_checker_catches_bad_pe;
          Alcotest.test_case "moved op" `Quick test_checker_catches_moved_op;
          Alcotest.test_case "dropped route" `Quick test_checker_catches_dropped_route;
          Alcotest.test_case "double booking" `Quick test_checker_catches_double_booking;
          Alcotest.test_case "bad ii" `Quick test_checker_catches_wrong_ii;
          QCheck_alcotest.to_alcotest qcheck_validate_out_of_range_pes;
        ] );
      ( "occupancy",
        [
          Alcotest.test_case "claim/release" `Quick test_occupancy_claim_release;
          Alcotest.test_case "double claim rejected" `Quick test_occupancy_double_claim_rejected;
        ] );
      ("cost", [ Alcotest.test_case "fields" `Quick test_cost_fields ]);
      ("contexts", [ Alcotest.test_case "generation + roundtrip" `Quick test_contexts_generation ]);
      ( "taxonomy",
        [
          Alcotest.test_case "columns" `Quick test_taxonomy_columns;
          Alcotest.test_case "registry coverage" `Quick test_registry_covers_table1;
          Alcotest.test_case "run validates" `Quick test_mapper_run_validates;
        ] );
    ]
