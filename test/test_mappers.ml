(* Mapper tests: the central framework invariant — every mapping any
   registered mapper produces passes the independent checker — plus
   per-technique behaviour checks.  Slow exact mappers run on small
   kernels only. *)

open Ocgra_core
module Kernels = Ocgra_workloads.Kernels
module Rng = Ocgra_util.Rng

let checkb = Alcotest.check Alcotest.bool

let cgra44 = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 ()
let cgra_diag = Ocgra_arch.Cgra.uniform ~topology:Ocgra_arch.Topology.Diagonal ~rows:4 ~cols:4 ()

let problem_for (mapper : Mapper.t) (k : Kernels.t) =
  if mapper.scope = Taxonomy.Spatial_mapping then
    Problem.spatial ~init:k.init ~dfg:k.dfg ~cgra:cgra_diag ()
  else Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:12 ()

(* mappers cheap enough to run on the whole suite in tests *)
let fast = [ "greedy-spatial"; "graph-drawing"; "sa-spatial"; "genmap-ga"; "modulo-greedy";
             "edge-centric"; "branch-and-bound"; "smt"; "iso-binding"; "qea-binding";
             "list-scheduling"; "ilp-schedule"; "dresc-sa" ]

(* THE invariant: raw mapper output (before Mapper.run's demotion)
   always passes the independent validator *)
let test_every_mapper_output_validates () =
  List.iter
    (fun (mapper : Mapper.t) ->
      let kernels =
        if List.mem mapper.name fast then Kernels.small_suite ()
        else [ Kernels.dot_product (); Kernels.horner () ]
      in
      List.iter
        (fun (k : Kernels.t) ->
          let p = problem_for mapper k in
          let rng = Rng.create 7 in
          let outcome = mapper.map p rng Deadline.none Ocgra_obs.Ctx.off in
          match outcome.Mapper.mapping with
          | None -> () (* failing to map is allowed; lying is not *)
          | Some m ->
              let violations = Check.validate p m in
              Alcotest.(check (list string))
                (Printf.sprintf "%s on %s is valid" mapper.name k.name)
                [] violations)
        kernels)
    Ocgra_mappers.Registry.all

(* temporal mappers should all map the easy kernels *)
let test_easy_kernels_map () =
  let easy = [ Kernels.dot_product (); Kernels.horner () ] in
  List.iter
    (fun name ->
      let mapper = Ocgra_mappers.Registry.find name in
      List.iter
        (fun (k : Kernels.t) ->
          let o = Mapper.run mapper ~seed:7 (problem_for mapper k) in
          checkb (Printf.sprintf "%s maps %s" name k.name) true (o.Mapper.mapping <> None))
        easy)
    [ "modulo-greedy"; "edge-centric"; "dresc-sa"; "branch-and-bound"; "sat"; "cp";
      "iso-binding"; "list-scheduling"; "qea-binding"; "ilp-schedule" ]

(* achieved II never beats the MII lower bound *)
let test_ii_respects_mii () =
  List.iter
    (fun (k : Kernels.t) ->
      let mii = Mii.mii k.dfg cgra44 in
      let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:16 () in
      let rng = Rng.create 5 in
      match Ocgra_mappers.Constructive.map p rng with
      | Some m, _, _ -> checkb (k.name ^ " ii >= mii") true (m.Mapping.ii >= mii)
      | None, _, _ -> ())
    (Kernels.full_suite ())

(* exact methods prove optimality on the dot product *)
let test_exactness_claims () =
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:8 () in
  let o = Mapper.run (Ocgra_mappers.Registry.find "sat") ~seed:3 p in
  (match o.Mapper.mapping with
  | Some m ->
      checkb "sat achieves mii" true (m.Mapping.ii = Mii.mii k.dfg cgra44);
      checkb "sat proves optimal" true o.Mapper.proven_optimal
  | None -> Alcotest.fail "sat should map the dot product")

(* the SAT mapper refutes impossible IIs: horner at max_ii 1 *)
let test_sat_refutes_infeasible () =
  let k = Kernels.horner () in
  (* RecMII = 2, so max_ii = 1 leaves nothing feasible *)
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:1 () in
  let o = Mapper.run (Ocgra_mappers.Registry.find "sat") ~seed:3 p in
  checkb "unsat below recmii" true (o.Mapper.mapping = None)

(* spatial mapping is refused/impossible for tight recurrences *)
let test_spatial_recurrence_fails () =
  let k = Kernels.horner () in
  let p = Problem.spatial ~init:k.init ~dfg:k.dfg ~cgra:cgra_diag () in
  let rng = Rng.create 3 in
  let m, _, _ = Ocgra_mappers.Constructive.map ~restarts:6 p rng in
  checkb "horner spatial impossible (RecMII 2)" true (m = None)

(* deterministic given the seed *)
let test_seed_determinism () =
  let k = Kernels.fir4 () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let run () =
    match Ocgra_mappers.Constructive.map p (Rng.create 123) with
    | Some m, _, _ -> Some (m.Mapping.ii, m.Mapping.binding)
    | None, _, _ -> None
  in
  checkb "same result" true (run () = run ())

(* ---------- incremental II sweep vs cold-per-II baseline ---------- *)

let small_cgra n = Ocgra_arch.Cgra.uniform ~rows:n ~cols:n ()

let sweep_verdict ~incremental (k : Kernels.t) size max_ii =
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:(small_cgra size) ~max_ii () in
  let m, _, _, _ = Ocgra_mappers.Sat_temporal.map ~incremental p (Rng.create 11) in
  (p, m)

(* the shared-instance sweep and the cold baseline must agree on the
   SAT/UNSAT verdict and on the final II (models may differ) *)
let check_equivalent (k : Kernels.t) size max_ii =
  let p, mi = sweep_verdict ~incremental:true k size max_ii in
  let _, mc = sweep_verdict ~incremental:false k size max_ii in
  let label = Printf.sprintf "%s %dx%d" k.name size size in
  (match (mi, mc) with
  | None, None -> ()
  | Some a, Some b ->
      checkb (label ^ " same final II") true (a.Mapping.ii = b.Mapping.ii)
  | _ -> Alcotest.fail (label ^ ": verdicts differ between incremental and cold"));
  List.iter
    (fun m ->
      match m with
      | Some m ->
          Alcotest.(check (list string)) (label ^ " valid") [] (Check.validate p m)
      | None -> ())
    [ mi; mc ]

(* deterministic multi-attempt cases (optimal II > MII), where the
   incremental sweep actually carries state across candidate IIs *)
let test_cold_incremental_multi_attempt () =
  check_equivalent (Kernels.running_max ()) 2 8;
  check_equivalent (Kernels.absdiff ()) 2 8;
  (* all-UNSAT sweep: both modes must refute every candidate *)
  check_equivalent (Kernels.fir4 ()) 2 8

let qcheck_cold_incremental_equivalent =
  let combos =
    [|
      ("dot-product", 2); ("dot-product", 3); ("dot-product", 4);
      ("saxpy", 2); ("saxpy", 3); ("saxpy", 4);
      ("horner", 2); ("horner", 3); ("horner", 4);
      ("iir2", 2); ("iir2", 3);
      ("running-max", 2); ("running-max", 3);
      ("matvec2", 2);
    |]
  in
  QCheck.Test.make ~name:"cold and incremental sweeps agree" ~count:14
    QCheck.(int_bound (Array.length combos - 1))
    (fun i ->
      let name, size = combos.(i) in
      let k = Kernels.find name in
      let p, mi = sweep_verdict ~incremental:true k size 8 in
      let _, mc = sweep_verdict ~incremental:false k size 8 in
      match (mi, mc) with
      | None, None -> true
      | Some a, Some b ->
          a.Mapping.ii = b.Mapping.ii
          && Check.validate p a = [] && Check.validate p b = []
      | _ -> false)

(* the solver's search path is pinned: rerunning the committed
   BENCH_PR8.json incremental sweep of running-max on 2x2 must spend
   exactly the conflicts, decisions and propagations recorded there *)
let test_sweep_search_path_pinned () =
  let module Json = Ocgra_obs.Json in
  let ( let* ) = Result.bind in
  let ic = open_in_bin "../BENCH_PR8.json" in
  let text =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let recorded =
    let* doc = Json.parse text in
    let* seed = Json.field "seed" Json.int doc in
    let* max_ii = Json.field "max_ii" Json.int doc in
    let* kernels = Json.field "kernels" (Json.list Result.ok) doc in
    let* row =
      match
        List.find_opt
          (fun r ->
            Json.field "kernel" Json.string r = Ok "running-max"
            && Json.field "grid" Json.string r = Ok "2x2")
          kernels
      with
      | Some r -> Json.field "incremental" Result.ok r
      | None -> Error "no running-max 2x2 row"
    in
    let count name = Json.field name Json.int row in
    let* c = count "conflicts" in
    let* d = count "decisions" in
    let* pr = count "propagations" in
    Ok (seed, max_ii, (c, d, pr))
  in
  match recorded with
  | Error e -> Alcotest.fail ("BENCH_PR8.json: " ^ e)
  | Ok (seed, max_ii, expected) ->
      let k = Kernels.running_max () in
      let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:(small_cgra 2) ~max_ii () in
      let obs = Ocgra_obs.Ctx.create () in
      let _ = Ocgra_mappers.Sat_temporal.map ~incremental:true ~obs p (Rng.create seed) in
      let get = Ocgra_obs.Metrics.get (Ocgra_obs.Ctx.metrics obs) in
      Alcotest.(check (triple int int int))
        "conflicts, decisions, propagations" expected
        (get "sat.conflicts", get "sat.decisions", get "sat.propagations")

(* regression: the sat mapper used to report elapsed_s = 0.0 *)
let test_sat_elapsed_reported () =
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:8 () in
  let mapper = Ocgra_mappers.Registry.find "sat" in
  let o = mapper.Mapper.map p (Rng.create 3) Deadline.none Ocgra_obs.Ctx.off in
  checkb "mapped" true (o.Mapper.mapping <> None);
  checkb "elapsed measured" true (o.Mapper.elapsed_s > 0.0 && o.Mapper.elapsed_s < 300.0)

(* byte-determinism across worker counts: a single-tier race degrades
   to the sequential harness, so the sat mapping must be bit-identical
   at any worker count *)
let test_sat_worker_determinism () =
  let k = Kernels.absdiff () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:(small_cgra 2) ~max_ii:8 () in
  let chain = [ Ocgra_mappers.Registry.find "sat" ] in
  let o1 = Mapper.Harness.race ~seed:7 ~workers:1 chain p in
  let o4 = Mapper.Harness.race ~seed:7 ~workers:4 chain p in
  checkb "both map" true (o1.Mapper.mapping <> None && o4.Mapper.mapping <> None);
  checkb "same mapping bytes" true
    (Marshal.to_string o1.Mapper.mapping [] = Marshal.to_string o4.Mapper.mapping []);
  (* and plain repetition with the same seed is byte-stable too *)
  let o1' = Mapper.Harness.race ~seed:7 ~workers:1 chain p in
  checkb "repeat run byte-identical" true
    (Marshal.to_string o1.Mapper.mapping [] = Marshal.to_string o1'.Mapper.mapping [])

(* decoupled scheduling: the list scheduler respects resources & deps *)
let test_list_schedule_properties () =
  let k = Kernels.fir4 () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let rng = Rng.create 3 in
  match Ocgra_mappers.Sched.modulo_list_schedule p rng ~ii:2 with
  | None -> Alcotest.fail "fir4 schedules at II=2"
  | Some times ->
      (* dependences respected *)
      Ocgra_dfg.Dfg.iter_edges
        (fun (e : Ocgra_dfg.Dfg.edge) ->
          if e.src <> e.dst then
            checkb "dep" true
              (times.(e.dst) + (e.dist * 2)
              >= times.(e.src) + Ocgra_dfg.Op.latency (Ocgra_dfg.Dfg.op k.dfg e.src)))
        k.dfg;
      (* per-slot class capacity *)
      let count = Hashtbl.create 8 in
      Array.iteri
        (fun v t ->
          let key = (Ocgra_dfg.Op.func_class (Ocgra_dfg.Dfg.op k.dfg v), t mod 2) in
          Hashtbl.replace count key (1 + Option.value ~default:0 (Hashtbl.find_opt count key)))
        times;
      Hashtbl.iter (fun _ c -> checkb "capacity" true (c <= 16)) count

(* modulo-greedy's exact output is pinned: II, attempt count and an
   MD5 of binding plus routes per (array, kernel), recorded before the
   router and the derived arch view were optimised.  Any change to a
   placement, a route, an RNG draw or a visit order shows up here. *)
let mapping_digest (m : Mapping.t) =
  let module Json = Ocgra_obs.Json in
  let int = Json.of_int in
  let step = function
    | Mapping.Hop { pe; time } -> Json.Arr [ Json.Str "hop"; int pe; int time ]
    | Mapping.Hold { pe; from_; until } -> Json.Arr [ Json.Str "hold"; int pe; int from_; int until ]
  in
  Json.Obj
    [
      ("ii", int m.ii);
      ( "binding",
        Json.Arr (Array.to_list (Array.map (fun (pe, t) -> Json.Arr [ int pe; int t ]) m.binding)) );
      ("routes", Json.Arr (Array.to_list (Array.map (fun r -> Json.Arr (List.map step r)) m.routes)));
    ]
  |> Json.write |> Digest.string |> Digest.to_hex

let pinned_modulo_greedy =
  [
    ("mesh", "dot-product", Some (1, "b49c8b1eddbe31176ee7ea5af8ec2bc2"), 1);
    ("mesh", "saxpy", Some (1, "cdd3d0ff899346bad1523195b8308a1a"), 14);
    ("mesh", "fir4", Some (2, "ac12bdff04c674558dd82e1d5287dad8"), 17);
    ("mesh", "iir2", Some (3, "ac24a1e3dfc0cfa3bf1157b1b5ffbd74"), 1);
    ("mesh", "sobel-row", Some (3, "035583c29dd8522f15d77961c451985f"), 43);
    ("mesh", "horner", Some (2, "f3e67fbb80777d88f40c5eb212eaaae4"), 2);
    ("mesh", "fft-butterfly", Some (4, "cad8c1782add54580de0b66f4cd4e581"), 40);
    ("mesh", "running-max", Some (2, "e5c7a882f347d22b587e21f05b1c7dc4"), 1);
    ("mesh", "absdiff", Some (2, "3edd872f1d01bd700574a3a9089e25d8"), 23);
    ("mesh", "mix-round", Some (5, "5703d64aed4a03b956971e44bb249731"), 49);
    ("mesh", "matvec2", Some (2, "5208fa10ff80247c47a95bfb57338120"), 17);
    ("mesh", "prefix-sum", Some (1, "19d76cce5081085f3005bee45f48f3ab"), 1);
    ("mesh", "cmac", Some (2, "80af0b2c72ffab1db0ff6f5022391d28"), 17);
    ("mesh", "moving-avg3", Some (2, "f066d7e96f2dd742ef88e5f25815c0c1"), 17);
    ("mesh", "alpha-blend", Some (2, "fe28aa522288b05f9993637400aa2419"), 17);
    ("mesh", "conv3-store", Some (3, "a43955a9a050231616be2125e24ba10c"), 21);
    ("torus", "dot-product", Some (1, "91d9a3628c1897a8a268ea4392f8f472"), 1);
    ("torus", "saxpy", Some (1, "b404ef66171655e350480332548f5722"), 7);
    ("torus", "fir4", Some (2, "a3b615b113c346e681bc5ad44ac5ceac"), 18);
    ("torus", "iir2", Some (3, "ac24a1e3dfc0cfa3bf1157b1b5ffbd74"), 1);
    ("torus", "sobel-row", Some (2, "ed60bc4e7b7a74944cde06e45505e70c"), 21);
    ("torus", "horner", Some (2, "a0f8848b0e8c219f71b4e0addc22c138"), 1);
    ("torus", "fft-butterfly", Some (3, "cf553b8b4ca57dd3be5e24feab37f399"), 20);
    ("torus", "running-max", Some (2, "e5c7a882f347d22b587e21f05b1c7dc4"), 1);
    ("torus", "absdiff", Some (2, "25066f7010659a63988cce37d9bc2226"), 19);
    ("torus", "mix-round", Some (5, "3281fa01029938113200dbbbfcfc2306"), 49);
    ("torus", "matvec2", Some (1, "d68ea43e31fd4b5b98b89ff2611422cd"), 14);
    ("torus", "prefix-sum", Some (1, "264b20db1568615472c714040f72f677"), 1);
    ("torus", "cmac", Some (2, "2d5062af5e2c4c8b1ebe1f38d2168afc"), 17);
    ("torus", "moving-avg3", Some (2, "8deebf2a82a4155ef72ada24165ee5c3"), 17);
    ("torus", "alpha-blend", Some (2, "615dd7d237581d54a4b11e1e4f825602"), 17);
    ("torus", "conv3-store", Some (3, "2ec6ed8b3e0f9425a05dd3e064cd632d"), 17);
    ("mesh-f3", "dot-product", Some (1, "263630d51d5f2c427249960a89376cda"), 2);
    ("mesh-f3", "saxpy", Some (1, "07b93c1adde147bd1f15e34a2088a78b"), 1);
    ("mesh-f3", "fir4", Some (3, "93827e5c90c768bb5828b23f64802882"), 37);
    ("mesh-f3", "iir2", Some (3, "d24246c87681eda5b3706b5d1d8b37cd"), 7);
    ("mesh-f3", "sobel-row", Some (3, "0af1acdd64378866bf8c8f9f3561e1e7"), 44);
    ("mesh-f3", "horner", Some (2, "54a988639f4d5705953e7e7e3d0e0a12"), 3);
    ("mesh-f3", "fft-butterfly", Some (4, "75d0c1d8240da647b5c0ee33a4d95c03"), 34);
    ("mesh-f3", "running-max", Some (2, "49cca08e003fa6ec49bb4c264be44fd3"), 1);
    ("mesh-f3", "absdiff", Some (2, "3cc3e6d419492ef09c337fdb442c0de7"), 25);
    ("mesh-f3", "mix-round", Some (5, "efe6450eb9e834453eb31dc470978c05"), 58);
    ("mesh-f3", "matvec2", Some (2, "2d3cb606fae6e89921fc6b89426b4bc6"), 17);
    ("mesh-f3", "prefix-sum", Some (1, "2227a7fb8a9c286ac6e58c0fc4d927a3"), 2);
    ("mesh-f3", "cmac", Some (3, "4a5391f88e6c3e3da71f409da96a3a97"), 37);
    ("mesh-f3", "moving-avg3", Some (2, "3af876c844d5bee97873b70fa113a934"), 17);
    ("mesh-f3", "alpha-blend", Some (2, "48874b7cf0b2d16162454f44b0369e57"), 17);
    ("mesh-f3", "conv3-store", Some (4, "b76b59e0538c9fa469c35f2ab03caefb"), 33);
  ]

let test_modulo_greedy_pinned () =
  let mesh = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 () in
  let arrays =
    [
      ("mesh", mesh);
      ("torus", Ocgra_arch.Cgra.uniform ~topology:Ocgra_arch.Topology.Torus ~rows:4 ~cols:4 ());
      ("mesh-f3", Ocgra_arch.Cgra.with_faults mesh (Ocgra_arch.Cgra.inject_faults mesh ~seed:101 ~n:3));
    ]
  in
  let mapper = Ocgra_mappers.Registry.find "modulo-greedy" in
  let got =
    List.concat_map
      (fun (aname, cgra) ->
        List.map
          (fun (k : Kernels.t) ->
            let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ~max_ii:12 () in
            let o = Mapper.run mapper ~seed:7 p in
            ( aname,
              k.name,
              Option.map (fun (m : Mapping.t) -> (m.ii, mapping_digest m)) o.Mapper.mapping,
              o.attempts ))
          (Kernels.all ()))
      arrays
  in
  let show (a, k, m, n) =
    Printf.sprintf "%s/%s %s attempts %d" a k
      (match m with None -> "unmapped" | Some (ii, d) -> Printf.sprintf "II %d %s" ii d)
      n
  in
  Alcotest.(check (list string)) "II, attempts, digest" (List.map show pinned_modulo_greedy)
    (List.map show got)

let () =
  Alcotest.run "mappers"
    [
      ( "validity",
        [ Alcotest.test_case "every mapper output validates" `Slow test_every_mapper_output_validates ] );
      ( "behaviour",
        [
          Alcotest.test_case "easy kernels map" `Slow test_easy_kernels_map;
          Alcotest.test_case "ii >= mii" `Quick test_ii_respects_mii;
          Alcotest.test_case "exactness claims" `Quick test_exactness_claims;
          Alcotest.test_case "sat refutes infeasible" `Quick test_sat_refutes_infeasible;
          Alcotest.test_case "spatial recurrence fails" `Quick test_spatial_recurrence_fails;
          Alcotest.test_case "seed determinism" `Quick test_seed_determinism;
          Alcotest.test_case "list scheduler properties" `Quick test_list_schedule_properties;
          Alcotest.test_case "modulo-greedy output pinned" `Quick test_modulo_greedy_pinned;
        ] );
      ( "incremental sat",
        [
          Alcotest.test_case "multi-attempt sweeps agree" `Slow test_cold_incremental_multi_attempt;
          QCheck_alcotest.to_alcotest qcheck_cold_incremental_equivalent;
          Alcotest.test_case "elapsed_s reported" `Quick test_sat_elapsed_reported;
          Alcotest.test_case "search path matches BENCH_PR8" `Quick test_sweep_search_path_pinned;
          Alcotest.test_case "worker-count determinism" `Slow test_sat_worker_determinism;
        ] );
    ]
