(* Mapping-as-a-service tests: canonicalization (WL fingerprint is
   permutation-invariant, witnesses are exact), the cache decision tree
   (hit / iso-hit / repair-hit / miss), canonical fault masks in the
   key, deterministic seq-ordered eviction, the wire codec, and the
   worker-count-invariance property over random iso-renamed request
   streams. *)

module Svc = Ocgra_svc.Svc
module Cache = Ocgra_svc.Cache
module Canon = Ocgra_svc.Canon
module Wire = Ocgra_svc.Wire
module Cgra = Ocgra_arch.Cgra
module Fault = Ocgra_arch.Fault
module Dfg = Ocgra_dfg.Dfg
module Op = Ocgra_dfg.Op
module Kernels = Ocgra_workloads.Kernels
module Rng = Ocgra_util.Rng
open Ocgra_core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let cgra44 = Cgra.uniform ~rows:4 ~cols:4 ()
let chain = [ Ocgra_mappers.Registry.find "modulo-greedy" ]
let config = { Svc.default_config with Svc.chain }

let req ?(id = "r") ?(cgra = cgra44) dfg = { Svc.id; dfg; cgra; spatial = false; max_ii = None }

let rand_perm rng n = Rng.shuffle rng (Array.init n Fun.id)

let served_name (r : Svc.response) = Svc.served_to_string r.Svc.served

(* ---------- canonical form ---------- *)

let test_fingerprint_invariant () =
  let rng = Rng.create 11 in
  List.iter
    (fun (k : Kernels.t) ->
      let c = Canon.of_dfg k.Kernels.dfg in
      for _ = 1 to 5 do
        let p = rand_perm rng (Dfg.node_count k.Kernels.dfg) in
        let c' = Canon.of_dfg (Canon.permute k.Kernels.dfg p) in
        checki (k.Kernels.name ^ " fingerprint is permutation-invariant")
          (Canon.fingerprint c) (Canon.fingerprint c');
        match Canon.witness c c' with
        | None -> Alcotest.fail (k.Kernels.name ^ ": witness must exist for a renaming")
        | Some w ->
            (* the witness is a bijection matching ops label-for-label *)
            let seen = Array.make (Array.length w) false in
            Array.iteri
              (fun i j ->
                checkb "injective" false seen.(j);
                seen.(j) <- true;
                checkb "class-compatible ops"
                  true
                  (Op.func_class (Dfg.op k.Kernels.dfg i)
                  = Op.func_class (Dfg.op (Canon.dfg c') j)))
              w
      done)
    (Kernels.small_suite ())

let test_fingerprint_separates () =
  (* different kernels should (essentially always) get different
     fingerprints; at minimum these structurally different pairs do *)
  let fp name = Canon.fingerprint (Canon.of_dfg (Kernels.find name).Kernels.dfg) in
  checkb "saxpy != fir4" true (fp "saxpy" <> fp "fir4");
  checkb "dot-product != horner" true (fp "dot-product" <> fp "horner")

let test_witness_rejects_relabel () =
  (* same shape, different op: must not be isomorphic *)
  let d1 = Dfg.create () in
  let a = Dfg.add d1 (Op.Input "a") in
  let b = Dfg.add d1 (Op.Binop Op.Add) in
  let o = Dfg.add d1 (Op.Output "y") in
  Dfg.add_edge d1 ~src:a ~dst:b;
  Dfg.add_edge d1 ~src:b ~dst:o ~port:1 |> ignore;
  let d2 = Dfg.create () in
  let a2 = Dfg.add d2 (Op.Input "a") in
  let b2 = Dfg.add d2 (Op.Binop Op.Mul) in
  let o2 = Dfg.add d2 (Op.Output "y") in
  Dfg.add_edge d2 ~src:a2 ~dst:b2;
  Dfg.add_edge d2 ~src:b2 ~dst:o2 ~port:1 |> ignore;
  checkb "add vs mul is not isomorphic" true
    (Canon.witness (Canon.of_dfg d1) (Canon.of_dfg d2) = None)

let test_witness_respects_edge_labels () =
  (* same nodes and arcs, different loop-carried distance: not iso *)
  let build dist =
    let d = Dfg.create () in
    let a = Dfg.add d (Op.Input "a") in
    let s = Dfg.add d (Op.Binop Op.Add) in
    let o = Dfg.add d (Op.Output "y") in
    Dfg.add_edge d ~src:a ~dst:s;
    Dfg.add_edge d ~src:s ~dst:s ~port:1 ~dist;
    Dfg.add_edge d ~src:s ~dst:o |> ignore;
    d
  in
  checkb "dist 1 vs dist 2 differ" true
    (Canon.witness (Canon.of_dfg (build 1)) (Canon.of_dfg (build 2)) = None)

(* ---------- hit / iso-hit / repair / miss decision tree ---------- *)

let test_exact_duplicate_hits () =
  let svc = Svc.create config in
  let k = Kernels.find "saxpy" in
  let first = Svc.submit_batch svc [ req ~id:"a" k.Kernels.dfg ] in
  let rs = first @ Svc.submit_batch svc [ req ~id:"b" k.Kernels.dfg ] in
  Alcotest.(check (list string)) "miss then hit" [ "miss"; "hit" ] (List.map served_name rs);
  let s = Svc.stats svc in
  checki "one hit" 1 s.Svc.hits;
  checki "one miss" 1 s.Svc.misses

let test_iso_hit_certifies_on_renamed () =
  let svc = Svc.create config in
  let k = Kernels.find "fir4" in
  let rng = Rng.create 3 in
  ignore (Svc.submit_batch svc [ req ~id:"cold" k.Kernels.dfg ]);
  let renamed = Canon.permute k.Kernels.dfg (rand_perm rng (Dfg.node_count k.Kernels.dfg)) in
  match Svc.submit_batch svc [ req ~id:"renamed" renamed ] with
  | [ r ] ->
      Alcotest.(check string) "served" "iso-hit" (served_name r);
      let m = Option.get r.Svc.mapping in
      (* the certification that matters: valid on the RENAMED kernel *)
      let p = Problem.temporal ~dfg:renamed ~cgra:cgra44 () in
      Alcotest.(check (list string)) "validates on the renamed kernel" [] (Check.validate p m)
  | _ -> Alcotest.fail "one response expected"

let test_mask_canonical_key () =
  (* permuted-but-equal fault masks must land on the same entry: the
     first request pays, the second (same mask, different order and a
     duplicate) is a pure hit, not a repair and not a miss *)
  let svc = Svc.create config in
  let k = Kernels.find "absdiff" in
  let f1 = Fault.Pe_down 3 and f2 = Fault.Link_down (1, 2) in
  let c1 = Cgra.with_faults cgra44 [ f1; f2 ] in
  let c2 = Cgra.with_faults cgra44 [ f2; f1; f2 ] in
  ignore (Svc.submit_batch svc [ req ~id:"a" ~cgra:c1 k.Kernels.dfg ]);
  match Svc.submit_batch svc [ req ~id:"b" ~cgra:c2 k.Kernels.dfg ] with
  | [ r ] ->
      Alcotest.(check string) "same canonical mask is a pure hit" "hit" (served_name r);
      checki "no repairs" 0 (Svc.stats svc).Svc.repair_hits
  | _ -> Alcotest.fail "one response expected"

let test_mask_growth_repairs_shrink_hits () =
  let svc = Svc.create config in
  let k = Kernels.find "saxpy" in
  let grown = Cgra.with_faults cgra44 (Cgra.inject_faults cgra44 ~seed:3 ~n:4) in
  ignore (Svc.submit_batch svc [ req ~id:"cold" ~cgra:grown k.Kernels.dfg ]);
  (* a *smaller* mask is still covered by the cached certificate *)
  let shrunk = Cgra.with_faults cgra44 (Cgra.inject_faults cgra44 ~seed:3 ~n:2) in
  (match Svc.submit_batch svc [ req ~id:"sub" ~cgra:shrunk k.Kernels.dfg ] with
  | [ r ] ->
      Alcotest.(check string) "subset mask is a hit" "hit" (served_name r);
      let p = Problem.temporal ~dfg:k.Kernels.dfg ~cgra:shrunk () in
      Alcotest.(check (list string)) "certified under the subset mask" []
        (Check.validate p (Option.get r.Svc.mapping))
  | _ -> Alcotest.fail "one response expected");
  (* a grown mask goes through the repair ladder or, failing that, a
     cold remap — never an uncertified answer *)
  let grown6 = Cgra.with_faults cgra44 (Cgra.inject_faults cgra44 ~seed:3 ~n:6) in
  match Svc.submit_batch svc [ req ~id:"grow" ~cgra:grown6 k.Kernels.dfg ] with
  | [ r ] ->
      (match r.Svc.served with
      | Svc.Repair_hit _ | Svc.Miss -> ()
      | s -> Alcotest.fail ("grown mask should repair or remap, got " ^ Svc.served_to_string s));
      (match r.Svc.mapping with
      | Some m ->
          let p = Problem.temporal ~dfg:k.Kernels.dfg ~cgra:grown6 () in
          Alcotest.(check (list string)) "certified under the grown mask" [] (Check.validate p m)
      | None -> Alcotest.fail "expected a mapping")
  | _ -> Alcotest.fail "one response expected"

let test_arch_is_part_of_the_key () =
  let svc = Svc.create config in
  let k = Kernels.find "dot-product" in
  ignore (Svc.submit_batch svc [ req ~id:"a" k.Kernels.dfg ]);
  let c33 = Cgra.uniform ~rows:3 ~cols:3 () in
  match Svc.submit_batch svc [ req ~id:"b" ~cgra:c33 k.Kernels.dfg ] with
  | [ r ] -> Alcotest.(check string) "other fabric misses" "miss" (served_name r)
  | _ -> Alcotest.fail "one response expected"

let test_rejects_invalid_and_failures () =
  let svc = Svc.create config in
  (* a DFG with a dangling operand port is rejected, not mapped *)
  let d = Dfg.create () in
  let a = Dfg.add d (Op.Input "a") in
  let b = Dfg.add d (Op.Binop Op.Add) in
  Dfg.add_edge d ~src:a ~dst:b |> ignore;
  (* an unmappable problem (everything needs mul, no mul PEs) fails
     cleanly too *)
  let mul_only = Dfg.create () in
  let m1 = Dfg.add mul_only (Op.Input "x") in
  let m2 = Dfg.add mul_only (Op.Binop Op.Mul) in
  let m3 = Dfg.add mul_only (Op.Output "y") in
  Dfg.add_edge mul_only ~src:m1 ~dst:m2;
  Dfg.add_edge mul_only ~src:m1 ~dst:m2 ~port:1;
  Dfg.add_edge mul_only ~src:m2 ~dst:m3 |> ignore;
  let dead = Cgra.with_faults cgra44 (List.init 16 (fun i -> Fault.Pe_down i)) in
  let rs =
    Svc.submit_batch svc [ req ~id:"invalid" d; req ~id:"unmappable" ~cgra:dead mul_only ]
  in
  Alcotest.(check (list string))
    "both rejected" [ "rejected"; "rejected" ] (List.map served_name rs);
  checki "no cache pollution" 0 (Svc.stats svc).Svc.entries

(* ---------- deterministic eviction ---------- *)

let test_lru_eviction_deterministic () =
  let svc = Svc.create { config with Svc.capacity = 2 } in
  let dfg name = (Kernels.find name).Kernels.dfg in
  ignore (Svc.submit_batch svc [ req ~id:"a" (dfg "saxpy") ]);
  ignore (Svc.submit_batch svc [ req ~id:"b" (dfg "fir4") ]);
  (* touch saxpy so fir4 is the least recently used *)
  ignore (Svc.submit_batch svc [ req ~id:"a2" (dfg "saxpy") ]);
  ignore (Svc.submit_batch svc [ req ~id:"c" (dfg "absdiff") ]);
  let s = Svc.stats svc in
  checki "capacity bound" 2 s.Svc.entries;
  checki "one eviction" 1 s.Svc.evictions;
  (* saxpy survived (hit), fir4 was evicted (miss again) *)
  let r1 = List.hd (Svc.submit_batch svc [ req ~id:"a3" (dfg "saxpy") ]) in
  Alcotest.(check string) "recently-used survived" "hit" (served_name r1);
  let r2 = List.hd (Svc.submit_batch svc [ req ~id:"b2" (dfg "fir4") ]) in
  Alcotest.(check string) "LRU victim was evicted" "miss" (served_name r2)

(* ---------- in-batch coalescing ---------- *)

let test_batch_coalescing () =
  let svc = Svc.create config in
  let k = Kernels.find "horner" in
  let rng = Rng.create 5 in
  let renamed = Canon.permute k.Kernels.dfg (rand_perm rng (Dfg.node_count k.Kernels.dfg)) in
  let rs =
    Svc.submit_batch svc
      [ req ~id:"a" k.Kernels.dfg; req ~id:"b" k.Kernels.dfg; req ~id:"c" renamed ]
  in
  Alcotest.(check (list string))
    "one cold map, two coalesced" [ "miss"; "hit"; "iso-hit" ] (List.map served_name rs);
  let s = Svc.stats svc in
  checki "coalesced counted" 2 s.Svc.coalesced;
  checki "single entry" 1 s.Svc.entries

(* ---------- wire codec ---------- *)

let test_wire_roundtrip () =
  let k = Kernels.find "fir4" in
  let r =
    {
      Wire.default_req with
      Wire.id = "w1";
      payload = Wire.Inline k.Kernels.dfg;
      rows = 5;
      cols = 3;
      topology = "torus";
      faults = [ Fault.Link_down (1, 2); Fault.Pe_down 3 ];
      spatial = true;
      max_ii = Some 4;
    }
  in
  match Wire.parse_req (Wire.req_to_json r) with
  | Error e -> Alcotest.fail ("roundtrip parse failed: " ^ e)
  | Ok r' -> (
      Alcotest.(check string) "id" r.Wire.id r'.Wire.id;
      checki "rows" r.Wire.rows r'.Wire.rows;
      checki "cols" r.Wire.cols r'.Wire.cols;
      Alcotest.(check string) "topology" r.Wire.topology r'.Wire.topology;
      checkb "spatial" r.Wire.spatial r'.Wire.spatial;
      checkb "max_ii" true (r'.Wire.max_ii = Some 4);
      checkb "faults survive canonically" true
        (Fault.canonical r.Wire.faults = Fault.canonical r'.Wire.faults);
      match r'.Wire.payload with
      | Wire.Inline d ->
          (* the inline DFG round-trips up to identity witness *)
          checkb "dfg identical up to codec" true
            (Canon.witness (Canon.of_dfg k.Kernels.dfg) (Canon.of_dfg d)
            = Some (Array.init (Dfg.node_count d) Fun.id))
      | _ -> Alcotest.fail "expected inline payload")

let test_wire_malformed () =
  let bad l = match Wire.parse_req l with Error _ -> true | Ok _ -> false in
  checkb "not json" true (bad "garbage");
  checkb "no id" true (bad "{\"kernel\":\"saxpy\"}");
  checkb "no payload" true (bad "{\"id\":\"x\"}");
  checkb "both payloads" true (bad "{\"id\":\"x\",\"kernel\":\"a\",\"dfg\":{\"nodes\":[]}}");
  checkb "bad op" true (bad "{\"id\":\"x\",\"dfg\":{\"nodes\":[{\"op\":\"frobnicate\"}]}}");
  checkb "edge out of range" true
    (bad "{\"id\":\"x\",\"dfg\":{\"nodes\":[{\"op\":\"nop\"}],\"edges\":[[0,9,0,0]]}}");
  checkb "bad fault kind" true (bad "{\"id\":\"x\",\"kernel\":\"saxpy\",\"faults\":[[\"cpu\",1]]}");
  checkb "salvages id" true (Wire.salvage_id ~line:7 "{\"id\":\"keep\",\"kernel\":" = "line-7");
  checkb "salvages id from valid json" true
    (Wire.salvage_id ~line:7 "{\"id\":\"keep\",\"rows\":true}" = "keep")

let test_wire_pins_committed_stream () =
  (* every committed request line decodes and re-encodes to itself,
     byte for byte: the wire format cannot drift unnoticed *)
  let ic = open_in_bin "../SERVE_STREAM.jsonl" in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  close_in ic;
  let lines = List.filter (fun l -> l <> "") lines in
  checkb "stream is not empty" true (lines <> []);
  List.iter
    (fun line ->
      match Wire.parse_req line with
      | Ok r -> Alcotest.(check string) "re-encoded byte for byte" line (Wire.req_to_json r)
      | Error e -> Alcotest.fail (line ^ ": " ^ e))
    lines

let test_wire_off_array_faults () =
  (* a request may name faults on PEs the array does not have: they
     stay in the mask but mask nothing, and the request is served *)
  let lookup name =
    match Kernels.find name with k -> Ok k.Kernels.dfg | exception Invalid_argument m -> Error m
  in
  let line =
    "{\"id\":\"off\",\"kernel\":\"saxpy\",\"rows\":3,\"cols\":3,\"faults\":[[\"pe\",9],\
     [\"pe\",-1],[\"link\",0,42],[\"link\",-5,1],[\"rf\",17,2],[\"slot\",-2,0]]}"
  in
  match Result.bind (Wire.parse_req line) (Wire.to_request ~lookup) with
  | Error e -> Alcotest.fail e
  | Ok r ->
      let healthy = Cgra.uniform ~rows:3 ~cols:3 () in
      checki "mask kept" 6 (List.length (Cgra.faults r.Svc.cgra));
      for pe = 0 to Cgra.pe_count healthy - 1 do
        checkb "pe ok" true (Cgra.pe_ok r.Svc.cgra pe);
        Alcotest.(check (list int)) "reach" (Cgra.reachable_in_one healthy pe)
          (Cgra.reachable_in_one r.Svc.cgra pe);
        checki "rf" (Cgra.effective_rf_size healthy pe) (Cgra.effective_rf_size r.Svc.cgra pe)
      done;
      let resp = List.hd (Svc.submit_batch (Svc.create config) [ r ]) in
      checkb "served with a mapping" true (resp.Svc.mapping <> None)

let test_wire_bad_escape_is_one_error () =
  (* a bad \u escape in one line must cost exactly that line an
     error response, never the rest of the stream *)
  let lookup name =
    match Kernels.find name with k -> Ok k.Kernels.dfg | exception Invalid_argument m -> Error m
  in
  let out = ref [] in
  let errors =
    Wire.serve_lines ~lookup ~batch:2 (Svc.create config)
      [
        "{\"id\":\"a\",\"kernel\":\"saxpy\"}";
        "{\"id\":\"b\\uZZZZ\",\"kernel\":\"saxpy\"}";
        "{\"id\":\"c\",\"kernel\":\"saxpy\"}";
      ]
      (fun l -> out := l :: !out)
  in
  checki "one error" 1 errors;
  let status l =
    match Ocgra_obs.Json.(Result.bind (parse l) (field "status" string)) with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list string))
    "statuses in input order" [ "ok"; "error"; "ok" ]
    (List.rev_map status !out)

(* ---------- worker-count invariance + certification (QCheck) ---------- *)

let qcheck_iso_requests_certify =
  QCheck.Test.make ~name:"random iso-renamed streams: certified hits, worker-invariant counts"
    ~count:12
    QCheck.(pair (int_range 0 1000) (int_range 6 14))
    (fun (seed, nodes) ->
      let rng = Rng.create seed in
      let dfg, _ =
        Ocgra_workloads.Random_dfg.generate
          ~params:{ Ocgra_workloads.Random_dfg.default with Ocgra_workloads.Random_dfg.nodes }
          rng
      in
      let n = Dfg.node_count dfg in
      let reqs =
        req ~id:"cold" dfg
        :: List.map
             (fun i ->
               req ~id:(Printf.sprintf "iso-%d" i) (Canon.permute dfg (rand_perm rng n)))
             [ 1; 2; 3 ]
      in
      let serve workers =
        let svc = Svc.create { config with Svc.workers } in
        List.concat_map (fun r -> Svc.submit_batch svc [ r ]) reqs |> fun rs ->
        (rs, Svc.stats svc)
      in
      let rs1, s1 = serve 1 in
      let rs4, s4 = serve 4 in
      (* every response with a mapping is certified on ITS OWN dfg *)
      List.iter2
        (fun (r : Svc.response) (q : Svc.request) ->
          match r.Svc.mapping with
          | None -> ()
          | Some m ->
              let p = Problem.temporal ~dfg:q.Svc.dfg ~cgra:cgra44 () in
              if Check.validate p m <> [] then
                QCheck.Test.fail_report "uncertified mapping returned")
        rs1 reqs;
      (* the first request is never a hit; renamings hit iff it mapped *)
      (match (rs1, List.tl rs1) with
      | r0 :: _, rest ->
          if r0.Svc.served = Svc.Miss then
            List.iter
              (fun (r : Svc.response) ->
                if r.Svc.served <> Svc.Iso_hit && r.Svc.served <> Svc.Hit then
                  QCheck.Test.fail_report "renaming of a cached kernel must hit")
              rest
      | _ -> ());
      (* counts are a pure function of the stream, not the worker count *)
      s1.Svc.hits = s4.Svc.hits && s1.Svc.iso_hits = s4.Svc.iso_hits
      && s1.Svc.misses = s4.Svc.misses
      && s1.Svc.rejections = s4.Svc.rejections
      && List.map served_name rs1 = List.map served_name rs4)

(* ---------- Fault.subset ---------- *)

let test_fault_subset () =
  let a = Fault.Pe_down 1 and b = Fault.Link_down (0, 1) and c = Fault.Rf_reduced (2, 1) in
  checkb "empty is subset" true (Fault.subset [] [ a ]);
  checkb "subset holds any order" true (Fault.subset [ b; a ] [ a; c; b ]);
  checkb "duplicates ignored" true (Fault.subset [ a; a ] [ a ]);
  checkb "superset is not subset" false (Fault.subset [ a; c ] [ a ]);
  checkb "incomparable" false (Fault.subset [ b ] [ c ])

let () =
  Alcotest.run "svc"
    [
      ( "canon",
        [
          Alcotest.test_case "fingerprint permutation-invariant" `Quick test_fingerprint_invariant;
          Alcotest.test_case "fingerprints separate kernels" `Quick test_fingerprint_separates;
          Alcotest.test_case "witness rejects op relabel" `Quick test_witness_rejects_relabel;
          Alcotest.test_case "witness respects edge labels" `Quick test_witness_respects_edge_labels;
        ] );
      ( "decision-tree",
        [
          Alcotest.test_case "exact duplicate hits" `Quick test_exact_duplicate_hits;
          Alcotest.test_case "iso hit certifies on renamed" `Quick test_iso_hit_certifies_on_renamed;
          Alcotest.test_case "canonical mask key" `Quick test_mask_canonical_key;
          Alcotest.test_case "mask growth repairs, shrink hits" `Quick
            test_mask_growth_repairs_shrink_hits;
          Alcotest.test_case "arch in the key" `Quick test_arch_is_part_of_the_key;
          Alcotest.test_case "rejections" `Quick test_rejects_invalid_and_failures;
        ] );
      ( "cache",
        [
          Alcotest.test_case "deterministic LRU eviction" `Quick test_lru_eviction_deterministic;
          Alcotest.test_case "in-batch coalescing" `Quick test_batch_coalescing;
        ] );
      ( "wire",
        [
          Alcotest.test_case "request roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "malformed lines are errors" `Quick test_wire_malformed;
          Alcotest.test_case "committed stream re-encodes byte for byte" `Quick
            test_wire_pins_committed_stream;
          Alcotest.test_case "bad escape costs one error line" `Quick
            test_wire_bad_escape_is_one_error;
          Alcotest.test_case "off-array faults mask nothing" `Quick test_wire_off_array_faults;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_iso_requests_certify;
          Alcotest.test_case "fault subset" `Quick test_fault_subset;
        ] );
    ]
