(* Observability subsystem tests: span nesting and ordering on the
   monotonic clock, counter determinism (same seed, one worker =>
   byte-identical dumps), lock-free trace merging across worker
   domains, exporter output validity (checked by a small recursive
   descent JSON parser — no JSON library in the tree, on purpose) and
   the structured per-tier trail the racing harness now reports. *)

open Ocgra_core
module Obs = Ocgra_obs
module Ctx = Ocgra_obs.Ctx
module Kernels = Ocgra_workloads.Kernels

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let cgra44 = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 ()

(* ---------- a minimal JSON validity checker ---------- *)

(* Accepts exactly the JSON grammar (RFC 8259, minus extension
   niceties we never emit: no leading +, no lone surrogate checks).
   Returns true iff the whole string is one valid JSON value. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let fail = ref false in
  let expect c = if peek () = Some c then advance () else fail := true in
  let literal lit =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then pos := !pos + l else fail := true
  in
  let string_lit () =
    expect '"';
    let fin = ref false in
    while (not !fin) && not !fail do
      match peek () with
      | None -> fail := true
      | Some '"' ->
          advance ();
          fin := true
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                (match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> ()
                | _ -> fail := true);
                if not !fail then advance ()
              done
          | _ -> fail := true)
      | Some c when Char.code c < 0x20 -> fail := true
      | Some _ -> advance ()
    done
  in
  let digits () =
    let saw = ref false in
    while (match peek () with Some '0' .. '9' -> true | _ -> false) do
      saw := true;
      advance ()
    done;
    if not !saw then fail := true
  in
  let number () =
    if peek () = Some '-' then advance ();
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then advance ()
        else begin
          let fin = ref false in
          while (not !fin) && not !fail do
            skip_ws ();
            string_lit ();
            skip_ws ();
            expect ':';
            value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some '}' ->
                advance ();
                fin := true
            | _ -> fail := true
          done
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then advance ()
        else begin
          let fin = ref false in
          while (not !fin) && not !fail do
            value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some ']' ->
                advance ();
                fin := true
            | _ -> fail := true
          done
        end
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail := true);
    skip_ws ()
  in
  value ();
  (not !fail) && !pos = n

let test_json_checker_sanity () =
  (* the checker itself must reject garbage, or the exporter tests
     prove nothing; [Obs.Json.parse] must agree with it both ways *)
  let parses s = Result.is_ok (Obs.Json.parse s) in
  List.iter
    (fun good ->
      checkb good true (json_valid good);
      checkb ("Json.parse " ^ good) true (parses good))
    [
      "{}"; "[]"; "null"; "-12.5e3"; "{\"a\": [1, 2, {\"b\": \"c\\n\\u0041\"}]}";
      " { \"x\" : true } "; "\"\\u00e9\\uABCD\"";
    ];
  List.iter
    (fun bad ->
      checkb bad false (json_valid bad);
      checkb ("Json.parse " ^ bad) false (parses bad))
    [
      ""; "{"; "{\"a\":}"; "[1,]"; "tru"; "\"unterminated"; "{} extra"; "01x"; "\"bad\\q\"";
      "\"\\uZZZZ\""; "\"\\u-123\""; "\"\\u1_23\""; "\"\\u12\"";
      "{\"id\":\"b\\uZZZZ\",\"kernel\":\"saxpy\"}";
    ];
  (* valid JSON, but nested past the reader's bound: refused, not a
     stack overflow *)
  checkb "deep nesting refused" false (parses (String.make 1000 '[' ^ String.make 1000 ']'))

(* ---------- the codec: roundtrip and byte-mutation fuzz ---------- *)

let gen_json =
  let open QCheck.Gen in
  let bytes = string_size ~gen:char (int_range 0 12) in
  let num =
    oneof
      [
        map float_of_int int;
        map (fun f -> if Float.is_finite f then f else 0.5) float;
        map (fun i -> float_of_int i /. 1000.0) (int_range (-1_000_000) 1_000_000);
      ]
  in
  sized_size (int_range 0 4)
  @@ fix (fun self depth ->
         let leaf =
           oneof
             [
               return Obs.Json.Null;
               map (fun b -> Obs.Json.Bool b) bool;
               map (fun f -> Obs.Json.Num f) num;
               map (fun s -> Obs.Json.Str s) bytes;
             ]
         in
         if depth = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Obs.Json.Arr l) (list_size (int_range 0 4) (self (depth - 1))));
               ( 1,
                 map
                   (fun l -> Obs.Json.Obj l)
                   (list_size (int_range 0 4) (pair bytes (self (depth - 1)))) );
             ])

let qcheck_json_roundtrip =
  QCheck.Test.make ~name:"parse (write v) = Ok v" ~count:500
    (QCheck.make ~print:Obs.Json.write gen_json)
    (fun v -> Obs.Json.parse (Obs.Json.write v) = Ok v)

(* Valid inputs of every outside-facing reader: committed request
   lines, a stamped bench snapshot and a journal trial line. *)
let fuzz_seeds =
  let read path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let snapshot =
    "{\n\"schema\": 1,\n\"bench\": \"table1-empirical\",\n\"cells\": [\n\
     {\"mapper\": \"sat\", \"kernel\": \"fir4\", \"ii\": 2, \"proven_optimal\": true, \
     \"map_time_s\": 0.012345, \"counters\": {\"sat.conflicts\": 1787}},\n\
     {\"mapper\": \"cp\", \"kernel\": \"matvec2\", \"ii\": null, \"proven_optimal\": false, \
     \"map_time_s\": 1.5e-05, \"counters\": {}}\n]\n}\n"
  in
  let trial =
    "{\"trial\":3,\"seed\":\"4611686018427387903\",\"class\":\"sdc\",\"injected\":2,\
     \"applied\":1}"
  in
  Array.of_list
    ((snapshot :: trial :: String.split_on_char '\n' (read "../SERVE_STREAM.jsonl"))
    |> List.filter (fun l -> l <> ""))

type mutation = Flip of int * int | Insert of int * char | Delete of int | Truncate of int

let mutate s = function
  | _ when s = "" -> s
  | Flip (i, bit) ->
      let i = i mod String.length s in
      String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor (1 lsl bit)) else c) s
  | Insert (i, c) ->
      let i = i mod (String.length s + 1) in
      String.sub s 0 i ^ String.make 1 c ^ String.sub s i (String.length s - i)
  | Delete i ->
      let i = i mod String.length s in
      String.sub s 0 i ^ String.sub s (i + 1) (String.length s - i - 1)
  | Truncate i -> String.sub s 0 (i mod String.length s)

let gen_mutated =
  let open QCheck.Gen in
  let pos = int_range 0 100_000 in
  let mutation =
    oneof
      [
        map2 (fun i b -> Flip (i, b)) pos (int_range 0 7);
        map2
          (fun i c -> Insert (i, c))
          pos
          (oneofl [ '"'; '\\'; '{'; '['; ','; ':'; 'u'; '0'; '\000'; '\255' ]);
        map (fun i -> Delete i) pos;
        map (fun i -> Truncate i) pos;
      ]
  in
  map2
    (fun k ms -> List.fold_left mutate fuzz_seeds.(k) ms)
    (int_range 0 (Array.length fuzz_seeds - 1))
    (list_size (int_range 1 4) mutation)

let qcheck_readers_never_raise =
  QCheck.Test.make ~name:"mutated inputs: every reader returns a value" ~count:400
    (QCheck.make ~print:String.escaped gen_mutated)
    (fun s ->
      ignore (Obs.Json.parse s);
      ignore (Ocgra_svc.Wire.parse_req s);
      ignore (Ocgra_svc.Wire.salvage_id ~line:1 s);
      ignore (Ocgra_sim.Reliability.parse_trial_line s);
      true)

let test_fuzz_seeds_are_valid () =
  (* the mutation fuzz only means something if its seeds decode *)
  Array.iter
    (fun s -> checkb "seed parses" true (Result.is_ok (Obs.Json.parse s)))
    fuzz_seeds;
  checkb "trial line decodes" true
    (Ocgra_sim.Reliability.parse_trial_line fuzz_seeds.(1)
    = Some (3, 4611686018427387903, (Ocgra_sim.Reliability.Sdc, 2, 1)))

(* ---------- spans ---------- *)

let test_span_nesting_and_order () =
  let tr = Obs.Trace.create () in
  let r =
    Obs.Trace.span tr "outer" (fun () ->
        Obs.Trace.span tr ~cat:"inner-cat" "inner" (fun () -> 41) + 1)
  in
  checki "span returns the body's value" 42 r;
  match Obs.Trace.spans tr with
  | [ outer; inner ] ->
      checks "outer first (earlier start, longer)" "outer" outer.Obs.Trace.name;
      checks "inner second" "inner" inner.Obs.Trace.name;
      checks "category recorded" "inner-cat" inner.Obs.Trace.cat;
      checkb "inner starts within outer" true (inner.Obs.Trace.ts >= outer.Obs.Trace.ts);
      checkb "inner ends within outer" true
        (inner.Obs.Trace.ts +. inner.Obs.Trace.dur
        <= outer.Obs.Trace.ts +. outer.Obs.Trace.dur +. 1e-9);
      checkb "durations non-negative" true
        (outer.Obs.Trace.dur >= 0.0 && inner.Obs.Trace.dur >= 0.0)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_span_survives_exception () =
  let tr = Obs.Trace.create () in
  (try Obs.Trace.span tr "boom" (fun () -> failwith "x") with Failure _ -> ());
  checki "span published on exception" 1 (Obs.Trace.count tr)

let test_off_records_nothing () =
  let r = Ctx.span Ctx.off "never" (fun () -> 7) in
  checki "off span still runs the body" 7 r;
  Ctx.incr Ctx.off "never.counter";
  checki "off trace empty" 0 (Obs.Trace.count (Ctx.trace Ctx.off));
  checki "off metrics empty" 0 (List.length (Obs.Metrics.dump (Ctx.metrics Ctx.off)))

(* ---------- counters ---------- *)

let test_counter_basics () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "b";
  Obs.Metrics.add m "a" 5;
  Obs.Metrics.add m "b" 2;
  Obs.Metrics.set_max m "c" 9;
  Obs.Metrics.set_max m "c" 3;
  checki "get a" 5 (Obs.Metrics.get m "a");
  checki "get absent" 0 (Obs.Metrics.get m "zzz");
  checkb "dump is name-sorted" true
    (Obs.Metrics.dump m = [ ("a", 5); ("b", 3); ("c", 9) ]);
  let dst = Obs.Metrics.create () in
  Obs.Metrics.add dst "b" 1;
  Obs.Metrics.merge ~into:dst m;
  checkb "merge adds" true (Obs.Metrics.dump dst = [ ("a", 5); ("b", 4); ("c", 9) ])

let map_with_metrics seed =
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let obs = Ctx.v ~trace:Obs.Trace.off ~metrics:(Obs.Metrics.create ()) () in
  let o = Mapper.run (Ocgra_mappers.Registry.find "sat") ~seed ~obs p in
  checkb "mapped" true (o.Mapper.mapping <> None);
  Obs.Metrics.dump (Ctx.metrics obs)

let test_counters_deterministic () =
  (* one worker, one seed: the counter dump is a pure function of the
     run, so two runs must agree exactly (the smoke test checks the
     same property end-to-end through the CLI, byte-for-byte) *)
  let a = map_with_metrics 11 in
  let b = map_with_metrics 11 in
  checkb "same seed, same counters" true (a = b);
  checkb "engine counters are live" true
    (List.exists (fun (name, v) -> name = "sat.decisions" && v > 0) a)

(* ---------- concurrent tracing and the pool ---------- *)

let test_trace_merge_across_workers () =
  let obs = Ctx.create () in
  let tasks = Array.init 16 (fun i () -> Ctx.span obs "task-body" (fun () -> i * 2)) in
  let out = Ocgra_par.Pool.run ~workers:4 ~obs tasks in
  checkb "results correct" true (out = Array.init 16 (fun i -> i * 2));
  (* every task publishes two spans (its own + the pool's wrapper), all
     CAS-pushed onto one shared list: none may be lost *)
  let spans = Obs.Trace.spans (Ctx.trace obs) in
  checki "16 task-body spans survive the merge" 16
    (List.length (List.filter (fun s -> s.Obs.Trace.name = "task-body") spans));
  checki "16 pool wrapper spans" 16
    (List.length
       (List.filter
          (fun s -> String.length s.Obs.Trace.name >= 5 && String.sub s.Obs.Trace.name 0 5 = "pool:")
          spans));
  checkb "spans sorted by start time" true
    (let rec sorted = function
       | a :: (b :: _ as rest) -> a.Obs.Trace.ts <= b.Obs.Trace.ts && sorted rest
       | _ -> true
     in
     sorted spans);
  (* per-worker claim tallies must account for every task exactly once *)
  let m = Ctx.metrics obs in
  let claimed =
    List.fold_left
      (fun acc (name, v) ->
        if String.length name >= 10 && String.sub name 0 10 = "pool.tasks" then acc + v else acc)
      0 (Obs.Metrics.dump m)
  in
  checki "every task claimed exactly once" 16 claimed

(* ---------- exporters ---------- *)

let test_chrome_trace_valid_json () =
  let obs = Ctx.create () in
  ignore
    (Ocgra_par.Pool.run ~workers:4 ~obs
       (Array.init 8 (fun i () ->
            Ctx.span obs ~args:[ ("i", string_of_int i); ("quote", "a\"b\\c\nd") ] "work"
              (fun () -> i))));
  let json = Obs.Export.chrome_trace (Ctx.trace obs) in
  checkb "chrome trace is valid JSON" true (json_valid json);
  checkb "has traceEvents" true
    (String.length json > 20 && String.sub json 0 16 = "{\"traceEvents\":[")

let test_metrics_exports () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.add m "sat.conflicts" 12;
  Obs.Metrics.add m "weird\"name" 1;
  checkb "metrics JSON valid" true (json_valid (Obs.Export.metrics_json m));
  let kv = Obs.Export.metrics_kv m in
  checkb "kv has both lines" true
    (String.split_on_char '\n' kv |> List.exists (fun l -> l = "sat.conflicts=12"));
  let empty = Obs.Export.metrics_json (Obs.Metrics.create ()) in
  checkb "empty metrics still valid JSON" true (json_valid empty)

(* ---------- the harness trail ---------- *)

let failing_tier =
  Mapper.make ~name:"never" ~citation:"test" ~scope:Taxonomy.Temporal_mapping
    ~approach:Taxonomy.Heuristic (fun _p _rng _dl _obs ->
      Mapper.no_mapping ~attempts:1 ~elapsed_s:0.0 ~note:"synthetic failure" ())

let test_harness_run_trail () =
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let chain = [ failing_tier; Ocgra_mappers.Registry.find "modulo-greedy" ] in
  let o = Mapper.Harness.run ~seed:7 ~retries:1 ~deadline_s:30.0 chain p in
  checkb "mapped by tier 2" true (o.Mapper.mapping <> None);
  checki "one record per try" 2 (List.length o.Mapper.trail);
  (match o.Mapper.trail with
  | [ first; second ] ->
      checks "tier 1 name" "never" first.Mapper.tier;
      checkb "tier 1 failed" true (first.Mapper.verdict = Mapper.Failed);
      checks "tier 2 name" "modulo-greedy" second.Mapper.tier;
      checkb "tier 2 won" true (second.Mapper.verdict = Mapper.Won);
      checkb "elapsed recorded" true (first.Mapper.took_s >= 0.0 && second.Mapper.took_s >= 0.0)
  | _ -> Alcotest.fail "expected exactly two trail records");
  checkb "report renders" true
    (String.length (Mapper.report_to_string (List.hd o.Mapper.trail)) > 0)

let test_race_trail_verdicts () =
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let obs = Ctx.v ~trace:Obs.Trace.off ~metrics:(Obs.Metrics.create ()) () in
  let chain = [ failing_tier; Ocgra_mappers.Registry.find "modulo-greedy" ] in
  let o = Mapper.Harness.race ~seed:7 ~deadline_s:30.0 ~workers:2 ~obs chain p in
  checkb "race mapped" true (o.Mapper.mapping <> None);
  checki "one record per tier" 2 (List.length o.Mapper.trail);
  let winner = List.filter (fun r -> r.Mapper.verdict = Mapper.Won) o.Mapper.trail in
  checki "exactly one winner" 1 (List.length winner);
  checks "winner is the real mapper" "modulo-greedy" (List.hd winner).Mapper.tier;
  List.iter
    (fun r ->
      checkb
        (Printf.sprintf "tier %s has a non-Won verdict" r.Mapper.tier)
        true
        (r.Mapper.verdict <> Mapper.Won))
    (List.filter (fun r -> r.Mapper.tier = "never") o.Mapper.trail);
  (* the forked per-tier sinks were absorbed back into [obs] *)
  checkb "absorbed counters visible" true
    (Obs.Metrics.get (Ctx.metrics obs) "mapper.runs" >= 2)

(* ---------- histograms ---------- *)

let test_hist_buckets () =
  (* small values are exact *)
  for v = 1 to 7 do
    checki
      (Printf.sprintf "bucket_lo exact at %d" v)
      v
      (Obs.Hist.bucket_lo (Obs.Hist.bucket_of_value v))
  done;
  checki "non-positive values share bucket 0" 0 (Obs.Hist.bucket_of_value 0);
  checki "negative too" 0 (Obs.Hist.bucket_of_value (-5));
  (* monotone in the value, lower bound never above the value *)
  let prev = ref (-1) in
  List.iter
    (fun v ->
      let b = Obs.Hist.bucket_of_value v in
      checkb (Printf.sprintf "bucket monotone at %d" v) true (b >= !prev);
      checkb (Printf.sprintf "lower bound <= value at %d" v) true (Obs.Hist.bucket_lo b <= v);
      prev := b)
    [ 1; 2; 7; 8; 9; 15; 16; 100; 1_000; 65_536; 1_000_000; max_int / 2; max_int ];
  checkb "bucket index in range" true (Obs.Hist.bucket_of_value max_int < Obs.Hist.n_buckets)

let test_hist_summary () =
  let h = Obs.Hist.create () in
  for v = 1 to 100 do
    Obs.Hist.observe h "lat" v
  done;
  (match Obs.Hist.dump h with
  | [ (name, s) ] ->
      checks "one histogram" "lat" name;
      checki "count" 100 s.Obs.Hist.count;
      checki "sum" 5050 s.Obs.Hist.sum;
      checki "max is exact" 100 s.Obs.Hist.max;
      checkb "p50 is the median's bucket lower bound" true
        (s.Obs.Hist.p50 >= 40 && s.Obs.Hist.p50 <= 50);
      checkb "p99 lands in the tail" true (s.Obs.Hist.p99 >= 75 && s.Obs.Hist.p99 <= 100);
      checkb "quantiles ordered" true
        (s.Obs.Hist.p50 <= s.Obs.Hist.p90
        && s.Obs.Hist.p90 <= s.Obs.Hist.p99
        && s.Obs.Hist.p99 <= s.Obs.Hist.max)
  | l -> Alcotest.failf "expected 1 histogram, got %d" (List.length l));
  checkb "off sink records nothing" true
    (Obs.Hist.observe Obs.Hist.off "x" 1;
     Obs.Hist.dump Obs.Hist.off = [])

let qcheck_hist_merge_order_invariant =
  (* recording a stream into one sink must equal recording any
     partition of it into two sinks — the second half reversed — and
     merging: the dump is a function of the multiset only *)
  QCheck.Test.make ~name:"hist merge is order- and partition-invariant" ~count:100
    QCheck.(pair (list (pair (int_range 0 2) (int_range (-4) 100_000))) small_int)
    (fun (stream, cut) ->
      let names = [| "a"; "b"; "c" |] in
      let record h l = List.iter (fun (i, v) -> Obs.Hist.observe h names.(i) v) l in
      let all = Obs.Hist.create () in
      record all stream;
      let k = match stream with [] -> 0 | _ -> cut mod (List.length stream + 1) in
      let h1 = Obs.Hist.create () and h2 = Obs.Hist.create () in
      record h1 (List.filteri (fun i _ -> i < k) stream);
      record h2 (List.rev (List.filteri (fun i _ -> i >= k) stream));
      Obs.Hist.merge ~into:h1 h2;
      Obs.Hist.dump h1 = Obs.Hist.dump all)

let test_hist_parallel_deterministic () =
  (* one shared sink pounded from 4 domains: the export must be
     byte-identical to the sequential run, since bucket bumps commute *)
  let run workers =
    let h = Obs.Hist.create () in
    let tasks =
      Array.init 64 (fun i () ->
          Obs.Hist.observe h "work" (i * 37 mod 101);
          Obs.Hist.observe h "pow2" (1 lsl (i mod 30)))
    in
    ignore (Ocgra_par.Pool.run ~workers tasks);
    Obs.Export.metrics_kv ~hists:h (Obs.Metrics.create ())
  in
  checks "1 vs 4 workers byte-identical" (run 1) (run 4)

let test_gauge_merge_not_summed () =
  (* regression: merge used to fold every cell with [+], double-counting
     gauges when a fork was absorbed *)
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  Obs.Metrics.set a "gauge.last" 5;
  Obs.Metrics.set b "gauge.last" 7;
  Obs.Metrics.set_max a "gauge.max" 9;
  Obs.Metrics.set_max b "gauge.max" 4;
  Obs.Metrics.add a "counter" 2;
  Obs.Metrics.add b "counter" 3;
  Obs.Metrics.merge ~into:a b;
  checki "counters sum" 5 (Obs.Metrics.get a "counter");
  checki "set_max folds by max, never sum" 9 (Obs.Metrics.get a "gauge.max");
  checki "set takes the source value, never sum" 7 (Obs.Metrics.get a "gauge.last")

(* ---------- the event log ---------- *)

let test_events_jsonl_valid () =
  let e = Obs.Events.create () in
  Obs.Events.emit e ~cat:"sat" "sat.ii"
    [ ("ii", Obs.Events.Int 4); ("verdict", Obs.Events.Str "unsat") ];
  Obs.Events.emit e "weird" [ ("s", Obs.Events.Str "a\"b\\c\nd\te") ];
  Obs.Events.emit e "empty" [];
  let lines =
    String.split_on_char '\n' (Obs.Export.events_jsonl e) |> List.filter (fun l -> l <> "")
  in
  checki "one line per event" 3 (List.length lines);
  List.iter (fun l -> checkb ("line is valid JSON: " ^ l) true (json_valid l)) lines

let test_events_bounded_and_absorb () =
  let e = Obs.Events.create ~cap:4 () in
  for i = 0 to 9 do
    Obs.Events.emit e "tick" [ ("i", Obs.Events.Int i) ]
  done;
  checki "retained at the cap" 4 (Obs.Events.count e);
  checki "drops counted" 6 (Obs.Events.dropped e);
  checkb "every jsonl line (dropped record included) is valid JSON" true
    (String.split_on_char '\n' (Obs.Export.events_jsonl e)
    |> List.filter (fun l -> l <> "")
    |> List.for_all json_valid);
  let into = Obs.Events.create () in
  Obs.Events.emit into "first" [];
  Obs.Events.absorb ~into e;
  let names = List.map (fun ev -> ev.Obs.Events.name) (Obs.Events.events into) in
  checkb "absorb appends in order after the host's own events" true
    (names = [ "first"; "tick"; "tick"; "tick"; "tick" ])

(* ---------- event determinism through the harness ---------- *)

let events_of_run seed =
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let obs =
    Ctx.v ~events:(Obs.Events.create ()) ~trace:Obs.Trace.off ~metrics:(Obs.Metrics.create ())
      ()
  in
  let chain = [ failing_tier; Ocgra_mappers.Registry.find "modulo-greedy" ] in
  let o = Mapper.Harness.run ~seed ~retries:1 ~deadline_s:30.0 ~obs chain p in
  checkb "mapped" true (o.Mapper.mapping <> None);
  Obs.Export.events_jsonl (Ctx.events obs)

let test_harness_events_deterministic () =
  let a = events_of_run 7 and b = events_of_run 7 in
  checks "same seed, byte-identical event log" a b;
  checkb "tier verdicts present" true
    (String.split_on_char '\n' a
    |> List.exists (fun l ->
           json_valid l
           && String.length l > 0
           &&
           let has needle =
             let nl = String.length needle and ll = String.length l in
             let rec at i = i + nl <= ll && (String.sub l i nl = needle || at (i + 1)) in
             at 0
           in
           has "harness.tier" && has "won"))

let () =
  Alcotest.run "obs"
    [
      ( "json-checker",
        [ Alcotest.test_case "accepts good, rejects bad" `Quick test_json_checker_sanity ] );
      ( "json-codec",
        [
          QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
          Alcotest.test_case "fuzz seeds are valid" `Quick test_fuzz_seeds_are_valid;
          QCheck_alcotest.to_alcotest qcheck_readers_never_raise;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and order" `Quick test_span_nesting_and_order;
          Alcotest.test_case "published on exception" `Quick test_span_survives_exception;
          Alcotest.test_case "off context records nothing" `Quick test_off_records_nothing;
        ] );
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "deterministic at one worker" `Quick test_counters_deterministic;
        ] );
      ( "concurrency",
        [ Alcotest.test_case "trace merge across 4 workers" `Quick test_trace_merge_across_workers ]
      );
      ( "exporters",
        [
          Alcotest.test_case "chrome trace valid JSON" `Quick test_chrome_trace_valid_json;
          Alcotest.test_case "metrics JSON and kv" `Quick test_metrics_exports;
        ] );
      ( "harness-trail",
        [
          Alcotest.test_case "sequential trail" `Quick test_harness_run_trail;
          Alcotest.test_case "race trail verdicts" `Quick test_race_trail_verdicts;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "bucket scheme" `Quick test_hist_buckets;
          Alcotest.test_case "summary quantiles" `Quick test_hist_summary;
          QCheck_alcotest.to_alcotest qcheck_hist_merge_order_invariant;
          Alcotest.test_case "parallel recording deterministic" `Quick
            test_hist_parallel_deterministic;
          Alcotest.test_case "gauges merge without summing" `Quick test_gauge_merge_not_summed;
        ] );
      ( "events",
        [
          Alcotest.test_case "jsonl lines are valid JSON" `Quick test_events_jsonl_valid;
          Alcotest.test_case "bounded log and absorb order" `Quick
            test_events_bounded_and_absorb;
          Alcotest.test_case "harness event log deterministic" `Quick
            test_harness_events_deterministic;
        ] );
    ]
