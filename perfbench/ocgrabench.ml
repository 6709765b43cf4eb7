(* ocgrabench: one run of one workload.

     ocgrabench --workload NAME --seed N --seconds S --trace 0|1
                [--scale full|tiny] [--plant-wrong-oracle] [--commit SHA]

   With --trace 0 the run sets up several times (setup_s is the best
   of them), then runs whole passes of the workload with tracing off
   for S seconds and prints the end-to-end metrics, timings taken as
   each op's best over the passes (see [Stats.best]).  With --trace 1 it
   runs S/2 seconds untraced, sets up afresh with a live [Ctx.t], runs
   as many passes traced, and prints the per-layer metrics of the first
   traced pass plus the tracing overhead.  Both print a JSON line with
   the sample counts behind the timings (passes, ops per pass,
   set-ups).  The last line of standard output is one JSON object:
   correct, attempted, failed, metrics.  A wrong answer from the
   program exits 1; bad arguments exit 2. *)

module Ctx = Ocgra_obs.Ctx

let usage =
  "ocgrabench --workload NAME --seed N --seconds S --trace 0|1 [--scale full|tiny] \
   [--plant-wrong-oracle] [--commit SHA]"

let workload = ref ""
let seed = ref (-1)
let seconds = ref (-1.0)
let trace = ref (-1)
let scale = ref "full"
let plant = ref false
let commit = ref "unknown"

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME workload to run");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
    ("--scale", Arg.Set_string scale, "full|tiny input size (tiny: self-test)");
    ("--plant-wrong-oracle", Arg.Set plant, " corrupt one oracle value (self-test)");
    ("--commit", Arg.Set_string commit, "SHA source commit for the host stamp");
  ]

let die msg =
  prerr_endline ("ocgrabench: " ^ msg);
  prerr_endline usage;
  exit 2

(* Run whole passes — each replays the same ops — while another pass
   of the mean length so far still fits the budget, and until there are
   three passes and enough executions behind the p50 (see
   [Stats.percentile]); or exactly [passes] of them.  The first pass's
   window in [obs] is marked for the per-layer metrics; [between] runs
   after each pass with that pass's wall time. *)
let phase (inst : Workloads.instance) obs ~budget ?passes ?(between = fun _ -> ()) () =
  let t = Stats.tally () in
  let t0 = Stats.now () in
  let more () =
    match passes with
    | Some p -> t.Stats.passes < p
    | None ->
        let spent = Stats.now () -. t0 in
        t.Stats.passes = 0
        || spent *. float_of_int (t.Stats.passes + 1) /. float_of_int t.Stats.passes <= budget
        || t.Stats.passes < 3
        || Stats.percentile t 0.5 = None
  in
  let first = ref None in
  while more () do
    let a = if t.Stats.passes = 0 then Some (Layers.mark obs) else None in
    let p0 = Stats.now () in
    inst.Workloads.pass obs t;
    Stats.end_pass t;
    Option.iter (fun a -> first := Some (a, Layers.mark obs)) a;
    between (Stats.now () -. p0)
  done;
  (t, Option.get !first)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed (ms : Layers.metric list) =
  List.iter
    (fun (x : Layers.metric) ->
      Printf.printf "# %-32s %s %s\n" x.Layers.name (json_num x.Layers.value) x.Layers.unit_)
    ms;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (x : Layers.metric) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.Layers.name
              (json_num x.Layers.value) x.Layers.unit_)
          ms))

let percentile_ms t q =
  Option.map (fun s -> s *. 1e3) (Stats.percentile t q)

let () =
  Arg.parse spec (fun a -> die ("unexpected argument " ^ a)) usage;
  let w =
    match List.find_opt (fun (w : Workloads.t) -> w.Workloads.name = !workload) Workloads.all with
    | Some w -> w
    | None -> die ("unknown workload '" ^ !workload ^ "'")
  in
  if !seed < 0 then die "--seed must be a non-negative integer";
  if !seconds <= 0.0 then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let scale =
    match !scale with
    | "full" -> Workloads.Full
    | "tiny" -> Workloads.Tiny
    | s -> die ("unknown scale " ^ s)
  in
  Printf.printf
    "{\"host\": {\"cores\": %d, \"workers\": 1, \"ocaml\": \"%s\", \"commit\": \"%s\", \"seed\": \
     %d, \"workload\": \"%s\", \"trace\": %d, \"seconds\": %s, \"scale\": \"%s\"}}\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !commit !seed w.Workloads.name !trace (json_num !seconds)
    (if scale = Workloads.Full then "full" else "tiny");
  Printf.printf "# workload %s: %s\n%!" w.Workloads.name w.Workloads.why;
  let setup obs = w.Workloads.setup ~scale ~seed:!seed ~plant:!plant obs in
  (* Set-up is timed in bursts: one before the timed phase (at least
     three set-ups and a quarter second; its last instance is the one
     measured) and, when a set-up costs under 1% of a pass, another
     after each pass, so that a cheap set-up gets its chances across the
     run like the ops.  Each set-up starts from a collected heap, so a
     pass's garbage is not billed to it; setup_s is the best one, as an
     op's time is its best execution (see [Stats.best]). *)
  let setup_times = ref [] in
  let rec burst ~reps ~seconds spent =
    Gc.full_major ();
    let t0 = Stats.now () in
    let inst = setup Ctx.off in
    let dt = Stats.now () -. t0 in
    setup_times := dt :: !setup_times;
    if reps <= 1 && spent +. dt >= seconds then (dt, inst)
    else burst ~reps:(reps - 1) ~seconds (spent +. dt)
  in
  let first_setup, inst = burst ~reps:3 ~seconds:0.25 0.0 in
  let between pass_s =
    if first_setup <= 0.01 *. pass_s then ignore (burst ~reps:1 ~seconds:(0.02 *. pass_s) 0.0)
  in
  let ms name unit_ v = { Layers.name; value = v; unit_ } in
  let tail t =
    (* the highest percentiles are reported only with ten samples
       beyond them; 0 marks "not enough samples" *)
    let p q = Option.value (percentile_ms t q) ~default:0.0 in
    [
      ms "latency_p90_ms" "ms" (p 0.90);
      ms "latency_p99_ms" "ms" (p 0.99);
      ms "sim_cycles" "count" (float_of_int t.Stats.first_cycles);
      ms "fail_share" "share" (float_of_int t.Stats.failed /. float_of_int (max 1 t.Stats.ops));
    ]
  in
  let budget = if !trace = 0 then !seconds else !seconds /. 2.0 in
  let between = if !trace = 0 then between else ignore in
  let t, _ = phase inst Ctx.off ~budget ~between () in
  let setup_s = List.fold_left Float.min infinity !setup_times in
  let ops_per_pass = t.Stats.ops / t.Stats.passes in
  (* setups counts the set-ups setup_s is the best of *)
  Printf.printf "{\"samples\": {\"passes\": %d, \"ops_per_pass\": %d, \"setups\": %d}}\n"
    t.Stats.passes ops_per_pass (List.length !setup_times);
  let tallies, metrics =
    if !trace = 0 then begin
      Printf.printf "# ops/s per pass: %s\n"
        (String.concat " "
           (List.rev_map (fun p -> Printf.sprintf "%.4g" (Stats.rate p)) t.Stats.done_));
      List.iter
        (fun (x : Layers.metric) ->
          Printf.printf "# %-32s %s %s\n" x.Layers.name (json_num x.Layers.value) x.Layers.unit_)
        (tail t);
      ( [ t ],
        [
          ms "setup_s" "s" setup_s;
          ms "throughput_ops_s" "1/s" (Stats.throughput t);
          ms "latency_p50_ms" "ms" (Option.value (percentile_ms t 0.5) ~default:nan);
          ms "ii_sum" "count" (float_of_int t.Stats.first_ii);
          ms "alloc_mwords" "Mword" (t.Stats.first_words /. 1e6);
          ms "peak_rss_mb" "MB" (Stats.peak_rss_mb ());
        ] )
    end
    else begin
      let obs = Ctx.create () in
      let traced, (a, b) = phase (setup obs) obs ~budget ~passes:t.Stats.passes () in
      let overhead = (Stats.throughput traced /. Stats.throughput t) -. 1.0 in
      ( [ t; traced ],
        Layers.metrics (Layers.window obs a b)
        @ tail t
        @ [
            ms "obs.trace_overhead_share" "share" overhead;
            ms "bench.passes" "count" (float_of_int t.Stats.passes);
            ms "bench.ops_per_pass" "count" (float_of_int ops_per_pass);
          ] )
    end
  in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  let mismatches = List.concat_map (fun t -> List.rev t.Stats.mismatches) tallies in
  List.iteri
    (fun i m -> if i < 20 then prerr_endline ("ocgrabench: MISMATCH " ^ m))
    mismatches;
  if List.length mismatches > 20 then
    Printf.eprintf "ocgrabench: ... %d mismatches in all\n" (List.length mismatches);
  print_result ~correct:(mismatches = [])
    ~attempted:(sum (fun t -> t.Stats.ops))
    ~failed:(sum (fun t -> t.Stats.failed))
    metrics;
  if mismatches <> [] then exit 1
